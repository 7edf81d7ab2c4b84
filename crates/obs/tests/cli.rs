//! End-to-end tests of the `trace` binary: every subcommand against a
//! real JSONL log produced by the engine, plus the determinism acceptance
//! check — byte-identical `report` and `critical-path` output across
//! two invocations on the same log — and the error paths.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;

use sparkscore_cluster::ClusterSpec;
use sparkscore_rdd::{Engine, EventListener, EventLogListener};

fn trace_bin() -> &'static str {
    env!("CARGO_BIN_EXE_trace")
}

fn run(args: &[&str]) -> Output {
    Command::new(trace_bin())
        .args(args)
        .output()
        .expect("spawn trace binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// Run a tiny two-stage workload with an event log attached; returns the
/// log path.
fn write_sample_log(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sparkscore-obs-cli-{}", std::process::id()));
    let path = dir.join(format!("{name}.jsonl"));
    let log = Arc::new(EventLogListener::to_file(&path).expect("temp dir writable"));
    let engine = Engine::builder(ClusterSpec::test_small(2))
        .listener(Arc::clone(&log) as Arc<dyn EventListener>)
        .build();
    let data = engine
        .parallelize((0u64..64).collect::<Vec<_>>(), 8)
        .map(|x| x * 3)
        .cache();
    assert_eq!(data.count(), 64); // first job: computes + caches
    let total: u64 = data.reduce(|a, b| a + b).unwrap(); // second job: cache hits
    assert_eq!(total, (0u64..64).map(|x| x * 3).sum::<u64>());
    let keyed = data.key_by(|x| x % 4).reduce_by_key(4, |a, b| a + b);
    assert_eq!(keyed.count(), 4); // third job: shuffle-map + result stages
    log.flush().expect("flush event log");
    path
}

#[test]
fn subcommands_run_and_output_is_deterministic() {
    let log = write_sample_log("determinism");
    let log = log.to_str().unwrap();

    for sub in ["report", "critical-path"] {
        let first = run(&[sub, log]);
        assert!(first.status.success(), "{sub} failed: {first:?}");
        let second = run(&[sub, log]);
        assert_eq!(
            stdout(&first),
            stdout(&second),
            "{sub} must be byte-identical across invocations"
        );
        assert!(!stdout(&first).is_empty(), "{sub} produced no output");
    }

    let report = stdout(&run(&["report", log]));
    assert!(report.contains("== critical paths =="), "{report}");
    assert!(report.contains("cache ROI: hits="), "{report}");
    // The keyed job ran a ShuffleMap stage before its Result stage.
    assert!(report.contains("[ShuffleMap] -> "), "{report}");
}

#[test]
fn diff_compares_two_logs() {
    let a = write_sample_log("diff-a");
    let b = write_sample_log("diff-b");
    let out = run(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("== cache ROI =="), "{text}");
    assert!(text.contains("== stage-by-stage"), "{text}");
}

#[test]
fn bad_usage_and_missing_files_fail_cleanly() {
    let usage = run(&[]);
    assert_eq!(usage.status.code(), Some(2));

    let unknown = run(&["frobnicate", "x.jsonl"]);
    assert_eq!(unknown.status.code(), Some(2));

    let missing = run(&["report", "/nonexistent/no-such-log.jsonl"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot read"));

    let dir = std::env::temp_dir().join(format!("sparkscore-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbled = dir.join("garbled.jsonl");
    std::fs::write(&garbled, "{\"Event\": \"JobStart\"\nnot json at all\n").unwrap();
    let parse = run(&["report", garbled.to_str().unwrap()]);
    assert_eq!(parse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&parse.stderr).contains("cannot parse"));
}
