//! Smoke tests of the built binary at `--quick` sizes: the emitted names
//! are exactly the names `BENCHMARK.json` declares, and `--out` documents
//! feed `compare`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::{from_str_value, Value};

const EXE: &str = env!("CARGO_BIN_EXE_benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs")
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(Value::as_str)
                    .expect("a string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn quick_run_emits_exactly_the_declared_workloads_and_metrics() {
    let declared = from_str_value(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = declared
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let end_to_end = names(declared.get("end_to_end").expect("end_to_end"));
    let per_layer = names(declared.get("per_layer").expect("per_layer"));
    assert!(
        end_to_end.contains(&("setup_s".to_string(), "s".to_string())),
        "the contract requires setup_s"
    );

    let out = run(&["--quick", "--seed", "11"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One result object per (workload, pass), in order.
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| from_str_value(l).expect("result line parses"))
        .collect();
    assert_eq!(results.len(), 2 * workloads.len());
    assert!(stdout.lines().last().expect("output").starts_with('{'));
    for (i, result) in results.iter().enumerate() {
        let Value::Object(pairs) = result else {
            panic!("result is an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(
            result
                .get("attempted")
                .and_then(Value::as_u64)
                .expect("attempted")
                >= 1
        );
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("metrics is an object");
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        let expected = if i % 2 == 0 { &end_to_end } else { &per_layer };
        assert_eq!(
            &emitted,
            expected,
            "pass {i} of workload {}",
            workloads[i / 2]
        );
        if i % 2 == 0 {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64).expect("value");
                assert!(value > 0.0, "end-to-end metric {name} must never be 0");
            }
        }
    }

    // The per-metric lines name every (workload, metric) once.
    let lines: BTreeSet<(String, String)> = stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .map(|l| {
            let mut words = l.split_whitespace();
            (
                words.next().expect("workload").to_string(),
                words.next().expect("metric").to_string(),
            )
        })
        .collect();
    let expected: BTreeSet<(String, String)> = workloads
        .iter()
        .flat_map(|w| {
            end_to_end
                .iter()
                .chain(&per_layer)
                .map(move |(name, _)| (w.clone(), name.clone()))
        })
        .collect();
    assert_eq!(lines, expected);
}

#[test]
fn out_documents_accumulate_and_compare_reads_them() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let a = dir.join("quick_a.json");
    let b = dir.join("quick_b.json");
    for path in [&a, &b] {
        let _ = std::fs::remove_file(path);
    }
    let (a, b) = (
        a.to_str().expect("utf-8 path"),
        b.to_str().expect("utf-8 path"),
    );
    for (path, seed) in [(a, "1"), (a, "2"), (b, "1")] {
        let out = run(&[
            "--quick",
            "--workload",
            "svc_observed",
            "--trace",
            "0",
            "--seed",
            seed,
            "--out",
            path,
        ]);
        assert!(out.status.success());
    }
    let doc = from_str_value(&std::fs::read_to_string(a).expect("document A")).expect("parses");
    let sets = doc.get("sets").and_then(Value::as_array).expect("sets");
    assert_eq!(sets.len(), 2, "--out appends to an existing document");
    for key in [
        "nproc",
        "host_threads",
        "cpu_model",
        "rustc",
        "git_commit",
        "seed",
        "total_run_s",
    ] {
        assert!(sets[0].get(key).is_some(), "provenance records {key}");
    }
    let run0 = &sets[0].get("runs").and_then(Value::as_array).expect("runs")[0];
    assert!(run0.get("gen_s").and_then(Value::as_f64).is_some());
    assert!(run0
        .get("metrics")
        .and_then(|m| m.get("op_p50_ms"))
        .and_then(|m| m.get("samples"))
        .and_then(Value::as_u64)
        .is_some());

    let out = run(&["compare", a, b]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    // Quick-mode timings are noise, so any verdict may appear; `worse`
    // alone decides the exit code.
    let worse = stdout.lines().any(|l| l.contains(" worse "));
    assert_eq!(out.status.code(), Some(i32::from(worse)), "{stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("svc_observed"))
        .collect();
    assert_eq!(rows.len(), 6, "one row per end-to-end metric:\n{stdout}");
    assert!(rows
        .iter()
        .all(|r| ["within", "worse", "better", "unresolved"]
            .iter()
            .any(|v| r.contains(v))));

    assert_eq!(run(&["compare", a]).status.code(), Some(2));
    assert_eq!(run(&["--no-such-flag"]).status.code(), Some(2));
}
