//! Acceptance tests for the trace analyzer against real SparkScore runs:
//! the critical path reported for an experiment-C-style workload must
//! match the engine's shuffle-dependency structure, the cache-ROI totals
//! must equal the sums of the per-task `TaskMetrics` counters in the log,
//! and a diff between the permutation (Algorithm 2) and cached-multiplier
//! (Algorithm 3) pipelines must attribute strictly more cache ROI to the
//! multiplier run.

use std::path::PathBuf;
use std::sync::Arc;

use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, SparkScoreContext};
use sparkscore_data::{GwasDataset, SyntheticConfig};
use sparkscore_obs::{cache_roi, critical_paths, diff_report, report, ExecutionTrace};
use sparkscore_rdd::events::parse_event_log;
use sparkscore_rdd::{Engine, EngineEvent, EventListener, EventLogListener, StageKind};

fn log_path(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("sparkscore-trace-accept-{}", std::process::id()))
        .join(format!("{name}.jsonl"))
}

fn dataset() -> GwasDataset {
    let mut cfg = SyntheticConfig::small(7);
    cfg.patients = 50;
    cfg.snps = 120;
    cfg.snp_sets = 6;
    GwasDataset::generate(&cfg)
}

/// Run `work` on a small observed cluster, flush, and return the raw log.
fn logged_run(name: &str, cache_budget: Option<u64>, work: impl Fn(&SparkScoreContext)) -> String {
    let path = log_path(name);
    let log = Arc::new(EventLogListener::to_file(&path).expect("temp dir writable"));
    let mut builder = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .listener(Arc::clone(&log) as Arc<dyn EventListener>);
    if let Some(bytes) = cache_budget {
        builder = builder.cache_budget_bytes(bytes);
    }
    let engine = builder.build();
    let ctx = SparkScoreContext::from_memory(engine, &dataset(), 6, AnalysisOptions::default());
    work(&ctx);
    log.flush().expect("flush event log");
    std::fs::read_to_string(&path).expect("log written")
}

#[test]
fn critical_path_matches_shuffle_structure_and_roi_matches_task_sums() {
    // Experiment-C style: a cache-constrained Monte Carlo run (the strong
    // scaling workload), so hits, misses, and evictions all appear.
    let text = logged_run("experiment_c_style", Some(64 * 1024), |ctx| {
        let run = ctx.monte_carlo(4, 11, true);
        assert!(run.metrics.tasks > 0);
    });
    let trace = ExecutionTrace::parse(&text).expect("parse own log");

    // Critical paths: each job's chain must mirror the engine's stage
    // dependency structure — every parent shuffle-map stage before the
    // final result stage, and the path length equal to the sum of the
    // chain's stage makespans.
    let paths = critical_paths(&trace);
    assert!(!paths.is_empty(), "MC run produced jobs");
    let mut saw_shuffle_chain = false;
    for p in &paths {
        assert!(!p.stages.is_empty(), "job {} has stages", p.job);
        let (last, parents) = p.stages.split_last().unwrap();
        assert_eq!(
            last.kind,
            Some(StageKind::Result),
            "job {}'s path ends at its result stage",
            p.job
        );
        for parent in parents {
            assert_eq!(
                parent.kind,
                Some(StageKind::ShuffleMap),
                "job {}'s upstream path stages are shuffle-map stages",
                p.job
            );
        }
        saw_shuffle_chain |= !parents.is_empty();
        assert_eq!(
            p.path_ns,
            p.stages.iter().map(|s| s.makespan_ns).sum::<u64>()
        );
        assert!(
            p.path_ns <= p.virtual_advance_ns,
            "with one driver, the path cannot exceed the job's virtual advance"
        );
    }
    assert!(
        saw_shuffle_chain,
        "the scoring pipeline shuffles, so some path must cross a shuffle dependency"
    );

    // Cache ROI: totals must be exactly the sums of the per-task counters
    // in the log, summed here independently from the raw events.
    let (mut hits, mut misses, mut recomputed) = (0u64, 0u64, 0u64);
    for event in parse_event_log(&text).expect("parse raw events") {
        if let EngineEvent::TaskEnd { metrics, .. } = event {
            hits += metrics.cache_hits;
            misses += metrics.cache_misses;
            recomputed += metrics.recomputed_partitions;
        }
    }
    let roi = cache_roi(&trace);
    assert_eq!(
        (roi.hits, roi.misses, roi.recomputed),
        (hits, misses, recomputed)
    );
    assert!(roi.hits > 0, "cached multiplier run must hit the cache");
    assert!(
        roi.misses > 0,
        "a 64 KiB budget must force misses in this workload"
    );

    // And the rendered report must carry the same numbers and structure.
    let rendered = report(&trace);
    assert!(rendered.contains("== critical paths =="), "{rendered}");
    assert!(rendered.contains("[ShuffleMap] -> "), "{rendered}");
    assert!(
        rendered.contains(&format!("cache ROI: hits={hits} misses={misses}")),
        "{rendered}"
    );
}

#[test]
fn multiplier_run_shows_strictly_higher_cache_roi_than_permutation() {
    // Algorithm 2 (permutation: no reusable intermediate) vs Algorithm 3
    // (Monte Carlo with the cached U RDD), same workload and iterations.
    let perm = logged_run("alg2_permutation", None, |ctx| {
        ctx.permutation(4, 21);
    });
    let mc = logged_run("alg3_multiplier", None, |ctx| {
        ctx.monte_carlo(4, 21, true);
    });
    let perm_trace = ExecutionTrace::parse(&perm).unwrap();
    let mc_trace = ExecutionTrace::parse(&mc).unwrap();

    let perm_roi = cache_roi(&perm_trace);
    let mc_roi = cache_roi(&mc_trace);
    assert!(
        mc_roi.hits > perm_roi.hits,
        "multiplier must reuse the cached U RDD more: {mc_roi:?} vs {perm_roi:?}"
    );
    assert!(
        mc_roi.est_saved_ns > perm_roi.est_saved_ns,
        "multiplier must save strictly more virtual time: {mc_roi:?} vs {perm_roi:?}"
    );

    // The diff report must name the multiplier run as the cache winner.
    let diff = diff_report(
        "alg2-permutation",
        &perm_trace,
        "alg3-multiplier",
        &mc_trace,
    );
    assert!(
        diff.contains("alg3-multiplier saves an estimated"),
        "{diff}"
    );
}

/// The trace analyzer's half of the one-site-counter contract (the engine
/// listeners' half is `a_counter_defined_in_one_place_reaches_every_listener`
/// in `crates/rdd/tests/events.rs`): a counter nothing in the workspace
/// knows about is summed by `ExecutionTrace` and listed by both report
/// renderers, in name order, next to the analysis crate's own counters.
#[test]
fn one_site_counter_reaches_the_trace() {
    use sparkscore_rdd::TaskCounter;

    const ZEBRA_STRIPES: TaskCounter = TaskCounter::new("zebra_stripes");
    let text = logged_run("one_site_counter", None, |ctx| {
        ctx.u_dataset().grid_cells(|task, _, rows| {
            task.count(&ZEBRA_STRIPES, rows.len() as u64);
        });
    });
    let trace = ExecutionTrace::parse(&text).expect("parse own log");
    // One stripe per SNP row of U: at most the cohort's 120 SNPs.
    let stripes = trace.counter_total("zebra_stripes");
    assert!(stripes > 0 && stripes <= 120, "{stripes}");
    let by_stage: u64 = trace
        .stages
        .iter()
        .map(|s| s.counter("zebra_stripes"))
        .sum();
    assert_eq!(by_stage, stripes);
    // The application's own counters ride the same path.
    let kernel_rows = trace.counter_total("kernel_rows");
    assert_eq!(kernel_rows, stripes * 50, "50 patients per SNP row");

    let rendered = report(&trace);
    let listed = format!("kernel_rows={kernel_rows} packed_kernel_rows=0 scratch_reuses=");
    assert!(rendered.contains(&listed), "{rendered}");
    assert!(
        rendered.contains(&format!(" zebra_stripes={stripes}\n")),
        "{rendered}"
    );
    let json = sparkscore_obs::report_json(&trace).to_string();
    assert!(
        json.contains(&format!(
            "\"zebra_stripes\":{stripes}}},\"kernel_task_wall_ns\""
        )),
        "{json}"
    );
}

/// The ingest operator is visible: a traced observed pass over a DFS-backed
/// context records one `kernel:ingest` span per genotype block, each inside
/// the task that read the block, and `trace report` lists the label beside
/// the scoring kernel's.
#[test]
fn ingest_span_sits_under_every_genotype_input_task() {
    use sparkscore_data::write_dataset_to_dfs;

    let path = log_path("ingest_span");
    let log = Arc::new(EventLogListener::to_file(&path).expect("temp dir writable"));
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .dfs_block_size(2048)
        .listener(Arc::clone(&log) as Arc<dyn EventListener>)
        .build();
    let (paths, metas) = write_dataset_to_dfs(engine.dfs(), "/gwas", &dataset()).unwrap();
    let genotype_blocks = metas[0].num_blocks();
    assert!(genotype_blocks > 2, "genotypes must span blocks");
    let ctx = SparkScoreContext::from_dfs(engine, &paths, AnalysisOptions::default()).unwrap();
    ctx.observed();
    log.flush().expect("flush event log");
    let text = std::fs::read_to_string(&path).expect("log written");
    let trace = ExecutionTrace::parse(&text).expect("parse own log");

    let ingest: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.label == "kernel:ingest")
        .collect();
    assert_eq!(ingest.len(), genotype_blocks);
    let tasks: Vec<_> = trace.stages.iter().flat_map(|s| &s.tasks).collect();
    let mut parents = Vec::new();
    for span in &ingest {
        let task = tasks
            .iter()
            .find(|t| t.span.span == span.parent)
            .expect("an ingest span's parent is a task");
        assert!(task.input_bytes > 0, "that task read a block");
        assert!(
            task.mono_start_ns <= span.start_ns && span.end_ns <= task.mono_end_ns,
            "the span lies inside its task"
        );
        parents.push(span.parent);
        // The scoring kernel ran in the same task, after the block was
        // packed.
        let scored = trace
            .spans
            .iter()
            .find(|s| s.parent == span.parent && s.label == "kernel:contributions")
            .expect("the ingest task also scores");
        assert!(span.end_ns <= scored.start_ns);
    }
    parents.sort_unstable();
    parents.dedup();
    assert_eq!(parents.len(), genotype_blocks, "one span per input task");

    let rendered = report(&trace);
    let spans_section = rendered.split("== spans ==").nth(1).expect("spans section");
    assert!(
        spans_section.contains(&format!(
            "{:<24} count={genotype_blocks:<6}",
            "kernel:ingest"
        )),
        "{rendered}"
    );
    assert!(spans_section.contains("kernel:contributions"), "{rendered}");
}
