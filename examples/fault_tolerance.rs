//! Fault-tolerance demonstration: a node dies in the middle of a Monte
//! Carlo analysis; the engine loses that node's cached `U` blocks, shuffle
//! outputs, and DFS replicas, recovers everything from lineage, and the
//! statistical results are bit-for-bit unchanged — the Spark property the
//! paper highlights ("harnesses the fault-tolerant features of Spark").
//!
//! Run with: `cargo run --release --example fault_tolerance`

use std::sync::Arc;

use sparkscore_cluster::{ClusterSpec, FaultPlan, NodeId};
use sparkscore_core::{AnalysisOptions, SparkScoreContext};
use sparkscore_data::{write_dataset_to_dfs, GwasDataset, SyntheticConfig};
use sparkscore_rdd::{Engine, EngineEvent, EventListener, MemoryEventListener};

fn build(engine: &Arc<Engine>, dataset: &GwasDataset) -> SparkScoreContext {
    let (paths, _) = write_dataset_to_dfs(engine.dfs(), "/gwas", dataset).expect("fresh DFS");
    SparkScoreContext::from_dfs(Arc::clone(engine), &paths, AnalysisOptions::default())
        .expect("inputs written above")
}

fn main() {
    let mut config = SyntheticConfig::small(99);
    config.patients = 150;
    config.snps = 300;
    config.snp_sets = 12;
    let dataset = GwasDataset::generate(&config);

    // Reference run on a healthy cluster.
    let healthy = Engine::builder(ClusterSpec::m3_2xlarge(4))
        .dfs_block_size(32 * 1024)
        .dfs_replication(2)
        .build();
    let clean = build(&healthy, &dataset).monte_carlo(50, 3, true);
    println!(
        "healthy run:   {} replicates, {} tasks, {} recomputed partitions",
        clean.num_replicates, clean.metrics.tasks, clean.metrics.recomputed_partitions
    );

    // Same analysis, but node 2 dies after 150 completed tasks, and the
    // fault injector also drops a cached block every 40 tasks. A memory
    // listener captures the engine's event stream so the recovery work is
    // visible, not just inferred from counters.
    let events = Arc::new(MemoryEventListener::new());
    let chaotic = Engine::builder(ClusterSpec::m3_2xlarge(4))
        .dfs_block_size(32 * 1024)
        .dfs_replication(2)
        .fault_plan(FaultPlan::kill_node_after(NodeId(2), 150).with_cached_block_loss_every(40))
        .listener(Arc::clone(&events) as Arc<dyn EventListener>)
        .build();
    let faulty = build(&chaotic, &dataset).monte_carlo(50, 3, true);
    println!(
        "chaotic run:   {} replicates, {} tasks, {} recomputed partitions, {} map re-runs",
        faulty.num_replicates,
        faulty.metrics.tasks,
        faulty.metrics.recomputed_partitions,
        faulty.metrics.shuffle_map_reruns,
    );
    println!(
        "node 2 alive after run: {}",
        chaotic.cluster().node(NodeId(2)).is_alive()
    );

    // Replay the captured event stream: every injected fault, every shuffle
    // map re-run, and every task that recomputed previously-cached blocks.
    println!("\nrecovery events captured during the chaotic run:");
    let mut recompute_tasks = 0u64;
    for event in events.snapshot() {
        match event {
            EngineEvent::FaultInjected { fault } => println!("  fault injected: {fault:?}"),
            EngineEvent::ShuffleMapRerun { shuffle, map_part } => {
                println!("  shuffle {shuffle} map task {map_part} re-run from lineage")
            }
            EngineEvent::TaskEnd { stage, metrics } if metrics.recomputed_partitions > 0 => {
                recompute_tasks += 1;
                if recompute_tasks <= 8 {
                    println!(
                        "  stage {stage} partition {} recomputed {} lost cached block(s)",
                        metrics.partition, metrics.recomputed_partitions
                    );
                }
            }
            _ => {}
        }
    }
    if recompute_tasks > 8 {
        println!(
            "  ... and {} more recompute-flagged tasks",
            recompute_tasks - 8
        );
    }
    assert!(
        recompute_tasks > 0,
        "the event stream must show recomputation"
    );

    // The same captured stream, analyzed: where the recovery time went
    // (critical path) and what the cache still bought despite the faults.
    let trace = sparkscore_obs::ExecutionTrace::from_events(&events.snapshot());
    let paths = sparkscore_obs::critical_paths(&trace);
    if let Some(worst) = paths.iter().max_by_key(|p| (p.path_ns, p.job)) {
        println!(
            "\nslowest job during recovery: job {} ({} stages, critical path {})",
            worst.job,
            worst.stages.len(),
            sparkscore_obs::fmt_ns(worst.path_ns),
        );
    }
    println!(
        "{}",
        sparkscore_obs::cache_roi_line(&sparkscore_obs::cache_roi(&trace))
    );

    // Verify: identical observed statistics and resampling counters.
    let mut max_rel = 0.0f64;
    for (a, b) in clean.observed.iter().zip(&faulty.observed) {
        max_rel = max_rel.max((a.score - b.score).abs() / (1.0 + b.score.abs()));
    }
    println!("\nmax relative observed-statistic difference: {max_rel:.2e}");
    println!(
        "resampling counters identical: {}",
        clean.counts_ge == faulty.counts_ge
    );
    assert!(max_rel < 1e-9, "faults must not change results");
    assert_eq!(clean.counts_ge, faulty.counts_ge);
    assert!(
        faulty.metrics.recomputed_partitions > 0,
        "the chaotic run must actually have recomputed lost blocks"
    );
    println!("\nlineage recovery confirmed: same answers, extra recomputation only.");
}
