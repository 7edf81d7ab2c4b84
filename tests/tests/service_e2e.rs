//! Service-level end-to-end harness: the always-on multi-tenant analysis
//! service driven by seeded schedules, replayed byte-reproducibly.
//!
//! The determinism protocol: one worker thread, the service started
//! paused, the whole schedule submitted up front, then resumed — so the
//! dispatch order is the pure stride schedule. With that pinned, the
//! engine's event stream (virtual clock, job/stage/task ids, cache
//! traffic) is a pure function of the seed. The only wall-clock numbers
//! left in the trace report — kernel wall splits and span totals — are
//! canonicalized to zero before byte comparison; everything else must
//! match exactly across runs.

use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkscore_cluster::{ClusterSpec, FaultPlan, NodeId};
use sparkscore_core::{AnalysisOptions, AnalysisService, QueryError, SparkScoreContext};
use sparkscore_data::{GwasDataset, SyntheticConfig};
use sparkscore_obs::{cache_roi, report_json, ExecutionTrace};
use sparkscore_rdd::events::parse_event_log;
use sparkscore_rdd::{
    Engine, EngineEvent, EventListener, EventLogListener, JobService, JobState, RejectReason,
    ShutdownMode, TenantConfig,
};
use sparkscore_stats::pvalue::StoppingRule;

const PARTITIONS: usize = 4;
const TENANTS: usize = 8;
const QUERIES_PER_TENANT: usize = 50;

fn log_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sparkscore-service-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}.jsonl"))
}

fn cohort_dataset() -> GwasDataset {
    let mut cfg = SyntheticConfig::small(42);
    cfg.patients = 60;
    cfg.snps = 150;
    cfg.snp_sets = 10;
    GwasDataset::generate(&cfg)
}

fn tenant_name(i: usize) -> String {
    format!("tenant-{i:02}")
}

/// One full service run from a seed: 8 tenants, 50 gene queries each,
/// submitted in a seeded shuffle against a paused single-worker service,
/// then resumed and drained. Returns the completion order, the
/// canonicalized trace report, and the raw event log.
fn run_service_schedule(seed: u64, log_name: &str) -> (Vec<u64>, String, String) {
    let path = log_path(log_name);
    let log = Arc::new(EventLogListener::to_file(&path).expect("temp dir writable"));
    let engine = Engine::builder(ClusterSpec::test_small(4))
        // One host thread: which pool thread runs a task decides whose
        // scratch buffers it reuses, so parallel hosts leak scheduling
        // jitter into the scratch-reuse counters.
        .host_threads(1)
        .listener(Arc::clone(&log) as Arc<dyn EventListener>)
        .build();
    let mut builder = JobService::builder(Arc::clone(&engine))
        .workers(1)
        .queue_capacity(TENANTS * QUERIES_PER_TENANT)
        .start_paused();
    for i in 0..TENANTS {
        builder = builder.tenant(
            tenant_name(i),
            TenantConfig {
                max_queued: QUERIES_PER_TENANT,
                max_running: 1,
                // Uneven shares so the stride schedule is non-trivial.
                weight: 1 + (i % 3) as u64,
            },
        );
    }
    let service = builder.build();
    let analysis = AnalysisService::new(Arc::clone(&service));
    let ctx = SparkScoreContext::from_memory(
        Arc::clone(&engine),
        &cohort_dataset(),
        PARTITIONS,
        AnalysisOptions::default(),
    );
    analysis.register_cohort("ukb-synthetic", ctx);

    // Seeded schedule: each tenant gets exactly QUERIES_PER_TENANT
    // queries, interleaved by a seeded shuffle, gene sets seeded too.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots: Vec<usize> = (0..TENANTS)
        .flat_map(|t| std::iter::repeat_n(t, QUERIES_PER_TENANT))
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.gen_range(0..=i));
    }
    let jobs: Vec<u64> = slots
        .iter()
        .map(|&t| {
            let set = rng.gen_range(0u64..10);
            analysis
                .submit_set_query(&tenant_name(t), "ukb-synthetic", set)
                .expect("schedule fits the queue bounds")
        })
        .collect();
    service.resume();
    service.drain();

    // Quota conservation at the drain point: everything submitted is
    // terminal, nothing queued or running, per-tenant stats add up.
    let status = service.queue_status();
    assert_eq!(status.queued, 0);
    assert_eq!(status.running, 0);
    assert_eq!(status.stats.submitted, jobs.len() as u64);
    assert_eq!(status.stats.rejected, 0);
    assert_eq!(
        status.stats.dispatched,
        status.stats.completed + status.stats.failed
    );
    assert_eq!(status.stats.submitted, status.stats.dispatched);
    assert_eq!(status.stats.failed, 0, "every query must succeed");
    let tenants = service.tenants();
    assert_eq!(tenants.len(), TENANTS);
    for t in &tenants {
        assert_eq!(t.stats.submitted, QUERIES_PER_TENANT as u64, "{}", t.name);
        assert_eq!(t.stats.completed, QUERIES_PER_TENANT as u64, "{}", t.name);
        assert_eq!(t.queued, 0);
        assert_eq!(t.running, 0);
    }
    assert_eq!(
        tenants.iter().map(|t| t.stats.completed).sum::<u64>(),
        status.stats.completed
    );
    for &job in &jobs {
        assert_eq!(service.job_state(job), Some(JobState::Completed));
    }

    let order = service.completion_order();
    service.shutdown(ShutdownMode::Drain);
    log.flush().expect("flush event log");
    let text = std::fs::read_to_string(&path).expect("log written");
    let trace = ExecutionTrace::parse(&text).expect("parse own log");
    (order, canonical_report(&trace), text)
}

/// Render the trace report as JSON with the wall-clock-dependent fields
/// zeroed: kernel wall splits and span totals are host-time measurements
/// and legitimately vary run to run; everything else must not. The span
/// rows are ordered by their wall totals, so they are re-sorted by label.
fn canonical_report(trace: &ExecutionTrace) -> String {
    use serde_json::Value;

    fn field_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
        match v {
            Value::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    let mut v = report_json(trace);
    if let Some(kernels) = field_mut(&mut v, "kernels") {
        for key in ["kernel_task_wall_ns", "total_task_wall_ns"] {
            if let Some(f) = field_mut(kernels, key) {
                *f = Value::from(0u64);
            }
        }
    }
    if let Some(Value::Array(spans)) = field_mut(&mut v, "spans") {
        for s in spans.iter_mut() {
            if let Some(f) = field_mut(s, "total_ns") {
                *f = Value::from(0u64);
            }
        }
        spans.sort_by_cached_key(|s| s.get("label").and_then(Value::as_str).map(str::to_owned));
    }
    v.to_string()
}

#[test]
fn seeded_service_runs_replay_byte_reproducibly() {
    let (order_a, report_a, text_a) = run_service_schedule(1234, "replay_a");
    let (order_b, report_b, _) = run_service_schedule(1234, "replay_b");
    assert_eq!(
        order_a, order_b,
        "same seed must replay the same completion order"
    );
    assert_eq!(
        report_a, report_b,
        "same seed must replay to an identical canonical trace report"
    );
    let (order_c, _, _) = run_service_schedule(4321, "replay_c");
    assert_ne!(order_a, order_c, "a different seed reshuffles the schedule");

    // The shared cached U: materialized exactly once (one cache miss per
    // partition, summed over every query's tasks), every later query —
    // 399 of them — hits it.
    let mut hits = 0u64;
    let mut misses = 0u64;
    for event in parse_event_log(&text_a).expect("parse raw events") {
        if let EngineEvent::TaskEnd { metrics, .. } = event {
            hits += metrics.cache_hits;
            misses += metrics.cache_misses;
        }
    }
    assert_eq!(
        misses, PARTITIONS as u64,
        "U must be materialized exactly once"
    );
    assert_eq!(
        hits,
        ((TENANTS * QUERIES_PER_TENANT - 1) * PARTITIONS) as u64,
        "every query after the first reads U from the cache"
    );
    let trace = ExecutionTrace::parse(&text_a).unwrap();
    let roi = cache_roi(&trace);
    assert!(roi.hits > 0, "cross-job cache ROI must be visible: {roi:?}");
    assert!(roi.est_saved_ns > 0, "{roi:?}");
}

#[test]
fn admission_control_rejects_with_exact_reasons_at_the_service_api() {
    let engine = Engine::builder(ClusterSpec::test_small(2))
        .host_threads(2)
        .build();
    let service = JobService::builder(Arc::clone(&engine))
        .workers(1)
        .queue_capacity(3)
        .start_paused()
        .tenant(
            "small",
            TenantConfig {
                max_queued: 2,
                max_running: 1,
                weight: 1,
            },
        )
        .tenant(
            "other",
            TenantConfig {
                max_queued: 8,
                max_running: 1,
                weight: 1,
            },
        )
        .build();
    let analysis = AnalysisService::new(Arc::clone(&service));
    let ctx = SparkScoreContext::from_memory(
        Arc::clone(&engine),
        &cohort_dataset(),
        2,
        AnalysisOptions::default(),
    );
    analysis.register_cohort("cohort", ctx);

    assert!(matches!(
        analysis.submit_set_query("small", "nonexistent", 0),
        Err(QueryError::UnknownCohort)
    ));
    assert!(matches!(
        analysis.submit_set_query("nobody", "cohort", 0),
        Err(QueryError::Rejected(RejectReason::UnknownTenant))
    ));
    analysis.submit_set_query("small", "cohort", 0).unwrap();
    analysis.submit_set_query("small", "cohort", 1).unwrap();
    assert!(matches!(
        analysis.submit_set_query("small", "cohort", 2),
        Err(QueryError::Rejected(RejectReason::TenantQueueFull {
            limit: 2
        }))
    ));
    analysis.submit_set_query("other", "cohort", 0).unwrap();
    assert!(matches!(
        analysis.submit_set_query("other", "cohort", 1),
        Err(QueryError::Rejected(RejectReason::QueueFull {
            capacity: 3
        }))
    ));
    service.resume();
    service.drain();
    let stats = service.queue_status().stats;
    assert_eq!(stats.submitted, 3);
    assert_eq!(
        stats.rejected, 3,
        "unknown-tenant, tenant-full, and queue-full all counted"
    );
    assert_eq!(stats.completed, 3);
    service.shutdown(ShutdownMode::Drain);
}

/// One query's answer: `(set, score bits, resample)`.
type Answer = (u64, u64, Option<(usize, usize)>);

/// Answers to a fixed mix of observed, fixed-B and adaptive MC queries
/// from a service with `workers` workers on a two-thread pool.
fn service_answers(workers: usize) -> Vec<Answer> {
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(2)
        .build();
    let quota = TenantConfig {
        max_queued: 64,
        max_running: workers,
        weight: 1,
    };
    let service = JobService::builder(Arc::clone(&engine))
        .workers(workers)
        .tenant("t", quota)
        .build();
    let analysis = AnalysisService::new(Arc::clone(&service));
    let ctx = SparkScoreContext::from_memory(
        Arc::clone(&engine),
        &cohort_dataset(),
        PARTITIONS,
        AnalysisOptions::default(),
    );
    analysis.register_cohort("c", ctx);
    let rule = StoppingRule::new(32, 0.05, 0.05);
    let jobs: Vec<u64> = (0..24u64)
        .map(|q| {
            let (set, seed) = (q % 10, 7 + q % 2);
            match q % 3 {
                0 => analysis.submit_set_query("t", "c", set),
                1 => analysis.submit_mc_query("t", "c", set, 256, seed),
                _ => analysis.submit_adaptive_mc_query("t", "c", set, 512, seed, rule),
            }
            .expect("within quota")
        })
        .collect();
    let answers = jobs
        .iter()
        .map(|&job| {
            let r = analysis.wait_result(job).expect("query answered");
            (r.set, r.score.to_bits(), r.resample)
        })
        .collect();
    service.shutdown(ShutdownMode::Drain);
    answers
}

/// Two workers drive the pool at once — the one that finds the stage
/// slot taken runs its stage on its own thread — and must return, bit for
/// bit, what one worker returns for the same queries.
#[test]
fn two_workers_answer_bit_equal_to_one_worker() {
    assert_eq!(service_answers(2), service_answers(1));
}

/// Fault-injection satellite: a node dies mid-schedule under concurrent
/// tenants. Every job must still reach a terminal state, every score
/// must match a no-fault oracle, and the injected fault plus the cache
/// recovery it forces must be visible in the JSONL event log.
#[test]
fn node_loss_mid_schedule_recovers_and_matches_the_no_fault_oracle() {
    // Oracle: the same set queries on an identical, fault-free engine.
    let oracle_engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .build();
    let oracle_service = JobService::builder(Arc::clone(&oracle_engine))
        .workers(1)
        .tenant("o", TenantConfig::default())
        .build();
    let oracle_analysis = AnalysisService::new(Arc::clone(&oracle_service));
    let oracle_ctx = SparkScoreContext::from_memory(
        oracle_engine,
        &cohort_dataset(),
        PARTITIONS,
        AnalysisOptions::default(),
    );
    oracle_analysis.register_cohort("cohort", oracle_ctx);
    let oracle: std::collections::BTreeMap<u64, f64> = (0..10u64)
        .map(|set| {
            let job = oracle_analysis
                .submit_set_query("o", "cohort", set)
                .expect("an idle service admits the query");
            let answer = oracle_analysis.wait_result(job).expect("oracle answer");
            (set, answer.score)
        })
        .collect();
    oracle_service.shutdown(ShutdownMode::Drain);

    let path = log_path("fault_injection");
    let log = Arc::new(EventLogListener::to_file(&path).expect("temp dir writable"));
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .listener(Arc::clone(&log) as Arc<dyn EventListener>)
        .build();
    let quota = TenantConfig {
        max_queued: 16,
        max_running: 1,
        weight: 1,
    };
    let service = JobService::builder(Arc::clone(&engine))
        .workers(2)
        .queue_capacity(64)
        .tenant("t0", quota)
        .tenant("t1", quota)
        .tenant("t2", quota)
        .build();
    let analysis = AnalysisService::new(Arc::clone(&service));
    let ctx = SparkScoreContext::from_memory(
        Arc::clone(&engine),
        &cohort_dataset(),
        PARTITIONS,
        AnalysisOptions::default(),
    );
    analysis.register_cohort("cohort", ctx);
    // Node 1 dies after 25 tasks — a few queries in, with the cached U
    // partially resident on the dead node.
    engine.set_fault_plan(FaultPlan::kill_node_after(NodeId(1), 25));

    let mut jobs = Vec::new();
    for round in 0..12u64 {
        for t in 0..3 {
            let job = analysis
                .submit_set_query(&format!("t{t}"), "cohort", round % 10)
                .expect("within quota");
            jobs.push((job, round % 10));
        }
    }
    for &(job, set) in &jobs {
        let result = analysis
            .wait_result(job)
            .expect("job reached a terminal state");
        assert_eq!(service.job_state(job), Some(JobState::Completed));
        assert_eq!(
            result.score, oracle[&set],
            "set {set} must match the no-fault oracle after recovery"
        );
    }
    assert!(
        !engine.cluster().node(NodeId(1)).is_alive(),
        "the fault plan must actually have fired"
    );
    service.shutdown(ShutdownMode::Drain);
    log.flush().expect("flush event log");

    let text = std::fs::read_to_string(&path).expect("log written");
    let mut fault_injected = 0;
    let mut blocks_lost = 0;
    for event in parse_event_log(&text).expect("parse raw events") {
        match event {
            EngineEvent::FaultInjected { .. } => fault_injected += 1,
            EngineEvent::CacheEvicted { pressure, .. } if !pressure => blocks_lost += 1,
            _ => {}
        }
    }
    assert!(fault_injected >= 1, "the node kill must be in the log");
    assert!(
        blocks_lost >= 1,
        "losing the node must drop its cached U blocks"
    );
    let m = engine.metrics_snapshot();
    assert!(
        m.recomputed_partitions > 0,
        "recovery must recompute the lost U partitions: {m:?}"
    );
}
