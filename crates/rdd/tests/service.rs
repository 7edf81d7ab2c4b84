//! Service-level harness for the multi-tenant [`JobService`]:
//! deterministic replay of seeded submission schedules, property tests
//! of the pure [`AdmissionQueue`] under arbitrary interleavings, and a
//! seeded stress test racing cache admit/evict against concurrent
//! service jobs with a ledger cross-check at quiesce.

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkscore_cluster::ClusterSpec;
use sparkscore_rdd::{
    AdmissionQueue, Engine, JobService, JobState, MemCategory, Registry, RejectReason,
    ShutdownMode, TenantConfig,
};

fn engine() -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(2))
        .host_threads(2)
        .build()
}

fn quota(weight: u64) -> TenantConfig {
    TenantConfig {
        max_queued: 256,
        max_running: 1,
        weight,
    }
}

/// Run one seeded submission schedule on a paused single-worker service
/// and return `(completion order, tenant of each completed job)` — the
/// deterministic replay record.
fn run_schedule(seed: u64) -> (Vec<u64>, Vec<String>) {
    let service = JobService::builder(engine())
        .workers(1)
        .queue_capacity(256)
        .start_paused()
        .tenant("alpha", quota(3))
        .tenant("beta", quota(2))
        .tenant("gamma", quota(1))
        .build();
    let tenants = ["alpha", "beta", "gamma"];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tenant_of = std::collections::BTreeMap::new();
    for _ in 0..60 {
        let tenant = tenants[rng.gen_range(0..tenants.len())];
        let n = rng.gen_range(10u64..200);
        let job = service
            .submit(tenant, move |e| {
                let total: u64 = e
                    .parallelize((0..n).collect::<Vec<_>>(), 2)
                    .map(|x| x + 1)
                    .reduce(|a, b| a + b)
                    .unwrap_or(0);
                (total == n * (n + 1) / 2)
                    .then_some(())
                    .ok_or_else(|| "bad sum".to_string())
            })
            .expect("within quota");
        tenant_of.insert(job, tenant.to_string());
    }
    service.resume();
    service.drain();
    let order = service.completion_order();
    let tenant_order = order.iter().map(|j| tenant_of[j].clone()).collect();
    service.shutdown(ShutdownMode::Drain);
    (order, tenant_order)
}

#[test]
fn seeded_schedules_replay_deterministically() {
    let (order_a, tenants_a) = run_schedule(7);
    let (order_b, tenants_b) = run_schedule(7);
    assert_eq!(order_a, order_b, "same seed, same completion order");
    assert_eq!(tenants_a, tenants_b);
    let (order_c, _) = run_schedule(8);
    assert_ne!(order_a, order_c, "different schedule, different order");
}

#[test]
fn completion_interleaving_is_weight_proportional() {
    let (_, tenant_order) = run_schedule(7);
    // While every tenant still has work outstanding, completions stay
    // interleaved — no long per-tenant runs. (Once a tenant's jobs are
    // exhausted the scheduler legitimately drains the rest back to back,
    // so only the all-backlogged prefix is checked.)
    let mut remaining = std::collections::BTreeMap::new();
    for t in &tenant_order {
        *remaining.entry(t.as_str()).or_insert(0usize) += 1;
    }
    let mut longest_run = 0;
    let mut run = 0;
    let mut prev: Option<&str> = None;
    for t in &tenant_order {
        if remaining.values().any(|&n| n == 0) {
            break;
        }
        *remaining.get_mut(t.as_str()).unwrap() -= 1;
        if prev == Some(t.as_str()) {
            run += 1;
        } else {
            run = 1;
        }
        longest_run = longest_run.max(run);
        prev = Some(t);
    }
    assert!(
        longest_run <= 4,
        "stride scheduling must interleave backlogged tenants; saw a run of {longest_run}: {tenant_order:?}"
    );
}

#[test]
fn drain_shutdown_finishes_queued_jobs_abort_cancels_them() {
    let service = JobService::builder(engine())
        .workers(1)
        .start_paused()
        .tenant("a", quota(1))
        .build();
    let jobs: Vec<u64> = (0..8)
        .map(|_| service.submit("a", |_| Ok(())).unwrap())
        .collect();
    service.shutdown(ShutdownMode::Drain);
    for &job in &jobs {
        assert_eq!(service.job_state(job), Some(JobState::Completed));
    }
    let status = service.queue_status();
    assert_eq!(status.queued, 0);
    assert_eq!(status.running, 0);
    assert!(status.shutting_down);
    assert_eq!(
        service.submit("a", |_| Ok(())),
        Err(RejectReason::ShuttingDown)
    );
}

/// A tenant configured to run nothing runs one job at a time.
const NO_RUNNING: TenantConfig = TenantConfig {
    max_queued: 4,
    max_running: 0,
    weight: 1,
};

#[test]
fn a_tenant_allowed_no_running_jobs_still_has_its_job_picked() {
    let mut q = AdmissionQueue::new(16);
    q.register_tenant("a", NO_RUNNING);
    let first = q.submit("a").unwrap();
    let second = q.submit("a").unwrap();
    assert_eq!(q.pick(), Some(("a".to_string(), first)));
    assert_eq!(q.pick(), None, "one job runs at a time");
    q.finish("a", false);
    assert_eq!(q.pick(), Some(("a".to_string(), second)));
}

#[test]
fn drain_shutdown_runs_the_job_of_a_tenant_allowed_no_running_jobs() {
    let service = JobService::builder(engine())
        .workers(1)
        .tenant("a", NO_RUNNING)
        .build();
    let job = service.submit("a", |_| Ok(())).unwrap();
    // Shut down on a helper thread, so a service that never dispatches
    // the job fails this test instead of hanging it.
    let (sent, finished) = std::sync::mpsc::channel();
    let handle = Arc::clone(&service);
    let helper = std::thread::spawn(move || {
        handle.shutdown(ShutdownMode::Drain);
        let _ = sent.send(());
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown(Drain) returns");
    helper.join().expect("shutdown thread");
    assert_eq!(service.job_state(job), Some(JobState::Completed));
}

#[test]
fn failing_and_panicking_jobs_are_terminal_and_service_survives() {
    let service = JobService::builder(engine())
        .workers(2)
        .tenant("a", quota(1))
        .build();
    let fails = service.submit("a", |_| Err("deliberate".into())).unwrap();
    let panics = service.submit("a", |_| panic!("boom in payload")).unwrap();
    let ok = service.submit("a", |_| Ok(())).unwrap();
    assert_eq!(service.wait(fails), Some(JobState::Failed));
    assert_eq!(service.wait(panics), Some(JobState::Failed));
    assert_eq!(service.wait(ok), Some(JobState::Completed));
    assert_eq!(service.job_error(fails).as_deref(), Some("deliberate"));
    let perr = service.job_error(panics);
    assert!(
        perr.as_deref().is_some_and(|e| e.contains("boom")),
        "panic error was {perr:?}"
    );
    let stats = service.queue_status().stats;
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 2);
    service.shutdown(ShutdownMode::Drain);
}

#[test]
fn registry_exports_service_flow_counters() {
    let registry = Arc::new(Registry::new());
    let service = JobService::builder(engine())
        .workers(1)
        .queue_capacity(2)
        .start_paused()
        .tenant("a", quota(1))
        .registry(Arc::clone(&registry))
        .build();
    let j0 = service.submit("a", |_| Ok(())).unwrap();
    let j1 = service.submit("a", |_| Ok(())).unwrap();
    assert!(service.submit("a", |_| Ok(())).is_err(), "queue full");
    service.resume();
    assert_eq!(service.wait(j0), Some(JobState::Completed));
    assert_eq!(service.wait(j1), Some(JobState::Completed));
    let text = registry.render_prometheus();
    assert!(
        text.contains("sparkscore_service_submitted_total 2"),
        "{text}"
    );
    assert!(
        text.contains("sparkscore_service_rejected_total 1"),
        "{text}"
    );
    assert!(
        text.contains("sparkscore_service_completed_total 2"),
        "{text}"
    );
    assert!(text.contains("sparkscore_service_queue_depth 0"), "{text}");
    assert!(text.contains("sparkscore_service_running_jobs 0"), "{text}");
    assert!(text.contains("sparkscore_service_tenants 1"), "{text}");

    // The counters are the queue's own books, read at scrape.
    assert_eq!(
        service.submit("nobody", |_| Ok(())),
        Err(RejectReason::UnknownTenant)
    );
    let failing = service.submit("a", |_| Err("deliberate".into())).unwrap();
    assert_eq!(service.wait(failing), Some(JobState::Failed));
    let text = registry.render_prometheus();
    let stats = service.queue_status().stats;
    for (series, value) in [
        ("submitted", stats.submitted),
        ("rejected", stats.rejected),
        ("completed", stats.completed),
        ("failed", stats.failed),
    ] {
        let series = format!("sparkscore_service_{series}_total");
        assert!(text.contains(&format!("# TYPE {series} counter")), "{text}");
        assert!(text.contains(&format!("\n{series} {value}\n")), "{text}");
    }
    assert_eq!((stats.rejected, stats.failed), (2, 1));
    service.shutdown(ShutdownMode::Drain);
}

/// Seeded stress: three tenants race jobs that cache, re-read, and
/// unpersist datasets against a deliberately tiny cache budget (constant
/// admit/evict pressure), on three workers at once. Half the datasets
/// are parked in a shared registry so their handles — and therefore
/// their cached blocks (lineage GC unpersists on last-handle drop) —
/// outlive the job, which is what actually builds eviction pressure.
/// At quiesce the memory ledger's mirror must equal the cache's own
/// byte accounting — the PR 7 invariant extended to the multi-job
/// service path.
#[test]
fn cache_ledger_invariants_hold_under_concurrent_service_jobs() {
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .cache_budget_bytes(48 * 1024)
        .build();
    let busy = TenantConfig {
        max_queued: 64,
        max_running: 2,
        weight: 1,
    };
    let service = JobService::builder(Arc::clone(&engine))
        .workers(3)
        .queue_capacity(256)
        .tenant("t0", busy)
        .tenant("t1", busy)
        .tenant("t2", busy)
        .build();
    let held: Arc<std::sync::Mutex<Vec<sparkscore_rdd::Dataset<u64>>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut rng = StdRng::seed_from_u64(2024);
    let mut jobs = Vec::new();
    for i in 0..48 {
        let tenant = format!("t{}", i % 3);
        let len = rng.gen_range(200u64..3000);
        let parts = rng.gen_range(2usize..6);
        let unpersist = i % 2 == 0;
        let held = Arc::clone(&held);
        jobs.push(
            service
                .submit(&tenant, move |e| {
                    let ds = e
                        .parallelize((0..len).collect::<Vec<_>>(), parts)
                        .map(|x| x.wrapping_mul(3))
                        .cache();
                    let count = ds.count();
                    if count != len as usize {
                        return Err(format!("count {count} != {len}"));
                    }
                    // Second pass hits the cache or recomputes evicted
                    // partitions — both legal under pressure.
                    let _ = ds.reduce(|a, b| a ^ b);
                    if unpersist {
                        ds.unpersist();
                    } else {
                        held.lock().unwrap().push(ds);
                    }
                    Ok(())
                })
                .unwrap(),
        );
    }
    for job in jobs {
        assert_eq!(service.wait(job), Some(JobState::Completed));
    }
    service.shutdown(ShutdownMode::Drain);
    let ledger = engine.memory_ledger();
    assert_eq!(
        ledger.used(MemCategory::BlockCache),
        engine.cache_used_bytes(),
        "ledger drifted from cache accounting at quiesce"
    );
    assert!(
        engine.cache_used_bytes() <= 48 * 1024,
        "cache exceeded its budget"
    );
    assert!(
        engine.cache_used_bytes() > 0,
        "held datasets should keep blocks resident"
    );
    assert!(ledger.peak(MemCategory::BlockCache) >= ledger.used(MemCategory::BlockCache));
    let m = engine.metrics_snapshot();
    assert!(
        m.cache_evictions > 0,
        "stress must actually exercise eviction pressure: {m:?}"
    );
    // Dropping the held handles releases the remaining blocks through
    // lineage GC; the ledger must follow the cache down to zero.
    held.lock().unwrap().clear();
    assert_eq!(engine.cache_used_bytes(), 0);
    assert_eq!(ledger.used(MemCategory::BlockCache), 0);
}

// ---------------------------------------------------------------------------
// Property tests: the pure admission queue under arbitrary interleavings
// ---------------------------------------------------------------------------

const PROP_TENANTS: [&str; 3] = ["a", "b", "c"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary submit/pick/finish interleavings preserve the
    /// accounting invariant, FIFO order within every tenant, and the
    /// per-tenant running quota.
    #[test]
    fn prop_interleavings_conserve_accounting(
        ops in proptest::collection::vec((0u8..3, 0usize..3, 0usize..4), 1..120),
        capacity in 1usize..12,
        max_queued in 1usize..6,
        max_running in 1usize..3,
    ) {
        let cfg = TenantConfig { max_queued, max_running, weight: 1 };
        let mut q = AdmissionQueue::new(capacity);
        for t in PROP_TENANTS {
            q.register_tenant(t, cfg);
        }
        // Mirror model: expected FIFO queue and running count per tenant.
        let mut model_queue: Vec<VecDeque<u64>> = vec![VecDeque::new(); 3];
        let mut model_running = [0usize; 3];
        for (kind, tenant_idx, pick_idx) in ops {
            let tenant = PROP_TENANTS[tenant_idx];
            match kind {
                0 => {
                    let total_queued: usize = model_queue.iter().map(VecDeque::len).sum();
                    match q.submit(tenant) {
                        Ok(job) => {
                            prop_assert!(total_queued < capacity);
                            prop_assert!(model_queue[tenant_idx].len() < max_queued);
                            model_queue[tenant_idx].push_back(job);
                        }
                        Err(RejectReason::QueueFull { .. }) => {
                            prop_assert_eq!(total_queued, capacity);
                        }
                        Err(RejectReason::TenantQueueFull { .. }) => {
                            prop_assert_eq!(model_queue[tenant_idx].len(), max_queued);
                        }
                        Err(reason) => prop_assert!(false, "unexpected reject {:?}", reason),
                    }
                }
                1 => {
                    let eligible = (0..3).any(|i| {
                        !model_queue[i].is_empty() && model_running[i] < max_running
                    });
                    match q.pick() {
                        Some((name, job)) => {
                            prop_assert!(eligible, "picked with no eligible tenant");
                            let i = PROP_TENANTS.iter().position(|&t| t == name).unwrap();
                            // FIFO within the picked tenant.
                            prop_assert_eq!(model_queue[i].pop_front(), Some(job));
                            prop_assert!(model_running[i] < max_running);
                            model_running[i] += 1;
                        }
                        None => prop_assert!(!eligible, "eligible tenant starved by pick"),
                    }
                }
                _ => {
                    // Finish a running job of some tenant, if any.
                    if model_running[tenant_idx] > 0 {
                        q.finish(tenant, pick_idx % 2 == 0);
                        model_running[tenant_idx] -= 1;
                    }
                }
            }
            prop_assert!(q.conserved(), "conservation broken after op {:?}", kind);
            for (i, t) in PROP_TENANTS.iter().enumerate() {
                prop_assert_eq!(q.tenant_queued(t), model_queue[i].len());
                prop_assert_eq!(q.tenant_running(t), model_running[i]);
            }
        }
    }

    /// With every tenant backlogged, no tenant waits longer than the
    /// stride bound between dispatches: picking never starves anyone,
    /// for arbitrary weights.
    #[test]
    fn prop_backlogged_tenants_are_never_starved(
        weights in proptest::collection::vec(1u64..6, 3..6),
        jobs_each in 4usize..20,
    ) {
        let mut q = AdmissionQueue::new(weights.len() * jobs_each);
        let names: Vec<String> = (0..weights.len()).map(|i| format!("t{i}")).collect();
        for (name, &w) in names.iter().zip(&weights) {
            q.register_tenant(name, TenantConfig {
                max_queued: jobs_each,
                max_running: usize::MAX,
                weight: w,
            });
        }
        for _ in 0..jobs_each {
            for name in &names {
                q.submit(name).unwrap();
            }
        }
        // Between two picks of tenant t (while t stays backlogged), each
        // other tenant o can be picked at most ceil(w_o/w_t) + 1 times.
        let bound = |t: usize| -> usize {
            (0..weights.len())
                .filter(|&o| o != t)
                .map(|o| (weights[o].div_ceil(weights[t])) as usize + 1)
                .sum::<usize>() + 1
        };
        let mut since_pick = vec![0usize; weights.len()];
        while let Some((name, _)) = q.pick() {
            let picked = names.iter().position(|n| *n == name).unwrap();
            q.finish(&name, false);
            for (i, gap) in since_pick.iter_mut().enumerate() {
                if i == picked {
                    *gap = 0;
                } else if q.tenant_queued(&names[i]) > 0 {
                    *gap += 1;
                    prop_assert!(
                        *gap <= bound(i),
                        "tenant {} starved: gap {} > bound {} (weights {:?})",
                        i, *gap, bound(i), weights
                    );
                }
            }
        }
        prop_assert!(q.conserved());
        prop_assert_eq!(q.queued_total(), 0);
    }
}
