//! Behavior of the persistent executor pool through the public engine
//! API: thread reuse across thousands of tiny stages, clean shutdown on
//! engine drop, panic propagation (from stages and from driver work run
//! on the pool), the event-stream invariants under per-stage batched
//! emission, and several drivers sharing one pool.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

use sparkscore_cluster::ClusterSpec;
use sparkscore_rdd::{Engine, EngineEvent, EventListener, MemoryEventListener, PoolDiagnostics};

fn engine_with_threads(threads: usize) -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(3))
        .host_threads(threads)
        .build()
}

#[test]
fn ten_thousand_tiny_stages_reuse_one_thread_set() {
    let engine = engine_with_threads(4);
    let diag = engine.pool_diagnostics();
    let data = engine
        .parallelize((0..64u64).collect::<Vec<_>>(), 1)
        .cache();
    assert_eq!(data.count(), 64); // materialize the cache
    for i in 0..10_000u64 {
        // Result order/content must hold on every iteration.
        let total: u64 = data.reduce(|a, b| a + b).expect("non-empty");
        assert_eq!(total, 64 * 63 / 2, "iteration {i}");
    }
    // The pool spawns its workers once at build; ten thousand stages must
    // not create a single extra thread (the seed spawned per stage).
    assert_eq!(
        diag.threads_spawned(),
        engine.host_threads() - 1,
        "workers are spawned exactly once, at engine build"
    );
    assert_eq!(diag.threads_alive(), engine.host_threads() - 1);
}

#[test]
fn multi_task_stages_return_results_in_partition_order() {
    let engine = engine_with_threads(4);
    for _ in 0..200 {
        let out = engine
            .parallelize((0..100u64).collect::<Vec<_>>(), 25)
            .map(|x| x * 3)
            .collect();
        assert_eq!(out, (0..100u64).map(|x| x * 3).collect::<Vec<_>>());
    }
}

#[test]
fn engine_drop_joins_all_pool_workers() {
    let diag: PoolDiagnostics = {
        let engine = engine_with_threads(6);
        let diag = engine.pool_diagnostics();
        assert_eq!(engine.parallelize(vec![1u32; 10], 5).count(), 10);
        assert_eq!(diag.threads_alive(), 5);
        engine.pool_diagnostics()
    };
    assert_eq!(
        diag.threads_alive(),
        0,
        "engine drop must join every pool worker"
    );
    assert_eq!(diag.threads_spawned(), 5);
}

#[test]
fn task_panic_propagates_and_pool_survives() {
    let engine = engine_with_threads(4);
    let diag = engine.pool_diagnostics();
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine
            .parallelize((0..16u64).collect::<Vec<_>>(), 8)
            .map(|x| {
                assert!(x != 11, "injected task failure");
                x
            })
            .collect();
    }));
    assert!(boom.is_err(), "task panic must propagate to the driver");
    // The pool must survive a panicking stage: same workers, still usable.
    assert_eq!(diag.threads_alive(), 3);
    assert_eq!(
        engine
            .parallelize((0..32u64).collect::<Vec<_>>(), 8)
            .count(),
        32
    );
    assert_eq!(diag.threads_spawned(), 3, "no respawn after a panic");
}

#[test]
fn driver_work_on_the_pool_is_no_job_and_re_raises_a_panic_after_every_index() {
    for threads in [1, 2, 4] {
        let mem = Arc::new(MemoryEventListener::new());
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(threads)
            .listener(Arc::clone(&mem) as Arc<dyn EventListener>)
            .build();
        let diag = engine.pool_diagnostics();
        let ran: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        engine.for_each_on_pool(ran.len(), |i| {
            ran[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(ran.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        // No job, no stage, no task, no event, no virtual time.
        let m = engine.metrics_snapshot();
        assert_eq!((m.jobs, m.stages, m.tasks), (0, 0, 0));
        assert!(mem.snapshot().is_empty(), "{threads} host threads");
        assert_eq!(engine.virtual_time_ns(), 0);

        let ran: Vec<AtomicU32> = (0..16).map(|_| AtomicU32::new(0)).collect();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.for_each_on_pool(ran.len(), |i| {
                ran[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 5, "injected driver-work failure");
            });
        }));
        let payload = boom.expect_err("the panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected driver-work failure")
        );
        assert!(
            ran.iter().all(|r| r.load(Ordering::Relaxed) == 1),
            "every other index still ran, once"
        );
        // The pool kept its workers and serves the next job.
        assert_eq!(diag.threads_alive(), threads - 1);
        assert_eq!(
            engine
                .parallelize((0..32u64).collect::<Vec<_>>(), 8)
                .count(),
            32
        );
        assert_eq!(
            diag.threads_spawned(),
            threads - 1,
            "no respawn after a panic"
        );
    }
}

#[test]
fn batched_emission_keeps_stage_event_invariants() {
    let mem = Arc::new(MemoryEventListener::new());
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .listener(Arc::clone(&mem) as Arc<dyn EventListener>)
        .build();
    let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i % 10, i)).collect();
    let summed = engine.parallelize(pairs, 4).reduce_by_key(4, |a, b| a + b);
    assert_eq!(summed.collect().len(), 10);

    let events = mem.snapshot();
    // Per stage: every TaskEnd strictly between Submitted and Completed,
    // one per task, and counts match num_tasks.
    let mut open: Option<(u64, usize, usize)> = None; // (stage, num_tasks, ends)
    let mut stages_seen = 0;
    for e in &events {
        match e {
            EngineEvent::StageSubmitted {
                stage, num_tasks, ..
            } => {
                assert!(open.is_none(), "stages must not interleave");
                open = Some((*stage, *num_tasks, 0));
            }
            EngineEvent::TaskEnd { stage, .. } => {
                let s = open.as_mut().expect("TaskEnd outside a stage");
                assert_eq!(s.0, *stage);
                s.2 += 1;
            }
            EngineEvent::StageCompleted { stage, .. } => {
                let (open_stage, num_tasks, ends) =
                    open.take().expect("StageCompleted without StageSubmitted");
                assert_eq!(open_stage, *stage);
                assert_eq!(ends, num_tasks);
                stages_seen += 1;
            }
            _ => {}
        }
    }
    assert!(open.is_none(), "every stage closed");
    assert_eq!(stages_seen, 2, "shuffle map stage + result stage");
}

#[test]
fn a_job_launched_from_inside_a_task_runs_instead_of_deadlocking() {
    // The outer stage holds the pool's stage slot while its tasks run, so
    // each inner job finds it taken and runs on the task's own thread.
    let engine = engine_with_threads(2);
    let inner = Arc::clone(&engine);
    let counts = engine
        .parallelize((0..4u64).collect::<Vec<_>>(), 4)
        .map(move |x| (x, inner.parallelize(vec![1u32; 8], 4).count()))
        .collect();
    assert_eq!(counts, (0..4u64).map(|x| (x, 8)).collect::<Vec<_>>());
}

/// Job `j` of driver `d`: a narrow `map` then `collect`, or a
/// `reduce_by_key` through a shuffle, on 2 to 16 partitions.
fn mixed_job(engine: &Arc<Engine>, d: u64, j: u64) -> Vec<(u64, u64)> {
    let parts = 2 + ((d * 7 + j) % 15) as usize;
    let data: Vec<u64> = (0..200).map(|i| i * (d + 1) + j).collect();
    let data = engine.parallelize(data, parts);
    if j.is_multiple_of(2) {
        data.map(|x| (x, x * 3)).collect()
    } else {
        data.map(|x| (x % 10, x))
            .reduce_by_key(parts, |a, b| a + b)
            .collect()
    }
}

#[test]
fn four_drivers_on_one_engine_get_the_single_driver_answers() {
    let reference = engine_with_threads(1);
    let expected: Vec<Vec<Vec<(u64, u64)>>> = (0..4)
        .map(|d| (0..100).map(|j| mixed_job(&reference, d, j)).collect())
        .collect();
    for threads in [2, 4] {
        let engine = engine_with_threads(threads);
        let start = Barrier::new(expected.len());
        std::thread::scope(|s| {
            for (d, answers) in expected.iter().enumerate() {
                let (engine, start) = (&engine, &start);
                s.spawn(move || {
                    start.wait();
                    for (j, want) in answers.iter().enumerate() {
                        let got = mixed_job(engine, d as u64, j as u64);
                        assert_eq!(&got, want, "driver {d}, job {j}, {threads} host threads");
                    }
                });
            }
        });
    }
}
