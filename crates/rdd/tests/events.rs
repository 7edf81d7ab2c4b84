//! Invariants of the engine's event stream: ordering, counts, fault
//! correlation, and the JSONL event-log round trip.

use std::sync::Arc;

use sparkscore_cluster::{ClusterSpec, FaultPlan};
use sparkscore_rdd::events::parse_event_log;
use sparkscore_rdd::{
    Engine, EngineEvent, EventBus, EventListener, FaultDetail, MemoryEventListener,
    MetricsSnapshot, RegistryListener, TaskCounter,
};

fn observed_engine() -> (Arc<Engine>, Arc<MemoryEventListener>) {
    let mem = Arc::new(MemoryEventListener::new());
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .listener(Arc::clone(&mem) as Arc<dyn EventListener>)
        .build();
    (engine, mem)
}

/// A two-stage job: shuffle map stage (reduce_by_key) feeding the result
/// stage of a `collect`.
fn run_shuffle_job(engine: &Arc<Engine>) {
    let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i % 10, i)).collect();
    let summed = engine.parallelize(pairs, 4).reduce_by_key(4, |a, b| a + b);
    assert_eq!(summed.collect().len(), 10);
}

#[test]
fn job_start_precedes_its_stage_submissions() {
    let (engine, mem) = observed_engine();
    run_shuffle_job(&engine);
    run_shuffle_job(&engine);
    let events = mem.snapshot();
    let job_started_at = |job: u64| {
        events
            .iter()
            .position(|e| matches!(e, EngineEvent::JobStart { job: j, .. } if *j == job))
            .unwrap_or_else(|| panic!("job {job} never started"))
    };
    let mut saw_job_stage = false;
    for (i, e) in events.iter().enumerate() {
        if let EngineEvent::StageSubmitted { job: Some(j), .. } = e {
            saw_job_stage = true;
            assert!(
                job_started_at(*j) < i,
                "StageSubmitted for job {j} at index {i} precedes its JobStart"
            );
        }
    }
    assert!(saw_job_stage, "jobs must submit stages: {events:?}");
    // Every started job eventually ends, after all its stages complete.
    for e in &events {
        if let EngineEvent::JobStart { job, .. } = e {
            let end = events
                .iter()
                .position(|e| matches!(e, EngineEvent::JobEnd { job: j, .. } if j == job))
                .unwrap_or_else(|| panic!("job {job} never ended"));
            let last_stage = events
                .iter()
                .rposition(
                    |e| matches!(e, EngineEvent::StageCompleted { job: Some(j), .. } if j == job),
                )
                .unwrap_or_else(|| panic!("job {job} completed no stages"));
            assert!(last_stage < end);
        }
    }
}

#[test]
fn task_end_count_matches_task_counter_delta() {
    let (engine, mem) = observed_engine();
    let before = engine.metrics_snapshot();
    run_shuffle_job(&engine);
    let delta = engine.metrics_snapshot().delta_since(&before);
    let events = mem.snapshot();
    let task_ends = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::TaskEnd { .. }))
        .count() as u64;
    assert_eq!(task_ends, delta.tasks, "one TaskEnd per counted task");
    // Stage task counts are consistent with submissions.
    for e in &events {
        if let EngineEvent::StageSubmitted {
            stage, num_tasks, ..
        } = e
        {
            let ends = events
                .iter()
                .filter(|e| matches!(e, EngineEvent::TaskEnd { stage: s, .. } if s == stage))
                .count();
            assert_eq!(ends, *num_tasks, "stage {stage} task count");
        }
    }
}

#[test]
fn cached_block_fault_yields_fault_event_then_recompute_flagged_task() {
    let mem = Arc::new(MemoryEventListener::new());
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(2)
        .listener(Arc::clone(&mem) as Arc<dyn EventListener>)
        .build();

    let cached = engine
        .parallelize((0u64..400).collect::<Vec<_>>(), 4)
        .map(|x| x * 3)
        .cache();
    assert_eq!(cached.count(), 400); // materialize all four blocks
    engine.set_fault_plan(FaultPlan::none().with_cached_block_loss_every(2));
    assert_eq!(cached.count(), 400); // faults fire, blocks drop
    engine.set_fault_plan(FaultPlan::none());
    assert_eq!(cached.count(), 400); // recompute the lost blocks

    let events = mem.snapshot();
    let fault_at = events
        .iter()
        .position(|e| {
            matches!(
                e,
                EngineEvent::FaultInjected {
                    fault: FaultDetail::DropCachedBlock { .. }
                }
            )
        })
        .expect("the fault plan must inject a cached-block drop");
    let recompute_at = events
        .iter()
        .position(|e| matches!(e, EngineEvent::TaskEnd { metrics, .. } if metrics.recomputed_partitions > 0))
        .expect("a later task must recompute the lost block");
    assert!(
        fault_at < recompute_at,
        "FaultInjected (index {fault_at}) must precede the recompute-flagged TaskEnd (index {recompute_at})"
    );
    // The fault path also reports the eviction itself, as non-pressure.
    assert!(events.iter().any(|e| matches!(
        e,
        EngineEvent::CacheEvicted {
            pressure: false,
            ..
        }
    )));
}

#[test]
fn event_log_round_trips_through_jsonl() {
    let mem = Arc::new(MemoryEventListener::new());
    let buf: Arc<parking_lot::Mutex<Vec<u8>>> = Arc::default();
    struct SharedWriter(Arc<parking_lot::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .listener(Arc::clone(&mem) as Arc<dyn EventListener>)
        .listener(Arc::new(sparkscore_rdd::EventLogListener::new(
            SharedWriter(Arc::clone(&buf)),
        )))
        .build();
    run_shuffle_job(&engine);

    let text = String::from_utf8(buf.lock().clone()).unwrap();
    let parsed = parse_event_log(&text).expect("every line parses");
    assert_eq!(
        parsed,
        mem.snapshot(),
        "the JSONL log must reproduce the in-memory event stream exactly"
    );
    assert!(!parsed.is_empty());
}

/// Regression test: a panicking task must not strand buffered events in
/// the `EventLogListener`'s `BufWriter`. The engine flushes every
/// listener before re-raising the task panic on the driver, so the log
/// file already holds a well-formed prefix of the run while the process
/// is still alive (no reliance on `Drop`, which never runs if the panic
/// aborts the process).
#[test]
fn task_panic_flushes_buffered_event_log_to_disk() {
    let path = std::env::temp_dir().join(format!(
        "sparkscore-panic-flush-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .listener(Arc::new(
            sparkscore_rdd::EventLogListener::to_file(&path).unwrap(),
        ))
        .build();

    // A completed job first, so the buffer holds whole-stage batches that
    // predate the failure, then a job whose stage panics mid-flight.
    run_shuffle_job(&engine);
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine
            .parallelize((0..16u64).collect::<Vec<_>>(), 8)
            .map(|x| {
                assert!(x != 11, "injected task failure");
                x
            })
            .collect();
    }));
    assert!(boom.is_err(), "task panic must reach the driver");

    // Engine and listener are both still alive: anything on disk now got
    // there through the panic-path flush, not a destructor.
    let text = std::fs::read_to_string(&path).unwrap();
    let events = parse_event_log(&text).expect("partial log is well-formed JSONL");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, EngineEvent::JobEnd { .. })),
        "completed job's tail must be flushed: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, EngineEvent::TaskEnd { .. })),
        "batched TaskEnd events must be flushed: {events:?}"
    );
    let submissions = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::StageSubmitted { .. }))
        .count();
    assert_eq!(
        submissions, 3,
        "the panicking job's own StageSubmitted must be flushed too"
    );

    drop(engine);
    let _ = std::fs::remove_file(&path);
}

/// The named task counter `name`, summed over every `TaskEnd` in `events`.
fn counter_total(events: &[EngineEvent], name: &str) -> u64 {
    events
        .iter()
        .map(|e| match e {
            EngineEvent::TaskEnd { metrics, .. } => metrics.counters.get(name),
            _ => 0,
        })
        .sum()
}

/// Each task tallies its input, shuffle and cache counts once, and the
/// engine's counters are those tallies summed: the metrics delta of a run
/// equals the same fields summed over its `TaskEnd` events, and the
/// engine's registry scrapes the same totals.
#[test]
fn engine_totals_are_the_sum_of_task_tallies() {
    let (engine, mem) = observed_engine();
    let before = engine.metrics_snapshot();

    // DFS text read, then a shuffle.
    let content: String = (0..300).map(|i| format!("{i}\n")).collect();
    engine.dfs().write_text("/tally.txt", &content).unwrap();
    let numbers = engine
        .text_file("/tally.txt")
        .unwrap()
        .map(|l| l.parse::<u64>().unwrap());
    let summed = numbers
        .map(|x| (x % 7, x))
        .reduce_by_key(3, |a, b| a + b)
        .collect();
    assert_eq!(summed.iter().map(|(_, v)| v).sum::<u64>(), (0..300).sum());

    // A cached dataset read twice, then one of its blocks lost to a fault
    // and recomputed from lineage.
    let cached = engine
        .parallelize((0u64..400).collect::<Vec<_>>(), 4)
        .map(|x| x * 3)
        .cache();
    assert_eq!(cached.count(), 400);
    assert_eq!(cached.count(), 400);
    engine.set_fault_plan(FaultPlan::none().with_cached_block_loss_every(4));
    assert_eq!(cached.count(), 400); // the fourth task end drops one block
    engine.set_fault_plan(FaultPlan::none());
    assert_eq!(cached.count(), 400);

    // Start from the delta so the fields no task tallies compare equal.
    let delta = engine.metrics_snapshot().delta_since(&before);
    let mut tallied = MetricsSnapshot {
        tasks: 0,
        input_bytes: 0,
        shuffle_bytes_read: 0,
        shuffle_bytes_written: 0,
        cache_hits: 0,
        cache_misses: 0,
        recomputed_partitions: 0,
        ..delta
    };
    for event in mem.snapshot() {
        if let EngineEvent::TaskEnd { metrics: m, .. } = event {
            tallied.tasks += 1;
            tallied.input_bytes += m.input_bytes;
            tallied.shuffle_bytes_read += m.shuffle_read_bytes;
            tallied.shuffle_bytes_written += m.shuffle_write_bytes;
            tallied.cache_hits += m.cache_hits;
            tallied.cache_misses += m.cache_misses;
            tallied.recomputed_partitions += m.recomputed_partitions;
        }
    }
    assert_eq!(tallied, delta);
    assert_eq!(delta.input_bytes, content.len() as u64);
    assert!(delta.shuffle_bytes_written > 0 && delta.shuffle_bytes_read > 0);
    // Four misses fill the cache and two reads hit all four blocks; the
    // last read hits three and recomputes the lost one.
    assert_eq!((delta.cache_hits, delta.cache_misses), (4 + 4 + 3, 4 + 1));
    assert_eq!(delta.recomputed_partitions, 1);

    // The engine's registry scrapes the same totals (the engine is fresh,
    // so they are the delta) as `sparkscore_*_total` series.
    let text = engine.registry().render_prometheus();
    for (series, total) in [
        ("tasks_completed", delta.tasks),
        ("input_bytes", delta.input_bytes),
        ("shuffle_read_bytes", delta.shuffle_bytes_read),
        ("shuffle_write_bytes", delta.shuffle_bytes_written),
        ("cache_hits", delta.cache_hits),
        ("cache_misses", delta.cache_misses),
        ("recomputed_partitions", delta.recomputed_partitions),
    ] {
        let sample = format!("\nsparkscore_{series}_total {total}\n");
        assert!(text.contains(&sample), "{sample:?} missing from\n{text}");
    }
}

#[test]
fn grid_cells_threads_replicate_counters_into_stage_summaries() {
    let mem = Arc::new(MemoryEventListener::new());
    let engine = Engine::builder(ClusterSpec::test_small(2))
        .host_threads(2)
        .listener(Arc::clone(&mem) as Arc<dyn EventListener>)
        .build();
    let data = engine.parallelize((0u64..40).collect::<Vec<_>>(), 4);
    const REPLICATES_RUN: TaskCounter = TaskCounter::new("replicates_run");
    const REPLICATES_SAVED: TaskCounter = TaskCounter::new("replicates_saved");
    let cells = data.grid_cells(|ctx, part, rows| {
        ctx.count(&REPLICATES_RUN, rows.len() as u64 * 3);
        ctx.count(&REPLICATES_SAVED, rows.len() as u64);
        (part, rows.iter().sum::<u64>())
    });
    // Cells arrive in partition order.
    assert_eq!(
        cells.iter().map(|c| c.0).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    assert_eq!(cells.iter().map(|c| c.1).sum::<u64>(), (0u64..40).sum());
    let events = mem.snapshot();
    assert_eq!(counter_total(&events, "replicates_run"), 120);
    assert_eq!(counter_total(&events, "replicates_saved"), 40);
}

/// Adding a task counter is a one-site change: this test defines one under
/// a name nothing else in the workspace mentions, reports it from ordinary
/// tasks, and reads it back from every consumer the engine crate ships.
/// (The trace analyzer's half is `one_site_counter_reaches_the_trace` in
/// `tests/tests/trace_analyzer.rs`.)
#[test]
fn a_counter_defined_in_one_place_reaches_every_listener() {
    const ZEBRA_STRIPES: TaskCounter = TaskCounter::new("zebra_stripes");
    let engine = Engine::builder(ClusterSpec::test_small(2))
        .host_threads(2)
        .build();
    let data = engine.parallelize((0u64..40).collect::<Vec<_>>(), 4);
    let run = || {
        data.grid_cells(|ctx, _, rows| {
            // Two reports per task: they must add up, not overwrite.
            ctx.count(&ZEBRA_STRIPES, rows.len() as u64);
            ctx.count(&ZEBRA_STRIPES, 1);
        });
    };
    // With no listener there is nobody to read a counter, so this run's
    // reports are dropped; listeners attached later see only later tasks.
    run();
    let registry = Arc::new(RegistryListener::new());
    let mem = Arc::new(MemoryEventListener::new());
    for l in [
        Arc::clone(&registry) as Arc<dyn EventListener>,
        Arc::clone(&mem) as Arc<dyn EventListener>,
    ] {
        engine.events().register(l);
    }
    run();

    assert_eq!(counter_total(&mem.snapshot(), "zebra_stripes"), 44);
    let text = registry.render_prometheus();
    assert!(
        text.contains(
            "# TYPE sparkscore_zebra_stripes_total counter\nsparkscore_zebra_stripes_total 44\n"
        ),
        "{text}"
    );

    // Through the JSONL text layer: each task's line carries its share.
    let log: String = mem
        .snapshot()
        .iter()
        .map(|e| format!("{}\n", e.to_json()))
        .collect();
    let per_task = "\"counters\":{\"zebra_stripes\":11}";
    assert_eq!(log.matches(per_task).count(), 4);
    let reparsed = parse_event_log(&log).unwrap();
    assert_eq!(reparsed, mem.snapshot());
    assert_eq!(counter_total(&reparsed, "zebra_stripes"), 44);
}

/// One instance of every `EngineEvent` variant (and every `FaultDetail`
/// kind), with field values chosen to stress integer width and optional
/// fields.
fn every_event_variant() -> Vec<EngineEvent> {
    use sparkscore_rdd::events::SpanContext;
    use sparkscore_rdd::{StageKind, TaskMetrics};
    vec![
        EngineEvent::JobStart {
            job: u64::MAX,
            virtual_now_ns: 0,
            span: SpanContext::root(u64::MAX),
            mono_ns: u64::MAX,
        },
        EngineEvent::JobEnd {
            job: u64::MAX,
            virtual_now_ns: u64::MAX,
            virtual_advance_ns: u64::MAX - 1,
            span: SpanContext::root(u64::MAX),
            mono_ns: 0,
        },
        EngineEvent::StageSubmitted {
            job: None,
            stage: 0,
            kind: StageKind::ShuffleMap,
            num_tasks: 0,
            span: SpanContext::NONE,
            mono_ns: 0,
        },
        EngineEvent::StageSubmitted {
            job: Some(3),
            stage: 1,
            kind: StageKind::Result,
            num_tasks: usize::MAX >> 1,
            span: SpanContext { span: 2, parent: 1 },
            mono_ns: 17,
        },
        EngineEvent::StageCompleted {
            job: Some(3),
            stage: 1,
            kind: StageKind::Result,
            makespan_ns: u64::MAX,
            local_reads: 7,
            span: SpanContext { span: 2, parent: 1 },
            mono_ns: 18,
        },
        EngineEvent::StageCompleted {
            job: None,
            stage: 0,
            kind: StageKind::ShuffleMap,
            makespan_ns: 0,
            local_reads: 0,
            span: SpanContext::NONE,
            mono_ns: 0,
        },
        EngineEvent::Span {
            span: SpanContext {
                span: u64::MAX,
                parent: u64::MAX - 1,
            },
            label: "kernel:contributions".to_string(),
            start_ns: 0,
            end_ns: u64::MAX,
        },
        EngineEvent::TaskEnd {
            stage: 9,
            metrics: TaskMetrics {
                partition: 31,
                wall_ns: u64::MAX,
                virtual_compute_ns: 1,
                virtual_start_ns: 2,
                virtual_finish_ns: 3,
                node: u64::MAX,
                executor: u32::MAX,
                input_local: true,
                input_bytes: 4,
                shuffle_read_bytes: 5,
                shuffle_write_bytes: 6,
                cache_hits: 7,
                cache_misses: 8,
                recomputed_partitions: 9,
                counters: [("rows", 10), ("big", u64::MAX)].into_iter().collect(),
                span: SpanContext { span: 3, parent: 2 },
                mono_start_ns: 19,
                mono_end_ns: 20,
            },
        },
        EngineEvent::TaskEnd {
            stage: 9,
            metrics: TaskMetrics::default(),
        },
        EngineEvent::CacheEvicted {
            op: 1,
            partition: 2,
            pressure: true,
            bytes: u64::MAX,
        },
        EngineEvent::CacheEvicted {
            op: u64::MAX,
            partition: 0,
            pressure: false,
            bytes: 0,
        },
        EngineEvent::CacheAdmitted {
            op: 5,
            partition: usize::MAX >> 1,
            bytes: u64::MAX,
        },
        EngineEvent::CacheRejected {
            op: u64::MAX,
            partition: 0,
            bytes: 1 << 40,
        },
        EngineEvent::ShuffleBytesStored {
            shuffle: u64::MAX,
            map_part: 3,
            bytes: u64::MAX - 1,
        },
        EngineEvent::MemoryWatermark {
            stage: u64::MAX,
            block_cache_bytes: 1,
            shuffle_store_bytes: 2,
            dfs_blocks_bytes: 3,
            scratch_bytes: 4,
            cache_budget_bytes: u64::MAX,
            mono_ns: 5,
        },
        EngineEvent::ShuffleMapRerun {
            shuffle: u64::MAX,
            map_part: 17,
        },
        EngineEvent::FaultInjected {
            fault: FaultDetail::KillNode { node: u64::MAX },
        },
        EngineEvent::FaultInjected {
            fault: FaultDetail::DropCachedBlock {
                op: u64::MAX,
                partition: 1,
            },
        },
        EngineEvent::FaultInjected {
            fault: FaultDetail::DropShuffleOutput {
                shuffle: 0,
                map_part: usize::MAX >> 1,
            },
        },
    ]
}

#[test]
fn every_event_variant_round_trips_through_jsonl() {
    let events = every_event_variant();
    // The sample must cover the full variant space: if a new event is
    // added, `name()` here won't list it and this assertion will flag the
    // missing round-trip coverage.
    let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name()).collect();
    let expected: std::collections::BTreeSet<&str> = [
        "JobStart",
        "JobEnd",
        "StageSubmitted",
        "StageCompleted",
        "Span",
        "TaskEnd",
        "CacheEvicted",
        "CacheAdmitted",
        "CacheRejected",
        "ShuffleBytesStored",
        "MemoryWatermark",
        "ShuffleMapRerun",
        "FaultInjected",
    ]
    .into_iter()
    .collect();
    assert_eq!(names, expected, "sample covers every event variant");

    // Per-event object round trip.
    for event in &events {
        let back = EngineEvent::from_json(&event.to_json())
            .unwrap_or_else(|e| panic!("{} failed to re-parse: {e}", event.name()));
        assert_eq!(&back, event, "round-trip for {}", event.name());
    }

    // Whole-log text round trip (the shape `trace` consumes).
    let text: String = events
        .iter()
        .map(|e| format!("{}\n", e.to_json()))
        .collect();
    assert_eq!(parse_event_log(&text).unwrap(), events);
}

/// The wire format, pinned: one line per event variant (and per fault
/// kind), compared as text, so keys and key order cannot drift. Logs are
/// read by tools outside this workspace; a codec change that alters a
/// line here is a format change and must say so.
#[test]
fn wire_format_is_pinned_key_for_key() {
    let golden = [
        r#"{"Event":"JobStart","job":1,"virtual_now_ns":2,"span":3,"parent_span":0,"mono_ns":4}"#,
        r#"{"Event":"JobEnd","job":1,"virtual_now_ns":5,"virtual_advance_ns":3,"span":3,"parent_span":0,"mono_ns":6}"#,
        r#"{"Event":"StageSubmitted","job":1,"stage":7,"kind":"ShuffleMap","num_tasks":8,"span":9,"parent_span":3,"mono_ns":10}"#,
        r#"{"Event":"StageSubmitted","job":null,"stage":7,"kind":"Result","num_tasks":0,"span":0,"parent_span":0,"mono_ns":0}"#,
        r#"{"Event":"StageCompleted","job":1,"stage":7,"kind":"Result","makespan_ns":11,"local_reads":12,"span":9,"parent_span":3,"mono_ns":13}"#,
        concat!(
            r#"{"Event":"TaskEnd","stage":7,"metrics":{"partition":14,"wall_ns":15,"#,
            r#""virtual_compute_ns":16,"virtual_start_ns":17,"virtual_finish_ns":18,"#,
            r#""node":19,"executor":20,"input_local":true,"input_bytes":21,"#,
            r#""shuffle_read_bytes":22,"shuffle_write_bytes":23,"cache_hits":24,"#,
            r#""cache_misses":25,"recomputed_partitions":26,"#,
            r#""counters":{"alpha":60,"beta":61},"#,
            r#""span":27,"parent_span":9,"mono_start_ns":28,"mono_end_ns":29}}"#,
        ),
        r#"{"Event":"Span","span":30,"parent_span":27,"label":"kernel:perturb","start_ns":31,"end_ns":32}"#,
        r#"{"Event":"CacheAdmitted","op":33,"partition":34,"bytes":35}"#,
        r#"{"Event":"CacheRejected","op":36,"partition":37,"bytes":38}"#,
        r#"{"Event":"CacheEvicted","op":39,"partition":40,"pressure":false,"bytes":41}"#,
        r#"{"Event":"ShuffleBytesStored","shuffle":42,"map_part":43,"bytes":44}"#,
        r#"{"Event":"MemoryWatermark","stage":45,"block_cache_bytes":46,"shuffle_store_bytes":47,"dfs_blocks_bytes":48,"scratch_bytes":49,"cache_budget_bytes":50,"mono_ns":51}"#,
        r#"{"Event":"ShuffleMapRerun","shuffle":52,"map_part":53}"#,
        r#"{"Event":"FaultInjected","fault":{"kind":"KillNode","node":54}}"#,
        r#"{"Event":"FaultInjected","fault":{"kind":"DropCachedBlock","op":55,"partition":56}}"#,
        r#"{"Event":"FaultInjected","fault":{"kind":"DropShuffleOutput","shuffle":57,"map_part":58}}"#,
    ];
    let events = parse_event_log(&golden.join("\n")).expect("every golden line parses");
    for (event, line) in events.iter().zip(golden) {
        assert_eq!(event.to_json().to_string(), line, "{}", event.name());
    }
    // Same completeness guard as the round-trip test: a new variant must
    // get a golden line.
    let pinned: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name()).collect();
    let all: std::collections::BTreeSet<&str> =
        every_event_variant().iter().map(|e| e.name()).collect();
    assert_eq!(pinned, all, "every variant has a golden line");
    // The text means what it says: every value sits in the field its key
    // names, and an empty counter list is still written, as `{}`.
    let EngineEvent::TaskEnd { stage: 7, metrics } = &events[5] else {
        panic!("line 5 is the TaskEnd: {:?}", events[5]);
    };
    assert_eq!(
        (metrics.wall_ns, metrics.executor, metrics.span.parent),
        (15, 20, 9)
    );
    assert_eq!(
        metrics.counters.iter().collect::<Vec<_>>(),
        [("alpha", 60), ("beta", 61)]
    );
    let empty = EngineEvent::TaskEnd {
        stage: 0,
        metrics: Default::default(),
    };
    assert!(empty
        .to_json()
        .to_string()
        .contains(r#""recomputed_partitions":0,"counters":{},"span":0"#));
}

#[test]
fn parse_event_log_rejects_malformed_lines() {
    let good =
        r#"{"Event":"JobStart","job":1,"virtual_now_ns":0,"span":0,"parent_span":0,"mono_ns":0}"#;
    // A good line does parse on its own (control).
    assert_eq!(parse_event_log(good).unwrap().len(), 1);
    // Blank and whitespace-only lines are skipped.
    assert_eq!(
        parse_event_log(&format!("\n  \n{good}\n\n")).unwrap().len(),
        1
    );

    // Every case below is the good line (or a good TaskEnd) with exactly
    // one thing wrong, so the named defect is what fails the parse.
    let tail = r#""span":0,"parent_span":0,"mono_ns":0}"#;
    let task_end = |counters: &str| {
        EngineEvent::TaskEnd {
            stage: 0,
            metrics: Default::default(),
        }
        .to_json()
        .to_string()
        .replace("\"counters\":{}", &format!("\"counters\":{counters}"))
    };
    // The splice itself is sound: a well-formed map parses, and a repeated
    // name whose sum overflows saturates instead of panicking.
    for ok in [r#"{"ok_name":7}"#, r#"{"n":18446744073709551615,"n":1}"#] {
        assert_eq!(parse_event_log(&task_end(ok)).unwrap().len(), 1, "{ok}");
    }
    let bad_lines = [
        "not json at all".to_string(),
        "{\"Event\":\"JobStart\",\"job\":1,".to_string(), // truncated JSON
        format!("{{\"job\":1,\"virtual_now_ns\":0,{tail}"), // missing discriminator
        format!("{{\"Event\":\"NoSuchEvent\",\"job\":1,\"virtual_now_ns\":0,{tail}"), // unknown event
        format!("{{\"Event\":42,\"job\":1,\"virtual_now_ns\":0,{tail}"), // discriminator not a string
        format!("{{\"Event\":\"JobStart\",\"job\":\"one\",\"virtual_now_ns\":0,{tail}"), // wrong field type
        format!("{{\"Event\":\"JobStart\",\"virtual_now_ns\":0,{tail}"), // missing field
        format!("{{\"Event\":\"JobStart\",\"job\":-1,\"virtual_now_ns\":0,{tail}"), // negative u64
        r#"{"Event":"JobStart","job":1,"virtual_now_ns":0}"#.to_string(), // no span/mono: no legacy defaults
        r#"{"Event":"CacheEvicted","op":7,"partition":3,"pressure":true}"#.to_string(), // no bytes
        r#"{"Event":"TaskStart","stage":1,"partition":2}"#.to_string(), // removed variant
        format!("{{\"Event\":\"StageSubmitted\",\"job\":null,\"stage\":0,\"kind\":\"Sideways\",\"num_tasks\":1,{tail}"), // bad kind
        format!("{{\"Event\":\"StageSubmitted\",\"stage\":0,\"kind\":\"Result\",\"num_tasks\":1,{tail}"), // optional job absent, not null
        "{\"Event\":\"FaultInjected\",\"fault\":{\"kind\":\"Gremlin\",\"node\":1}}".to_string(), // bad fault kind
        task_end(r#"{"bad name":1}"#),  // counter name outside the grammar
        task_end(r#"{"9lives":1}"#),    // leading digit
        task_end(r#"{"rows":-1}"#),     // negative counter value
        task_end(r#"{"rows":"many"}"#), // non-integer counter value
        task_end(r#"{"rows":1.5}"#),    // fractional counter value
        task_end("[1,2]"),              // "counters" not an object
        task_end("7"),
        task_end("null"),
        task_end("{}").replace("\"counters\":{},", ""), // "counters" absent
    ];
    for bad in &bad_lines {
        // A malformed line poisons the parse even when surrounded by
        // valid events — truncated or corrupt logs fail loudly.
        let log = format!("{good}\n{bad}\n{good}\n");
        assert!(
            parse_event_log(&log).is_err(),
            "line {bad:?} should fail to parse"
        );
    }
}

/// Satellite invariant: across pool-worker puts, pressure evictions, and
/// unpersists, the memory ledger's `used` equals the cache's own byte
/// count (itself the sum of resident block sizes) at every quiescent
/// point — the delta accounting never drifts from the real residency.
#[test]
fn ledger_matches_residency_through_concurrent_churn() {
    use sparkscore_rdd::MemCategory;
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .cache_budget_bytes(64 * 1024) // small budget: force eviction churn
        .build();
    let ledger = Arc::clone(engine.memory_ledger());
    let mut datasets = Vec::new();
    for round in 0..4u64 {
        let d = engine
            .parallelize((0u64..4_000).map(|i| i + round).collect::<Vec<_>>(), 8)
            .map(|x| x.wrapping_mul(0x9e3779b97f4a7c15))
            .cache();
        assert_eq!(d.count(), 4_000); // 8 pool tasks put/evict concurrently
        datasets.push(d);
        assert_eq!(
            ledger.used(MemCategory::BlockCache),
            engine.cache_used_bytes(),
            "ledger drifted from cache residency after round {round}"
        );
    }
    let per_op: u64 = datasets
        .iter()
        .map(|d| engine.cache_resident_bytes(d.id()))
        .sum();
    assert_eq!(
        ledger.used(MemCategory::BlockCache),
        per_op,
        "per-op residency must sum to the ledger total"
    );
    assert!(ledger.peak(MemCategory::BlockCache) >= ledger.used(MemCategory::BlockCache));
    // Unpersist half explicitly, drop the rest: both paths must settle to 0.
    datasets[0].unpersist();
    datasets[1].unpersist();
    drop(datasets);
    assert_eq!(ledger.used(MemCategory::BlockCache), 0);
    assert_eq!(engine.cache_used_bytes(), 0);
}

/// Satellite invariant: replaying the event log's byte deltas
/// (admitted − evicted, shuffle stores) reproduces the live ledger state.
#[test]
fn event_log_byte_deltas_replay_to_ledger_state() {
    use sparkscore_rdd::MemCategory;
    let (engine, mem) = observed_engine();
    let cached = engine
        .parallelize((0u64..2_000).collect::<Vec<_>>(), 4)
        .map(|x| x * 7)
        .cache();
    assert_eq!(cached.count(), 2_000);
    let pairs: Vec<(u64, u64)> = (0..300).map(|i| (i % 16, i)).collect();
    let summed = engine.parallelize(pairs, 4).reduce_by_key(4, |a, b| a + b);
    assert_eq!(summed.collect().len(), 16);

    let replay = |events: &[EngineEvent]| {
        let mut cache: i128 = 0;
        let mut shuffle: u64 = 0;
        for e in events {
            match e {
                EngineEvent::CacheAdmitted { bytes, .. } => cache += i128::from(*bytes),
                EngineEvent::CacheEvicted { bytes, .. } => cache -= i128::from(*bytes),
                EngineEvent::ShuffleBytesStored { bytes, .. } => shuffle += *bytes,
                _ => {}
            }
        }
        (cache, shuffle)
    };
    let (cache_bytes, shuffle_bytes) = replay(&mem.snapshot());
    let ledger = engine.memory_ledger();
    assert!(
        cache_bytes > 0,
        "the cached dataset must have been admitted"
    );
    assert!(shuffle_bytes > 0, "the shuffle must have stored bytes");
    assert_eq!(
        u64::try_from(cache_bytes).unwrap(),
        ledger.used(MemCategory::BlockCache),
        "cache byte deltas replay to live residency"
    );
    assert_eq!(
        shuffle_bytes,
        ledger.used(MemCategory::ShuffleStore),
        "shuffle byte deltas replay to live store occupancy"
    );
    // Dropping the datasets emits the matching negative deltas: the
    // replayed cache residency returns to exactly zero.
    drop(cached);
    drop(summed);
    let (cache_after, _) = replay(&mem.snapshot());
    assert_eq!(cache_after, 0, "unpersist deltas balance the admissions");
    assert_eq!(ledger.used(MemCategory::BlockCache), 0);
    assert_eq!(ledger.used(MemCategory::ShuffleStore), 0);
}

/// Every observed non-empty stage carries one MemoryWatermark sample, and
/// its per-category values are plausible against the live ledger peaks.
#[test]
fn memory_watermarks_ride_stage_batches() {
    use sparkscore_rdd::MemCategory;
    let (engine, mem) = observed_engine();
    run_shuffle_job(&engine);
    let events = mem.snapshot();
    let stages = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::StageCompleted { .. }))
        .count();
    let marks: Vec<&EngineEvent> = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::MemoryWatermark { .. }))
        .collect();
    assert_eq!(
        marks.len(),
        stages,
        "one watermark per observed stage: {events:?}"
    );
    for (i, e) in events.iter().enumerate() {
        if matches!(e, EngineEvent::MemoryWatermark { .. }) {
            assert!(
                matches!(events[i + 1], EngineEvent::StageCompleted { .. }),
                "watermark at {i} must immediately precede its StageCompleted"
            );
        }
    }
    let ledger = engine.memory_ledger();
    for m in marks {
        if let EngineEvent::MemoryWatermark {
            shuffle_store_bytes,
            cache_budget_bytes,
            ..
        } = m
        {
            assert!(*shuffle_store_bytes <= ledger.peak(MemCategory::ShuffleStore));
            assert_eq!(*cache_budget_bytes, engine.cache_budget_bytes());
        }
    }
}

#[test]
fn unobserved_engine_emits_nothing_and_stays_correct() {
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .build();
    assert!(!engine.events().is_active());
    run_shuffle_job(&engine);
    // Listeners attached mid-flight start seeing events immediately.
    let mem = Arc::new(MemoryEventListener::new());
    engine
        .events()
        .register(Arc::clone(&mem) as Arc<dyn EventListener>);
    run_shuffle_job(&engine);
    assert!(mem
        .snapshot()
        .iter()
        .any(|e| matches!(e, EngineEvent::JobStart { .. })));
}

/// Concurrent emitters are serialized across the whole listener loop, so
/// two listeners on one bus record the same event order whatever the
/// thread interleaving — map tasks on several pool threads emit
/// `ShuffleBytesStored` exactly like this.
#[test]
fn concurrent_emitters_give_every_listener_the_same_order() {
    let bus = EventBus::new();
    let (a, b) = (
        Arc::new(MemoryEventListener::new()),
        Arc::new(MemoryEventListener::new()),
    );
    bus.register(Arc::clone(&a) as Arc<dyn EventListener>);
    bus.register(Arc::clone(&b) as Arc<dyn EventListener>);
    // All four emitters start together, so their emissions overlap.
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for shuffle in 0..4u64 {
            let (bus, start) = (&bus, &start);
            s.spawn(move || {
                start.wait();
                for map_part in 0..2_000 {
                    bus.emit_with(|| EngineEvent::ShuffleBytesStored {
                        shuffle,
                        map_part,
                        bytes: 8,
                    });
                }
            });
        }
    });
    let (a, b) = (a.snapshot(), b.snapshot());
    assert_eq!(a.len(), 8_000);
    assert!(a == b, "two listeners recorded different event orders");
}
