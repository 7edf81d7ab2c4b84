//! The two passes over one workload.
//!
//! * The **measured pass** runs with no listener attached and produces the
//!   end-to-end metrics: a set-up, a warm-up, one closed-loop window, the
//!   output checks, then twenty fresh set-ups whose median is `setup_s`.
//! * The **traced pass** produces the per-layer metrics from three sources:
//!   counter snapshots around the window, the event stream of a traced
//!   segment, and direct calls into each layer. Its window is split — a
//!   third untraced, two thirds traced — so tracing overhead is a
//!   same-process, same-inputs comparison.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkscore_rdd::{EngineEvent, EventListener, MemCategory, MemoryEventListener};

use crate::gen::{self, Cohort, QueryKind};
use crate::spans::Layers;
use crate::stats::{median, percentile, samples_beyond, sorted};
use crate::workloads::{Check, OpOutput, Session, Shape, Window, Workload};
use crate::{direct, HOST_THREADS};

pub struct Config {
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Tiny inputs and windows: a smoke run, not a measurement.
    pub quick: bool,
}

impl Config {
    fn shape(&self, workload: &Workload) -> Shape {
        if self.quick {
            workload.quick
        } else {
            workload.full
        }
    }

    /// Fresh set-ups behind `setup_s`, all timed after the window. Before
    /// it the process's allocator is in one of two states — in some runs
    /// every set-up faults its memory in afresh, at twice the cost, in
    /// others none does — and a median across both lands on either side
    /// from run to run; after it, the allocator has settled. Twenty,
    /// because the host still produces spells of half a dozen slow set-ups
    /// in a row and the median must hold through one.
    fn setups(&self) -> usize {
        if self.quick {
            2
        } else {
            20
        }
    }

    fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.quick { 0.0 } else { 0.3 })
    }

    fn direct_budget(&self) -> Duration {
        Duration::from_millis(if self.quick { 2 } else { 60 })
    }
}

pub struct Value {
    pub value: f64,
    /// Samples behind the value (operations, tasks, set-ups, calls).
    pub samples: usize,
}

pub struct PassResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The benchmark's own input generation; not part of any metric.
    pub gen_s: f64,
    pub values: BTreeMap<&'static str, Value>,
    pub checks: Vec<Check>,
    /// Context lines for the human reader (min/max, sample caveats).
    pub notes: Vec<String>,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let replaced = self.values.insert(name, Value { value, samples });
        assert!(replaced.is_none(), "metric {name} set twice");
    }

    /// Count operation and check failures into `attempted`/`failed`.
    fn tally(&mut self, session: &Session, windows: &[&Window]) {
        for window in windows {
            self.attempted += window.ops.len() as u64;
            self.failed += window.ops.iter().filter(|op| !session.op_ok(op)).count() as u64;
        }
        self.attempted += self.checks.len() as u64;
        self.failed += self.checks.iter().filter(|c| !c.passed).count() as u64;
    }
}

fn generate(workload: &Workload, config: &Config) -> (Cohort, f64) {
    let t = Instant::now();
    let cohort = gen::cohort(config.shape(workload).cohort, config.seed);
    (cohort, t.elapsed().as_secs_f64())
}

fn new_result(workload: &Workload, traced: bool, gen_s: f64) -> PassResult {
    PassResult {
        workload: workload.name,
        traced,
        attempted: 0,
        failed: 0,
        gen_s,
        values: BTreeMap::new(),
        checks: Vec::new(),
        notes: Vec::new(),
    }
}

fn peak_bytes(session: &Session) -> BTreeMap<MemCategory, u64> {
    session
        .engine()
        .memory_snapshot()
        .into_iter()
        .map(|r| (r.category, r.peak))
        .collect()
}

pub fn measured(workload: &Workload, config: &Config) -> PassResult {
    let (cohort, gen_s) = generate(workload, config);
    let mut result = new_result(workload, false, gen_s);
    let shape = config.shape(workload);

    let timed_setup = || {
        let t = Instant::now();
        let session = Session::setup(workload, shape, &cohort, config.seed, HOST_THREADS);
        (session, t.elapsed().as_secs_f64())
    };
    let (session, first_setup_s) = timed_setup();

    let warm = session.run(0, config.warmup());
    let virtual_before = session.engine().virtual_time_secs();
    let window = session.run(warm.next, Duration::from_secs_f64(config.seconds));
    let virtual_s = session.engine().virtual_time_secs() - virtual_before;
    // Before the checks: their reference contexts are the benchmark's
    // memory, not the workload's.
    let peak: u64 = peak_bytes(&session).values().sum();

    let latencies = sorted(&window.latencies_ms());
    let ops = latencies.len();
    result.set("op_p50_ms", percentile(&latencies, 50), ops);
    result.set("op_tail_ms", percentile(&latencies, workload.tail_pct), ops);
    result.set("ops_per_s", ops as f64 / window.wall_s, ops);
    result.set("virtual_s_per_op", virtual_s / ops as f64, ops);
    result.set("peak_mem_mb", peak as f64 / 1e6, 1);

    let beyond = samples_beyond(ops, workload.tail_pct);
    result.notes.push(format!(
        "op_tail_ms is p{} ({beyond} samples beyond it); op latency min {:.3} ms, max {:.3} ms",
        workload.tail_pct,
        latencies[0],
        latencies[ops - 1]
    ));
    if beyond < 10 && !config.quick {
        result.notes.push(format!(
            "WARNING: fewer than ten samples beyond p{}; the tail is under-sampled",
            workload.tail_pct
        ));
    }
    if samples_beyond(ops, 99) >= 10 {
        result.notes.push(format!(
            "op latency p99 {:.3} ms",
            percentile(&latencies, 99)
        ));
    }
    result.checks = session.checks(&cohort, &window);
    result.tally(&session, &[&warm, &window]);
    session.shutdown();

    let setup_s: Vec<f64> = (0..config.setups())
        .map(|_| {
            let (session, secs) = timed_setup();
            session.shutdown();
            secs
        })
        .collect();
    result.set("setup_s", median(&setup_s), setup_s.len());
    result.notes.push(format!(
        "the process's first set-up took {first_setup_s:.4} s (cold allocator; not in setup_s); \
         the timed ones {:?} s",
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    result
}

/// p50 latency of the operations of `kind` in `window`; 0 when there are
/// none (the metric does not apply to this workload).
fn kind_p50(window: &Window, kind: QueryKind) -> (f64, usize) {
    let lat: Vec<f64> = window
        .ops
        .iter()
        .filter(|op| matches!(&op.output, OpOutput::Query(q, _) if q.kind == kind))
        .map(|op| op.latency_ms)
        .collect();
    if lat.is_empty() {
        (0.0, 0)
    } else {
        (percentile(&sorted(&lat), 50), lat.len())
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Where the traced pass leaves its spans: next to the build products, so
/// nothing is written outside the checkout's ignored directories.
fn spans_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let target = exe.parent()?.parent()?;
    Some(
        target
            .join("benchmark")
            .join(format!("{workload}.spans.jsonl")),
    )
}

fn write_spans(workload: &str, events: &[EngineEvent]) -> std::io::Result<Option<PathBuf>> {
    let Some(path) = spans_path(workload) else {
        return Ok(None);
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for event in events {
        if matches!(
            event,
            EngineEvent::JobStart { .. }
                | EngineEvent::JobEnd { .. }
                | EngineEvent::StageSubmitted { .. }
                | EngineEvent::StageCompleted { .. }
                | EngineEvent::TaskEnd { .. }
                | EngineEvent::Span { .. }
        ) {
            writeln!(out, "{}", event.to_json())?;
        }
    }
    out.flush()?;
    Ok(Some(path))
}

pub fn traced(workload: &Workload, config: &Config) -> PassResult {
    let (cohort, gen_s) = generate(workload, config);
    let mut result = new_result(workload, true, gen_s);
    let shape = config.shape(workload);
    let session = Session::setup(workload, shape, &cohort, config.seed, HOST_THREADS);
    let engine = Arc::clone(session.engine());
    let warm = session.run(0, config.warmup());

    // --- the window: a third untraced, two thirds traced -----------------
    let counters_before = engine.metrics_snapshot();
    let service_before = session.service_stats();
    let tiles_before = session.tile_cache_stats();
    let untraced = session.run(warm.next, Duration::from_secs_f64(config.seconds / 3.0));
    let listener = Arc::new(MemoryEventListener::new());
    engine
        .events()
        .register(Arc::clone(&listener) as Arc<dyn EventListener>);
    let traced = session.run(
        untraced.next,
        Duration::from_secs_f64(config.seconds * 2.0 / 3.0),
    );
    engine.events().clear();
    let events = listener.take();
    let counters = engine.metrics_snapshot().delta_since(&counters_before);
    let peaks = peak_bytes(&session);
    let all_ops = untraced.ops.len() + traced.ops.len();

    // --- (i) counter snapshots, per operation -----------------------------
    let per_op = |count: u64| count as f64 / all_ops as f64;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let mut count = |name: &'static str, value: f64| result.set(name, value, all_ops);
    count("rdd.engine.jobs", per_op(counters.jobs));
    count("rdd.engine.stages", per_op(counters.stages));
    count("rdd.engine.tasks", per_op(counters.tasks));
    count("rdd.engine.broadcasts", per_op(counters.broadcasts));
    count(
        "rdd.engine.broadcast_kb",
        per_op(counters.broadcast_bytes) / 1e3,
    );
    count("rdd.cache.hits", per_op(counters.cache_hits));
    count("rdd.cache.misses", per_op(counters.cache_misses));
    count("rdd.cache.evictions", per_op(counters.cache_evictions));
    count(
        "rdd.cache.recomputed_partitions",
        per_op(counters.recomputed_partitions),
    );
    count(
        "rdd.cache.hit_ratio",
        ratio(
            counters.cache_hits as f64,
            (counters.cache_hits + counters.cache_misses) as f64,
        ),
    );
    count("rdd.cache.peak_mb", mb(peaks[&MemCategory::BlockCache]));
    count(
        "rdd.shuffle.kb_written",
        per_op(counters.shuffle_bytes_written) / 1e3,
    );
    count(
        "rdd.shuffle.kb_read",
        per_op(counters.shuffle_bytes_read) / 1e3,
    );
    count("rdd.shuffle.map_tasks", per_op(counters.shuffle_map_tasks));
    count(
        "rdd.shuffle.map_reruns",
        per_op(counters.shuffle_map_reruns),
    );
    count("rdd.shuffle.peak_mb", mb(peaks[&MemCategory::ShuffleStore]));
    // Not observable on service workloads: reported as 0 there.
    let (tile_hits, tile_misses) = match (tiles_before, session.tile_cache_stats()) {
        (Some((h0, m0)), Some((h1, m1))) => (h1 - h0, m1 - m0),
        _ => (0, 0),
    };
    count("rdd.gemm.tile_hits", per_op(tile_hits));
    count("rdd.gemm.tile_misses", per_op(tile_misses));
    count(
        "rdd.gemm.tile_hit_ratio",
        ratio(tile_hits as f64, (tile_hits + tile_misses) as f64),
    );
    count("dfs.input_mb", per_op(counters.input_bytes) / 1e6);
    count("dfs.local_reads", per_op(counters.input_local_reads));
    count("dfs.peak_mb", mb(peaks[&MemCategory::DfsBlocks]));
    count("stats.scratch.peak_mb", mb(peaks[&MemCategory::Scratch]));
    // Window totals, not per operation: the failure counts must read 0.
    let service = match (service_before, session.service_stats()) {
        (Some(a), Some(b)) => [
            b.submitted - a.submitted,
            b.rejected - a.rejected,
            b.completed - a.completed,
            b.failed - a.failed,
        ],
        _ => [0; 4],
    };
    count("rdd.service.submitted", service[0] as f64);
    count("rdd.service.rejected", service[1] as f64);
    count("rdd.service.completed", service[2] as f64);
    count("rdd.service.failed", service[3] as f64);
    let (run, saved, tiles) = untraced
        .ops
        .iter()
        .chain(&traced.ops)
        .map(|op| session.replicate_work(&cohort, op))
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    count("core.analysis.replicates_run", per_op(run));
    count("core.analysis.replicates_saved", per_op(saved));
    count(
        "core.analysis.saved_ratio",
        ratio(saved as f64, (run + saved) as f64),
    );
    count("core.analysis.tiles", per_op(tiles));

    // --- (ii) the traced segment -------------------------------------------
    let layers = Layers::from_events(&events);
    let traced_ops = traced.ops.len();
    let client_ns = (traced.latencies_ms().iter().sum::<f64>() * 1e6) as u64;
    let ms_per_op = |ns: u64| ns as f64 / 1e6 / traced_ops as f64;
    let mut span = |name: &'static str, value: f64| result.set(name, value, traced_ops);
    span(
        "core.analysis.outside_jobs_ms",
        ms_per_op(layers.outside_jobs_ns(client_ns)),
    );
    span("rdd.engine.job_wall_ms", ms_per_op(layers.job_wall_ns));
    span("rdd.engine.stage_wall_ms", ms_per_op(layers.stage_wall_ns));
    span(
        "rdd.engine.driver_self_ms",
        ms_per_op(layers.driver_self_ns()),
    );
    span("rdd.pool.task_busy_ms", ms_per_op(layers.task_busy_ns()));
    span(
        "rdd.pool.utilization",
        ratio(
            layers.task_busy_ns() as f64,
            (HOST_THREADS as u64 * layers.stage_union_ns) as f64,
        ),
    );
    span(
        "stats.linalg.perturb_ms",
        ms_per_op(layers.label_ns("kernel:perturb")),
    );
    span(
        "stats.score.contributions_ms",
        ms_per_op(layers.label_ns("kernel:contributions")),
    );
    span(
        "rdd.shuffle.write_ms",
        ms_per_op(layers.label_ns("shuffle:write")),
    );
    span(
        "rdd.shuffle.fetch_ms",
        ms_per_op(layers.label_ns("shuffle:fetch")),
    );
    span(
        "rdd.cache.recompute_ms",
        ms_per_op(layers.label_ns("cache:recompute")),
    );
    span("rdd.pool.task_other_ms", ms_per_op(layers.task_other_ns()));
    span(
        "core.service.nonjob_share",
        ratio(layers.outside_jobs_ns(client_ns) as f64, client_ns as f64),
    );
    let tasks = layers.task_wall_ns.len();
    let task_walls = sorted(
        &layers
            .task_wall_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let task_p50 = percentile(&task_walls, 50);
    result.set("rdd.pool.task_p50_us", task_p50, tasks);
    result.set(
        "rdd.pool.task_max_over_p50",
        ratio(task_walls[tasks - 1], task_p50),
        tasks,
    );
    for (name, kind) in [
        ("core.service.observed_p50_ms", QueryKind::Observed),
        ("core.service.mc_fixed_p50_ms", QueryKind::McFixed),
        ("core.service.mc_adaptive_p50_ms", QueryKind::McAdaptive),
    ] {
        let (p50, samples) = kind_p50(&untraced, kind);
        result.set(name, p50, samples);
    }
    let p50_untraced = median(&untraced.latencies_ms());
    let p50_traced = median(&traced.latencies_ms());
    result.set(
        "obs.tracing_overhead_pct",
        100.0 * (p50_traced - p50_untraced) / p50_untraced,
        traced_ops,
    );

    if !workload.kind.is_service() {
        // One driver, so jobs never overlap and the three self times must
        // rebuild the segment's wall clock; a gap means lost events.
        let rebuilt =
            layers.outside_jobs_ns(client_ns) + layers.driver_self_ns() + layers.stage_wall_ns;
        let wall_ns = traced.wall_s * 1e9;
        let gap = (rebuilt as f64 - wall_ns).abs() / wall_ns;
        result.checks.push(Check {
            name: "layers_sum_to_wall",
            passed: gap <= 0.02 && layers.job_wall_ns <= client_ns,
            detail: format!(
                "layers rebuild the traced wall to within {:.3}%",
                gap * 100.0
            ),
        });
    }
    result.tally(&session, &[&warm, &untraced, &traced]);
    session.shutdown();

    // --- single-thread baseline --------------------------------------------
    let baseline = Session::setup(workload, shape, &cohort, config.seed, 1);
    let warm = baseline.run(0, Duration::ZERO);
    let single = baseline.run(warm.next, Duration::from_secs_f64(config.seconds / 10.0));
    result.set(
        "rdd.pool.speedup_2t",
        median(&single.latencies_ms()) / p50_untraced,
        single.ops.len(),
    );
    baseline.shutdown();

    // --- (iii) direct calls ------------------------------------------------
    for (name, value, calls) in direct::measure(&cohort, config.direct_budget(), HOST_THREADS) {
        result.set(name, value, calls);
    }

    match write_spans(workload.name, &events) {
        Ok(Some(path)) => result.notes.push(format!(
            "{} events; spans written to {}",
            events.len(),
            path.display()
        )),
        Ok(None) => result
            .notes
            .push("spans not written: no target directory".to_string()),
        Err(e) => result.notes.push(format!("spans not written: {e}")),
    }
    result
}
