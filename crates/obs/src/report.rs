//! Text rendering: the `trace report` digest, the standalone
//! critical-path view, the per-stage table, and the two-log `trace diff`.
//!
//! All output is built from deterministic iteration orders and fixed
//! float formatting, so a fixed input log renders byte-identical text.

use sparkscore_rdd::{StageKind, TaskMetrics};

use crate::analyze::{cache_roi, critical_paths, stage_skew, CacheRoi, CriticalPath};
use crate::trace::ExecutionTrace;

/// Human-compact duration from nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    if secs >= 100.0 {
        format!("{secs:.0}s")
    } else if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.0}µs", secs * 1e6)
    }
}

/// Human-compact byte count.
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2}GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.1}MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1}KiB", b / KIB)
    } else {
        format!("{bytes}B")
    }
}

fn kind_str(kind: Option<StageKind>) -> &'static str {
    kind.map_or("?", StageKind::as_str)
}

fn render_path(out: &mut String, path: &CriticalPath, in_flight: bool) {
    out.push_str(&format!(
        "job {}: critical path {} over {} stage(s) (observed advance {}){}\n",
        path.job,
        fmt_ns(path.path_ns),
        path.stages.len(),
        fmt_ns(path.virtual_advance_ns),
        if in_flight { "  [in flight]" } else { "" },
    ));
    let chain: Vec<String> = path
        .stages
        .iter()
        .map(|s| format!("{}[{}]", s.stage, kind_str(s.kind)))
        .collect();
    out.push_str(&format!("  chain: {}\n", chain.join(" -> ")));
    for s in &path.stages {
        out.push_str(&format!(
            "  stage {:>4} {:<10} {:>3} tasks  makespan {:>9}  slowest task {:>9} (p{})  slack {:>9}\n",
            s.stage,
            kind_str(s.kind),
            s.num_tasks,
            fmt_ns(s.makespan_ns),
            fmt_ns(s.critical_task_ns),
            s.critical_partition,
            fmt_ns(s.slack_ns),
        ));
    }
    if let Some(b) = path.bottleneck() {
        out.push_str(&format!(
            "  bottleneck: stage {} ({} of the path)\n",
            b.stage,
            percent(b.makespan_ns, path.path_ns),
        ));
    }
}

fn percent(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

/// The per-stage table, one row per stage in submission order: task
/// count, task virtual-time min/p50/max (the straggler view), shuffle
/// read/write, cache hit rate, virtual makespan, and the summed host wall
/// time of the stage's tasks. A stage run outside a job shows job `-`; one
/// that made no cache lookup shows hit rate `-`.
pub fn stage_table(trace: &ExecutionTrace) -> String {
    let mut out = String::new();
    out.push_str(
        "| job | stage | kind | tasks | task vtime min/p50/max | shuffle R/W | cache hit% | virtual | wall |\n",
    );
    out.push_str(
        "|-----|-------|------|-------|------------------------|-------------|------------|---------|------|\n",
    );
    for s in &trace.stages {
        let mut vtimes: Vec<u64> = s
            .tasks
            .iter()
            .map(TaskMetrics::virtual_runtime_ns)
            .collect();
        vtimes.sort_unstable();
        let (vmin, vp50, vmax) = match (vtimes.first(), vtimes.last()) {
            (Some(&min), Some(&max)) => (min, vtimes[vtimes.len() / 2], max),
            _ => (0, 0, 0),
        };
        let lookups = s.cache_hits() + s.cache_misses();
        let hit = if lookups == 0 {
            "-".to_string()
        } else {
            format!("{:.0}%", s.cache_hits() as f64 / lookups as f64 * 100.0)
        };
        let job = s.job.map_or_else(|| "-".to_string(), |j| j.to_string());
        let wall: u64 = s.tasks.iter().map(|t| t.wall_ns).sum();
        out.push_str(&format!(
            "| {job} | {stage} | {kind} | {tasks} | {vmin}/{vp50}/{vmax} | {r}/{w} | {hit} | {mk} | {wall} |\n",
            stage = s.stage,
            kind = kind_str(s.kind),
            tasks = s.num_tasks,
            vmin = fmt_ns(vmin),
            vp50 = fmt_ns(vp50),
            vmax = fmt_ns(vmax),
            r = fmt_bytes(s.shuffle_read_bytes()),
            w = fmt_bytes(s.shuffle_write_bytes()),
            mk = fmt_ns(s.makespan_ns),
            wall = fmt_ns(wall),
        ));
    }
    out
}

/// The one-line cache accounting the digest and the diff both print.
/// Hit/miss totals are exact sums of the log's per-task counters.
pub fn cache_roi_line(roi: &CacheRoi) -> String {
    let rate = roi
        .hit_rate()
        .map_or_else(|| "-".to_string(), |r| format!("{:.1}%", r * 100.0));
    format!(
        "cache ROI: hits={} misses={} hit-rate={} recomputed={} evicted={}+{} \
         est-saved={} ({}/miss) est-bytes-saved={}",
        roi.hits,
        roi.misses,
        rate,
        roi.recomputed,
        roi.evictions_pressure,
        roi.evictions_other,
        fmt_ns(roi.est_saved_ns),
        fmt_ns(roi.est_ns_per_miss),
        fmt_bytes(roi.est_saved_bytes),
    )
}

/// Standalone critical-path view (`trace critical-path`). Jobs that were
/// still running when the trace was captured (a flight-recorder dump of a
/// live engine) are marked in flight: their path is the critical path
/// *so far*.
pub fn critical_path_report(trace: &ExecutionTrace) -> String {
    let open = trace.open_jobs();
    let mut out = String::new();
    for path in critical_paths(trace) {
        render_path(&mut out, &path, open.contains(&path.job));
    }
    if out.is_empty() {
        out.push_str("no jobs in log\n");
    }
    out
}

/// The full digest (`trace report`): run totals, per-job critical paths,
/// the most skewed stages, and the cache-ROI line.
pub fn report(trace: &ExecutionTrace) -> String {
    let mut out = String::new();
    out.push_str("== run totals ==\n");
    out.push_str(&format!(
        "jobs={} stages={} tasks={} virtual={} input={} shuffle R/W={}/{} map-reruns={} faults={}\n",
        trace.jobs.len(),
        trace.stages.len(),
        trace.total_tasks(),
        fmt_ns(trace.total_virtual_ns()),
        fmt_bytes(trace.total_input_bytes()),
        fmt_bytes(trace.total_shuffle_read_bytes()),
        fmt_bytes(trace.total_shuffle_write_bytes()),
        trace.shuffle_map_reruns,
        trace.faults.len(),
    ));
    if trace.is_partial() {
        let open = trace.open_jobs();
        let jobs: Vec<String> = open.iter().map(|j| j.to_string()).collect();
        out.push_str(&format!(
            "partial trace: {} job(s) still in flight [{}]\n",
            open.len(),
            jobs.join(", "),
        ));
    }

    out.push_str("\n== critical paths ==\n");
    out.push_str(&critical_path_report(trace));

    out.push_str("\n== task skew (worst stages by p99/p50) ==\n");
    let mut skews = stage_skew(trace);
    skews.sort_by(|a, b| {
        b.time_skew
            .total_cmp(&a.time_skew)
            .then(a.stage.cmp(&b.stage))
    });
    for s in skews.iter().take(8) {
        out.push_str(&format!(
            "stage {:>4} {:<10} {:>3} tasks  p50 {:>9}  p99 {:>9}  max {:>9}  skew {:>5.2}x  bytes max/mean {:.2}x\n",
            s.stage,
            kind_str(s.kind),
            s.num_tasks,
            fmt_ns(s.p50_ns),
            fmt_ns(s.p99_ns),
            fmt_ns(s.max_ns),
            s.time_skew,
            s.size_imbalance,
        ));
    }
    if skews.is_empty() {
        out.push_str("no completed tasks in log\n");
    }

    out.push_str("\n== cache ==\n");
    out.push_str(&cache_roi_line(&cache_roi(trace)));
    out.push('\n');

    out.push_str("\n== kernels ==\n");
    let counters: Vec<String> = trace
        .counter_totals()
        .iter()
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    if counters.is_empty() {
        out.push_str("task counters: none reported\n");
    } else {
        out.push_str(&format!("task counters: {}\n", counters.join(" ")));
    }
    let (kernel_wall, total_wall) = trace.kernel_wall_split_ns();
    out.push_str(&format!(
        "kernel-task wall={} ({} of {} total wall)\n",
        fmt_ns(kernel_wall),
        percent(kernel_wall, total_wall),
        fmt_ns(total_wall),
    ));

    out.push_str("\n== spans ==\n");
    let spans = trace.span_totals();
    if spans.is_empty() {
        out.push_str("no sub-task spans in log\n");
    } else {
        for s in &spans {
            out.push_str(&format!(
                "{:<24} count={:<6} total={:>9}\n",
                s.label,
                s.count,
                fmt_ns(s.total_ns),
            ));
        }
    }
    out
}

/// Machine-readable mirror of [`report`] (`trace report --json`).
///
/// Sections and ordering track the text digest; object keys are emitted in
/// fixed insertion order and all collections derive from the same
/// deterministic analyses, so a fixed input log serialises byte-identically.
pub fn report_json(trace: &ExecutionTrace) -> serde_json::Value {
    use serde_json::{json, Value};

    let open = trace.open_jobs();
    let totals = json!({
        "jobs": trace.jobs.len() as u64,
        "stages": trace.stages.len() as u64,
        "tasks": trace.total_tasks() as u64,
        "virtual_ns": trace.total_virtual_ns(),
        "input_bytes": trace.total_input_bytes(),
        "shuffle_read_bytes": trace.total_shuffle_read_bytes(),
        "shuffle_write_bytes": trace.total_shuffle_write_bytes(),
        "shuffle_map_reruns": trace.shuffle_map_reruns,
        "faults": trace.faults.len() as u64,
    });

    let paths: Vec<Value> = critical_paths(trace)
        .iter()
        .map(|p| {
            let stages: Vec<Value> = p
                .stages
                .iter()
                .map(|s| {
                    json!({
                        "stage": s.stage,
                        "kind": kind_str(s.kind),
                        "num_tasks": s.num_tasks as u64,
                        "makespan_ns": s.makespan_ns,
                        "critical_task_ns": s.critical_task_ns,
                        "critical_partition": s.critical_partition as u64,
                        "slack_ns": s.slack_ns,
                    })
                })
                .collect();
            let bottleneck = p.bottleneck().map_or(Value::Null, |b| Value::from(b.stage));
            json!({
                "job": p.job,
                "path_ns": p.path_ns,
                "virtual_advance_ns": p.virtual_advance_ns,
                "in_flight": open.contains(&p.job),
                "bottleneck_stage": bottleneck,
                "stages": stages,
            })
        })
        .collect();

    let mut skews = stage_skew(trace);
    skews.sort_by(|a, b| {
        b.time_skew
            .total_cmp(&a.time_skew)
            .then(a.stage.cmp(&b.stage))
    });
    let skew: Vec<Value> = skews
        .iter()
        .map(|s| {
            json!({
                "stage": s.stage,
                "kind": kind_str(s.kind),
                "num_tasks": s.num_tasks as u64,
                "p50_ns": s.p50_ns,
                "p99_ns": s.p99_ns,
                "max_ns": s.max_ns,
                "time_skew": s.time_skew,
                "size_imbalance": s.size_imbalance,
            })
        })
        .collect();

    let roi = cache_roi(trace);
    let hit_rate = roi.hit_rate().map_or(Value::Null, Value::from);
    let cache = json!({
        "hits": roi.hits,
        "misses": roi.misses,
        "hit_rate": hit_rate,
        "recomputed": roi.recomputed,
        "evictions_pressure": roi.evictions_pressure,
        "evictions_other": roi.evictions_other,
        "est_saved_ns": roi.est_saved_ns,
        "est_ns_per_miss": roi.est_ns_per_miss,
        "est_saved_bytes": roi.est_saved_bytes,
    });

    let (kernel_wall, total_wall) = trace.kernel_wall_split_ns();
    let kernels = json!({
        "counters": trace.counter_totals().to_json(),
        "kernel_task_wall_ns": kernel_wall,
        "total_task_wall_ns": total_wall,
    });

    let spans: Vec<Value> = trace
        .span_totals()
        .iter()
        .map(|s| {
            json!({
                "label": s.label.as_str(),
                "count": s.count as u64,
                "total_ns": s.total_ns,
            })
        })
        .collect();

    let open_jobs: Vec<Value> = open.iter().map(|&j| Value::from(j)).collect();
    json!({
        "totals": totals,
        "partial": trace.is_partial(),
        "open_jobs": open_jobs,
        "critical_paths": paths,
        "skew": skew,
        "cache": cache,
        "kernels": kernels,
        "spans": spans,
    })
}

fn signed_ns(a: u64, b: u64) -> String {
    if a >= b {
        format!("+{}", fmt_ns(a - b))
    } else {
        format!("-{}", fmt_ns(b - a))
    }
}

/// Stage-by-stage and aggregate comparison of two runs (`trace diff`) —
/// e.g. an Algorithm-2 permutation log vs an Algorithm-3 multiplier log
/// of the same dataset. Attributes the virtual-time gap to cache reuse by
/// comparing each side's cache ROI.
pub fn diff_report(name_a: &str, a: &ExecutionTrace, name_b: &str, b: &ExecutionTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!("diff: A={name_a}  B={name_b}\n\n"));
    out.push_str("== totals (A vs B) ==\n");
    let rows: [(&str, String, String); 5] = [
        ("jobs", a.jobs.len().to_string(), b.jobs.len().to_string()),
        (
            "stages",
            a.stages.len().to_string(),
            b.stages.len().to_string(),
        ),
        (
            "tasks",
            a.total_tasks().to_string(),
            b.total_tasks().to_string(),
        ),
        (
            "virtual time",
            fmt_ns(a.total_virtual_ns()),
            fmt_ns(b.total_virtual_ns()),
        ),
        (
            "shuffle write",
            fmt_bytes(a.total_shuffle_write_bytes()),
            fmt_bytes(b.total_shuffle_write_bytes()),
        ),
    ];
    for (label, va, vb) in rows {
        out.push_str(&format!("{label:>14}: {va:>12} | {vb:>12}\n"));
    }
    out.push_str(&format!(
        "{:>14}: {} (A - B)\n",
        "gap",
        signed_ns(a.total_virtual_ns(), b.total_virtual_ns())
    ));

    let (roi_a, roi_b) = (cache_roi(a), cache_roi(b));
    out.push_str("\n== cache ROI ==\n");
    out.push_str(&format!("A: {}\n", cache_roi_line(&roi_a)));
    out.push_str(&format!("B: {}\n", cache_roi_line(&roi_b)));
    let (winner, delta) = if roi_a.est_saved_ns >= roi_b.est_saved_ns {
        (name_a, roi_a.est_saved_ns - roi_b.est_saved_ns)
    } else {
        (name_b, roi_b.est_saved_ns - roi_a.est_saved_ns)
    };
    out.push_str(&format!(
        "{winner} saves an estimated {} more virtual time through cache reuse \
         ({} vs {} hits)\n",
        fmt_ns(delta),
        roi_a.hits,
        roi_b.hits,
    ));

    out.push_str("\n== stage-by-stage (aligned by submission index) ==\n");
    out.push_str("   idx |            A              |            B\n");
    let n = a.stages.len().max(b.stages.len());
    for i in 0..n {
        let cell = |t: &ExecutionTrace| {
            t.stages.get(i).map_or_else(
                || "-".to_string(),
                |s| {
                    format!(
                        "s{} {} {}t {}",
                        s.stage,
                        kind_str(s.kind),
                        s.num_tasks,
                        fmt_ns(s.makespan_ns)
                    )
                },
            )
        };
        out.push_str(&format!("{i:>6} | {:<25} | {:<25}\n", cell(a), cell(b)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::sample_stream;

    fn trace() -> ExecutionTrace {
        ExecutionTrace::from_events(&sample_stream())
    }

    #[test]
    fn stage_table_is_pinned() {
        // Stage 0's two tasks pin p50 as the upper median (`sorted[len/2]`)
        // and a 0% hit rate; stage 1 hits only, stage 2 half; the internal
        // stage 3 has no job and no cache lookup, so both show `-`.
        let table = stage_table(&trace());
        let expected = [
            "| job | stage | kind | tasks | task vtime min/p50/max | shuffle R/W | cache hit% | virtual | wall |",
            "|-----|-------|------|-------|------------------------|-------------|------------|---------|------|",
            "| 0 | 0 | ShuffleMap | 2 | 4µs/9µs/9µs | 0B/20B | 0% | 10µs | 6µs |",
            "| 0 | 1 | Result | 2 | 2µs/3µs/3µs | 0B/20B | 100% | 4µs | 2µs |",
            "| 1 | 2 | Result | 1 | 1µs/1µs/1µs | 0B/10B | 50% | 1µs | 0µs |",
            "| - | 3 | Result | 1 | 0µs/0µs/0µs | 0B/0B | - | 0µs | 0µs |",
        ];
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines, expected, "{table}");
    }

    /// A trace of job-less stages, one per entry, whose tasks have the
    /// given (virtual runtime ns, cache hits, cache misses).
    fn stages_trace(stages: &[&[(u64, u64, u64)]]) -> ExecutionTrace {
        use sparkscore_rdd::events::SpanContext;
        use sparkscore_rdd::EngineEvent;
        let mut events = Vec::new();
        for (stage, tasks) in (0u64..).zip(stages) {
            events.push(EngineEvent::StageSubmitted {
                job: None,
                stage,
                kind: StageKind::Result,
                num_tasks: tasks.len(),
                span: SpanContext::root(stage + 1),
                mono_ns: 0,
            });
            for (partition, &(runtime, hits, misses)) in tasks.iter().enumerate() {
                events.push(EngineEvent::TaskEnd {
                    stage,
                    metrics: TaskMetrics {
                        partition,
                        virtual_compute_ns: runtime,
                        virtual_finish_ns: runtime,
                        cache_hits: hits,
                        cache_misses: misses,
                        ..TaskMetrics::default()
                    },
                });
            }
        }
        ExecutionTrace::from_events(&events)
    }

    /// One column of the stage table, one cell per stage row.
    fn column(table: &str, index: usize) -> Vec<&str> {
        table
            .lines()
            .skip(2)
            .map(|row| row.split('|').map(str::trim).nth(index + 1).unwrap())
            .collect()
    }

    #[test]
    fn stage_table_spread_picks_min_median_max() {
        let table = stage_table(&stages_trace(&[
            &[(5_000, 0, 0), (1_000, 0, 0), (9_000, 0, 0), (3_000, 0, 0)],
            &[],
            &[(7_000, 0, 0)],
        ]));
        assert_eq!(
            column(&table, 4),
            ["1µs/5µs/9µs", "0µs/0µs/0µs", "7µs/7µs/7µs"],
            "{table}"
        );
    }

    #[test]
    fn stage_table_hit_rate_without_lookups_is_dash() {
        let table = stage_table(&stages_trace(&[
            &[(1_000, 0, 0)],
            &[(1_000, 3, 0)],
            &[(1_000, 0, 2)],
            &[(1_000, 1, 0), (1_000, 0, 1)],
        ]));
        assert_eq!(column(&table, 6), ["-", "100%", "0%", "50%"], "{table}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(1_500_000_000), "1.50s");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MiB");
    }

    #[test]
    fn fmt_ns_boundaries() {
        assert_eq!(fmt_ns(0), "0µs");
        assert_eq!(fmt_ns(999), "1µs"); // rounds to the µs
                                        // Exact unit thresholds.
        assert_eq!(fmt_ns(1_000_000), "1.00ms");
        assert_eq!(fmt_ns(999_999), "1000µs"); // just under the ms threshold
        assert_eq!(fmt_ns(1_000_000_000), "1.00s");
        assert_eq!(fmt_ns(100_000_000_000), "100s");
        assert_eq!(fmt_ns(99_999_999_999), "100.00s"); // just under 100 s
        assert_eq!(fmt_ns(u64::MAX), "18446744074s");
    }

    #[test]
    fn fmt_bytes_boundaries() {
        assert_eq!(fmt_bytes(1023), "1023B");
        assert_eq!(fmt_bytes(1024), "1.0KiB");
        assert_eq!(fmt_bytes(1024 * 1024 - 1), "1024.0KiB");
        assert_eq!(fmt_bytes(1024 * 1024), "1.0MiB");
        assert_eq!(fmt_bytes(1024 * 1024 * 1024 - 1), "1024.0MiB");
        assert_eq!(fmt_bytes(1024 * 1024 * 1024), "1.00GiB");
        assert_eq!(fmt_bytes(u64::MAX), "17179869184.00GiB");
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let a = report(&trace());
        let b = report(&trace());
        assert_eq!(a, b, "same events must render byte-identical reports");
        assert!(a.contains("== critical paths =="));
        assert!(a.contains("chain: 0[ShuffleMap] -> 1[Result]"), "{a}");
        assert!(a.contains("cache ROI: hits=7 misses=5"), "{a}");
        assert!(a.contains("map-reruns=1 faults=1"), "{a}");
        assert!(a.contains("== kernels =="), "{a}");
        assert!(
            a.contains("task counters: cells=2000 fast_cells=1200 skipped=20\n"),
            "{a}"
        );
        assert!(a.contains("== spans =="), "{a}");
        assert!(a.contains("kernel:contributions"), "{a}");
        assert!(
            !a.contains("partial trace"),
            "complete log must not be flagged partial: {a}"
        );
    }

    /// Nested object lookup for test assertions (`Value` has no `Index`).
    fn at<'a>(v: &'a serde_json::Value, path: &[&str]) -> &'a serde_json::Value {
        path.iter().fold(v, |v, key| {
            v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
        })
    }

    #[test]
    fn partial_trace_is_flagged_in_report() {
        let mut events = sample_stream();
        events.truncate(11); // cut before stage 1 completes: job 0 in flight
        let t = ExecutionTrace::from_events(&events);
        let r = report(&t);
        assert!(
            r.contains("partial trace: 1 job(s) still in flight [0]"),
            "{r}"
        );
        assert!(r.contains("[in flight]"), "{r}");
    }

    #[test]
    fn report_json_is_byte_deterministic_and_mirrors_text() {
        let t = trace();
        let a = report_json(&t).to_string();
        let b = report_json(&t).to_string();
        assert_eq!(a, b, "same trace must serialise byte-identically");
        let v = report_json(&t);
        assert_eq!(at(&v, &["totals", "jobs"]).as_u64(), Some(2));
        assert_eq!(at(&v, &["totals", "tasks"]).as_u64(), Some(5));
        assert_eq!(at(&v, &["partial"]).as_bool(), Some(false));
        assert_eq!(at(&v, &["open_jobs"]).as_array().map(<[_]>::len), Some(0));
        let paths = at(&v, &["critical_paths"]).as_array().expect("paths array");
        assert_eq!(paths.len(), 2);
        assert_eq!(at(&paths[0], &["job"]).as_u64(), Some(0));
        assert_eq!(at(&paths[0], &["in_flight"]).as_bool(), Some(false));
        assert_eq!(
            at(&paths[0], &["stages"]).as_array().map(<[_]>::len),
            Some(2),
            "two-stage chain"
        );
        assert_eq!(at(&v, &["cache", "hits"]).as_u64(), Some(7));
        assert_eq!(
            at(&v, &["kernels", "counters"]).to_string(),
            r#"{"cells":2000,"fast_cells":1200,"skipped":20}"#
        );
        let spans = at(&v, &["spans"]).as_array().expect("spans array");
        assert!(!spans.is_empty());
        assert_eq!(
            at(&spans[0], &["label"]).as_str(),
            Some("kernel:contributions")
        );
    }

    #[test]
    fn report_json_marks_open_jobs() {
        let mut events = sample_stream();
        events.truncate(11);
        let t = ExecutionTrace::from_events(&events);
        let v = report_json(&t);
        assert_eq!(at(&v, &["partial"]).as_bool(), Some(true));
        let open = at(&v, &["open_jobs"]).as_array().expect("open_jobs array");
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].as_u64(), Some(0));
        let paths = at(&v, &["critical_paths"]).as_array().expect("paths array");
        assert_eq!(at(&paths[0], &["in_flight"]).as_bool(), Some(true));
    }

    #[test]
    fn critical_path_report_handles_empty_trace() {
        let empty = ExecutionTrace::default();
        assert_eq!(critical_path_report(&empty), "no jobs in log\n");
    }

    #[test]
    fn diff_attributes_gap_to_cache_reuse() {
        let a = trace();
        let mut b = trace();
        // Strip B's cache hits: B is the "no reuse" run.
        for s in &mut b.stages {
            for t in &mut s.tasks {
                t.cache_hits = 0;
            }
        }
        let d = diff_report("alg3", &a, "alg2", &b);
        assert!(d.contains("diff: A=alg3  B=alg2"));
        assert!(
            d.contains("alg3 saves an estimated"),
            "alg3 has more hits: {d}"
        );
        assert!(d.contains("(7 vs 0 hits)"), "{d}");
        // Deterministic too.
        assert_eq!(d, diff_report("alg3", &a, "alg2", &b));
    }
}
