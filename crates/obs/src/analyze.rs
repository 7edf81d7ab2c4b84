//! Analyses over an [`ExecutionTrace`]: critical path, straggler/skew
//! diagnostics, and cache ROI accounting.
//!
//! All three are pure functions of the trace, use only integer or
//! fixed-formatting arithmetic, and iterate structures in submission
//! order, so their output is deterministic for a fixed input log.

use sparkscore_rdd::{StageKind, TaskMetrics};

use crate::trace::{ExecutionTrace, TraceStage};

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

/// One stage on a job's critical path.
#[derive(Debug, Clone)]
pub struct PathStage {
    pub stage: u64,
    pub kind: Option<StageKind>,
    pub num_tasks: usize,
    /// The stage's virtual makespan — its contribution to the path.
    pub makespan_ns: u64,
    /// Virtual runtime of the stage's slowest task.
    pub critical_task_ns: u64,
    /// Partition index of that slowest task.
    pub critical_partition: usize,
    /// `makespan − critical task`: time the stage spent beyond its single
    /// longest task — extra waves when tasks outnumber slots, plus
    /// scheduling overhead. A stage with high slack is bounded by
    /// parallelism; one with zero slack is bounded by its straggler.
    pub slack_ns: u64,
}

/// The critical path of one job.
///
/// The engine executes a job's stages sequentially in dependency order
/// (every shuffle-map stage a result stage needs runs before it), so the
/// job's critical path is its stage chain, each link weighted by the
/// stage's makespan; within a stage the critical element is the slowest
/// task.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    pub job: u64,
    pub stages: Vec<PathStage>,
    /// Sum of stage makespans — the dependency-chain length.
    pub path_ns: u64,
    /// The job's observed virtual advance (path + inter-stage overhead).
    pub virtual_advance_ns: u64,
}

impl CriticalPath {
    /// The path's slowest stage, if the job ran any.
    pub fn bottleneck(&self) -> Option<&PathStage> {
        self.stages.iter().max_by_key(|s| (s.makespan_ns, s.stage))
    }
}

fn path_stage(s: &TraceStage) -> PathStage {
    let (critical_task_ns, critical_partition) = s
        .critical_task()
        .map(|t| (t.virtual_runtime_ns(), t.partition))
        .unwrap_or((0, 0));
    PathStage {
        stage: s.stage,
        kind: s.kind,
        num_tasks: s.num_tasks,
        makespan_ns: s.makespan_ns,
        critical_task_ns,
        critical_partition,
        slack_ns: s.makespan_ns.saturating_sub(critical_task_ns),
    }
}

/// Compute the critical path of every job in the trace, in job order.
pub fn critical_paths(trace: &ExecutionTrace) -> Vec<CriticalPath> {
    trace
        .jobs
        .iter()
        .map(|job| {
            let stages: Vec<PathStage> = trace
                .job_stages(job.job)
                .into_iter()
                .map(path_stage)
                .collect();
            let path_ns = stages.iter().map(|s| s.makespan_ns).sum();
            CriticalPath {
                job: job.job,
                stages,
                path_ns,
                virtual_advance_ns: job.virtual_advance_ns,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Skew / straggler diagnostics
// ---------------------------------------------------------------------------

/// Task-time and partition-size balance of one stage.
#[derive(Debug, Clone)]
pub struct StageSkew {
    pub stage: u64,
    pub kind: Option<StageKind>,
    pub num_tasks: usize,
    /// Median per-task virtual runtime.
    pub p50_ns: u64,
    /// 99th-percentile (nearest-rank) per-task virtual runtime.
    pub p99_ns: u64,
    pub max_ns: u64,
    /// `p99 / p50` task-time ratio; 1.0 for a perfectly balanced stage.
    pub time_skew: f64,
    /// Mean per-task bytes processed (input + shuffle read).
    pub mean_bytes: u64,
    pub max_bytes: u64,
    /// `max / mean` partition-size ratio; 1.0 when perfectly balanced.
    pub size_imbalance: f64,
}

fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() * pct).div_ceil(100).max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        if num == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        num as f64 / den as f64
    }
}

/// Per-stage skew diagnostics, in stage-submission order. Stages that
/// completed no tasks are skipped.
pub(crate) fn stage_skew(trace: &ExecutionTrace) -> Vec<StageSkew> {
    trace
        .stages
        .iter()
        .filter(|s| !s.tasks.is_empty())
        .map(|s| {
            let mut times: Vec<u64> = s
                .tasks
                .iter()
                .map(TaskMetrics::virtual_runtime_ns)
                .collect();
            times.sort_unstable();
            let bytes: Vec<u64> = s
                .tasks
                .iter()
                .map(|t| t.input_bytes + t.shuffle_read_bytes)
                .collect();
            let max_bytes = bytes.iter().copied().max().unwrap_or(0);
            let mean_bytes = bytes.iter().sum::<u64>() / bytes.len() as u64;
            let p50_ns = nearest_rank(&times, 50);
            let p99_ns = nearest_rank(&times, 99);
            StageSkew {
                stage: s.stage,
                kind: s.kind,
                num_tasks: s.tasks.len(),
                p50_ns,
                p99_ns,
                max_ns: *times.last().expect("non-empty"),
                time_skew: ratio(p99_ns, p50_ns),
                mean_bytes,
                max_bytes,
                size_imbalance: ratio(max_bytes, mean_bytes),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Cache ROI
// ---------------------------------------------------------------------------

/// What caching bought (or failed to buy) in a run — the analyzable form
/// of the paper's Algorithm 1 vs Algorithm 3 comparison.
///
/// Hit/miss/recompute totals are exact sums of the per-task
/// [`TaskMetrics`] counters. The *saved* figures are estimates: each
/// cache hit is valued at the observed average cost of a miss (virtual
/// compute time, and input bytes re-read, of miss-carrying tasks divided
/// by their miss count). With no misses in the log there is no observed
/// recomputation cost to extrapolate from and the estimates are zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheRoi {
    pub hits: u64,
    pub misses: u64,
    /// Misses on previously-resident blocks (lineage recovery).
    pub recomputed: u64,
    pub evictions_pressure: u64,
    pub evictions_other: u64,
    /// Virtual compute time of tasks that carried ≥ 1 miss.
    pub miss_compute_ns: u64,
    /// Input bytes read by tasks that carried ≥ 1 miss.
    pub miss_input_bytes: u64,
    /// Estimated virtual time a single miss costs.
    pub est_ns_per_miss: u64,
    /// Estimated virtual time saved by the observed hits.
    pub est_saved_ns: u64,
    /// Estimated input bytes the observed hits avoided re-reading.
    pub est_saved_bytes: u64,
}

impl CacheRoi {
    /// Fraction of lookups that hit, if any happened.
    pub(crate) fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Aggregate cache ROI over every task in the trace.
pub fn cache_roi(trace: &ExecutionTrace) -> CacheRoi {
    let mut roi = CacheRoi {
        evictions_pressure: trace.evictions_pressure,
        evictions_other: trace.evictions_other,
        ..CacheRoi::default()
    };
    for stage in &trace.stages {
        for task in &stage.tasks {
            roi.hits += task.cache_hits;
            roi.misses += task.cache_misses;
            roi.recomputed += task.recomputed_partitions;
            if task.cache_misses > 0 {
                roi.miss_compute_ns += task.virtual_compute_ns;
                roi.miss_input_bytes += task.input_bytes;
            }
        }
    }
    if let Some(per_miss) = roi.miss_compute_ns.checked_div(roi.misses) {
        roi.est_ns_per_miss = per_miss;
        roi.est_saved_ns = roi.hits * per_miss;
        roi.est_saved_bytes = roi.hits * (roi.miss_input_bytes / roi.misses);
    }
    roi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::sample_stream;

    fn trace() -> ExecutionTrace {
        ExecutionTrace::from_events(&sample_stream())
    }

    #[test]
    fn critical_path_follows_stage_chain() {
        let paths = critical_paths(&trace());
        assert_eq!(paths.len(), 2);
        let p0 = &paths[0];
        assert_eq!(
            p0.stages.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec![0, 1],
            "job 0's path is shuffle-map then result"
        );
        assert_eq!(p0.stages[0].kind, Some(StageKind::ShuffleMap));
        assert_eq!(p0.stages[1].kind, Some(StageKind::Result));
        assert_eq!(p0.path_ns, 13_500);
        assert_eq!(p0.virtual_advance_ns, 13_500);
        // Stage 0: makespan 10_000, slowest task 9_000 → slack 1_000.
        assert_eq!(p0.stages[0].critical_task_ns, 9_000);
        assert_eq!(p0.stages[0].critical_partition, 1);
        assert_eq!(p0.stages[0].slack_ns, 1_000);
        assert_eq!(p0.bottleneck().unwrap().stage, 0);
    }

    #[test]
    fn skew_reports_percentiles_and_imbalance() {
        let skews = stage_skew(&trace());
        // Stage 3 (internal) completed no tasks and is skipped.
        assert_eq!(skews.len(), 3);
        let s0 = &skews[0];
        assert_eq!(s0.stage, 0);
        assert_eq!((s0.p50_ns, s0.p99_ns, s0.max_ns), (4_000, 9_000, 9_000));
        assert!((s0.time_skew - 2.25).abs() < 1e-12);
        // Input bytes 100 and 200 → mean 150, max 200.
        assert_eq!((s0.mean_bytes, s0.max_bytes), (150, 200));
        assert!((s0.size_imbalance - 200.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50), 50);
        assert_eq!(nearest_rank(&v, 99), 99);
        assert_eq!(nearest_rank(&[7], 99), 7);
        assert_eq!(nearest_rank(&[], 50), 0);
    }

    #[test]
    fn nearest_rank_degenerate_samples() {
        // One element: every percentile is that element, so p99/p50 skew
        // must come out exactly 1.0 for single-task stages.
        assert_eq!(nearest_rank(&[42], 1), 42);
        assert_eq!(nearest_rank(&[42], 50), 42);
        assert_eq!(nearest_rank(&[42], 100), 42);
        // All-equal samples: any rank picks the shared value.
        let flat = [9u64; 16];
        assert_eq!(nearest_rank(&flat, 50), 9);
        assert_eq!(nearest_rank(&flat, 99), 9);
        assert_eq!(ratio(nearest_rank(&flat, 99), nearest_rank(&flat, 50)), 1.0);
        // Two elements: p50 is the lower, p99 the upper (nearest-rank,
        // not interpolated).
        assert_eq!(nearest_rank(&[10, 90], 50), 10);
        assert_eq!(nearest_rank(&[10, 90], 99), 90);
        // Rank never reads past the end even at pct 100.
        let v: Vec<u64> = (1..=3).collect();
        assert_eq!(nearest_rank(&v, 100), 3);
    }

    #[test]
    fn cache_roi_totals_are_exact_sums() {
        let roi = cache_roi(&trace());
        // Stage 0: 4 misses; stage 1: 6 hits; stage 2: 1 hit + 1 miss.
        assert_eq!((roi.hits, roi.misses), (7, 5));
        assert_eq!(roi.evictions_pressure, 1);
        assert_eq!(roi.hit_rate(), Some(7.0 / 12.0));
        // Miss-carrying tasks: 4_000 + 9_000 + 1_000 compute ns.
        assert_eq!(roi.miss_compute_ns, 14_000);
        assert_eq!(roi.est_ns_per_miss, 2_800);
        assert_eq!(roi.est_saved_ns, 7 * 2_800);
    }

    #[test]
    fn cache_roi_without_misses_estimates_nothing() {
        let mut t = trace();
        for s in &mut t.stages {
            for task in &mut s.tasks {
                task.cache_misses = 0;
            }
        }
        let roi = cache_roi(&t);
        assert_eq!(roi.misses, 0);
        assert_eq!(roi.est_saved_ns, 0);
        assert_eq!(roi.hit_rate(), Some(1.0));
    }
}
