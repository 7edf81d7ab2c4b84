//! Layer times from the engine's event stream.
//!
//! The traced pass attaches a `MemoryEventListener` and hands the captured
//! events here. Only timing fields are read — `JobStart`/`JobEnd` and
//! `StageSubmitted`/`StageCompleted` `mono_ns`, `TaskEnd.metrics.wall_ns`,
//! and `Span { label, start_ns, end_ns }` — never the domain counters, so
//! the breakdown survives a restructuring of those.
//!
//! The layers nest: client time ⊇ jobs ⊇ stages ⊇ tasks ⊇ labelled spans.
//! A layer's *self* time is its own duration minus the part its children
//! cover, so the self times of one level sum back to the level above:
//!
//! ```text
//! client = outside_jobs + job          (outside: tile draw, scatter, queueing)
//! job    = driver_self + stage         (driver: planning, launch, hand-off)
//! task   = Σ labelled self + task_other
//! ```

use std::collections::{BTreeMap, HashMap};

use sparkscore_rdd::EngineEvent;

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers {
    pub jobs: u64,
    /// Σ over jobs of `JobEnd − JobStart`.
    pub job_wall_ns: u64,
    /// Σ over stages of `StageCompleted − StageSubmitted`.
    pub stage_wall_ns: u64,
    /// Time during which at least one stage was open. Equals
    /// `stage_wall_ns` under one driver; smaller when two drivers overlap.
    pub stage_union_ns: u64,
    /// Measured host time of every task.
    pub task_wall_ns: Vec<u64>,
    /// Self time per span label, summed over tasks.
    pub label_self_ns: BTreeMap<String, u64>,
}

impl Layers {
    /// Reassemble the layers from a complete event stream (every job and
    /// stage that starts also ends: the caller attaches and detaches the
    /// listener between operations).
    pub fn from_events(events: &[EngineEvent]) -> Layers {
        let mut layers = Layers::default();
        let mut job_start: HashMap<u64, u64> = HashMap::new();
        let mut stage_start: HashMap<u64, u64> = HashMap::new();
        let mut stage_intervals: Vec<(u64, u64)> = Vec::new();
        // Labelled spans grouped by the task span they ran under.
        let mut by_task: HashMap<u64, Vec<(u64, u64, &str)>> = HashMap::new();
        for event in events {
            match event {
                EngineEvent::JobStart { job, mono_ns, .. } => {
                    job_start.insert(*job, *mono_ns);
                }
                EngineEvent::JobEnd { job, mono_ns, .. } => {
                    let start = job_start.remove(job).expect("JobEnd follows its JobStart");
                    layers.jobs += 1;
                    layers.job_wall_ns += mono_ns - start;
                }
                EngineEvent::StageSubmitted { stage, mono_ns, .. } => {
                    stage_start.insert(*stage, *mono_ns);
                }
                EngineEvent::StageCompleted { stage, mono_ns, .. } => {
                    let start = stage_start
                        .remove(stage)
                        .expect("StageCompleted follows its StageSubmitted");
                    layers.stage_wall_ns += mono_ns - start;
                    stage_intervals.push((start, *mono_ns));
                }
                EngineEvent::TaskEnd { metrics, .. } => layers.task_wall_ns.push(metrics.wall_ns),
                EngineEvent::Span {
                    span,
                    label,
                    start_ns,
                    end_ns,
                } => by_task
                    .entry(span.parent)
                    .or_default()
                    .push((*start_ns, *end_ns, label)),
                _ => {}
            }
        }
        assert!(
            job_start.is_empty() && stage_start.is_empty(),
            "event stream ends inside a job or stage"
        );
        layers.stage_union_ns = union_length(&mut stage_intervals);
        for spans in by_task.values_mut() {
            for (label, self_ns) in self_times(spans) {
                *layers.label_self_ns.entry(label.to_string()).or_default() += self_ns;
            }
        }
        layers
    }

    pub fn task_busy_ns(&self) -> u64 {
        self.task_wall_ns.iter().sum()
    }

    /// Self time of `label`; zero when no such span was recorded.
    pub fn label_ns(&self, label: &str) -> u64 {
        self.label_self_ns.get(label).copied().unwrap_or(0)
    }

    /// Task time no labelled span accounts for.
    pub fn task_other_ns(&self) -> u64 {
        self.task_busy_ns()
            .saturating_sub(self.label_self_ns.values().sum())
    }

    /// Job time outside any stage: planning, launch, result hand-off.
    pub fn driver_self_ns(&self) -> u64 {
        self.job_wall_ns.saturating_sub(self.stage_wall_ns)
    }

    /// Client time outside any engine job, given the summed operation
    /// latencies of the traced segment.
    pub fn outside_jobs_ns(&self, client_ns: u64) -> u64 {
        client_ns.saturating_sub(self.job_wall_ns)
    }
}

/// Total length covered by `intervals` (sorted in place).
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut covered_to = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(covered_to);
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total
}

/// Self time of each span of one task: its duration minus its direct
/// children's. Spans of one task run on one thread, so they either nest
/// or are disjoint; sorting by start (outer first on ties) and keeping a
/// stack of open ancestors recovers the tree.
fn self_times<'a>(spans: &mut [(u64, u64, &'a str)]) -> Vec<(&'a str, u64)> {
    spans.sort_unstable_by_key(|&(start, end, _)| (start, std::cmp::Reverse(end)));
    let mut out: Vec<(&str, u64)> = spans
        .iter()
        .map(|&(start, end, label)| (label, end - start))
        .collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, &(start, end, _)) in spans.iter().enumerate() {
        while open.last().is_some_and(|&p| spans[p].1 <= start) {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            out[parent].1 = out[parent].1.saturating_sub(end - start);
        }
        open.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_rdd::{SpanContext, StageKind, TaskMetrics};

    fn job(events: &mut Vec<EngineEvent>, job: u64, start: u64, end: u64) {
        events.push(EngineEvent::JobStart {
            job,
            virtual_now_ns: 0,
            span: SpanContext::root(job + 1),
            mono_ns: start,
        });
        events.push(EngineEvent::JobEnd {
            job,
            virtual_now_ns: 0,
            virtual_advance_ns: 0,
            span: SpanContext::root(job + 1),
            mono_ns: end,
        });
    }

    fn stage(events: &mut Vec<EngineEvent>, stage: u64, start: u64, end: u64) {
        events.push(EngineEvent::StageSubmitted {
            job: Some(0),
            stage,
            kind: StageKind::Result,
            num_tasks: 1,
            span: SpanContext::NONE,
            mono_ns: start,
        });
        events.push(EngineEvent::StageCompleted {
            job: Some(0),
            stage,
            kind: StageKind::Result,
            makespan_ns: 0,
            local_reads: 0,
            span: SpanContext::NONE,
            mono_ns: end,
        });
    }

    fn task(events: &mut Vec<EngineEvent>, span: u64, wall_ns: u64) {
        events.push(EngineEvent::TaskEnd {
            stage: 0,
            metrics: TaskMetrics {
                wall_ns,
                span: SpanContext { span, parent: 0 },
                ..TaskMetrics::default()
            },
        });
    }

    fn span(events: &mut Vec<EngineEvent>, task: u64, label: &str, start: u64, end: u64) {
        events.push(EngineEvent::Span {
            span: SpanContext {
                span: 1000 + events.len() as u64,
                parent: task,
            },
            label: label.to_string(),
            start_ns: start,
            end_ns: end,
        });
    }

    #[test]
    fn layers_sum_back_to_wall_and_the_residual_is_exact() {
        // One operation of 1000 ns: two jobs (100..400, 500..900), three
        // stages, two tasks. Task 10 runs a recompute that contains a
        // kernel call, then a shuffle write; task 11 has no spans.
        let mut events = Vec::new();
        job(&mut events, 0, 100, 400);
        job(&mut events, 1, 500, 900);
        stage(&mut events, 0, 120, 380);
        stage(&mut events, 1, 510, 700);
        stage(&mut events, 2, 700, 880);
        task(&mut events, 10, 250);
        task(&mut events, 11, 90);
        // Inner spans are recorded before the span that contains them.
        span(&mut events, 10, "kernel:contributions", 140, 200);
        span(&mut events, 10, "cache:recompute", 130, 260);
        span(&mut events, 10, "shuffle:write", 270, 330);

        let layers = Layers::from_events(&events);
        assert_eq!(layers.jobs, 2);
        assert_eq!(layers.job_wall_ns, 700);
        assert_eq!(layers.stage_wall_ns, 260 + 190 + 180);
        assert_eq!(layers.stage_union_ns, layers.stage_wall_ns);
        assert_eq!(layers.driver_self_ns(), 70);
        assert_eq!(layers.outside_jobs_ns(1000), 300);
        // The three levels of self time rebuild the wall exactly.
        assert_eq!(
            layers.outside_jobs_ns(1000) + layers.driver_self_ns() + layers.stage_wall_ns,
            1000
        );
        assert_eq!(layers.label_ns("kernel:contributions"), 60);
        assert_eq!(layers.label_ns("cache:recompute"), 130 - 60);
        assert_eq!(layers.label_ns("shuffle:write"), 60);
        assert_eq!(layers.label_ns("kernel:perturb"), 0);
        assert_eq!(layers.task_busy_ns(), 340);
        // 340 busy − (130 recompute incl. kernel + 60 write) = 150.
        assert_eq!(layers.task_other_ns(), 150);
    }

    #[test]
    fn overlapping_stages_of_two_drivers_count_once_in_the_union() {
        let mut events = Vec::new();
        stage(&mut events, 0, 100, 300);
        stage(&mut events, 1, 200, 400);
        stage(&mut events, 2, 500, 600);
        let layers = Layers::from_events(&events);
        assert_eq!(layers.stage_wall_ns, 500);
        assert_eq!(layers.stage_union_ns, 400);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let mut spans = vec![(0, 10, "a"), (10, 20, "b"), (0, 30, "outer"), (12, 15, "c")];
        let mut got = self_times(&mut spans);
        got.sort_unstable();
        assert_eq!(got, vec![("a", 10), ("b", 7), ("c", 3), ("outer", 10)]);
    }
}
