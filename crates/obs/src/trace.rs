//! The trace model: an event stream reassembled into jobs → stages → tasks.
//!
//! [`ExecutionTrace`] is the analyzer's in-memory form of one engine run,
//! built either from a parsed JSONL event log ([`ExecutionTrace::parse`])
//! or directly from a captured event stream
//! ([`ExecutionTrace::from_events`], e.g. a
//! `sparkscore_rdd::MemoryEventListener` snapshot). Analyses over the
//! trace live in [`crate::analyze`]; rendering in [`crate::report`] and
//! [`crate::dot`].

use sparkscore_rdd::events::parse_event_log;
use sparkscore_rdd::{EngineEvent, FaultDetail, StageKind, TaskCounters, TaskMetrics};

/// One sub-task interval (kernel call, shuffle fetch/write, cache
/// recompute) reported by a traced task.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    pub span: u64,
    /// Parent span id (the enclosing task's span).
    pub parent: u64,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl TraceSpan {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Wall-clock attribution of one span label across the whole trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTotal {
    pub label: String,
    pub count: usize,
    pub total_ns: u64,
}

/// One stage of the run with everything its events reported.
#[derive(Debug, Clone, Default)]
pub struct TraceStage {
    pub stage: u64,
    /// Owning job, `None` for engine-internal stages.
    pub job: Option<u64>,
    pub kind: Option<StageKind>,
    /// Task count announced at submission.
    pub num_tasks: usize,
    /// Virtual makespan of the stage's task batch.
    pub makespan_ns: u64,
    /// Tasks whose input came from a local replica.
    pub local_reads: usize,
    /// Completed tasks, in the order the engine reported them.
    pub tasks: Vec<TaskMetrics>,
    /// The stage's span id (0 on an untraced engine).
    pub span: u64,
    /// Parent (job) span id.
    pub parent_span: u64,
    /// Whether a `StageCompleted` was seen — `false` marks a stage still
    /// running when a partial (flight-recorder) trace was captured.
    pub completed: bool,
}

impl TraceStage {
    /// The slowest task by virtual runtime, if any completed.
    pub fn critical_task(&self) -> Option<&TaskMetrics> {
        self.tasks.iter().max_by_key(|t| {
            // Deterministic tie-break on partition index.
            (t.virtual_runtime_ns(), std::cmp::Reverse(t.partition))
        })
    }

    pub fn shuffle_read_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.shuffle_read_bytes).sum()
    }

    pub fn shuffle_write_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.shuffle_write_bytes).sum()
    }

    pub fn input_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.input_bytes).sum()
    }

    pub fn cache_hits(&self) -> u64 {
        self.tasks.iter().map(|t| t.cache_hits).sum()
    }

    pub fn cache_misses(&self) -> u64 {
        self.tasks.iter().map(|t| t.cache_misses).sum()
    }

    /// The stage total of one named task counter (0 if never reported).
    pub fn counter(&self, name: &str) -> u64 {
        self.tasks.iter().map(|t| t.counters.get(name)).sum()
    }
}

/// One job: its virtual interval and the stages it submitted, in order.
///
/// The engine runs a job's stages sequentially on the driver (each
/// shuffle-map stage in dependency order, then the result stage), so this
/// stage list *is* the job's dependency chain.
#[derive(Debug, Clone, Default)]
pub struct TraceJob {
    pub job: u64,
    /// Virtual clock at submission.
    pub virtual_start_ns: u64,
    /// Virtual clock at completion (`None` for a truncated log).
    pub virtual_end_ns: Option<u64>,
    /// Virtual time the job added to the clock.
    pub virtual_advance_ns: u64,
    /// Stage ids in submission (= dependency) order.
    pub stages: Vec<u64>,
    /// The job's root span id (0 on an untraced engine).
    pub span: u64,
    /// Monotonic engine clock at start / end (end `None` while running).
    pub mono_start_ns: u64,
    pub mono_end_ns: Option<u64>,
}

/// One per-stage memory sample (a `MemoryWatermark` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemWatermark {
    pub stage: u64,
    pub block_cache_bytes: u64,
    pub shuffle_store_bytes: u64,
    pub dfs_blocks_bytes: u64,
    pub scratch_bytes: u64,
    pub cache_budget_bytes: u64,
    pub mono_ns: u64,
}

impl MemWatermark {
    /// Total bytes resident across all ledger categories at this sample.
    pub fn total_bytes(&self) -> u64 {
        self.block_cache_bytes
            + self.shuffle_store_bytes
            + self.dfs_blocks_bytes
            + self.scratch_bytes
    }

    /// Cache budget minus cache residency (how much room was left).
    pub fn cache_headroom_bytes(&self) -> u64 {
        self.cache_budget_bytes
            .saturating_sub(self.block_cache_bytes)
    }
}

/// A full engine run reassembled from its event stream.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Jobs in submission order.
    pub jobs: Vec<TraceJob>,
    /// Stages in submission order (including engine-internal ones).
    pub stages: Vec<TraceStage>,
    /// Cache evictions under LRU pressure.
    pub evictions_pressure: u64,
    /// Cache evictions from faults/unpersist.
    pub evictions_other: u64,
    /// Blocks admitted to / rejected by the cache, with exact bytes.
    pub cache_admissions: u64,
    pub cache_admitted_bytes: u64,
    pub cache_rejections: u64,
    pub cache_rejected_bytes: u64,
    /// Bytes that left the cache (pressure, faults, and unpersist).
    pub cache_evicted_bytes: u64,
    /// Bytes written into the shuffle store by map tasks.
    pub shuffle_stored_bytes: u64,
    /// Per-stage memory samples, in event order.
    pub memory_watermarks: Vec<MemWatermark>,
    /// Lost shuffle map outputs recomputed inline from lineage.
    pub shuffle_map_reruns: u64,
    /// Faults the injector actually applied.
    pub faults: Vec<FaultDetail>,
    /// Sub-task spans in event order.
    pub spans: Vec<TraceSpan>,
}

impl ExecutionTrace {
    /// Reassemble a trace from a typed event stream.
    pub fn from_events(events: &[EngineEvent]) -> Self {
        let mut trace = ExecutionTrace::default();
        for event in events {
            trace.apply(event);
        }
        trace
    }

    /// Parse a JSONL event log (as written by
    /// `sparkscore_rdd::EventLogListener`) into a trace.
    pub fn parse(text: &str) -> Result<Self, serde_json::Error> {
        Ok(Self::from_events(&parse_event_log(text)?))
    }

    fn job_mut(&mut self, job: u64) -> &mut TraceJob {
        if let Some(i) = self.jobs.iter().position(|j| j.job == job) {
            return &mut self.jobs[i];
        }
        self.jobs.push(TraceJob {
            job,
            ..TraceJob::default()
        });
        self.jobs.last_mut().expect("just pushed")
    }

    fn stage_mut(&mut self, stage: u64) -> &mut TraceStage {
        if let Some(i) = self.stages.iter().position(|s| s.stage == stage) {
            return &mut self.stages[i];
        }
        self.stages.push(TraceStage {
            stage,
            ..TraceStage::default()
        });
        self.stages.last_mut().expect("just pushed")
    }

    fn apply(&mut self, event: &EngineEvent) {
        match event {
            EngineEvent::JobStart {
                job,
                virtual_now_ns,
                span,
                mono_ns,
            } => {
                let j = self.job_mut(*job);
                j.virtual_start_ns = *virtual_now_ns;
                j.span = span.span;
                j.mono_start_ns = *mono_ns;
            }
            EngineEvent::JobEnd {
                job,
                virtual_now_ns,
                virtual_advance_ns,
                span,
                mono_ns,
            } => {
                let j = self.job_mut(*job);
                j.virtual_end_ns = Some(*virtual_now_ns);
                j.virtual_advance_ns = *virtual_advance_ns;
                if j.span == 0 {
                    j.span = span.span;
                }
                j.mono_end_ns = Some(*mono_ns);
            }
            EngineEvent::StageSubmitted {
                job,
                stage,
                kind,
                num_tasks,
                span,
                ..
            } => {
                {
                    let s = self.stage_mut(*stage);
                    s.job = *job;
                    s.kind = Some(*kind);
                    s.num_tasks = *num_tasks;
                    s.span = span.span;
                    s.parent_span = span.parent;
                }
                if let Some(job) = job {
                    let j = self.job_mut(*job);
                    if !j.stages.contains(stage) {
                        j.stages.push(*stage);
                    }
                }
            }
            EngineEvent::StageCompleted {
                stage,
                makespan_ns,
                local_reads,
                ..
            } => {
                let s = self.stage_mut(*stage);
                s.makespan_ns = *makespan_ns;
                s.local_reads = *local_reads;
                s.completed = true;
            }
            EngineEvent::TaskEnd { stage, metrics } => {
                self.stage_mut(*stage).tasks.push(metrics.clone());
            }
            EngineEvent::Span {
                span,
                label,
                start_ns,
                end_ns,
            } => self.spans.push(TraceSpan {
                span: span.span,
                parent: span.parent,
                label: label.clone(),
                start_ns: *start_ns,
                end_ns: *end_ns,
            }),
            EngineEvent::CacheEvicted {
                pressure, bytes, ..
            } => {
                if *pressure {
                    self.evictions_pressure += 1;
                } else {
                    self.evictions_other += 1;
                }
                self.cache_evicted_bytes += bytes;
            }
            EngineEvent::CacheAdmitted { bytes, .. } => {
                self.cache_admissions += 1;
                self.cache_admitted_bytes += bytes;
            }
            EngineEvent::CacheRejected { bytes, .. } => {
                self.cache_rejections += 1;
                self.cache_rejected_bytes += bytes;
            }
            EngineEvent::ShuffleBytesStored { bytes, .. } => {
                self.shuffle_stored_bytes += bytes;
            }
            EngineEvent::MemoryWatermark {
                stage,
                block_cache_bytes,
                shuffle_store_bytes,
                dfs_blocks_bytes,
                scratch_bytes,
                cache_budget_bytes,
                mono_ns,
            } => self.memory_watermarks.push(MemWatermark {
                stage: *stage,
                block_cache_bytes: *block_cache_bytes,
                shuffle_store_bytes: *shuffle_store_bytes,
                dfs_blocks_bytes: *dfs_blocks_bytes,
                scratch_bytes: *scratch_bytes,
                cache_budget_bytes: *cache_budget_bytes,
                mono_ns: *mono_ns,
            }),
            EngineEvent::ShuffleMapRerun { .. } => self.shuffle_map_reruns += 1,
            EngineEvent::FaultInjected { fault } => self.faults.push(*fault),
        }
    }

    pub fn stage(&self, stage: u64) -> Option<&TraceStage> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// A job's stages in submission (= dependency) order.
    pub fn job_stages(&self, job: u64) -> Vec<&TraceStage> {
        self.jobs
            .iter()
            .find(|j| j.job == job)
            .map(|j| j.stages.iter().filter_map(|&s| self.stage(s)).collect())
            .unwrap_or_default()
    }

    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).sum()
    }

    /// Total virtual time across all completed jobs.
    pub fn total_virtual_ns(&self) -> u64 {
        self.jobs.iter().map(|j| j.virtual_advance_ns).sum()
    }

    pub fn total_shuffle_read_bytes(&self) -> u64 {
        self.stages.iter().map(TraceStage::shuffle_read_bytes).sum()
    }

    pub fn total_shuffle_write_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(TraceStage::shuffle_write_bytes)
            .sum()
    }

    pub fn total_input_bytes(&self) -> u64 {
        self.stages.iter().map(TraceStage::input_bytes).sum()
    }

    /// The run total of one named task counter (0 if never reported).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.stages.iter().map(|s| s.counter(name)).sum()
    }

    /// Every task counter the trace carries, summed over the run, in name
    /// order. The analyzer does not know what any name means.
    pub fn counter_totals(&self) -> TaskCounters {
        let mut totals = TaskCounters::default();
        for t in self.stages.iter().flat_map(|s| &s.tasks) {
            totals.merge(&t.counters);
        }
        totals
    }

    /// Host wall time of tasks that reported any counter vs all tasks —
    /// the kernel-vs-engine attribution `trace report` prints.
    pub fn kernel_wall_split_ns(&self) -> (u64, u64) {
        let mut kernel = 0;
        let mut total = 0;
        for t in self.stages.iter().flat_map(|s| &s.tasks) {
            total += t.wall_ns;
            if !t.counters.is_empty() {
                kernel += t.wall_ns;
            }
        }
        (kernel, total)
    }

    /// Aggregate sub-task spans by label: count and total wall time,
    /// largest total first (label tie-break) — deterministic.
    pub fn span_totals(&self) -> Vec<SpanTotal> {
        let mut by_label: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
        for s in &self.spans {
            let e = by_label.entry(&s.label).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
        }
        let mut totals: Vec<SpanTotal> = by_label
            .into_iter()
            .map(|(label, (count, total_ns))| SpanTotal {
                label: label.to_string(),
                count,
                total_ns,
            })
            .collect();
        totals.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then_with(|| a.label.cmp(&b.label))
        });
        totals
    }

    /// Jobs with no `JobEnd` yet — still running when the trace was
    /// captured (e.g. a flight-recorder dump).
    pub fn open_jobs(&self) -> Vec<u64> {
        self.jobs
            .iter()
            .filter(|j| j.virtual_end_ns.is_none())
            .map(|j| j.job)
            .collect()
    }

    /// Whether this trace was captured mid-run: a job is open or a
    /// submitted stage has not completed.
    pub fn is_partial(&self) -> bool {
        !self.open_jobs().is_empty() || self.stages.iter().any(|s| !s.completed)
    }
}

/// A two-job stream used by this crate's tests: job 0 has a shuffle-map
/// stage feeding a result stage; job 1 is a single result stage. One
/// internal stage rides along, plus an eviction, a re-run, and a fault.
#[cfg(test)]
pub(crate) fn sample_stream() -> Vec<EngineEvent> {
    tests::sample_stream_impl()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_rdd::events::SpanContext;

    pub(super) fn sample_stream_impl() -> Vec<EngineEvent> {
        fn task(partition: usize, runtime: u64, hits: u64, misses: u64) -> TaskMetrics {
            TaskMetrics {
                partition,
                wall_ns: runtime / 2,
                virtual_compute_ns: runtime,
                virtual_start_ns: 0,
                virtual_finish_ns: runtime,
                input_bytes: 100 * (partition as u64 + 1),
                shuffle_write_bytes: 10,
                cache_hits: hits,
                cache_misses: misses,
                ..TaskMetrics::default()
            }
        }
        vec![
            EngineEvent::JobStart {
                job: 0,
                virtual_now_ns: 0,
                span: SpanContext::root(1),
                mono_ns: 100,
            },
            EngineEvent::StageSubmitted {
                job: Some(0),
                stage: 0,
                kind: StageKind::ShuffleMap,
                num_tasks: 2,
                span: SpanContext { span: 2, parent: 1 },
                mono_ns: 150,
            },
            EngineEvent::TaskEnd {
                stage: 0,
                metrics: TaskMetrics {
                    counters: [("cells", 1_200), ("fast_cells", 1_200), ("skipped", 16)]
                        .into_iter()
                        .collect(),
                    ..task(0, 4_000, 0, 2)
                },
            },
            EngineEvent::TaskEnd {
                stage: 0,
                metrics: TaskMetrics {
                    counters: [("cells", 800), ("skipped", 4)].into_iter().collect(),
                    ..task(1, 9_000, 0, 2)
                },
            },
            EngineEvent::Span {
                span: SpanContext {
                    span: 10,
                    parent: 2,
                },
                label: "kernel:contributions".to_string(),
                start_ns: 200,
                end_ns: 1_400,
            },
            EngineEvent::Span {
                span: SpanContext {
                    span: 11,
                    parent: 2,
                },
                label: "shuffle:write".to_string(),
                start_ns: 1_400,
                end_ns: 1_700,
            },
            EngineEvent::StageCompleted {
                job: Some(0),
                stage: 0,
                kind: StageKind::ShuffleMap,
                makespan_ns: 10_000,
                local_reads: 2,
                span: SpanContext { span: 2, parent: 1 },
                mono_ns: 2_000,
            },
            EngineEvent::StageSubmitted {
                job: Some(0),
                stage: 1,
                kind: StageKind::Result,
                num_tasks: 2,
                span: SpanContext { span: 3, parent: 1 },
                mono_ns: 2_050,
            },
            EngineEvent::TaskEnd {
                stage: 1,
                metrics: task(0, 3_000, 3, 0),
            },
            EngineEvent::TaskEnd {
                stage: 1,
                metrics: task(1, 2_000, 3, 0),
            },
            EngineEvent::Span {
                span: SpanContext {
                    span: 12,
                    parent: 3,
                },
                label: "shuffle:fetch".to_string(),
                start_ns: 2_100,
                end_ns: 2_500,
            },
            EngineEvent::StageCompleted {
                job: Some(0),
                stage: 1,
                kind: StageKind::Result,
                makespan_ns: 3_500,
                local_reads: 0,
                span: SpanContext { span: 3, parent: 1 },
                mono_ns: 3_000,
            },
            EngineEvent::JobEnd {
                job: 0,
                virtual_now_ns: 13_500,
                virtual_advance_ns: 13_500,
                span: SpanContext::root(1),
                mono_ns: 3_100,
            },
            EngineEvent::CacheEvicted {
                op: 4,
                partition: 0,
                pressure: true,
                bytes: 512,
            },
            EngineEvent::ShuffleMapRerun {
                shuffle: 0,
                map_part: 1,
            },
            EngineEvent::FaultInjected {
                fault: FaultDetail::KillNode { node: 1 },
            },
            EngineEvent::JobStart {
                job: 1,
                virtual_now_ns: 13_500,
                span: SpanContext::root(4),
                mono_ns: 3_200,
            },
            EngineEvent::StageSubmitted {
                job: Some(1),
                stage: 2,
                kind: StageKind::Result,
                num_tasks: 1,
                span: SpanContext { span: 5, parent: 4 },
                mono_ns: 3_250,
            },
            EngineEvent::TaskEnd {
                stage: 2,
                metrics: task(0, 1_000, 1, 1),
            },
            EngineEvent::StageCompleted {
                job: Some(1),
                stage: 2,
                kind: StageKind::Result,
                makespan_ns: 1_000,
                local_reads: 1,
                span: SpanContext { span: 5, parent: 4 },
                mono_ns: 4_000,
            },
            EngineEvent::JobEnd {
                job: 1,
                virtual_now_ns: 14_500,
                virtual_advance_ns: 1_000,
                span: SpanContext::root(4),
                mono_ns: 4_100,
            },
            EngineEvent::StageSubmitted {
                job: None,
                stage: 3,
                kind: StageKind::Result,
                num_tasks: 1,
                span: SpanContext::NONE,
                mono_ns: 0,
            },
            EngineEvent::StageCompleted {
                job: None,
                stage: 3,
                kind: StageKind::Result,
                makespan_ns: 7,
                local_reads: 0,
                span: SpanContext::NONE,
                mono_ns: 0,
            },
            // Memory-plane tail: admissions, a rejection, shuffle store
            // bytes, and two per-stage watermark samples.
            EngineEvent::CacheAdmitted {
                op: 4,
                partition: 0,
                bytes: 2_048,
            },
            EngineEvent::CacheRejected {
                op: 9,
                partition: 1,
                bytes: 1 << 30,
            },
            EngineEvent::ShuffleBytesStored {
                shuffle: 0,
                map_part: 1,
                bytes: 20,
            },
            EngineEvent::MemoryWatermark {
                stage: 0,
                block_cache_bytes: 2_048,
                shuffle_store_bytes: 20,
                dfs_blocks_bytes: 4_096,
                scratch_bytes: 0,
                cache_budget_bytes: 1 << 20,
                mono_ns: 1_900,
            },
            EngineEvent::MemoryWatermark {
                stage: 1,
                block_cache_bytes: 1_536,
                shuffle_store_bytes: 20,
                dfs_blocks_bytes: 4_096,
                scratch_bytes: 256,
                cache_budget_bytes: 1 << 20,
                mono_ns: 2_900,
            },
        ]
    }

    #[test]
    fn trace_reassembles_jobs_stages_tasks() {
        let trace = ExecutionTrace::from_events(&sample_stream());
        assert_eq!(trace.jobs.len(), 2);
        assert_eq!(trace.stages.len(), 4);
        assert_eq!(trace.total_tasks(), 5);
        assert_eq!(trace.jobs[0].stages, vec![0, 1]);
        assert_eq!(trace.jobs[0].virtual_advance_ns, 13_500);
        assert_eq!(trace.jobs[1].virtual_end_ns, Some(14_500));
        assert_eq!(trace.total_virtual_ns(), 14_500);
        assert_eq!(trace.evictions_pressure, 1);
        assert_eq!(trace.shuffle_map_reruns, 1);
        assert_eq!(trace.faults.len(), 1);

        // Memory-plane aggregates.
        assert_eq!(trace.cache_admissions, 1);
        assert_eq!(trace.cache_admitted_bytes, 2_048);
        assert_eq!(trace.cache_rejections, 1);
        assert_eq!(trace.cache_rejected_bytes, 1 << 30);
        assert_eq!(trace.cache_evicted_bytes, 512);
        assert_eq!(trace.shuffle_stored_bytes, 20);
        assert_eq!(trace.memory_watermarks.len(), 2);
        assert_eq!(trace.memory_watermarks[0].total_bytes(), 6_164);
        assert_eq!(
            trace.memory_watermarks[1].cache_headroom_bytes(),
            (1 << 20) - 1_536
        );

        let s0 = trace.stage(0).unwrap();
        assert_eq!(s0.kind, Some(StageKind::ShuffleMap));
        assert_eq!(s0.critical_task().unwrap().partition, 1);
        let total_task_ns: u64 = s0.tasks.iter().map(TaskMetrics::virtual_runtime_ns).sum();
        assert_eq!(total_task_ns, 13_000);
        assert_eq!(s0.cache_misses(), 4);
        assert_eq!(s0.counter("cells"), 2_000);
        assert_eq!(s0.counter("fast_cells"), 1_200);
        assert_eq!(s0.counter("skipped"), 20);
        assert_eq!(trace.stage(1).unwrap().counter("cells"), 0);
        assert_eq!(trace.counter_total("cells"), 2_000);
        assert_eq!(trace.counter_total("never_reported"), 0);
        assert_eq!(
            trace.counter_totals().iter().collect::<Vec<_>>(),
            [("cells", 2_000), ("fast_cells", 1_200), ("skipped", 20)]
        );
        // Only stage 0's tasks reported counters: 2000 + 4500 wall ns.
        assert_eq!(trace.kernel_wall_split_ns().0, 6_500);
        // The internal stage belongs to no job.
        assert_eq!(trace.stage(3).unwrap().job, None);
        assert_eq!(trace.job_stages(0).len(), 2);

        // Span linkage: job root → stage → sub-task spans.
        assert_eq!(trace.jobs[0].span, 1);
        assert_eq!(trace.jobs[0].mono_end_ns, Some(3_100));
        assert_eq!((s0.span, s0.parent_span), (2, 1));
        assert!(s0.completed);
        assert_eq!(trace.spans.len(), 3);
        assert!(!trace.is_partial(), "completed run is not partial");
    }

    #[test]
    fn span_totals_aggregate_by_label() {
        let totals = ExecutionTrace::from_events(&sample_stream()).span_totals();
        assert_eq!(totals.len(), 3);
        // kernel:contributions (1_200 ns) > shuffle:fetch (400) > write (300).
        assert_eq!(totals[0].label, "kernel:contributions");
        assert_eq!(totals[0].total_ns, 1_200);
        assert_eq!(totals[0].count, 1);
        assert_eq!(totals[1].label, "shuffle:fetch");
        assert_eq!(totals[2].label, "shuffle:write");
    }

    #[test]
    fn partial_trace_reports_open_jobs() {
        let mut events = sample_stream();
        events.truncate(11); // cut before stage 1's StageCompleted
        let trace = ExecutionTrace::from_events(&events);
        assert!(trace.is_partial());
        assert_eq!(trace.open_jobs(), vec![0]);
        let s1 = trace.stage(1).unwrap();
        assert!(!s1.completed);
        assert_eq!(s1.tasks.len(), 2, "finished tasks are still analyzable");
    }

    #[test]
    fn trace_round_trips_through_jsonl() {
        let events = sample_stream();
        let text: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let trace = ExecutionTrace::parse(&text).unwrap();
        assert_eq!(trace.total_tasks(), 5);
        assert_eq!(trace.jobs.len(), 2);
        assert!(ExecutionTrace::parse("not json\n").is_err());
    }

    #[test]
    fn truncated_log_leaves_job_open() {
        let mut events = sample_stream();
        events.truncate(12); // cut before job 0's JobEnd
        let trace = ExecutionTrace::from_events(&events);
        assert_eq!(trace.jobs[0].virtual_end_ns, None);
        assert_eq!(trace.jobs[0].virtual_advance_ns, 0);
        assert_eq!(trace.jobs[0].mono_end_ns, None);
    }
}
