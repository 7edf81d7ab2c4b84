//! Always-on flight recorder: bounded per-job event retention.
//!
//! [`FlightRecorder`] is an [`EventListener`] that keeps the **last N
//! events of each job** in fixed-capacity ring buffers, so a live job can
//! be dumped as a well-formed partial trace at any moment — the per-job
//! trace retention a long-running service needs (post-hoc JSONL logs
//! require the process to exit first). Memory is bounded by
//! `per_job × max_jobs` events: a full ring overwrites its oldest entry
//! in O(1), and when a new job arrives past `max_jobs` the oldest
//! finished job (or the oldest outright) is evicted.
//!
//! The recorder is lock-light in the same sense as the rest of the event
//! plane: one mutex taken once per batch (the engine emits all of a
//! stage's task events in a single batch), constant-time ring pushes, and
//! no allocation after a ring reaches capacity.
//!
//! Retention is **keyed by tenant** for multi-tenant services: a job
//! started by a thread tagged via [`set_thread_tenant`] carries the
//! tenant name in its [`JobStatus`], and when the job bound forces an
//! eviction the victim comes from the tenant holding the most rings —
//! one chatty tenant cannot wipe the other tenants' traces.

use std::cell::RefCell;
use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::events::{EngineEvent, EventListener};

thread_local! {
    /// The tenant owning whatever jobs the current thread starts. Event
    /// listeners run synchronously on the emitting thread, so a service
    /// worker that tags itself before running a job payload attributes
    /// every engine job that payload starts to the right tenant.
    static TENANT_TAG: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Tag (or untag, with `None`) the current thread with a tenant name for
/// flight-recorder job attribution. Jobs started while untagged are
/// recorded without a tenant, exactly as before the service plane.
pub fn set_thread_tenant(tenant: Option<&str>) {
    TENANT_TAG.with(|t| *t.borrow_mut() = tenant.map(str::to_string));
}

/// The current thread's tenant tag, if any.
pub fn current_thread_tenant() -> Option<String> {
    TENANT_TAG.with(|t| t.borrow().clone())
}

/// Default events retained per job.
pub const DEFAULT_EVENTS_PER_JOB: usize = 512;
/// Default number of jobs tracked before the oldest is evicted.
pub const DEFAULT_MAX_JOBS: usize = 8;

/// Fixed-capacity event ring: `push` is O(1) and overwrites the oldest
/// entry once full.
struct Ring {
    buf: Vec<EngineEvent>,
    cap: usize,
    /// Index of the oldest entry (only meaningful once wrapped).
    head: usize,
    /// Total events ever pushed (≥ `buf.len()`; the difference is the
    /// overwritten count).
    seen: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
            seen: 0,
        }
    }

    fn push(&mut self, event: EngineEvent) {
        self.seen += 1;
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Retained events, oldest first.
    fn events(&self) -> Vec<EngineEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn len(&self) -> usize {
        self.buf.len()
    }
}

struct JobRing {
    job: u64,
    /// The thread tenant tag at the moment the job was first seen.
    tenant: Option<String>,
    finished: bool,
    ring: Ring,
}

struct RecorderState {
    /// Tracked jobs in arrival order.
    jobs: Vec<JobRing>,
    /// Stage → owning job, for routing task events.
    stage_job: BTreeMap<u64, u64>,
    /// Engine-global events (faults, evictions, internal stages).
    global: Ring,
    /// Routing hint for `Span` events: the job the current batch's
    /// surrounding events belong to (batches are per-stage, so this is
    /// exact within a batch and a best-effort fallback across them).
    current_job: Option<u64>,
}

/// Live status of one tracked job, for a `jobs` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    pub job: u64,
    /// Owning tenant, when the job was started by a tagged service
    /// worker ([`set_thread_tenant`]); `None` for untagged jobs.
    pub tenant: Option<String>,
    /// `false` while the job is still running.
    pub finished: bool,
    /// Events currently retained in the ring.
    pub retained: usize,
    /// Events ever routed to this job (≥ retained).
    pub seen: u64,
}

/// The flight recorder listener. See the module docs.
pub struct FlightRecorder {
    state: Mutex<RecorderState>,
    per_job: usize,
    max_jobs: usize,
}

impl FlightRecorder {
    /// A recorder with the default bounds
    /// ([`DEFAULT_EVENTS_PER_JOB`] × [`DEFAULT_MAX_JOBS`]).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENTS_PER_JOB, DEFAULT_MAX_JOBS)
    }

    /// A recorder retaining at most `per_job` events for each of at most
    /// `max_jobs` jobs (both clamped to ≥ 1).
    pub fn with_capacity(per_job: usize, max_jobs: usize) -> Self {
        FlightRecorder {
            state: Mutex::new(RecorderState {
                jobs: Vec::with_capacity(max_jobs.max(1)),
                stage_job: BTreeMap::new(),
                global: Ring::new(per_job.max(1)),
                current_job: None,
            }),
            per_job: per_job.max(1),
            max_jobs: max_jobs.max(1),
        }
    }

    /// Status of every tracked job, in arrival order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        self.state
            .lock()
            .jobs
            .iter()
            .map(|j| JobStatus {
                job: j.job,
                tenant: j.tenant.clone(),
                finished: j.finished,
                retained: j.ring.len(),
                seen: j.ring.seen,
            })
            .collect()
    }

    /// The retained events of `job`, oldest first; `None` for an unknown
    /// (or already-evicted) job.
    pub fn job_events(&self, job: u64) -> Option<Vec<EngineEvent>> {
        let st = self.state.lock();
        st.jobs
            .iter()
            .find(|j| j.job == job)
            .map(|j| j.ring.events())
    }

    /// Dump one job's retained events as JSONL — the exact schema
    /// `parse_event_log` and the `trace` CLI consume. `None` for an
    /// unknown job.
    pub fn dump_job(&self, job: u64) -> Option<String> {
        self.job_events(job).map(|events| {
            events
                .iter()
                .map(|e| format!("{}\n", e.to_json()))
                .collect()
        })
    }

    /// Dump everything retained — every tracked job in arrival order,
    /// then the engine-global events — as JSONL.
    pub fn dump_all(&self) -> String {
        let st = self.state.lock();
        let mut out = String::new();
        for j in &st.jobs {
            for e in j.ring.events() {
                out.push_str(&e.to_json().to_string());
                out.push('\n');
            }
        }
        for e in st.global.events() {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Total events currently retained across all rings (the recorder's
    /// memory backlog, exposed as a gauge by the profiler).
    pub fn backlog_events(&self) -> usize {
        let st = self.state.lock();
        st.jobs.iter().map(|j| j.ring.len()).sum::<usize>() + st.global.len()
    }

    fn apply(&self, st: &mut RecorderState, event: &EngineEvent) {
        match event {
            EngineEvent::JobStart { job, .. } => {
                self.ring_for(st, *job).ring.push(event.clone());
                st.current_job = Some(*job);
            }
            EngineEvent::JobEnd { job, .. } => {
                let r = self.ring_for(st, *job);
                r.finished = true;
                r.ring.push(event.clone());
                st.current_job = None;
            }
            EngineEvent::StageSubmitted {
                job: Some(job),
                stage,
                ..
            } => {
                st.stage_job.insert(*stage, *job);
                st.current_job = Some(*job);
                self.ring_for(st, *job).ring.push(event.clone());
            }
            EngineEvent::StageCompleted {
                job: Some(job),
                stage,
                ..
            } => {
                st.stage_job.entry(*stage).or_insert(*job);
                st.current_job = Some(*job);
                self.ring_for(st, *job).ring.push(event.clone());
            }
            EngineEvent::TaskEnd { stage, .. } | EngineEvent::MemoryWatermark { stage, .. } => {
                match st.stage_job.get(stage).copied() {
                    Some(job) => {
                        st.current_job = Some(job);
                        self.ring_for(st, job).ring.push(event.clone());
                    }
                    None => st.global.push(event.clone()),
                }
            }
            EngineEvent::Span { .. } => match st.current_job {
                Some(job) => self.ring_for(st, job).ring.push(event.clone()),
                None => st.global.push(event.clone()),
            },
            // Engine-internal stages and cross-job events.
            _ => st.global.push(event.clone()),
        }
    }

    /// The ring of `job`, creating (and evicting, if at the job bound)
    /// as needed.
    fn ring_for<'a>(&self, st: &'a mut RecorderState, job: u64) -> &'a mut JobRing {
        if let Some(i) = st.jobs.iter().position(|j| j.job == job) {
            return &mut st.jobs[i];
        }
        if st.jobs.len() >= self.max_jobs {
            // Retention is keyed by tenant: among finished jobs, evict
            // from the tenant holding the most rings (oldest of that
            // tenant first), so one chatty tenant's burst cannot wipe the
            // other tenants' traces. Fall back to the oldest finished
            // job, then the oldest outright, so new work is always
            // recordable.
            let mut per_tenant: BTreeMap<Option<&str>, usize> = BTreeMap::new();
            for j in &st.jobs {
                *per_tenant.entry(j.tenant.as_deref()).or_insert(0) += 1;
            }
            let victim = st
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.finished)
                .max_by_key(|(i, j)| (per_tenant[&j.tenant.as_deref()], std::cmp::Reverse(*i)))
                .map_or(0, |(i, _)| i);
            let evicted = st.jobs.remove(victim);
            st.stage_job.retain(|_, &mut j| j != evicted.job);
        }
        st.jobs.push(JobRing {
            job,
            tenant: current_thread_tenant(),
            finished: false,
            ring: Ring::new(self.per_job),
        });
        st.jobs.last_mut().expect("just pushed")
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl EventListener for FlightRecorder {
    fn on_event(&self, event: &EngineEvent) {
        self.apply(&mut self.state.lock(), event);
    }

    fn on_events(&self, events: &[EngineEvent]) {
        let mut st = self.state.lock();
        for event in events {
            self.apply(&mut st, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{parse_event_log, SpanContext, StageKind, TaskMetrics};

    fn job_events(job: u64, stage: u64, tasks: usize) -> Vec<EngineEvent> {
        let span = SpanContext::root(job * 100 + 1);
        let stage_span = span.child(job * 100 + 2);
        let mut out = vec![
            EngineEvent::JobStart {
                job,
                virtual_now_ns: 0,
                span,
                mono_ns: 1,
            },
            EngineEvent::StageSubmitted {
                job: Some(job),
                stage,
                kind: StageKind::Result,
                num_tasks: tasks,
                span: stage_span,
                mono_ns: 2,
            },
        ];
        for p in 0..tasks {
            out.push(EngineEvent::TaskEnd {
                stage,
                metrics: TaskMetrics {
                    partition: p,
                    ..TaskMetrics::default()
                },
            });
        }
        out.push(EngineEvent::StageCompleted {
            job: Some(job),
            stage,
            kind: StageKind::Result,
            makespan_ns: 10,
            local_reads: 0,
            span: stage_span,
            mono_ns: 3,
        });
        out.push(EngineEvent::JobEnd {
            job,
            virtual_now_ns: 10,
            virtual_advance_ns: 10,
            span,
            mono_ns: 4,
        });
        out
    }

    #[test]
    fn routes_events_to_their_job() {
        let rec = FlightRecorder::new();
        rec.on_events(&job_events(0, 0, 2));
        rec.on_events(&job_events(1, 1, 3));
        let jobs = rec.jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].job, 0);
        assert!(jobs[0].finished);
        // start + submit + 2 tasks + completed + end
        assert_eq!(jobs[0].retained, 6);
        assert_eq!(jobs[0].seen, 6);
        assert_eq!(jobs[1].retained, 7);
        assert_eq!(jobs[1].seen, 7);
    }

    #[test]
    fn ring_overwrites_oldest_in_bounded_memory() {
        let rec = FlightRecorder::with_capacity(4, 2);
        rec.on_events(&job_events(0, 0, 100));
        let jobs = rec.jobs();
        assert_eq!(jobs[0].retained, 4, "ring capped");
        assert_eq!(jobs[0].seen, 104);
        let events = rec.job_events(0).unwrap();
        assert_eq!(events.len(), 4);
        // The newest events survive: the last task, completion, end.
        assert!(matches!(events.last(), Some(EngineEvent::JobEnd { .. })));
        assert!(rec.backlog_events() <= 8);
    }

    #[test]
    fn dump_is_a_parseable_partial_trace() {
        let rec = FlightRecorder::with_capacity(6, 4);
        // In-flight job: no JobEnd yet.
        let mut events = job_events(7, 3, 2);
        events.truncate(events.len() - 1);
        rec.on_events(&events);
        let dump = rec.dump_job(7).expect("job tracked");
        let parsed = parse_event_log(&dump).expect("dump parses");
        assert_eq!(parsed.len(), 5);
        assert!(matches!(parsed[0], EngineEvent::JobStart { job: 7, .. }));
        assert!(rec.dump_job(99).is_none());
        // dump_all includes the job too.
        assert!(!rec.dump_all().is_empty());
    }

    #[test]
    fn span_events_follow_the_current_job() {
        let rec = FlightRecorder::new();
        rec.on_events(&[
            EngineEvent::JobStart {
                job: 5,
                virtual_now_ns: 0,
                span: SpanContext::root(1),
                mono_ns: 0,
            },
            EngineEvent::Span {
                span: SpanContext { span: 9, parent: 1 },
                label: "kernel:contributions".to_string(),
                start_ns: 1,
                end_ns: 2,
            },
        ]);
        let events = rec.job_events(5).unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], EngineEvent::Span { .. }));
    }

    #[test]
    fn evicts_finished_jobs_first() {
        let rec = FlightRecorder::with_capacity(16, 2);
        rec.on_events(&job_events(0, 0, 1)); // finished
        let mut open = job_events(1, 1, 1); // leave open
        open.truncate(open.len() - 1);
        rec.on_events(&open);
        rec.on_events(&job_events(2, 2, 1)); // forces eviction of job 0
        let tracked: Vec<u64> = rec.jobs().iter().map(|j| j.job).collect();
        assert_eq!(tracked, vec![1, 2], "finished job 0 evicted");
        assert!(rec.job_events(0).is_none());
    }

    #[test]
    fn jobs_are_attributed_to_the_thread_tenant() {
        let rec = FlightRecorder::new();
        set_thread_tenant(Some("alice"));
        rec.on_events(&job_events(0, 0, 1));
        set_thread_tenant(None);
        rec.on_events(&job_events(1, 1, 1));
        let jobs = rec.jobs();
        assert_eq!(jobs[0].tenant.as_deref(), Some("alice"));
        assert_eq!(jobs[1].tenant, None);
    }

    #[test]
    fn eviction_prefers_the_most_crowded_tenant() {
        let rec = FlightRecorder::with_capacity(16, 3);
        set_thread_tenant(Some("noisy"));
        rec.on_events(&job_events(0, 0, 1));
        rec.on_events(&job_events(1, 1, 1));
        set_thread_tenant(Some("quiet"));
        rec.on_events(&job_events(2, 2, 1));
        // The job bound is reached; the new job must evict noisy's
        // oldest finished ring, not quiet's only one.
        set_thread_tenant(Some("noisy"));
        rec.on_events(&job_events(3, 3, 1));
        set_thread_tenant(None);
        let tracked: Vec<u64> = rec.jobs().iter().map(|j| j.job).collect();
        assert_eq!(
            tracked,
            vec![1, 2, 3],
            "noisy's oldest evicted, quiet's survives"
        );
    }

    #[test]
    fn global_events_never_touch_job_rings() {
        let rec = FlightRecorder::new();
        rec.on_event(&EngineEvent::CacheEvicted {
            op: 1,
            partition: 0,
            pressure: true,
            bytes: 64,
        });
        assert!(rec.jobs().is_empty());
        assert_eq!(rec.backlog_events(), 1);
        let dump = rec.dump_all();
        assert_eq!(parse_event_log(&dump).unwrap().len(), 1);
    }
}
