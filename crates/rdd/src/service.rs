//! Always-on multi-tenant job service: the front-end that turns the
//! engine from "one binary, one job" into a long-running server.
//!
//! Two layers live here:
//!
//! * [`AdmissionQueue`] — a **pure** admission + scheduling data
//!   structure (no threads, no clocks): bounded global queue,
//!   per-tenant quotas, reject-with-reason admission, and a stride
//!   (weighted-fair) pick that never starves a nonempty tenant and is
//!   FIFO within each tenant. Being pure makes it exhaustively
//!   property-testable in isolation.
//! * [`JobService`] — the threaded wrapper: worker threads pull jobs
//!   from the queue and run them against one shared [`Engine`] (the
//!   persistent executor pool serializes concurrent stage submissions,
//!   so jobs interleave safely at stage granularity). Submission is
//!   asynchronous; callers get a job id back immediately and can
//!   [`JobService::wait`] on it. Panicking or erroring payloads land in
//!   [`JobState::Failed`] without taking the service down.
//!
//! The service is deterministic when driven deterministically: with one
//! worker and a paused submit-batch/resume protocol, the dispatch order
//! is exactly the stride schedule of the submitted jobs, and the
//! engine's virtual clock makes every job's cost reproducible — the
//! property the service-level test harness replays byte-for-byte.
//!
//! Observability: each worker tags its thread with the running job's
//! tenant (see [`crate::recorder::set_thread_tenant`]) so the flight
//! recorder attributes engine jobs to tenants, and an optional
//! [`Registry`] gets `sparkscore_service_*` counters and gauges.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::metrics::{Counter, Gauge, Registry};
use crate::recorder::set_thread_tenant;

/// Pass advance for a weight-1 tenant; a tenant of weight `w` advances
/// `STRIDE_QUANTUM / w` per dispatched job, so higher weights are picked
/// proportionally more often.
pub const STRIDE_QUANTUM: u64 = 1 << 20;

/// Per-tenant quotas and scheduling weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Jobs this tenant may hold in the queue at once.
    pub max_queued: usize,
    /// Jobs this tenant may have running at once.
    pub max_running: usize,
    /// Fair-share weight (clamped to ≥ 1): a weight-3 tenant receives
    /// three dispatches for every one a weight-1 tenant receives, when
    /// both are backlogged.
    pub weight: u64,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            max_queued: 64,
            max_running: 1,
            weight: 1,
        }
    }
}

/// Why a submission was refused. Admission control answers immediately
/// and never silently drops: the caller always learns which bound it hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant was never registered.
    UnknownTenant,
    /// The service-wide queue bound is reached.
    QueueFull { capacity: usize },
    /// The tenant's own queued-job quota is reached.
    TenantQueueFull { limit: usize },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::UnknownTenant => write!(f, "unknown tenant"),
            RejectReason::QueueFull { capacity } => {
                write!(f, "service queue full (capacity {capacity})")
            }
            RejectReason::TenantQueueFull { limit } => {
                write!(f, "tenant queue full (limit {limit})")
            }
            RejectReason::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

/// Lifecycle of one service job. `Completed`, `Failed`, `Cancelled`, and
/// `TimedOut` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Completed,
    Failed,
    Cancelled,
    /// Expired at its wall-clock queue deadline before a worker picked it
    /// (see [`JobService::submit_with_deadline`]). Running jobs are never
    /// killed — a deadline bounds time *to dispatch*, not execution.
    TimedOut,
}

impl JobState {
    fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled | JobState::TimedOut
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
        }
    }
}

/// Monotonic job-flow counters; conservation between them is the
/// accounting invariant the property tests pin down
/// (see [`AdmissionQueue::conserved`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Admitted submissions.
    pub submitted: u64,
    /// Refused submissions (any [`RejectReason`]).
    pub rejected: u64,
    /// Jobs handed to a worker.
    pub dispatched: u64,
    /// Dispatched jobs that finished successfully.
    pub completed: u64,
    /// Dispatched jobs that finished in error (or panicked).
    pub failed: u64,
    /// Queued jobs removed before dispatch.
    pub cancelled: u64,
}

#[derive(Debug)]
struct TenantState {
    config: TenantConfig,
    /// Queued job ids in FIFO order.
    queue: VecDeque<u64>,
    running: usize,
    /// Stride-scheduler virtual pass; the eligible tenant with the
    /// smallest pass is picked next.
    pass: u64,
    stats: QueueStats,
}

/// Pure bounded multi-tenant admission queue with stride (weighted-fair)
/// scheduling. No threads, no interior mutability — drive it with `&mut`
/// and every interleaving is replayable.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    next_job: u64,
    tenants: BTreeMap<String, TenantState>,
    queued_total: usize,
    running_total: usize,
    /// Pass of the most recently picked tenant (pre-advance): the
    /// scheduler's global virtual time. A tenant going from idle to
    /// backlogged fast-forwards here so its accumulated "unused" credit
    /// cannot starve everyone else.
    global_pass: u64,
    stats: QueueStats,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` queued jobs service-wide.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            next_job: 0,
            tenants: BTreeMap::new(),
            queued_total: 0,
            running_total: 0,
            global_pass: 0,
            stats: QueueStats::default(),
        }
    }

    /// Register (or reconfigure) a tenant. Reconfiguring keeps its queue
    /// and counters.
    pub fn register_tenant(&mut self, name: &str, config: TenantConfig) {
        self.tenants
            .entry(name.to_string())
            .and_modify(|t| t.config = config)
            .or_insert_with(|| TenantState {
                config,
                queue: VecDeque::new(),
                running: 0,
                pass: 0,
                stats: QueueStats::default(),
            });
    }

    /// Admit one job for `tenant`, or say exactly why not.
    pub fn submit(&mut self, tenant: &str) -> Result<u64, RejectReason> {
        let capacity = self.capacity;
        let global_pass = self.global_pass;
        let Some(t) = self.tenants.get_mut(tenant) else {
            self.stats.rejected += 1;
            return Err(RejectReason::UnknownTenant);
        };
        if self.queued_total >= capacity {
            t.stats.rejected += 1;
            self.stats.rejected += 1;
            return Err(RejectReason::QueueFull { capacity });
        }
        if t.queue.len() >= t.config.max_queued {
            let limit = t.config.max_queued;
            t.stats.rejected += 1;
            self.stats.rejected += 1;
            return Err(RejectReason::TenantQueueFull { limit });
        }
        // A tenant re-entering after idling joins at the scheduler's
        // current virtual time instead of with banked credit.
        if t.queue.is_empty() && t.running == 0 {
            t.pass = t.pass.max(global_pass);
        }
        let job = self.next_job;
        self.next_job += 1;
        t.queue.push_back(job);
        t.stats.submitted += 1;
        self.stats.submitted += 1;
        self.queued_total += 1;
        Ok(job)
    }

    /// Dispatch the next job: among tenants with queued work and spare
    /// running quota, the one with the smallest pass wins (ties broken by
    /// tenant name, so picking is total-ordered and deterministic); FIFO
    /// within the tenant.
    pub fn pick(&mut self) -> Option<(String, u64)> {
        let name = self
            .tenants
            .iter()
            .filter(|(_, t)| !t.queue.is_empty() && t.running < t.config.max_running)
            .min_by_key(|(name, t)| (t.pass, name.as_str()))?
            .0
            .clone();
        let t = self.tenants.get_mut(&name).expect("picked tenant exists");
        let job = t.queue.pop_front().expect("picked tenant has queued work");
        self.global_pass = t.pass;
        t.pass += STRIDE_QUANTUM / t.config.weight.clamp(1, STRIDE_QUANTUM);
        t.running += 1;
        t.stats.dispatched += 1;
        self.stats.dispatched += 1;
        self.queued_total -= 1;
        self.running_total += 1;
        Some((name, job))
    }

    /// Record the end of a dispatched job for `tenant`.
    pub fn finish(&mut self, tenant: &str, failed: bool) {
        let t = self
            .tenants
            .get_mut(tenant)
            .expect("finish() for an unregistered tenant");
        assert!(t.running > 0, "finish() without a running job");
        t.running -= 1;
        self.running_total -= 1;
        if failed {
            t.stats.failed += 1;
            self.stats.failed += 1;
        } else {
            t.stats.completed += 1;
            self.stats.completed += 1;
        }
    }

    /// Remove a still-queued job. `false` if it is not queued for
    /// `tenant` (already dispatched, cancelled, or never admitted).
    pub fn cancel(&mut self, tenant: &str, job: u64) -> bool {
        let Some(t) = self.tenants.get_mut(tenant) else {
            return false;
        };
        let Some(i) = t.queue.iter().position(|&j| j == job) else {
            return false;
        };
        t.queue.remove(i);
        t.stats.cancelled += 1;
        self.stats.cancelled += 1;
        self.queued_total -= 1;
        true
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    fn running_total(&self) -> usize {
        self.running_total
    }

    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    pub fn tenant_queued(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.queue.len())
    }

    pub fn tenant_running(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.running)
    }

    /// Per-tenant status rows, sorted by tenant name.
    fn tenant_statuses(&self) -> Vec<TenantStatus> {
        self.tenants
            .iter()
            .map(|(name, t)| TenantStatus {
                name: name.clone(),
                weight: t.config.weight.max(1),
                max_queued: t.config.max_queued,
                max_running: t.config.max_running,
                queued: t.queue.len(),
                running: t.running,
                pass: t.pass,
                stats: t.stats,
            })
            .collect()
    }

    /// The accounting invariant: globally and per tenant,
    /// `submitted = queued + dispatched + cancelled` and
    /// `dispatched = running + completed + failed` — no job is ever lost
    /// or double-counted across any interleaving.
    pub fn conserved(&self) -> bool {
        let conserves = |s: &QueueStats, queued: usize, running: usize| {
            s.submitted == queued as u64 + s.dispatched + s.cancelled
                && s.dispatched == running as u64 + s.completed + s.failed
        };
        if !conserves(&self.stats, self.queued_total, self.running_total) {
            return false;
        }
        let mut queued = 0;
        let mut running = 0;
        for t in self.tenants.values() {
            if !conserves(&t.stats, t.queue.len(), t.running) {
                return false;
            }
            queued += t.queue.len();
            running += t.running;
        }
        queued == self.queued_total && running == self.running_total
    }
}

/// One row of the `tenants` status table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStatus {
    pub name: String,
    pub weight: u64,
    pub max_queued: usize,
    pub max_running: usize,
    pub queued: usize,
    pub running: usize,
    /// Stride-scheduler virtual pass (diagnostic).
    pub pass: u64,
    pub stats: QueueStats,
}

/// Service-wide status snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStatus {
    pub capacity: usize,
    pub queued: usize,
    pub running: usize,
    pub paused: bool,
    pub shutting_down: bool,
    pub stats: QueueStats,
}

/// One row of the live job table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    pub id: u64,
    pub tenant: String,
    pub state: JobState,
}

/// How [`JobService::shutdown`] treats still-queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Run everything already admitted, then stop.
    Drain,
    /// Cancel queued jobs; only jobs already running finish.
    Abort,
}

/// Service tunables beyond the per-tenant quotas.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Service-wide queued-job bound.
    pub queue_capacity: usize,
    /// Worker threads pulling from the queue. One worker yields fully
    /// deterministic dispatch *and* execution order.
    pub workers: usize,
    /// Terminal job records retained for status queries before the
    /// oldest are pruned (bounds the memory of an always-on service).
    pub terminal_history: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 256,
            workers: 2,
            terminal_history: 4096,
        }
    }
}

/// A job payload runs against the shared engine and reports success or a
/// failure message; panics are caught and treated as failures.
pub type JobResult = Result<(), String>;
type Payload = Box<dyn FnOnce(&Arc<Engine>) -> JobResult + Send + 'static>;

struct JobRecord {
    tenant: String,
    state: JobState,
    error: Option<String>,
}

struct ServiceMetrics {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    timed_out: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    running_jobs: Arc<Gauge>,
}

impl ServiceMetrics {
    fn new(registry: &Registry, tenants: usize) -> Self {
        registry
            .gauge(
                "sparkscore_service_tenants",
                "Tenants registered with the job service",
            )
            .set(tenants as i64);
        ServiceMetrics {
            submitted: registry.counter(
                "sparkscore_service_submitted_total",
                "Jobs admitted to the service queue",
            ),
            rejected: registry.counter(
                "sparkscore_service_rejected_total",
                "Submissions refused by admission control",
            ),
            completed: registry.counter(
                "sparkscore_service_completed_total",
                "Service jobs finished successfully",
            ),
            failed: registry.counter(
                "sparkscore_service_failed_total",
                "Service jobs finished in error",
            ),
            cancelled: registry.counter(
                "sparkscore_service_cancelled_total",
                "Queued service jobs cancelled before dispatch",
            ),
            timed_out: registry.counter(
                "sparkscore_service_timed_out_total",
                "Queued service jobs expired at their wall-clock deadline",
            ),
            queue_depth: registry.gauge(
                "sparkscore_service_queue_depth",
                "Jobs currently queued service-wide",
            ),
            running_jobs: registry.gauge(
                "sparkscore_service_running_jobs",
                "Service jobs currently running",
            ),
        }
    }

    fn sync(&self, queue: &AdmissionQueue) {
        self.queue_depth.set(queue.queued_total() as i64);
        self.running_jobs.set(queue.running_total() as i64);
    }
}

struct ServiceState {
    queue: AdmissionQueue,
    jobs: BTreeMap<u64, JobRecord>,
    payloads: BTreeMap<u64, Payload>,
    /// Wall-clock dispatch deadlines of still-queued jobs; a worker
    /// expires entries whose instant has passed before its next pick.
    deadlines: BTreeMap<u64, Instant>,
    paused: bool,
    shutdown: Option<ShutdownMode>,
    /// Ids of dispatched jobs in the order they reached a terminal
    /// state — with one worker this is the deterministic replay record.
    completion_order: Vec<u64>,
    terminal_history: usize,
    terminal_count: usize,
}

impl ServiceState {
    /// Move `job` to a terminal state and prune old terminal records past
    /// the history bound.
    fn finish_job(&mut self, job: u64, state: JobState, error: Option<String>) {
        if let Some(rec) = self.jobs.get_mut(&job) {
            rec.state = state;
            rec.error = error;
        }
        self.terminal_count += 1;
        if self.terminal_count > self.terminal_history {
            let victim = self
                .jobs
                .iter()
                .find(|(_, r)| r.state.is_terminal())
                .map(|(&id, _)| id);
            if let Some(id) = victim {
                self.jobs.remove(&id);
                self.terminal_count -= 1;
            }
            if self.completion_order.len() > self.terminal_history {
                let excess = self.completion_order.len() - self.terminal_history;
                self.completion_order.drain(..excess);
            }
        }
    }
}

struct Shared {
    engine: Arc<Engine>,
    state: Mutex<ServiceState>,
    /// Signalled when work may have become pickable (submission, resume,
    /// a completion freeing running quota, shutdown).
    work: Condvar,
    /// Signalled on every terminal transition.
    done: Condvar,
    metrics: Option<ServiceMetrics>,
}

/// Configures and starts a [`JobService`].
pub struct JobServiceBuilder {
    engine: Arc<Engine>,
    config: ServiceConfig,
    tenants: Vec<(String, TenantConfig)>,
    registry: Option<Arc<Registry>>,
    start_paused: bool,
}

impl JobServiceBuilder {
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    pub fn terminal_history(mut self, jobs: usize) -> Self {
        self.config.terminal_history = jobs.max(1);
        self
    }

    /// Register a tenant; submissions for unregistered tenants are
    /// rejected with [`RejectReason::UnknownTenant`].
    pub fn tenant(mut self, name: impl Into<String>, config: TenantConfig) -> Self {
        self.tenants.push((name.into(), config));
        self
    }

    /// Export `sparkscore_service_*` counters and gauges to `registry`.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Start with dispatch paused: submissions queue but nothing runs
    /// until [`JobService::resume`] — the deterministic-batch protocol
    /// the test harness uses.
    pub fn start_paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Spawn the workers and return the running service.
    pub fn build(self) -> Arc<JobService> {
        let mut queue = AdmissionQueue::new(self.config.queue_capacity);
        for (name, cfg) in &self.tenants {
            queue.register_tenant(name, *cfg);
        }
        let metrics = self
            .registry
            .as_ref()
            .map(|r| ServiceMetrics::new(r, self.tenants.len()));
        let shared = Arc::new(Shared {
            engine: self.engine,
            state: Mutex::new(ServiceState {
                queue,
                jobs: BTreeMap::new(),
                payloads: BTreeMap::new(),
                deadlines: BTreeMap::new(),
                paused: self.start_paused,
                shutdown: None,
                completion_order: Vec::new(),
                terminal_history: self.config.terminal_history,
                terminal_count: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            metrics,
        });
        let workers = (0..self.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sparkscore-svc-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Arc::new(JobService {
            shared,
            workers: Mutex::new(Some(workers)),
        })
    }
}

/// The running multi-tenant job service. See the module docs.
pub struct JobService {
    shared: Arc<Shared>,
    workers: Mutex<Option<Vec<JoinHandle<()>>>>,
}

/// Expire still-queued jobs whose wall-clock deadline has passed:
/// admission-queue bookkeeping via `cancel` (conservation holds), a
/// typed [`JobState::TimedOut`] terminal record, and the service metric.
/// Returns whether anything expired (waiters need a `done` signal).
fn expire_deadlines(shared: &Shared, st: &mut ServiceState) -> bool {
    let now = Instant::now();
    let expired: Vec<u64> = st
        .deadlines
        .iter()
        .filter(|(_, &d)| d <= now)
        .map(|(&j, _)| j)
        .collect();
    let mut any = false;
    for job in expired {
        st.deadlines.remove(&job);
        let Some(tenant) = st
            .jobs
            .get(&job)
            .filter(|r| r.state == JobState::Queued)
            .map(|r| r.tenant.clone())
        else {
            continue;
        };
        if st.queue.cancel(&tenant, job) {
            st.payloads.remove(&job);
            st.finish_job(
                job,
                JobState::TimedOut,
                Some("queue deadline exceeded".to_string()),
            );
            if let Some(m) = &shared.metrics {
                m.timed_out.inc();
            }
            any = true;
        }
    }
    if any {
        if let Some(m) = &shared.metrics {
            m.sync(&st.queue);
        }
    }
    any
}

fn worker_loop(shared: &Shared) {
    loop {
        let (tenant, job, payload) = {
            let mut st = shared.state.lock().expect("service lock");
            loop {
                // Deadlines expire on wall time regardless of pause or
                // drain state — a paused service still times jobs out.
                if expire_deadlines(shared, &mut st) {
                    shared.done.notify_all();
                }
                if let Some(mode) = st.shutdown {
                    let done = match mode {
                        ShutdownMode::Abort => true,
                        ShutdownMode::Drain => st.queue.queued_total() == 0,
                    };
                    if done {
                        return;
                    }
                    // Drain with queued work: keep dispatching below.
                }
                if !st.paused {
                    if let Some((tenant, job)) = st.queue.pick() {
                        st.deadlines.remove(&job);
                        let payload = st.payloads.remove(&job).expect("picked job has a payload");
                        if let Some(rec) = st.jobs.get_mut(&job) {
                            rec.state = JobState::Running;
                        }
                        if let Some(m) = &shared.metrics {
                            m.sync(&st.queue);
                        }
                        break (tenant, job, payload);
                    }
                }
                // Sleep until woken — or until the earliest pending
                // deadline, so expiry needs no external nudge.
                match st.deadlines.values().min().copied() {
                    Some(earliest) => {
                        let timeout = earliest.saturating_duration_since(Instant::now());
                        let (guard, _) = shared
                            .work
                            .wait_timeout(st, timeout.max(Duration::from_micros(50)))
                            .expect("service lock");
                        st = guard;
                    }
                    None => st = shared.work.wait(st).expect("service lock"),
                }
            }
        };
        // Tag the thread so every engine event this job emits (the event
        // bus runs listeners on the emitting thread) is attributed to
        // the tenant by the flight recorder.
        set_thread_tenant(Some(&tenant));
        let outcome = catch_unwind(AssertUnwindSafe(|| payload(&shared.engine)));
        set_thread_tenant(None);
        let (failed, error) = match outcome {
            Ok(Ok(())) => (false, None),
            Ok(Err(msg)) => (true, Some(msg)),
            Err(panic) => (true, Some(panic_message(&*panic))),
        };
        let mut st = shared.state.lock().expect("service lock");
        st.queue.finish(&tenant, failed);
        let state = if failed {
            JobState::Failed
        } else {
            JobState::Completed
        };
        st.finish_job(job, state, error);
        st.completion_order.push(job);
        if let Some(m) = &shared.metrics {
            if failed {
                m.failed.inc();
            } else {
                m.completed.inc();
            }
            m.sync(&st.queue);
        }
        drop(st);
        // A completion can free per-tenant running quota, or satisfy a
        // drain: wake both sides.
        shared.work.notify_all();
        shared.done.notify_all();
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic".to_string()
    }
}

impl JobService {
    pub fn builder(engine: Arc<Engine>) -> JobServiceBuilder {
        JobServiceBuilder {
            engine,
            config: ServiceConfig::default(),
            tenants: Vec::new(),
            registry: None,
            start_paused: false,
        }
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Submit one job for `tenant`. Returns the job id immediately — the
    /// payload runs later on a worker thread.
    pub fn submit(
        &self,
        tenant: &str,
        payload: impl FnOnce(&Arc<Engine>) -> JobResult + Send + 'static,
    ) -> Result<u64, RejectReason> {
        self.submit_inner(tenant, None, Box::new(payload))
    }

    /// Submit one job that must be *dispatched* within `deadline` of
    /// submission: if no worker picks it up in time (backlog, pause, or
    /// drain), it expires into the terminal [`JobState::TimedOut`] instead
    /// of running stale. A job already running when the instant passes is
    /// unaffected — deadlines bound queue latency, not execution time.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        deadline: Duration,
        payload: impl FnOnce(&Arc<Engine>) -> JobResult + Send + 'static,
    ) -> Result<u64, RejectReason> {
        self.submit_inner(tenant, Some(deadline), Box::new(payload))
    }

    fn submit_inner(
        &self,
        tenant: &str,
        deadline: Option<Duration>,
        payload: Payload,
    ) -> Result<u64, RejectReason> {
        let deadline = deadline.map(|d| Instant::now() + d);
        let mut st = self.shared.state.lock().expect("service lock");
        if st.shutdown.is_some() {
            if let Some(m) = &self.shared.metrics {
                m.rejected.inc();
            }
            return Err(RejectReason::ShuttingDown);
        }
        let outcome = st.queue.submit(tenant);
        match &outcome {
            Ok(job) => {
                st.jobs.insert(
                    *job,
                    JobRecord {
                        tenant: tenant.to_string(),
                        state: JobState::Queued,
                        error: None,
                    },
                );
                st.payloads.insert(*job, payload);
                if let Some(d) = deadline {
                    st.deadlines.insert(*job, d);
                }
                if let Some(m) = &self.shared.metrics {
                    m.submitted.inc();
                    m.sync(&st.queue);
                }
                drop(st);
                self.shared.work.notify_all();
            }
            Err(_) => {
                if let Some(m) = &self.shared.metrics {
                    m.rejected.inc();
                }
            }
        }
        outcome
    }

    /// Cancel a still-queued job. `false` once it is running or terminal.
    pub fn cancel(&self, job: u64) -> bool {
        let mut st = self.shared.state.lock().expect("service lock");
        let Some(tenant) = st
            .jobs
            .get(&job)
            .filter(|r| r.state == JobState::Queued)
            .map(|r| r.tenant.clone())
        else {
            return false;
        };
        if !st.queue.cancel(&tenant, job) {
            return false;
        }
        st.payloads.remove(&job);
        st.deadlines.remove(&job);
        st.finish_job(job, JobState::Cancelled, None);
        if let Some(m) = &self.shared.metrics {
            m.cancelled.inc();
            m.sync(&st.queue);
        }
        drop(st);
        self.shared.done.notify_all();
        true
    }

    /// Resume dispatching.
    pub fn resume(&self) {
        self.shared.state.lock().expect("service lock").paused = false;
        self.shared.work.notify_all();
    }

    /// Block until `job` reaches a terminal state; `None` for an id this
    /// service never admitted (or whose record was pruned).
    pub fn wait(&self, job: u64) -> Option<JobState> {
        let mut st = self.shared.state.lock().expect("service lock");
        loop {
            match st.jobs.get(&job) {
                None => return None,
                Some(rec) if rec.state.is_terminal() => return Some(rec.state),
                Some(_) => st = self.shared.done.wait(st).expect("service lock"),
            }
        }
    }

    /// Block until nothing is queued or running. (With the service
    /// paused this waits only for running jobs.)
    pub fn drain(&self) {
        let mut st = self.shared.state.lock().expect("service lock");
        while st.queue.queued_total() > 0 || st.queue.running_total() > 0 {
            st = self.shared.done.wait(st).expect("service lock");
        }
    }

    /// Stop the service: refuse new submissions, handle queued jobs per
    /// `mode`, and join every worker. Idempotent (later calls keep the
    /// first mode).
    pub fn shutdown(&self, mode: ShutdownMode) {
        {
            let mut st = self.shared.state.lock().expect("service lock");
            if st.shutdown.is_none() {
                st.shutdown = Some(mode);
            }
            st.paused = false;
            if st.shutdown == Some(ShutdownMode::Abort) {
                let queued: Vec<(String, u64)> = st
                    .jobs
                    .iter()
                    .filter(|(_, r)| r.state == JobState::Queued)
                    .map(|(&id, r)| (r.tenant.clone(), id))
                    .collect();
                for (tenant, job) in queued {
                    if st.queue.cancel(&tenant, job) {
                        st.payloads.remove(&job);
                        st.deadlines.remove(&job);
                        st.finish_job(job, JobState::Cancelled, None);
                        if let Some(m) = &self.shared.metrics {
                            m.cancelled.inc();
                        }
                    }
                }
                if let Some(m) = &self.shared.metrics {
                    m.sync(&st.queue);
                }
            }
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        let handles = self.workers.lock().expect("worker handles").take();
        if let Some(handles) = handles {
            for h in handles {
                let _ = h.join();
            }
        }
    }

    /// Current state of one job.
    pub fn job_state(&self, job: u64) -> Option<JobState> {
        self.shared
            .state
            .lock()
            .expect("service lock")
            .jobs
            .get(&job)
            .map(|r| r.state)
    }

    /// The failure message of a [`JobState::Failed`] job.
    pub fn job_error(&self, job: u64) -> Option<String> {
        self.shared
            .state
            .lock()
            .expect("service lock")
            .jobs
            .get(&job)
            .and_then(|r| r.error.clone())
    }

    /// Dispatched job ids in terminal order — the deterministic replay
    /// record under a single worker.
    pub fn completion_order(&self) -> Vec<u64> {
        self.shared
            .state
            .lock()
            .expect("service lock")
            .completion_order
            .clone()
    }

    /// Service-wide status snapshot.
    pub fn queue_status(&self) -> QueueStatus {
        let st = self.shared.state.lock().expect("service lock");
        QueueStatus {
            capacity: st.queue.capacity(),
            queued: st.queue.queued_total(),
            running: st.queue.running_total(),
            paused: st.paused,
            shutting_down: st.shutdown.is_some(),
            stats: st.queue.stats(),
        }
    }

    /// Per-tenant status rows, sorted by tenant name.
    pub fn tenants(&self) -> Vec<TenantStatus> {
        self.shared
            .state
            .lock()
            .expect("service lock")
            .queue
            .tenant_statuses()
    }

    /// Every retained job (queued, running, and recent terminal), by id.
    pub fn jobs(&self) -> Vec<JobInfo> {
        self.shared
            .state
            .lock()
            .expect("service lock")
            .jobs
            .iter()
            .map(|(&id, r)| JobInfo {
                id,
                tenant: r.tenant.clone(),
                state: r.state,
            })
            .collect()
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown(ShutdownMode::Drain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_with(tenants: &[(&str, TenantConfig)], capacity: usize) -> AdmissionQueue {
        let mut q = AdmissionQueue::new(capacity);
        for (name, cfg) in tenants {
            q.register_tenant(name, *cfg);
        }
        q
    }

    #[test]
    fn admission_rejects_with_exact_reason() {
        let cfg = TenantConfig {
            max_queued: 2,
            max_running: 1,
            weight: 1,
        };
        let mut q = queue_with(&[("a", cfg), ("b", cfg)], 3);
        assert_eq!(q.submit("nobody"), Err(RejectReason::UnknownTenant));
        q.submit("a").unwrap();
        q.submit("a").unwrap();
        assert_eq!(
            q.submit("a"),
            Err(RejectReason::TenantQueueFull { limit: 2 })
        );
        q.submit("b").unwrap();
        assert_eq!(q.submit("b"), Err(RejectReason::QueueFull { capacity: 3 }));
        assert_eq!(q.stats().rejected, 3);
        assert_eq!(q.stats().submitted, 3);
        assert!(q.conserved());
    }

    #[test]
    fn pick_is_fifo_within_tenant_and_respects_running_quota() {
        let cfg = TenantConfig {
            max_queued: 8,
            max_running: 1,
            weight: 1,
        };
        let mut q = queue_with(&[("a", cfg)], 16);
        let j0 = q.submit("a").unwrap();
        let j1 = q.submit("a").unwrap();
        assert_eq!(q.pick(), Some(("a".to_string(), j0)));
        assert_eq!(q.pick(), None, "max_running=1 blocks the second pick");
        q.finish("a", false);
        assert_eq!(q.pick(), Some(("a".to_string(), j1)));
        q.finish("a", true);
        assert_eq!(q.stats().completed, 1);
        assert_eq!(q.stats().failed, 1);
        assert!(q.conserved());
    }

    #[test]
    fn stride_pick_is_weight_proportional() {
        let mk = |w| TenantConfig {
            max_queued: 64,
            max_running: 64,
            weight: w,
        };
        let mut q = queue_with(&[("heavy", mk(3)), ("light", mk(1))], 128);
        for _ in 0..40 {
            q.submit("heavy").unwrap();
            q.submit("light").unwrap();
        }
        let mut heavy = 0;
        let mut light = 0;
        for _ in 0..40 {
            let (name, _) = q.pick().unwrap();
            match name.as_str() {
                "heavy" => heavy += 1,
                _ => light += 1,
            }
        }
        // 3:1 weights → 30/10 over any long window (±1 for phase).
        assert!(
            (29..=31).contains(&heavy),
            "heavy got {heavy} of 40 picks, want ~30"
        );
        assert!(light >= 9, "light starved: {light} of 40 picks");
        assert!(q.conserved());
    }

    #[test]
    fn idle_tenant_joins_at_current_pass_without_banked_credit() {
        let cfg = TenantConfig {
            max_queued: 64,
            max_running: 64,
            weight: 1,
        };
        let mut q = queue_with(&[("busy", cfg), ("idle", cfg)], 256);
        for _ in 0..50 {
            q.submit("busy").unwrap();
        }
        for _ in 0..20 {
            q.pick().unwrap();
        }
        // "idle" arrives late; it must not now win 20 picks in a row.
        for _ in 0..10 {
            q.submit("idle").unwrap();
        }
        let mut consecutive_idle = 0;
        let mut max_consecutive = 0;
        for _ in 0..20 {
            let (name, _) = q.pick().unwrap();
            if name == "idle" {
                consecutive_idle += 1;
                max_consecutive = max_consecutive.max(consecutive_idle);
            } else {
                consecutive_idle = 0;
            }
        }
        assert!(
            max_consecutive <= 2,
            "late joiner monopolized the queue: {max_consecutive} consecutive picks"
        );
    }

    #[test]
    fn cancel_removes_only_queued_jobs() {
        let cfg = TenantConfig::default();
        let mut q = queue_with(&[("a", cfg)], 16);
        let j0 = q.submit("a").unwrap();
        let j1 = q.submit("a").unwrap();
        assert!(q.cancel("a", j1));
        assert!(!q.cancel("a", j1), "already cancelled");
        let (_, picked) = q.pick().unwrap();
        assert_eq!(picked, j0);
        assert!(!q.cancel("a", j0), "running jobs cannot be cancelled");
        q.finish("a", false);
        assert_eq!(q.stats().cancelled, 1);
        assert!(q.conserved());
    }
}
