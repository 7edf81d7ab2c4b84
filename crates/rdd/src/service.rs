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
//! [`Registry`] gets `sparkscore_service_*` counters and gauges, read from
//! the admission queue when the registry renders.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::engine::Engine;
use crate::metrics::Registry;
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

/// Lifecycle of one service job: every admitted job is dispatched, and
/// `Completed` and `Failed` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Completed,
    Failed,
}

impl JobState {
    fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed)
    }

    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
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
    /// and counters. `max_running` is clamped to ≥ 1: a tenant that may run
    /// nothing would hold its admitted jobs, and a drain, forever.
    pub fn register_tenant(&mut self, name: &str, config: TenantConfig) {
        let config = TenantConfig {
            max_running: config.max_running.max(1),
            ..config
        };
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
        let refusal = match self.tenants.get(tenant) {
            None => Some(RejectReason::UnknownTenant),
            Some(_) if self.queued_total >= self.capacity => Some(RejectReason::QueueFull {
                capacity: self.capacity,
            }),
            Some(t) if t.queue.len() >= t.config.max_queued => {
                Some(RejectReason::TenantQueueFull {
                    limit: t.config.max_queued,
                })
            }
            Some(_) => None,
        };
        if let Some(reason) = refusal {
            self.reject(tenant);
            return Err(reason);
        }
        let global_pass = self.global_pass;
        let t = self
            .tenants
            .get_mut(tenant)
            .expect("admitted tenant exists");
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

    /// Count one refused submission: globally, and for `tenant` when it
    /// is registered.
    fn reject(&mut self, tenant: &str) {
        self.stats.rejected += 1;
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.stats.rejected += 1;
        }
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

    fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    fn running_total(&self) -> usize {
        self.running_total
    }

    fn stats(&self) -> QueueStats {
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
    /// `submitted = queued + dispatched` and
    /// `dispatched = running + completed + failed` — no job is ever lost
    /// or double-counted across any interleaving.
    pub fn conserved(&self) -> bool {
        let conserves = |s: &QueueStats, queued: usize, running: usize| {
            s.submitted == queued as u64 + s.dispatched
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

/// Register the service's series in `registry`, each read from the
/// admission queue when the registry renders: its four flow counters and
/// three gauges. They hold a `Weak` handle: the service holds the engine,
/// which may own the registry.
fn register_series(shared: &Arc<Shared>, registry: &Registry) {
    let source = |read: fn(&AdmissionQueue) -> u64| {
        let shared = Arc::downgrade(shared);
        move || {
            shared
                .upgrade()
                .map_or(0, |s| read(&s.state.lock().expect("service lock").queue))
        }
    };
    let counters: [(&str, &str, fn(&AdmissionQueue) -> u64); 4] = [
        (
            "sparkscore_service_submitted_total",
            "Jobs admitted to the service queue",
            |q| q.stats.submitted,
        ),
        (
            "sparkscore_service_rejected_total",
            "Submissions refused by admission control",
            |q| q.stats.rejected,
        ),
        (
            "sparkscore_service_completed_total",
            "Service jobs finished successfully",
            |q| q.stats.completed,
        ),
        (
            "sparkscore_service_failed_total",
            "Service jobs finished in error",
            |q| q.stats.failed,
        ),
    ];
    for (name, help, read) in counters {
        registry.counter_fn(name, help, source(read));
    }
    let gauges: [(&str, &str, fn(&AdmissionQueue) -> u64); 3] = [
        (
            "sparkscore_service_queue_depth",
            "Jobs currently queued service-wide",
            |q| q.queued_total as u64,
        ),
        (
            "sparkscore_service_running_jobs",
            "Service jobs currently running",
            |q| q.running_total as u64,
        ),
        (
            "sparkscore_service_tenants",
            "Tenants registered with the job service",
            |q| q.tenants.len() as u64,
        ),
    ];
    for (name, help, read) in gauges {
        let value = source(read);
        registry.gauge_fn(name, help, move || value() as i64);
    }
}

struct ServiceState {
    queue: AdmissionQueue,
    jobs: BTreeMap<u64, JobRecord>,
    payloads: BTreeMap<u64, Payload>,
    paused: bool,
    /// Set by [`JobService::shutdown`]: refuse submissions, and stop each
    /// worker once nothing is queued.
    shutting_down: bool,
    /// Ids of dispatched jobs in the order they reached a terminal
    /// state — with one worker this is the deterministic replay record.
    /// Every terminal job was dispatched, so this is also the terminal
    /// history: past `terminal_history`, the oldest record is pruned.
    completion_order: VecDeque<u64>,
    terminal_history: usize,
}

impl ServiceState {
    /// Move the dispatched `job` to its terminal state and prune the
    /// oldest terminal record past the history bound.
    fn finish_job(&mut self, job: u64, state: JobState, error: Option<String>) {
        if let Some(rec) = self.jobs.get_mut(&job) {
            rec.state = state;
            rec.error = error;
        }
        self.completion_order.push_back(job);
        if self.completion_order.len() > self.terminal_history {
            if let Some(oldest) = self.completion_order.pop_front() {
                self.jobs.remove(&oldest);
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
        let shared = Arc::new(Shared {
            engine: self.engine,
            state: Mutex::new(ServiceState {
                queue,
                jobs: BTreeMap::new(),
                payloads: BTreeMap::new(),
                paused: self.start_paused,
                shutting_down: false,
                completion_order: VecDeque::new(),
                terminal_history: self.config.terminal_history,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        if let Some(registry) = &self.registry {
            register_series(&shared, registry);
        }
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

fn worker_loop(shared: &Shared) {
    loop {
        let (tenant, job, payload) = {
            let mut st = shared.state.lock().expect("service lock");
            loop {
                // A drain stops once nothing is left to dispatch.
                if st.shutting_down && st.queue.queued_total() == 0 {
                    return;
                }
                if !st.paused {
                    if let Some((tenant, job)) = st.queue.pick() {
                        let payload = st.payloads.remove(&job).expect("picked job has a payload");
                        if let Some(rec) = st.jobs.get_mut(&job) {
                            rec.state = JobState::Running;
                        }
                        break (tenant, job, payload);
                    }
                }
                st = shared.work.wait(st).expect("service lock");
            }
        };
        // Tag the thread so every engine event this job emits (the event
        // bus runs listeners on the emitting thread) is attributed to
        // the tenant by the flight recorder.
        set_thread_tenant(Some(&tenant));
        let outcome = catch_unwind(AssertUnwindSafe(|| payload(&shared.engine)));
        set_thread_tenant(None);
        let (state, error) = match outcome {
            Ok(Ok(())) => (JobState::Completed, None),
            Ok(Err(msg)) => (JobState::Failed, Some(msg)),
            Err(panic) => (JobState::Failed, Some(panic_message(&*panic))),
        };
        let mut st = shared.state.lock().expect("service lock");
        st.queue.finish(&tenant, state == JobState::Failed);
        st.finish_job(job, state, error);
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
        let mut st = self.shared.state.lock().expect("service lock");
        if st.shutting_down {
            st.queue.reject(tenant);
            return Err(RejectReason::ShuttingDown);
        }
        let job = st.queue.submit(tenant)?;
        st.jobs.insert(
            job,
            JobRecord {
                tenant: tenant.to_string(),
                state: JobState::Queued,
                error: None,
            },
        );
        st.payloads.insert(job, Box::new(payload));
        drop(st);
        self.shared.work.notify_all();
        Ok(job)
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

    /// Stop the service: refuse new submissions, run every job already
    /// admitted ([`ShutdownMode::Drain`], the one mode), and join every
    /// worker. Idempotent.
    pub fn shutdown(&self, _mode: ShutdownMode) {
        {
            let mut st = self.shared.state.lock().expect("service lock");
            st.shutting_down = true;
            st.paused = false;
        }
        self.shared.work.notify_all();
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
    /// record under a single worker — for the retained terminal history.
    pub fn completion_order(&self) -> Vec<u64> {
        let st = self.shared.state.lock().expect("service lock");
        st.completion_order.iter().copied().collect()
    }

    /// Service-wide status snapshot.
    pub fn queue_status(&self) -> QueueStatus {
        let st = self.shared.state.lock().expect("service lock");
        QueueStatus {
            capacity: st.queue.capacity(),
            queued: st.queue.queued_total(),
            running: st.queue.running_total(),
            paused: st.paused,
            shutting_down: st.shutting_down,
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
    fn refusals_after_shutdown_reach_the_queue_stats_and_the_registry() {
        let registry = Arc::new(Registry::new());
        let engine = Engine::builder(sparkscore_cluster::ClusterSpec::test_small(2))
            .host_threads(1)
            .build();
        let quota = TenantConfig {
            max_queued: 4,
            max_running: 1,
            weight: 1,
        };
        let service = JobService::builder(engine)
            .tenant("a", quota)
            .registry(Arc::clone(&registry))
            .build();
        let job = service.submit("a", |_| Ok(())).unwrap();
        assert_eq!(service.wait(job), Some(JobState::Completed));
        service.shutdown(ShutdownMode::Drain);
        for tenant in ["a", "nobody"] {
            assert_eq!(
                service.submit(tenant, |_| Ok(())),
                Err(RejectReason::ShuttingDown)
            );
        }
        let rejected = service.queue_status().stats.rejected;
        assert_eq!(rejected, 2);
        let text = registry.render_prometheus();
        assert!(
            text.contains(&format!("sparkscore_service_rejected_total {rejected}\n")),
            "{text}"
        );
        assert_eq!(service.tenants()[0].stats.rejected, 1, "tenant a's count");
        assert!(service.shared.state.lock().unwrap().queue.conserved());
    }
}
