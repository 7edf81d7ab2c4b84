//! Engine observability: typed events, a listener bus, and built-in
//! listeners (JSONL event log, in-memory capture, a live registry).
//!
//! This is the crate's analogue of Spark's `SparkListener` machinery. The
//! engine emits an [`EngineEvent`] at every interesting execution boundary
//! — job start/end, stage submission/completion, per-task completion with
//! a full [`TaskMetrics`] record, cache evictions, shuffle map re-runs,
//! and injected faults — onto an [`EventBus`]. Listeners implement
//! [`EventListener`] and are registered either on the
//! [`crate::engine::EngineBuilder`] or on a live engine via
//! [`crate::Engine::events`].
//!
//! Emission is lock-cheap: with no listeners registered the engine pays a
//! single relaxed atomic load per site and never constructs the event, so
//! an unobserved engine runs at full speed.
//!
//! Built-ins:
//! * [`EventLogListener`] — one JSON object per line to any writer, in the
//!   spirit of Spark's event log (`spark.eventLog.enabled`). Events
//!   round-trip through [`EngineEvent::to_json`]/[`EngineEvent::from_json`].
//! * [`MemoryEventListener`] — records events in memory, for tests and for
//!   programs that inspect the stream after a run.
//! * [`RegistryListener`] — feeds a live [`Registry`] with the series only
//!   the event stream can give (the engine's own counters already live in
//!   [`crate::Engine::registry`]).
//!
//! Per-stage views — task-time spread, shuffle and cache totals, the stage
//! table — are computed from the stream by `sparkscore_obs::ExecutionTrace`,
//! the analyzer that reads an event log.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde_json::Value;

use crate::counters::TaskCounters;
use crate::metrics::{Counter, Gauge, Histogram, Registry};
use crate::wire::{field, raise, wire_enum, wire_struct, Field};

/// What a stage computes: the job's result partitions, or shuffle map
/// outputs feeding a downstream stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    Result,
    ShuffleMap,
}

impl StageKind {
    pub fn as_str(self) -> &'static str {
        match self {
            StageKind::Result => "Result",
            StageKind::ShuffleMap => "ShuffleMap",
        }
    }
}

/// Causal identity of one unit of engine work.
///
/// Every job, stage, task, and sub-task interval (kernel call, shuffle
/// fetch, cache recompute) gets a span id unique within the engine, plus
/// a link to the span it ran under: job → stage → task → kernel. Span id
/// `0` means "not traced" — an unobserved engine never allocates ids, so
/// the zero context is also the free fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// This span's id (0 = untraced).
    pub span: u64,
    /// The enclosing span's id (0 = root).
    pub parent: u64,
}

impl SpanContext {
    /// The untraced context: no span, no parent.
    pub const NONE: SpanContext = SpanContext { span: 0, parent: 0 };

    /// A root span (a job).
    pub fn root(span: u64) -> Self {
        SpanContext { span, parent: 0 }
    }

    /// A child of this span.
    pub fn child(self, span: u64) -> Self {
        SpanContext {
            span,
            parent: self.span,
        }
    }

    /// Whether this context carries no tracing identity.
    pub fn is_none(self) -> bool {
        self.span == 0
    }
}

impl Field for StageKind {
    fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
        obj.push((key.to_string(), Value::from(self.as_str())));
    }
    fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
        match String::get(obj, key)?.as_str() {
            "Result" => Ok(StageKind::Result),
            "ShuffleMap" => Ok(StageKind::ShuffleMap),
            other => Err(raise(format!("unknown stage kind {other:?}"))),
        }
    }
}

/// A span context is two flat keys: `"span"` and `"parent_span"`.
impl Field for SpanContext {
    fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
        self.span.put(key, obj);
        self.parent.put(&format!("parent_{key}"), obj);
    }
    fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
        Ok(SpanContext {
            span: u64::get(obj, key)?,
            parent: u64::get(obj, &format!("parent_{key}"))?,
        })
    }
}

wire_struct! {
    /// Everything measured about one completed task.
    ///
    /// `wall_ns` is the task's measured host-thread time; the `virtual_*`
    /// fields are its placement on the simulated cluster: which
    /// node/executor ran it and over which virtual interval (the paper's
    /// y-axis quantity).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct TaskMetrics {
        pub partition: usize,
        /// Measured host execution time.
        pub wall_ns: u64,
        /// Modeled compute cost fed to the virtual scheduler.
        pub virtual_compute_ns: u64,
        /// Virtual start time on the assigned executor slot.
        pub virtual_start_ns: u64,
        /// Virtual finish time (start + compute + modeled I/O).
        pub virtual_finish_ns: u64,
        /// Virtual node the task was placed on.
        pub node: u64,
        /// Executor index on that node.
        pub executor: u32,
        /// Whether the task's input was read from a local replica.
        pub input_local: bool,
        pub input_bytes: u64,
        pub shuffle_read_bytes: u64,
        pub shuffle_write_bytes: u64,
        /// Cached blocks this task read.
        pub cache_hits: u64,
        /// Cache lookups that missed and forced computation.
        pub cache_misses: u64,
        /// Misses on blocks that were previously resident — lineage
        /// recovery recomputed data that had been cached and lost.
        pub recomputed_partitions: u64,
        /// What the task body reported through [`crate::TaskCtx::count`].
        pub counters: TaskCounters,
        /// Causal identity: the task's span id and its parent stage span.
        pub span: SpanContext,
        /// Monotonic engine time when the task body started (0 if untraced).
        pub mono_start_ns: u64,
        /// Monotonic engine time when the task body finished (0 if untraced).
        pub mono_end_ns: u64,
    }
}

impl TaskMetrics {
    /// Virtual runtime: scheduled finish minus scheduled start.
    pub fn virtual_runtime_ns(&self) -> u64 {
        self.virtual_finish_ns.saturating_sub(self.virtual_start_ns)
    }
}

wire_enum! {
    tag = "kind";
    /// The effect of one injected [`sparkscore_cluster::FaultEvent`]. Drop
    /// faults identify the victim so the event stream can be correlated
    /// with the recomputation that follows.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultDetail {
        KillNode { node: u64 },
        DropCachedBlock { op: u64, partition: usize },
        DropShuffleOutput { shuffle: u64, map_part: usize },
    }
}

/// A fault rides in its event as a nested object.
impl Field for FaultDetail {
    fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
        obj.push((key.to_string(), self.to_json()));
    }
    fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
        FaultDetail::from_json(field(obj, key)?)
    }
}

// To add an event, add a variant here: its fields are its wire format. The
// `"Event"` discriminator mirrors Spark's event-log convention.
wire_enum! {
    tag = "Event";
    /// One engine execution event.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EngineEvent {
        JobStart {
            job: u64,
            /// Virtual clock when the job was submitted.
            virtual_now_ns: u64,
            /// The job's root span (zero when the engine is untraced).
            span: SpanContext,
            /// Monotonic engine time at submission.
            mono_ns: u64,
        },
        JobEnd {
            job: u64,
            virtual_now_ns: u64,
            /// Virtual time this job added to the clock: its stage overheads
            /// plus the scheduler horizon its window credited
            /// (`VirtualScheduler::close_job`). With one driver that is the
            /// job's marginal makespan plus overheads, and its critical path
            /// fits inside it. When jobs overlap, each horizon interval is
            /// credited to the first job to close after it: the advances
            /// still sum to the clock (less broadcasts), but one job's
            /// advance can be shorter than its own critical path.
            virtual_advance_ns: u64,
            span: SpanContext,
            mono_ns: u64,
        },
        StageSubmitted {
            /// `None` for stages run outside a job (engine-internal work).
            job: Option<u64>,
            stage: u64,
            kind: StageKind,
            num_tasks: usize,
            /// The stage's span, parented to the owning job's span.
            span: SpanContext,
            mono_ns: u64,
        },
        StageCompleted {
            job: Option<u64>,
            stage: u64,
            kind: StageKind,
            /// Virtual makespan of the stage's task batch.
            makespan_ns: u64,
            /// Tasks whose input was read from a local replica.
            local_reads: usize,
            span: SpanContext,
            mono_ns: u64,
        },
        TaskEnd {
            stage: u64,
            metrics: TaskMetrics,
        },
        /// A completed sub-task interval: a kernel call, a shuffle fetch or
        /// write, a cache recompute — parented to the task span it ran under.
        Span {
            span: SpanContext,
            label: String,
            /// Monotonic engine time at interval start.
            start_ns: u64,
            /// Monotonic engine time at interval end.
            end_ns: u64,
        },
        /// A block was admitted to the cache with this exact byte footprint.
        CacheAdmitted {
            op: u64,
            partition: usize,
            bytes: u64,
        },
        /// A block was offered to the cache but not stored (larger than the
        /// whole budget); the bytes that failed to become resident.
        CacheRejected {
            op: u64,
            partition: usize,
            bytes: u64,
        },
        /// A cached block left the cache: LRU pressure (`pressure: true`) or
        /// a fault/unpersist path (`pressure: false`). `bytes` is the block's
        /// exact resident footprint.
        CacheEvicted {
            op: u64,
            partition: usize,
            pressure: bool,
            bytes: u64,
        },
        /// One map task's output landed in the shuffle store: the total
        /// bucket bytes now resident for `(shuffle, map_part)`.
        ShuffleBytesStored {
            shuffle: u64,
            map_part: usize,
            bytes: u64,
        },
        /// Per-category resident bytes sampled at a stage boundary — the
        /// memory plane's periodic pulse, one sample per non-empty stage.
        MemoryWatermark {
            stage: u64,
            block_cache_bytes: u64,
            shuffle_store_bytes: u64,
            dfs_blocks_bytes: u64,
            scratch_bytes: u64,
            /// The cache's configured byte budget (headroom denominator).
            cache_budget_bytes: u64,
            mono_ns: u64,
        },
        /// A lost shuffle map output was recomputed inline by a reducer.
        ShuffleMapRerun {
            shuffle: u64,
            map_part: usize,
        },
        /// A fault plan fired and had an effect.
        FaultInjected {
            fault: FaultDetail,
        },
    }
}

/// Receives every event the engine emits. Callbacks run synchronously on
/// the emitting thread (worker threads for task events, the driver thread
/// for the rest), so implementations should be quick and must be
/// thread-safe.
pub trait EventListener: Send + Sync {
    fn on_event(&self, event: &EngineEvent);

    /// Receive a batch of events emitted together (the engine flushes all
    /// of a stage's task events in one batch at stage end). The default
    /// forwards to [`EventListener::on_event`] per event; listeners with
    /// internal locks should override to take the lock once per batch.
    fn on_events(&self, events: &[EngineEvent]) {
        for event in events {
            self.on_event(event);
        }
    }

    /// Flush any buffered output. Called by [`EventBus::flush_all`] and
    /// when the bus itself is dropped (engine shutdown), so listeners
    /// that buffer — like [`EventLogListener`] — never lose the tail of a
    /// run even if the program keeps the listener alive past the engine.
    fn on_flush(&self) {}
}

/// Fan-out point between the engine and its listeners.
///
/// The hot path is the *inactive* bus: one relaxed atomic load and no
/// event construction. Listener registration is expected to happen at
/// setup time. When a listener exists, dispatch holds the listener lock
/// across the whole listener loop, so concurrent emitters (map tasks on
/// several pool threads) are serialized and every listener sees one and
/// the same event order. A listener must therefore never emit from inside
/// its callbacks — none of the built-ins does — or it would deadlock.
#[derive(Default)]
pub struct EventBus {
    listeners: Mutex<Vec<Arc<dyn EventListener>>>,
    active: AtomicBool,
}

impl EventBus {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a listener; it receives every event emitted from now on.
    pub fn register(&self, listener: Arc<dyn EventListener>) {
        self.listeners.lock().push(listener);
        self.active.store(true, Ordering::Release);
    }

    /// Drop all listeners (the bus goes back to the free fast path).
    pub fn clear(&self) {
        self.listeners.lock().clear();
        self.active.store(false, Ordering::Release);
    }

    /// Whether any listener is attached.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Dispatch an already-built event to all listeners.
    pub fn emit(&self, event: &EngineEvent) {
        if !self.is_active() {
            return;
        }
        for l in self.listeners.lock().iter() {
            l.on_event(event);
        }
    }

    /// Build the event only if someone is listening — the engine's
    /// emission sites use this so an unobserved engine never pays for
    /// event construction. The event is built before the dispatch lock is
    /// taken.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce() -> EngineEvent) {
        if !self.is_active() {
            return;
        }
        let event = make();
        for l in self.listeners.lock().iter() {
            l.on_event(&event);
        }
    }

    /// Dispatch a batch of events in one pass: the listener list is locked
    /// once and each listener sees the whole batch through
    /// [`EventListener::on_events`], so emission is O(1) lock
    /// acquisitions per batch rather than O(events).
    pub fn emit_batch(&self, events: &[EngineEvent]) {
        if events.is_empty() || !self.is_active() {
            return;
        }
        for l in self.listeners.lock().iter() {
            l.on_events(events);
        }
    }

    /// Ask every listener to flush buffered output.
    pub fn flush_all(&self) {
        for l in self.listeners.lock().iter() {
            l.on_flush();
        }
    }
}

/// Engine shutdown flushes every listener: a buffered event log is
/// complete once the engine is gone, whoever still holds the listener.
impl Drop for EventBus {
    fn drop(&mut self) {
        self.flush_all();
    }
}

// ---------------------------------------------------------------------------
// Built-in listeners
// ---------------------------------------------------------------------------

/// Writes one JSON object per line for every event — the Spark event-log
/// format adapted to this engine. The writer is flushed on drop.
pub struct EventLogListener {
    out: Mutex<Box<dyn Write + Send>>,
}

impl EventLogListener {
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        EventLogListener {
            out: Mutex::new(Box::new(writer)),
        }
    }

    /// Log to a file, creating parent directories as needed.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::io::BufWriter::new(std::fs::File::create(path)?);
        Ok(Self::new(file))
    }

    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().flush()
    }
}

impl EventListener for EventLogListener {
    fn on_event(&self, event: &EngineEvent) {
        let line = event.to_json().to_string();
        let mut out = self.out.lock();
        // An unwritable log must not take down the computation it observes.
        let _ = writeln!(out, "{line}");
    }

    fn on_events(&self, events: &[EngineEvent]) {
        // Serialize outside the lock, then take it once for the batch.
        let mut text = String::new();
        for event in events {
            text.push_str(&event.to_json().to_string());
            text.push('\n');
        }
        let mut out = self.out.lock();
        let _ = out.write_all(text.as_bytes());
    }

    fn on_flush(&self) {
        let _ = self.flush();
    }
}

impl Drop for EventLogListener {
    fn drop(&mut self) {
        let _ = self.out.lock().flush();
    }
}

/// Parse a JSONL event log produced by [`EventLogListener`] back into
/// typed events (blank lines are skipped).
pub fn parse_event_log(text: &str) -> Result<Vec<EngineEvent>, serde_json::Error> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| {
            EngineEvent::from_json(
                &serde_json::from_str_value(l).map_err(serde_json::Error::Parse)?,
            )
        })
        .collect()
}

/// Records every event in memory. `snapshot` clones the stream; `take`
/// drains it.
#[derive(Default)]
pub struct MemoryEventListener {
    events: Mutex<Vec<EngineEvent>>,
}

impl MemoryEventListener {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> Vec<EngineEvent> {
        self.events.lock().clone()
    }

    pub fn take(&self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.events.lock())
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl EventListener for MemoryEventListener {
    fn on_event(&self, event: &EngineEvent) {
        self.events.lock().push(event.clone());
    }

    fn on_events(&self, events: &[EngineEvent]) {
        self.events.lock().extend_from_slice(events);
    }
}

/// Feeds a live [`Registry`] from the event stream with what only events
/// can give: completed jobs, the in-flight and clock gauges, the eviction
/// split, cache and shuffle byte flows, faults, task-runtime histograms and
/// the tasks' named counters. The engine's own counters (jobs, stages,
/// tasks, input, shuffle and cache totals) already live in
/// [`crate::Engine::registry`]: build the listener on that registry with
/// [`RegistryListener::with_registry`] to scrape both in one place.
///
/// Every update is a handful of relaxed atomic increments; the registry
/// lock is only taken at construction, at rendering time, and the first
/// time a task-counter name is seen.
pub struct RegistryListener {
    registry: Arc<Registry>,
    jobs_completed: Arc<Counter>,
    cache_evictions_pressure: Arc<Counter>,
    cache_evictions_other: Arc<Counter>,
    cache_admitted_bytes: Arc<Counter>,
    cache_rejected_bytes: Arc<Counter>,
    cache_evicted_bytes: Arc<Counter>,
    shuffle_stored_bytes: Arc<Counter>,
    /// `sparkscore_<name>_total` per task-counter name, created on first
    /// sight (the engine does not know the names in advance).
    task_counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    faults_injected: Arc<Counter>,
    running_jobs: Arc<Gauge>,
    virtual_clock_ns: Arc<Gauge>,
    task_virtual_ns: Arc<Histogram>,
    task_wall_ns: Arc<Histogram>,
}

impl RegistryListener {
    /// Listener over its own fresh registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Listener over a shared registry (e.g. [`crate::Engine::registry`],
    /// scraped by an exporter that also carries application metrics).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let c = |name: &str, help: &str| registry.counter(name, help);
        let bounds = Histogram::duration_ns_bounds();
        RegistryListener {
            jobs_completed: c("sparkscore_jobs_completed_total", "Jobs finished"),
            cache_evictions_pressure: c(
                "sparkscore_cache_evictions_pressure_total",
                "Cached blocks evicted under LRU pressure",
            ),
            cache_evictions_other: c(
                "sparkscore_cache_evictions_other_total",
                "Cached blocks dropped by faults or unpersist",
            ),
            cache_admitted_bytes: c(
                "sparkscore_cache_admitted_bytes_total",
                "Bytes admitted to the block cache",
            ),
            cache_rejected_bytes: c(
                "sparkscore_cache_rejected_bytes_total",
                "Bytes offered to the block cache but too large to store",
            ),
            cache_evicted_bytes: c(
                "sparkscore_cache_evicted_bytes_total",
                "Bytes evicted or dropped from the block cache",
            ),
            shuffle_stored_bytes: c(
                "sparkscore_shuffle_stored_bytes_total",
                "Map-output bytes stored into the shuffle store",
            ),
            task_counters: Mutex::default(),
            faults_injected: c("sparkscore_faults_injected_total", "Fault plan firings"),
            running_jobs: registry.gauge("sparkscore_running_jobs", "Jobs currently in flight"),
            virtual_clock_ns: registry.gauge(
                "sparkscore_virtual_clock_ns",
                "Virtual cluster clock at the last job boundary",
            ),
            task_virtual_ns: registry.histogram(
                "sparkscore_task_virtual_runtime_ns",
                "Per-task virtual runtime",
                bounds.clone(),
            ),
            task_wall_ns: registry.histogram(
                "sparkscore_task_wall_runtime_ns",
                "Per-task host wall runtime",
                bounds,
            ),
            registry,
        }
    }

    /// Prometheus text exposition of the whole registry.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

impl Default for RegistryListener {
    fn default() -> Self {
        Self::new()
    }
}

impl EventListener for RegistryListener {
    fn on_event(&self, event: &EngineEvent) {
        match event {
            EngineEvent::JobStart { virtual_now_ns, .. } => {
                self.running_jobs.add(1);
                self.virtual_clock_ns.set(*virtual_now_ns as i64);
            }
            EngineEvent::JobEnd { virtual_now_ns, .. } => {
                self.jobs_completed.inc();
                self.running_jobs.add(-1);
                self.virtual_clock_ns.set(*virtual_now_ns as i64);
            }
            EngineEvent::StageSubmitted { .. }
            | EngineEvent::StageCompleted { .. }
            | EngineEvent::Span { .. }
            | EngineEvent::ShuffleMapRerun { .. }
            // The live per-category gauges come from the profiler's ledger
            // refresh; the watermark event is for logs and the recorder.
            | EngineEvent::MemoryWatermark { .. } => {}
            EngineEvent::TaskEnd { metrics, .. } => {
                if !metrics.counters.is_empty() {
                    let mut known = self.task_counters.lock();
                    for (name, n) in metrics.counters.iter() {
                        if !known.contains_key(name) {
                            let series = self.registry.counter(
                                &format!("sparkscore_{name}_total"),
                                &format!("Task counter {name}, summed over completed tasks"),
                            );
                            known.insert(name.to_string(), series);
                        }
                        known[name].add(n);
                    }
                }
                self.task_virtual_ns.observe(metrics.virtual_runtime_ns());
                self.task_wall_ns.observe(metrics.wall_ns);
            }
            EngineEvent::CacheAdmitted { bytes, .. } => self.cache_admitted_bytes.add(*bytes),
            EngineEvent::CacheRejected { bytes, .. } => self.cache_rejected_bytes.add(*bytes),
            EngineEvent::CacheEvicted {
                pressure, bytes, ..
            } => {
                if *pressure {
                    self.cache_evictions_pressure.inc();
                } else {
                    self.cache_evictions_other.inc();
                }
                self.cache_evicted_bytes.add(*bytes);
            }
            EngineEvent::ShuffleBytesStored { bytes, .. } => self.shuffle_stored_bytes.add(*bytes),
            EngineEvent::FaultInjected { .. } => self.faults_injected.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<EngineEvent> {
        vec![
            EngineEvent::JobStart {
                job: 0,
                virtual_now_ns: 0,
                span: SpanContext::root(1),
                mono_ns: 10,
            },
            EngineEvent::StageSubmitted {
                job: Some(0),
                stage: 1,
                kind: StageKind::ShuffleMap,
                num_tasks: 4,
                span: SpanContext { span: 2, parent: 1 },
                mono_ns: 20,
            },
            EngineEvent::TaskEnd {
                stage: 1,
                metrics: TaskMetrics {
                    partition: 2,
                    wall_ns: 1_000,
                    virtual_compute_ns: 9_999,
                    virtual_start_ns: 100,
                    virtual_finish_ns: 10_099,
                    node: 1,
                    executor: 0,
                    input_local: true,
                    input_bytes: 4096,
                    shuffle_read_bytes: 0,
                    shuffle_write_bytes: 2048,
                    cache_hits: 1,
                    cache_misses: 1,
                    recomputed_partitions: 1,
                    counters: [("cells", 640), ("reuses", 5)].into_iter().collect(),
                    span: SpanContext { span: 3, parent: 2 },
                    mono_start_ns: 30,
                    mono_end_ns: 1_030,
                },
            },
            EngineEvent::Span {
                span: SpanContext { span: 4, parent: 3 },
                label: "kernel:contributions".to_string(),
                start_ns: 40,
                end_ns: 900,
            },
            EngineEvent::StageCompleted {
                job: Some(0),
                stage: 1,
                kind: StageKind::ShuffleMap,
                makespan_ns: 10_099,
                local_reads: 3,
                span: SpanContext { span: 2, parent: 1 },
                mono_ns: 1_100,
            },
            EngineEvent::StageSubmitted {
                job: None,
                stage: 2,
                kind: StageKind::Result,
                num_tasks: 1,
                span: SpanContext::NONE,
                mono_ns: 1_200,
            },
            EngineEvent::CacheAdmitted {
                op: 7,
                partition: 3,
                bytes: 4_096,
            },
            EngineEvent::CacheRejected {
                op: 8,
                partition: 0,
                bytes: 1 << 30,
            },
            EngineEvent::CacheEvicted {
                op: 7,
                partition: 3,
                pressure: true,
                bytes: 4_096,
            },
            EngineEvent::ShuffleBytesStored {
                shuffle: 5,
                map_part: 1,
                bytes: 2_048,
            },
            EngineEvent::MemoryWatermark {
                stage: 1,
                block_cache_bytes: 4_096,
                shuffle_store_bytes: 2_048,
                dfs_blocks_bytes: 8_192,
                scratch_bytes: 512,
                cache_budget_bytes: 1 << 20,
                mono_ns: 1_050,
            },
            EngineEvent::ShuffleMapRerun {
                shuffle: 5,
                map_part: 1,
            },
            EngineEvent::FaultInjected {
                fault: FaultDetail::KillNode { node: 2 },
            },
            EngineEvent::FaultInjected {
                fault: FaultDetail::DropCachedBlock {
                    op: 7,
                    partition: 0,
                },
            },
            EngineEvent::FaultInjected {
                fault: FaultDetail::DropShuffleOutput {
                    shuffle: 5,
                    map_part: 0,
                },
            },
            EngineEvent::JobEnd {
                job: 0,
                virtual_now_ns: 10_099,
                virtual_advance_ns: 10_099,
                span: SpanContext::root(1),
                mono_ns: 1_300,
            },
        ]
    }

    #[test]
    fn span_context_links_parent_chain() {
        let job = SpanContext::root(10);
        let stage = job.child(11);
        let task = stage.child(12);
        assert_eq!(stage.parent, 10);
        assert_eq!(task.parent, 11);
        assert!(!task.is_none());
        assert!(SpanContext::NONE.is_none());
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for event in sample_events() {
            let v = event.to_json();
            let back = EngineEvent::from_json(&v).unwrap();
            assert_eq!(event, back, "round-trip for {}", event.name());
            // And through the text layer.
            let text = v.to_string();
            let reparsed = serde_json::from_str_value(&text).unwrap();
            assert_eq!(EngineEvent::from_json(&reparsed).unwrap(), event);
        }
    }

    #[test]
    fn event_log_listener_writes_parseable_jsonl() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let listener = EventLogListener::new(SharedWriter(Arc::clone(&buf)));
        let events = sample_events();
        for e in &events {
            listener.on_event(e);
        }
        drop(listener);
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert_eq!(text.lines().count(), events.len());
        let parsed = parse_event_log(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn bus_is_inactive_until_registered() {
        let bus = EventBus::new();
        assert!(!bus.is_active());
        let mut built = false;
        let rerun = || EngineEvent::ShuffleMapRerun {
            shuffle: 0,
            map_part: 0,
        };
        bus.emit_with(|| {
            built = true;
            rerun()
        });
        assert!(!built, "inactive bus must not construct events");
        let mem = Arc::new(MemoryEventListener::new());
        bus.register(Arc::clone(&mem) as Arc<dyn EventListener>);
        assert!(bus.is_active());
        bus.emit_with(rerun);
        assert_eq!(mem.len(), 1);
        bus.clear();
        assert!(!bus.is_active());
    }

    /// A writer whose output is only visible in the shared buffer after a
    /// flush — the buffered-file shape that loses the tail of a run if
    /// nothing flushes it.
    struct BufferedSharedWriter {
        pending: Vec<u8>,
        flushed: Arc<Mutex<Vec<u8>>>,
    }

    impl Write for BufferedSharedWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.pending.extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed.lock().extend_from_slice(&self.pending);
            self.pending.clear();
            Ok(())
        }
    }

    #[test]
    fn event_log_flushes_on_listener_drop() {
        let flushed = Arc::new(Mutex::new(Vec::new()));
        let listener = EventLogListener::new(BufferedSharedWriter {
            pending: Vec::new(),
            flushed: Arc::clone(&flushed),
        });
        for e in sample_events() {
            listener.on_event(&e);
        }
        assert!(flushed.lock().is_empty(), "nothing flushed mid-run");
        drop(listener);
        let text = String::from_utf8(flushed.lock().clone()).unwrap();
        assert_eq!(
            parse_event_log(&text).unwrap(),
            sample_events(),
            "drop must flush the full buffered tail"
        );
    }

    #[test]
    fn event_log_flushes_on_bus_drop() {
        // The program keeps the listener alive past the bus (engine
        // shutdown): dropping the bus must still flush the tail.
        let flushed = Arc::new(Mutex::new(Vec::new()));
        let listener = Arc::new(EventLogListener::new(BufferedSharedWriter {
            pending: Vec::new(),
            flushed: Arc::clone(&flushed),
        }));
        let bus = EventBus::new();
        bus.register(Arc::clone(&listener) as Arc<dyn EventListener>);
        for e in sample_events() {
            bus.emit(&e);
        }
        assert!(flushed.lock().is_empty(), "nothing flushed mid-run");
        drop(bus);
        let text = String::from_utf8(flushed.lock().clone()).unwrap();
        assert_eq!(parse_event_log(&text).unwrap(), sample_events());
        drop(listener); // the second flush on listener drop is harmless
    }

    #[test]
    fn registry_listener_aggregates_stream() {
        let listener = RegistryListener::new();
        for e in sample_events() {
            listener.on_event(&e);
        }
        let text = listener.render_prometheus();
        assert!(text.contains("sparkscore_jobs_completed_total 1"), "{text}");
        assert!(text.contains("sparkscore_running_jobs 0"), "{text}");
        assert!(text.contains("sparkscore_cells_total 640"), "{text}");
        assert!(
            text.contains("sparkscore_cache_evictions_pressure_total 1"),
            "{text}"
        );
        assert!(
            text.contains("sparkscore_cache_admitted_bytes_total 4096"),
            "{text}"
        );
        assert!(
            text.contains("sparkscore_cache_evicted_bytes_total 4096"),
            "{text}"
        );
        assert!(
            text.contains("sparkscore_shuffle_stored_bytes_total 2048"),
            "{text}"
        );
        assert!(
            text.contains("sparkscore_faults_injected_total 3"),
            "{text}"
        );
        assert!(text.contains("sparkscore_virtual_clock_ns 10099"), "{text}");
        // The single task (virtual runtime 9_999 ns) lands in the 10 µs
        // bucket of the runtime histogram.
        assert!(
            text.contains("sparkscore_task_virtual_runtime_ns_bucket{le=\"10000\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("sparkscore_task_virtual_runtime_ns_sum 9999"),
            "{text}"
        );
    }
}
