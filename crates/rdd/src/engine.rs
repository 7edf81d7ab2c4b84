//! The execution engine: the "Spark driver + executors" of this crate.
//!
//! An [`Engine`] binds together the simulated cluster, the DFS, the block
//! cache and the shuffle manager, and runs jobs submitted by dataset
//! actions:
//!
//! 1. `Engine::run_job` walks the target operator's graph for the
//!    shuffles its lineage needs (pruned at fully-cached ops — the
//!    mechanism behind Algorithm 3's cached `U` RDD),
//! 2. materializes each missing shuffle map stage in dependency order,
//! 3. runs the result stage.
//!
//! Real computation executes on a host thread pool; every task also
//! accumulates work counters that are list-scheduled onto the *virtual*
//! cluster to produce deterministic virtual runtimes (the quantity the
//! paper's figures plot). Fault injection hooks at task-completion
//! boundaries, and lost cache blocks / shuffle outputs are recovered from
//! lineage on demand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use sparkscore_cluster::{
    cost, Cluster, ClusterSpec, ContainerRequest, ExecutorLayout, FaultEvent, FaultPlan, NodeId,
    ResourceManager, VirtualClock, VirtualScheduler, VirtualTask,
};
use sparkscore_dfs::Dfs;

use crate::cache::CacheManager;
use crate::context::TaskCtx;
use crate::estimate::EstimateSize;
use crate::events::{
    EngineEvent, EventBus, EventListener, FaultDetail, SpanContext, StageKind, TaskMetrics,
};
use crate::ledger::{MemCategory, MemReading, MemoryLedger};
use crate::metrics::{Metrics, MetricsSnapshot, Registry};
use crate::ops::{plan_shuffles, AnyOp};
use crate::pool::{ExecutorPool, PoolDiagnostics, TaskSlots};
use crate::shuffle::{hash_key, Bucket, ShuffleManager};
use crate::{OpId, ShuffleId};

/// Fraction of granted executor memory usable as block-cache storage
/// (Spark's `spark.memory.fraction × storageFraction` ≈ 0.3; we use 0.5 of
/// the executor grant) unless [`EngineBuilder::cache_budget_bytes`] says
/// otherwise.
const CACHE_FRACTION: f64 = 0.5;

/// Configures and builds an [`Engine`].
pub struct EngineBuilder {
    spec: ClusterSpec,
    dfs_block_size: usize,
    dfs_replication: Option<usize>,
    containers: Option<ContainerRequest>,
    cache_budget_override: Option<u64>,
    host_threads: Option<usize>,
    fault_plan: Arc<FaultPlan>,
    listeners: Vec<Arc<dyn EventListener>>,
}

impl EngineBuilder {
    pub(crate) fn new(spec: ClusterSpec) -> Self {
        EngineBuilder {
            spec,
            dfs_block_size: sparkscore_dfs::DEFAULT_BLOCK_SIZE,
            dfs_replication: None,
            containers: None,
            cache_budget_override: None,
            host_threads: None,
            fault_plan: Arc::new(FaultPlan::none()),
            listeners: Vec::new(),
        }
    }

    /// DFS block size in bytes (default 8 MiB).
    pub fn dfs_block_size(mut self, bytes: usize) -> Self {
        self.dfs_block_size = bytes;
        self
    }

    /// DFS replication factor (default `min(3, nodes)`).
    pub fn dfs_replication(mut self, replication: usize) -> Self {
        self.dfs_replication = Some(replication);
        self
    }

    /// Run on an explicit container allocation instead of one executor per
    /// node (the paper's auto-tuning experiment).
    pub fn containers(mut self, req: ContainerRequest) -> Self {
        self.containers = Some(req);
        self
    }

    /// Override the block-cache budget in bytes (default: half of total
    /// executor memory).
    pub fn cache_budget_bytes(mut self, bytes: u64) -> Self {
        self.cache_budget_override = Some(bytes);
        self
    }

    /// Cap on host worker threads (default: host parallelism).
    pub fn host_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one host thread");
        self.host_threads = Some(n);
        self
    }

    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Arc::new(plan);
        self
    }

    /// Attach an event listener; it will see every [`EngineEvent`] the
    /// engine emits. More can be added later via [`Engine::events`].
    pub fn listener(mut self, listener: Arc<dyn EventListener>) -> Self {
        self.listeners.push(listener);
        self
    }

    pub fn build(self) -> Arc<Engine> {
        let cluster = Arc::new(Cluster::provision(self.spec));
        let replication = self
            .dfs_replication
            .unwrap_or_else(|| cluster.num_nodes().min(3));
        let dfs = Arc::new(
            Dfs::new(Arc::clone(&cluster), self.dfs_block_size, replication)
                .expect("builder-validated DFS configuration"),
        );
        let rm = ResourceManager::new(Arc::clone(&cluster));
        let layout = match self.containers {
            Some(req) => rm
                .allocate(req)
                .expect("container request must fit cluster"),
            None => rm.one_executor_per_node(),
        };
        let cache_budget = self
            .cache_budget_override
            .unwrap_or_else(|| (layout.total_memory_bytes() as f64 * CACHE_FRACTION) as u64);
        let vsched = VirtualScheduler::new(&layout, &cluster.spec().instance);
        let host_threads = self
            .host_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
            .max(1);
        let events = EventBus::new();
        for l in self.listeners {
            events.register(l);
        }
        // One byte ledger for the whole engine: the cache and shuffle
        // store mirror their residency into it with O(1) deltas at their
        // own mutation sites; DFS residency is owned by the DFS and polled
        // through a source closure on refresh.
        let ledger = Arc::new(MemoryLedger::new());
        {
            let dfs = Arc::clone(&dfs);
            ledger.set_source(MemCategory::DfsBlocks, move || dfs.stored_bytes());
        }
        let registry = Arc::new(Registry::new());
        let engine = Arc::new(Engine {
            cluster,
            dfs,
            layout,
            cache: CacheManager::with_ledger(cache_budget, Arc::clone(&ledger)),
            shuffle: ShuffleManager::with_ledger(Arc::clone(&ledger)),
            ledger,
            metrics: Metrics::register(&registry),
            registry,
            vclock: VirtualClock::new(),
            vsched: Mutex::new(vsched),
            fault_plan: RwLock::new(self.fault_plan),
            events,
            next_op: AtomicU64::new(0),
            next_shuffle: AtomicU64::new(0),
            next_broadcast: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
            next_stage: AtomicU64::new(0),
            // Span id 0 means "untraced": real ids start at 1.
            next_span: AtomicU64::new(1),
            epoch: std::time::Instant::now(),
            pool: ExecutorPool::new(host_threads),
            host_threads,
        });
        engine.register_live_gauges();
        engine
    }
}

/// The dataflow engine. Shared behind an `Arc`; all operations take `&self`.
pub struct Engine {
    cluster: Arc<Cluster>,
    dfs: Arc<Dfs>,
    layout: ExecutorLayout,
    pub(crate) cache: CacheManager,
    pub(crate) shuffle: ShuffleManager,
    ledger: Arc<MemoryLedger>,
    pub(crate) metrics: Metrics,
    registry: Arc<Registry>,
    vclock: VirtualClock,
    vsched: Mutex<VirtualScheduler>,
    fault_plan: RwLock<Arc<FaultPlan>>,
    events: EventBus,
    next_op: AtomicU64,
    next_shuffle: AtomicU64,
    next_broadcast: AtomicU64,
    next_job: AtomicU64,
    next_stage: AtomicU64,
    next_span: AtomicU64,
    /// Monotonic zero for span timestamps: engine construction time.
    epoch: std::time::Instant,
    /// Persistent work-stealing pool; built once, reused by every stage.
    pool: ExecutorPool,
    host_threads: usize,
}

impl Engine {
    /// Start configuring an engine for a cluster shape.
    pub fn builder(spec: ClusterSpec) -> EngineBuilder {
        EngineBuilder::new(spec)
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    pub fn layout(&self) -> &ExecutorLayout {
        &self.layout
    }

    pub fn cache_budget_bytes(&self) -> u64 {
        self.cache.budget_bytes()
    }

    /// Bytes currently resident in the block cache (live gauge).
    pub fn cache_used_bytes(&self) -> u64 {
        self.cache.used_bytes()
    }

    /// The engine's central byte ledger: one slot per [`MemCategory`],
    /// kept current by the cache and shuffle store at their mutation
    /// sites. Register external sources (e.g. kernel scratch) here.
    pub fn memory_ledger(&self) -> &Arc<MemoryLedger> {
        &self.ledger
    }

    /// Refresh the ledger's polled sources and return one reading per
    /// category, in canonical order.
    pub fn memory_snapshot(&self) -> Vec<MemReading> {
        self.ledger.refresh();
        self.ledger.snapshot()
    }

    /// Exact bytes currently resident in the cache for one operator.
    pub fn cache_resident_bytes(&self, op: OpId) -> u64 {
        self.cache.resident_bytes(op)
    }

    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The engine's named-metric registry. The engine's own counters live
    /// here (the fields of [`MetricsSnapshot`], as `sparkscore_*_total`),
    /// so do its live gauges (cache, shuffle store, pool, memory ledger;
    /// read at scrape time), and so do driver-side subsystems that emit no
    /// events (e.g. [`crate::BroadcastTileCache`]). Hand the same registry to a
    /// [`crate::RegistryListener`], the job service and the ops endpoint to
    /// scrape everything in one place.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of registered shuffle stages (leak diagnostics).
    pub fn shuffle_registrations(&self) -> usize {
        self.shuffle.num_registered()
    }

    /// Virtual time elapsed across all jobs so far, nanoseconds.
    pub fn virtual_time_ns(&self) -> u64 {
        self.vclock.now_ns()
    }

    /// Virtual time in seconds (the unit the paper's figures use).
    pub fn virtual_time_secs(&self) -> f64 {
        self.vclock.now_secs()
    }

    /// Replace the active fault plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault_plan.write() = Arc::new(plan);
    }

    /// The engine's event bus — register an [`EventListener`] here to
    /// observe job/stage/task execution, cache evictions, shuffle re-runs,
    /// and injected faults.
    pub fn events(&self) -> &EventBus {
        &self.events
    }

    /// Monotonic nanoseconds since engine construction — the time base for
    /// span start/end stamps and the ops endpoint's uptime.
    #[inline]
    pub(crate) fn mono_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocate a fresh span id (never 0 — 0 means "untraced").
    #[inline]
    pub(crate) fn new_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate `n` consecutive span ids and return the first. One shared
    /// atomic RMW per stage instead of one per task — task `i` takes
    /// `base + i` with no cross-thread contention.
    #[inline]
    pub(crate) fn new_span_range(&self, n: u64) -> u64 {
        self.next_span.fetch_add(n, Ordering::Relaxed)
    }

    pub(crate) fn new_op_id(&self) -> OpId {
        OpId(self.next_op.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn new_shuffle_id(&self) -> ShuffleId {
        ShuffleId(self.next_shuffle.fetch_add(1, Ordering::Relaxed))
    }

    /// Deterministically place a block/bucket on an alive node. Uses the
    /// cluster's cached alive snapshot — block placement runs once per
    /// cached block and per shuffle bucket, so a fresh `Vec` per call was
    /// pure allocator churn.
    pub(crate) fn node_for_block(&self, salt_a: u64, salt_b: u64) -> NodeId {
        let alive = self.cluster.alive_snapshot();
        assert!(!alive.is_empty(), "no alive nodes left in the cluster");
        alive[(hash_key(&(salt_a, salt_b)) % alive.len() as u64) as usize]
    }

    /// Register the live series in the engine's registry, each read from
    /// the store that holds it when the registry renders. A source holds a
    /// component's `Arc` or a `Weak<Engine>`, never an `Arc<Engine>`: the
    /// engine owns the registry, so a strong handle would keep it alive.
    fn register_live_gauges(self: &Arc<Self>) {
        let gauges: [(&str, &str, fn(&Engine) -> u64); 6] = [
            (
                "sparkscore_cache_used_bytes",
                "Bytes resident in the block cache",
                |e| e.cache.used_bytes(),
            ),
            (
                "sparkscore_cache_budget_bytes",
                "Block cache byte budget",
                |e| e.cache.budget_bytes(),
            ),
            (
                "sparkscore_cache_pressure_pct",
                "Cache fill as a percentage of the budget",
                |e| {
                    (e.cache.used_bytes() * 100)
                        .checked_div(e.cache.budget_bytes())
                        .unwrap_or(0)
                },
            ),
            (
                "sparkscore_shuffle_stored_bytes",
                "Bytes held as shuffle map outputs",
                |e| e.shuffle.stored_bytes(),
            ),
            (
                "sparkscore_shuffle_shard_occupancy_max",
                "Map outputs in the fullest shuffle lock shard",
                |e| e.shuffle.shard_occupancy().into_iter().max().unwrap_or(0) as u64,
            ),
            (
                "sparkscore_shuffle_shards_occupied",
                "Shuffle lock shards holding at least one map output",
                |e| {
                    e.shuffle
                        .shard_occupancy()
                        .iter()
                        .filter(|&&n| n > 0)
                        .count() as u64
                },
            ),
        ];
        for (name, help, read) in gauges {
            let engine = Arc::downgrade(self);
            self.registry.gauge_fn(name, help, move || {
                engine.upgrade().map_or(0, |e| read(&e) as i64)
            });
        }
        self.pool.register_gauges(&self.registry);
        for category in MemCategory::ALL {
            let ledger = Arc::clone(&self.ledger);
            self.registry.gauge_fn(
                &format!("sparkscore_mem_{}_used_bytes", category.name()),
                "Bytes currently resident in this memory-ledger category",
                move || {
                    ledger.refresh();
                    ledger.used(category) as i64
                },
            );
            let ledger = Arc::clone(&self.ledger);
            self.registry.gauge_fn(
                &format!("sparkscore_mem_{}_peak_bytes", category.name()),
                "High watermark of this memory-ledger category",
                move || {
                    ledger.refresh();
                    ledger.peak(category) as i64
                },
            );
        }
    }

    /// Thread accounting for the persistent executor pool (tests and
    /// tooling).
    pub fn pool_diagnostics(&self) -> PoolDiagnostics {
        self.pool.diagnostics()
    }

    /// Host execution slots (driver thread + pool workers).
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Broadcast a read-only value to all executors. Charges virtual network
    /// time for shipping one copy per remote node, as Spark does when the
    /// paper's Algorithm 1 broadcasts the phenotype pairs (step 6).
    pub fn broadcast<T: EstimateSize + Send + Sync>(&self, value: T) -> Broadcast<T> {
        let bytes = value.estimate_bytes() as u64;
        let nodes = self.cluster.num_alive().max(1) as u64;
        let net_bw = self.cluster.spec().instance.network_bandwidth;
        self.vclock
            .advance(cost::transfer_ns(bytes * (nodes - 1), net_bw));
        self.metrics.broadcasts.inc();
        self.metrics.broadcast_bytes.add(bytes);
        Broadcast {
            id: self.next_broadcast.fetch_add(1, Ordering::Relaxed),
            value: Arc::new(value),
        }
    }

    /// Run driver-side work `f(i)` for every `i in 0..n` on the executor
    /// pool's host threads and return once every index has run.
    ///
    /// This is host parallelism for work the driver would otherwise do
    /// alone (drawing operand tiles, for one): it launches no job, emits
    /// no event and charges no virtual time, like the serial loop it
    /// stands in for. It follows a stage's slot rule (DESIGN.md §3c): when
    /// another stage holds the pool's slot, when `n < 2`, or at
    /// `host_threads(1)`, every index runs inline on the caller, in index
    /// order. Which thread runs an index is otherwise unspecified, so `f`
    /// must give the same effect wherever it runs. A panic in `f(i)` is
    /// caught, every other index still runs, and then one of the caught
    /// panics is re-raised on the caller; the pool keeps its workers.
    pub fn for_each_on_pool(&self, n: usize, f: impl Fn(usize) + Sync) {
        let panicked = Mutex::new(None);
        self.pool.run(n, &|i| {
            // The pool waits for every index to complete, so `f` must not
            // unwind into it.
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                panicked.lock().get_or_insert(payload);
            }
        });
        if let Some(payload) = panicked.into_inner() {
            std::panic::resume_unwind(payload);
        }
    }

    /// Run one stage: execute `f` for every partition index in `parts` on
    /// the host pool, then list-schedule the measured costs onto the
    /// virtual cluster. Returns results in `parts` order.
    ///
    /// Untagged convenience over [`Engine::run_stage_tagged`] for stages
    /// run outside a job (tests and ad-hoc internal work).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn run_stage<R, F>(&self, parts: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &TaskCtx<'_>) -> R + Sync,
    {
        self.run_stage_tagged(parts, None, StageKind::Result, SpanContext::NONE, f)
    }

    /// [`Engine::run_stage`] with event attribution: the owning job (if
    /// any), whether this is a result or shuffle-map stage, and the span
    /// the stage runs under (the job span, or `NONE` for internal work).
    pub(crate) fn run_stage_tagged<R, F>(
        &self,
        parts: &[usize],
        job: Option<u64>,
        kind: StageKind,
        parent_span: SpanContext,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &TaskCtx<'_>) -> R + Sync,
    {
        let stage = self.next_stage.fetch_add(1, Ordering::Relaxed);
        let n = parts.len();
        // Snapshot observability once per stage: a listener registered
        // mid-stage sees the next stage whole, never a torn one, and tasks
        // can read the flag without touching the bus.
        let observed = self.events.is_active();
        let stage_span = if observed {
            parent_span.child(self.new_span_id())
        } else {
            SpanContext::NONE
        };
        if observed {
            self.events.emit(&EngineEvent::StageSubmitted {
                job,
                stage,
                kind,
                num_tasks: n,
                span: stage_span,
                mono_ns: self.mono_ns(),
            });
        }
        if n == 0 {
            // Empty stages still count in `metrics.stages`, so they must
            // also emit a matching Submitted/Completed pair — otherwise
            // traces and metrics disagree.
            self.metrics.stages.inc();
            if observed {
                self.events.emit(&EngineEvent::StageCompleted {
                    job,
                    stage,
                    kind,
                    makespan_ns: 0,
                    local_reads: 0,
                    span: stage_span,
                    mono_ns: self.mono_ns(),
                });
            }
            return Vec::new();
        }
        // Write-once slot per task — the pool claims each index exactly
        // once, so the completion path takes zero locks. Panics are caught
        // and stored so every claimed slot is always written; the driver
        // re-raises the first one after the stage drains.
        type TaskOutcome<R> = (
            R,
            VirtualTask,
            Option<TaskMetrics>,
            Vec<crate::context::SpanRecord>,
        );
        let slots: TaskSlots<std::thread::Result<TaskOutcome<R>>> = TaskSlots::new(n);
        let task_span_base = if observed {
            self.new_span_range(n as u64)
        } else {
            0
        };
        let run_task = |i: usize| {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let task_span = if observed {
                    stage_span.child(task_span_base + i as u64)
                } else {
                    SpanContext::NONE
                };
                let mono_start = if observed { self.mono_ns() } else { 0 };
                let ctx = TaskCtx::with_span(self, parts[i], task_span);
                let r = f(parts[i], &ctx);
                let vt = ctx.to_virtual_task();
                // Virtual placement is only known once the whole batch is
                // list-scheduled below; record the measured half now.
                let m = observed.then(|| TaskMetrics {
                    partition: parts[i],
                    wall_ns: ctx.elapsed_ns(),
                    input_bytes: ctx.input_bytes(),
                    shuffle_read_bytes: ctx.shuffle_read_bytes(),
                    shuffle_write_bytes: ctx.shuffle_write_bytes(),
                    cache_hits: ctx.cache_hits(),
                    cache_misses: ctx.cache_misses(),
                    recomputed_partitions: ctx.recomputed(),
                    counters: ctx.take_counters(),
                    span: task_span,
                    mono_start_ns: mono_start,
                    mono_end_ns: self.mono_ns(),
                    ..TaskMetrics::default()
                });
                let sub_spans = ctx.take_spans();
                self.metrics.tasks.inc();
                self.on_task_complete();
                (r, vt, m, sub_spans)
            }));
            // SAFETY: the pool hands index `i` to exactly one participant.
            unsafe { slots.write(i, outcome) };
        };
        self.pool.run(n, &run_task);
        let mut results = Vec::with_capacity(n);
        let mut vtasks = Vec::with_capacity(n);
        let mut partial = Vec::with_capacity(n);
        let mut panic_payload = None;
        // SAFETY: `pool.run` returned, so every index was claimed, run, and
        // its slot written, with the pool's completion protocol ordering
        // those writes before this read.
        for slot in unsafe { slots.into_vec() } {
            match slot {
                Ok((r, vt, m, spans)) => {
                    results.push(r);
                    vtasks.push(vt);
                    partial.push((m, spans));
                }
                // Drain every slot before re-raising: the whole stage ran
                // (the pool's completion barrier), so all panics are
                // already stored and the first is the one to propagate.
                Err(payload) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic_payload {
            // A buffered event log must not lose its tail when the panic
            // propagates out of the engine (possibly aborting the process
            // before any Drop flush runs): push what is buffered now.
            self.events.flush_all();
            std::panic::resume_unwind(payload);
        }
        let outcome = self.vsched.lock().schedule(&vtasks);
        self.vclock.advance(cost::STAGE_OVERHEAD_NS);
        // Counted once finished, so a task reads the stages before its own.
        self.metrics.stages.inc();
        self.metrics
            .input_local_reads
            .add(outcome.local_reads as u64);
        if observed {
            // One flush per stage: TaskEnd per task in partition order
            // (outcome.tasks is index-aligned with vtasks), followed by
            // any sub-task spans, closed by StageCompleted — O(1) bus
            // lock acquisitions instead of O(tasks). There is no task-start
            // event: the batch is emitted at stage end anyway and
            // `TaskMetrics` carries both start stamps.
            let mut batch = Vec::with_capacity(n + 1);
            for (i, (m, spans)) in partial.into_iter().enumerate() {
                let mut m = m.expect("observed stage recorded metrics for every task");
                m.virtual_compute_ns = vtasks[i].compute_ns;
                let placed = &outcome.tasks[i];
                m.virtual_start_ns = placed.start_ns;
                m.virtual_finish_ns = placed.finish_ns;
                m.node = u64::from(placed.node.0);
                m.executor = placed.executor;
                m.input_local = placed.input_local;
                batch.push(EngineEvent::TaskEnd { stage, metrics: m });
                for s in spans {
                    batch.push(EngineEvent::Span {
                        span: s.span,
                        label: s.label.to_string(),
                        start_ns: s.start_ns,
                        end_ns: s.end_ns,
                    });
                }
            }
            // One memory pulse per non-empty stage, sampled after the
            // stage's puts and evictions have settled, rides in the same
            // batch (empty stages keep their exact Submitted/Completed
            // pair).
            batch.push(self.memory_watermark_event(stage));
            batch.push(EngineEvent::StageCompleted {
                job,
                stage,
                kind,
                makespan_ns: outcome.makespan_ns,
                local_reads: outcome.local_reads,
                span: stage_span,
                mono_ns: self.mono_ns(),
            });
            self.events.emit_batch(&batch);
        }
        results
    }

    /// Materialize a shuffle's missing map outputs as one parallel stage,
    /// and say whether a stage ran. One `stage_info` snapshot replaces the
    /// previous three separate shuffle-manager lock round-trips (shape,
    /// runner, missing parts).
    pub(crate) fn ensure_shuffle(
        &self,
        sid: ShuffleId,
        job: Option<u64>,
        parent_span: SpanContext,
    ) -> bool {
        let Some(info) = self.shuffle.stage_info(sid) else {
            return false;
        };
        if info.missing_map_parts.is_empty() {
            return false;
        }
        self.metrics
            .shuffle_map_tasks
            .add(info.missing_map_parts.len() as u64);
        let runner = info.run_map_task;
        self.run_stage_tagged(
            &info.missing_map_parts,
            job,
            StageKind::ShuffleMap,
            parent_span,
            |part, ctx| drop(runner(part, ctx)),
        );
        true
    }

    /// Re-run one lost map task inline on the current task's thread —
    /// lineage recovery when a reducer finds its bucket missing. Returns
    /// the buckets the re-run stored, one per reduce partition. The
    /// recovery work is charged to the calling task's counters.
    pub(crate) fn rerun_map_task_inline(
        &self,
        sid: ShuffleId,
        map_part: usize,
        ctx: &TaskCtx<'_>,
    ) -> Vec<Bucket> {
        let runner = self
            .shuffle
            .map_task_runner(sid)
            .expect("a running reducer's op guard keeps its shuffle registered");
        self.metrics.shuffle_map_reruns.inc();
        self.metrics.shuffle_map_tasks.inc();
        self.events.emit_with(|| EngineEvent::ShuffleMapRerun {
            shuffle: sid.0,
            map_part,
        });
        runner(map_part, ctx)
    }

    /// Drop `op`'s cache mark and blocks (Spark's `unpersist`). This is the
    /// third way bytes leave the cache, so each block leaves through the
    /// same byte-accurate eviction event the other paths emit.
    pub(crate) fn unpersist(&self, op: OpId) {
        for (partition, bytes) in self.cache.unmark(op) {
            self.events.emit_with(|| EngineEvent::CacheEvicted {
                op: op.0,
                partition,
                pressure: false,
                bytes,
            });
        }
    }

    /// Run a job on `target`: plan and materialize the shuffles its lineage
    /// needs, then execute the result stage. Returns per-partition results
    /// in order. The virtual clock advances by the scheduler horizon the
    /// job's window adds that no other job has credited
    /// ([`VirtualScheduler::close_job`]): with one driver, the job's
    /// marginal makespan.
    pub(crate) fn run_job<R, F>(&self, target: &dyn AnyOp, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &TaskCtx<'_>) -> R + Sync,
    {
        self.metrics.jobs.inc();
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        // The job span roots the causal chain job → stage → task → kernel.
        // Allocated only when someone is listening, so an unobserved
        // engine's job path stays id-allocation free.
        let job_span = if self.events.is_active() {
            SpanContext::root(self.new_span_id())
        } else {
            SpanContext::NONE
        };
        self.events.emit_with(|| EngineEvent::JobStart {
            job,
            virtual_now_ns: self.vclock.now_ns(),
            span: job_span,
            mono_ns: self.mono_ns(),
        });
        self.vsched.lock().open_job();
        let window = JobWindow(&self.vsched);
        let num_partitions = target.num_partitions();
        let mut stages = u64::from(num_partitions > 0);
        for sid in plan_shuffles(target, &self.cache) {
            stages += u64::from(self.ensure_shuffle(sid, Some(job), job_span));
        }
        let parts: Vec<usize> = (0..num_partitions).collect();
        let out = self.run_stage_tagged(&parts, Some(job), StageKind::Result, job_span, f);
        let credit = window.close();
        self.vclock.advance(credit);
        self.events.emit_with(|| EngineEvent::JobEnd {
            job,
            virtual_now_ns: self.vclock.now_ns(),
            virtual_advance_ns: credit + stages * cost::STAGE_OVERHEAD_NS,
            span: job_span,
            mono_ns: self.mono_ns(),
        });
        out
    }

    /// Sample the ledger into a per-stage watermark event. Polled sources
    /// are refreshed first so DFS/scratch residency is current.
    fn memory_watermark_event(&self, stage: u64) -> EngineEvent {
        self.ledger.refresh();
        EngineEvent::MemoryWatermark {
            stage,
            block_cache_bytes: self.ledger.used(MemCategory::BlockCache),
            shuffle_store_bytes: self.ledger.used(MemCategory::ShuffleStore),
            dfs_blocks_bytes: self.ledger.used(MemCategory::DfsBlocks),
            scratch_bytes: self.ledger.used(MemCategory::Scratch),
            cache_budget_bytes: self.cache.budget_bytes(),
            mono_ns: self.mono_ns(),
        }
    }

    fn on_task_complete(&self) {
        let plan = Arc::clone(&self.fault_plan.read());
        for event in plan.on_task_complete() {
            self.apply_fault(event);
        }
    }

    fn apply_fault(&self, event: FaultEvent) {
        match event {
            FaultEvent::KillNode(node) => {
                if self.cluster.kill_node(node) {
                    self.dfs.drop_node_replicas(node);
                    let lost_blocks = self.cache.drop_node(node);
                    self.shuffle.drop_node(node);
                    self.vsched.lock().remove_node_checked(node);
                    self.events.emit_with(|| EngineEvent::FaultInjected {
                        fault: FaultDetail::KillNode {
                            node: u64::from(node.0),
                        },
                    });
                    // Each cached block lost with the node leaves the byte
                    // economy through an explicit eviction event, so event
                    // replay reaches the same ledger state.
                    for (op, partition, bytes) in lost_blocks {
                        self.events.emit_with(|| EngineEvent::CacheEvicted {
                            op: op.0,
                            partition,
                            pressure: false,
                            bytes,
                        });
                    }
                }
            }
            FaultEvent::DropCachedBlock => {
                if let Some((op, partition, bytes)) = self.cache.drop_lru_one() {
                    self.events.emit_with(|| EngineEvent::FaultInjected {
                        fault: FaultDetail::DropCachedBlock {
                            op: op.0,
                            partition,
                        },
                    });
                    self.events.emit_with(|| EngineEvent::CacheEvicted {
                        op: op.0,
                        partition,
                        pressure: false,
                        bytes,
                    });
                }
            }
            FaultEvent::DropShuffleOutput => {
                if let Some((sid, map_part)) = self.shuffle.drop_one() {
                    self.events.emit_with(|| EngineEvent::FaultInjected {
                        fault: FaultDetail::DropShuffleOutput {
                            shuffle: sid.0,
                            map_part,
                        },
                    });
                }
            }
        }
    }
}

/// A running job's window on the virtual scheduler, opened by
/// [`VirtualScheduler::open_job`]. It is closed on unwind too, so a job
/// that fails on a task panic leaves no window open.
struct JobWindow<'a>(&'a Mutex<VirtualScheduler>);

impl JobWindow<'_> {
    /// Close the window; returns the virtual time it adds to the clock.
    fn close(self) -> u64 {
        let credit = self.0.lock().close_job();
        std::mem::forget(self);
        credit
    }
}

impl Drop for JobWindow<'_> {
    fn drop(&mut self) {
        self.0.lock().close_job();
    }
}

/// A read-only value shipped once to every executor.
pub struct Broadcast<T> {
    pub id: u64,
    value: Arc<T>,
}

impl<T> Broadcast<T> {
    #[inline]
    pub fn value(&self) -> &T {
        &self.value
    }
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            id: self.id,
            value: Arc::clone(&self.value),
        }
    }
}

/// An operator's id, and the cleanup of its engine-side state when the
/// operator is dropped (Spark's `ContextCleaner`): cache mark + blocks,
/// and any shuffle stages/outputs it owned.
pub struct OpGuard {
    engine: Weak<Engine>,
    op: OpId,
    shuffles: Vec<ShuffleId>,
}

impl OpGuard {
    /// A fresh operator id on `engine`, owning `shuffles`.
    pub(crate) fn new(engine: &Arc<Engine>, shuffles: Vec<ShuffleId>) -> Self {
        OpGuard {
            engine: Arc::downgrade(engine),
            op: engine.new_op_id(),
            shuffles,
        }
    }

    pub(crate) fn id(&self) -> OpId {
        self.op
    }
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.upgrade() {
            engine.unpersist(self.op);
            for &sid in &self.shuffles {
                engine.shuffle.unregister(sid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::source::ParallelizeOp;

    fn engine() -> Arc<Engine> {
        Engine::builder(ClusterSpec::test_small(3)).build()
    }

    #[test]
    fn builder_defaults() {
        let e = engine();
        assert_eq!(e.cluster().num_nodes(), 3);
        assert_eq!(e.layout().num_executors(), 3);
        assert!(e.cache_budget_bytes() > 0);
        assert_eq!(
            e.cache_budget_bytes(),
            (e.layout().total_memory_bytes() as f64 * 0.5) as u64,
            "the default cache budget is half the executors' memory"
        );
        assert_eq!(e.virtual_time_ns(), 0);
    }

    #[test]
    fn id_allocation_is_unique() {
        let e = engine();
        let a = e.new_op_id();
        let b = e.new_op_id();
        assert_ne!(a, b);
        assert_ne!(e.new_shuffle_id(), e.new_shuffle_id());
    }

    #[test]
    fn run_stage_returns_in_order_and_advances_metrics() {
        let e = engine();
        let parts: Vec<usize> = (0..16).collect();
        let out = e.run_stage(&parts, |p, ctx| {
            ctx.add_work(100, 1.0);
            p * 2
        });
        assert_eq!(out, (0..16).map(|p| p * 2).collect::<Vec<_>>());
        let m = e.metrics_snapshot();
        assert_eq!(m.tasks, 16);
        assert_eq!(m.stages, 1);
    }

    #[test]
    fn a_stage_is_counted_once_it_finishes() {
        let e = engine();
        let seen = |parts: &[usize]| e.run_stage(parts, |_, _| e.metrics_snapshot().stages);
        assert_eq!(seen(&[0, 1, 2]), vec![0, 0, 0], "not its own stage");
        assert_eq!(seen(&[0]), vec![1], "the stage before it");
        assert!(seen(&[]).is_empty());
        assert_eq!(e.metrics_snapshot().stages, 3);
    }

    #[test]
    fn run_job_advances_virtual_clock() {
        let e = engine();
        let source = ParallelizeOp::new(OpGuard::new(&e, vec![]), vec![0u8; 4], 4);
        let before = e.virtual_time_ns();
        e.run_job(&source, |_, ctx| ctx.add_work(10_000, 1.0));
        assert!(e.virtual_time_ns() > before);
        assert_eq!(e.metrics_snapshot().jobs, 1);
    }

    #[test]
    fn overlapping_jobs_advance_the_clock_by_the_horizon_once() {
        let e = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .build();
        let source = ParallelizeOp::new(OpGuard::new(&e, vec![]), vec![0u8; 2], 2);
        let (clock_before, horizon_before) = (e.virtual_time_ns(), e.vsched.lock().horizon_ns());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..20 {
                        e.run_job(&source, |_, ctx| {
                            // Long enough that the two drivers' jobs overlap.
                            let t = std::time::Instant::now();
                            while t.elapsed() < std::time::Duration::from_micros(50) {}
                            ctx.add_work(10_000, 1.0)
                        });
                    }
                });
            }
        });
        let horizon_delta = e.vsched.lock().horizon_ns() - horizon_before;
        let stages = 40 * cost::STAGE_OVERHEAD_NS;
        assert_eq!(
            e.virtual_time_ns() - clock_before,
            horizon_delta + stages,
            "each horizon interval is credited once, however the jobs overlap"
        );
    }

    #[test]
    fn broadcast_charges_network_time_and_counts() {
        let e = engine();
        let before = e.virtual_time_ns();
        let b = e.broadcast(vec![0u64; 1 << 16]);
        assert_eq!(b.value().len(), 1 << 16);
        assert!(e.virtual_time_ns() > before, "2 remote copies cost time");
        let m = e.metrics_snapshot();
        assert_eq!(m.broadcasts, 1);
        assert!(m.broadcast_bytes >= (1 << 16) * 8);
        let b2 = b.clone();
        assert_eq!(b2.id, b.id);
    }

    #[test]
    fn node_for_block_is_deterministic_and_alive() {
        let e = engine();
        let n1 = e.node_for_block(1, 2);
        assert_eq!(n1, e.node_for_block(1, 2));
        e.cluster().kill_node(n1);
        let n2 = e.node_for_block(1, 2);
        assert_ne!(n1, n2, "placement avoids dead nodes");
    }

    #[test]
    fn fault_plan_kill_applies_everywhere() {
        let e = engine();
        e.set_fault_plan(FaultPlan::kill_node_after(NodeId(1), 2));
        let parts: Vec<usize> = (0..8).collect();
        e.run_stage(&parts, |_, _| ());
        assert!(!e.cluster().node(NodeId(1)).is_alive());
    }

    #[test]
    fn op_guard_cleans_registry_on_drop() {
        let e = engine();
        let guard = OpGuard::new(&e, vec![]);
        let id = guard.id();
        e.cache.mark(id);
        drop(guard);
        assert!(!e.cache.is_marked(id));
    }

    #[test]
    fn custom_cache_budget_respected() {
        let e = Engine::builder(ClusterSpec::test_small(1))
            .cache_budget_bytes(12345)
            .build();
        assert_eq!(e.cache_budget_bytes(), 12345);
    }

    #[test]
    fn container_layout_used_when_requested() {
        let e = Engine::builder(ClusterSpec::m3_2xlarge(4))
            .containers(ContainerRequest::new(8, 2048, 2))
            .build();
        assert_eq!(e.layout().num_executors(), 8);
        assert_eq!(e.layout().total_slots(), 16);
    }

    #[test]
    fn empty_stage_is_fine() {
        let e = engine();
        let out: Vec<u32> = e.run_stage(&[], |_, _| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_stage_emits_matching_submitted_and_completed() {
        let mem = Arc::new(crate::events::MemoryEventListener::new());
        let e = Engine::builder(ClusterSpec::test_small(2))
            .listener(Arc::clone(&mem) as Arc<dyn EventListener>)
            .build();
        let before = e.metrics_snapshot();
        let out: Vec<u32> = e.run_stage(&[], |_, _| 1u32);
        assert!(out.is_empty());
        let delta = e.metrics_snapshot().delta_since(&before);
        assert_eq!(delta.stages, 1, "empty stages count in metrics");
        let events = mem.snapshot();
        // Traces must agree with metrics: one Submitted/Completed pair,
        // zero tasks, same stage id.
        assert_eq!(events.len(), 2, "{events:?}");
        let EngineEvent::StageSubmitted {
            stage, num_tasks, ..
        } = events[0]
        else {
            panic!("expected StageSubmitted, got {:?}", events[0]);
        };
        assert_eq!(num_tasks, 0);
        let EngineEvent::StageCompleted {
            stage: done,
            makespan_ns,
            ..
        } = events[1]
        else {
            panic!("expected StageCompleted, got {:?}", events[1]);
        };
        assert_eq!(done, stage);
        assert_eq!(makespan_ns, 0);
    }
}
