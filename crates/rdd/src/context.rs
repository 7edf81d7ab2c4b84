//! Per-task execution context.
//!
//! A [`TaskCtx`] travels down the operator chain while a partition is
//! computed on a host thread. It exposes the engine (for cache, shuffle,
//! and DFS access) and accumulates the task's *work counters* — weighted
//! records, input bytes, shuffle bytes, and locality preferences — which
//! the engine later converts into a [`sparkscore_cluster::VirtualTask`]
//! for virtual-time scheduling, plus whatever named counters the
//! application reports through [`TaskCtx::count`]. Counters use `Cell`s: a
//! context belongs to exactly one thread for its lifetime. The byte and
//! cache tallies are the only record of those counts: the task's
//! `TaskMetrics` reads them, and dropping the context adds them into the
//! engine's counters.

use std::cell::{Cell, RefCell};

use sparkscore_cluster::{cost, NodeId, VirtualTask};

use crate::counters::{TaskCounter, TaskCounters};
use crate::engine::Engine;
use crate::events::SpanContext;

/// One completed sub-task interval recorded through
/// [`TaskCtx::time_span`], drained into the stage's event batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanRecord {
    pub span: SpanContext,
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Context for one running task.
pub struct TaskCtx<'a> {
    engine: &'a Engine,
    partition: usize,
    started: std::time::Instant,
    /// The task's span (zero when the engine is untraced).
    span: SpanContext,
    work_units: Cell<f64>,
    input_bytes: Cell<u64>,
    shuffle_read_bytes: Cell<u64>,
    shuffle_write_bytes: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    recomputed: Cell<u64>,
    counters: RefCell<TaskCounters>,
    preferred: RefCell<Vec<NodeId>>,
    spans: RefCell<Vec<SpanRecord>>,
}

impl<'a> TaskCtx<'a> {
    #[cfg(test)]
    fn new(engine: &'a Engine, partition: usize) -> Self {
        Self::with_span(engine, partition, SpanContext::NONE)
    }

    /// A context carrying causal identity: sub-task intervals recorded via
    /// [`TaskCtx::time_span`] are parented to `span`.
    pub(crate) fn with_span(engine: &'a Engine, partition: usize, span: SpanContext) -> Self {
        TaskCtx {
            engine,
            partition,
            started: std::time::Instant::now(),
            span,
            work_units: Cell::new(0.0),
            input_bytes: Cell::new(0),
            shuffle_read_bytes: Cell::new(0),
            shuffle_write_bytes: Cell::new(0),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            recomputed: Cell::new(0),
            counters: RefCell::default(),
            preferred: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    #[inline]
    pub(crate) fn engine(&self) -> &'a Engine {
        self.engine
    }

    #[inline]
    pub fn partition(&self) -> usize {
        self.partition
    }

    /// Whether this task is being traced — sub-task spans are recorded.
    #[inline]
    fn traced(&self) -> bool {
        !self.span.is_none()
    }

    /// Time `f` as a sub-task span (kernel call, shuffle fetch, cache
    /// recompute). On an untraced task this is a single branch and a plain
    /// call — no clock reads, no allocation.
    #[inline]
    pub fn time_span<R>(&self, label: &'static str, f: impl FnOnce() -> R) -> R {
        if self.span.is_none() {
            return f();
        }
        let start_ns = self.engine.mono_ns();
        let r = f();
        let end_ns = self.engine.mono_ns();
        self.spans.borrow_mut().push(SpanRecord {
            span: self.span.child(self.engine.new_span_id()),
            label,
            start_ns,
            end_ns,
        });
        r
    }

    /// Drain the recorded sub-task spans (stage batch emission).
    pub(crate) fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans.borrow_mut())
    }

    /// Record `n` records of operator work at relative `weight` (1.0 = a
    /// plain map over small records).
    #[inline]
    pub fn add_work(&self, n: usize, weight: f64) {
        self.work_units
            .set(self.work_units.get() + n as f64 * weight);
    }

    /// Record bytes read from the DFS (locality decided by the scheduler).
    #[inline]
    pub(crate) fn add_input_bytes(&self, bytes: u64) {
        self.input_bytes.set(self.input_bytes.get() + bytes);
    }

    /// Record bytes fetched from shuffle outputs.
    #[inline]
    pub(crate) fn add_shuffle_read(&self, bytes: u64) {
        self.shuffle_read_bytes
            .set(self.shuffle_read_bytes.get() + bytes);
    }

    /// Record bytes written to shuffle buckets (map-side tasks).
    #[inline]
    pub(crate) fn add_shuffle_write(&self, bytes: u64) {
        self.shuffle_write_bytes
            .set(self.shuffle_write_bytes.get() + bytes);
    }

    /// Record one cached-block read.
    #[inline]
    pub(crate) fn note_cache_hit(&self) {
        self.cache_hits.set(self.cache_hits.get() + 1);
    }

    /// Record one cache lookup that missed.
    #[inline]
    pub(crate) fn note_cache_miss(&self) {
        self.cache_misses.set(self.cache_misses.get() + 1);
    }

    /// Record one lineage recomputation of a previously-resident block.
    #[inline]
    pub(crate) fn note_recompute(&self) {
        self.recomputed.set(self.recomputed.get() + 1);
    }

    /// Add `n` to an application-defined counter. The total travels on
    /// the task's [`crate::TaskMetrics`] to every listener. Like
    /// [`TaskCtx::time_span`], this is a single branch on an untraced
    /// task: with no listener nobody could read the value.
    #[inline]
    pub fn count(&self, counter: &TaskCounter, n: u64) {
        if self.traced() {
            self.counters.borrow_mut().add(counter.name(), n);
        }
    }

    /// Drain the reported counters (stage batch emission).
    pub(crate) fn take_counters(&self) -> TaskCounters {
        self.counters.take()
    }

    /// Declare that running on `node` would make this task's reads local
    /// (input block replica or cached block location).
    pub(crate) fn add_preferred(&self, node: NodeId) {
        let mut p = self.preferred.borrow_mut();
        if !p.contains(&node) {
            p.push(node);
        }
    }

    pub(crate) fn add_preferred_all(&self, nodes: &[NodeId]) {
        for &n in nodes {
            self.add_preferred(n);
        }
    }

    pub(crate) fn input_bytes(&self) -> u64 {
        self.input_bytes.get()
    }

    pub(crate) fn shuffle_read_bytes(&self) -> u64 {
        self.shuffle_read_bytes.get()
    }

    pub(crate) fn shuffle_write_bytes(&self) -> u64 {
        self.shuffle_write_bytes.get()
    }

    pub(crate) fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    pub(crate) fn cache_misses(&self) -> u64 {
        self.cache_misses.get()
    }

    pub(crate) fn recomputed(&self) -> u64 {
        self.recomputed.get()
    }

    /// Measured host execution time so far, nanoseconds.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Convert the task's counted work into a schedulable virtual task.
    pub(crate) fn to_virtual_task(&self) -> VirtualTask {
        VirtualTask {
            compute_ns: cost::compute_ns(self.work_units.get()),
            input_bytes: self.input_bytes.get(),
            preferred_nodes: self.preferred.borrow().clone(),
            shuffle_bytes: self.shuffle_read_bytes.get(),
        }
    }
}

/// The task's tallies reach the engine's counters here, once: a task that
/// panics is dropped while unwinding and keeps what it counted.
impl Drop for TaskCtx<'_> {
    fn drop(&mut self) {
        let metrics = &self.engine.metrics;
        for (counter, n) in [
            (&metrics.input_bytes, self.input_bytes.get()),
            (&metrics.shuffle_bytes_read, self.shuffle_read_bytes.get()),
            (
                &metrics.shuffle_bytes_written,
                self.shuffle_write_bytes.get(),
            ),
            (&metrics.cache_hits, self.cache_hits.get()),
            (&metrics.cache_misses, self.cache_misses.get()),
            (&metrics.recomputed_partitions, self.recomputed.get()),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use sparkscore_cluster::ClusterSpec;

    fn engine() -> std::sync::Arc<Engine> {
        Engine::builder(ClusterSpec::test_small(2)).build()
    }

    #[test]
    fn counters_accumulate() {
        let e = engine();
        let ctx = TaskCtx::new(&e, 3);
        assert_eq!(ctx.partition(), 3);
        ctx.add_work(100, 1.0);
        ctx.add_work(50, 2.0);
        assert_eq!(ctx.work_units.get(), 200.0);
        ctx.add_input_bytes(1024);
        ctx.add_shuffle_read(10);
        ctx.add_shuffle_read(5);
        assert_eq!(ctx.input_bytes(), 1024);
        assert_eq!(ctx.shuffle_read_bytes(), 15);
    }

    #[test]
    fn preferred_nodes_dedup() {
        let e = engine();
        let ctx = TaskCtx::new(&e, 0);
        ctx.add_preferred(NodeId(1));
        ctx.add_preferred(NodeId(1));
        ctx.add_preferred_all(&[NodeId(0), NodeId(1)]);
        let vt = ctx.to_virtual_task();
        assert_eq!(vt.preferred_nodes, vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn virtual_task_uses_cost_model() {
        let e = engine();
        let ctx = TaskCtx::new(&e, 0);
        ctx.add_work(1000, 1.0);
        ctx.add_input_bytes(77);
        let vt = ctx.to_virtual_task();
        assert_eq!(vt.compute_ns, cost::compute_ns(1000.0));
        assert_eq!(vt.input_bytes, 77);
        assert_eq!(vt.shuffle_bytes, 0);
    }

    #[test]
    fn a_slower_task_costs_the_same_virtual_time() {
        let run = |per_task: std::time::Duration| {
            let e = engine();
            let out = e
                .parallelize((0..64u64).collect(), 4)
                .map_partitions(move |_, part| {
                    std::thread::sleep(per_task);
                    part.iter().map(|x| x + 1).collect()
                })
                .collect();
            (out, e.virtual_time_secs())
        };
        let (fast_out, fast) = run(std::time::Duration::ZERO);
        let (slow_out, slow) = run(std::time::Duration::from_millis(5));
        assert_eq!(fast_out, slow_out);
        assert!(fast > 0.0);
        assert_eq!(fast.to_bits(), slow.to_bits(), "{fast} vs {slow}");
    }
}
