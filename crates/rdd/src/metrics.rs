//! Engine execution metrics.
//!
//! Two layers live here:
//!
//! * [`MetricsSnapshot`] — the engine's own counters, which the tests and
//!   benchmark harnesses assert on: cache behaviour (hits prove
//!   Algorithm 3's reuse of the `U` RDD), recomputation (proves lineage
//!   recovery actually ran), shuffle volumes, and task/stage/job counts.
//!   Each is one row of the `engine_counters!` table below, which makes
//!   it a [`Counter`] in [`crate::Engine::registry`] and a snapshot field.
//! * [`Registry`] — a general named-metric registry (counters, gauges,
//!   histograms, and counters and gauges read at scrape time) with Prometheus text
//!   exposition. The engine's counters and live gauges live in its own
//!   registry; [`crate::events::RegistryListener`] adds the series only
//!   the event stream can give, so a long-running engine can expose
//!   aggregate health without replaying event logs.
//!
//! All counters are relaxed atomics — they are statistics, not
//! synchronization.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Define the engine's counters, one row each: the field, the Prometheus
/// series it is scraped as, and its HELP text (also the field's doc). The
/// table generates the live handles (`Metrics`), their snapshot,
/// [`MetricsSnapshot::delta_since`] and its `Display`. To add an engine
/// counter, add a row.
macro_rules! engine_counters {
    ($( $field:ident: $series:literal, $help:literal; )*) => {
        /// Live counters owned by the engine, registered in its registry.
        #[derive(Debug)]
        pub(crate) struct Metrics {
            $( #[doc = $help] pub(crate) $field: Arc<Counter>, )*
        }

        /// A point-in-time copy of the engine's counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $( #[doc = $help] pub $field: u64, )*
        }

        impl Metrics {
            /// Register every engine counter in `registry`.
            pub(crate) fn register(registry: &Registry) -> Self {
                Metrics {
                    $( $field: registry.counter($series, $help), )*
                }
            }

            pub(crate) fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: self.$field.get(), )*
                }
            }
        }

        impl MetricsSnapshot {
            /// Difference `self - earlier`, saturating (counters are
            /// monotonic, so saturation only matters if snapshots are
            /// passed in the wrong order).
            pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: self.$field.saturating_sub(earlier.$field), )*
                }
            }
        }

        /// Single-line `field=value` rendering of every counter, for logs.
        impl std::fmt::Display for MetricsSnapshot {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let fields = [$( (stringify!($field), self.$field) ),*];
                for (i, (name, value)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{name}={value}")?;
                }
                Ok(())
            }
        }
    };
}

// Input bytes, shuffle bytes, cache hits/misses and recomputes are
// per-task tallies: a `TaskCtx` adds them here once, when it is dropped.
engine_counters! {
    jobs: "sparkscore_jobs_started_total", "Jobs submitted";
    stages: "sparkscore_stages_completed_total", "Stages finished";
    tasks: "sparkscore_tasks_completed_total", "Tasks finished";
    cache_hits: "sparkscore_cache_hits_total", "Block cache hits";
    cache_misses: "sparkscore_cache_misses_total", "Block cache misses";
    cache_evictions: "sparkscore_cache_evictions_total", "Cached blocks evicted under LRU pressure";
    recomputed_partitions: "sparkscore_recomputed_partitions_total",
        "Previously-cached partitions recomputed from lineage";
    shuffle_map_reruns: "sparkscore_shuffle_map_reruns_total",
        "Lost shuffle map outputs re-run from lineage";
    shuffle_map_tasks: "sparkscore_shuffle_map_tasks_total", "Shuffle map tasks run, re-runs included";
    shuffle_bytes_written: "sparkscore_shuffle_write_bytes_total", "Shuffle bytes written";
    shuffle_bytes_read: "sparkscore_shuffle_read_bytes_total", "Shuffle bytes read";
    input_bytes: "sparkscore_input_bytes_total", "Input bytes read by tasks";
    input_local_reads: "sparkscore_input_local_reads_total",
        "Tasks whose input was read from a local replica";
    broadcasts: "sparkscore_broadcasts_total", "Values broadcast to the executors";
    broadcast_bytes: "sparkscore_broadcast_bytes_total", "Estimated bytes of broadcast values";
}

// ---------------------------------------------------------------------------
// Live metrics registry
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, clocks, in-flight jobs).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `u64` observations (cumulative buckets in
/// the exposition, Prometheus-style). Observation is lock-free: one
/// relaxed increment per bucket/sum/count.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows the last.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Default bounds for nanosecond durations: 1 µs … 100 s, decades.
    pub(crate) fn duration_ns_bounds() -> Vec<u64> {
        (3..12).map(|p| 10u64.pow(p)).collect()
    }

    fn new(bounds: Vec<u64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    pub(crate) fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// Prometheus metric-name grammar: `[a-zA-Z_:][a-zA-Z0-9_:]*`. Enforced
/// at registration so a bad name fails at the call site instead of
/// producing an exposition scrapers silently drop. `const` so a
/// [`crate::TaskCounter`] checks its name at compile time.
pub(crate) const fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    if bytes.is_empty() || bytes[0].is_ascii_digit() {
        return false;
    }
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b.is_ascii_alphanumeric() || b == b'_' || b == b':') {
            return false;
        }
        i += 1;
    }
    true
}

/// Escape a HELP string per the Prometheus text format — backslash and
/// newline — so one metric's help text cannot corrupt the line framing of
/// the whole exposition.
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    /// A counter whose value is read from its source at render time.
    CounterFn(Arc<dyn Fn() -> u64 + Send + Sync>),
    /// A gauge whose value is read from its source at render time.
    GaugeFn(Arc<dyn Fn() -> i64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    /// The exposition's `# TYPE`.
    fn type_str(&self) -> &'static str {
        match self {
            Metric::Counter(_) | Metric::CounterFn(_) => "counter",
            Metric::Gauge(_) | Metric::GaugeFn(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    /// What a clashing registration is told the name already holds.
    fn kind(&self) -> &'static str {
        match self {
            Metric::CounterFn(_) => "scrape-time counter",
            Metric::GaugeFn(_) => "scrape-time gauge",
            m => m.type_str(),
        }
    }
}

impl std::fmt::Debug for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind())
    }
}

fn assert_valid_name(name: &str) {
    assert!(
        valid_metric_name(name),
        "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
    );
}

/// A named-metric registry with Prometheus text exposition.
///
/// Metric handles are `Arc`s: the instrumented code path holds the handle
/// and updates it lock-free; the registry only takes its lock on
/// registration and rendering. A value that already lives in some store
/// is registered as a source instead ([`Registry::gauge_fn`],
/// `Registry::counter_fn`) and read when the registry renders. Names render in lexicographic order, so
/// [`Registry::render_prometheus`] is deterministic for a fixed state.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, (String, Metric)>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> Metric,
        pick: impl Fn(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        assert_valid_name(name);
        let mut metrics = self.metrics.write();
        let (_, metric) = metrics
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), make()));
        pick(metric)
            .unwrap_or_else(|| panic!("metric {name:?} already registered as a {}", metric.kind()))
    }

    /// Get or create a counter. Panics if `name` exists with another type.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get or create a gauge. Panics if `name` exists with another type.
    pub(crate) fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            || Metric::Gauge(Arc::new(Gauge::default())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Get or create a histogram with the given bucket upper bounds.
    /// Panics if `name` exists with another type. If it already exists as
    /// a histogram, the existing bounds win.
    pub(crate) fn histogram(&self, name: &str, help: &str, bounds: Vec<u64>) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            || Metric::Histogram(Arc::new(Histogram::new(bounds))),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Register a gauge whose value is `source()`, called each time the
    /// registry renders: Prometheus' collector model, and the registry's
    /// counterpart of [`crate::MemoryLedger::set_source`]. Registering the
    /// name again replaces the source. Panics if `name` exists as another
    /// kind of metric.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        source: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.set_source(name, help, Metric::GaugeFn(Arc::new(source)));
    }

    /// [`Registry::gauge_fn`]'s counter twin: a monotonic count that
    /// already lives in some store, read when the registry renders.
    pub(crate) fn counter_fn(
        &self,
        name: &str,
        help: &str,
        source: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.set_source(name, help, Metric::CounterFn(Arc::new(source)));
    }

    /// Insert a scrape-time source, replacing one of the same kind. Panics
    /// if `name` exists as another kind of metric.
    fn set_source(&self, name: &str, help: &str, source: Metric) {
        assert_valid_name(name);
        let mut metrics = self.metrics.write();
        if let Some((_, m)) = metrics
            .get(name)
            .filter(|(_, m)| std::mem::discriminant(m) != std::mem::discriminant(&source))
        {
            panic!("metric {name:?} already registered as a {}", m.kind());
        }
        metrics.insert(name.to_string(), (help.to_string(), source));
    }

    pub fn len(&self) -> usize {
        self.metrics.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.read().is_empty()
    }

    /// Render every metric in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative histogram buckets with an
    /// `+Inf` bound, `_sum` and `_count` series). Sources are called after
    /// the registry lock is released, so a source may use the registry.
    pub fn render_prometheus(&self) -> String {
        let metrics: Vec<(String, (String, Metric))> = self
            .metrics
            .read()
            .iter()
            .map(|(name, entry)| (name.clone(), entry.clone()))
            .collect();
        let mut out = String::new();
        for (name, (help, metric)) in &metrics {
            if !help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
            }
            let _ = writeln!(out, "# TYPE {name} {}", metric.type_str());
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::CounterFn(source) => {
                    let _ = writeln!(out, "{name} {}", source());
                }
                Metric::GaugeFn(source) => {
                    let _ = writeln!(out, "{name} {}", source());
                }
                Metric::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, bucket) in h.bounds.iter().zip(&h.buckets) {
                        cumulative += bucket.load(Ordering::Relaxed);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Metrics {
        Metrics::register(&Registry::new())
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = metrics();
        m.jobs.inc();
        m.tasks.add(5);
        let s = m.snapshot();
        assert_eq!(s.jobs, 1);
        assert_eq!(s.tasks, 5);
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn delta_subtracts() {
        let m = metrics();
        m.tasks.add(3);
        let before = m.snapshot();
        m.tasks.add(4);
        m.broadcasts.inc();
        let after = m.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.tasks, 4);
        assert_eq!(d.broadcasts, 1);
        assert_eq!(d.jobs, 0);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let m = metrics();
        m.tasks.add(42);
        m.broadcast_bytes.add(u64::MAX - 7);
        let s = m.snapshot();
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s, "u64 counters must survive the JSON round trip");
    }

    #[test]
    fn snapshot_display_is_one_line() {
        let m = metrics();
        m.jobs.inc();
        m.tasks.add(9);
        let line = m.snapshot().to_string();
        assert!(line.contains("jobs=1"));
        assert!(line.contains("tasks=9"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("sparkscore_tasks_total", "tasks");
        let b = reg.counter("sparkscore_tasks_total", "ignored duplicate help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name must return the same counter");
        assert_eq!(reg.len(), 1);
        let g = reg.gauge("sparkscore_running_jobs", "in-flight");
        g.add(2);
        g.add(-1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn registry_rejects_type_confusion() {
        let reg = Registry::new();
        reg.counter("x", "");
        reg.gauge("x", "");
    }

    #[test]
    fn gauge_source_is_read_at_render_and_replaced_on_reregistration() {
        let reg = Arc::new(Registry::new());
        let value = Arc::new(AtomicI64::new(7));
        let v = Arc::clone(&value);
        reg.gauge_fn("live_bytes", "read at scrape", move || {
            v.load(Ordering::Relaxed)
        });
        assert!(reg.render_prometheus().contains("live_bytes 7"));
        value.store(9, Ordering::Relaxed);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE live_bytes gauge"), "{text}");
        assert!(text.contains("live_bytes 9"), "the current value: {text}");

        reg.gauge_fn("live_bytes", "replaced", || -3);
        let text = reg.render_prometheus();
        assert!(text.contains("live_bytes -3"), "{text}");
        assert_eq!(reg.len(), 1);

        // The counter twin: read at render, typed a counter, replaced too.
        let v = Arc::clone(&value);
        reg.counter_fn("served_total", "", move || v.load(Ordering::Relaxed) as u64);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# TYPE served_total counter\nserved_total 9\n"),
            "{text}"
        );
        reg.counter_fn("served_total", "", || 11);
        assert!(reg.render_prometheus().contains("served_total 11"));
        assert_eq!(reg.len(), 2);

        // A source may use the registry: it runs outside the lock.
        let weak = Arc::downgrade(&reg);
        reg.gauge_fn("metric_count", "", move || {
            weak.upgrade()
                .map_or(0, |r| r.counter("seen_total", "").get() as i64)
        });
        assert!(reg.render_prometheus().contains("metric_count 0"));
    }

    const COUNTER: fn(&Registry) = |r| drop(r.counter("x", ""));
    const COUNTER_FN: fn(&Registry) = |r| r.counter_fn("x", "", || 1);
    const GAUGE_FN: fn(&Registry) = |r| r.gauge_fn("x", "", || 1);

    /// Register `first`, then `second` under the same name: the second
    /// panics, naming the kind the name holds.
    fn assert_clash(first: fn(&Registry), second: fn(&Registry), held: &str) {
        let reg = Registry::new();
        first(&reg);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| second(&reg)))
            .expect_err("a clashing registration panics");
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        let expected = format!("already registered as a {held}");
        // Not echoing `message`: the caller's `should_panic` reads this text.
        assert!(message.contains(&expected), "the clash names a {held}");
    }

    #[test]
    #[should_panic(expected = "already registered as a gauge")]
    fn gauge_source_clashing_with_a_push_gauge_panics() {
        assert_clash(COUNTER, COUNTER_FN, "counter");
        let reg = Registry::new();
        reg.gauge("x", "");
        reg.gauge_fn("x", "", || 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a scrape-time gauge")]
    fn push_gauge_clashing_with_a_gauge_source_panics() {
        assert_clash(COUNTER_FN, COUNTER, "scrape-time counter");
        assert_clash(COUNTER_FN, GAUGE_FN, "scrape-time counter");
        let reg = Registry::new();
        reg.gauge_fn("x", "", || 1);
        reg.gauge("x", "");
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let reg = Registry::new();
        let h = reg.histogram("h_ns", "latency", vec![10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5126);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE h_ns histogram"), "{text}");
        assert!(text.contains("h_ns_bucket{le=\"10\"} 2"), "{text}");
        assert!(text.contains("h_ns_bucket{le=\"100\"} 4"), "{text}");
        assert!(text.contains("h_ns_bucket{le=\"1000\"} 4"), "{text}");
        assert!(text.contains("h_ns_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("h_ns_sum 5126"), "{text}");
        assert!(text.contains("h_ns_count 5"), "{text}");
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let reg = Registry::new();
        reg.counter("z_total", "last");
        reg.counter("a_total", "first");
        reg.gauge("m_gauge", "middle");
        let text = reg.render_prometheus();
        let a = text.find("a_total").unwrap();
        let m = text.find("m_gauge").unwrap();
        let z = text.find("z_total").unwrap();
        assert!(a < m && m < z, "lexicographic order: {text}");
        assert_eq!(text, reg.render_prometheus());
        assert!(text.contains("# HELP a_total first"), "{text}");
        assert!(text.contains("# TYPE m_gauge gauge"), "{text}");
    }

    #[test]
    fn duration_bounds_are_increasing_decades() {
        let bounds = Histogram::duration_ns_bounds();
        assert_eq!(bounds.first(), Some(&1_000));
        assert_eq!(bounds.last(), Some(&100_000_000_000));
        assert!(bounds.windows(2).all(|w| w[1] == w[0] * 10));
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        let m = Arc::new(metrics());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.tasks.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().tasks, 8000);
    }

    #[test]
    fn histogram_boundary_observations_land_inclusively() {
        let reg = Registry::new();
        let h = reg.histogram("edge_ns", "", vec![10, 100]);
        // `le` is inclusive: a value exactly on a bound belongs to that
        // bucket, zero lands in the first bucket, and anything above the
        // last bound only reaches +Inf.
        for v in [0, 10, 100, 101, u64::MAX] {
            h.observe(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("edge_ns_bucket{le=\"10\"} 2"), "{text}");
        assert!(text.contains("edge_ns_bucket{le=\"100\"} 3"), "{text}");
        assert!(text.contains("edge_ns_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("edge_ns_count 5"), "{text}");
    }

    #[test]
    fn help_text_with_newline_and_backslash_stays_one_line() {
        let reg = Registry::new();
        reg.counter("escaped_total", "first line\nsecond \\ line");
        let text = reg.render_prometheus();
        let help_line = text
            .lines()
            .find(|l| l.starts_with("# HELP escaped_total"))
            .expect("help line present");
        assert_eq!(
            help_line,
            "# HELP escaped_total first line\\nsecond \\\\ line"
        );
        // The raw newline must not have leaked into the framing: every
        // line is either a comment or a sample.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("escaped_total"),
                "unframed line {line:?} in {text}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_names_outside_prometheus_grammar() {
        Registry::new().counter("bad-name", "hyphens are not allowed");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_leading_digit_names() {
        Registry::new().gauge("9lives", "");
    }

    #[test]
    fn concurrent_registry_counter_increments_sum_exactly() {
        use std::sync::Arc;
        let reg = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    // Half the threads race get_or_insert, half bump a
                    // fresh handle; all must hit the same counter. Render
                    // concurrently to shake out lock ordering.
                    let c = reg.counter("racy_total", "contended");
                    for i in 0..1000u64 {
                        c.inc();
                        if t == 0 && i % 250 == 0 {
                            let _ = reg.render_prometheus();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("racy_total", "").get(), 8000);
        assert!(reg.render_prometheus().contains("racy_total 8000"));
    }
}
