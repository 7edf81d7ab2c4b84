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
//!   histograms) with Prometheus text exposition. The engine's counters
//!   live in its own registry; [`crate::events::RegistryListener`] adds
//!   the series only the event stream can give, so a long-running engine
//!   can expose aggregate health without replaying event logs.
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
    pub fn inc(&self) {
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
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
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
    pub fn duration_ns_bounds() -> Vec<u64> {
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

    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
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

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_str(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named-metric registry with Prometheus text exposition.
///
/// Metric handles are `Arc`s: the instrumented code path holds the handle
/// and updates it lock-free; the registry only takes its lock on
/// registration and rendering. Names render in lexicographic order, so
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
        assert!(
            valid_metric_name(name),
            "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        let mut metrics = self.metrics.write();
        let (_, metric) = metrics
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), make()));
        pick(metric).unwrap_or_else(|| {
            panic!(
                "metric {name:?} already registered as a {}",
                metric.type_str()
            )
        })
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
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
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
    pub fn histogram(&self, name: &str, help: &str, bounds: Vec<u64>) -> Arc<Histogram> {
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

    pub fn len(&self) -> usize {
        self.metrics.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.read().is_empty()
    }

    /// Render every metric in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative histogram buckets with an
    /// `+Inf` bound, `_sum` and `_count` series).
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.read();
        let mut out = String::new();
        for (name, (help, metric)) in metrics.iter() {
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
