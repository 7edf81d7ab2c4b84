//! Sampling pool profiler: wall-clock attribution of executor time.
//!
//! [`PoolProfiler`] runs a background thread that periodically snapshots
//! the executor pool ([`crate::pool::PoolDiagnostics::snapshot`]) — each
//! participant's running/stealing/parked state, the span it is executing,
//! and the live queue depths — and accumulates the samples into a
//! wall-clock-attributed profile: `state_samples × interval` per
//! participant. Each sample also refreshes a set of live gauges (cache
//! bytes and pressure, shuffle store occupancy, flight-recorder backlog)
//! in an optional shared [`Registry`], so the ops endpoint's `metrics`
//! output reflects the engine's *current* state, not just event-derived
//! aggregates.
//!
//! The profiler holds only a `Weak<Engine>`: dropping the engine stops
//! the sampling thread on its next tick, so a profiler can never keep an
//! engine (or its pool threads) alive.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use crate::engine::Engine;
use crate::ledger::MemCategory;
use crate::metrics::{Gauge, Registry};
use crate::pool::ParticipantState;
use crate::recorder::FlightRecorder;

/// Default sampling interval.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(10);

/// Accumulated attribution for one pool participant.
#[derive(Debug, Clone, Default)]
pub struct ParticipantProfile {
    /// Samples seen in each state.
    pub running_samples: u64,
    pub stealing_samples: u64,
    pub parked_samples: u64,
    /// Span id observed at the latest sample (0 = between tasks).
    pub current_span: u64,
    /// State observed at the latest sample.
    pub current_state: ParticipantState,
}

impl ParticipantProfile {
    fn busy_fraction(&self) -> f64 {
        let total = self.running_samples + self.stealing_samples + self.parked_samples;
        if total == 0 {
            return 0.0;
        }
        self.running_samples as f64 / total as f64
    }
}

/// A point-in-time copy of the profiler's accumulated state.
#[derive(Debug, Clone, Default)]
pub struct PoolProfile {
    /// Total sampling ticks taken.
    pub samples: u64,
    /// Sampling interval, nanoseconds.
    pub interval_ns: u64,
    pub participants: Vec<ParticipantProfile>,
    /// Samples during which a stage was being executed.
    pub stage_active_samples: u64,
    /// Deepest total task-queue backlog observed in any single sample.
    pub max_queue_depth: usize,
}

impl PoolProfile {
    /// Deterministically formatted text report (values depend on timing).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pool profile: {} samples @ {}ms, stage active in {} ({} max queued tasks)",
            self.samples,
            self.interval_ns / 1_000_000,
            self.stage_active_samples,
            self.max_queue_depth,
        );
        let _ = writeln!(out, "participant  running  stealing  parked  busy%  span");
        for (i, p) in self.participants.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<11}  {:<7}  {:<8}  {:<6}  {:<5.1}  {}",
                i,
                p.running_samples,
                p.stealing_samples,
                p.parked_samples,
                100.0 * p.busy_fraction(),
                p.current_span,
            );
        }
        out
    }
}

struct ProfilerShared {
    stop: AtomicBool,
    profile: Mutex<PoolProfile>,
}

/// Live gauges the sampler refreshes each tick.
struct LiveGauges {
    cache_used_bytes: Arc<Gauge>,
    cache_budget_bytes: Arc<Gauge>,
    cache_pressure_pct: Arc<Gauge>,
    shuffle_stored_bytes: Arc<Gauge>,
    shuffle_shard_occupancy_max: Arc<Gauge>,
    shuffle_shards_occupied: Arc<Gauge>,
    pool_running: Arc<Gauge>,
    pool_stealing: Arc<Gauge>,
    pool_parked: Arc<Gauge>,
    pool_queue_depth: Arc<Gauge>,
    recorder_backlog_events: Arc<Gauge>,
    /// Per-category ledger gauges, in [`MemCategory::ALL`] order.
    mem_used: Vec<Arc<Gauge>>,
    mem_peak: Vec<Arc<Gauge>>,
}

impl LiveGauges {
    fn new(registry: &Registry) -> Self {
        let g = |name: &str, help: &str| registry.gauge(name, help);
        LiveGauges {
            cache_used_bytes: g(
                "sparkscore_cache_used_bytes",
                "Bytes resident in the block cache",
            ),
            cache_budget_bytes: g("sparkscore_cache_budget_bytes", "Block cache byte budget"),
            cache_pressure_pct: g(
                "sparkscore_cache_pressure_pct",
                "Cache fill as a percentage of the budget",
            ),
            shuffle_stored_bytes: g(
                "sparkscore_shuffle_stored_bytes",
                "Bytes held as shuffle map outputs",
            ),
            shuffle_shard_occupancy_max: g(
                "sparkscore_shuffle_shard_occupancy_max",
                "Map outputs in the fullest shuffle lock shard",
            ),
            shuffle_shards_occupied: g(
                "sparkscore_shuffle_shards_occupied",
                "Shuffle lock shards holding at least one map output",
            ),
            pool_running: g(
                "sparkscore_pool_participants_running",
                "Pool participants executing tasks at the last sample",
            ),
            pool_stealing: g(
                "sparkscore_pool_participants_stealing",
                "Pool participants scanning for work at the last sample",
            ),
            pool_parked: g(
                "sparkscore_pool_participants_parked",
                "Pool participants idle at the last sample",
            ),
            pool_queue_depth: g(
                "sparkscore_pool_queue_depth",
                "Unclaimed tasks across all participant ranges at the last sample",
            ),
            recorder_backlog_events: g(
                "sparkscore_recorder_backlog_events",
                "Events retained by the flight recorder",
            ),
            mem_used: MemCategory::ALL
                .iter()
                .map(|c| {
                    registry.gauge(
                        &format!("sparkscore_mem_{}_used_bytes", c.name()),
                        "Bytes currently resident in this memory-ledger category",
                    )
                })
                .collect(),
            mem_peak: MemCategory::ALL
                .iter()
                .map(|c| {
                    registry.gauge(
                        &format!("sparkscore_mem_{}_peak_bytes", c.name()),
                        "High watermark of this memory-ledger category",
                    )
                })
                .collect(),
        }
    }
}

/// Builder for a [`PoolProfiler`]; see the module docs.
pub struct ProfilerBuilder {
    engine: Weak<Engine>,
    interval: Duration,
    registry: Option<Arc<Registry>>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl ProfilerBuilder {
    /// Sampling interval (default [`DEFAULT_INTERVAL`]).
    pub fn interval(mut self, interval: Duration) -> Self {
        self.interval = interval.max(Duration::from_micros(100));
        self
    }

    /// Registry to refresh live gauges in each sample (e.g.
    /// [`crate::Engine::registry`], which also carries the engine's
    /// counters and a [`crate::events::RegistryListener`]'s series, so
    /// `metrics` scrapes see counts, event aggregates and live state).
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Flight recorder whose retention backlog should be exported.
    pub fn recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Start the sampling thread.
    pub fn start(self) -> PoolProfiler {
        let shared = Arc::new(ProfilerShared {
            stop: AtomicBool::new(false),
            profile: Mutex::new(PoolProfile {
                interval_ns: u64::try_from(self.interval.as_nanos()).unwrap_or(u64::MAX),
                ..PoolProfile::default()
            }),
        });
        let gauges = self.registry.as_ref().map(|r| LiveGauges::new(r));
        let thread_shared = Arc::clone(&shared);
        let engine = self.engine;
        let recorder = self.recorder;
        let interval = self.interval;
        let handle = std::thread::Builder::new()
            .name("sparkscore-profiler".to_string())
            .spawn(move || {
                sample_loop(&thread_shared, &engine, gauges, recorder, interval);
            })
            .expect("spawn profiler thread");
        PoolProfiler {
            shared,
            handle: Mutex::new(Some(handle)),
        }
    }
}

fn sample_loop(
    shared: &ProfilerShared,
    engine: &Weak<Engine>,
    gauges: Option<LiveGauges>,
    recorder: Option<Arc<FlightRecorder>>,
    interval: Duration,
) {
    while !shared.stop.load(Ordering::Acquire) {
        let Some(engine) = engine.upgrade() else {
            break; // engine gone: nothing left to sample
        };
        let snap = engine.pool_diagnostics().snapshot();
        let queue_depth: usize = snap.participants.iter().map(|p| p.queue_depth).sum();

        {
            let mut profile = shared.profile.lock();
            profile.samples += 1;
            if profile.participants.len() < snap.participants.len() {
                profile
                    .participants
                    .resize_with(snap.participants.len(), ParticipantProfile::default);
            }
            for (acc, p) in profile.participants.iter_mut().zip(&snap.participants) {
                match p.state {
                    ParticipantState::Running => acc.running_samples += 1,
                    ParticipantState::Stealing => acc.stealing_samples += 1,
                    ParticipantState::Parked => acc.parked_samples += 1,
                }
                acc.current_span = p.current_span;
                acc.current_state = p.state;
            }
            if snap.stage_active {
                profile.stage_active_samples += 1;
            }
            profile.max_queue_depth = profile.max_queue_depth.max(queue_depth);
        }

        if let Some(g) = &gauges {
            let used = engine.cache_used_bytes();
            let budget = engine.cache_budget_bytes();
            g.cache_used_bytes.set(used as i64);
            g.cache_budget_bytes.set(budget as i64);
            g.cache_pressure_pct
                .set((used * 100).checked_div(budget).unwrap_or(0) as i64);
            g.shuffle_stored_bytes
                .set(engine.shuffle_stored_bytes() as i64);
            let occupancy = engine.shuffle_shard_occupancy();
            g.shuffle_shard_occupancy_max
                .set(occupancy.iter().copied().max().unwrap_or(0) as i64);
            g.shuffle_shards_occupied
                .set(occupancy.iter().filter(|&&n| n > 0).count() as i64);
            let count = |state: ParticipantState| {
                snap.participants
                    .iter()
                    .filter(|p| p.state == state)
                    .count() as i64
            };
            g.pool_running.set(count(ParticipantState::Running));
            g.pool_stealing.set(count(ParticipantState::Stealing));
            g.pool_parked.set(count(ParticipantState::Parked));
            g.pool_queue_depth.set(queue_depth as i64);
            for (i, r) in engine.memory_snapshot().iter().enumerate() {
                g.mem_used[i].set(r.used as i64);
                g.mem_peak[i].set(r.peak as i64);
            }
            if let Some(rec) = &recorder {
                g.recorder_backlog_events.set(rec.backlog_events() as i64);
            }
        }

        drop(engine); // do not hold the engine across the sleep
        std::thread::sleep(interval);
    }
}

/// Handle to the running sampler. Stops (and joins) on [`PoolProfiler::stop`]
/// or drop.
pub struct PoolProfiler {
    shared: Arc<ProfilerShared>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl PoolProfiler {
    /// Start building a profiler for `engine`.
    pub fn builder(engine: &Arc<Engine>) -> ProfilerBuilder {
        ProfilerBuilder {
            engine: Arc::downgrade(engine),
            interval: DEFAULT_INTERVAL,
            registry: None,
            recorder: None,
        }
    }

    /// Current accumulated profile.
    fn profile(&self) -> PoolProfile {
        self.shared.profile.lock().clone()
    }

    /// Deterministically formatted text report of [`PoolProfiler::profile`].
    pub fn report(&self) -> String {
        self.profile().report()
    }

    /// Stop the sampling thread and wait for it to exit. Idempotent.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PoolProfiler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_cluster::ClusterSpec;

    #[test]
    fn profiler_samples_and_stops() {
        let engine = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .build();
        let profiler = PoolProfiler::builder(&engine)
            .interval(Duration::from_millis(1))
            .start();
        // Run some work while sampling.
        for _ in 0..5 {
            let n: u64 = engine
                .parallelize((0u64..40_000).collect::<Vec<_>>(), 8)
                .map(|x| x.wrapping_mul(2654435761).rotate_left(7))
                .filter(|x| x % 3 != 0)
                .count() as u64;
            assert!(n > 0);
        }
        std::thread::sleep(Duration::from_millis(10));
        profiler.stop();
        let profile = profiler.profile();
        assert!(profile.samples > 0, "sampler must have ticked");
        assert_eq!(profile.participants.len(), 2);
        let report = profile.report();
        assert!(report.contains("pool profile:"), "{report}");
        let frozen = profile.samples;
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(profiler.profile().samples, frozen, "stop() halts sampling");
    }

    #[test]
    fn profiler_exports_live_gauges() {
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new());
        let engine = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .listener(Arc::clone(&recorder) as Arc<dyn crate::events::EventListener>)
            .build();
        let profiler = PoolProfiler::builder(&engine)
            .interval(Duration::from_millis(1))
            .registry(Arc::clone(&registry))
            .recorder(Arc::clone(&recorder))
            .start();
        let cached = engine
            .parallelize((0u64..10_000).collect::<Vec<_>>(), 4)
            .map(|x| x + 1)
            .cache();
        assert_eq!(cached.count(), 10_000);
        std::thread::sleep(Duration::from_millis(10));
        profiler.stop();
        let text = registry.render_prometheus();
        assert!(text.contains("sparkscore_cache_used_bytes"), "{text}");
        assert!(
            text.contains("sparkscore_pool_participants_parked"),
            "{text}"
        );
        let used = registry.gauge("sparkscore_cache_used_bytes", "").get();
        assert!(used > 0, "cached blocks must show up in the gauge");
        let mem_used = registry
            .gauge("sparkscore_mem_block_cache_used_bytes", "")
            .get();
        assert_eq!(mem_used, used, "ledger gauge mirrors the cache gauge");
        assert!(
            text.contains("sparkscore_mem_shuffle_store_peak_bytes"),
            "{text}"
        );
        let backlog = registry
            .gauge("sparkscore_recorder_backlog_events", "")
            .get();
        assert!(backlog > 0, "recorder saw the job's events");
    }

    #[test]
    fn dropping_the_engine_stops_the_sampler() {
        let engine = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(1)
            .build();
        let profiler = PoolProfiler::builder(&engine)
            .interval(Duration::from_millis(1))
            .start();
        drop(engine);
        // The thread exits on its next upgrade failure; stop() then joins
        // promptly rather than blocking forever.
        std::thread::sleep(Duration::from_millis(5));
        profiler.stop();
    }
}
