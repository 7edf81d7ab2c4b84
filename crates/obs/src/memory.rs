//! Offline memory-timeline analysis: where the bytes lived.
//!
//! The event log carries exact byte deltas for every block that enters or
//! leaves the cache ([`EngineEvent::CacheAdmitted`] /
//! [`EngineEvent::CacheEvicted`]), every shuffle map output stored
//! ([`EngineEvent::ShuffleBytesStored`]), and one
//! [`EngineEvent::MemoryWatermark`] sample per observed stage. Replaying
//! those deltas reconstructs the run's residency timeline without any
//! live instrumentation:
//!
//! * **Per-op peak residency** — how many bytes each cached op held at its
//!   worst, and what it still held at the end of the log.
//! * **Eviction churn** — bytes re-admitted for a block that had already
//!   been evicted once: the cost of a cache budget that is too small
//!   (every churned byte was recomputed from lineage).
//! * **Budget headroom over time** — per-stage watermark samples of every
//!   ledger category against the cache budget.
//!
//! Like the rest of this crate, every analysis is a pure function of the
//! event stream with deterministic iteration order: a fixed log renders
//! byte-identical text and JSON.

use std::collections::{BTreeMap, BTreeSet};

use sparkscore_rdd::events::parse_event_log;
use sparkscore_rdd::{EngineEvent, MemReading};

use crate::report::fmt_bytes;
use crate::trace::MemWatermark;

/// Byte residency of one cached op across the replayed log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpResidency {
    pub op: u64,
    pub admissions: u64,
    pub admitted_bytes: u64,
    pub evictions: u64,
    pub evicted_bytes: u64,
    pub rejections: u64,
    pub rejected_bytes: u64,
    /// Bytes re-admitted for a (op, partition) that had already been
    /// evicted — each one paid a lineage recompute.
    pub churn_bytes: u64,
    /// Most bytes this op held resident at once.
    pub peak_bytes: u64,
    /// Bytes still resident at the end of the log.
    pub final_bytes: u64,
}

/// The replayed memory timeline of one run. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct MemoryTimeline {
    /// Per-op residency, ordered by op id.
    pub ops: Vec<OpResidency>,
    /// Per-stage watermark samples, in event order.
    pub watermarks: Vec<MemWatermark>,
    /// Most bytes the whole cache held at once (replayed, not sampled).
    pub peak_cache_bytes: u64,
    /// Cache bytes still resident at the end of the log.
    pub final_cache_bytes: u64,
    /// Total bytes re-admitted after a prior eviction of the same block.
    pub churn_bytes: u64,
    /// Map outputs written into the shuffle store.
    pub shuffle_stores: u64,
    pub shuffle_stored_bytes: u64,
}

impl MemoryTimeline {
    /// Replay a typed event stream into a timeline.
    pub fn from_events(events: &[EngineEvent]) -> Self {
        let mut tl = MemoryTimeline::default();
        let mut per_op: BTreeMap<u64, OpResidency> = BTreeMap::new();
        // Live per-block residency and the set of blocks evicted at least
        // once — membership of a re-admitted block is what defines churn.
        let mut resident: BTreeMap<(u64, usize), u64> = BTreeMap::new();
        let mut evicted_once: BTreeSet<(u64, usize)> = BTreeSet::new();
        let mut cache_now: u64 = 0;
        let mut op_now: BTreeMap<u64, u64> = BTreeMap::new();

        for event in events {
            match event {
                EngineEvent::CacheAdmitted {
                    op,
                    partition,
                    bytes,
                } => {
                    let key = (*op, *partition);
                    // A replacement put first displaces the old block.
                    if let Some(old) = resident.insert(key, *bytes) {
                        cache_now = cache_now.saturating_sub(old);
                        if let Some(n) = op_now.get_mut(op) {
                            *n = n.saturating_sub(old);
                        }
                    }
                    cache_now += bytes;
                    tl.peak_cache_bytes = tl.peak_cache_bytes.max(cache_now);
                    let acc = per_op.entry(*op).or_default();
                    acc.admissions += 1;
                    acc.admitted_bytes += bytes;
                    if evicted_once.contains(&key) {
                        acc.churn_bytes += bytes;
                        tl.churn_bytes += bytes;
                    }
                    let now = op_now.entry(*op).or_default();
                    *now += bytes;
                    acc.peak_bytes = acc.peak_bytes.max(*now);
                }
                EngineEvent::CacheEvicted {
                    op,
                    partition,
                    bytes,
                    ..
                } => {
                    let key = (*op, *partition);
                    resident.remove(&key);
                    evicted_once.insert(key);
                    cache_now = cache_now.saturating_sub(*bytes);
                    if let Some(n) = op_now.get_mut(op) {
                        *n = n.saturating_sub(*bytes);
                    }
                    let acc = per_op.entry(*op).or_default();
                    acc.evictions += 1;
                    acc.evicted_bytes += bytes;
                }
                EngineEvent::CacheRejected { op, bytes, .. } => {
                    let acc = per_op.entry(*op).or_default();
                    acc.rejections += 1;
                    acc.rejected_bytes += bytes;
                }
                EngineEvent::ShuffleBytesStored { bytes, .. } => {
                    tl.shuffle_stores += 1;
                    tl.shuffle_stored_bytes += bytes;
                }
                EngineEvent::MemoryWatermark {
                    stage,
                    block_cache_bytes,
                    shuffle_store_bytes,
                    dfs_blocks_bytes,
                    scratch_bytes,
                    cache_budget_bytes,
                    mono_ns,
                } => tl.watermarks.push(MemWatermark {
                    stage: *stage,
                    block_cache_bytes: *block_cache_bytes,
                    shuffle_store_bytes: *shuffle_store_bytes,
                    dfs_blocks_bytes: *dfs_blocks_bytes,
                    scratch_bytes: *scratch_bytes,
                    cache_budget_bytes: *cache_budget_bytes,
                    mono_ns: *mono_ns,
                }),
                _ => {}
            }
        }
        tl.final_cache_bytes = cache_now;
        tl.ops = per_op
            .into_iter()
            .map(|(op, acc)| {
                let final_bytes = op_now.get(&op).copied().unwrap_or(0);
                OpResidency {
                    op,
                    final_bytes,
                    ..acc
                }
            })
            .collect();
        tl
    }

    /// Parse a JSONL event log into a timeline.
    pub fn parse(text: &str) -> Result<Self, serde_json::Error> {
        Ok(Self::from_events(&parse_event_log(text)?))
    }

    /// Smallest cache headroom (budget − cache residency) seen in any
    /// watermark sample; `None` without samples.
    fn min_cache_headroom_bytes(&self) -> Option<u64> {
        self.watermarks
            .iter()
            .map(MemWatermark::cache_headroom_bytes)
            .min()
    }

    /// Largest all-category total seen in any watermark sample.
    fn peak_total_bytes(&self) -> u64 {
        self.watermarks
            .iter()
            .map(MemWatermark::total_bytes)
            .max()
            .unwrap_or(0)
    }

    fn totals(&self) -> OpResidency {
        let mut t = OpResidency::default();
        for o in &self.ops {
            t.admissions += o.admissions;
            t.admitted_bytes += o.admitted_bytes;
            t.evictions += o.evictions;
            t.evicted_bytes += o.evicted_bytes;
            t.rejections += o.rejections;
            t.rejected_bytes += o.rejected_bytes;
        }
        t
    }

    /// Deterministic text digest — the `trace memory` output.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = self.totals();
        let _ = writeln!(
            out,
            "memory timeline: {} admission(s) ({}), {} eviction(s) ({}), {} rejection(s) ({})",
            t.admissions,
            fmt_bytes(t.admitted_bytes),
            t.evictions,
            fmt_bytes(t.evicted_bytes),
            t.rejections,
            fmt_bytes(t.rejected_bytes),
        );
        let _ = writeln!(
            out,
            "cache residency: peak {}, final {}; eviction churn {} re-admitted",
            fmt_bytes(self.peak_cache_bytes),
            fmt_bytes(self.final_cache_bytes),
            fmt_bytes(self.churn_bytes),
        );
        let _ = writeln!(
            out,
            "shuffle store: {} map output(s), {}",
            self.shuffle_stores,
            fmt_bytes(self.shuffle_stored_bytes),
        );
        if !self.ops.is_empty() {
            let _ = writeln!(out, "per-op residency:");
            let _ = writeln!(
                out,
                "  {:<6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
                "op", "peak", "final", "admitted", "evicted", "churn"
            );
            for o in &self.ops {
                let _ = writeln!(
                    out,
                    "  {:<6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
                    o.op,
                    fmt_bytes(o.peak_bytes),
                    fmt_bytes(o.final_bytes),
                    fmt_bytes(o.admitted_bytes),
                    fmt_bytes(o.evicted_bytes),
                    fmt_bytes(o.churn_bytes),
                );
            }
        }
        if self.watermarks.is_empty() {
            let _ = writeln!(out, "no watermark samples (pre-memory-plane log?)");
        } else {
            let _ = writeln!(
                out,
                "watermarks: {} sample(s), peak total {}, min cache headroom {}",
                self.watermarks.len(),
                fmt_bytes(self.peak_total_bytes()),
                fmt_bytes(self.min_cache_headroom_bytes().unwrap_or(0)),
            );
            let _ = writeln!(
                out,
                "  {:<6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
                "stage", "cache", "shuffle", "dfs", "scratch", "headroom"
            );
            for w in &self.watermarks {
                let _ = writeln!(
                    out,
                    "  {:<6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
                    w.stage,
                    fmt_bytes(w.block_cache_bytes),
                    fmt_bytes(w.shuffle_store_bytes),
                    fmt_bytes(w.dfs_blocks_bytes),
                    fmt_bytes(w.scratch_bytes),
                    fmt_bytes(w.cache_headroom_bytes()),
                );
            }
        }
        out
    }

    /// Machine-readable mirror of [`MemoryTimeline::report`]
    /// (`trace memory --json`). Keys are emitted in fixed insertion order,
    /// so a fixed log serialises byte-identically.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::{json, Value};
        let t = self.totals();
        let ops: Vec<Value> = self
            .ops
            .iter()
            .map(|o| {
                json!({
                    "op": o.op,
                    "peak_bytes": o.peak_bytes,
                    "final_bytes": o.final_bytes,
                    "admissions": o.admissions,
                    "admitted_bytes": o.admitted_bytes,
                    "evictions": o.evictions,
                    "evicted_bytes": o.evicted_bytes,
                    "rejections": o.rejections,
                    "rejected_bytes": o.rejected_bytes,
                    "churn_bytes": o.churn_bytes,
                })
            })
            .collect();
        let watermarks: Vec<Value> = self
            .watermarks
            .iter()
            .map(|w| {
                json!({
                    "stage": w.stage,
                    "block_cache_bytes": w.block_cache_bytes,
                    "shuffle_store_bytes": w.shuffle_store_bytes,
                    "dfs_blocks_bytes": w.dfs_blocks_bytes,
                    "scratch_bytes": w.scratch_bytes,
                    "cache_budget_bytes": w.cache_budget_bytes,
                    "headroom_bytes": w.cache_headroom_bytes(),
                    "mono_ns": w.mono_ns,
                })
            })
            .collect();
        json!({
            "totals": json!({
                "admissions": t.admissions,
                "admitted_bytes": t.admitted_bytes,
                "evictions": t.evictions,
                "evicted_bytes": t.evicted_bytes,
                "rejections": t.rejections,
                "rejected_bytes": t.rejected_bytes,
                "peak_cache_bytes": self.peak_cache_bytes,
                "final_cache_bytes": self.final_cache_bytes,
                "churn_bytes": self.churn_bytes,
                "shuffle_stores": self.shuffle_stores,
                "shuffle_stored_bytes": self.shuffle_stored_bytes,
            }),
            "ops": ops,
            "watermarks": watermarks,
        })
    }
}

/// One-line peak-memory digest of a live ledger snapshot
/// (`Engine::memory_snapshot`) — what the examples print on exit.
pub fn live_digest(readings: &[MemReading]) -> String {
    let parts: Vec<String> = readings
        .iter()
        .map(|r| format!("{} {}", r.category.name(), fmt_bytes(r.peak)))
        .collect();
    let total: u64 = readings.iter().map(|r| r.peak).sum();
    format!(
        "peak memory: {} (total {})",
        parts.join(", "),
        fmt_bytes(total)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::sample_stream;

    /// Admit → evict → re-admit the same block: the second admission is
    /// churn; a second op rides along untouched.
    fn churn_stream() -> Vec<EngineEvent> {
        vec![
            EngineEvent::CacheAdmitted {
                op: 1,
                partition: 0,
                bytes: 1_000,
            },
            EngineEvent::CacheAdmitted {
                op: 2,
                partition: 0,
                bytes: 600,
            },
            EngineEvent::CacheEvicted {
                op: 1,
                partition: 0,
                pressure: true,
                bytes: 1_000,
            },
            EngineEvent::CacheAdmitted {
                op: 1,
                partition: 0,
                bytes: 1_000,
            },
            EngineEvent::CacheRejected {
                op: 3,
                partition: 0,
                bytes: 9_000,
            },
            EngineEvent::ShuffleBytesStored {
                shuffle: 0,
                map_part: 0,
                bytes: 128,
            },
        ]
    }

    #[test]
    fn replay_tracks_peaks_churn_and_finals() {
        let tl = MemoryTimeline::from_events(&churn_stream());
        assert_eq!(tl.peak_cache_bytes, 1_600);
        assert_eq!(tl.final_cache_bytes, 1_600);
        assert_eq!(tl.churn_bytes, 1_000, "re-admission after eviction");
        assert_eq!(tl.shuffle_stores, 1);
        assert_eq!(tl.shuffle_stored_bytes, 128);
        assert_eq!(tl.ops.len(), 3);
        let op1 = &tl.ops[0];
        assert_eq!((op1.op, op1.peak_bytes, op1.final_bytes), (1, 1_000, 1_000));
        assert_eq!(op1.admitted_bytes, 2_000);
        assert_eq!(op1.churn_bytes, 1_000);
        let op3 = &tl.ops[2];
        assert_eq!((op3.rejections, op3.rejected_bytes), (1, 9_000));
        assert_eq!(op3.peak_bytes, 0, "rejected bytes never became resident");
    }

    #[test]
    fn replacement_put_does_not_double_count() {
        let tl = MemoryTimeline::from_events(&[
            EngineEvent::CacheAdmitted {
                op: 1,
                partition: 0,
                bytes: 500,
            },
            EngineEvent::CacheAdmitted {
                op: 1,
                partition: 0,
                bytes: 700,
            },
        ]);
        assert_eq!(tl.peak_cache_bytes, 700);
        assert_eq!(tl.final_cache_bytes, 700);
        assert_eq!(tl.ops[0].peak_bytes, 700);
    }

    #[test]
    fn sample_stream_yields_watermark_timeline() {
        let tl = MemoryTimeline::from_events(&sample_stream());
        assert_eq!(tl.watermarks.len(), 2);
        assert_eq!(tl.peak_total_bytes(), 6_164);
        assert_eq!(
            tl.min_cache_headroom_bytes(),
            Some((1 << 20) - 2_048),
            "stage 0 held the most cache bytes"
        );
        // Op 4's block was evicted earlier in the stream and then
        // re-admitted: the full admission is churn.
        assert_eq!(tl.churn_bytes, 2_048);
        assert_eq!(tl.final_cache_bytes, 2_048);
    }

    #[test]
    fn report_and_json_are_deterministic() {
        let events = sample_stream();
        let a = MemoryTimeline::from_events(&events);
        let b = MemoryTimeline::from_events(&events);
        assert_eq!(a.report(), b.report());
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        let report = a.report();
        assert!(report.contains("memory timeline:"), "{report}");
        assert!(report.contains("eviction churn"), "{report}");
        assert!(report.contains("per-op residency:"), "{report}");
        assert!(report.contains("watermarks: 2 sample(s)"), "{report}");
        let json = a.to_json();
        let totals = json.get("totals").unwrap();
        assert_eq!(totals.get("admitted_bytes").unwrap().as_u64(), Some(2_048));
        assert_eq!(totals.get("churn_bytes").unwrap().as_u64(), Some(2_048));
        let marks = json.get("watermarks").unwrap().as_array().unwrap();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[1].get("scratch_bytes").unwrap().as_u64(), Some(256));
        let ops = json.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops[0].get("op").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn jsonl_round_trip_and_digest() {
        let text: String = sample_stream()
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let tl = MemoryTimeline::parse(&text).unwrap();
        assert_eq!(tl.watermarks.len(), 2);
        assert!(MemoryTimeline::parse("not json\n").is_err());
    }

    #[test]
    fn live_digest_names_every_category() {
        use sparkscore_rdd::{MemCategory, MemoryLedger};
        let ledger = MemoryLedger::new();
        ledger.add(MemCategory::BlockCache, 2_048);
        ledger.add(MemCategory::ShuffleStore, 512);
        let line = live_digest(&ledger.snapshot());
        assert!(line.contains("block_cache 2.0KiB"), "{line}");
        assert!(line.contains("shuffle_store 512B"), "{line}");
        assert!(line.contains("dfs_blocks 0B"), "{line}");
        assert!(line.contains("scratch 0B"), "{line}");
        assert!(line.ends_with("(total 2.5KiB)"), "{line}");
    }
}
