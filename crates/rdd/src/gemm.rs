//! Distributed-GEMM planning for multiplier resampling.
//!
//! Algorithm 3's resampling pass is a `B×n` by `n×m` matrix multiply.
//! The grid layout splits the replicate axis into tiles and runs one
//! engine task per (round of tiles × `U`-partition) cell via
//! [`crate::Dataset::grid_cells`], each tile's `n×k` multiplier block
//! broadcast as the shared operand.
//!
//! Two pieces live here, neither of which knows what a multiplier is:
//!
//! * [`plan_tiles`] decides how many tiles one job may carry. A driver
//!   that inspects results between tiles (a sequential *look*) must end
//!   the job at the first tile whose look can change what runs next;
//!   tiles before that barrier — and every tile of a run with no looks —
//!   fuse into one job, up to [`MAX_FUSED_TILES`].
//! * [`BroadcastTileCache`] memoizes tile broadcasts by key. A repeated
//!   analysis over the same key (the multi-tenant service replaying gene
//!   queries against one cohort) therefore neither re-draws nor re-ships
//!   a tile. Lookup and insertion are separate calls, so a caller can look
//!   up a whole round of tiles, draw its misses together, and insert
//!   them.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{Broadcast, Engine};
use crate::metrics::{Counter, Gauge};

/// Most tiles [`plan_tiles`] puts in one job. A job keeps every tile's
/// broadcast alive and every cell returns `rows × replicates` outputs, so
/// the cap bounds both for an arbitrarily large replicate budget: at the
/// default 32-replicate tile, 1024 replicates — `8 KiB × patients` of
/// live tiles and `8 KiB × rows` of cell output per job.
pub const MAX_FUSED_TILES: usize = 32;

/// One tile of the replicate axis of the resampling GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicateTile {
    /// First replicate covered by the tile.
    pub start: usize,
    /// Replicates in the tile (`<= tile` for the last one).
    pub width: usize,
}

/// The tiles of the next job: contiguous tiles of at most `tile`
/// replicates covering `done..`, ending with the first tile that reaches
/// `barrier` or `total`, or after [`MAX_FUSED_TILES`].
///
/// `barrier` is the replicate count from which a look after a tile may
/// change what runs next (a stopping rule's floor); a run with no looks
/// passes `total`. Tile boundaries depend only on `tile`, so successive
/// calls cut `0..total` exactly where the single-task blocked oracle's
/// tile loop does, however the tiles are grouped into jobs.
pub fn plan_tiles(done: usize, total: usize, tile: usize, barrier: usize) -> Vec<ReplicateTile> {
    assert!(tile > 0, "tile width must be positive");
    let mut tiles = Vec::new();
    let mut start = done;
    while start < total && tiles.len() < MAX_FUSED_TILES {
        let width = tile.min(total - start);
        tiles.push(ReplicateTile { start, width });
        start += width;
        if start >= barrier {
            break;
        }
    }
    tiles
}

struct CacheInner<K> {
    map: HashMap<K, Broadcast<Vec<f64>>>,
    /// Insertion order for FIFO eviction at capacity.
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
    /// Tile payload bytes retained in `map`.
    bytes: i64,
}

/// Payload bytes of one retained tile, as the byte gauge counts them.
fn tile_bytes(tile: &Broadcast<Vec<f64>>) -> i64 {
    std::mem::size_of_val(tile.value().as_slice()) as i64
}

/// A bounded memo of broadcast operand tiles, keyed by whatever
/// identifies a tile's content (typically `(seed, start, width)`).
///
/// Hits and misses are also counted engine-wide in
/// [`Engine::registry`] as `sparkscore_gemm_tile_{hits,misses}_total`,
/// and the tile bytes every cache on the engine retains as the
/// `sparkscore_gemm_tile_cache_bytes` gauge. The gauge stays out of the
/// engine's memory ledger: the ledger accounts executor-side residency
/// (cache blocks, shuffle outputs, DFS blocks), and these tiles live on
/// the driver.
pub struct BroadcastTileCache<K: Eq + Hash + Clone> {
    engine: Arc<Engine>,
    capacity: usize,
    inner: Mutex<CacheInner<K>>,
    hits_total: Arc<Counter>,
    misses_total: Arc<Counter>,
    bytes_gauge: Arc<Gauge>,
}

impl<K: Eq + Hash + Clone> BroadcastTileCache<K> {
    /// Cache holding at most `capacity` broadcast tiles (FIFO eviction).
    pub fn new(engine: Arc<Engine>, capacity: usize) -> Self {
        assert!(capacity > 0, "tile cache capacity must be positive");
        let hits_total = engine.registry().counter(
            "sparkscore_gemm_tile_hits_total",
            "Operand tiles served from the broadcast tile cache (no draw, no broadcast)",
        );
        let misses_total = engine.registry().counter(
            "sparkscore_gemm_tile_misses_total",
            "Operand tiles drawn and broadcast on a tile cache miss",
        );
        let bytes_gauge = engine.registry().gauge(
            "sparkscore_gemm_tile_cache_bytes",
            "Operand tile bytes retained by broadcast tile caches (driver side, not in the memory ledger)",
        );
        BroadcastTileCache {
            engine,
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                bytes: 0,
            }),
            hits_total,
            misses_total,
            bytes_gauge,
        }
    }

    /// The broadcast cached under `key`, counted as a hit; `None` if
    /// absent. A miss is counted when the caller
    /// [`insert`](Self::insert)s the tile it then draws.
    pub fn get(&self, key: &K) -> Option<Broadcast<Vec<f64>>> {
        let mut inner = self.inner.lock();
        let entry = inner.map.get(key).cloned()?;
        inner.hits += 1;
        self.hits_total.inc();
        Some(entry)
    }

    /// Broadcast a tile drawn after a [`get`](Self::get) miss (charging
    /// virtual network time), retain it, and return the broadcast.
    /// Counted as a miss. The oldest entry is evicted past capacity. The
    /// caller must guarantee that equal keys always yield equal tiles.
    pub fn insert(&self, key: K, tile: Vec<f64>) -> Broadcast<Vec<f64>> {
        // Broadcast outside the lock: it charges virtual time and may
        // contend with tasks reading the clock.
        let tile = self.engine.broadcast(tile);
        let mut delta = tile_bytes(&tile);
        let mut inner = self.inner.lock();
        inner.misses += 1;
        self.misses_total.inc();
        // A racing query may have inserted the same key meanwhile; both
        // entries carry identical contents, so keep ours in its slot.
        match inner.map.insert(key.clone(), tile.clone()) {
            Some(old) => delta -= tile_bytes(&old),
            None => {
                inner.order.push_back(key);
                if inner.order.len() > self.capacity {
                    if let Some(old) = inner
                        .order
                        .pop_front()
                        .and_then(|old| inner.map.remove(&old))
                    {
                        delta -= tile_bytes(&old);
                    }
                }
            }
        }
        inner.bytes += delta;
        self.bytes_gauge.add(delta);
        tile
    }

    /// `(hits, misses)` of this cache since construction.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Broadcast tiles currently retained.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }
}

impl<K: Eq + Hash + Clone> Drop for BroadcastTileCache<K> {
    fn drop(&mut self) {
        self.bytes_gauge.add(-self.inner.get_mut().bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_cluster::ClusterSpec;

    fn widths(tiles: &[ReplicateTile]) -> Vec<(usize, usize)> {
        tiles.iter().map(|t| (t.start, t.width)).collect()
    }

    #[test]
    fn a_run_without_looks_fuses_every_tile_up_to_the_cap() {
        assert_eq!(
            widths(&plan_tiles(0, 101, 32, 101)),
            [(0, 32), (32, 32), (64, 32), (96, 5)]
        );
        assert!(plan_tiles(0, 0, 8, 0).is_empty());
        assert!(plan_tiles(40, 40, 8, 40).is_empty());
        // Past the cap the run continues in the next job, on the same
        // tile boundaries.
        let total = 4 * (MAX_FUSED_TILES + 1) + 3;
        let first = plan_tiles(0, total, 4, total);
        assert_eq!(first.len(), MAX_FUSED_TILES);
        let done = 4 * MAX_FUSED_TILES;
        assert_eq!(
            widths(&plan_tiles(done, total, 4, total)),
            [(done, 4), (done + 4, 3)]
        );
    }

    #[test]
    fn a_job_ends_at_the_first_tile_reaching_the_barrier() {
        // Looks after 32, 64 and 96 replicates cannot decide below a
        // floor of 100; the look after 128 can, so the job stops there.
        assert_eq!(
            widths(&plan_tiles(0, 400, 32, 100)),
            [(0, 32), (32, 32), (64, 32), (96, 32)]
        );
        // At or past the barrier every tile is its own job.
        assert_eq!(widths(&plan_tiles(128, 400, 32, 100)), [(128, 32)]);
        assert_eq!(widths(&plan_tiles(384, 400, 32, 100)), [(384, 16)]);
        // A barrier on a tile boundary ends the job with that tile.
        assert_eq!(widths(&plan_tiles(0, 400, 32, 64)), [(0, 32), (32, 32)]);
    }

    #[test]
    fn tile_cache_hits_skip_the_draw_and_evict_fifo() {
        let engine = Engine::builder(ClusterSpec::test_small(2)).build();
        let cache: BroadcastTileCache<(u64, u64)> = BroadcastTileCache::new(Arc::clone(&engine), 2);
        assert!(cache.get(&(7, 0)).is_none());
        let a = cache.insert((7, 0), vec![1.0, 2.0]);
        let a2 = cache.get(&(7, 0)).expect("a hit");
        assert_eq!(a.value(), a2.value());
        assert_eq!(cache.stats(), (1, 1));
        cache.insert((7, 1), vec![3.0]);
        // Third insert evicts (7, 0) — the oldest — so it misses again.
        cache.insert((7, 2), vec![4.0]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&(7, 0)).is_none());
        cache.insert((7, 0), vec![1.0, 2.0]);
        assert_eq!(
            cache.get(&(7, 0)).map(|z| z.value().clone()),
            Some(vec![1.0, 2.0])
        );
        assert_eq!(cache.stats(), (2, 4));
        let text = engine.registry().render_prometheus();
        assert!(text.contains("sparkscore_gemm_tile_hits_total 2"), "{text}");
        assert!(
            text.contains("sparkscore_gemm_tile_misses_total 4"),
            "{text}"
        );
    }

    #[test]
    fn tile_cache_bytes_gauge_follows_inserts_evictions_and_drop() {
        let engine = Engine::builder(ClusterSpec::test_small(2)).build();
        let gauge = engine
            .registry()
            .gauge("sparkscore_gemm_tile_cache_bytes", "");
        let ledger_before = engine.memory_snapshot();
        let cache: BroadcastTileCache<u64> = BroadcastTileCache::new(Arc::clone(&engine), 2);
        cache.insert(0, vec![0.0; 4]);
        cache.insert(1, vec![0.0; 2]);
        assert_eq!(gauge.get(), 6 * 8);
        // Evicts key 0's four values.
        cache.insert(2, vec![0.0; 1]);
        assert_eq!(gauge.get(), 3 * 8);
        // A racing re-insert of a retained key replaces it in place.
        cache.insert(2, vec![0.0; 1]);
        assert_eq!(gauge.get(), 3 * 8);
        // A second cache on the engine adds to the same gauge.
        let other: BroadcastTileCache<u64> = BroadcastTileCache::new(Arc::clone(&engine), 1);
        other.insert(0, vec![0.0; 5]);
        assert_eq!(gauge.get(), 8 * 8);
        // Retained tiles are driver memory, not ledger categories.
        let ledger_bytes = |r: &[crate::ledger::MemReading]| {
            r.iter().map(|m| (m.used, m.peak)).collect::<Vec<_>>()
        };
        assert_eq!(
            ledger_bytes(&engine.memory_snapshot()),
            ledger_bytes(&ledger_before)
        );
        drop(cache);
        assert_eq!(gauge.get(), 5 * 8);
        drop(other);
        assert_eq!(gauge.get(), 0);
    }
}
