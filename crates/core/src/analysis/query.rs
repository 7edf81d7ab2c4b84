//! The gene-query path: a set's observed score, and Monte Carlo over every
//! set ([`SparkScoreContext::monte_carlo_grid`]) or one. Its contract is
//! its answers, bit for bit the sequential oracles' at any partition or
//! host-thread count; it picks its own jobs and layout, and keeps its
//! per-cohort state in one [`QueryIndex`].

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

use parking_lot::Mutex;
use sparkscore_rdd::{plan_tiles, BroadcastTileCache, ReplicateTile};
use sparkscore_stats::dist::fill_multipliers;
use sparkscore_stats::pvalue::StoppingRule;
use sparkscore_stats::resample::MC_TILE;
use sparkscore_stats::skat::{burden_statistic, skat_statistic};

use super::*;
use crate::result::{McGridRun, SetScore};

/// Tunables for a distributed-GEMM resampling run
/// ([`SparkScoreContext::monte_carlo_grid`]).
#[derive(Debug, Clone)]
pub struct McGridOptions {
    /// Replicate budget `B`.
    pub num_replicates: usize,
    /// Multiplier seed: replicate `r` multiplies patient `i` by
    /// `Z[r][i]` under it, on every path.
    pub seed: u64,
    /// Replicate-tile width (one multiplier tile and one kernel call per
    /// cell per tile).
    pub tile: usize,
    /// Sequential stopping rule; `None` runs the fixed-B statistical
    /// oracle path.
    pub stopping: Option<StoppingRule>,
}

impl McGridOptions {
    /// Fixed-B run at the default tile width: bitwise identical to the
    /// sequential blocked oracle.
    pub fn fixed(num_replicates: usize, seed: u64) -> Self {
        McGridOptions {
            num_replicates,
            seed,
            tile: MC_TILE,
            stopping: None,
        }
    }

    /// Adaptive run: tile rounds until every set's `rule` decision.
    pub fn adaptive(num_replicates: usize, seed: u64, rule: StoppingRule) -> Self {
        McGridOptions {
            stopping: Some(rule),
            ..Self::fixed(num_replicates, seed)
        }
    }
}

/// What the query path keeps per cohort, and the one place it lives: two
/// cohort invariants, each filled by its first reader (concurrent first
/// readers block on the one fill), and the multiplier tiles. Nothing is
/// filled when the context is built, so building one, or registering it
/// as a service cohort, runs no engine job.
pub(super) struct QueryIndex {
    /// The dense `snp id → weight` table under [`WeightsStrategy::Join`].
    weights: OnceLock<Vec<f64>>,
    /// The observed per-SNP scores `U·1`, dense by SNP id.
    scores: OnceLock<Vec<f64>>,
    /// Broadcast multiplier tiles keyed `(seed, start, width)`: a repeated
    /// same-seed query neither draws nor ships a tile it finds here.
    pub(super) tiles: BroadcastTileCache<(u64, u64, u64)>,
}

impl QueryIndex {
    pub(super) fn new(engine: Arc<Engine>) -> Self {
        QueryIndex {
            weights: OnceLock::new(),
            scores: OnceLock::new(),
            tiles: BroadcastTileCache::new(engine, 256),
        }
    }

    /// The dense `snp id → weight` table of the driver-side folds: the
    /// broadcast table under [`WeightsStrategy::Broadcast`]; under the
    /// join, gathered by the first caller (one collect job).
    fn weights<'a>(&'a self, ctx: &'a SparkScoreContext) -> &'a [f64] {
        match &ctx.weights_bc {
            Some(table) => table.value(),
            None => self
                .weights
                .get_or_init(|| dense_by_id(ctx.weights_rdd.collect(), ctx.max_snp)),
        }
    }

    /// The observed per-SNP scores, filled by one scan of `u`: any handle
    /// from the context's [`SparkScoreContext::u_dataset`], all equal.
    fn scores(&self, ctx: &SparkScoreContext, u: &Dataset<(u64, Vec<f64>)>) -> &[f64] {
        self.scores.get_or_init(|| {
            let sums = inner_sums(u, ctx.num_patients(), None).collect();
            dense_by_id(sums, ctx.max_snp)
        })
    }

    /// The round's multiplier tiles under `seed`, as `(width, Z)` kernel
    /// operands: the whole round is looked up first, its misses are drawn
    /// in one pooled pass, and then they are inserted (and broadcast).
    fn operands(
        &self,
        ctx: &SparkScoreContext,
        seed: u64,
        round: &[ReplicateTile],
    ) -> Vec<(usize, Broadcast<Vec<f64>>)> {
        let key = |t: &ReplicateTile| (seed, t.start as u64, t.width as u64);
        let cached: Vec<_> = round.iter().map(|t| self.tiles.get(&key(t))).collect();
        let missing: Vec<ReplicateTile> = round
            .iter()
            .zip(&cached)
            .filter(|(_, hit)| hit.is_none())
            .map(|(t, _)| *t)
            .collect();
        let mut drawn = draw_tiles(&ctx.engine, seed, ctx.num_patients(), &missing).into_iter();
        round
            .iter()
            .zip(cached)
            .map(|(t, hit)| {
                let z = hit.unwrap_or_else(|| {
                    let tile = drawn.next().expect("a tile per miss");
                    self.tiles.insert(key(t), tile)
                });
                (t.width, z)
            })
            .collect()
    }
}

/// Patient ranges each missing multiplier tile is cut into for the pooled
/// draw: enough chunks to balance a round over the host threads.
pub(super) const DRAW_RANGES: usize = 8;

/// Draw multiplier tiles on the executor pool: tile `t` is the
/// `n × t.width` block `Z[t.start + c][i]` in the patient-major layout
/// `perturb_rows_blocked` reads. Every multiplier is a pure function of
/// its address, so each (tile, patient range) chunk is drawn by whichever
/// pool thread claims it, with the bits the sequential oracles draw.
pub(super) fn draw_tiles(
    engine: &Engine,
    seed: u64,
    n: usize,
    tiles: &[ReplicateTile],
) -> Vec<Vec<f64>> {
    let mut drawn: Vec<Vec<f64>> = tiles.iter().map(|t| vec![0.0f64; n * t.width]).collect();
    // Chunk (tile, range) owns rows `lo..hi` of its tile; each lock is
    // taken once, by one index.
    let mut chunks = Vec::with_capacity(tiles.len() * DRAW_RANGES);
    for (t, tile) in tiles.iter().zip(&mut drawn) {
        let mut rest = tile.as_mut_slice();
        for r in 0..DRAW_RANGES {
            let (lo, hi) = (r * n / DRAW_RANGES, (r + 1) * n / DRAW_RANGES);
            let (rows, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) * t.width);
            chunks.push(Mutex::new((t, lo, rows)));
            rest = tail;
        }
    }
    engine.for_each_on_pool(chunks.len(), |c| {
        let (t, lo, rows) = &mut *chunks[c].lock();
        fill_multipliers(seed, t.start as u64, *lo as u64, t.width, rows);
    });
    drop(chunks);
    drawn
}

/// One cell's answer to a round: its active rows' SNP ids and, per tile,
/// their perturbed scores (`rows × width`, row-major).
type Cell = (Vec<u64>, Vec<Vec<f64>>);

/// One tile's perturbed scores of `urows`: `urows.len() × k` outputs.
fn perturb_tile(urows: &[&[f64]], n: usize, k: usize, z: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0f64; urows.len() * k];
    perturb_rows_blocked(urows, n, z, k, &mut out);
    out
}

/// One grid job: a task per `u` partition filters its active rows (1 in
/// the activity plane) once and perturbs them under each tile of the
/// round, counting its work and its in-tile skips (rows marked 2).
fn grid_round(
    u: &Dataset<(u64, Vec<f64>)>,
    activity: &[u8],
    operands: &[(usize, Broadcast<Vec<f64>>)],
    n: usize,
) -> Vec<Cell> {
    let round_width: usize = operands.iter().map(|(k, _)| k).sum();
    u.grid_cells(|ctx, _part, rows| {
        let mut ids: Vec<u64> = Vec::new();
        let mut urows: Vec<&[f64]> = Vec::new();
        let mut skipped = 0u64;
        for (snp, c) in rows {
            match activity.get(*snp as usize).copied().unwrap_or(0) {
                1 => {
                    ids.push(*snp);
                    urows.push(c.as_slice());
                }
                2 => skipped += 1,
                _ => {}
            }
        }
        let outs = operands
            .iter()
            .map(|(k, z)| {
                ctx.time_span("kernel:perturb", || perturb_tile(&urows, n, *k, z.value()))
            })
            .collect();
        let row_replicates = ids.len() * round_width;
        ctx.add_work(row_replicates, n as f64 * JVM_UNITS_ARITH_PER_PATIENT);
        ctx.count(&KERNEL_ROWS, (row_replicates * n) as u64);
        ctx.count(&REPLICATES_RUN, row_replicates as u64);
        ctx.count(&REPLICATES_SAVED, skipped * round_width as u64);
        (ids, outs)
    })
}

impl SparkScoreContext {
    /// The observed score of one set, as one map stage over `u` and a
    /// fold on the driver: each task reads its rows in place and returns
    /// `(snp, U_j)` for those the `snp → set` lookup gives to `set` (the
    /// full pass's reduce key, so overlapping sets keep exactly its terms);
    /// the driver folds the set's statistic over them in member order with
    /// the dense weight table. No join, no shuffle; an unknown `set` is
    /// `None` before any job.
    pub(crate) fn set_score(&self, u: &Dataset<(u64, Vec<f64>)>, set: u64) -> Option<f64> {
        let members = &self.sets[self.sets.binary_search_by_key(&set, |s| s.id).ok()?].members;
        let weights = self.index.weights(self);
        let keyed = self.snp_to_set.value();
        let arith_cost = self.num_patients() as f64 * JVM_UNITS_ARITH_PER_PATIENT;
        let kept_sums = u.grid_cells(|ctx, _part, rows| {
            let (snps, kept): (Vec<u64>, Vec<&[f64]>) = rows
                .iter()
                .filter(|(snp, _)| keyed.get(*snp as usize) == Some(&set))
                .map(|(snp, c)| (*snp, c.as_slice()))
                .unzip();
            // What the `filter` and `inner_sums` it stands for charged.
            ctx.add_work(rows.len(), 0.5);
            ctx.add_work(kept.len(), arith_cost);
            snps.into_iter().zip(row_sums(&kept)).collect::<Vec<_>>()
        });
        let sums: HashMap<u64, f64> = kept_sums.into_iter().flatten().collect();
        // A member keyed to another set is that set's term. A keyed member
        // without a row scores 0, as in the grid's dense table, so a
        // disjoint set folds the grid's terms in the grid's order.
        let terms = members.iter().filter(|&&j| keyed[j] == set).map(|&j| {
            let u_stat = sums.get(&(j as u64)).copied().unwrap_or(0.0);
            self.options.combine.term(weights[j], u_stat)
        });
        Some(self.finish(terms.sum()))
    }

    /// `(hits, misses)` of the broadcast multiplier-tile cache.
    pub fn mc_tile_cache_stats(&self) -> (u64, u64) {
        self.index.tiles.stats()
    }

    /// **Algorithm 3 as a distributed GEMM** over the replicate-tile ×
    /// partition grid, with optional adaptive early stopping.
    ///
    /// The `B × n` multiplier matrix is split into replicate tiles; each
    /// tile's `n × k` block is broadcast (memoized per `(seed, start,
    /// width)`, so a repeated query draws and ships nothing) against the
    /// caller-held — typically cached — `U` dataset, and one engine task
    /// per partition filters its SNP rows once and runs the blocked
    /// perturbation kernel over them for every tile of the job. Cells
    /// return per-SNP perturbed scores; the driver scatters them by SNP id
    /// (a pure scatter — no cross-partition summation, so no floating-point
    /// reassociation) and reduces per set sequentially, tile by tile,
    /// which keeps the fixed-B path **bitwise identical** to the
    /// single-task `monte_carlo_blocked` oracle.
    ///
    /// With a [`StoppingRule`], tiles double as sequential looks: after
    /// each tile every undecided set is tested, decided sets freeze their
    /// counts, and their member rows drop out of later grid cells
    /// (reported as `replicates_saved`). Replicate `r`'s multipliers are
    /// `Z[r][·]` on every path, so adaptivity truncates per-set replicate
    /// streams, never re-randomizes them; the single-machine
    /// `monte_carlo_adaptive` is the exact semantic oracle.
    ///
    /// A job carries every tile no look can separate ([`plan_tiles`]): a
    /// fixed-B run has no looks, and below the rule's `min_replicates` a
    /// look decides nothing, so those tiles cannot influence which rows
    /// or tiles run next. Past the floor an adaptive run launches one tile
    /// per job. The cohort invariants it reads fill on the first run.
    pub fn monte_carlo_grid(
        &self,
        u: &Dataset<(u64, Vec<f64>)>,
        opts: &McGridOptions,
    ) -> McGridRun {
        self.resample(u, None, opts)
    }

    /// Algorithm 3 for one set: `set`'s entry of
    /// [`SparkScoreContext::monte_carlo_grid`] at the same options, bit
    /// for bit, as a one-entry run. One map stage over `u` gathers the
    /// set's member rows to the driver; every round then runs there, one
    /// [`perturb_rows_blocked`] call per tile over all the gathered rows,
    /// and no job runs per round or per look. The observed score comes
    /// from the gathered rows, so the run needs neither the per-SNP score
    /// memo nor an activity plane. `None` for an unknown set, before any
    /// job.
    pub(crate) fn monte_carlo_set(
        &self,
        u: &Dataset<(u64, Vec<f64>)>,
        set: u64,
        opts: &McGridOptions,
    ) -> Option<McGridRun> {
        let s = self.sets.binary_search_by_key(&set, |s| s.id).ok()?;
        Some(self.resample(u, Some(&self.sets[s]), opts))
    }

    /// Every row of `u` that `set` lists, copied to the driver by one map
    /// stage at the scan's modeled cost: 0.5 units a scanned row, what the
    /// set query's filter charges. A member keeps its row whichever set the
    /// `snp → set` lookup gives it to: the grid's overlap rule, under
    /// which a SNP counts in every set that lists it.
    fn gather_rows(&self, u: &Dataset<(u64, Vec<f64>)>, set: &SnpSet) -> Vec<(u64, Vec<f64>)> {
        let members = set_union([set]);
        let parts = u.grid_cells(|ctx, _part, rows| {
            ctx.add_work(rows.len(), 0.5);
            let held = rows
                .iter()
                .filter(|(snp, _)| members.binary_search(snp).is_ok());
            held.cloned().collect::<Vec<_>>()
        });
        parts.into_iter().flatten().collect()
    }

    /// The resampling loop of both entries. `one` is `None` for the grid
    /// (every set, one engine task per partition of `u` per round) and the
    /// set of a one-set run (one driver cell over its gathered rows). Tile
    /// planning, the tile-cache lookup and pooled draw, the per-tile
    /// reduce and the looks are this code for both, so the two share their
    /// bits: each `(row, replicate)` chain is the same fold whichever rows
    /// share a kernel call.
    fn resample(
        &self,
        u: &Dataset<(u64, Vec<f64>)>,
        one: Option<&SnpSet>,
        opts: &McGridOptions,
    ) -> McGridRun {
        assert!(opts.tile > 0, "tile width must be positive");
        let b = opts.num_replicates;
        let (run, wall, virtual_secs, metrics) = self.measured(|| {
            let n = self.num_patients();
            let weights = self.index.weights(self);
            let gathered = one.map(|set| self.gather_rows(u, set));
            let scores = match &gathered {
                None => Cow::Borrowed(self.index.scores(self, u)),
                Some(rows) => {
                    let snps = rows.iter().map(|(snp, _)| *snp);
                    let urows: Vec<&[f64]> = rows.iter().map(|(_, c)| c.as_slice()).collect();
                    Cow::Owned(dense_by_id(snps.zip(row_sums(&urows)), self.max_snp))
                }
            };
            let sets: Vec<&SnpSet> = match one {
                None => self.sets.iter().collect(),
                Some(set) => vec![set],
            };
            let combine = self.options.combine;
            let stat = |scores: &[f64], set: &SnpSet| match combine {
                CombineMethod::Skat => skat_statistic(scores, weights, set),
                CombineMethod::Burden => burden_statistic(scores, weights, set),
            };
            let observed: Vec<f64> = sets.iter().map(|s| stat(&scores, s)).collect();
            // Rows the budget would spend work on: members of a selected set.
            let scope_rows = set_union(sets.iter().copied()).len();

            // The replicate count from which a look may decide a set.
            let barrier = opts.stopping.as_ref().map_or(b, |rule| rule.min_replicates);
            let mut counts = vec![0usize; sets.len()];
            let mut used = vec![0usize; sets.len()];
            let mut decided = vec![false; sets.len()];
            let mut replicates_run = 0u64;
            let mut perturbed = vec![0.0f64; self.max_snp];
            // The grid's per-SNP activity plane: 0 out of scope, 1 active, 2
            // member of a decided set (skipped, counted as saved work).
            // Rebuilt only after a look that decided a set.
            let mut activity: Option<Broadcast<Vec<u8>>> = None;
            let mut tiles = 0usize;
            let mut done = 0usize;
            while done < b && decided.iter().any(|d| !d) {
                let round = plan_tiles(done, b, opts.tile, barrier);
                let operands = self.index.operands(self, opts.seed, &round);
                let round_width: usize = round.iter().map(|t| t.width).sum();
                let cells: Vec<Cell> = match &gathered {
                    None => {
                        let act = activity.get_or_insert_with(|| {
                            let mut plane = vec![0u8; self.max_snp];
                            for (s, set) in sets.iter().enumerate() {
                                let mark = if decided[s] { 2u8 } else { 1u8 };
                                for &j in &set.members {
                                    plane[j] = mark;
                                }
                            }
                            self.engine.broadcast(plane)
                        });
                        grid_round(u, act.value(), &operands, n)
                    }
                    // One set: the loop runs only while it is undecided, so
                    // every gathered row is active.
                    Some(rows) => {
                        let urows: Vec<&[f64]> = rows.iter().map(|(_, c)| c.as_slice()).collect();
                        let outs = operands
                            .iter()
                            .map(|(k, z)| perturb_tile(&urows, n, *k, z.value()))
                            .collect();
                        vec![(rows.iter().map(|(snp, _)| *snp).collect(), outs)]
                    }
                };

                let active_rows: usize = cells.iter().map(|(ids, _)| ids.len()).sum();
                replicates_run += (active_rows * round_width) as u64;
                for (t, tile) in round.iter().enumerate() {
                    let k = tile.width;
                    for kk in 0..k {
                        // Scatter this replicate's perturbed scores by SNP id —
                        // stale slots belong to decided or out-of-scope rows and
                        // are never read below.
                        for (ids, outs) in &cells {
                            for (r, &snp) in ids.iter().enumerate() {
                                perturbed[snp as usize] = outs[t][r * k + kk];
                            }
                        }
                        for (s, set) in sets.iter().enumerate() {
                            if !decided[s] && stat(&perturbed, set) >= observed[s] {
                                counts[s] += 1;
                            }
                        }
                    }
                    done += k;
                    tiles += 1;
                    for s in 0..sets.len() {
                        if !decided[s] {
                            used[s] = done;
                            if opts
                                .stopping
                                .as_ref()
                                .is_some_and(|r| r.decided(counts[s], done))
                            {
                                decided[s] = true;
                                activity = None;
                            }
                        }
                    }
                }
            }

            let observed = sets.iter().zip(observed);
            (
                observed
                    .map(|(s, score)| SetScore { set: s.id, score })
                    .collect(),
                counts,
                used,
                replicates_run,
                ((scope_rows * b) as u64).saturating_sub(replicates_run),
                tiles,
            )
        });
        let (observed, counts_ge, replicates_used, replicates_run, replicates_saved, tiles) = run;
        McGridRun {
            observed,
            counts_ge,
            replicates_used,
            max_replicates: b,
            replicates_run,
            replicates_saved,
            tiles,
            wall,
            virtual_secs,
            metrics,
        }
    }

    /// [`SparkScoreContext::monte_carlo_grid`] over a fresh cached `U`
    /// dataset: builds the contributions, caches them for the tile jobs,
    /// runs the grid, and unpersists.
    pub fn monte_carlo_distributed(&self, opts: &McGridOptions) -> McGridRun {
        let u = self.u_dataset();
        u.cache();
        let run = self.monte_carlo_grid(&u, opts);
        u.unpersist();
        run
    }
}
