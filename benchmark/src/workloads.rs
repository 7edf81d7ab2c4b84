//! The six workloads: what each one sets up, what one operation is, and
//! which outputs are checked.
//!
//! A workload is driven through a [`Session`]: `setup` is the program's own
//! set-up (timed by the caller as `setup_s`), `run` is a closed loop of
//! operations for a fixed wall-clock window, `checks` validates outputs
//! after the clock has stopped. Batch workloads run one analysis call per
//! operation on the caller's thread; service workloads run two client
//! threads, each with one query outstanding, against `AnalysisService`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{
    AnalysisOptions, AnalysisService, McGridOptions, Phenotype, QueryResult, SetScore,
    SparkScoreContext,
};
use sparkscore_data::{write_dataset_to_dfs, DatasetPaths};
use sparkscore_rdd::{Dataset, Engine, JobService, ShutdownMode, TenantConfig};
use sparkscore_stats::pvalue::empirical_pvalue;
use sparkscore_stats::{StoppingRule, MC_TILE};

use crate::gen::{substream, Cohort, CohortShape, Query, QueryKind, QueryMix, Schedule, TENANTS};

/// Client threads of a service workload, each with one query outstanding.
pub const CLIENTS: usize = 2;
/// Worker threads of the job service.
pub const SERVICE_WORKERS: usize = 2;
const COHORT_NAME: &str = "bench";
const TENANT_NAMES: [&str; TENANTS] = ["lab", "biobank", "clinic"];
const TENANT_WEIGHTS: [u64; TENANTS] = [2, 1, 1];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GridCox,
    GridAffineTight,
    PaperAlg3,
    PaperAlg2,
    SvcObserved,
    SvcMc,
}

impl Kind {
    pub fn is_service(self) -> bool {
        matches!(self, Kind::SvcObserved | Kind::SvcMc)
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub cohort: CohortShape,
    /// Genotype partitions. Text cohorts get there through the DFS block
    /// size: the genotype file is cut into about this many blocks.
    pub partitions: usize,
    /// Replicates per operation: `B` of a batch call or of a fixed-B query.
    pub replicates: usize,
    /// Replicate budget of an adaptive query.
    pub adaptive_max: usize,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The percentile `op_tail_ms` reports: the highest of 50/75/90/95/99
    /// that keeps at least ten samples beyond it at this workload's
    /// operation rate. Fixed here, not picked per run, so two runs always
    /// compare the same statistic.
    pub tail_pct: u32,
    pub full: Shape,
    pub quick: Shape,
}

const fn shape(
    patients: usize,
    snps: usize,
    sets: usize,
    partitions: usize,
    replicates: usize,
    adaptive_max: usize,
) -> Shape {
    Shape {
        cohort: CohortShape {
            patients,
            snps,
            sets,
        },
        partitions,
        replicates,
        adaptive_max,
    }
}

/// Why each workload exists is recorded in `BENCHMARK.json` and the README;
/// sizes come from a sizing run on a 2-core host (see README, "Sizes").
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "grid_cox",
        kind: Kind::GridCox,
        tail_pct: 75,
        full: shape(4000, 2048, 128, 8, 128, 0),
        quick: shape(120, 96, 8, 4, 32, 0),
    },
    Workload {
        name: "grid_affine_tight",
        kind: Kind::GridAffineTight,
        tail_pct: 75,
        full: shape(4000, 2048, 128, 8, 128, 0),
        quick: shape(120, 96, 8, 4, 32, 0),
    },
    Workload {
        name: "paper_alg3",
        kind: Kind::PaperAlg3,
        tail_pct: 75,
        full: shape(1000, 4000, 40, 8, 32, 0),
        quick: shape(60, 96, 8, 4, 4, 0),
    },
    Workload {
        name: "paper_alg2",
        kind: Kind::PaperAlg2,
        tail_pct: 75,
        full: shape(1000, 4000, 40, 8, 8, 0),
        quick: shape(60, 96, 8, 4, 2, 0),
    },
    Workload {
        name: "svc_observed",
        kind: Kind::SvcObserved,
        tail_pct: 95,
        full: shape(2000, 4000, 200, 8, 0, 0),
        quick: shape(60, 96, 8, 4, 0, 0),
    },
    Workload {
        name: "svc_mc",
        kind: Kind::SvcMc,
        tail_pct: 95,
        full: shape(2000, 4000, 200, 8, 1024, 4096),
        quick: shape(60, 96, 8, 4, 64, 256),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The stopping rule of adaptive queries.
fn stopping_rule() -> StoppingRule {
    StoppingRule::new(100, 0.05, 0.02)
}

type UDataset = Dataset<(u64, Vec<f64>)>;

/// What one batch operation returned, reduced to what the checks read.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    pub observed: Vec<SetScore>,
    pub counts_ge: Vec<usize>,
    /// Replicates each set was compared against.
    pub replicates: Vec<usize>,
    /// Row-replicate units computed, and units a stopping rule avoided.
    pub replicates_run: u64,
    pub replicates_saved: u64,
    pub tiles: u64,
}

/// One finished operation of a measured window.
pub struct OpRecord {
    /// Operation index: the repetition number, or the schedule position.
    pub index: u64,
    pub latency_ms: f64,
    pub output: OpOutput,
}

pub enum OpOutput {
    Batch(BatchOutcome),
    /// `None` when the job failed or the submission was refused.
    Query(Query, Option<QueryResult>),
}

/// One closed-loop window.
pub struct Window {
    pub ops: Vec<OpRecord>,
    pub wall_s: f64,
    /// Submissions admission control refused.
    pub rejected: u64,
    /// The operation index a following window continues at.
    pub next: u64,
}

impl Window {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_ms).collect()
    }
}

pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

fn check(name: &'static str, passed: bool, detail: String) -> Check {
    Check {
        name,
        passed,
        detail,
    }
}

// One per session and never moved in bulk, so the size gap between the
// variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Driver {
    Batch {
        ctx: SparkScoreContext,
        /// The cached `U` the grid workloads share across operations.
        u: Option<UDataset>,
    },
    Service {
        analysis: AnalysisService,
        schedule: Schedule,
    },
}

/// One set-up system under test.
pub struct Session {
    pub kind: Kind,
    pub shape: Shape,
    seed: u64,
    engine: Arc<Engine>,
    driver: Driver,
}

const DFS_PREFIX: &str = "/bench";

fn build_engine(kind: Kind, shape: Shape, host_threads: usize) -> Arc<Engine> {
    let CohortShape { patients, snps, .. } = shape.cohort;
    // The paper's instance type; four nodes keep placement non-trivial.
    let builder = Engine::builder(ClusterSpec::m3_2xlarge(4)).host_threads(host_threads);
    match kind {
        // Half of U's `f64` payload: every scan of U evicts what the next
        // scan needs.
        Kind::GridAffineTight => builder.cache_budget_bytes((patients * snps * 8 / 2) as u64),
        // A genotype line is an id and two characters per patient.
        Kind::PaperAlg3 | Kind::PaperAlg2 => {
            builder.dfs_block_size((snps * (2 * patients + 8)).div_ceil(shape.partitions))
        }
        _ => builder,
    }
    .build()
}

/// The analysis context of a workload over `cohort`: Cox survival from
/// memory, except the affine workload (a quantitative trait through
/// `from_parts`) and the paper workloads (read from the DFS files `setup`
/// wrote). `setup` and the checks' reference answers both build it here.
fn context(
    kind: Kind,
    engine: &Arc<Engine>,
    cohort: &Cohort,
    partitions: usize,
) -> SparkScoreContext {
    let options = AnalysisOptions::default();
    let ds = &cohort.dataset;
    match kind {
        Kind::GridAffineTight => {
            let rows: Vec<(u64, Vec<u8>)> = ds
                .genotypes
                .iter()
                .map(|r| (r.id, r.dosages.clone()))
                .collect();
            let weights: Vec<(u64, f64)> = ds
                .weights
                .iter()
                .enumerate()
                .map(|(j, &w)| (j as u64, w))
                .collect();
            SparkScoreContext::from_parts(
                Arc::clone(engine),
                Phenotype::Quantitative(cohort.quantitative.clone()),
                engine.parallelize(rows, partitions),
                engine.parallelize(weights, partitions.clamp(1, 4)),
                &ds.sets,
                options,
            )
        }
        Kind::PaperAlg3 | Kind::PaperAlg2 => SparkScoreContext::from_dfs(
            Arc::clone(engine),
            &DatasetPaths::under(DFS_PREFIX),
            options,
        )
        .expect("setup wrote the cohort files"),
        _ => SparkScoreContext::from_memory(Arc::clone(engine), ds, partitions, options),
    }
}

impl Session {
    /// The program's own set-up: engine, input loading, context, cohort
    /// registration, and the first materialization of `U`.
    pub fn setup(
        workload: &Workload,
        shape: Shape,
        cohort: &Cohort,
        seed: u64,
        host_threads: usize,
    ) -> Session {
        let kind = workload.kind;
        let engine = build_engine(kind, shape, host_threads);
        if matches!(kind, Kind::PaperAlg3 | Kind::PaperAlg2) {
            write_dataset_to_dfs(engine.dfs(), DFS_PREFIX, &cohort.dataset)
                .expect("a fresh DFS accepts the cohort");
        }
        let ctx = context(kind, &engine, cohort, shape.partitions);
        let driver = match kind {
            Kind::GridCox | Kind::GridAffineTight => {
                let u = ctx.u_dataset();
                u.cache();
                u.count();
                Driver::Batch { ctx, u: Some(u) }
            }
            Kind::PaperAlg3 | Kind::PaperAlg2 => {
                ctx.observed();
                Driver::Batch { ctx, u: None }
            }
            Kind::SvcObserved | Kind::SvcMc => {
                let mut builder = JobService::builder(Arc::clone(&engine)).workers(SERVICE_WORKERS);
                for (name, weight) in TENANT_NAMES.iter().zip(TENANT_WEIGHTS) {
                    builder = builder.tenant(
                        *name,
                        TenantConfig {
                            max_queued: 32,
                            // Two clients can land on one tenant at once;
                            // a quota of one would serialize them.
                            max_running: CLIENTS,
                            weight,
                        },
                    );
                }
                let analysis = AnalysisService::new(builder.build());
                analysis.register_cohort(COHORT_NAME, ctx);
                let warm = analysis
                    .submit_set_query(TENANT_NAMES[0], COHORT_NAME, 0)
                    .expect("an idle service admits the warm-up query");
                analysis.wait_result(warm).expect("warm-up query answers");
                let mix = if kind == Kind::SvcObserved {
                    QueryMix::Observed
                } else {
                    QueryMix::MonteCarlo
                };
                Driver::Service {
                    analysis,
                    schedule: Schedule::new(seed, mix, shape.cohort.sets),
                }
            }
        };
        Session {
            kind,
            shape,
            seed,
            engine,
            driver,
        }
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// `(hits, misses)` of the multiplier-tile cache, where the context is
    /// reachable from outside (batch workloads only: `AnalysisService`
    /// owns its cohort's context and exposes no accessor).
    pub fn tile_cache_stats(&self) -> Option<(u64, u64)> {
        match &self.driver {
            Driver::Batch { ctx, .. } => Some(ctx.mc_tile_cache_stats()),
            Driver::Service { .. } => None,
        }
    }

    /// Admission and completion counters of the job service.
    pub fn service_stats(&self) -> Option<sparkscore_rdd::QueueStats> {
        match &self.driver {
            Driver::Batch { .. } => None,
            Driver::Service { analysis, .. } => Some(analysis.job_service().queue_status().stats),
        }
    }

    /// The multiplier seed of batch repetition `rep`: distinct per
    /// repetition, so every repetition draws tiles nobody cached.
    fn rep_seed(&self, rep: u64) -> u64 {
        substream(self.seed, 100 + rep)
    }

    fn batch_op(&self, rep: u64) -> BatchOutcome {
        let Driver::Batch { ctx, u } = &self.driver else {
            unreachable!("batch_op on a service session");
        };
        let b = self.shape.replicates;
        let seed = self.rep_seed(rep);
        match self.kind {
            Kind::GridCox | Kind::GridAffineTight => {
                let u = u.as_ref().expect("grid workloads hold a cached U");
                let run = ctx.monte_carlo_grid(u, &McGridOptions::fixed(b, seed));
                BatchOutcome {
                    observed: run.observed,
                    counts_ge: run.counts_ge,
                    replicates: run.replicates_used,
                    replicates_run: run.replicates_run,
                    replicates_saved: run.replicates_saved,
                    tiles: run.tiles as u64,
                }
            }
            Kind::PaperAlg3 | Kind::PaperAlg2 => {
                let run = if self.kind == Kind::PaperAlg3 {
                    ctx.monte_carlo(b, seed, true)
                } else {
                    ctx.permutation(b, seed)
                };
                let sets = run.observed.len();
                BatchOutcome {
                    observed: run.observed,
                    counts_ge: run.counts_ge,
                    replicates: vec![run.num_replicates; sets],
                    // Every SNP row is rescored for every replicate.
                    replicates_run: (self.shape.cohort.snps * b) as u64,
                    replicates_saved: 0,
                    tiles: 0,
                }
            }
            Kind::SvcObserved | Kind::SvcMc => unreachable!("batch_op on a service workload"),
        }
    }

    fn submit(&self, analysis: &AnalysisService, q: Query) -> Option<u64> {
        let tenant = TENANT_NAMES[q.tenant];
        match q.kind {
            QueryKind::Observed => analysis.submit_set_query(tenant, COHORT_NAME, q.set),
            QueryKind::McFixed => analysis.submit_mc_query(
                tenant,
                COHORT_NAME,
                q.set,
                self.shape.replicates,
                q.mc_seed,
            ),
            QueryKind::McAdaptive => analysis.submit_adaptive_mc_query(
                tenant,
                COHORT_NAME,
                q.set,
                self.shape.adaptive_max,
                q.mc_seed,
                stopping_rule(),
            ),
        }
        .ok()
    }

    /// Submit one query and block for its answer.
    fn ask(&self, analysis: &AnalysisService, q: Query) -> Option<QueryResult> {
        analysis.wait_result(self.submit(analysis, q)?)
    }

    /// Run operations back to back for `window`, starting at operation
    /// index `first`. At least one operation always runs.
    pub fn run(&self, first: u64, window: Duration) -> Window {
        let start = Instant::now();
        match &self.driver {
            Driver::Batch { .. } => {
                let mut ops = Vec::new();
                let mut index = first;
                while ops.is_empty() || start.elapsed() < window {
                    let t = Instant::now();
                    let outcome = self.batch_op(index);
                    ops.push(OpRecord {
                        index,
                        latency_ms: t.elapsed().as_secs_f64() * 1e3,
                        output: OpOutput::Batch(outcome),
                    });
                    index += 1;
                }
                Window {
                    ops,
                    wall_s: start.elapsed().as_secs_f64(),
                    rejected: 0,
                    next: index,
                }
            }
            Driver::Service { analysis, schedule } => {
                let next = AtomicU64::new(first);
                let rejected = AtomicU64::new(0);
                let mut ops: Vec<OpRecord> = std::thread::scope(|scope| {
                    let clients: Vec<_> = (0..CLIENTS)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut mine = Vec::new();
                                while mine.is_empty() || start.elapsed() < window {
                                    let index = next.fetch_add(1, Ordering::Relaxed);
                                    let q = schedule.query(index);
                                    let t = Instant::now();
                                    let job = self.submit(analysis, q);
                                    if job.is_none() {
                                        rejected.fetch_add(1, Ordering::Relaxed);
                                    }
                                    let result = job.and_then(|j| analysis.wait_result(j));
                                    mine.push(OpRecord {
                                        index,
                                        latency_ms: t.elapsed().as_secs_f64() * 1e3,
                                        output: OpOutput::Query(q, result),
                                    });
                                }
                                mine
                            })
                        })
                        .collect();
                    clients
                        .into_iter()
                        .flat_map(|c| c.join().expect("client thread"))
                        .collect()
                });
                let wall_s = start.elapsed().as_secs_f64();
                ops.sort_by_key(|o| o.index);
                Window {
                    ops,
                    wall_s,
                    rejected: rejected.into_inner(),
                    next: next.into_inner(),
                }
            }
        }
    }

    /// Whether one operation's own output is well formed (counted per
    /// operation in `failed`, before the cross-output checks).
    pub fn op_ok(&self, op: &OpRecord) -> bool {
        match &op.output {
            OpOutput::Batch(out) => {
                let b = self.shape.replicates;
                out.observed.len() == self.shape.cohort.sets
                    && out.replicates.iter().all(|&r| r == b)
                    && out.counts_ge.iter().all(|&c| c <= b)
            }
            OpOutput::Query(q, result) => result.as_ref().is_some_and(|r| {
                r.set == q.set
                    && match (q.kind, r.resample) {
                        (QueryKind::Observed, None) => true,
                        (QueryKind::McFixed, Some((count, used))) => {
                            used == self.shape.replicates && count <= used
                        }
                        (QueryKind::McAdaptive, Some((count, used))) => {
                            used <= self.shape.adaptive_max && count <= used
                        }
                        _ => false,
                    }
            }),
        }
    }

    /// Cross-output checks, run after the clock has stopped. Tolerances,
    /// not golden values: a change that honestly reorders a floating-point
    /// sum must not trip them.
    pub fn checks(&self, cohort: &Cohort, window: &Window) -> Vec<Check> {
        let observed = context(self.kind, &self.engine, cohort, self.shape.partitions)
            .observed()
            .scores;
        let close = |got: f64, set: u64| {
            observed
                .iter()
                .find(|s| s.set == set)
                .is_some_and(|want| (got - want.score).abs() <= 1e-9 * want.score.abs().max(1e-300))
        };
        let mut out = Vec::new();
        match &self.driver {
            Driver::Batch { ctx, .. } => {
                let first = match &window.ops[0].output {
                    OpOutput::Batch(o) => o,
                    OpOutput::Query(..) => unreachable!("batch window holds batch outcomes"),
                };
                let bad = window
                    .ops
                    .iter()
                    .filter(|op| match &op.output {
                        OpOutput::Batch(o) => !o.observed.iter().all(|s| close(s.score, s.set)),
                        OpOutput::Query(..) => true,
                    })
                    .count();
                out.push(check(
                    "observed_matches_reference",
                    bad == 0,
                    format!(
                        "{bad} of {} repetitions off by more than 1e-9",
                        window.ops.len()
                    ),
                ));
                let again = self.batch_op(window.ops[0].index);
                out.push(check(
                    "same_seed_same_answer",
                    again == *first,
                    "repetition 0 re-run at its own seed".to_string(),
                ));
                if self.kind == Kind::PaperAlg3 {
                    // The job-per-replicate path and the tile grid draw the
                    // same multiplier stream, so their p-values agree up to
                    // summation order.
                    let b = self.shape.replicates;
                    let grid = ctx.monte_carlo_distributed(&McGridOptions::fixed(
                        b,
                        self.rep_seed(window.ops[0].index),
                    ));
                    let worst = first
                        .counts_ge
                        .iter()
                        .zip(grid.pvalues())
                        .map(|(&c, p)| (empirical_pvalue(c, b) - p).abs())
                        .fold(0.0, f64::max);
                    out.push(check(
                        "alg3_pvalues_match_grid",
                        worst <= 0.02,
                        format!("largest p-value difference {worst:.4}"),
                    ));
                }
            }
            Driver::Service { analysis, .. } => {
                let answers: Vec<(&Query, &QueryResult)> = window
                    .ops
                    .iter()
                    .filter_map(|op| match &op.output {
                        OpOutput::Query(q, Some(r)) => Some((q, r)),
                        _ => None,
                    })
                    .collect();
                let bad = answers
                    .iter()
                    .filter(|(_, r)| !close(r.score, r.set))
                    .count();
                out.push(check(
                    "observed_matches_reference",
                    bad == 0,
                    format!("{bad} of {} answers off by more than 1e-9", answers.len()),
                ));
                out.push(check(
                    "zero_rejections",
                    window.rejected == 0,
                    format!("{} submissions refused", window.rejected),
                ));
                // Ask the first few queries of the window again.
                let repeats = answers.iter().take(5);
                let differing = repeats
                    .clone()
                    .filter(|(q, r)| self.ask(analysis, **q).as_ref() != Some(*r))
                    .count();
                out.push(check(
                    "same_query_same_answer",
                    differing == 0,
                    format!(
                        "{differing} of {} repeated queries differed",
                        repeats.count()
                    ),
                ));
                if self.kind == Kind::SvcMc {
                    // An adaptive answer is the fixed-B answer truncated at
                    // the replicates it consumed.
                    let sampled: Vec<_> = answers
                        .iter()
                        .filter(|(q, _)| q.kind == QueryKind::McAdaptive)
                        .take(5)
                        .collect();
                    let differing = sampled
                        .iter()
                        .filter(|(q, r)| {
                            let (_, used) = r.resample.expect("adaptive answers resample");
                            let fixed = analysis
                                .submit_mc_query(
                                    TENANT_NAMES[q.tenant],
                                    COHORT_NAME,
                                    q.set,
                                    used,
                                    q.mc_seed,
                                )
                                .ok()
                                .and_then(|j| analysis.wait_result(j));
                            fixed.map(|f| (f.score, f.resample)) != Some((r.score, r.resample))
                        })
                        .count();
                    out.push(check(
                        "adaptive_is_fixed_prefix",
                        !sampled.is_empty() && differing == 0,
                        format!(
                            "{differing} of {} sampled adaptive answers differed",
                            sampled.len()
                        ),
                    ));
                }
            }
        }
        out
    }

    /// Row-replicate units `(run, saved, tiles)` of one finished operation.
    pub fn replicate_work(&self, cohort: &Cohort, op: &OpRecord) -> (u64, u64, u64) {
        match &op.output {
            OpOutput::Batch(o) => (o.replicates_run, o.replicates_saved, o.tiles),
            OpOutput::Query(q, Some(r)) => {
                let Some((_, used)) = r.resample else {
                    return (0, 0, 0);
                };
                let members = cohort.dataset.sets[q.set as usize].len() as u64;
                let budget = match q.kind {
                    QueryKind::McAdaptive => self.shape.adaptive_max,
                    _ => self.shape.replicates,
                };
                (
                    members * used as u64,
                    members * (budget - used) as u64,
                    used.div_ceil(MC_TILE) as u64,
                )
            }
            OpOutput::Query(_, None) => (0, 0, 0),
        }
    }

    /// Stop the service (joining its workers) and release the engine.
    pub fn shutdown(self) {
        if let Driver::Service { analysis, .. } = &self.driver {
            analysis.job_service().shutdown(ShutdownMode::Drain);
        }
    }
}
