//! Analysis façade over the multi-tenant [`JobService`]: cohorts with a
//! shared cached `U`, and gene-level queries submitted as service jobs.
//!
//! The paper's cache story is per-run: Algorithm 3 caches the `U`
//! contributions RDD so its own replicates reuse it. The service shape
//! scales that across *users*: one cohort's `U` is exactly the artifact
//! N tenants querying different genes all need, so
//! [`AnalysisService::register_cohort`] builds the `U` dataset **once**,
//! marks it cached, and every query job submitted against that cohort
//! reuses the same handle — the first query materializes it, every later
//! query (any tenant, any gene) hits the block cache. Because
//! `SparkScoreContext::u_dataset` mints a fresh lineage (and cache key)
//! per call, this handle sharing is the contract that makes cross-job
//! reuse real; the trace analyzer's cache-ROI section makes it visible.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sparkscore_rdd::{Dataset, JobService, RejectReason};
use sparkscore_stats::pvalue::StoppingRule;

use crate::analysis::{McGridOptions, SparkScoreContext};

/// One registered cohort: the analysis context plus the single shared
/// (cached) `U` dataset every query job reuses.
struct Cohort {
    name: String,
    ctx: SparkScoreContext,
    u: Dataset<(u64, Vec<f64>)>,
}

/// The result of one gene query job.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub tenant: String,
    pub cohort: String,
    /// The queried SNP-set (gene) id.
    pub set: u64,
    /// Observed SKAT/burden score of the set.
    pub score: f64,
    /// For Monte-Carlo queries: `(replicates ≥ observed, replicates)`,
    /// the empirical-p numerator and denominator.
    pub resample: Option<(usize, usize)>,
}

/// Why a query submission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Admission control refused the job.
    Rejected(RejectReason),
    /// No cohort registered under that name.
    UnknownCohort,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Rejected(reason) => write!(f, "rejected: {reason}"),
            QueryError::UnknownCohort => write!(f, "unknown cohort"),
        }
    }
}

type ResultSlot = Arc<Mutex<Option<QueryResult>>>;

/// Result slots by job id. A slot nobody `wait_result`-s would live
/// forever, so once the map outgrows `sweep_at` a submission drops every
/// slot whose job record the [`JobService`] has already pruned from its
/// terminal history — `wait` returns `None` for those, so the slot is
/// unreachable. Sweeping at twice the survivors keeps the cost O(1) per
/// submission and the map within twice the job service's retained
/// records (queued + running + `terminal_history`), or
/// [`MIN_RESULT_SWEEP`] if that is larger.
struct ResultSlots {
    slots: BTreeMap<u64, ResultSlot>,
    sweep_at: usize,
}

/// Smallest slot count that triggers a sweep.
const MIN_RESULT_SWEEP: usize = 64;

/// Multi-tenant analysis service: see the module docs.
pub struct AnalysisService {
    service: Arc<JobService>,
    cohorts: Mutex<BTreeMap<String, Arc<Cohort>>>,
    results: Mutex<ResultSlots>,
}

impl AnalysisService {
    /// Wrap a running [`JobService`].
    pub fn new(service: Arc<JobService>) -> Self {
        AnalysisService {
            service,
            cohorts: Mutex::new(BTreeMap::new()),
            results: Mutex::new(ResultSlots {
                slots: BTreeMap::new(),
                sweep_at: MIN_RESULT_SWEEP,
            }),
        }
    }

    /// The underlying job service (pause/resume, status, shutdown).
    pub fn job_service(&self) -> &Arc<JobService> {
        &self.service
    }

    /// Register `ctx` as cohort `name`, building its shared `U` dataset
    /// and marking it cached. Nothing is materialized yet — the first
    /// query over the cohort pays the one materialization every later
    /// query reuses. Re-registering a name replaces the cohort (the old
    /// cached blocks are unpersisted).
    pub fn register_cohort(&self, name: &str, ctx: SparkScoreContext) {
        let u = ctx.u_dataset();
        u.cache();
        let cohort = Arc::new(Cohort {
            name: name.to_string(),
            ctx,
            u,
        });
        if let Some(old) = self.cohorts.lock().insert(name.to_string(), cohort) {
            old.u.unpersist();
        }
    }

    fn cohort(&self, name: &str) -> Result<Arc<Cohort>, QueryError> {
        self.cohorts
            .lock()
            .get(name)
            .cloned()
            .ok_or(QueryError::UnknownCohort)
    }

    fn submit(
        &self,
        tenant: &str,
        payload: impl FnOnce(ResultSlot) -> Result<(), String> + Send + 'static,
    ) -> Result<u64, QueryError> {
        let slot: ResultSlot = Arc::new(Mutex::new(None));
        let job_slot = Arc::clone(&slot);
        let job = self
            .service
            .submit(tenant, move |_engine| payload(job_slot))
            .map_err(QueryError::Rejected)?;
        let mut results = self.results.lock();
        results.slots.insert(job, slot);
        if results.slots.len() > results.sweep_at {
            results
                .slots
                .retain(|&id, _| self.service.job_state(id).is_some());
            results.sweep_at = (2 * results.slots.len()).max(MIN_RESULT_SWEEP);
        }
        Ok(job)
    }

    /// Submit an observed-score query for one SNP-set of `cohort`.
    pub fn submit_set_query(
        &self,
        tenant: &str,
        cohort: &str,
        set: u64,
    ) -> Result<u64, QueryError> {
        let cohort = self.cohort(cohort)?;
        let tenant_name = tenant.to_string();
        self.submit(tenant, move |slot| {
            let score = cohort
                .ctx
                .set_score(&cohort.u, set)
                .ok_or_else(|| unknown_set(&cohort, set))?;
            *slot.lock() = Some(QueryResult {
                tenant: tenant_name,
                cohort: cohort.name.clone(),
                set,
                score,
                resample: None,
            });
            Ok(())
        })
    }

    /// Submit a Monte-Carlo query (Algorithm 3 for a single set), run as
    /// a distributed GEMM over the cohort's shared cached `U`: the set's
    /// member rows are perturbed tile-by-tile and the multiplier tiles
    /// are memoized, so same-seed queries across tenants re-broadcast
    /// nothing.
    pub fn submit_mc_query(
        &self,
        tenant: &str,
        cohort: &str,
        set: u64,
        replicates: usize,
        seed: u64,
    ) -> Result<u64, QueryError> {
        let opts = McGridOptions {
            set_filter: Some(vec![set]),
            ..McGridOptions::fixed(replicates, seed)
        };
        self.submit_grid_query(tenant, cohort, set, opts)
    }

    /// Submit an adaptive Monte-Carlo query: tile rounds of multiplier
    /// replicates until `rule` decides the set's p-value (or the
    /// `max_replicates` budget runs out). The result's resample pair is
    /// `(count ≥ observed, replicates actually consumed)` — a bitwise
    /// prefix of the fixed-B stream at the same seed.
    pub fn submit_adaptive_mc_query(
        &self,
        tenant: &str,
        cohort: &str,
        set: u64,
        max_replicates: usize,
        seed: u64,
        rule: StoppingRule,
    ) -> Result<u64, QueryError> {
        let opts = McGridOptions {
            set_filter: Some(vec![set]),
            ..McGridOptions::adaptive(max_replicates, seed, rule)
        };
        self.submit_grid_query(tenant, cohort, set, opts)
    }

    fn submit_grid_query(
        &self,
        tenant: &str,
        cohort: &str,
        set: u64,
        opts: McGridOptions,
    ) -> Result<u64, QueryError> {
        let cohort = self.cohort(cohort)?;
        let tenant_name = tenant.to_string();
        self.submit(tenant, move |slot| {
            if cohort.ctx.set_ids().binary_search(&set).is_err() {
                return Err(unknown_set(&cohort, set));
            }
            let run = cohort.ctx.monte_carlo_grid(&cohort.u, &opts);
            *slot.lock() = Some(QueryResult {
                tenant: tenant_name,
                cohort: cohort.name.clone(),
                set,
                score: run.observed[0].score,
                resample: Some((run.counts_ge[0], run.replicates_used[0])),
            });
            Ok(())
        })
    }

    /// Block until `job` is terminal and take its result. `None` if the
    /// job failed or was not submitted through this façade.
    pub fn wait_result(&self, job: u64) -> Option<QueryResult> {
        self.service.wait(job)?;
        let slot = self.results.lock().slots.remove(&job)?;
        let result = slot.lock().take();
        result
    }
}

fn unknown_set(cohort: &Cohort, set: u64) -> String {
    format!("set {set} not in cohort {:?}", cohort.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisOptions;
    use sparkscore_cluster::ClusterSpec;
    use sparkscore_data::{GwasDataset, SyntheticConfig};
    use sparkscore_rdd::{Engine, TenantConfig};

    fn small_service() -> (AnalysisService, GwasDataset) {
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .build();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let ctx =
            SparkScoreContext::from_memory(Arc::clone(&engine), &ds, 4, AnalysisOptions::default());
        let service = JobService::builder(engine)
            .workers(1)
            .tenant("a", TenantConfig::default())
            .tenant("b", TenantConfig::default())
            .build();
        let analysis = AnalysisService::new(service);
        analysis.register_cohort("main", ctx);
        (analysis, ds)
    }

    #[test]
    fn set_query_matches_full_observed_pass() {
        let (svc, ds) = small_service();
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .build();
        let oracle = SparkScoreContext::from_memory(engine, &ds, 4, AnalysisOptions::default())
            .observed()
            .scores;
        let set = oracle[3].set;
        let job = svc.submit_set_query("a", "main", set).unwrap();
        let result = svc.wait_result(job).expect("query result");
        assert_eq!(result.set, set);
        assert_eq!(result.tenant, "a");
        assert_eq!(result.cohort, "main");
        assert!((result.score - oracle[3].score).abs() <= 1e-12);
        svc.job_service()
            .shutdown(sparkscore_rdd::ShutdownMode::Drain);
    }

    #[test]
    fn observed_and_mc_queries_report_one_score_for_a_disjoint_set() {
        let (svc, ds) = small_service();
        let mut members: Vec<usize> = ds.sets.iter().flat_map(|s| s.members.clone()).collect();
        let listed = members.len();
        members.sort_unstable();
        members.dedup();
        assert_eq!(members.len(), listed, "the synthetic sets are disjoint");
        for set in ds.sets.iter().map(|s| s.id) {
            let observed = svc.submit_set_query("a", "main", set).unwrap();
            let mc = svc.submit_mc_query("b", "main", set, 4, 1).unwrap();
            let observed = svc.wait_result(observed).expect("observed answer");
            let mc = svc.wait_result(mc).expect("mc answer");
            assert_eq!(observed.score.to_bits(), mc.score.to_bits(), "set {set}");
        }
        svc.job_service()
            .shutdown(sparkscore_rdd::ShutdownMode::Drain);
    }

    #[test]
    fn an_mc_query_after_a_set_query_pays_only_its_score_scan() {
        let (svc, _) = small_service();
        let engine = Arc::clone(svc.job_service().engine());
        let job = svc.submit_set_query("a", "main", 2).unwrap();
        svc.wait_result(job).expect("observed answer");
        let jobs_before = engine.metrics_snapshot().jobs;
        let job = svc.submit_mc_query("a", "main", 2, 64, 3).unwrap();
        svc.wait_result(job).expect("mc answer");
        assert_eq!(
            engine.metrics_snapshot().jobs - jobs_before,
            2,
            "the per-SNP score scan, then one grid round: the weight table is the set query's"
        );
        svc.job_service()
            .shutdown(sparkscore_rdd::ShutdownMode::Drain);
    }

    #[test]
    fn queries_share_one_cached_u_materialization() {
        let (svc, _) = small_service();
        let engine = Arc::clone(svc.job_service().engine());
        let jobs: Vec<u64> = (0..4)
            .map(|i| svc.submit_set_query("b", "main", i).unwrap())
            .collect();
        for job in jobs {
            svc.wait_result(job).expect("query result");
        }
        let m = engine.metrics_snapshot();
        assert_eq!(
            m.cache_misses, 4,
            "U materialized once: one miss per partition, never again"
        );
        assert!(
            m.cache_hits >= 3 * 4,
            "later queries must hit the shared cache: {m:?}"
        );
        svc.job_service()
            .shutdown(sparkscore_rdd::ShutdownMode::Drain);
    }

    #[test]
    fn unknown_cohort_and_set_fail_cleanly() {
        let (svc, _) = small_service();
        assert_eq!(
            svc.submit_set_query("a", "nope", 0).unwrap_err(),
            QueryError::UnknownCohort
        );
        let engine = Arc::clone(svc.job_service().engine());
        let jobs_before = engine.metrics_snapshot().jobs;
        let job = svc.submit_set_query("a", "main", 999_999).unwrap();
        assert!(svc.wait_result(job).is_none(), "unknown set fails the job");
        assert_eq!(
            engine.metrics_snapshot().jobs,
            jobs_before,
            "an unknown set fails before any engine job"
        );
        assert_eq!(
            svc.job_service().job_state(job),
            Some(sparkscore_rdd::JobState::Failed)
        );
        let err = svc.job_service().job_error(job).unwrap();
        assert!(err.contains("set 999999"), "{err}");
    }

    #[test]
    fn unawaited_result_slots_are_bounded_by_the_terminal_history() {
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .build();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let ctx =
            SparkScoreContext::from_memory(Arc::clone(&engine), &ds, 4, AnalysisOptions::default());
        let history = 8;
        let service = JobService::builder(engine)
            .workers(1)
            .terminal_history(history)
            .tenant("a", TenantConfig::default())
            .build();
        let svc = AnalysisService::new(service);
        svc.register_cohort("main", ctx);

        // Fire-and-forget clients: far more queries than the job service
        // remembers, none of them waited for.
        let batch = 16;
        for round in 0..20 {
            for i in 0..batch {
                svc.submit_mc_query("a", "main", (round + i) % 10, 4, 1)
                    .unwrap();
            }
            svc.job_service().drain();
            let slots = svc.results.lock().slots.len();
            let bound = MIN_RESULT_SWEEP.max(2 * (batch as usize + history)) + 1;
            assert!(slots <= bound, "round {round}: {slots} slots > {bound}");
        }
        // A swept map still serves a job that is waited for.
        let job = svc.submit_mc_query("a", "main", 3, 4, 1).unwrap();
        let r = svc.wait_result(job).expect("waited job keeps its slot");
        assert_eq!(r.resample.map(|(_, used)| used), Some(4));
        assert!(!svc.results.lock().slots.contains_key(&job));
        svc.job_service()
            .shutdown(sparkscore_rdd::ShutdownMode::Drain);
    }

    #[test]
    fn mc_query_is_seed_deterministic() {
        let (svc, _) = small_service();
        let a = svc.submit_mc_query("a", "main", 2, 10, 42).unwrap();
        let b = svc.submit_mc_query("b", "main", 2, 10, 42).unwrap();
        let ra = svc.wait_result(a).unwrap();
        let rb = svc.wait_result(b).unwrap();
        assert_eq!(ra.resample, rb.resample, "same seed, same counts");
        assert_eq!(ra.score, rb.score);
        let (count, reps) = ra.resample.unwrap();
        assert_eq!(reps, 10);
        assert!(count <= reps);
    }

    #[test]
    fn adaptive_mc_query_stops_early_on_a_bitwise_prefix() {
        let (svc, _) = small_service();
        // half_width 0.2 is satisfied at the first 32-replicate tile, so
        // the query must stop far below the 400-replicate budget.
        let rule = StoppingRule::new(16, 0.2, 0.2);
        let job = svc
            .submit_adaptive_mc_query("a", "main", 2, 400, 7, rule)
            .unwrap();
        let r = svc.wait_result(job).unwrap();
        let (count, used) = r.resample.unwrap();
        assert!(used < 400, "rule must stop before the budget (used {used})");
        assert!(used >= 16 && count <= used);
        // The adaptive count is the fixed-B count truncated at `used`:
        // same seed, same tiles, only fewer of them.
        let fixed = svc.submit_mc_query("b", "main", 2, used, 7).unwrap();
        let rf = svc.wait_result(fixed).unwrap();
        assert_eq!(rf.resample, Some((count, used)));
        assert_eq!(rf.score, r.score);
        svc.job_service()
            .shutdown(sparkscore_rdd::ShutdownMode::Drain);
    }
}
