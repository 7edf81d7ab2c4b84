//! Direct calls: each layer's public entry point timed on its own, from
//! one caller thread, at the workload's shapes.
//!
//! These are the numbers a layer-local optimisation moves first. They are
//! per-layer metrics only: a gain counts when an end-to-end metric moves.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkscore_cluster::ClusterSpec;
use sparkscore_data::io::{format_genotype_line, parse_genotype_line};
use sparkscore_data::GenotypeBlock;
use sparkscore_rdd::{AdmissionQueue, Engine, JobService, ShutdownMode, TenantConfig};
use sparkscore_stats::{perturb_rows_blocked, skat_statistic, CoxScore, GaussianScore, ScoreModel};

use crate::gen::{Cohort, Rng};
use crate::stats::median;

/// Collects `(name, value, calls)` rows; every measurement is the median
/// seconds per call over as many calls as fit in the budget (at least
/// three), converted to the metric's unit by `convert`.
struct Rows {
    budget: Duration,
    rows: Vec<(&'static str, f64, usize)>,
}

impl Rows {
    fn time(&mut self, name: &'static str, convert: impl Fn(f64) -> f64, mut f: impl FnMut()) {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3 || start.elapsed() < self.budget {
            let t = Instant::now();
            f();
            samples.push(t.elapsed().as_secs_f64());
        }
        self.rows
            .push((name, convert(median(&samples)), samples.len()));
    }
}

/// `(name, value, calls)` for every direct-call metric, in declaration
/// order. `budget` bounds each measurement; `host_threads` sizes the engine
/// the engine-level calls run on.
pub fn measure(
    cohort: &Cohort,
    budget: Duration,
    host_threads: usize,
) -> Vec<(&'static str, f64, usize)> {
    let ds = &cohort.dataset;
    let n = ds.phenotypes.len();
    // One task's share of the SNP rows under the workloads' 8-way split.
    let rows: Vec<(u64, Vec<u8>)> = ds
        .genotypes
        .iter()
        .take((ds.genotypes.len() / 8).clamp(1, 256))
        .map(|r| (r.id, r.dosages.clone()))
        .collect();
    let cells = (rows.len() * n) as f64;
    let mut out = Rows {
        budget,
        rows: Vec::new(),
    };

    // --- kernels -------------------------------------------------------
    let cox = CoxScore::new(&ds.phenotypes);
    let mut u_rows = vec![vec![0.0f64; n]; rows.len()];
    out.time(
        "stats.score.cox_contrib_ns_per_cell",
        |s| s * 1e9 / cells,
        || {
            for ((_, g), u) in rows.iter().zip(u_rows.iter_mut()) {
                cox.contributions_into(black_box(g), u);
            }
            black_box(&u_rows);
        },
    );

    let k = sparkscore_stats::MC_TILE;
    let mut rng = Rng::new(1);
    let z_tile: Vec<f64> = (0..n * k).map(|_| rng.normal()).collect();
    let u_refs: Vec<&[f64]> = u_rows.iter().map(Vec::as_slice).collect();
    let mut perturbed = vec![0.0f64; u_refs.len() * k];
    out.time(
        "stats.linalg.perturb_gflops",
        |s| 2.0 * cells * k as f64 / s / 1e9,
        || {
            perturb_rows_blocked(black_box(&u_refs), n, &z_tile, k, &mut perturbed);
            black_box(&perturbed);
        },
    );

    // One byte per dosage in, so cells are bytes.
    out.time(
        "data.packed.pack_mb_per_s",
        |s| cells / 1e6 / s,
        || {
            black_box(GenotypeBlock::from_rows(n, black_box(&rows)));
        },
    );
    let block = GenotypeBlock::from_rows(n, &rows);
    let mut dosages = vec![0u8; n];
    out.time(
        "data.packed.unpack_ns_per_cell",
        |s| s * 1e9 / cells,
        || {
            for c in 0..block.num_snps() {
                block.unpack_into(c, &mut dosages);
                black_box(&dosages);
            }
        },
    );

    let gaussian = GaussianScore::new(&cohort.quantitative);
    let mut contrib = vec![0.0f64; n];
    out.time(
        "stats.bitkern.packed_contrib_ns_per_cell",
        |s| s * 1e9 / cells,
        || {
            for c in 0..block.num_snps() {
                let packed =
                    gaussian.contributions_into_packed(black_box(block.column(c)), &mut contrib);
                assert!(packed, "the Gaussian model scores packed columns directly");
                black_box(&contrib);
            }
        },
    );

    let scores: Vec<f64> = (0..ds.weights.len()).map(|_| rng.normal()).collect();
    let members: usize = ds.sets.iter().map(|s| s.len()).sum();
    out.time(
        "stats.skat.statistic_ns_per_member",
        |s| s * 1e9 / members as f64,
        || {
            for set in &ds.sets {
                black_box(skat_statistic(black_box(&scores), &ds.weights, set));
            }
        },
    );

    // --- input path ----------------------------------------------------
    let lines: Vec<String> = ds
        .genotypes
        .iter()
        .take(rows.len())
        .map(format_genotype_line)
        .collect();
    let text = lines.join("\n");
    let text_mb = text.len() as f64 / 1e6;
    out.time(
        "data.io.parse_mb_per_s",
        |s| text_mb / s,
        || {
            for line in &lines {
                black_box(parse_genotype_line(black_box(line)));
            }
        },
    );

    let engine = Engine::builder(ClusterSpec::m3_2xlarge(4))
        .host_threads(host_threads)
        .build();
    engine
        .dfs()
        .write_text("/direct/genotypes.txt", &text)
        .expect("fresh DFS accepts a file");
    out.time(
        "dfs.read_mb_per_s",
        |s| text_mb / s,
        || {
            black_box(engine.dfs().read_to_string("/direct/genotypes.txt")).expect("file exists");
        },
    );

    // --- engine ----------------------------------------------------------
    // One task runs inline on the driver; eight go through the pool.
    let one = engine.parallelize(vec![0u64], 1);
    out.time(
        "rdd.engine.empty_job_us",
        |s| s * 1e6,
        || {
            black_box(one.count());
        },
    );
    let eight = engine.parallelize((0u64..8).collect(), 8);
    out.time(
        "rdd.engine.stage_launch_us",
        |s| s * 1e6,
        || {
            black_box(eight.count());
        },
    );

    // One multiplier tile, cloned per call as the program draws a fresh
    // one per broadcast.
    let tile_mb = (z_tile.len() * 8) as f64 / 1e6;
    out.time(
        "rdd.engine.broadcast_us_per_mb",
        |s| s * 1e6 / tile_mb,
        || {
            black_box(engine.broadcast(z_tile.clone()));
        },
    );

    let records: Vec<(u64, f64)> = (0..4000u64).map(|i| (i % 1000, i as f64)).collect();
    out.time(
        "rdd.shuffle.roundtrip_us",
        |s| s * 1e6,
        || {
            let summed = engine
                .parallelize(records.clone(), 8)
                .reduce_by_key(8, |a, b| a + b);
            assert_eq!(summed.count(), 1000);
        },
    );

    // A cached dataset shaped like `U`, scanned the way the observed pass
    // scans it.
    let u_like: Vec<(u64, Vec<f64>)> = (0..8 * u_rows.len())
        .map(|j| (j as u64, u_rows[j % u_rows.len()].clone()))
        .collect();
    let scan_gb = (u_like.len() * n * 8) as f64 / 1e9;
    let cached = engine.parallelize(u_like, 8);
    cached.cache();
    cached.count();
    out.time(
        "rdd.cache.scan_gb_per_s",
        |s| scan_gb / s,
        || {
            black_box(
                cached
                    .run_partitions(|p| p.iter().map(|(_, c)| c.iter().sum::<f64>()).sum::<f64>()),
            );
        },
    );

    // --- service ---------------------------------------------------------
    let service = JobService::builder(Arc::clone(&engine))
        .workers(1)
        .tenant("t", TenantConfig::default())
        .build();
    out.time(
        "rdd.service.noop_roundtrip_us",
        |s| s * 1e6,
        || {
            let job = service
                .submit("t", |_| Ok(()))
                .expect("idle service admits");
            service.wait(job).expect("job is known");
        },
    );
    service.shutdown(ShutdownMode::Drain);

    let mut queue = AdmissionQueue::new(256);
    for tenant in ["a", "b", "c"] {
        queue.register_tenant(tenant, TenantConfig::default());
    }
    const CYCLES: usize = 1000;
    // Three queue operations per cycle.
    out.time(
        "rdd.service.admission_ns_per_op",
        |s| s * 1e9 / (3 * CYCLES) as f64,
        || {
            for i in 0..CYCLES {
                queue
                    .submit(["a", "b", "c"][i % 3])
                    .expect("queue has room");
                let (tenant, _) = queue.pick().expect("a job is queued");
                queue.finish(&tenant, false);
            }
        },
    );
    out.rows
}
