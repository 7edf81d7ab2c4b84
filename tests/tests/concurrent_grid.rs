//! Two drivers on one context run the resampling grid with a cold tile
//! cache at the same time. Both draw their rounds' missing tiles through
//! the executor pool, so one of them usually finds the pool's stage slot
//! taken and draws inline, and both miss, draw and insert the same
//! same-seed tiles. Every answer must be the one the two runs give one
//! after another. `scripts/ci.sh` loops this binary.

use std::sync::Barrier;

use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, McGridOptions, McGridRun, SparkScoreContext};
use sparkscore_data::{GwasDataset, SyntheticConfig};
use sparkscore_rdd::Engine;
use sparkscore_stats::pvalue::StoppingRule;

fn context(threads: usize) -> SparkScoreContext {
    let mut cfg = SyntheticConfig::small(29);
    cfg.patients = 120;
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(threads)
        .build();
    SparkScoreContext::from_memory(
        engine,
        &GwasDataset::generate(&cfg),
        4,
        AnalysisOptions::default(),
    )
}

/// What driver `d` runs: a shared same-seed fixed-B query (both drivers
/// race to draw and insert its tiles), an adaptive query of its own, and
/// a fixed-B query of its own that is not a multiple of the tile.
fn queries(d: u64) -> Vec<McGridOptions> {
    vec![
        McGridOptions::fixed(96, 7),
        McGridOptions::adaptive(160, 11 + d, StoppingRule::new(64, 0.2, 0.05)),
        McGridOptions {
            tile: 24,
            ..McGridOptions::fixed(100, 13 + d)
        },
    ]
}

fn answer(run: &McGridRun) -> impl PartialEq + std::fmt::Debug {
    (
        run.observed.clone(),
        run.counts_ge.clone(),
        run.replicates_used.clone(),
        run.replicates_run,
        run.tiles,
    )
}

#[test]
fn two_drivers_with_a_cold_tile_cache_get_the_one_after_another_answers() {
    for threads in [2, 4] {
        let ctx = context(threads);
        let u = ctx.u_dataset();
        u.cache();
        let expected: Vec<Vec<_>> = (0..2)
            .map(|d| {
                queries(d)
                    .iter()
                    .map(|o| answer(&ctx.monte_carlo_grid(&u, o)))
                    .collect()
            })
            .collect();
        u.unpersist();

        for round in 0..2 {
            let ctx = context(threads);
            let u = ctx.u_dataset();
            u.cache();
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                for (d, want) in expected.iter().enumerate() {
                    let (ctx, u, start) = (&ctx, &u, &start);
                    s.spawn(move || {
                        start.wait();
                        for (q, (opts, want)) in queries(d as u64).iter().zip(want).enumerate() {
                            let got = answer(&ctx.monte_carlo_grid(u, opts));
                            assert_eq!(
                                &got, want,
                                "{threads} host threads, round {round}, driver {d}, query {q}"
                            );
                        }
                    });
                }
            });
            u.unpersist();
        }
    }
}
