//! live_ops — the full live observability plane on a continuously running
//! engine: flight recorder, live gauges, pool profiler, and the line-based
//! ops endpoint.
//!
//! Run with: `cargo run --release -p sparkscore-core --example live_ops -- [seconds]`
//!
//! Prints `ops endpoint listening on 127.0.0.1:<port>`, then runs repeated
//! Monte Carlo scoring rounds until the deadline. While it runs, scrape it
//! from another shell — plain `nc` works, and so does bash's `/dev/tcp`
//! where `nc` is missing:
//!
//! ```text
//! exec 3<>/dev/tcp/127.0.0.1/<port>; echo jobs >&3; cat <&3
//! exec 3<>/dev/tcp/127.0.0.1/<port>; echo metrics >&3; cat <&3
//! exec 3<>/dev/tcp/127.0.0.1/<port>; echo memory >&3; cat <&3
//! exec 3<>/dev/tcp/127.0.0.1/<port>; echo trace >&3; cat <&3 > dump.jsonl
//! cargo run -p sparkscore-obs --bin trace -- report dump.jsonl
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, SparkScoreContext};
use sparkscore_data::{GwasDataset, SyntheticConfig};
use sparkscore_obs::OpsServer;
use sparkscore_rdd::{Engine, EventListener, FlightRecorder, PoolProfiler, RegistryListener};

fn main() {
    let secs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    // The three live data sources: the engine's registry (its own counters,
    // plus the series a registry listener derives from the event bus), the
    // always-on flight recorder, and the sampling pool profiler.
    let recorder = Arc::new(FlightRecorder::new());
    let engine = Engine::builder(ClusterSpec::test_small(4))
        .listener(Arc::clone(&recorder) as Arc<dyn EventListener>)
        .build();
    let registry = Arc::clone(engine.registry());
    engine
        .events()
        .register(Arc::new(RegistryListener::with_registry(Arc::clone(
            &registry,
        ))));
    let profiler = Arc::new(
        PoolProfiler::builder(&engine)
            .interval(Duration::from_millis(5))
            .registry(Arc::clone(&registry))
            .recorder(Arc::clone(&recorder))
            .start(),
    );
    let server = OpsServer::builder()
        .registry(registry)
        .recorder(recorder)
        .profiler(Arc::clone(&profiler))
        .memory(Arc::clone(engine.memory_ledger()))
        .start()
        .expect("bind ops endpoint");
    println!("ops endpoint listening on {}", server.local_addr());
    // The smoke scraper parses that line for the port; don't leave it
    // sitting in a pipe buffer.
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    // A small synthetic cohort so individual rounds are quick and several
    // jobs cycle through the recorder while a scraper watches.
    let mut config = SyntheticConfig::small(42);
    config.patients = 120;
    config.snps = 300;
    config.snp_sets = 12;
    let dataset = GwasDataset::generate(&config);
    let ctx = SparkScoreContext::from_memory(
        Arc::clone(&engine),
        &dataset,
        8,
        AnalysisOptions::default(),
    );

    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut rounds = 0u64;
    while Instant::now() < deadline {
        let run = ctx.monte_carlo(19, rounds, true);
        rounds += 1;
        println!(
            "round {rounds}: {} replicates, {:.2} s virtual",
            run.num_replicates, run.virtual_secs
        );
    }

    println!("\nran {rounds} scoring round(s); final pool profile:");
    print!("{}", profiler.report());
    profiler.stop();
    server.stop();
}
