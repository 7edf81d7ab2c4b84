//! job_service — the always-on multi-tenant analysis service: three
//! tenants submitting gene queries against one shared cohort, with the
//! full ops surface (queue/tenants tables, metrics, tenant-attributed
//! flight recorder) scrapeable while it runs.
//!
//! Run with: `cargo run --release -p sparkscore-core --example job_service -- [seconds]`
//!
//! Prints `ops endpoint listening on 127.0.0.1:<port>`, then serves gene
//! queries until the deadline. While it runs, scrape it from another
//! shell — plain `nc` works, and so does bash's `/dev/tcp`:
//!
//! ```text
//! exec 3<>/dev/tcp/127.0.0.1/<port>; echo queue >&3; cat <&3
//! exec 3<>/dev/tcp/127.0.0.1/<port>; echo tenants >&3; cat <&3
//! exec 3<>/dev/tcp/127.0.0.1/<port>; echo metrics >&3; cat <&3
//! exec 3<>/dev/tcp/127.0.0.1/<port>; echo trace >&3; cat <&3 > dump.jsonl
//! cargo run -p sparkscore-obs --bin trace -- report --json dump.jsonl
//! ```
//!
//! All tenants share the cohort's single cached `U` contributions
//! dataset: the first query materializes it, every later query — any
//! tenant, any gene — hits the block cache, and the final metrics line
//! shows the cross-job hit count. One query in three is a Monte-Carlo
//! query at a shared seed, so the multiplier tiles are drawn and
//! broadcast once and every later MC query — any tenant, any gene —
//! finds them in the tile cache (`sparkscore_gemm_tile_*` in `metrics`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, AnalysisService, SparkScoreContext};
use sparkscore_data::{GwasDataset, SyntheticConfig};
use sparkscore_obs::OpsServer;
use sparkscore_rdd::{
    Engine, EventListener, FlightRecorder, JobService, RegistryListener, ShutdownMode, TenantConfig,
};

fn main() {
    let secs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let recorder = Arc::new(FlightRecorder::with_capacity(256, 16));
    let engine = Engine::builder(ClusterSpec::test_small(4))
        .listener(Arc::clone(&recorder) as Arc<dyn EventListener>)
        .build();
    // One registry for everything scraped under `metrics`: the engine's
    // own (its counters and driver-side ones such as the tile cache), fed
    // by the event bus and the job service as well.
    let registry = Arc::clone(engine.registry());
    engine
        .events()
        .register(Arc::new(RegistryListener::with_registry(Arc::clone(
            &registry,
        ))));

    // Three tenants with different shares: "genomics-lab" gets twice the
    // throughput of the others when everyone is backlogged.
    let quota = |weight| TenantConfig {
        max_queued: 32,
        max_running: 1,
        weight,
    };
    let service = JobService::builder(Arc::clone(&engine))
        .workers(2)
        .queue_capacity(64)
        .tenant("genomics-lab", quota(2))
        .tenant("biobank", quota(1))
        .tenant("clinic", quota(1))
        .registry(Arc::clone(&registry))
        .build();

    let server = OpsServer::builder()
        .registry(Arc::clone(&registry))
        .recorder(recorder)
        .service(Arc::clone(&service))
        .memory(Arc::clone(engine.memory_ledger()))
        .start()
        .expect("bind ops endpoint");
    println!("ops endpoint listening on {}", server.local_addr());
    // The smoke scraper parses that line for the port; don't leave it
    // sitting in a pipe buffer.
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    // One shared cohort; every tenant's queries reuse its cached U.
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
    let analysis = AnalysisService::new(Arc::clone(&service));
    analysis.register_cohort("ukb-synthetic", ctx);

    let tenants = ["genomics-lab", "biobank", "clinic"];
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut submitted = 0u64;
    let mut answered = 0u64;
    while Instant::now() < deadline {
        // A burst of queries round-robined over tenants and genes, then
        // wait for the answers so the queue breathes (and rejections
        // from the bounded queue stay visible in the `queue` counters).
        let jobs: Vec<u64> = (0..6)
            .filter_map(|i| {
                let tenant = tenants[(submitted as usize + i) % tenants.len()];
                let set = (submitted + i as u64) % 12;
                if i % 3 == 2 {
                    analysis
                        .submit_mc_query(tenant, "ukb-synthetic", set, 256, 7)
                        .ok()
                } else {
                    analysis.submit_set_query(tenant, "ukb-synthetic", set).ok()
                }
            })
            .collect();
        submitted += 6;
        for job in jobs {
            if analysis.wait_result(job).is_some() {
                answered += 1;
            }
        }
    }

    service.shutdown(ShutdownMode::Drain);
    let m = engine.metrics_snapshot();
    let tiles = |kind: &str| {
        registry
            .counter(&format!("sparkscore_gemm_tile_{kind}_total"), "")
            .get()
    };
    println!(
        "\nanswered {answered} of {submitted} queries; cache hits {} misses {} (shared U reuse); \
         multiplier tiles drawn {} reused {}",
        m.cache_hits,
        m.cache_misses,
        tiles("misses"),
        tiles("hits")
    );
    server.stop();
}
