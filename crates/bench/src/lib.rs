//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each experiment binary (`experiment_a`, `experiment_b`, `experiment_c`,
//! `sensitivity`) builds the paper's workload (optionally scaled down),
//! runs the SparkScore pipelines on the simulated cluster, and prints the
//! same rows/series the paper reports, with the paper's own numbers
//! alongside for shape comparison. The *virtual cluster time* is the
//! quantity corresponding to the paper's y-axes (their wall-clock on EMR);
//! host wall time is reported for transparency.

use std::sync::Arc;

use sparkscore_cluster::{ClusterSpec, ContainerRequest};
use sparkscore_core::{AnalysisOptions, ResamplingRun, SparkScoreContext};
use sparkscore_data::{GwasDataset, SyntheticConfig};
use sparkscore_obs::{fmt_ns, stage_table, ExecutionTrace};
use sparkscore_rdd::{Engine, EventListener, EventLogListener};

/// Common command-line options for the experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Divide the paper's SNP/set counts by this factor (default keeps the
    /// runs laptop-sized; `--paper-scale` sets it to 1).
    pub scale: usize,
    /// Skip the most expensive configurations.
    pub quick: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 100,
            quick: false,
        }
    }
}

impl HarnessOptions {
    /// Parse `--scale N`, `--paper-scale`, `--quick` from the
    /// process arguments; anything else is rejected with usage help.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    opts.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale requires a positive integer");
                }
                "--paper-scale" => opts.scale = 1,
                "--quick" => opts.quick = true,
                other => {
                    eprintln!("unknown argument {other}");
                    eprintln!("usage: [--scale N | --paper-scale] [--quick]");
                    std::process::exit(2);
                }
            }
        }
        assert!(opts.scale >= 1);
        opts
    }
}

/// One measured configuration: a single run, since virtual time is a pure
/// function of the configuration.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    pub iterations: usize,
    /// Virtual cluster seconds.
    pub virtual_secs: f64,
    /// Host wall seconds.
    pub wall_secs: f64,
}

impl Measurement {
    fn of(iterations: usize, run: &ResamplingRun) -> Self {
        Measurement {
            iterations,
            virtual_secs: run.virtual_secs,
            wall_secs: run.wall.as_secs_f64(),
        }
    }
}

/// DFS block size giving ~16 input partitions for the workload's genotype
/// file — the block-count regime the paper's HDFS layout produced (its
/// 100K-SNP matrix spans ~2 x 128 MiB blocks, the 1M-SNP one ~16), which
/// bounds map-side parallelism below the slot count just as EMR did.
fn block_size_for(cfg: &SyntheticConfig) -> usize {
    // ~2 characters per dosage plus the SNP id prefix, per line.
    let text_bytes = cfg.snps * (2 * cfg.patients + 8);
    (text_bytes / 16).clamp(16 * 1024, 128 * 1024 * 1024)
}

/// Build an engine shaped like the paper's cluster, with DFS blocks sized
/// for the workload.
pub fn paper_engine(nodes: u32, cfg: &SyntheticConfig) -> Arc<Engine> {
    Engine::builder(ClusterSpec::m3_2xlarge(nodes))
        .dfs_block_size(block_size_for(cfg))
        .build()
}

/// Engine with an explicit YARN container allocation (experiment C).
pub fn container_engine(nodes: u32, req: ContainerRequest, cfg: &SyntheticConfig) -> Arc<Engine> {
    Engine::builder(ClusterSpec::m3_2xlarge(nodes))
        .dfs_block_size(block_size_for(cfg))
        .containers(req)
        .build()
}

/// Engine whose block-cache budget is constrained to `bytes` — used to
/// model the memory pressure behind the paper's superlinear Fig 6 scaling.
pub fn pressured_engine(nodes: u32, cache_budget: u64, cfg: &SyntheticConfig) -> Arc<Engine> {
    Engine::builder(ClusterSpec::m3_2xlarge(nodes))
        .dfs_block_size(block_size_for(cfg))
        .cache_budget_bytes(cache_budget)
        .build()
}

/// Directory where experiment event logs land: `$SPARKSCORE_EVENTS_DIR`
/// when set (CI points this at a scratch dir), else `target/events`.
fn events_dir() -> std::path::PathBuf {
    std::env::var_os("SPARKSCORE_EVENTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/events"))
}

/// Observability attached to one experiment: a JSONL event log on disk,
/// read back as an [`ExecutionTrace`] at the end. Create with [`observe`]
/// *before* handing the engine to [`context_on`]; call
/// [`Observability::finish`] at the end to flush the log and print the
/// stage table and trace digest.
pub struct Observability {
    /// Where the JSONL event log is being written.
    pub log_path: std::path::PathBuf,
    log: Arc<EventLogListener>,
}

/// Attach an event log (`<events_dir>/<name>.jsonl`, see `events_dir`)
/// to `engine`.
pub fn observe(engine: &Arc<Engine>, name: &str) -> Observability {
    let log_path = events_dir().join(format!("{name}.jsonl"));
    let log =
        Arc::new(EventLogListener::to_file(&log_path).expect("create event log in events dir"));
    engine
        .events()
        .register(Arc::clone(&log) as Arc<dyn EventListener>);
    Observability { log_path, log }
}

impl Observability {
    /// Flush the event log, parse it back, and print its per-stage table
    /// ([`stage_table`]), the log location and the trace digest. Long runs
    /// produce hundreds of stages; the console table keeps the head and
    /// tail and points at the JSONL log for the full stream.
    pub fn finish(&self) {
        let _ = self.log.flush();
        let trace = match std::fs::read_to_string(&self.log_path)
            .map_err(|e| e.to_string())
            .and_then(|text| ExecutionTrace::parse(&text).map_err(|e| e.to_string()))
        {
            Ok(trace) => trace,
            Err(e) => {
                println!("event log {} unreadable: {e}", self.log_path.display());
                return;
            }
        };
        println!("\n== per-stage summary ==");
        let table = stage_table(&trace);
        let lines: Vec<&str> = table.lines().collect();
        const HEAD: usize = 22; // 2 header lines + first 20 stages
        const TAIL: usize = 10;
        if lines.len() <= HEAD + TAIL + 1 {
            print!("{table}");
        } else {
            for l in &lines[..HEAD] {
                println!("{l}");
            }
            println!("| ... {} stages elided ... |", lines.len() - HEAD - TAIL);
            for l in &lines[lines.len() - TAIL..] {
                println!("{l}");
            }
        }
        println!("event log: {}", self.log_path.display());
        print!("{}", trace_digest(&trace));
    }
}

/// Compact critical-path + cache-ROI digest for a finished run: the
/// slowest job's stage chain and bottleneck, plus the run-wide cache
/// economics. (The full per-job breakdown is `trace report <log>`.)
fn trace_digest(trace: &ExecutionTrace) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "\n== trace digest ==");
    let paths = sparkscore_obs::critical_paths(trace);
    if let Some(worst) = paths.iter().max_by_key(|p| (p.path_ns, p.job)) {
        let chain: Vec<String> = worst.stages.iter().map(|s| s.stage.to_string()).collect();
        let _ = writeln!(
            out,
            "slowest job: {} of {} jobs, critical path {} over stages [{}]",
            worst.job,
            paths.len(),
            fmt_ns(worst.path_ns),
            chain.join(" -> "),
        );
        if let Some(b) = worst.bottleneck() {
            let kind = b.kind.map_or("?", sparkscore_rdd::StageKind::as_str);
            let _ = writeln!(
                out,
                "bottleneck: stage {} ({kind}, {} tasks, makespan {})",
                b.stage,
                b.num_tasks,
                fmt_ns(b.makespan_ns),
            );
        }
    } else {
        let _ = writeln!(out, "no jobs in log");
    }
    let _ = writeln!(
        out,
        "{}",
        sparkscore_obs::cache_roi_line(&sparkscore_obs::cache_roi(trace))
    );
    let _ = writeln!(
        out,
        "full analysis: cargo run -p sparkscore-obs --bin trace -- report <log>"
    );
    out
}

/// Build the analysis context for a synthetic workload on `engine`,
/// through the paper's actual input path: serialize the cohort to DFS
/// text files, then build the pipeline with `from_dfs` — so lineage
/// recomputation really pays the HDFS-read-and-parse cost that drives the
/// paper's caching results.
pub fn context_on(engine: Arc<Engine>, cfg: &SyntheticConfig) -> SparkScoreContext {
    let options = AnalysisOptions {
        reduce_partitions: (engine.layout().total_slots() / 2).clamp(4, 64),
        ..AnalysisOptions::default()
    };
    context_with(engine, cfg, options)
}

/// [`context_on`] with the analysis options spelled out (the ablations).
pub fn context_with(
    engine: Arc<Engine>,
    cfg: &SyntheticConfig,
    options: AnalysisOptions,
) -> SparkScoreContext {
    let dataset = GwasDataset::generate(cfg);
    let (paths, _) = sparkscore_data::write_dataset_to_dfs(engine.dfs(), "/bench", &dataset)
        .expect("fresh engine has an empty DFS");
    SparkScoreContext::from_dfs(engine, &paths, options).expect("inputs just written")
}

/// Estimated bytes of the cached `U` RDD for a workload: one `f64` per
/// (SNP, patient) — what Algorithm 3 asks the cluster to hold.
pub fn u_rdd_bytes(cfg: &SyntheticConfig) -> u64 {
    cfg.snps as u64 * cfg.patients as u64 * 8
}

/// Run Monte Carlo resampling and convert to a measurement series entry.
pub fn measure_mc(ctx: &SparkScoreContext, iterations: usize, cache: bool) -> Measurement {
    Measurement::of(iterations, &ctx.monte_carlo(iterations, 1000, cache))
}

/// Run permutation resampling and convert to a measurement.
pub fn measure_perm(ctx: &SparkScoreContext, iterations: usize) -> Measurement {
    Measurement::of(iterations, &ctx.permutation(iterations, 2000))
}

// ---------- table printing ----------

/// Print a Markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Format seconds compactly.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// A PASS/FAIL shape check line.
pub fn shape_check(name: &str, ok: bool) {
    println!("shape[{}]: {name}", if ok { "PASS" } else { "FAIL" });
}

/// Paper reference numbers (seconds) for side-by-side printing.
pub mod paper {
    /// Table III: Experiment A average runtimes, by iterations.
    pub const TABLE_III_ITERS: [usize; 8] = [0, 2, 4, 8, 16, 100, 1000, 10000];
    pub const TABLE_III_MC: [f64; 8] = [509.4, 532.2, 532.4, 516.4, 542.8, 590.4, 1170.8, 7036.6];
    /// Permutation was only run to 16 iterations (funding limits).
    pub const TABLE_III_PERM: [f64; 5] = [509.4, 1535.2, 2594.4, 4628.4, 8818.6];

    /// Table V: Experiment B (10K SNPs) average runtimes, by iterations.
    pub const TABLE_V_ITERS: [usize; 13] = [
        0, 10, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 10000,
    ];
    pub const TABLE_V_CACHED: [f64; 13] = [
        94.0, 101.0, 132.0, 140.4, 163.6, 178.4, 188.2, 214.8, 225.5, 241.8, 257.4, 283.0, 1928.6,
    ];
    /// No-cache numbers stop at 200 iterations in the paper.
    pub const TABLE_V_NOCACHE: [f64; 3] = [641.4, 5418.0, 10709.0];
    pub const TABLE_V_NOCACHE_ITERS: [usize; 3] = [10, 100, 200];

    /// Lookup a paper value by iteration count; `None` when the paper has
    /// no measurement (printed as "N/A", as the paper does).
    pub fn lookup(iters: &[usize], values: &[f64], i: usize) -> Option<f64> {
        iters
            .iter()
            .position(|&x| x == i)
            .and_then(|p| values.get(p).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lookup() {
        assert_eq!(
            paper::lookup(&paper::TABLE_III_ITERS, &paper::TABLE_III_MC, 1000),
            Some(1170.8)
        );
        assert_eq!(
            paper::lookup(&paper::TABLE_III_ITERS, &paper::TABLE_III_MC, 3),
            None
        );
    }

    #[test]
    fn u_rdd_bytes_scales() {
        let cfg = SyntheticConfig::small(0);
        assert_eq!(u_rdd_bytes(&cfg), 50 * 200 * 8);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(secs(0.1234), "0.123");
    }

    #[test]
    fn harness_end_to_end_smoke() {
        // A miniature experiment-A style run through the helpers.
        let mut cfg = SyntheticConfig::small(9);
        cfg.patients = 30;
        cfg.snps = 60;
        cfg.snp_sets = 4;
        let ctx = context_on(paper_engine(2, &cfg), &cfg);
        let mc = measure_mc(&ctx, 3, true);
        let perm = measure_perm(&ctx, 3);
        assert!(mc.virtual_secs > 0.0);
        assert!(perm.virtual_secs > mc.virtual_secs * 0.5);
        assert_eq!(mc.iterations, 3);
    }
}
