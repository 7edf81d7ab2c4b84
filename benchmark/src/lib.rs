//! End-to-end benchmark of the SparkScore stack: six workloads from gene
//! query to kernel, wall-clock, layer by layer. See `README.md` for the
//! metric and workload glossary and `BENCHMARK.json` at the repository
//! root for the declared names and bounds.
//!
//! The benchmark changes no program code: every layer is measured from
//! outside, through public functions, public counter snapshots and the
//! public `EventListener`.

pub mod direct;
pub mod gen;
pub mod metrics;
pub mod passes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::time::Instant;

use passes::Config;
use workloads::{Workload, WORKLOADS};

/// Host threads of every engine under test (the single-thread baseline
/// aside). The sandbox has two cores; the benchmark refuses to run on
/// fewer rather than report contended numbers.
pub const HOST_THREADS: usize = 2;

/// The measurement window when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const QUICK_SECONDS: f64 = 0.15;

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--out PATH]\n       benchmark compare A.json B.json";

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    /// `None` runs the measured pass, then the traced pass.
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads.push(
                    workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().collect();
    }
    Ok(parsed)
}

/// Run the command line; the return value is the process exit code.
pub fn main(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            eprintln!("{USAGE}");
            return 2;
        };
        let outcome = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
            .and_then(|bounds| report::compare(a, b, &bounds));
        return match outcome {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("compare: {e}");
                2
            }
        };
    }
    let args = match parse(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if nproc() < HOST_THREADS {
        eprintln!(
            "benchmark needs at least {HOST_THREADS} cores; this host offers {}",
            nproc()
        );
        return 3;
    }
    let config = Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        quick: args.quick,
    };
    let start = Instant::now();
    let mut results = Vec::new();
    for workload in &args.workloads {
        for traced in [false, true] {
            if args.trace.is_some_and(|only| only != traced) {
                continue;
            }
            let result = if traced {
                passes::traced(workload, &config)
            } else {
                passes::measured(workload, &config)
            };
            report::print_pass(&result);
            results.push(result);
        }
    }
    if let Some(path) = &args.out {
        let set = report::set_document(&config, &results, start.elapsed().as_secs_f64());
        if let Err(e) = report::append_out(path, set) {
            eprintln!("--out: {e}");
            return 2;
        }
    }
    if results.iter().all(|r| r.correct()) {
        0
    } else {
        1
    }
}
