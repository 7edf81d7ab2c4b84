//! `trace` — analyze an engine event log from the command line.
//!
//! ```text
//! trace report        <log.jsonl>   full digest: totals, critical paths, skew, cache ROI
//! trace report --json <log.jsonl>   the same digest as deterministic JSON
//! trace critical-path <log.jsonl>   per-job critical path only
//! trace diff          <a.jsonl> <b.jsonl>   compare two runs
//! ```
//!
//! Output goes to stdout; parse/IO errors to stderr with a non-zero exit.

use sparkscore_obs::{critical_path_report, diff_report, report, report_json, ExecutionTrace};

const USAGE: &str = "usage: trace report [--json] <log.jsonl>\n       trace critical-path <log.jsonl>\n       trace diff <a.jsonl> <b.jsonl>";

fn load(path: &str) -> ExecutionTrace {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("trace: cannot read {path}: {err}");
            std::process::exit(1);
        }
    };
    match ExecutionTrace::parse(&text) {
        Ok(trace) => trace,
        Err(err) => {
            eprintln!("trace: cannot parse {path}: {err}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["report", path] => report(&load(path)),
        ["report", "--json", path] | ["report", path, "--json"] => {
            let mut json = report_json(&load(path)).to_string();
            json.push('\n');
            json
        }
        ["critical-path", path] => critical_path_report(&load(path)),
        ["diff", a, b] => diff_report(a, &load(a), b, &load(b)),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    // Write directly so `trace report log | head` exits quietly instead
    // of panicking when the pipe closes early.
    use std::io::Write;
    let _ = std::io::stdout().write_all(out.as_bytes());
}
