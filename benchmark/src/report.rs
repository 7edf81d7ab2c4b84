//! Output: the per-metric lines and result object of one pass, the
//! `--out` document, and `compare`.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::metrics::{self, Decl};
use crate::passes::{Config, PassResult};
use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;
use crate::HOST_THREADS;

fn decls(result: &PassResult) -> &'static [Decl] {
    if result.traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    }
}

/// One line per metric, the notes and checks, then — as the last line —
/// the result object the driver reads.
pub fn print_pass(result: &PassResult) {
    let pass = if result.traced { "traced" } else { "measured" };
    println!(
        "# {} ({pass} pass): gen_s {:.4}, {} operations and checks attempted, {} failed",
        result.workload, result.gen_s, result.attempted, result.failed
    );
    for decl in decls(result) {
        let v = &result.values[decl.name];
        println!(
            "{:<18} {:<42} {:>16.4} {:<8} n={}",
            result.workload, decl.name, v.value, decl.unit, v.samples
        );
    }
    for note in &result.notes {
        println!("#   {note}");
    }
    for check in &result.checks {
        let verdict = if check.passed { "pass" } else { "FAIL" };
        println!("#   check {:<28} {verdict}  {}", check.name, check.detail);
    }
    println!("{}", result_object(result));
}

fn metrics_object(result: &PassResult, with_samples: bool) -> Value {
    Value::Object(
        decls(result)
            .iter()
            .map(|decl| {
                let v = result
                    .values
                    .get(decl.name)
                    .unwrap_or_else(|| panic!("declared metric {} was not measured", decl.name));
                let entry = if with_samples {
                    json!({"value": v.value, "unit": decl.unit, "samples": v.samples})
                } else {
                    json!({"value": v.value, "unit": decl.unit})
                };
                (decl.name.to_string(), entry)
            })
            .collect(),
    )
}

/// Exactly the keys the driver expects: `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_object(result: &PassResult) -> Value {
    json!({
        "correct": result.correct(),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics_object(result, false),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One invocation's results with the provenance needed to compare them
/// with another invocation's.
pub fn set_document(config: &Config, results: &[PassResult], total_run_s: f64) -> Value {
    let runs = results
        .iter()
        .map(|r| {
            json!({
                "workload": r.workload,
                "trace": u8::from(r.traced),
                "correct": r.correct(),
                "attempted": r.attempted,
                "failed": r.failed,
                "gen_s": r.gen_s,
                "checks": Value::Array(
                    r.checks
                        .iter()
                        .map(|c| json!({"name": c.name, "passed": c.passed, "detail": c.detail.as_str()}))
                        .collect(),
                ),
                "metrics": metrics_object(r, true),
            })
        })
        .collect();
    json!({
        "nproc": crate::nproc(),
        "host_threads": HOST_THREADS,
        "cpu_model": cpu_model(),
        "rustc": command_line("rustc", &["--version"]),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "seed": config.seed,
        "seconds": config.seconds,
        "quick": config.quick,
        "total_run_s": total_run_s,
        "runs": Value::Array(runs),
    })
}

/// Add `set` to the document at `path`, creating it if needed. Appending
/// lets a shell loop over seeds build the multi-run sets `compare` needs
/// to judge a metric's own spread.
pub fn append_out(path: &str, set: Value) -> Result<(), String> {
    let mut sets = match std::fs::read_to_string(path) {
        Ok(text) => load_sets(path, &text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    sets.push(set);
    let text = serde_json::to_string_pretty(&json!({"sets": Value::Array(sets)}))
        .map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
}

fn load_sets(path: &str, text: &str) -> Result<Vec<Value>, String> {
    let doc = serde_json::from_str_value(text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("sets")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("{path}: not a benchmark --out document (no \"sets\")"))
}

/// `(workload, metric) → values`, one per measured-pass run in the document.
fn end_to_end_values(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in load_sets(path, &text)? {
        for run in set.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
            if run.get("trace").and_then(Value::as_u64) != Some(0) {
                continue;
            }
            let (Some(workload), Some(Value::Object(metrics))) = (
                run.get("workload").and_then(Value::as_str),
                run.get("metrics"),
            ) else {
                return Err(format!("{path}: malformed run"));
            };
            for (name, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{path}: {workload}/{name} has no value"))?;
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// Direction and regression bound of one end-to-end metric, as
/// `BENCHMARK.json` fixes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn load_bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = serde_json::from_str_value(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
    {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Value::as_str),
            m.get("better").and_then(Value::as_str),
            m.get("bound").and_then(Value::as_f64),
        ) else {
            return Err("BENCHMARK.json: malformed end_to_end entry".to_string());
        };
        out.insert(
            name.to_string(),
            Bound {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    /// A side's own run-to-run spread exceeds the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge side B against side A. Each side's value is the median of its
/// runs; its spread is the quartile distance over the median, the rule
/// the benchmark's acceptance uses, and needs at least two runs.
pub fn judge(a: &[f64], b: &[f64], bound: Bound) -> (f64, Verdict) {
    let change = (median(b) - median(a)) / median(a);
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            quartile_spread(v)
        } else {
            0.0
        }
    };
    let worse_by = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let verdict = if spread(a) > bound.bound || spread(b) > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (change, verdict)
}

/// Print the comparison of two `--out` documents; `Ok(true)` when no
/// metric is worse.
pub fn compare(path_a: &str, path_b: &str, benchmark_json: &str) -> Result<bool, String> {
    let bounds = load_bounds(benchmark_json)?;
    let a = end_to_end_values(path_a)?;
    let b = end_to_end_values(path_b)?;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut ok = true;
    let mut compared = 0;
    for workload in &WORKLOADS {
        for decl in metrics::END_TO_END {
            let key = (workload.name.to_string(), decl.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = *bounds
                .get(decl.name)
                .ok_or_else(|| format!("BENCHMARK.json does not bound {}", decl.name))?;
            let (change, verdict) = judge(va, vb, bound);
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {} (A n={}, B n={})",
                workload.name,
                decl.name,
                median(va),
                median(vb),
                change * 100.0,
                bound.bound * 100.0,
                verdict.as_str(),
                va.len(),
                vb.len()
            );
            ok &= verdict != Verdict::Worse;
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("the two documents share no measured (workload, metric)".to_string());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        lower_is_better: true,
        bound: 0.1,
    };
    const HIGHER: Bound = Bound {
        lower_is_better: false,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(&[100.0], &[105.0], LOWER).1, Verdict::Within);
        assert_eq!(judge(&[100.0], &[115.0], LOWER).1, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[85.0], LOWER).1, Verdict::Better);
        assert_eq!(judge(&[100.0], &[115.0], HIGHER).1, Verdict::Better);
        assert_eq!(judge(&[100.0], &[85.0], HIGHER).1, Verdict::Worse);
        let (change, _) = judge(&[100.0], &[115.0], LOWER);
        assert!((change - 0.15).abs() < 1e-12);
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved() {
        // Two runs 100 and 120: quartiles 95 and 125, spread 30/110.
        assert_eq!(
            judge(&[100.0, 120.0], &[150.0, 151.0], LOWER).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[100.0, 101.0], &[150.0, 151.0], LOWER).1,
            Verdict::Worse
        );
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.08},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.06}
        ]}"#;
        let bounds = load_bounds(text).unwrap();
        assert_eq!(
            bounds["op_p50_ms"],
            Bound {
                lower_is_better: true,
                bound: 0.08
            }
        );
        assert!(!bounds["ops_per_s"].lower_is_better);
        assert!(load_bounds("{}").is_err());
    }
}
