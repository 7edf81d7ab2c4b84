//! Graphviz DOT export of a trace: jobs as clusters, stages as nodes
//! annotated with time and shuffle volume, dependency edges along each
//! job's stage chain, and the per-job bottleneck stage highlighted.
//!
//! Render with e.g. `dot -Tsvg trace.dot -o trace.svg`.

use sparkscore_rdd::StageKind;

use crate::analyze::critical_paths;
use crate::report::{fmt_bytes, fmt_ns};
use crate::trace::{ExecutionTrace, TraceStage};

fn stage_label(s: &TraceStage) -> String {
    let kind = s.kind.map_or("?", |k| match k {
        StageKind::Result => "Result",
        StageKind::ShuffleMap => "ShuffleMap",
    });
    let mut label = format!(
        "stage {}\\n{} · {} tasks\\n{}",
        s.stage,
        kind,
        s.num_tasks,
        fmt_ns(s.makespan_ns)
    );
    let (r, w) = (s.shuffle_read_bytes(), s.shuffle_write_bytes());
    if r > 0 || w > 0 {
        label.push_str(&format!(
            "\\nshuffle R {} / W {}",
            fmt_bytes(r),
            fmt_bytes(w)
        ));
    }
    let hits = s.cache_hits();
    let misses = s.cache_misses();
    if hits > 0 || misses > 0 {
        label.push_str(&format!("\\ncache {hits}H/{misses}M"));
    }
    label
}

/// Render the trace as a deterministic DOT digraph.
pub fn to_dot(trace: &ExecutionTrace) -> String {
    let mut out = String::new();
    out.push_str("digraph trace {\n");
    out.push_str("  rankdir=LR;\n");
    out.push_str("  node [shape=box, fontname=\"monospace\"];\n");

    // Per-job bottleneck stages get highlighted.
    let bottlenecks: Vec<u64> = critical_paths(trace)
        .iter()
        .filter_map(|p| p.bottleneck().map(|s| s.stage))
        .collect();

    for job in &trace.jobs {
        out.push_str(&format!("  subgraph cluster_job_{} {{\n", job.job));
        out.push_str(&format!(
            "    label=\"job {} ({})\";\n",
            job.job,
            fmt_ns(job.virtual_advance_ns)
        ));
        for &sid in &job.stages {
            if let Some(s) = trace.stage(sid) {
                let style = if bottlenecks.contains(&sid) {
                    ", style=bold, color=red"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "    s{} [label=\"{}\"{}];\n",
                    sid,
                    stage_label(s),
                    style
                ));
            }
        }
        for pair in job.stages.windows(2) {
            out.push_str(&format!("    s{} -> s{};\n", pair[0], pair[1]));
        }
        out.push_str("  }\n");
    }

    // Engine-internal stages (no owning job) in their own cluster.
    let internal: Vec<&TraceStage> = trace.stages.iter().filter(|s| s.job.is_none()).collect();
    if !internal.is_empty() {
        out.push_str("  subgraph cluster_internal {\n");
        out.push_str("    label=\"engine-internal\";\n    style=dashed;\n");
        for s in internal {
            out.push_str(&format!(
                "    s{} [label=\"{}\"];\n",
                s.stage,
                stage_label(s)
            ));
        }
        out.push_str("  }\n");
    }

    // Jobs run sequentially on the driver: dashed ordering edges between
    // the last stage of one job and the first stage of the next.
    for pair in trace.jobs.windows(2) {
        if let (Some(&from), Some(&to)) = (pair[0].stages.last(), pair[1].stages.first()) {
            out.push_str(&format!("  s{from} -> s{to} [style=dashed];\n"));
        }
    }

    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::sample_stream;

    #[test]
    fn dot_is_deterministic_and_structured() {
        let trace = ExecutionTrace::from_events(&sample_stream());
        let a = to_dot(&trace);
        let b = to_dot(&ExecutionTrace::from_events(&sample_stream()));
        assert_eq!(a, b, "same events must render byte-identical DOT");
        assert!(a.starts_with("digraph trace {"));
        assert!(a.contains("subgraph cluster_job_0"));
        assert!(a.contains("s0 -> s1;"), "{a}");
        assert!(a.contains("cluster_internal"));
        // Job 0's bottleneck (stage 0) is highlighted.
        assert!(a.contains("s0 [label=\"stage 0\\nShuffleMap"), "{a}");
        assert!(a.contains("style=bold, color=red"), "{a}");
        // Inter-job ordering edge.
        assert!(a.contains("s1 -> s2 [style=dashed];"), "{a}");
    }
}
