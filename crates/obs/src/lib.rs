//! Trace analysis over engine event logs — the repo's analogue of the
//! Spark History Server.
//!
//! PR 1's event bus records *what happened* (a JSONL stream of
//! `EngineEvent`s); this crate answers *where the time went*. It parses a
//! log (or a captured in-memory stream) into an [`ExecutionTrace`]
//! — jobs → stages → tasks with full `TaskMetrics` — and computes:
//!
//! * **Critical path** ([`critical_paths`]) — each job's stage dependency
//!   chain weighted by stage makespan, with the slowest task and the slack
//!   (wave/queueing time) per stage.
//! * **Skew diagnostics** ([`stage_skew`]) — p99/p50 task-time ratio and
//!   partition-size imbalance per stage, the straggler view.
//! * **Cache ROI** ([`cache_roi`]) — exact hit/miss/recompute totals from
//!   the per-task counters plus an estimate of the virtual time and input
//!   bytes the hits saved: the paper's Algorithm 1 vs Algorithm 3
//!   comparison, derivable from any run.
//! * **Memory timeline** ([`MemoryTimeline`]) — per-op peak residency,
//!   eviction churn, and budget-headroom-over-time replayed from the
//!   memory plane's exact byte-delta events (`trace memory`).
//! * **DOT export** ([`to_dot`]) — the job/stage DAG annotated with time
//!   and shuffle volume, bottleneck stages highlighted.
//! * **Run diffing** ([`diff_report`]) — two logs compared stage-by-stage
//!   and by cache ROI (e.g. permutation vs multiplier resampling).
//!
//! The `trace` binary exposes all of it on the command line:
//!
//! ```text
//! cargo run -p sparkscore-obs --bin trace -- report        target/events/experiment_a.jsonl
//! cargo run -p sparkscore-obs --bin trace -- critical-path target/events/experiment_a.jsonl
//! cargo run -p sparkscore-obs --bin trace -- dot           target/events/experiment_a.jsonl
//! cargo run -p sparkscore-obs --bin trace -- diff          perm.jsonl multiplier.jsonl
//! ```
//!
//! Every analysis is a pure function of the trace with deterministic
//! iteration order, so output is byte-identical across invocations on the
//! same log. `report --json` (or [`report_json`]) renders the same digest
//! as machine-readable JSON with the same determinism guarantee.
//!
//! All analyses also accept **partial traces** — flight-recorder dumps of
//! an engine that is still running (jobs without `JobEnd`, stages without
//! `StageCompleted`). [`ExecutionTrace::is_partial`] flags them, reports
//! mark in-flight jobs, and [`ops::OpsServer`] serves such dumps (plus
//! live metrics and pool profiles) over a line-based TCP endpoint.

pub mod analyze;
pub mod dot;
pub mod memory;
pub mod ops;
pub mod report;
pub mod trace;

pub use analyze::{cache_roi, critical_paths, stage_skew, CacheRoi, CriticalPath, StageSkew};
pub use dot::to_dot;
pub use memory::{live_digest, MemoryTimeline, OpResidency};
pub use ops::{OpsServer, OpsServerBuilder};
pub use report::{
    cache_roi_line, critical_path_report, diff_report, fmt_bytes, fmt_ns, report, report_json,
    stage_table,
};
pub use trace::{ExecutionTrace, MemWatermark, SpanTotal, TraceJob, TraceSpan, TraceStage};
