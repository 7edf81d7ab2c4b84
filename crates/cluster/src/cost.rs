//! What a task costs in virtual time: counted work × fixed rates.
//!
//! During real execution every task counts the work it performs — records
//! processed (weighted per operator), bytes read from the DFS (local or
//! remote), and bytes shuffled. The rates below convert those counters into
//! virtual nanoseconds, which the [`crate::vtime`] scheduler then packs onto
//! the configured cluster's slots. Host wall time never enters: nothing the
//! machine, its load or the build profile does can move a virtual duration.
//!
//! The rates are constants, not options. They are calibrated to the paper's
//! absolute numbers only loosely: what the reproduction preserves is the
//! *relative shape* of Figs 2–7 (cache reuse vs lineage re-execution,
//! scaling with slots), which depends on the ratios, not the magnitudes.
//! Per-operator asymmetries on the paper's JVM/Spark stack (tokenizing a
//! genotype line vs one multiply-add) are declared by the operators as
//! weighted work units, not here.
//!
//! # What is reproducible, and what still varies
//!
//! With one driver submitting jobs, an engine's virtual time is a pure
//! function of (seed, cluster shape, inputs): it is the same to the bit
//! across runs, at any `host_threads`, and however slow a task really was.
//! With several concurrent drivers on one engine (`AnalysisService`),
//! their jobs' windows overlap, and the clock credits each interval of the
//! scheduler's horizon once ([`crate::VirtualScheduler::close_job`]), not
//! once per job whose window spans it. What still varies is packing:
//! stages from different jobs reach the shared scheduler in arrival order,
//! which the host's thread scheduling decides; each stage's cost is still
//! fixed, but how stages pack onto the slot backlogs is not, so the
//! *global* clock delta attributed to one query is not pinned from run to
//! run.

/// Cost of one weighted record of operator work, in ns. The JVM-based
/// Spark pipeline in the paper spends on the order of tens of ns per simple
/// record operation once deserialization is amortized.
pub const NS_PER_RECORD_UNIT: f64 = 25.0;
/// Fixed per-task cost: task serialization, dispatch, and result handling.
/// Spark's rule of thumb is O(ms) per task.
pub const TASK_OVERHEAD_NS: u64 = 2_000_000;
/// Driver-side cost of submitting one stage (DAG bookkeeping).
pub const STAGE_OVERHEAD_NS: u64 = 10_000_000;
/// Minimum round-trip cost of one remote (non-local) input fetch, on top of
/// the transfer at network bandwidth.
pub const REMOTE_FETCH_LATENCY_NS: u64 = 500_000;

/// Nanoseconds to move `bytes` at `bandwidth` bytes/s.
#[inline]
pub fn transfer_ns(bytes: u64, bandwidth: u64) -> u64 {
    if bytes == 0 || bandwidth == 0 {
        return 0;
    }
    ((bytes as u128 * 1_000_000_000u128) / bandwidth as u128) as u64
}

/// Compute cost of `record_units` weighted records.
#[inline]
pub fn compute_ns(record_units: f64) -> u64 {
    (record_units * NS_PER_RECORD_UNIT) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let bw = 100 * 1024 * 1024; // 100 MiB/s
        let t1 = transfer_ns(1024 * 1024, bw);
        let t2 = transfer_ns(2 * 1024 * 1024, bw);
        assert_eq!(t2, 2 * t1);
        // 1 MiB at 100 MiB/s = 10 ms
        assert_eq!(t1, 10_000_000);
    }

    #[test]
    fn zero_bytes_or_bandwidth_is_free() {
        assert_eq!(transfer_ns(0, 100), 0);
        assert_eq!(transfer_ns(100, 0), 0);
    }

    #[test]
    fn compute_cost_uses_rate() {
        assert_eq!(compute_ns(1000.0), 25_000);
        assert_eq!(compute_ns(0.0), 0);
    }

    #[test]
    fn huge_transfers_do_not_overflow() {
        // 1 PiB at 1 B/s must not overflow the intermediate product.
        let t = transfer_ns(1 << 50, 1);
        assert!(t > 0);
    }
}
