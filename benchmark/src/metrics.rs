//! Every metric the benchmark emits, by name and unit. `BENCHMARK.json`
//! declares the same names (the smoke test holds the two together); the
//! README defines each one.

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s"),
    d("op_p50_ms", "ms"),
    d("op_tail_ms", "ms"),
    d("ops_per_s", "1/s"),
    d("virtual_s_per_op", "s"),
    d("peak_mem_mb", "MB"),
];

/// Reported by the traced pass. Counts are per operation unless the
/// README says otherwise; `*_ms` times are mean milliseconds per traced
/// operation.
pub const PER_LAYER: &[Decl] = &[
    // (i) counter snapshots
    d("rdd.engine.jobs", "count"),
    d("rdd.engine.stages", "count"),
    d("rdd.engine.tasks", "count"),
    d("rdd.engine.broadcasts", "count"),
    d("rdd.engine.broadcast_kb", "kB"),
    d("rdd.cache.hits", "count"),
    d("rdd.cache.misses", "count"),
    d("rdd.cache.evictions", "count"),
    d("rdd.cache.recomputed_partitions", "count"),
    d("rdd.cache.hit_ratio", "ratio"),
    d("rdd.cache.peak_mb", "MB"),
    d("rdd.shuffle.kb_written", "kB"),
    d("rdd.shuffle.kb_read", "kB"),
    d("rdd.shuffle.map_tasks", "count"),
    d("rdd.shuffle.map_reruns", "count"),
    d("rdd.shuffle.peak_mb", "MB"),
    d("rdd.gemm.tile_hits", "count"),
    d("rdd.gemm.tile_misses", "count"),
    d("rdd.gemm.tile_hit_ratio", "ratio"),
    d("dfs.input_mb", "MB"),
    d("dfs.local_reads", "count"),
    d("dfs.peak_mb", "MB"),
    d("stats.scratch.peak_mb", "MB"),
    d("rdd.service.submitted", "count"),
    d("rdd.service.rejected", "count"),
    d("rdd.service.completed", "count"),
    d("rdd.service.failed", "count"),
    d("core.analysis.replicates_run", "count"),
    d("core.analysis.replicates_saved", "count"),
    d("core.analysis.saved_ratio", "ratio"),
    d("core.analysis.tiles", "count"),
    // (ii) traced pass
    d("core.analysis.outside_jobs_ms", "ms"),
    d("rdd.engine.job_wall_ms", "ms"),
    d("rdd.engine.stage_wall_ms", "ms"),
    d("rdd.engine.driver_self_ms", "ms"),
    d("rdd.pool.task_busy_ms", "ms"),
    d("rdd.pool.utilization", "ratio"),
    d("rdd.pool.task_p50_us", "us"),
    d("rdd.pool.task_max_over_p50", "ratio"),
    d("stats.linalg.perturb_ms", "ms"),
    d("stats.score.contributions_ms", "ms"),
    d("rdd.shuffle.write_ms", "ms"),
    d("rdd.shuffle.fetch_ms", "ms"),
    d("rdd.cache.recompute_ms", "ms"),
    d("rdd.pool.task_other_ms", "ms"),
    d("core.service.nonjob_share", "ratio"),
    d("core.service.observed_p50_ms", "ms"),
    d("core.service.mc_fixed_p50_ms", "ms"),
    d("core.service.mc_adaptive_p50_ms", "ms"),
    d("obs.tracing_overhead_pct", "%"),
    // (iii) direct calls
    d("stats.linalg.perturb_gflops", "GFLOP/s"),
    d("stats.score.cox_contrib_ns_per_cell", "ns"),
    d("stats.bitkern.packed_contrib_ns_per_cell", "ns"),
    d("stats.skat.statistic_ns_per_member", "ns"),
    d("data.io.parse_mb_per_s", "MB/s"),
    d("data.packed.pack_mb_per_s", "MB/s"),
    d("data.packed.unpack_ns_per_cell", "ns"),
    d("dfs.read_mb_per_s", "MB/s"),
    d("rdd.engine.empty_job_us", "us"),
    d("rdd.engine.stage_launch_us", "us"),
    d("rdd.engine.broadcast_us_per_mb", "us/MB"),
    d("rdd.shuffle.roundtrip_us", "us"),
    d("rdd.cache.scan_gb_per_s", "GB/s"),
    d("rdd.service.noop_roundtrip_us", "us"),
    d("rdd.service.admission_ns_per_op", "ns"),
    d("rdd.pool.speedup_2t", "ratio"),
];
