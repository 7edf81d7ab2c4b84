#!/usr/bin/env bash
# Repository CI gate: build, test, format, lint.
#
# Run from the repository root:  ./scripts/ci.sh
# Each step must pass; the script stops at the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== orphan scan: every pub fn another file names, or listed with who needs it =="
# A `pub fn` that no other file names is either dead or used only inside its
# own file, where privacy would let rustc's dead-code lint guard it. The kept
# few are listed, one reason a line, in scripts/orphan_allowlist.txt; a stale
# line fails too.
./scripts/orphan_scan.sh

echo "== doc truth: the paths, examples, binaries and trace subcommands the docs name exist =="
./scripts/doc_truth.sh

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo test --release: the bitwise identities on the code that ships =="
# `cargo test` builds without optimisation, where the perturbation kernel's
# register tiles are scalar loops; only an optimised build runs the vector
# instructions the benchmark and the binaries run. The same goes for the
# genotype packer's word arithmetic in sparkscore-data, and for the shuffle
# operators' order contract in sparkscore-rdd.
cargo test --release -q -p sparkscore-stats -p sparkscore-core -p sparkscore-data -p sparkscore-rdd

echo "== the resampling kernel and the multiplier draw stay unfused, 512-bit and libm-free: disassembly of the release sparkscore-stats tests =="
# The kernel's contract is a multiply and an add, two roundings (DESIGN.md
# §3d). Rust's `avx512f` implies `fma`, so inside perturb_rows_avx512 only the
# source keeps the two apart: a `mul_add` there would change bits on AVX-512
# hosts alone. And an AVX-512 arm whose tiles fell back to 256-bit vectors
# passes every test while running no faster than the AVX2 arm.
command -v objdump > /dev/null \
    || { echo "objdump not found: this step needs it (binutils) to read the kernel's instructions" >&2; exit 1; }
stats_bin="$(cargo test --release -q -p sparkscore-stats --lib --no-run --message-format=json \
    | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -1)"
[ -x "$stats_bin" ] || { echo "sparkscore-stats release test binary not found" >&2; exit 1; }
kernel_asm="$(objdump -d --no-show-raw-insn -C "$stats_bin" \
    | awk '/^[0-9a-f]+ <.*perturb_rows_[a-z0-9]+>:$/ { name = $0; next }
           /^$/ { name = "" }
           name != "" { print name, $0 }')"
[ -n "$kernel_asm" ] || { echo "no perturb_rows_* symbol in $stats_bin" >&2; exit 1; }
if grep -E 'vfn?m(add|sub)' <<< "$kernel_asm"; then
    echo "a perturb_rows_* arm fuses a multiply-add (see matches above)" >&2
    exit 1
fi
if ! grep -qE 'perturb_rows_avx512>: .*vmulpd.*zmm' <<< "$kernel_asm"; then
    echo "perturb_rows_avx512 holds no 512-bit vmulpd: its tiles fell back to narrower vectors" >&2
    exit 1
fi
# The multiplier draw's arms (fill_multipliers_{plain,avx2,avx512} in
# crates/stats/src/dist.rs) share the same contract and one more: Z's bits
# may not follow the host's libm, so no arm calls sin, cos, sincos or log.
draw_asm="$(objdump -d --no-show-raw-insn -C "$stats_bin" \
    | awk '/^[0-9a-f]+ <.*fill_multipliers_(plain|avx2|avx512)>:$/ { name = $0; next }
           /^$/ { name = "" }
           name != "" { print name, $0 }')"
for arm in plain avx2 avx512; do
    grep -q "fill_multipliers_$arm>:" <<< "$draw_asm" \
        || { echo "no fill_multipliers_$arm symbol in $stats_bin" >&2; exit 1; }
done
if grep -E 'vfn?m(add|sub)' <<< "$draw_asm"; then
    echo "a fill_multipliers_* arm fuses a multiply-add (see matches above)" >&2
    exit 1
fi
if ! grep -qE 'fill_multipliers_avx512>: .*vmulpd.*zmm' <<< "$draw_asm"; then
    echo "fill_multipliers_avx512 holds no 512-bit vmulpd: its lanes fell back to narrower vectors" >&2
    exit 1
fi
# A libm call shows as a direct `call <sin@plt>` or, more often, as the
# function's GOT entry loaded into a register for a `call *%reg`.
if grep -E '[<:](sin|cos|sincos|log)(@|>)' <<< "$draw_asm"; then
    echo "a fill_multipliers_* arm calls libm (see matches above)" >&2
    exit 1
fi

echo "== events, pool and concurrent_grid test binaries 50x, service_e2e 10x: concurrent emitters, concurrent drivers, seeded replay =="
# One run of a race-prone test proves little; a loop over the whole binary
# catches an ordering race that fails a few runs in a hundred.
loop_test_binary() {
    local package="$1" name="$2" runs="$3" bin
    bin="$(cargo test -q -p "$package" --test "$name" --no-run --message-format=json \
        | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -1)"
    [ -x "$bin" ] || { echo "$name test binary not found" >&2; exit 1; }
    for run in $(seq 1 "$runs"); do
        "$bin" -q > /dev/null 2>&1 \
            || { echo "$name test binary failed on run $run of $runs" >&2; exit 1; }
    done
}
loop_test_binary sparkscore-rdd events 50
loop_test_binary sparkscore-rdd pool 50
loop_test_binary integration-tests concurrent_grid 50
# One run takes about 8 s, so fewer runs.
loop_test_binary integration-tests service_e2e 10

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== rustdoc -D warnings: every sparkscore-* crate's docs link only what they may =="
# Public docs that link a private item, or a bracketed citation rustdoc reads
# as a link, render as broken links. The vendored crates are not ours to fix,
# so each workspace crate is documented on its own, without dependencies.
for manifest in crates/*/Cargo.toml; do
    crate="$(sed -n 's/^name = "\(sparkscore-[a-z]*\)"$/\1/p' "$manifest")"
    [ -n "$crate" ] || { echo "no sparkscore-* package name in $manifest" >&2; exit 1; }
    RUSTDOCFLAGS='-D warnings' cargo doc --no-deps -q -p "$crate"
done

echo "== one definition site: application counters in crates/core, task cost in cluster::cost, task tallies in TaskCtx, lineage on the operators, live gauges and service counters read at scrape =="
# A task counter is defined once, by the application (crates/core). If one of
# its names shows up in the engine or the trace analyzer, someone has started
# hand-threading a counter again.
if grep -rnE 'kernel_rows|scratch_reuses|replicates_(run|saved)' crates/rdd/src crates/obs/src; then
    echo "engine/analyzer source names an application counter (see matches above)" >&2
    exit 1
fi
# Input bytes, shuffle bytes, cache hits/misses and recomputes are tallied once
# per task, in its TaskCtx, whose drop adds them to the engine's counters
# (crates/rdd/src/context.rs). Any other write of them to an engine counter
# counts them twice.
tally='input_bytes|shuffle_bytes_read|shuffle_bytes_written|cache_hits|cache_misses|recomputed_partitions'
if grep -rnE "\bmetrics\.($tally)\b" --exclude=context.rs crates/rdd/src \
    || grep -rnE "\b($tally)\.(add|inc)\(" crates/rdd/src; then
    echo "a task-level count is written to the engine counters outside TaskCtx's drop (see matches above)" >&2
    exit 1
fi
# The operators are the lineage graph: each names its own parents
# (`AnyOp::deps` in crates/rdd/src/ops/mod.rs), which the shuffle planner and
# `Dataset::lineage` walk. A side table of operator metadata is a second copy
# of that graph coming back.
if grep -rnwE 'MetaRegistry|OpMeta|DepMeta|register_op' crates/rdd/src; then
    echo "crates/rdd/src keeps a second copy of the operator graph (see matches above)" >&2
    exit 1
fi
# A live gauge is read from the store that holds it when the registry renders
# (`Registry::gauge_fn`). A sampling thread that copies values into the
# registry on a timer, or a pool snapshot and per-task span slots to feed one,
# is a second, staler copy coming back.
if grep -rnwE 'PoolProfiler|ProfilerBuilder|PoolSnapshot|note_current_span|participant_span' crates examples; then
    echo "a sampling profiler is back beside the scrape-time gauges (see matches above)" >&2
    exit 1
fi
# The job service's flow counts live in its admission queue (`QueueStats`) and
# are read from it when the registry renders (`Registry::counter_fn`). A metric
# the service pushes is a second set of books coming back; a queue deadline
# brings back the worker's timed wait, which a replayed schedule cannot replay.
if grep -nE '\.(counter|gauge)\(|\b(ServiceMetrics|submit_with_deadline|wait_timeout)\b' \
    crates/rdd/src/service.rs; then
    echo "the job service pushes a metric or waits on a clock (see matches above)" >&2
    exit 1
fi
# Virtual time has one definition, counted work at the fixed rates of
# crates/cluster/src/cost.rs. A multiplier on measured task time, or a sampling
# harness around a quantity that cannot vary, is a second one coming back.
# (One-letter brackets so that a grep for these names does not find this line.)
if grep -rnE 'cpu_[s]lowdown|task_[c]ompute_ns|[c]riterion::' crates tests; then
    echo "measured host time or a criterion harness is back on the virtual axis (see matches above)" >&2
    exit 1
fi

echo "== benchmark smoke: six workloads, both passes, output checks =="
# The end-to-end benchmark is its own package (outside the workspace), so
# nothing above builds or runs it. `--quick` runs every workload untraced and
# traced and exits non-zero on a failed operation or output check; its own
# tests cover the span arithmetic and `compare`. Built where the benchmark
# driver builds (.bench_build/, git-ignored; spans land inside it too).
CARGO_TARGET_DIR="$PWD/.bench_build" \
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --quick > /dev/null
CARGO_TARGET_DIR="$PWD/.bench_build" \
    cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== paper axis: experiments A, B, C and sensitivity --quick print only shape[PASS] and match results/quick/ =="
# `shape_check` only prints; this is where a broken Fig 2-7 shape fails the
# gate. A harness that prints no shape line at all fails too.
# Each output, with its host-wall fields cut ("wall_secs" in the JSON: line
# and the last column of the per-stage summary's rows), must equal its
# checked-in file under results/quick/, so a change that moves a virtual
# second, a job, a stage, a task or a shuffle byte on the paper axis shows
# as a diff in its own commit. A deliberate move re-records the file:
#   cargo run --release -q -p sparkscore-bench --bin NAME -- --quick | <the sed below> > results/quick/NAME.txt
virtual_only() {
    sed -E -e 's/"wall_secs":[0-9.e+-]+//g' \
        -e '/^\| [0-9]+ \| [0-9]+ \| [A-Za-z]+ \|/s/ [^|]+ \|$//'
}
for experiment in experiment_a experiment_b experiment_c sensitivity; do
    output="$(cargo run --release -q -p sparkscore-bench --bin "$experiment" -- --quick)"
    shapes="$(grep '^shape\[' <<< "$output" || true)"
    [ -n "$shapes" ] || { echo "$experiment printed no shape check" >&2; exit 1; }
    if grep -v '^shape\[PASS\]' <<< "$shapes"; then
        echo "$experiment failed a shape check (see lines above)" >&2
        exit 1
    fi
    if ! diff "results/quick/$experiment.txt" <(virtual_only <<< "$output"); then
        echo "$experiment --quick moved the paper axis from results/quick/$experiment.txt (see diff above)" >&2
        exit 1
    fi
done

echo "== trace smoke: quickstart event log -> trace report =="
events_dir="$(mktemp -d)"
trap 'rm -rf "$events_dir"' EXIT
SPARKSCORE_EVENTS_DIR="$events_dir" cargo run --release -p sparkscore-core --example quickstart > /dev/null
log="$events_dir/quickstart.jsonl"
[ -s "$log" ] || { echo "trace smoke: no event log at $log" >&2; exit 1; }
report="$(cargo run --release -p sparkscore-obs --bin trace -- report "$log")"
[ -n "$report" ] || { echo "trace smoke: empty report" >&2; exit 1; }

echo "== ops smoke: live endpoint serves metrics and a parseable trace dump =="
ops_out="$events_dir/live_ops.out"
cargo build --release -p sparkscore-core --example live_ops
./target/release/examples/live_ops 6 > "$ops_out" &
ops_pid=$!
# Wait for the endpoint line, then scrape it with bash's /dev/tcp (no nc).
ops_port=""
for _ in $(seq 1 50); do
    ops_port="$(sed -n 's/^ops endpoint listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$ops_out")"
    [ -n "$ops_port" ] && break
    sleep 0.1
done
[ -n "$ops_port" ] || { echo "ops smoke: endpoint never came up" >&2; kill "$ops_pid"; exit 1; }
scrape() {
    exec 3<>"/dev/tcp/127.0.0.1/$ops_port"
    printf '%s\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
}
metrics="$(scrape metrics)"
grep -q '^# TYPE sparkscore_' <<< "$metrics" \
    || { echo "ops smoke: metrics scrape missing sparkscore_ gauges" >&2; kill "$ops_pid"; exit 1; }
grep -q '^sparkscore_mem_block_cache_used_bytes ' <<< "$metrics" \
    || { echo "ops smoke: metrics scrape missing sparkscore_mem_ gauges" >&2; kill "$ops_pid"; exit 1; }
grep -q '^sparkscore_pool_participants_running ' <<< "$metrics" \
    || { echo "ops smoke: metrics scrape missing the pool gauges" >&2; kill "$ops_pid"; exit 1; }
grep -q '^sparkscore_recorder_backlog_events ' <<< "$metrics" \
    || { echo "ops smoke: metrics scrape missing the recorder backlog gauge" >&2; kill "$ops_pid"; exit 1; }
memory="$(scrape memory)"
for category in block_cache shuffle_store dfs_blocks scratch total; do
    grep -q "^$category " <<< "$memory" \
        || { echo "ops smoke: memory scrape missing $category row" >&2; kill "$ops_pid"; exit 1; }
done
ops_dump="$events_dir/live_ops_trace.jsonl"
scrape trace > "$ops_dump"
[ -s "$ops_dump" ] || { echo "ops smoke: empty trace dump" >&2; kill "$ops_pid"; exit 1; }
ops_report="$(cargo run --release -p sparkscore-obs --bin trace -- report --json "$ops_dump")" \
    || { echo "ops smoke: trace dump did not parse" >&2; kill "$ops_pid"; exit 1; }
grep -q '"cache"' <<< "$ops_report" \
    || { echo "ops smoke: trace report JSON missing cache section" >&2; kill "$ops_pid"; exit 1; }
wait "$ops_pid"

echo "== service smoke: multi-tenant job service serves queue/tenants/metrics live =="
svc_out="$events_dir/job_service.out"
cargo build --release -p sparkscore-core --example job_service
./target/release/examples/job_service 6 > "$svc_out" &
svc_pid=$!
svc_port=""
for _ in $(seq 1 50); do
    svc_port="$(sed -n 's/^ops endpoint listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$svc_out")"
    [ -n "$svc_port" ] && break
    sleep 0.1
done
[ -n "$svc_port" ] || { echo "service smoke: endpoint never came up" >&2; kill "$svc_pid"; exit 1; }
svc_scrape() {
    exec 3<>"/dev/tcp/127.0.0.1/$svc_port"
    printf '%s\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
}
svc_queue="$(svc_scrape queue)"
grep -q '^queue [0-9]*/[0-9]* queued' <<< "$svc_queue" \
    || { echo "service smoke: queue scrape missing header" >&2; kill "$svc_pid"; exit 1; }
grep -q '^flow: submitted ' <<< "$svc_queue" \
    || { echo "service smoke: queue scrape missing flow counters" >&2; kill "$svc_pid"; exit 1; }
svc_tenants="$(svc_scrape tenants)"
for tenant in genomics-lab biobank clinic; do
    grep -q "^$tenant " <<< "$svc_tenants" \
        || { echo "service smoke: tenants scrape missing $tenant row" >&2; kill "$svc_pid"; exit 1; }
done
svc_metrics="$(svc_scrape metrics)"
grep -q '^sparkscore_service_submitted_total ' <<< "$svc_metrics" \
    || { echo "service smoke: metrics scrape missing service counters" >&2; kill "$svc_pid"; exit 1; }
grep -q '^# TYPE sparkscore_service_submitted_total counter$' <<< "$svc_metrics" \
    || { echo "service smoke: service counters not typed counter" >&2; kill "$svc_pid"; exit 1; }
grep -q '^sparkscore_gemm_tile_hits_total ' <<< "$svc_metrics" \
    || { echo "service smoke: metrics scrape missing tile-cache counters" >&2; kill "$svc_pid"; exit 1; }
grep -q '^sparkscore_mem_block_cache_used_bytes ' <<< "$svc_metrics" \
    || { echo "service smoke: metrics scrape missing the engine's live gauges" >&2; kill "$svc_pid"; exit 1; }
svc_dump="$events_dir/job_service_trace.jsonl"
svc_scrape trace > "$svc_dump"
[ -s "$svc_dump" ] || { echo "service smoke: empty trace dump" >&2; kill "$svc_pid"; exit 1; }
svc_report="$(cargo run --release -p sparkscore-obs --bin trace -- report --json "$svc_dump")" \
    || { echo "service smoke: trace dump did not parse" >&2; kill "$svc_pid"; exit 1; }
grep -q '"cache"' <<< "$svc_report" \
    || { echo "service smoke: trace report JSON missing cache section" >&2; kill "$svc_pid"; exit 1; }
wait "$svc_pid"
grep -q '^answered [0-9]* of [0-9]* queries' "$svc_out" \
    || { echo "service smoke: service did not report its query tally" >&2; exit 1; }

echo "CI gate passed."
