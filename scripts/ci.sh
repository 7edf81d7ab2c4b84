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

echo "== doc truth: the paths, examples, binaries, trace subcommands and metric names the docs name exist =="
./scripts/doc_truth.sh

echo "== module boundary: the paper's algorithms name no query-path type, the query path shuffles nothing =="
# crates/core/src/analysis/paper.rs holds Algorithms 1-3, whose job, stage and
# shuffle structure is what the paper's experiments measure; query.rs holds the
# gene-query path, whose contract is its bits against the sequential oracles.
# A tile, grid or query-index name in the first, or a shuffle in the second,
# is one program leaking into the other.
if grep -nwE 'QueryIndex|BroadcastTileCache|plan_tiles|ReplicateTile|McGridOptions|McGridRun|grid_cells' \
    crates/core/src/analysis/paper.rs; then
    echo "the paper's algorithms name a query-path type (see matches above)" >&2
    exit 1
fi
if grep -nE '\.(join|reduce_by_key|combine_by_key)\b' crates/core/src/analysis/query.rs; then
    echo "the query path calls a shuffle operator (see matches above)" >&2
    exit 1
fi

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

echo "== the resampling kernel fuses its multiply-add in both vector arms, the multiplier draw stays unfused, 512-bit and libm-free, the Cox kernel gathers and fuses in zmm and ymm and never divides, every genotype codec arm is vector code: disassembly of the release sparkscore-stats and sparkscore-data tests =="
# The kernel's contract is one fused multiply-add per step, one rounding
# (DESIGN.md §3d). A tile that multiplies and then adds, or an AVX2 arm
# compiled without `fma` (where `mul_add` becomes a libm call per step), gives
# the same bits through a slower route, so every test passes; the machine code
# is what shows it. So is an AVX-512 arm whose tiles fell back to 256-bit
# vectors, which runs no faster than the AVX2 arm.
command -v objdump > /dev/null \
    || { echo "objdump not found: this step needs it (binutils) to read the kernel's instructions" >&2; exit 1; }
stats_bin="$(cargo test --release -q -p sparkscore-stats --lib --no-run --message-format=json \
    | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -1)"
[ -x "$stats_bin" ] || { echo "sparkscore-stats release test binary not found" >&2; exit 1; }
stats_asm="$(objdump -d --no-show-raw-insn -C "$stats_bin")"
# The instructions of every function of the disassembly on stdin whose name
# matches the pattern, each line led by the function's header.
functions_asm() {
    awk -v pattern="^[0-9a-f]+ <.*$1>:\$" '$0 ~ pattern { name = $0; next }
           /^$/ { name = "" }
           name != "" { print name, $0 }'
}
kernel_asm="$(functions_asm 'perturb_rows_[a-z0-9]+' <<< "$stats_asm")"
[ -n "$kernel_asm" ] || { echo "no perturb_rows_* symbol in $stats_bin" >&2; exit 1; }
if ! grep -qE 'perturb_rows_avx512>: .*vfmadd[0-9]+pd.*zmm' <<< "$kernel_asm"; then
    echo "perturb_rows_avx512 holds no 512-bit vfmadd…pd: its tiles do not fuse, or fell back to narrower vectors" >&2
    exit 1
fi
if ! grep -qE 'perturb_rows_avx2>: .*vfmadd[0-9]+pd.*ymm' <<< "$kernel_asm"; then
    echo "perturb_rows_avx2 holds no 256-bit vfmadd…pd: its tiles do not fuse, or it was compiled without fma" >&2
    exit 1
fi
if grep -E 'perturb_rows_avx(2|512)>: .*vmulpd' <<< "$kernel_asm"; then
    echo "a perturb_rows_* vector arm still multiplies apart from its add (see matches above)" >&2
    exit 1
fi
# The multiplier draw's arms (fill_multipliers_{plain,avx2,avx512} in
# crates/stats/src/dist.rs) keep the unfused contract, a multiply and an add,
# two roundings, and one more: Z's bits may not follow the host's libm, so no
# arm calls sin, cos, sincos or log.
draw_asm="$(functions_asm 'fill_multipliers_(plain|avx2|avx512)' <<< "$stats_asm")"
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
# The Cox kernel's vector arms (cox_contributions_{avx512,avx2} in
# crates/stats/src/score.rs) take each patient's quotient from a stored
# reciprocal and two fused multiply-adds: one gather and no divide. A
# restored `a / b` gives the same bits at the divider's pace; a bounds
# check or a branch left in the output loop keeps it scalar; an AVX2 arm
# compiled without `fma` makes each `mul_add` a libm call. Every test still
# passes in all three cases; the machine code shows them.
cox_asm="$(functions_asm 'cox_contributions_avx(2|512)' <<< "$stats_asm")"
for arm in avx2 avx512; do
    grep -q "cox_contributions_$arm>:" <<< "$cox_asm" \
        || { echo "no cox_contributions_$arm symbol in $stats_bin" >&2; exit 1; }
done
if ! grep -qE 'cox_contributions_avx512>: .*vfn?madd[0-9]+pd.*zmm' <<< "$cox_asm"; then
    echo "cox_contributions_avx512 holds no 512-bit vfmadd/vfnmadd: its quotient fell back to scalar or unfused code" >&2
    exit 1
fi
if ! grep -qE 'cox_contributions_avx512>: .*vgather[dq]pd.*zmm' <<< "$cox_asm"; then
    echo "cox_contributions_avx512 holds no 512-bit gather: its risk-set reads fell back to scalar loads" >&2
    exit 1
fi
if grep -E 'cox_contributions_avx512>: .*vdiv[ps][ds]' <<< "$cox_asm"; then
    echo "cox_contributions_avx512 divides (see matches above): its quotient must come from the reciprocal" >&2
    exit 1
fi
if ! grep -qE 'cox_contributions_avx2>: .*vfn?madd[0-9]+pd.*ymm' <<< "$cox_asm"; then
    echo "cox_contributions_avx2 holds no 256-bit vfmadd/vfnmadd: its quotient does not fuse, or it was compiled without fma" >&2
    exit 1
fi
# Without `fma`, `mul_add` calls the `fma` routine linked in from
# compiler_builtins: directly, or through a GOT slot that objdump names only
# by its address. The slot's relocation holds the routine's address.
fma_addr="$(sed -n 's/^0*\([0-9a-f]*\) <fma>:$/\1/p' <<< "$stats_asm")"
fma_refs="<fma>"
if [ -n "$fma_addr" ]; then
    fma_refs+=$'\n'"$(objdump -R "$stats_bin" | awk -v addr="$fma_addr" '
        { target = $3; sub(/^\*ABS\*\+0x0*/, "", target) }
        target == addr { slot = $1; sub(/^0*/, "", slot); print "# " slot " <" }')"
fi
if grep 'cox_contributions_avx2>:' <<< "$cox_asm" | grep -F "$fma_refs"; then
    echo "cox_contributions_avx2 calls fma (see matches above): it was compiled without fma" >&2
    exit 1
fi
# The genotype codecs (DESIGN.md §3d, §3f) are each one safe body compiled
# plain, as an `_avx2` arm and as an `_avx512` arm: the text scan, the 2-bit
# unpack and pack in crates/data/src/packed.rs, and the affine pass in
# crates/stats/src/bitkern.rs. An arm whose loop stopped vectorizing (a
# push, a closure or a bounds check in it), or one that lost its
# `#[target_feature]`, writes the same bytes and bits, so every test passes;
# only its machine code shows it. A `ymm`/`zmm` register anywhere in an arm
# proves nothing (zeroing a stack buffer uses one), so each arm must hold an
# instruction only its loop makes, on `ymm` in the `_avx2` arm and `zmm` in
# the `_avx512` arm: a vector shift in the three byte codecs (the lane
# arithmetic and the shift-and-mask steps), a convert to doubles and a
# multiply in the affine pass.
data_bin="$(cargo test --release -q -p sparkscore-data --lib --no-run --message-format=json \
    | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -1)"
[ -x "$data_bin" ] || { echo "sparkscore-data release test binary not found" >&2; exit 1; }
data_asm="$(objdump -d --no-show-raw-insn -C "$data_bin")"
# check_codec_arms DISASSEMBLY CODEC INSTRUCTION...: each arm of CODEC holds
# every INSTRUCTION (a regex) on its register.
check_codec_arms() {
    local asm="$1" codec="$2" arm register body instruction
    shift 2
    for arm in avx2:ymm avx512:zmm; do
        register="${arm#*:}" arm="${codec}_${arm%:*}"
        body="$(functions_asm "::$arm" <<< "$asm")"
        [ -n "$body" ] || { echo "no $arm symbol in the release test binary" >&2; exit 1; }
        for instruction in "$@"; do
            grep -qE "::$arm>: .*$instruction .*$register" <<< "$body" \
                || { echo "$arm holds no $register $instruction: its loop is not vector code" >&2; exit 1; }
        done
    done
}
check_codec_arms "$data_asm" scan_dosages 'vps(rl|ll)[wdq]'
check_codec_arms "$data_asm" unpack_codes 'vps(rl|ll)[wdq]'
check_codec_arms "$data_asm" pack_codes 'vps(rl|ll)[wdq]'
check_codec_arms "$stats_asm" affine_pass 'vcvt[a-z0-9]*2pd' 'vmulpd'

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

echo "== one definition site: application counters in crates/core, task cost in cluster::cost, task tallies in TaskCtx, lineage on the operators, live gauges and service counters read at scrape, resident bytes in the ledger =="
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
# Resident bytes are counted once, in the memory ledger
# (crates/rdd/src/ledger.rs), and read from it. An event that carries bytes or
# samples the ledger, or a running byte total kept beside it in the shuffle
# store, is a second set of memory books coming back.
if grep -rnwE 'Cache[A]dmitted|Cache[R]ejected|ShuffleBytes[S]tored|Memory[W]atermark' crates tests examples \
    || grep -nw 'total_[b]ytes' crates/rdd/src/shuffle.rs; then
    echo "a second set of memory books is back beside the ledger (see matches above)" >&2
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
svc_tally="$(grep '^answered [0-9]* of [0-9]* queries' "$svc_out")" \
    || { echo "service smoke: service did not report its query tally" >&2; exit 1; }
# A path that fails every query, or an MC path that stops hitting the
# multiplier-tile cache, reports zeros here.
grep -q '^answered [1-9][0-9]* of ' <<< "$svc_tally" \
    || { echo "service smoke: no query answered: $svc_tally" >&2; exit 1; }
grep -q 'multiplier tiles drawn [0-9]* reused [1-9][0-9]*$' <<< "$svc_tally" \
    || { echo "service smoke: no multiplier tile reused: $svc_tally" >&2; exit 1; }

echo "CI gate passed."
