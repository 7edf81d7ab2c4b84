#!/usr/bin/env bash
# Doc truth: what README.md, DESIGN.md and EXPERIMENTS.md tell a reader to
# open, run or scrape exists.
#
# * every backticked repo path (`crates/…`, `examples/…`, `scripts/…`,
#   `tests/…`, `results/…`; `*` and `<name>` match any name) names a file
#   or directory;
# * every `--example NAME` is an `[[example]]` in some Cargo.toml;
# * every `--bin NAME` is a file in some crate's src/bin/;
# * every `trace SUB` (backticked, or after `--bin trace --`) is a
#   subcommand in the usage text of crates/obs/src/bin/trace.rs;
# * every backticked metric series `sparkscore_NAME` is a string literal
#   under crates/*/src (a `<…>` template such as
#   `sparkscore_mem_<category>_used_bytes` is skipped, and so is a crate
#   name such as `sparkscore_rdd`);
# * every backticked Rust path `a::b…` ends in a word some file under
#   crates/*/src has, so a renamed or deleted item cannot live on in the
#   docs under its old name.
#
# Run from anywhere:  ./scripts/doc_truth.sh

set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

docs=(README.md DESIGN.md EXPERIMENTS.md)
status=0
fail() {
    echo "$1:" >&2
    sed 's/^/  /' >&2
    status=1
}

missing="$(
    grep -ohE '`(crates|examples|scripts|tests|results)/[^` ]*`' "${docs[@]}" | tr -d '`' | sort -u \
        | while read -r path; do
            pattern="$(sed -E 's/<[^>]*>/*/g' <<< "$path")"
            compgen -G "$pattern" > /dev/null || echo "$path"
        done
)"
[ -z "$missing" ] || fail "docs name repo paths that do not exist" <<< "$missing"

examples="$(find crates tests -name Cargo.toml -not -path '*/target/*' -exec \
    awk '/^\[\[example\]\]/ { in_example = 1; next }
         /^\[/ { in_example = 0 }
         in_example && /^name *=/ { gsub(/.*= *"|".*/, ""); print }' {} + | sort -u)"
missing="$(grep -ohE -- '--example [A-Za-z0-9_-]+' "${docs[@]}" | sed 's/^--example //' | sort -u \
    | comm -23 - <(echo "$examples"))"
[ -z "$missing" ] || fail "docs run --example names no Cargo.toml declares" <<< "$missing"

bins="$(find crates -path '*/src/bin/*.rs' -not -path '*/target/*' -exec basename {} .rs \; | sort -u)"
missing="$(grep -ohE -- '--bin [A-Za-z0-9_-]+' "${docs[@]}" | sed 's/^--bin //' | sort -u \
    | comm -23 - <(echo "$bins"))"
[ -z "$missing" ] || fail "docs run --bin names with no src/bin/ file" <<< "$missing"

usage="$(sed -n 's/^const USAGE: &str = "\(.*\)";$/\1/p' crates/obs/src/bin/trace.rs)"
[ -n "$usage" ] || { echo "no USAGE line in crates/obs/src/bin/trace.rs" >&2; exit 1; }
# `trace report …` or `trace <report|critical-path> …`
subcommands="$(grep -oE 'trace (<[a-z|-]+>|[a-z][a-z-]*)' <<< "${usage//\\n/ }" \
    | sed 's/^trace //' | tr -d '<>' | tr '|' '\n' | sort -u)"
missing="$(grep -ohE '`trace [a-z][a-z-]*|--bin trace -- [a-z][a-z-]*' "${docs[@]}" \
    | sed -E 's/^(`trace|--bin trace --) //' | sort -u | comm -23 - <(echo "$subcommands"))"
[ -z "$missing" ] || fail "docs name trace subcommands the CLI does not have" <<< "$missing"

crates="$(find crates -mindepth 1 -maxdepth 1 -type d -printf 'sparkscore_%f\n' | sort)"
missing="$(grep -ohE '`sparkscore_[a-z0-9_]+`' "${docs[@]}" | tr -d '`' | sort -u \
    | comm -23 - <(echo "$crates") \
    | while read -r name; do
        grep -rqF "\"$name\"" crates/*/src || echo "$name"
    done
)"
[ -z "$missing" ] || fail "docs name metric series no crates/*/src string literal defines" <<< "$missing"

missing="$(grep -ohE '`[^`]*::[^`]*`' "${docs[@]}" \
    | grep -oE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' | sort -u \
    | while read -r path; do
        grep -rqw -- "${path##*::}" crates/*/src || echo "$path"
    done
)"
[ -z "$missing" ] || fail "docs name Rust paths whose last segment no crates/*/src file has" <<< "$missing"

[ "$status" -eq 0 ] && echo "doc truth: paths, examples, binaries, trace subcommands, metric names and Rust paths all exist"
exit "$status"
