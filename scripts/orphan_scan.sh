#!/usr/bin/env bash
# Orphan scan, two rules. Every exception is listed, with the reason it stays,
# in scripts/orphan_allowlist.txt; an unlisted orphan fails, and so does a
# listed one that is no longer an orphan (drop the stale line).
#
# * Functions: every `pub fn` whose name appears in no other `.rs` file under
#   crates/, benchmark/, tests/ and examples/. Delete it, or make it private
#   so rustc's dead-code lint guards it. Listed by name.
# * Modules: every `pub mod NAME;` in a crates/*/src/lib.rs none of whose
#   top-level `pub`/`pub(crate)` item names appears in another `.rs` file
#   under crates/ or benchmark/. Examples and the test trees (tests/,
#   crates/*/tests/) do not count: a module only they reach is not part of
#   the program. Delete it, or move it into the test tree if it is an
#   oracle. Listed as `crate::module`.
#
# In both rules a `pub use …;` re-export does not count as a caller, and in
# the module rule neither does a `//` comment.
#
# Run from anywhere:  ./scripts/orphan_scan.sh

set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and comm

allowlist=scripts/orphan_allowlist.txt
mapfile -t files < <(find crates benchmark tests examples -name '*.rs' -not -path '*/target/*' | sort)

# Every (file, identifier) pair in the trees, `pub use …;` blocks removed.
# With `code`, `//` comments are removed as well.
idents() {
    awk -v code="$1" '
        FNR == 1 { reexport = 0 }
        reexport { if (/;/) reexport = 0; next }
        /^[ \t]*pub(\([a-z]+\))? use / { if (!/;/) reexport = 1; next }
        {
            line = $0
            if (code) sub(/\/\/.*/, "", line)
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                print FILENAME, substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
            }
        }' "${files[@]}" | sort -u
}

# Function rule: a `pub fn` name seen in exactly one file is an orphan.
fn_orphans="$(
    grep -ohE '\bpub fn [A-Za-z_][A-Za-z0-9_]*' "${files[@]}" | sed 's/^pub fn //' | sort -u \
        | awk 'NR == FNR { name[$1] = 1; next }
               ($2 in name) { seen[$2]++ }
               END { for (n in seen) if (seen[n] == 1) print n }' \
            - <(idents 0)
)"

# Module rule: the files that may call a module, then each module's items.
callers="$(idents 1 | awk '$1 !~ /^(examples|tests)\// && $1 !~ /\/tests\//')"
mod_orphans="$(
    for lib in crates/*/src/lib.rs; do
        src="${lib%/lib.rs}"
        krate="$(basename "$(dirname "$src")")"
        for module in $(sed -nE 's/^pub mod ([A-Za-z_][A-Za-z0-9_]*);.*/\1/p' "$lib"); do
            if [ -f "$src/$module.rs" ]; then
                file="$src/$module.rs" own="^$src/$module\\.rs\$"
            else
                file="$src/$module/mod.rs" own="^$src/$module/"
            fi
            items="$(sed -nE 's/^pub(\((crate|super)\))? +((const|async|unsafe) +)*(fn|struct|enum|trait|type|const|static|mod) +([A-Za-z_][A-Za-z0-9_]*).*/\6/p' "$file")"
            awk -v own="$own" 'NR == FNR { item[$1] = 1; next }
                               ($2 in item) && $1 !~ own { found = 1; exit }
                               END { exit !found }' <(echo "$items") <(echo "$callers") \
                || echo "$krate::$module"
        done
    done
)"

orphans="$( (echo "$fn_orphans"; echo "$mod_orphans") | sed '/^$/d' | sort)"
listed="$(sed -e 's/#.*//' "$allowlist" | awk 'NF { print $1 }' | sort)"

status=0
unlisted="$(comm -23 <(echo "$orphans") <(echo "$listed") | sed '/^$/d')"
if [ -n "$unlisted" ]; then
    echo "pub fn with no caller in any other file, or pub mod the program never reaches" \
        "(delete it, make it private, or list it in $allowlist with who needs it):" >&2
    echo "$unlisted" | sed 's/^/  /' >&2
    status=1
fi
stale="$(comm -13 <(echo "$orphans") <(echo "$listed") | sed '/^$/d')"
if [ -n "$stale" ]; then
    echo "$allowlist lists names that are no longer orphans (remove these lines):" >&2
    echo "$stale" | sed 's/^/  /' >&2
    status=1
fi
[ "$status" -eq 0 ] && echo "orphan scan: $(echo "$orphans" | sed '/^$/d' | wc -l) kept orphans, all listed"
exit "$status"
