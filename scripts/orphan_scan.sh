#!/usr/bin/env bash
# Orphan scan: every `pub fn` whose name appears in no other `.rs` file under
# crates/, benchmark/, tests/ and examples/ must be listed, with the reason it
# stays, in scripts/orphan_allowlist.txt. An unlisted orphan fails (delete it,
# or make it private so rustc's dead-code lint guards it); so does a listed
# name that is no longer an orphan (drop the stale line).
#
# Run from anywhere:  ./scripts/orphan_scan.sh

set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and comm

allowlist=scripts/orphan_allowlist.txt
mapfile -t files < <(find crates benchmark tests examples -name '*.rs' -not -path '*/target/*' | sort)

# Each `pub fn` name, then every (identifier, file) pair in the trees; a name
# seen in exactly one file is an orphan.
orphans="$(
    grep -ohE '\bpub fn [A-Za-z_][A-Za-z0-9_]*' "${files[@]}" | sed 's/^pub fn //' | sort -u \
        | awk 'NR == FNR { name[$1] = 1; next }
               ($2 in name) { seen[$2]++ }
               END { for (n in seen) if (seen[n] == 1) print n }' \
            - <(grep -owHE '[A-Za-z_][A-Za-z0-9_]*' "${files[@]}" | sort -u | awk -F: '{ print $1, $2 }') \
        | sort
)"
listed="$(sed -e 's/#.*//' "$allowlist" | awk 'NF { print $1 }' | sort)"

status=0
unlisted="$(comm -23 <(echo "$orphans") <(echo "$listed") | sed '/^$/d')"
if [ -n "$unlisted" ]; then
    echo "pub fn with no caller in any other file (delete it, make it private, or list it in $allowlist with who needs it):" >&2
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
