#!/usr/bin/env bash
# Non-test Rust line count of the workspace: every line of each
# crates/*/src/**/*.rs file before its first `#[cfg(test)]`, leaving out
# the separate benchmark package (crates/bench/src/bin/benchmark). Also
# prints a code-only count that drops blank lines and `//` comment lines
# (doc comments included). Gates nothing; compare two revisions to get a
# change's net line count.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh <rev>    # a commit, read through git (e.g. HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [[ -n "$rev" ]]; then
    git rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
        { echo "error: not a commit: $rev" >&2; exit 2; }
    mapfile -t files < <(git ls-tree -r --name-only "$rev" -- crates | sort)
    show() { git show "$rev:$1"; }
else
    mapfile -t files < <(find crates -path '*/src/*' -name '*.rs' | sort)
    show() { cat "$1"; }
fi

for f in "${files[@]}"; do
    [[ "$f" =~ ^crates/[^/]+/src/.*\.rs$ ]] || continue
    [[ "$f" == crates/bench/src/bin/benchmark/* ]] && continue
    # Read each file to its end: an early exit would break the pipe.
    show "$f" | awk '/#\[cfg\(test\)\]/ { tests = 1 } !tests { print }'
done | awk '
    { total++ }
    !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { code++ }
    END { printf "non-test lines: %d\ncode-only lines: %d\n", total, code }
'
