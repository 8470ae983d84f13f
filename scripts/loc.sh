#!/bin/sh
# The code-size count of the simulator: for each .rs file under
# crates/*/src, its non-blank lines that are not `//` comments (doc
# comments are comments too), stopping at the file's first
# `#[cfg(test)]` that opens a line: its test module (an indented
# test-only item counts as code). Prints one count per crate, then their
# sum.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the repository holding it)
set -eu
cd "${1:-$(dirname "$0")/..}"
total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }' {} + | awk '{ n += $1 } END { print n + 0 }')
    printf '%-20s %6d\n' "$src" "$n"
    total=$((total + n))
done
printf '%-20s %6d\n' 'crates/*/src' "$total"
