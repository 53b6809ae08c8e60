#!/usr/bin/env bash
# Counts non-test source lines: the non-blank lines of each Rust file
# under crates/*/src and src that lie above the file's first
# `#[cfg(test)]` (the whole file when it has none). Prints one row per
# crate (the root package as `quartz`) and a total.
#
#   scripts/source_lines.sh [repo-root]     # default: this checkout
set -euo pipefail
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

# Non-test, non-blank lines of the .rs files under directory $1.
count() {
    find "$1" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test && NF > 0 { n++ }
            END { print n + 0 }'
}

total=0
printf '%-10s %7s\n' crate lines
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    if [ "$dir" = src ]; then name=quartz; else name=${dir#crates/}; name=${name%/src}; fi
    n=$(count "$dir")
    total=$((total + n))
    printf '%-10s %7d\n' "$name" "$n"
done
printf '%-10s %7d\n' total "$total"
