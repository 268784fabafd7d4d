#!/usr/bin/env bash
# The yardstick for "less code": per first-party crate and in total, the
# lines before the first unindented `#[cfg(test)]` (an indented one guards a
# statement, not the test module) of every tracked Rust source file under
# crates/*/src and src (pass file paths to count just those), then
# vendor/smol/src on a line of its own, outside the total: the daemon's
# executor is first-party code on its hot path, not a shim.
# Run from anywhere inside the repository; counts what git tracks.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

non_test_lines() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        printf '%6d  %s\n' "$(non_test_lines "$file")" "$file"
    done
    exit 0
fi

root_lines() {
    local sum=0 file
    while IFS= read -r file; do
        sum=$((sum + $(non_test_lines "$file")))
    done < <(git ls-files "$1" | grep '\.rs$')
    echo "$sum"
}

total=0
for root in crates/*/src src; do
    sum=$(root_lines "$root")
    printf '%6d  %s\n' "$sum" "$root"
    total=$((total + sum))
done
printf '%6d  total\n' "$total"
printf '%6d  vendor/smol/src (not in the total)\n' "$(root_lines vendor/smol/src)"
