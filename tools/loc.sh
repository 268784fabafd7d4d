#!/usr/bin/env bash
# The yardstick for "less code": per first-party crate and in total, the
# lines before the first `#[cfg(test)]` of every tracked Rust source file
# under crates/*/src and src (pass file paths to count just those).
# Run from anywhere inside the repository; counts what git tracks.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

non_test_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        printf '%6d  %s\n' "$(non_test_lines "$file")" "$file"
    done
    exit 0
fi

total=0
for root in crates/*/src src; do
    sum=0
    while IFS= read -r file; do
        sum=$((sum + $(non_test_lines "$file")))
    done < <(git ls-files "$root" | grep '\.rs$')
    printf '%6d  %s\n' "$sum" "$root"
    total=$((total + sum))
done
printf '%6d  total\n' "$total"
