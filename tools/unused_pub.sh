#!/usr/bin/env bash
# The inventory a simplicity PR starts from: every `pub fn` / `pub(crate) fn`
# before the first `#[cfg(test)]` of a tracked source file under crates/*/src
# or src whose name no other non-test line mentions.  Non-test lines are the
# lines before the first unindented `#[cfg(test)]` (an indented one guards a
# statement, not the test module) of the tracked Rust files under crates/,
# src/, examples/ and pmbench/, leaving out tests/ and benches/ directories
# and comment lines (a doc link or a doctest is not a caller).
# A name defined several times is listed when nothing but its definitions
# mentions it.  Informational: a listed function may still be public API on
# purpose.  Run from anywhere inside the repository.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files crates src examples pmbench | grep '\.rs$' | grep -Ev '/(tests|benches)/' |
    awk '
    { files[++count] = $0 }
    END {
        for (i = 1; i <= count; i++) {
            file = files[i]
            listed = file ~ /^(crates\/[^\/]+\/)?src\//
            number = 0
            while ((getline text < file) > 0) {
                number++
                if (text ~ /^#\[cfg\(test\)\]/) break
                if (text ~ /^[[:space:]]*\/\//) continue
                if (listed && match(text, /pub(\(crate\))? +(const +)?fn +[A-Za-z_][A-Za-z0-9_]*/)) {
                    name = substr(text, RSTART, RLENGTH)
                    sub(/.* /, "", name)
                    where[++defs] = file ":" number
                    named[defs] = name
                    defined[name]++
                }
                split("", seen)
                while (match(text, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    word = substr(text, RSTART, RLENGTH)
                    if (!(word in seen)) { seen[word] = 1; mentions[word]++ }
                    text = substr(text, RSTART + RLENGTH)
                }
            }
            close(file)
        }
        for (d = 1; d <= defs; d++)
            if (mentions[named[d]] == defined[named[d]]) { print where[d] ": " named[d]; unused++ }
        printf "%d of %d pub fns have no non-test caller\n", unused, defs
    }'
