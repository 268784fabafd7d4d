#!/usr/bin/env bash
# The inventory a simplicity PR starts from, and the gate that keeps it from
# growing back: every `pub fn` / `pub(crate) fn`, every trait method
# declaration and every `pub const` before the first `#[cfg(test)]` of a
# tracked source file under crates/*/src or src whose name no other non-test
# line mentions.  Non-test lines are the lines before the first unindented
# `#[cfg(test)]` (an indented one guards a statement, not the test module)
# of the tracked Rust files under crates/, src/, examples/ and pmbench/,
# leaving out tests/ and benches/ directories and comment lines (a doc link
# or a doctest is not a caller).
# A name defined several times is listed when nothing but its definitions
# mentions it; for a trait method the definitions are its declaration and
# every `fn` of that name (its impls).  A listed item may still be public on
# purpose — a reference hook a test steps beside, a property-test dimension —
# which is what the ceiling is for: `--max N` exits non-zero when more than N
# items are listed.  Run from anywhere inside the repository.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

max=-1
if [ "${1-}" = "--max" ] && [ "$#" -eq 2 ]; then
    max=$2
elif [ "$#" -ne 0 ]; then
    echo "usage: tools/unused_pub.sh [--max N]" >&2
    exit 2
fi

git ls-files crates src examples pmbench | grep '\.rs$' | grep -Ev '/(tests|benches)/' |
    awk -v max="$max" '
    function define(kind, name) {
        where[++defs] = file ":" number
        named[defs] = name
        kinds[defs] = kind
        if (kind != "trait fn") defined[name]++
    }
    { files[++count] = $0 }
    END {
        for (i = 1; i <= count; i++) {
            file = files[i]
            listed = file ~ /^(crates\/[^\/]+\/)?src\//
            number = 0
            in_trait = 0
            while ((getline text < file) > 0) {
                number++
                if (text ~ /^#\[cfg\(test\)\]/) break
                if (text ~ /^[[:space:]]*\/\//) continue
                if (text ~ /^(pub(\([a-z]+\))? +)?(unsafe +)?trait /) in_trait = 1
                else if (text ~ /^}/) in_trait = 0
                if (match(text, /fn +[A-Za-z_][A-Za-z0-9_]*/)) {
                    name = substr(text, RSTART, RLENGTH)
                    sub(/.* /, "", name)
                    fns[name]++
                    if (listed && in_trait && text ~ /^    fn /) define("trait fn", name)
                }
                if (listed && match(text, /pub(\(crate\))? +(const +)?fn +[A-Za-z_][A-Za-z0-9_]*/)) {
                    name = substr(text, RSTART, RLENGTH)
                    sub(/.* /, "", name)
                    define("pub fn", name)
                } else if (listed && match(text, /pub(\(crate\))? +const +[A-Z_][A-Z0-9_]*/)) {
                    name = substr(text, RSTART, RLENGTH)
                    sub(/.* /, "", name)
                    define("pub const", name)
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
        for (d = 1; d <= defs; d++) {
            name = named[d]
            total[kinds[d]]++
            if (mentions[name] == (kinds[d] == "trait fn" ? fns[name] : defined[name])) {
                print where[d] ": " name (kinds[d] == "pub fn" ? "" : " (" kinds[d] ")")
                unused[kinds[d]]++
            }
        }
        printf "%d of %d pub fns have no non-test caller\n", unused["pub fn"], total["pub fn"]
        printf "%d of %d trait methods are mentioned only by their declaration and impls\n",
            unused["trait fn"], total["trait fn"]
        printf "%d of %d pub consts have no non-test reader\n", unused["pub const"], total["pub const"]
        all = unused["pub fn"] + unused["trait fn"] + unused["pub const"]
        if (max >= 0 && all > max) {
            printf "%d caller-less items exceed the committed ceiling of %d: call the new one or delete it\n",
                all, max > "/dev/stderr"
            exit 1
        }
    }'
