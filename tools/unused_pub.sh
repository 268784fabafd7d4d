#!/usr/bin/env bash
# The inventory a simplicity PR starts from, and the gate that keeps it from
# growing back: every `pub fn` / `pub(crate) fn`, every trait method
# declaration and every `pub const` before the first `#[cfg(test)]` of a
# tracked source file under crates/*/src, src or vendor/smol/src that no
# non-test line calls — unless an indented `#[cfg(test)]` right above it
# makes the item itself test code.  Non-test lines are the lines before the first
# unindented `#[cfg(test)]` (an indented one guards a statement, not the
# test module) of the tracked Rust files under crates/, src/, examples/,
# pmbench/ and vendor/smol/src, leaving out tests/ and benches/ directories
# and comment lines (a doc link or a doctest is not a caller).
#
# A function is called by call or path syntax only — `.name(`, `name(`,
# `Owner::name` — never by a field, a local or a parameter of the same name.
# `Owner::name` (with `Self` resolved to the enclosing impl) is attributed to
# that owner's definition; every other call site belongs to whichever `fn`
# of that name it resolves to.  When the scanned files define the name more
# than once (public or not) and a definition has no attributed call, the
# script cannot tell whose the unattributed calls are: it prints the name
# once under "name clashes" for a human to resolve, and does not count it.
# A trait method is listed when nothing calls its name at all; a `pub const`
# when no other line mentions it.
#
# A listed item may still be public on purpose — a reference hook a test
# steps beside, a property-test dimension — which is what the ceiling is for:
# `--max N` exits non-zero when more than N items are listed.  Run from
# anywhere inside the repository.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

max=-1
if [ "${1-}" = "--max" ] && [ "$#" -eq 2 ]; then
    max=$2
elif [ "$#" -ne 0 ]; then
    echo "usage: tools/unused_pub.sh [--max N]" >&2
    exit 2
fi

git ls-files crates src examples pmbench vendor/smol/src | grep '\.rs$' |
    grep -Ev '/(tests|benches)/' |
    awk -v max="$max" '
    # The last word of what `match` just matched: the name being defined.
    function matched_name(text,    name) {
        name = substr(text, RSTART, RLENGTH)
        sub(/.* /, "", name)
        return name
    }
    function define(kind, name) {
        where[++defs] = file ":" number
        named[defs] = name
        kinds[defs] = kind
        owners[defs] = owner
        if (kind != "pub const") owned[owner, name] = 1
    }
    # The type an `impl` line is for: generics dropped, the trait of
    # `impl Trait for Type` skipped.
    function impl_owner(line) {
        sub(/^[[:space:]]*(unsafe +)?impl/, "", line)
        while (line ~ /^</) {
            depth = 0
            for (at = 1; at <= length(line); at++) {
                mark = substr(line, at, 1)
                if (mark == "<") depth++
                else if (mark == ">" && --depth == 0) break
            }
            line = substr(line, at + 1)
        }
        sub(/^.* for /, "", line)
        match(line, /[A-Za-z_][A-Za-z0-9_]*/)
        return substr(line, RSTART, RLENGTH)
    }
    { files[++count] = $0 }
    END {
        for (i = 1; i <= count; i++) {
            file = files[i]
            listed = file ~ /^((crates|vendor)\/[^\/]+\/)?src\//
            number = 0
            in_trait = 0
            test_attribute = 0
            owner = ""
            while ((getline text < file) > 0) {
                number++
                if (text ~ /^#\[cfg\(test\)\]/) break
                if (text ~ /^[[:space:]]*\/\//) continue
                # An item under an indented `#[cfg(test)]` is test code.
                counted = listed && !test_attribute
                test_attribute = text ~ /^[[:space:]]+#\[cfg\(test\)\]/
                if (text ~ /^(pub(\([a-z]+\))? +)?(unsafe +)?trait /) {
                    in_trait = 1
                    owner = text
                    sub(/^.*trait +/, "", owner)
                    sub(/[^A-Za-z0-9_].*/, "", owner)
                } else if (text ~ /^[[:space:]]*(unsafe +)?impl[ <]/) {
                    owner = impl_owner(text)
                } else if (text ~ /^}/) {
                    in_trait = 0
                    owner = ""
                }
                if (match(text, /(^|[^A-Za-z0-9_])fn +[A-Za-z_][A-Za-z0-9_]*/))
                    fns[matched_name(text)]++
                if (counted && in_trait && match(text, /^    fn +[A-Za-z_][A-Za-z0-9_]*/))
                    define("trait fn", matched_name(text))
                else if (counted && match(text, /pub(\(crate\))? +(const +)?(unsafe +)?fn +[A-Za-z_][A-Za-z0-9_]*/))
                    define("pub fn", matched_name(text))
                else if (counted && match(text, /pub(\(crate\))? +const +[A-Z_][A-Z0-9_]*/))
                    define("pub const", matched_name(text))
                # Every word of the line, with what stands before and after it.
                imports = text ~ /^[[:space:]]*(pub(\([a-z]+\))? +)?use /
                split("", seen)
                previous = ""
                rest = text
                while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    gap = substr(rest, 1, RSTART - 1)
                    word = substr(rest, RSTART, RLENGTH)
                    rest = substr(rest, RSTART + RLENGTH)
                    if (!(word in seen)) { seen[word] = 1; mentions[word]++ }
                    called = rest ~ /^(\(|::<)/
                    if (imports || (previous == "fn" && gap ~ /^ +$/)) {
                        # an import or a definition is not a call
                    } else if (gap == "::" && previous != "") {
                        if (called || rest !~ /^::/)
                            qualified[previous == "Self" ? owner : previous, word]++
                    } else if (called || gap ~ /::$/) {
                        calls[word]++
                    }
                    previous = word
                }
            }
            close(file)
        }
        # A qualifier that defines no such function (a module, a generic
        # parameter, an alias) attributes nothing.
        for (pair in qualified) {
            split(pair, part, SUBSEP)
            if (!((part[1], part[2]) in owned)) calls[part[2]] += qualified[pair]
        }
        for (d = 1; d <= defs; d++) {
            name = named[d]
            kind = kinds[d]
            total[kind]++
            if (kind == "pub const") {
                if (mentions[name] > 1) continue
            } else if (qualified[owners[d], name] > 0) {
                continue
            } else if (calls[name] > 0) {
                if (kind == "pub fn" && fns[name] > 1) {
                    if (!(name in clash)) clashes[++clash_count] = name
                    clash[name] = clash[name] " " where[d]
                }
                continue
            }
            print where[d] ": " name (kind == "pub fn" ? "" : " (" kind ")")
            unused[kind]++
        }
        printf "%d of %d pub fns have no non-test caller\n", unused["pub fn"], total["pub fn"]
        printf "%d of %d trait methods are called by nothing but tests\n",
            unused["trait fn"], total["trait fn"]
        printf "%d of %d pub consts have no non-test reader\n", unused["pub const"], total["pub const"]
        if (clash_count > 0) {
            printf "%d name clashes (unattributed calls, several fns of the name; not counted):\n", clash_count
            for (c = 1; c <= clash_count; c++)
                printf "  %s (%d calls):%s\n", clashes[c], calls[clashes[c]], clash[clashes[c]]
        }
        all = unused["pub fn"] + unused["trait fn"] + unused["pub const"]
        if (max >= 0 && all > max) {
            printf "%d caller-less items exceed the committed ceiling of %d: call the new one or delete it\n",
                all, max > "/dev/stderr"
            exit 1
        }
    }'
