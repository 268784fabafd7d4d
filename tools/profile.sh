#!/usr/bin/env bash
# Where a pmbench workload spends its CPU, without perf: a sampling profile.
#
#   tools/profile.sh WORKLOAD SECONDS [SEED [FUNCTION]]
#
# Builds pmbench with frame pointers and line tables in a target directory of
# its own (target/profile, so the benchmark's own build is untouched), runs
# `pmbench --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0` (seed
# 42 by default) with tools/sampler.c preloaded — every 4 ms of CPU it
# records the instruction pointer and the rbp chain — and symbolises the
# samples with addr2line.  Prints four tables of 25 rows: self samples per
# function (the innermost inlined one; a library's named after the binary's
# frame above it), self samples per source line, inclusive samples per
# function (counted once per sample whose stack holds it), and inclusive
# samples per caller -> callee edge of the stack, inlined frames included
# (counted once per sample whose stack holds it): what splits a function's
# time between its callees, and which caller a hot callee is reached from.
# An edge that carries every sample of its caller splits nothing and is
# left out (the spine from `main` down), as is a function calling itself.
# Given a FUNCTION, a fifth table follows: the self samples of every
# function whose name contains it, per source line in line order — where
# inside one function the time goes, which the per-line table above only
# shows for its 25 hottest lines overall.
# Exit status 2 on bad usage.  x86-64 Linux with gcc, binutils and python3.
set -euo pipefail
if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 WORKLOAD SECONDS [SEED [FUNCTION]]" >&2
    exit 2
fi
workload=$1 seconds=$2 seed=${3:-42} function=${4:-}
root=$(cd "$(dirname "$0")/.." && pwd)
target=$root/target/profile
mkdir -p "$target/out"
gcc -O2 -shared -fPIC -o "$target/sampler.so" "$root/tools/sampler.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path "$root/pmbench/Cargo.toml"
bin=$target/release/pmbench
raw=$target/profile.raw
PROFILE_OUT=$raw LD_PRELOAD=$target/sampler.so "$bin" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 --out "$target/out" >/dev/null

python3 - "$bin" "$raw" "$function" <<'PY'
import collections, os, re, subprocess, sys
binary, raw, function = os.path.realpath(sys.argv[1]), sys.argv[2], sys.argv[3]
samples, maps = [], []
with open(raw) as f:
    lines = iter(f)
    for line in lines:
        if line.startswith("maps"):
            break
        samples.append([int(word, 16) for word in line.split()])
    for line in lines:
        fields = line.split()
        if len(fields) >= 6:
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, int(fields[2], 16), fields[5]))

# A position-independent binary's addresses are relative to where its first
# page (file offset 0) was mapped.
base = min(start for start, _, offset, path in maps if offset == 0 and os.path.realpath(path) == binary)

def place(addr):
    """(ELF address in the binary, None) or (None, a library's name)."""
    for start, end, offset, path in maps:
        if start <= addr < end:
            if os.path.realpath(path) == binary:
                return addr - base, None
            return None, "[" + os.path.basename(path) + "]"
    return None, "[unknown]"

placed = {addr: place(addr) for sample in samples for addr in sample}
own = sorted({elf for elf, _ in placed.values() if elf is not None})
chains = {}  # ELF address -> [(function, file:line)], innermost first
if own:
    out = subprocess.run(["addr2line", "-e", binary, "-f", "-C", "-i", "-a"] + [hex(a) for a in own],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    at, current = 0, None
    while at < len(out):
        if out[at].startswith("0x"):
            current = int(out[at], 16)
            chains[current] = []
            at += 1
        else:
            name = re.sub(r"::h[0-9a-f]{16}$", "", out[at])
            where = out[at + 1] if at + 1 < len(out) else "??"
            chains[current].append((name, re.sub(r" \(discriminator \d+\)", "", where)))
            at += 2

def frames(addr):
    elf, library = placed[addr]
    if library is not None:
        return [(library, library)]
    return chains.get(elf) or [("??", "??")]

self_fn, self_line, inclusive, edges, within = (collections.Counter() for _ in range(5))
for sample in samples:
    leaf = frames(sample[0])[0]
    if function and function in leaf[0] and not leaf[0].startswith("["):
        within[leaf[1].split("/src/")[-1]] += 1
    if leaf[0].startswith("["):
        # A library's time is named after the binary's function that called it.
        callers = (frames(addr)[0][0] for addr in sample[1:])
        caller = next((name for name in callers if not name.startswith("[")), "?")
        leaf = (f"{leaf[0]} under {caller}", leaf[1])
    self_fn[leaf[0]] += 1
    self_line[leaf[1].split("/src/")[-1] + "  " + leaf[0][:60]] += 1
    stack = [name for addr in sample for name, _ in frames(addr)]  # innermost first
    inclusive.update(set(stack))
    edges.update({(caller, callee) for callee, caller in zip(stack, stack[1:]) if caller != callee})

edges = collections.Counter({f"{caller[:68]} -> {callee[:68]}": count
                             for (caller, callee), count in edges.items()
                             if count < inclusive[caller]})
total = len(samples)
print(f"{total} samples of {sys.argv[1]}")
for title, table in (("self, by function", self_fn), ("self, by line", self_line),
                     ("inclusive, by function", inclusive),
                     ("inclusive, by caller -> callee edge", edges)):
    print(f"\n{title}")
    for name, count in table.most_common(25):
        print(f"{100 * count / max(total, 1):6.2f}%  {count:7d}  {name[:140]}")
if function:
    def line_order(where):
        path, _, line = where.rpartition(":")
        return (path, int(line) if line.isdigit() else 0)
    print(f"\nself, by line, in functions named *{function}* ({sum(within.values())} samples)")
    for where in sorted(within, key=line_order):
        print(f"{100 * within[where] / max(total, 1):6.2f}%  {within[where]:7d}  {where}")
PY
