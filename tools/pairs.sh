#!/usr/bin/env bash
# Interleaved parent/change pairs of one pmbench workload, held to the claim
# rule of ROADMAP.md's process rules: at least 10 pairs in alternating order,
# wins in at least nine of every ten, and medians further apart than the
# parent's interquartile range.
#
#   tools/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS SEED
#
# Pair k runs the parent first when k is odd and the change first when it is
# even, each run as `BIN --workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0 --out DIR` with a directory of its own under $TMPDIR, and reads
# only the JSON object pmbench prints on its last line.  For every
# end-to-end metric of BENCHMARK.json, in the direction it declares better,
# prints every pair, both medians and quartiles, the win count and whether
# the claim rule holds; then the operations that failed on either side.
# Each pair's peak_rss_mb line also names both runs' trial counts
# (`attempted`), since memory is compared at equal trial counts.  Last, each
# pair's `outcome_digest`s, read from the `records.jsonl` in both runs' --out
# directories, and whether they are the same: a simulator workload's digest
# is a fixed set of trials, so a change that draws, sends or delivers
# nothing differently keeps it (the daemon workloads have none).
# Exit status 2 on bad usage, 1 when a pair's digests differ.
set -euo pipefail
if [ "$#" -ne 6 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS SEED" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5 seed=$6
benchmark=$(dirname "$0")/../BENCHMARK.json
out=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$out"' EXIT

# run BIN DIR: one run, its last line kept as DIR.json.
run() {
    "$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$2" \
        | tail -n 1 >"$2.json"
}

for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then
        run "$parent" "$out/parent-$k"
        run "$change" "$out/change-$k"
    else
        run "$change" "$out/change-$k"
        run "$parent" "$out/parent-$k"
    fi
done

python3 - "$benchmark" "$out" "$pairs" <<'EOF'
import json, statistics, sys
benchmark, out, n = sys.argv[1], sys.argv[2], int(sys.argv[3])

def last_line(side, k):
    with open(f"{out}/{side}-{k}.json") as f:
        return json.load(f)

runs = [(last_line("parent", k), last_line("change", k)) for k in range(1, n + 1)]

def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")

with open(benchmark) as f:
    metrics = json.load(f)["end_to_end"]
for metric in metrics:
    name, better = metric["name"], metric["better"]
    sign = 1 if better == "higher" else -1
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in runs]
    print(f"{name} ({better} is better)")
    for k, ((p, c), (pr, cr)) in enumerate(zip(pairs, runs), 1):
        # Memory steps with the trial count (a bimodal heap on topics_*), so
        # each run's trials stand beside it: compare at equal counts.
        trials = (f"  trials {pr['attempted']} / {cr['attempted']}"
                  if name == "peak_rss_mb" else "")
        print(f"  pair {k:2d}  parent {p:<14.6g} change {c:<14.6g}{trials}".rstrip())
    qp, qc = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    iqr, gap = qp[2] - qp[0], sign * (qc[1] - qp[1]) + 0.0
    holds = n >= 10 and 10 * wins >= 9 * n and gap > iqr
    ratio = f"x{qc[1] / qp[1]:.3f}" if qp[1] else "x-"
    print(f"  parent median {qp[1]:.6g} (quartiles {qp[0]:.6g} .. {qp[2]:.6g})")
    print(f"  change median {qc[1]:.6g} (quartiles {qc[0]:.6g} .. {qc[2]:.6g}), {ratio}")
    print(f"  wins {wins}/{n}, median gap {gap:.6g} against a parent IQR of {iqr:.6g}: "
          f"claim rule {'holds' if holds else 'does not hold'}")
failed = [sum(side["failed"] for side in sides) for sides in zip(*runs)]
attempted = [sum(side["attempted"] for side in sides) for sides in zip(*runs)]
print(f"failed operations: parent {failed[0]}/{attempted[0]}, change {failed[1]}/{attempted[1]}")

def digest(side, k):
    with open(f"{out}/{side}-{k}/records.jsonl") as f:
        return [json.loads(line) for line in f if line.strip()][-1]["outcome_digest"]

print("outcome_digest")
differ = 0
for k in range(1, n + 1):
    p, c = digest("parent", k), digest("change", k)
    differ += p != c
    print(f"  pair {k:2d}  parent {p or '-':<16} change {c or '-':<16} "
          f"{'same' if p == c else 'different'}")
sys.exit(1 if differ else 0)
EOF
