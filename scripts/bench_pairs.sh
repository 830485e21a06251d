#!/usr/bin/env bash
# Interleaved parent/change comparison of one benchmark workload — the
# procedure of the choosing-metrics guide, section 8, that every perf PR
# needs:
#
#   scripts/bench_pairs.sh <parent-ref> <workload> <seconds> <seed>...
#
# One pair of runs per seed: the parent commit from a pristine checkout
# under target/bench_pairs/, the change from this working tree (committed
# or not), each with its own CARGO_TARGET_DIR, alternating which side goes
# first. Both sides are driven through their own `bench/run.sh --workload
# W --seed N --seconds S --trace 0`, exactly as the driver calls it. Then,
# per end-to-end metric of BENCHMARK.json: median [q1-q3] of both sides,
# the relative gap (positive = the change is better), pairs won, and the
# verdict — a GAIN needs >= 9/10 of the pairs won and a
# median gap wider than the parent's own q1-q3 spread; a median worse than
# the metric's bound is flagged WORSE.
#
# Every run is appended to target/bench_pairs/runs-<sha>-<workload>.jsonl,
# so a second call with more seeds extends the same series (delete the
# file to start over). Example:
#
#   scripts/bench_pairs.sh HEAD~1 replay_batch 24 21 22 23 31 32 33 41 42 43 44
set -euo pipefail

if (($# < 4)); then
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
ref=$1 workload=$2 seconds=$3
shift 3

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --short "$ref^{commit}")
work=$root/target/bench_pairs
parent=$work/parent-$sha
runs=$work/runs-$sha-$workload.jsonl

# `git archive`, not `git worktree`: the checkout must not register itself
# in this repository's .git.
if [[ ! -d $parent ]]; then
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi

run() { # side checkout seed
    local result
    result=$(cd "$2" && CARGO_TARGET_DIR=$work/target-$1 bash bench/run.sh \
        --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '{"side":"%s","seed":%s,"result":%s}\n' "$1" "$3" "$result" >>"$runs"
    echo "  $1 seed $3 done" >&2
}

pair=0
for seed in "$@"; do
    if ((pair % 2 == 0)); then
        run parent "$parent" "$seed"
        run change "$root" "$seed"
    else
        run change "$root" "$seed"
        run parent "$parent" "$seed"
    fi
    pair=$((pair + 1))
done

python3 - "$root/BENCHMARK.json" "$runs" "$sha" "$workload" <<'PY'
import json, statistics, sys

spec, runs, sha, workload = sys.argv[1:5]
metrics = json.load(open(spec))["end_to_end"]
sides = {"parent": [], "change": []}
for line in open(runs):
    rec = json.loads(line)
    sides[rec["side"]].append(rec["result"])
pairs = list(zip(sides["parent"], sides["change"]))
bad = [r for rs in sides.values() for r in rs if not r["correct"] or r["failed"]]
print(f"{workload}: {len(pairs)} pairs, parent {sha} vs working tree; "
      f"{len(bad)} runs incorrect or with failed operations")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r, _ in pairs]
    c = [r["metrics"][name]["value"] for _, r in pairs]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    gap = (pmed - cmed) if lower else (cmed - pmed)
    rel = gap / pmed if pmed else 0.0
    if ties == len(pairs):
        verdict = "identical"
    elif wins * 10 >= len(pairs) * 9 and gap > pq3 - pq1:
        verdict = "GAIN" if len(pairs) >= 10 else "ahead (a gain needs >= 10 pairs)"
    elif -rel > m["bound"]:
        verdict = "WORSE than the bound"
    else:
        verdict = "within the bound"
    print(f"  {name:<26} {pmed:>12.4f} [{pq1:.4f}-{pq3:.4f}] -> "
          f"{cmed:>12.4f} [{cq1:.4f}-{cq3:.4f}] {m['unit']:<6} "
          f"{rel:+7.1%}  won {wins}/{len(pairs)}  {verdict}")
PY
