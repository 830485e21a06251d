#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json, then the unbounded extras, and
prints every metric by name.

Called by bench/run.sh (which builds first) as

    suite.py [--seed N] [--seconds S] [--trace] [--smoke] [--repeat K] -- BENCH...

where BENCH... is the benchmark binary with its fixed flags. Each run is a
process of its own, so peak-memory readings do not mix.

Without --repeat: one run per workload at --seed, then a summary object.
With --repeat K: K runs per workload at seeds N, N+1, ... and, for every
end-to-end metric, the spread the driver computes -- the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median -- against the metric's bound. The exit code is non-zero if a
run is incorrect, a result line disagrees with BENCHMARK.json, or (except
for setup_s, which the driver exempts, and for the extras) a spread is
outside its bound.

The summary ends with "claim": null: this script measures, it never
compares two commits.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

# Runnable and checked for correctness, but not one of the driver's
# workloads: its time metrics cannot hold a bound on a shared host (README,
# "Steadiness"), so its numbers are printed and compared with nothing.
EXTRA = ["symbolic_mix"]

SPEC = json.loads((pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(bench, workload, seed, seconds, trace, smoke):
    cmd = bench + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    *info, last = out.rstrip("\n").split("\n")
    result = json.loads(last)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        sys.exit(f"{workload}: result line does not match BENCHMARK.json: {sorted(got)}")
    return info, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="1/10-size inputs, 1 s runs")
    ap.add_argument("--repeat", type=int, default=1, metavar="K")
    ap.add_argument("bench", nargs="+")
    args = ap.parse_args()
    seconds = args.seconds or (1 if args.smoke else SPEC["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    ok = True
    summary = {}
    for workload in [w["name"] for w in SPEC["workloads"]] + EXTRA:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            info, result = run_once(args.bench, workload, seed, seconds, args.trace, args.smoke)
            if args.repeat == 1:
                print("\n".join(info))
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
        values = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "median": {name: statistics.median(v) for name, v in values.items()},
        }
        if args.repeat >= 2 and not args.trace:
            print(f"# {workload}: spread over seeds {args.seed}..{args.seed + args.repeat - 1}")
            spreads = {}
            for name, v in values.items():
                q1, _, q3 = statistics.quantiles(v, n=4)
                spreads[name] = spread = (q3 - q1) / statistics.median(v)
                verdict = "ok" if spread <= bounds[name] else "OUTSIDE"
                if verdict != "ok" and name != "setup_s" and workload not in EXTRA:
                    ok = False
                unit = runs[0]["metrics"][name]["unit"]
                print(f"  {name:<26} median={statistics.median(v):>14.4f} {unit:<6}"
                      f" spread={spread:7.4f} bound={bounds[name]:.2f} {verdict}"
                      f"  {' '.join(f'{x:.4g}' for x in v)}")
            summary[workload]["spread"] = spreads
    print(json.dumps({"seed": args.seed, "runs_per_workload": args.repeat, "seconds": seconds,
                      "traced": args.trace, "smoke": args.smoke, "correct": bool(ok),
                      "workloads": summary, "claim": None}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
