#!/usr/bin/env python3
"""Steadiness check: run each workload k times on one commit, in one or
more sets, and print every end-to-end metric's median, quartiles and spread
against its bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workloads a,b]

Run k of a set uses --seed k. Spread is (q3 - q1) / median with the
quartiles of statistics.quantiles(values, n=4). A metric is steady when its
spread is within its bound in every set and, with --sets 2, when the two
sets' medians differ by no more than the bound. setup_s and eco_per_s are
always listed, because they are the figures that drifted between sets
before. Exits 1 when anything is outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    lines = proc.stdout.decode(errors="replace").strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        raise SystemExit("%s seed %d: run failed (exit %d)"
                         % (workload, seed, proc.returncode))
    return result


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for index in range(args.sets):
            runs = []
            for seed in range(1, args.runs + 1):
                result = run_once(workload, seed, seconds)
                runs.append(result)
                print("  %s set %d seed %d: %s" % (
                    workload, index + 1, seed,
                    " ".join("%s=%.6g" % (name, value["value"])
                             for name, value in result["metrics"].items())),
                    flush=True)
            sets.append(runs)

        print("\n%s (%d runs x %d sets, %g s each)" % (
            workload, args.runs, args.sets, seconds))
        print("  %-16s %12s %12s %12s %8s %8s %8s   (last set)" % (
            "metric", "median", "q1", "q3", "spread", "bound", "drift"))
        names = [n for n in specs if n in sets[0][0]["metrics"]]
        for name in names:
            bound = specs[name]["bound"]
            medians = []
            flags = []
            for index, runs in enumerate(sets, 1):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(statistics.median(values))
                if spread > bound:
                    flags.append("SPREAD (set %d)" % index)
                elif spread > bound / 3:
                    flags.append("(set %d over a third of the bound)" % index)
            drift = (worse_by(medians[0], medians[-1], specs[name]["better"])
                     if len(medians) > 1 else 0.0)
            if abs(drift) > bound:
                flags.append("DRIFT")
            if any(flag.startswith(("SPREAD", "DRIFT")) for flag in flags):
                ok = False
            marker = " <- reported explicitly" if name in (
                "setup_s", "eco_per_s") else ""
            print("  %-16s %12.6g %12.6g %12.6g %8.3f %8.3f %8.3f %s%s" % (
                name, medians[-1], q1, q3, spread, bound, drift,
                " ".join(flags), marker))
        print(flush=True)

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
