#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload train-full --seeds 1-10

Runs perfbench/run.py once per seed (untraced, run_seconds from
BENCHMARK.json) and prints, per metric, the median, the interquartile
distance as a share of the median, and that share against the metric's
bound. A benchmark is steady when every spread but setup_s's is within its
bound; the aim is a third of it.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    values, runs = {}, []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        runs.append((seed, proc.returncode, result["correct"]))
        print("seed %d: exit %d correct %s" % (seed, proc.returncode, result["correct"]),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    steady = all(code == 0 and ok for _, code, ok in runs)
    print("%-18s %14s %9s %7s %s" % ("metric", "median", "spread", "bound", "share of bound"))
    for metric in bench["end_to_end"]:
        xs = values.get(metric["name"], [])
        if not xs:
            print("%-18s missing" % metric["name"])
            steady = False
            continue
        sp = stats.spread(xs) if len(xs) > 1 else 0.0
        share = sp / metric["bound"]
        if metric["name"] != "setup_s" and share > 1.0:
            steady = False
        print("%-18s %14.6g %9.4f %7.3f %6.2f" % (metric["name"], stats.median(xs), sp,
                                                    metric["bound"], share))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
