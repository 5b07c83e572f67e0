#!/usr/bin/env python3
"""Steadiness evidence for the host-time benchmark.

Runs perfbench/run.py ten times on each workload of BENCHMARK.json, each
time with another seed, and records for every end-to-end metric its values, their
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median, next to the bound
BENCHMARK.json fixes. Each set of runs is stored in
perfbench/STEADINESS.json under --label; once two sets exist, the record
also compares the second set's medians with the first's.

Run from the root of a checkout:

    python3 perfbench/steady.py --label set1 [--seed0 1]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RECORD = os.path.join("perfbench", "STEADINESS.json")
RUNS = 10


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if p.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1]), time.monotonic() - t0


def worse_by(better, first, second):
    """How much worse the second median is than the first, as a share."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.seed0, args.seed0 + RUNS))
    record = {}
    if os.path.exists(RECORD):
        with open(RECORD) as f:
            record = json.load(f)
    this = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for wl in names:
        values = {name: [] for name in e2e}
        bad, wall = 0, []
        for seed in seeds:
            res, dt = run_once(wl, seed, bench["run_seconds"])
            wall.append(round(dt, 1))
            bad += (not res["correct"]) or res["failed"] > 0
            for name in e2e:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.4g}" for n in e2e) + f" ({dt:.0f} s)",
                file=sys.stderr)
        metrics = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            bound = e2e[name]["bound"]
            metrics[name] = {
                "values": vals, "q1": q1, "median": med, "q3": q3,
                "spread": spread, "bound": bound,
                "spread_over_bound": spread / bound,
            }
        this["workloads"][wl] = {
            "bad_runs": bad, "run_wall_s": wall, "metrics": metrics}
    sets = record.setdefault("sets", {})
    sets[args.label] = this
    labels = list(sets)
    if len(labels) >= 2:
        first, second = sets[labels[0]], sets[labels[1]]
        cmp = {
            wl: {
                name: {
                    "worse_by": worse_by(e2e[name]["better"],
                                         first["workloads"][wl]["metrics"][name]["median"],
                                         m["median"]),
                    "bound": e2e[name]["bound"],
                }
                for name, m in w2["metrics"].items()
            }
            for wl, w2 in second["workloads"].items()
        }
        record["comparison"] = {"first": labels[0], "second": labels[1],
                                "workloads": cmp}
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for wl, w in this["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{wl:11} {name:13} median {m['median']:12.5g} "
                  f"spread {m['spread']:.4f} bound {m['bound']} "
                  f"({m['spread_over_bound']:.2f} of it)")


if __name__ == "__main__":
    main()
