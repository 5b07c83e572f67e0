#!/usr/bin/env python3
"""Host-time benchmark of the DynaCut reproduction: the entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_web --seed 1 --seconds 20 --trace 0

It builds perfbench/hostbench.exe from the checkout's sources with dune
into .bench_build/dune, runs it, and prints its result as the last line
of standard output: one JSON object with the keys correct, attempted,
failed and metrics. Progress goes to standard error. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_web", "recut_ngx", "profile_kv")
WORK_DIR = ".bench_build"
BUILD_DIR = os.path.join(WORK_DIR, "dune")
STATE_DIR = os.path.join(WORK_DIR, "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "hostbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description="DynaCut host-time benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    # the program is built from the checkout's own sources
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a checkout")

    root = os.getcwd()
    tmp = os.path.join(root, WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(STATE_DIR, exist_ok=True)
    # keep every file the build and the run write inside the checkout
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        TMPDIR=tmp,
        XDG_CACHE_HOME=os.path.join(root, WORK_DIR, "cache"),
    )
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir",
             os.path.join(root, BUILD_DIR), "--display", "quiet",
             "./perfbench/hostbench.exe"],
            env=env, stdout=sys.stderr)
    except FileNotFoundError:
        fail("dune not found")
    if build.returncode != 0:
        fail("build failed")

    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--state-dir", STATE_DIR],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"hostbench exited with code {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
