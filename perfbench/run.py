#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

One workload (the form BENCHMARK.json's command uses):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, one after another, with a table of every metric:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The held-out check: every workload on a seed that was never used while
the benchmark was built and tuned:

    python3 perfbench/run.py --heldout [--seconds S] [--trace 0|1]

The program is built from source with dune (dune's shared cache is
turned off, so nothing is written outside the checkout).  The last line
of standard output of a single-workload run is the result JSON.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["paper-g2g3", "dag-scale", "serve-mix", "fleet-endurance"]
HELDOUT_SEED = 7919
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a batsched checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
        return r.stdout.decode().strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    return r.returncode, r.stdout.decode(errors="replace").splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--heldout", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if sum([a.workload is not None, a.all, a.heldout]) != 1:
        fail("give exactly one of --workload, --all, --heldout")
    build()
    print("# source " + json.dumps({"git_rev": git_rev(), "nproc": os.cpu_count()}))
    sys.stdout.flush()
    if a.workload:
        code, lines = run_one(a.workload, a.seed, a.seconds, a.trace)
        print("\n".join(lines))
        sys.exit(code)
    seed = HELDOUT_SEED if a.heldout else a.seed
    ok = True
    for w in WORKLOADS:
        code, lines = run_one(w, seed, a.seconds, a.trace)
        print("\n".join(l for l in lines if l.startswith("# provenance") or l.startswith("# detail")))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("%-16s no result (exit %d)" % (w, code))
            ok = False
            continue
        ok = ok and code == 0 and res["correct"]
        print("%-16s correct=%s attempted=%d failed=%d" % (w, res["correct"], res["attempted"], res["failed"]))
        for name, v in res["metrics"].items():
            print("  %-28s %16.6g %s" % (name, v["value"], v["unit"]))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
