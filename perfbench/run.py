#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

    python3 perfbench/run.py --workload <solve_ladder|sweep_mix|serve|all> \
        --seed N --seconds S --trace 0|1

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default .bench_build). `--workload all` runs the three
workloads in turn and exits nonzero if any output check fails. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["solve_ladder", "sweep_mix", "serve"]


def build(here):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(here, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run_one(exe, args):
    """Run the binary; return (exit code, its final JSON line)."""
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    return proc.returncode, lines[-1]


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isdir(os.path.join(here, "..", "crates")):
        sys.exit("perfbench: run from a checkout of the repository (no crates/ beside perfbench/)")
    exe = build(here)
    if "all" not in argv:
        code, last = run_one(exe, argv)
        print(last, flush=True)
        return code
    # --workload all: every workload in turn, one combined result.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        args = [w if a == "all" else a for a in argv]
        code, last = run_one(exe, args)
        print(last, flush=True)
        worst = max(worst, code)
        try:
            r = json.loads(last)
        except ValueError:
            combined["correct"] = False
            continue
        combined["correct"] &= r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for k, v in r["metrics"].items():
            combined["metrics"][w + "." + k] = v
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
