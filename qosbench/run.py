#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs one workload.

    python3 qosbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/qosbench
(rebuilt incrementally); spans, witness files and campaign scratch go to
.bench_build/qosbench-state/<build id>. The last stdout line is
the benchmark's JSON result; build output goes to stderr. Workloads and
metrics are described in qosbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qosbench")
STATE = os.path.join(ROOT, ".bench_build", "qosbench-state")
WORKLOADS = ["campaign_dense", "campaign_sparse", "switch_r64_hotspot",
             "campaign_sharded"]
RUN_TIMEOUT_S = 175
# Compiler and program scratch files stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, env=ENV)
    subprocess.run(["cmake", "--build", BUILD, "--target", "qosbench",
                    "-j", jobs], stdout=sys.stderr, check=True, env=ENV)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    exe = os.path.join(BUILD, "qosbench")
    with open(exe, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    # Per-build state: simulated totals are compared across runs of one
    # build only, so a rebuilt simulator starts a fresh witness.
    state = os.path.join(STATE, build_id)
    cmd = [exe,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"run.py: benchmark exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])  # a malformed result fails the run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if args.trace else
                                      "end_to_end"]}
    if set(result["metrics"]) != wanted:
        print("run.py: metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ wanted)}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
