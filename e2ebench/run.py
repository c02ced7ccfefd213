#!/usr/bin/env python3
"""End-to-end benchmark of the DVAFS runtime, admission and re-plan paths.

Run from the repository root:

    python3 e2ebench/run.py --workload serve|admit|replan --seed N \
        --seconds S --trace 0|1 [--threads N] [--isa NAME]

The first run configures and builds the benchmark package (e2ebench/,
which compiles ../src) into $CARGO_TARGET_DIR or .bench_build. The run
prints notes and a metric table, then as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (a per-layer metric a workload never
exercises reads 0). The exit code is non-zero when the build fails, an
output check fails or a listed end-to-end metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "admit", "replan")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "stream_engine.h")):
        sys.exit("e2ebench: no dvafs sources next to e2ebench/; run from a "
                 "repository checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "e2ebench"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2ebench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=1,
                    help="stream, sweep and frontier workers (default 1)")
    ap.add_argument("--isa", help="pin the vec backend "
                    "(scalar, neon, avx2, avx512)")
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the benchmark's own test")
    ap.add_argument("--corrupt", action="store_true",
                    help="tamper one output before the checks (test)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("e2ebench: build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out"),
           "--threads", str(args.threads)]
    if args.isa:
        cmd += ["--isa", args.isa]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        sys.exit("e2ebench: the benchmark binary printed no result "
                 "(exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    measured = raw["metrics"]
    metrics = {}
    missing = []
    for m in declared_metrics(args.trace):
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not args.trace:
                missing.append(name)
            metrics[name] = {"value": 0.0, "unit": unit}
        elif got["unit"] != unit:
            sys.exit("e2ebench: %s measured in %s, declared in %s"
                     % (name, got["unit"], unit))
        else:
            metrics[name] = {"value": got["value"], "unit": unit}
    for name in sorted(metrics):
        print("%-44s %18.6f %s" % (name, metrics[name]["value"],
                                   metrics[name]["unit"]))
    attempted, failed = raw["attempted"], raw["failed"]
    print("# ops.failed_frac = %g (%d of %d operations failed); isa=%s "
          "workers=%d" % (failed / max(1, attempted), failed, attempted,
                          raw["isa"], raw["workers"]))
    if missing:
        print("# MISSING end-to-end metrics: " + ", ".join(missing))
    correct = bool(raw["correct"]) and not missing and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
