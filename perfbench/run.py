#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The harness and libgraphhd are built with
CMake (Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
scratch data goes to a per-run directory inside it and is removed at the end.

An untraced run is SLICES processes in a row, each set up from the same seed
and measuring SECONDS / SLICES; every metric is the median over the slices,
so one process that lands on a slow CPU of a shared host, or meets a burst
of load from its neighbours, does not set the figure.  A traced run is one
process.  Build output and per-slice detail go to stderr, so the last line
of stdout is the benchmark's JSON result.  Exits non-zero, printing no
result, when the build or a slice fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SLICES = 5


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                "--target", "perfbench", "perfbench_selftest"]
    for command in (configure, compile_):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))


def run_slice(binary, args, seconds, slice_index, workdir):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--slice", str(slice_index), "--workdir", workdir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perfbench: slice %d failed with exit code %d" % (slice_index, done.returncode))
    return json.loads(lines[-1])


def merge(results):
    """Median of every metric over the slices; counts add up."""
    names = set(results[0]["metrics"])
    correct = all(r["correct"] and set(r["metrics"]) == names for r in results)
    if "accuracy" in names:
        # Every slice trains and predicts from the same seed.
        correct = correct and len({r["metrics"]["accuracy"]["value"] for r in results}) == 1
    metrics = {}
    for name in sorted(names):
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        metrics[name] = {"value": statistics.median(values),
                         "unit": results[0]["metrics"][name]["unit"]}
        print("# %s: %s -> %.6g" % (name, " ".join("%.6g" % v for v in values),
                                     metrics[name]["value"]), file=sys.stderr)
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if sys.argv[1:] == ["--selftest"]:
        build(build_dir)
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode)
    parser = argparse.ArgumentParser(description="End-to-end benchmark of libgraphhd.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    workdir = os.path.join(build_dir, "work", "run-%d" % os.getpid())
    if args.trace:
        result = run_slice(binary, args, args.seconds, 0, workdir)
    else:
        result = merge([run_slice(binary, args, args.seconds / SLICES, k,
                                  "%s-slice%d" % (workdir, k)) for k in range(SLICES)])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
