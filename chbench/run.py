#!/usr/bin/env python3
"""Build and run the CH-over-the-wire benchmark.

Run from the root of a checkout:

    python3 chbench/run.py --workload ch_oltp --seed 1 --seconds 40 --trace 0
    python3 chbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 chbench/run.py --test        # the benchmark's own unit tests

The engine and the ch_bench program are built from source with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout. ch_bench's
stdout is passed through; its last line is the result object. Build output
goes to stderr. Scratch data (WAL, checkpoints, spans) lives under the build
directory and is removed when the run ends; a traced run leaves its spans
in spans-<workload>-<seed>.json there.
"""
import argparse
import os
import shutil
import subprocess
import sys

ALL = ["ch_oltp", "ch_olap", "ch_htap"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "chbench")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "chbench")


def build(target):
    out = build_dir()
    steps = [
        ["cmake", "-S", SRC, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j4"],
    ]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    if args.test:
        binary = build("ch_bench_test")
        return 1 if binary is None else subprocess.call([binary])
    if not args.workload:
        ap.error("--workload is required")

    binary = build("ch_bench")
    if binary is None:
        return 1
    workloads = ALL if args.workload == "all" else [args.workload]
    rc = 0
    for w in workloads:
        rc = max(rc, run(binary, w, args))
    return rc


def run(binary, workload, args):
    data = os.path.join(build_dir(), "run-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data, "--commit", commit()]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s-%d.json" % (workload, args.seed))]
    try:
        sys.stdout.flush()
        return subprocess.call(cmd)
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
