#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload <fast_read|durable_mix|sim_verify> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds a Release tree (CMake, Ninja when
available) under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only check that the tree is up to date. Build output goes to
standard error, so the last line of standard output is the measuring
program's result object. Persistence files live under .bench_run/ and are
removed after a run that checked out.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        fail("the repository's sources are missing: nothing to build")
    cmds = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(min(os.cpu_count() or 1, 4))
    cmds.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in cmds:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fast_read", "durable_mix", "sim_verify"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build(build_dir())
    tmp = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--tmp", tmp]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
