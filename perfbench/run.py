#!/usr/bin/env python3
"""Builds and runs the RABIT bytes-to-verdict benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: supervised_stream, sharded_fleet, contended_lab (see
perfbench/README.md). The first run configures and builds a Release build of
../src plus the benchmark program in this directory into .bench_build (or
$CARGO_TARGET_DIR when set); later runs rebuild only what changed. Build
output goes to stderr. The program's stdout passes through unchanged: a
manifest line, then the result JSON as the last line.

When perfbench/digests.json pins a verdict digest for the workload and seed,
the run must reproduce it. Exit codes: 0 ok, 2 usage or build failure,
otherwise the program's own code.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("supervised_stream", "sharded_fleet", "contended_lab")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("RABIT sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", out_dir, "-j", jobs, "--target", "rabit_perfbench"]
    if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "rabit_perfbench")


def git_describe():
    """`git describe` of the checkout, read from its own .git only."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "not-a-git-checkout"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build(build_dir())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-describe", git_describe()]
    pin = pinned_digest(args.workload, args.seed)
    if pin:
        command += ["--pin", pin]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
