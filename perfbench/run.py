#!/usr/bin/env python3
"""Builds and runs the TriQ end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload owl_materialize --seed 1 \
        --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

The first call configures a Release build of the engine, triq_server and
the benchmark driver into .bench_build/perfbench; later calls rebuild
incrementally. The driver's standard output is passed through: its last
line is the JSON result. Build output goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the engine and tool sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("TriQ sources not found; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_self_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_self_test")],
                                timeout=RUN_TIMEOUT_S).returncode)

    if args.workload not in ("owl_materialize", "sparql_serve"):
        fail("unknown workload %r" % args.workload)
    build(["triq_perfbench"])
    os.makedirs(WORK, exist_ok=True)
    command = [
        os.path.join(BUILD, "triq_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(BUILD, "triq", "tools", "triq_server"),
        "--work-dir", WORK,
        "--commit", source_id(),
    ]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
