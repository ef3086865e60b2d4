#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 bench/run.py --workload spread --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds the Go load generator in this
directory into .bench_build/ (the Go build cache goes there too, so the run
writes nothing outside the checkout), runs it with the given arguments and
passes its output through: the last line of standard output is the result
JSON. It exits non-zero when the build or the run fails, and stops the run
if it outlives its time limit.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "rme-bench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"bench: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("bench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"bench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
