#!/usr/bin/env python3
"""Build and run camcast's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tcp-chord-1k --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark program (see main.go). The
program is built from source into .bench_build/ at the repository root, with
the Go build cache there too, so a run reads and writes only inside the
checkout. The build needs the camcast module one directory up; without it
the build fails and so does the run, before any result is printed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
