#!/usr/bin/env python3
"""Build and run the row-scale lifecycle benchmark.

Run from the repository root:

    python3 rowbench/run.py --workload row-churn --seed 1 --seconds 10 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build, relative to the repository
root), with every Go cache and temporary directory kept inside it. The
program's output is passed through; its last line is the JSON result.
A traced run (--trace 1) writes its spans to
<build dir>/spans/<workload>.tsv.gz.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    args, _ = parser.parse_known_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go", "cache"),
        GOMODCACHE=os.path.join(build, "go", "mod"),
        GOPATH=os.path.join(build, "go", "path"),
        GOTMPDIR=os.path.join(build, "go", "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "go", "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    for d in ("GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[d], exist_ok=True)
    spans = os.path.join(build, "spans")
    os.makedirs(spans, exist_ok=True)

    binary = os.path.join(build, "rowbench")
    built = subprocess.run(["go", "build", "-trimpath", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("rowbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary] + sys.argv[1:]
    if args.workload:
        cmd += ["--spans", os.path.join(spans, os.path.basename(args.workload) + ".tsv.gz")]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("rowbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
