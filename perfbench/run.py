#!/usr/bin/env python3
"""Build and run the perfbench end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload whatif-cold --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's sources in the parent directory. Everything the
build and the run write — the Go build cache, the binary, fixtures,
journals, span files, identity records — stays under .bench_build in the
repository root. Arguments are passed to the benchmark binary unchanged;
its exit code is this script's exit code. "--workload all" runs every
workload in turn and exits with the worst code.
"""

import os
import subprocess
import sys

WORKLOADS = ["whatif-cold", "read-warm", "tick-live", "catalog-churn"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(WORK, "gocache"),
        GOPATH=os.path.join(WORK, "gopath"),
        GOMODCACHE=os.path.join(WORK, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(WORK, "tmp"),
        XDG_CONFIG_HOME=os.path.join(WORK, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOENV="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(WORK, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        i = args.index("--workload") + 1
        if args[i] == "all":
            runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    code = 0
    for a in runs:
        code = max(code, subprocess.run([binary, "-work", WORK] + a, cwd=ROOT, env=env).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
