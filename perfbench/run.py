#!/usr/bin/env python3
"""Build the perfbench Go binary from this checkout and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload apply --seed 1 --seconds 10 --trace 0

Everything the build writes (binary, Go build cache, temporary files) goes
under .bench_build/ at the repository root, so the first run compiles from
source and later runs reuse the cache. The arguments are passed to the
binary unchanged; its last line of standard output is the JSON result.
Exits non-zero, printing no result, if the build or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170  # the run itself; the first build is not counted


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
