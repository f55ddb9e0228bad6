"""Build the simulator benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 15 --trace 0

The Go program in this directory is compiled against the simulator
sources one directory up. Every build artifact (Go build cache, module
cache, temporary files, the binary) and every run artifact (checkpoint
stores, span dumps) stays under the build directory, `.bench_build` by
default or $CARGO_TARGET_DIR when set. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOWORK="off",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode or 1
    sys.stdout.flush()
    os.execve(binary, [binary, "--work-dir", os.path.join(build, "run")] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
