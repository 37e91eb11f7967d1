#!/usr/bin/env python3
"""Build tunebench and the petal-shard worker from source, then run tunebench.

Usage (from the repository root):

    python3 tunebench/run.py --workload <name> [--seed N] [--seconds N] [--trace 0|1]

Builds go to $CARGO_TARGET_DIR (default: .bench_build in the repository root);
temporary registries and span files go under its `tunebench` subdirectory. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero, printing no result, when a build fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def run(cmd, env, stdout=None):
    """Run cmd from the repository root; kill and reap it if we are stopped."""
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    signal.signal(signal.SIGTERM, _terminate)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for build in (
        cargo + ["--manifest-path", os.path.join("tunebench", "Cargo.toml")],
        cargo + ["-p", "petal_shard", "--bin", "petal-shard"],
    ):
        code = run(build, env, stdout=sys.stderr)
        if code != 0:
            print(f"tunebench: build failed: {' '.join(build)}", file=sys.stderr)
            return code if code > 0 else 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "tunebench"),
        "--shard-bin", os.path.join(release, "petal-shard"),
        "--scratch", os.path.join(target, "tunebench"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    return run(cmd, env)


if __name__ == "__main__":
    sys.exit(main())
