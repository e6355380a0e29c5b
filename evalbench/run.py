#!/usr/bin/env python3
"""Builds the benchmark and javaflow-serve from source, then runs one workload.

    python3 evalbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Both binaries go to $CARGO_TARGET_DIR
(default .bench_build); the benchmark finds javaflow-serve next to itself.
The benchmark process replaces this one, so its last stdout line is the
result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        [os.path.join(HERE, "Cargo.toml")],
        [os.path.join(ROOT, "Cargo.toml"), "-p", "javaflow-server", "--bin", "javaflow-serve"],
    ]
    for manifest, *extra in builds:
        cmd = ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest]
        # Cargo's output goes to stderr, keeping stdout for the result.
        done = subprocess.run(cmd + extra, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)
    exe = os.path.join(target, "release", "evalbench")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
