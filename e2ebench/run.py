#!/usr/bin/env python3
"""Builds the `lowvolt` CLI and the `lvbench` harness, then runs lvbench.

Run from the repository root:

    python3 e2ebench/run.py --workload sta-import --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py run --seed 42 --out a.json

Both builds go to $CARGO_TARGET_DIR (default: .bench_build in the current
directory), so lvbench finds `lowvolt` next to itself. Build output goes to
stderr; lvbench's stdout is passed through, its last line being the result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "lowvolt-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return built.returncode or 1
    lvbench = os.path.join(target, "release", "lvbench")
    return subprocess.run([lvbench] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
