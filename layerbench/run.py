#!/usr/bin/env python3
"""Builds the release `nvc` and the layerbench driver, then runs the driver.

Run from the repository root:

    python3 layerbench/run.py --workload hub-repeat --seed 1 --seconds 20 --trace 0

Every argument is passed through to the driver (see layerbench/src/main.rs
and layerbench/NOTES.md). Build output goes to stderr, so the driver's
result stays the last line of stdout. Cargo builds into CARGO_TARGET_DIR
(default `.bench_build`); the driver keeps its checkpoints and journals in
`<target dir>/layerbench-work`.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            print(
                f"layerbench: {needed} not found; run from the repository root",
                file=sys.stderr,
            )
            return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "-p", "neurovectorizer", "--bin", "nvc"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join("layerbench", "Cargo.toml"),
        ],
    )
    for cmd in builds:
        build = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if build.returncode != 0:
            print(f"layerbench: `{' '.join(cmd)}` failed", file=sys.stderr)
            return build.returncode or 1
    release = os.path.join(target, "release")
    driver = [
        os.path.join(release, "layerbench"),
        *sys.argv[1:],
        "--nvc",
        os.path.join(release, "nvc"),
        "--work",
        os.path.join(target, "layerbench-work"),
    ]
    return subprocess.run(driver, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
