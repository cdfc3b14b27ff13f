#!/usr/bin/env python3
"""Build and run the FChain end-to-end benchmark.

    python3 e2ebench/run.py --workload incident_w100 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds `fchaind` and the benchmark binary in
release mode (offline, into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the benchmark with the given arguments. Build output goes to
standard error; the benchmark's last standard-output line is the JSON
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILDS = [
    ("crates/fchain/Cargo.toml", "fchaind"),
    ("e2ebench/Cargo.toml", "e2ebench"),
]


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, binary in BUILDS:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest, "--bin", binary],
            cwd=ROOT, env=env, stdout=sys.stderr)
        if build.returncode != 0:
            print(f"run.py: building {binary} failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = subprocess.run(
        [os.path.join(release, "e2ebench"), *sys.argv[1:],
         "--fchaind", os.path.join(release, "fchaind")],
        cwd=ROOT)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
