#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `parulel` binary (the root
package) and the `perfbench` package in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark; its
standard output ends with the one-line JSON result. Exits non-zero
without a result if either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "parulel"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr so the result stays the last line
        # of standard output.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--parulel-bin", os.path.join(release, "parulel"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ] + sys.argv[1:]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
