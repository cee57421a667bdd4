#!/usr/bin/env python3
"""Build and run the Columba S benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload search|polish|service \
        --seed N --seconds S --trace 0|1

Builds the `columba-perfbench` package next to this script in release
mode (offline, into `$CARGO_TARGET_DIR`, default `.bench_build`), then
runs it from the repository root, the `service` workload pinned to one
core (see `src/service.rs`). The last line of standard output is the
run's JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds, plus set-up and output checks.
RUN_TIMEOUT_S = 170


def pin_to_one_core() -> None:
    """Limits the calling process to the highest-numbered core it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["search", "polish", "service"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "columba-perfbench")
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    try:
        pin = args.workload == "service" and hasattr(os, "sched_setaffinity")
        run = subprocess.run(
            command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False,
            preexec_fn=pin_to_one_core if pin else None,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
