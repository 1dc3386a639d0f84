#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload world|service|explore \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (into the checkout's _build), then
runs it from the checkout root. Everything the benchmark prints goes to
stdout; its last line is the JSON result. Build output goes to stderr.
The exit code is the benchmark's: nonzero when a correctness check
failed, when the build failed, or when the run timed out.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("world", "service", "explore")
RUN_TIMEOUT_S = 175


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/bench.exe"],
        cwd=root,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.stdout.flush()
    # its own process group, so that stopping it early (a timeout or a
    # SIGTERM here) also stops the pass processes the benchmark forks
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
