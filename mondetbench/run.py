#!/usr/bin/env python3
"""Build the mondet benchmark from source and run it.

Run from the root of a mondet checkout:

    python3 mondetbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 mondetbench/run.py --selftest

The last line of standard output is the run's JSON result; build output
goes to standard error.  See mondetbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["serve-hot", "serve-churn", "decide"]

# what a mondet checkout must hold for the benchmark to build
REQUIRED = [
    "dune-project",
    "bin/mondet.ml",
    "lib/service/svc_service.ml",
    "mondetbench/dune",
]

BENCH = "_build/default/mondetbench/bench.exe"
MONDET = "_build/default/bin/mondet.exe"


def pin_to_one_cpu():
    """Confine the calling process, and all it starts, to one CPU.

    The closed loop never has more than one process doing work at a
    time (the client waits for each response), so one CPU costs it
    nothing; sharing it saves the cross-CPU wake-ups of every TCP
    round trip and of the server's garbage-collector barriers, which on
    a virtual machine take a host-dependent time that would otherwise
    show up in every latency."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_group(cmd, timeout):
    """Run cmd in its own process group, on one CPU; on timeout kill the
    whole group (the benchmark's server child included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, preexec_fn=pin_to_one_cpu)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests instead")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("run.py: not the root of a mondet checkout (missing "
              + ", ".join(missing) + ")", file=sys.stderr)
        return 2

    try:
        built = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/mondet.exe", "./mondetbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    if args.selftest:
        cmd = [BENCH, "selftest", "--mondet", MONDET]
        return run_group(cmd, timeout=600)
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mondet", MONDET]
    sys.stdout.flush()
    return run_group(cmd, timeout=170)


if __name__ == "__main__":
    sys.exit(main())
