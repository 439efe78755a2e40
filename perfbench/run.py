#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload model_grid --seed 1 --seconds 15 --trace 0

Workloads: model_grid, paper_grid, whatif, fleet_sweep (README.md).
The build goes to .bench_build/ at the repository root; its output goes
to standard error. The benchmark binary's standard output is passed through, so
the last line printed is the JSON result. The exit code is the
binary's: 0 when every output check passed.

    python3 perfbench/run.py --self-test

builds and runs the unit tests of the benchmark's own helpers.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("model_grid", "paper_grid", "whatif", "fleet_sweep")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no mrperf source tree around perfbench/ (missing %s)" % needed)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure + generator, stdout=sys.stderr, env=env) != 0:
            fail("configuring the build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    build_cmd = [cmake, "--build", BUILD, "-j", jobs]
    if subprocess.call(build_cmd, stdout=sys.stderr, env=env) != 0:
        fail("building failed")


def run_binary(argv):
    """Runs the benchmark binary in its own process group; whatever way
    this script ends, nothing the binary started outlives it."""
    child = subprocess.Popen(argv, start_new_session=True,
                             preexec_fn=die_with_parent)
    received = []

    def forward(signo, _frame):
        # The binary kills and reaps its daemons on SIGTERM, then exits.
        received.append(signo)
        child.send_signal(signal.SIGTERM)
        signal.alarm(5)

    def escalate(_signo, _frame):
        kill_group(child.pid)

    signal.signal(signal.SIGALRM, escalate)
    for signo in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signo, forward)
    try:
        code = child.wait()
    finally:
        kill_group(child.pid)
    return 128 + received[0] if received else code


def die_with_parent():
    """Asks the kernel to SIGKILL the binary if this script dies first (the
    binary does the same for its daemons)."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGKILL)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    if args.self_test:
        return run_binary([os.path.join(BUILD, "perfbench_test")])
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    return run_binary([
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference.txt"),
        "--trace-dir", trace_dir,
    ])


if __name__ == "__main__":
    sys.exit(main())
