#!/usr/bin/env python3
"""Repo benchmark: builds the simulator and the rnr_perfbench binary
from source, runs one workload and prints its report, ending with one JSON
line of metrics.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  Everything it builds or writes goes
under .bench_build/ there: the CMake tree, one scratch directory per run
(removed at exit) and, for traced runs, spans/<workload>-seed<N>.json.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "cmake")
WORKLOADS = ("replay-kernel", "zoo-sweep", "farm-mixed")
DEFAULT_SEED = 1  # held-out seed: 2 (README.md)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rnr_perfbench and the farm daemon."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "rnr_perfbench", "rnr_farmd"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(BUILD, "rnr_perfbench"),
            os.path.join(BUILD, "rnr", "rnr_farmd"))


def run(cmd, cwd):
    """Runs cmd in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def has_result(out):
    """True if the last line is a JSON object with the result's keys."""
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        return False
    return isinstance(doc, dict) and set(doc) == {"correct", "attempted",
                                                  "failed", "metrics"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        bench, farmd = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.selftest:
            code, out = run([bench, "selftest"], workdir)
            sys.stdout.write(out)
            return code
        spans = os.path.join(OUT, "spans",
                             f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        code, out = run([bench, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace),
                         "--farmd", farmd, "--spans", spans], workdir)
        if code != 0 or not has_result(out):
            # Never print a result rnr_perfbench did not produce whole.
            sys.stderr.write(out)
            log(f"rnr_perfbench failed (exit {code})")
            return code or 1
        sys.stdout.write(out)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
