#!/usr/bin/env python3
"""End-to-end backup/restore benchmark for hds_tool (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload nightly --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Builds hds_tool and the driver (hds_bench) in Release under .bench_build/,
then runs one workload. The last line of stdout is the JSON result; build
output goes to stderr. Scratch data lives under .bench_work/<pid>/ and is
removed afterwards.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_work", str(os.getpid()))
WORKLOADS = ("nightly", "restore_all", "tenants")


def build():
    """Configures once, then brings hds_tool and hds_bench up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hds_tool",
                  "hds_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    tool = os.path.join(BUILD, "hds", "examples", "hds_tool")
    bench = os.path.join(BUILD, "hds_bench")
    for path in (tool, bench):
        if not os.access(path, os.X_OK):
            sys.exit("perfbench: missing " + path)
    return tool, bench


def commit_id():
    """The source commit when the checkout is a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_driver(argv):
    """Runs hds_bench in its own process group; reaps any stray child."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    out, _ = proc.communicate()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        deadline = time.time() + 10
        while time.time() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="all workloads at tiny sizes, both trace modes")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required")

    tool, bench = build()
    shutil.rmtree(WORK, ignore_errors=True)
    argv = [bench, "--tool=" + tool, "--work=" + WORK]
    if args.smoke:
        argv.append("--smoke")
        argv.append("--seed=" + str(args.seed))
    else:
        argv += ["--workload=" + args.workload, "--seed=" + str(args.seed),
                 "--seconds=" + str(args.seconds),
                 "--trace=" + str(args.trace), "--commit=" + commit_id()]
    try:
        code, out = run_driver(argv)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.smoke:
        sys.stdout.write(out)
        if code != 0:
            sys.exit(1)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = ([m["name"] for m in spec["end_to_end"]],
                    [m["name"] for m in spec["per_layer"]])
        listed = subprocess.run([bench, "--list-metrics"],
                                capture_output=True, text=True).stdout
        emitted = tuple(part.split() for part in listed.split("\n\n")[:2])
        if declared != emitted:
            sys.exit("perfbench: BENCHMARK.json metric names differ from "
                     "the driver's")
        print("# BENCHMARK.json names match the driver")
        return
    if code != 0 or not out.strip():
        sys.exit("perfbench: driver failed (exit %s)" % code)
    result = json.loads(out.strip().splitlines()[-1])
    sys.stdout.write(out)
    sys.exit(0 if result["attempted"] >= 1 else 1)


if __name__ == "__main__":
    main()
