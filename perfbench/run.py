#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kernels-sdr --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench (and the program modules it
links) into .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is always the
benchmark's JSON result. A traced run (--trace 1) also writes its spans as
Chrome trace-event JSON under .bench_build/traces/.
"""

import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)


def source_id():
    """The commit id when the tree is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return "git:" + got.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def flag_value(args, name):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


def check_benchmark_json():
    """BENCHMARK.json must name exactly the binary's workloads and metrics."""
    listed = json.loads(subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                                       text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for kind in ("end_to_end", "per_layer"):
        want = [tuple(m) for m in listed[kind]]
        have = [(m["name"], m["unit"]) for m in bench[kind]]
        if want != have:
            problems.append(f"{kind} differs: binary {want} vs BENCHMARK.json {have}")
    if [w["name"] for w in bench["workloads"]] != listed["workloads"]:
        problems.append("workload names differ")
    for p in problems:
        log("BENCHMARK.json mismatch: " + p)
    print(f"  {'ok' if not problems else 'FAIL'}   BENCHMARK.json names every metric "
          f"with the unit the binary prints")
    return not problems


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"program sources not found under {ROOT}/src; run from a full checkout")
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    extra = ["--commit", source_id()]
    if flag_value(args, "--trace") == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{flag_value(args, '--workload')}-seed{flag_value(args, '--seed')}.json"
        extra += ["--trace-out", os.path.join(traces, name)]
    try:
        rc = subprocess.run([BINARY] + args + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    if rc == 0 and "--self-test" in args and not check_benchmark_json():
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
