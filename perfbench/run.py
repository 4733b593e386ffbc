#!/usr/bin/env python3
"""Advisor benchmark: build from source, run one workload, print metrics.

    python3 perfbench/run.py --workload paper-hot|large-cold|refit-churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
libraries, hetsched_advisord and the benchmark programs into
.bench_build/ (release build, the repository's default flags); later
runs reuse that build. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
TARGETS = ["perfbench_load", "perfbench_host", "hetsched_advisord"]
BUILD_TYPE = "Release"
# A run must end within this many seconds of its start once built.
RUN_LIMIT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/hetsched_advisord.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise RuntimeError("missing %s: run from a full checkout" % needed)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                   + TARGETS, check=True, stdout=sys.stderr)


def source_digest():
    """SHA-256 over the sources the measured programs are built from."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cache_value(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def provenance(args):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "hetsched_obs": cache_value("HETSCHED_OBS"),
        "commit": commit(), "source_sha256": source_digest(),
        # Pool width kServerPoolThreads (perfbench/common.hpp), plus one
        # accept thread and one thread per client connection (2).
        "server_threads": {"pool": 2, "accept": 1, "connections": 2},
    }


def stop_group(pgid):
    """Kills what is left of a process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def run_load(args):
    """Runs perfbench_load in its own process group, so that a timeout or
    a crash also stops the server processes it started."""
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench_load"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--bin-dir=" + BUILD_DIR]
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.Popen(cmd, cwd=RUN_DIR, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        raise RuntimeError("run exceeded %d s" % RUN_LIMIT_S)
    if proc.returncode != 0:
        stop_group(proc.pid)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-hot", "large-cold", "refit-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: perturb one expected answer")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        build()
        print("provenance: " + json.dumps(provenance(args), sort_keys=True),
              flush=True)
        started = time.monotonic()
        code, out = run_load(args)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("error: %s" % e)
        return 1
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if code != 0 or not ok:
        log("perfbench_load failed (exit %d): %s" % (code, lines[-1][:300]))
        return 1
    log("%s ran %.1f s" % (args.workload, time.monotonic() - started))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
