#!/usr/bin/env python3
"""Self-test of the advisor benchmark.

    python3 perfbench/selftest.py

Run from the repository root. It checks, in this order:

1. Short mode: each workload (those in BENCHMARK.json and large-cold)
   runs for one second with --trace 0 and --trace 1; every metric
   BENCHMARK.json names for that mode must be printed, with its unit,
   and `correct` must agree with `failed`.
2. The checkers can fail: each workload runs with --corrupt, which
   perturbs one expected answer (on paper-hot and large-cold, also the
   measured time expected back from the window's first observe) and,
   on refit-churn, one measured time of the in-process writer replay;
   the run must count a failed operation in each of those checks and
   report correct=false.
3. Without the repository's sources (a directory holding only
   BENCHMARK.json and perfbench/), run.py must exit non-zero and print
   no result.

Exit status 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
# The ops whose check each --corrupt run must fail.
CORRUPT_TRIPS = {
    "paper-hot": ["estimate", "observe"],
    "large-cold": ["advise", "observe"],
    "refit-churn": ["estimate", "refit.final_fingerprint"],
}


def run(cwd, workload, trace, extra=(), seconds=1, seed=1, timeout=300):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def result_of(proc):
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def failed_ops(proc):
    """Ops of the per-op lines ("op X: attempted A, failed F") with F > 0."""
    out = set()
    for line in proc.stdout.split("\n"):
        if line.startswith("op ") and not line.endswith(", failed 0"):
            out.add(line[3:line.index(":")])
    return out


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # The workloads BENCHMARK.json gates, plus large-cold, which run.py
    # runs but BENCHMARK.json leaves out (see README.md).
    names = [w["name"] for w in SPEC["workloads"]] + ["large-cold"]
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            result = result_of(proc)
            check(proc.returncode == 0 and result is not None,
                  "%s --trace %d exits 0 with a result" % (workload, trace))
            if result is None:
                print(proc.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s --trace %d result has exactly the four keys"
                  % (workload, trace))
            check(result["attempted"] >= 1 and
                  result["correct"] == (result["failed"] == 0),
                  "%s --trace %d: correct agrees with failed (%d of %d)"
                  % (workload, trace, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            for m in SPEC[key]:
                got = metrics.get(m["name"])
                check(got is not None and got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      "%s --trace %d prints %s in %s"
                      % (workload, trace, m["name"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in SPEC[key]}
            check(not extra, "%s --trace %d prints no unnamed metric %s"
                  % (workload, trace, sorted(extra)))

    for workload in names:
        proc = run(ROOT, workload, 0, extra=["--corrupt"])
        result = result_of(proc)
        check(result is not None and result["failed"] >= 1 and
              not result["correct"],
              "%s --corrupt counts the perturbed answer as failed" % workload)
        for op in CORRUPT_TRIPS[workload]:
            check(op in failed_ops(proc),
                  "%s --corrupt fails the %s check" % (workload, op))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, names[0], 0, timeout=180)
    check(proc.returncode != 0 and result_of(proc) is None,
          "without the sources run.py fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
