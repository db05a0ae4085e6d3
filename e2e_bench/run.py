#!/usr/bin/env python3
"""End-to-end benchmark of mccheck.

Builds the harness (e2e_bench/mcbench) against the mccheck sources of this
checkout into .bench_build/, runs one workload, and relays its report. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 e2e_bench/run.py --workload batch_cold --seed 1 --seconds 16 --trace 0
    python3 e2e_bench/run.py --smoke        # every workload, a few requests

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Result files (host block, sample counts,
both metric lists) and Chrome traces land in .bench_build/results/.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "mcbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(1)


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "check_request.h")):
        fail("no mccheck sources under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "e2e_bench"), "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "mcbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd))


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def run_workload(workload, seed, seconds, trace, max_requests=0):
    """Run the harness; return (stdout lines, parsed final JSON)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(BUILD, "results"),
           "--work-dir", os.path.join(BUILD, "work")]
    if max_requests:
        cmd += ["--max-requests", str(max_requests)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("%s printed no JSON result" % workload)
    return lines, result


def check_result(result, declared, where):
    """Every declared metric is present with its declared unit, and no other."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if not isinstance(got, dict) or "value" not in got:
            problems.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, declared %r"
                            % (m["name"], got.get("unit"), m["unit"]))
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append("undeclared metrics %s" % sorted(extra))
    return ["%s: %s" % (where, p) for p in problems]


def smoke(bench):
    """A few requests of every workload, traced and untraced."""
    problems = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = "%s --trace %d" % (w["name"], trace)
            lines, result = run_workload(w["name"], 1, 2, trace, max_requests=6)
            print("\n".join(lines[:-1]))
            problems += check_result(result, declared, where)
            if not result.get("correct") or result.get("failed"):
                problems.append("%s: answers were wrong" % where)
    for p in problems:
        print("SMOKE FAILED: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the report")
    args = parser.parse_args()

    bench = spec()
    build()
    if args.smoke:
        return smoke(bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    lines, result = run_workload(args.workload, args.seed, seconds, args.trace)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    problems = check_result(result, declared, args.workload)
    print("\n".join(lines[:-1]))
    if problems:
        fail("; ".join(problems))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
