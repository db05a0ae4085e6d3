#!/usr/bin/env python3
"""Check that a run's ledger and metrics come from one accounting path.

Every substrate (in-process threads at --jobs 1 and 4, --shards 2, a
warm analysis cache, a mccheckd `check` request, and --metal mode) runs
its (function x checker) units through the same pipeline, so its
`--ledger` and `--metrics` outputs must agree with each other:

``conservation``
    * ledger `unit` events == parallel.work_units (or shard.work_units)
      == the run's unit total (the ledger's run_end tally; for the
      daemon, the response's and the request event's units_total);
    * with a cache, cache.hits + cache.misses == units, ledger
      `"cache": "hit"` events == cache.hits and `"miss"` == cache.misses;
    * in-process, the ledger's visits sum to walker.visits, and the
      visits of units on the compiled state-machine engine (the two
      shipped metal checkers, any metal-mode checker) sum to
      engine.visits. Sharded coordinators walk nothing themselves.

``keys``
    Protocol --jobs 1, --shards 2 and --metal reports register the same
    engine.*, budget.*, witness.*, ledger.* and unit.* keys (per-machine
    engine.sm.<name> timers excepted: they name the checkers that ran).

Usage:
  accounting_check.py --mccheck BIN --mccheckd BIN --metal FILE.metal
                      --workdir DIR {conservation,keys}

Standard library only; exits non-zero with a description on failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from mccheckd_client import DaemonClient  # noqa: E402

PROTOCOL = "bitvector"
ENGINE_CHECKERS = ("msglen_check", "wait_for_db")
KEY_PREFIXES = ("engine.", "budget.", "witness.", "ledger.", "unit.")


class Failure(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Failure(what)


class Runner:
    def __init__(self, args):
        self.args = args
        self.work = os.path.abspath(args.workdir)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        corpus = os.path.join(self.work, "corpus")
        subprocess.run(
            [args.mccheck, "--emit-corpus", PROTOCOL, corpus], check=True,
            stdout=subprocess.DEVNULL)
        src = os.path.join(corpus, PROTOCOL)
        self.sources = sorted(
            os.path.join(src, f) for f in os.listdir(src) if f.endswith(".c"))

    def batch(self, tag, argv):
        """Run mccheck with a ledger and metrics; return both, parsed."""
        ledger = os.path.join(self.work, tag + ".jsonl")
        metrics = os.path.join(self.work, tag + ".metrics.json")
        proc = subprocess.run(
            [self.args.mccheck, *argv, "--format", "json",
             "--ledger", ledger, "--metrics", metrics],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        expect(proc.returncode in (0, 1),
               "%s: exit %d: %s" % (tag, proc.returncode, proc.stderr))
        return read_ledger(ledger), read_metrics(metrics)

    def daemon(self, tag, params):
        """One `check` against a fresh daemon; ledger, metrics, result."""
        ledger = os.path.join(self.work, tag + ".jsonl")
        metrics = os.path.join(self.work, tag + ".metrics.json")
        client = DaemonClient(
            daemon=self.args.mccheckd,
            daemon_args=["--ledger", ledger, "--metrics", metrics])
        with client:
            result = client.check(params)
            client.shutdown()
        return read_ledger(ledger), read_metrics(metrics), result


def read_ledger(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def read_metrics(path):
    with open(path) as f:
        return json.load(f)


def counter(metrics, name):
    return metrics["counters"].get(name, 0)


def units_of(ledger):
    return [e for e in ledger if e.get("event") == "unit"]


def check_run(tag, ledger, metrics, total, in_process, cached):
    units = units_of(ledger)
    n = len(units)
    work = counter(metrics, "parallel.work_units" if in_process
                   else "shard.work_units")
    expect(n > 0, "%s: no ledger unit events" % tag)
    expect(n == work == total,
           "%s: %d ledger unit events, %d work_units, %d units_total"
           % (tag, n, work, total))
    hits = sum(1 for u in units if u["cache"] == "hit")
    misses = sum(1 for u in units if u["cache"] == "miss")
    if cached:
        c_hits = counter(metrics, "cache.hits")
        c_misses = counter(metrics, "cache.misses")
        expect(c_hits + c_misses == n,
               "%s: cache.hits %d + cache.misses %d != %d units"
               % (tag, c_hits, c_misses, n))
        expect(hits == c_hits and misses == c_misses,
               "%s: ledger hit/miss events %d/%d, cache.hits/misses %d/%d"
               % (tag, hits, misses, c_hits, c_misses))
    else:
        expect(hits == misses == 0,
               "%s: cache events without a cache" % tag)
    if in_process:
        visits = sum(u["visits"] for u in units)
        walker = counter(metrics, "walker.visits")
        expect(visits == walker,
               "%s: ledger visits %d != walker.visits %d"
               % (tag, visits, walker))
        engine_visits = sum(
            u["visits"] for u in units
            if u["checker"] in ENGINE_CHECKERS
            or u["checker"].startswith("metal:"))
        engine = counter(metrics, "engine.visits")
        expect(engine_visits == engine,
               "%s: compiled-engine ledger visits %d != engine.visits %d"
               % (tag, engine_visits, engine))
    print("%s: %d units conserve (cache %s)"
          % (tag, n, "%d hits" % hits if cached else "off"))


def run_end_units(ledger):
    ends = [e for e in ledger if e.get("event") == "run_end"]
    expect(len(ends) == 1, "expected one run_end event")
    return ends[0]["units"]


def conservation(r):
    proto = ["--protocol", PROTOCOL]
    for tag, argv in (("jobs1", proto + ["--jobs", "1"]),
                      ("jobs4", proto + ["--jobs", "4"])):
        ledger, metrics = r.batch(tag, argv)
        check_run(tag, ledger, metrics, run_end_units(ledger), True, False)

    ledger, metrics = r.batch("shards2", proto + ["--shards", "2"])
    check_run("shards2", ledger, metrics, run_end_units(ledger), False,
              False)

    cache = ["--cache", os.path.join(r.work, "cache")]
    for tag in ("cold", "warm"):
        ledger, metrics = r.batch(tag, proto + ["--jobs", "4"] + cache)
        check_run(tag, ledger, metrics, run_end_units(ledger), True, True)
    expect(counter(metrics, "cache.misses") == 0
           and counter(metrics, "cache.hits") > 0,
           "warm run did not replay every unit")

    metal = ["--metal", r.args.metal] + r.sources
    ledger, metrics = r.batch("metal", metal + ["--jobs", "4"])
    check_run("metal", ledger, metrics, run_end_units(ledger), True, False)
    ledger, metrics = r.batch("metal_cold", metal + cache)
    check_run("metal_cold", ledger, metrics, run_end_units(ledger), True,
              True)
    ledger, metrics = r.batch("metal_warm", metal + cache)
    check_run("metal_warm", ledger, metrics, run_end_units(ledger), True,
              True)

    # The daemon keeps an in-memory cache, so its one request is a cold
    # cached run.
    ledger, metrics, result = r.daemon(
        "daemon", {"protocol": PROTOCOL, "format": "json"})
    requests = [e for e in ledger if e.get("event") == "request"
                and e.get("method") == "check"]
    expect(len(requests) == 1, "daemon: expected one check request event")
    total = result["stats"]["units_total"]
    expect(requests[0]["units_total"] == total,
           "daemon: request event units_total %d != response %d"
           % (requests[0]["units_total"], total))
    check_run("daemon", ledger, metrics, total, True, True)


def metric_keys(metrics):
    keys = set()
    for kind in ("counters", "gauges", "timers", "histograms"):
        for name in metrics.get(kind, {}):
            if name.startswith(KEY_PREFIXES) and \
                    not name.startswith("engine.sm."):
                keys.add(name)
    return keys


def keys(r):
    proto = ["--protocol", PROTOCOL]
    runs = {
        "jobs1": proto + ["--jobs", "1"],
        "shards2": proto + ["--shards", "2"],
        "metal": ["--metal", r.args.metal] + r.sources,
    }
    sets = {tag: metric_keys(r.batch(tag, argv)[1])
            for tag, argv in runs.items()}
    base = sets["jobs1"]
    expect(base, "jobs1: no engine/budget/witness/ledger/unit keys")
    for tag, got in sets.items():
        expect(got == base,
               "%s key set differs from jobs1: missing %s, extra %s"
               % (tag, sorted(base - got), sorted(got - base)))
    print("jobs1, shards2 and metal share %d keys" % len(base))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mccheck", required=True)
    parser.add_argument("--mccheckd", required=True)
    parser.add_argument("--metal", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("check", choices=["conservation", "keys"])
    args = parser.parse_args(argv)
    try:
        r = Runner(args)
        (conservation if args.check == "conservation" else keys)(r)
    except Failure as e:
        print("accounting_check: " + str(e), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
