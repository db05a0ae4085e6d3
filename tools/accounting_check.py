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
    * the daemon case is a cold `check` of the protocol's files, a
      one-file `change`, then a re-check: every unit is `"resident"`,
      `"hit"` or `"miss"`, ledger `"resident"` events == resident.reused,
      nothing is resident on the cold check, and the re-check's resident
      count is the units minus the edited file's units (those counted
      by a batch run of that file alone);
    * in-process, the ledger's visits sum to walker.visits, and the
      visits of units on the compiled state-machine engine (the two
      shipped metal checkers, any metal-mode checker) sum to
      engine.visits. Sharded coordinators walk nothing themselves.

``keys``
    Protocol --jobs 1, --shards 2 and --metal reports register the same
    engine.*, budget.*, witness.*, ledger.*, resident.* and unit.* keys
    (per-machine engine.sm.<name> timers excepted: they name the
    checkers that ran).

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
ENGINE_CHECKERS = ("msglen_check", "wait_for_db", "send_wait", "dir_check")
KEY_PREFIXES = ("engine.", "budget.", "witness.", "ledger.", "resident.",
                "unit.")


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

    def daemon_session(self, tag, params, edited, text):
        """A fresh daemon: `check`, `change` one file, `check` again.

        Returns the ledger, the metrics and both check results."""
        ledger = os.path.join(self.work, tag + ".jsonl")
        metrics = os.path.join(self.work, tag + ".metrics.json")
        client = DaemonClient(
            daemon=self.args.mccheckd,
            daemon_args=["--ledger", ledger, "--metrics", metrics])
        with client:
            cold = client.check(params)
            client.open(edited, text)
            warm = client.check(params)
            client.shutdown()
        return read_ledger(ledger), read_metrics(metrics), cold, warm


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


def check_run(tag, ledger, metrics, total, in_process, cached,
              resident=False):
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
    elif resident:
        # A resident store alone: its misses ran, nothing replayed.
        expect(hits == 0, "%s: cache hits without a cache" % tag)
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
          % (tag, n, "%d hits" % hits if cached
             else "off, resident store" if resident else "off"))


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

    daemon(r)


def requests_of(ledger):
    """Split a daemon ledger into (request event, its unit events)."""
    out, units = [], []
    for e in ledger:
        if e.get("event") == "unit":
            units.append(e)
        elif e.get("event") == "request" and e.get("method") == "check":
            out.append((e, units))
            units = []
    return out


def daemon(r):
    """Resident reuse conserves units across a cold check and a re-check."""
    edited = r.sources[0]
    with open(edited) as f:
        text = f.read() + "\nextern int accounting_edit;\n"
    ledger, metrics, cold, warm = r.daemon_session(
        "daemon", {"files": r.sources, "format": "json"}, edited, text)
    total = cold["stats"]["units_total"]
    expect(warm["stats"]["units_total"] == total,
           "daemon: re-check covers %d units, cold check %d"
           % (warm["stats"]["units_total"], total))
    checks = requests_of(ledger)
    expect(len(checks) == 2, "daemon: expected two check request events")
    for (event, _), result in zip(checks, (cold, warm)):
        expect(event["units_total"] == result["stats"]["units_total"],
               "daemon: request event units_total %d != response %d"
               % (event["units_total"], result["stats"]["units_total"]))
    check_run("daemon", ledger, metrics, 2 * total, True, False,
              resident=True)

    units = units_of(ledger)
    tags = {}
    for u in units:
        tags[u["cache"]] = tags.get(u["cache"], 0) + 1
    resident = tags.get("resident", 0)
    expect(resident + tags.get("hit", 0) + tags.get("miss", 0) == len(units),
           "daemon: resident + hit + miss != %d units: %r"
           % (len(units), tags))
    reused = counter(metrics, "resident.reused")
    expect(resident == reused,
           "daemon: %d ledger resident events, resident.reused %d"
           % (resident, reused))

    per_check = [sum(1 for u in us if u["cache"] == "resident")
                 for _, us in checks]
    expect(per_check[0] == 0,
           "daemon: cold check took %d units from the store" % per_check[0])
    edited_units = run_end_units(r.batch("daemon_edited", [edited])[0])
    expect(edited_units > 0, "daemon: the edited file has no units")
    expect(per_check[1] == total - edited_units,
           "daemon: re-check took %d units from the store, expected %d "
           "units - %d of the edited file" % (per_check[1], total,
                                              edited_units))
    for (event, _), n in zip(checks, per_check):
        expect(event["units_reused"] == n,
               "daemon: request units_reused %d != %d resident events"
               % (event["units_reused"], n))
    print("daemon: re-check reused %d of %d units (%d re-ran)"
          % (per_check[1], total, edited_units))


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
