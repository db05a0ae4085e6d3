#!/usr/bin/env python3
"""Per-phase cost of a one-file daemon re-check, from mccheckd --metrics.

Replays the editor session of e2e_bench's daemon_edit workload against a
real `mccheckd --jobs 1 --metrics`: open every file of the generated
dyn_ptr protocol as an overlay document, check them all once (cold),
then 500 rounds of `change` (one seeded file gains an extern
declaration) and `check`. The metrics report is cumulative over the process, so a second
session with the same opens, cold check and changes but no re-checks is
subtracted from it: what is left is the 500 re-checks. Each session runs
--repeat times; the table reports, per phase timer, the median of the
differences divided by 500, in microseconds, next to the re-checks' mean
request wall time, which `status` requests interleaved every few rounds
read from the daemon's recent-request records (`handleRequestLine` up
to its response dump; a --ledger would add a line per unit to every
check). "bookkeeping" is the timed total minus the edit's own work: the
re-parse (lang.parse) and running the changed units (phase.units).

Usage:
  daemon_budget.py --mccheckd BIN --mccheck BIN [--repeat 3]

Standard library only.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

# The daemon's top-level phases, in request order; each check spends its
# wall time in these, apart from the untimed glue between them.
TOP_LEVEL = ("server.decode", "server.prepare", "resident.lookup",
             "phase.units", "phase.merge", "phase.program_pass",
             "phase.emit", "server.encode")
# Timers nested inside a top-level phase, reported for reference.
NESTED = ("lang.parse", "parallel.cfg_build")
# The session: which protocol, how many edits, and the seed that picks
# the file each edit changes.
PROTOCOL = "dyn_ptr"
EDITS = 500
SEED = 1
# A `status` request after every this many rounds; the daemon keeps the
# last 32 requests, so each status still holds every check since the last.
STATUS_EVERY = 10


def emit_corpus(mccheck, protocol, workdir):
    out = os.path.join(workdir, "corpus")
    subprocess.run([mccheck, "--emit-corpus", protocol, out], check=True,
                   stdout=subprocess.DEVNULL)
    files = []
    for root, _, names in os.walk(out):
        for name in names:
            files.append(os.path.join(root, name))
    files.sort()
    sources = {}
    for path in files:
        with open(path) as f:
            sources[path] = f.read()
    return files, sources


def session_lines(files, sources, recheck):
    ids = iter(range(1, 1 << 30))

    def line(method, params=None):
        request = {"id": next(ids), "method": method}
        if params is not None:
            request["params"] = params
        return json.dumps(request)

    lines = [line("open", {"path": p, "text": sources[p]}) for p in files]
    check = {"files": files, "format": "json"}
    lines.append(line("check", check))
    rng = random.Random(SEED)
    for n in range(1, EDITS + 1):
        path = files[rng.randrange(len(files))]
        text = sources[path] + "\nextern int mcbench_edit_%d;\n" % n
        lines.append(line("change", {"path": path, "text": text}))
        if recheck:
            lines.append(line("check", check))
        if n % STATUS_EVERY == 0 or n == EDITS:
            lines.append(line("status"))
    return "\n".join(lines) + "\n"


def run_session(mccheckd, text, workdir, tag):
    metrics = os.path.join(workdir, tag + ".metrics.json")
    requests = os.path.join(workdir, tag + ".requests.jsonl")
    responses = os.path.join(workdir, tag + ".responses.jsonl")
    if os.path.exists(metrics):
        os.remove(metrics)
    with open(requests, "w") as f:
        f.write(text)
    # Files on both ends, so nothing else runs while the daemon works.
    with open(requests, "rb") as stdin, open(responses, "wb") as stdout:
        subprocess.run([mccheckd, "--jobs", "1", "--metrics", metrics],
                       stdin=stdin, stdout=stdout, check=True)
    walls = {}
    with open(responses, "rb") as f:
        lines = f.read().splitlines()
    for raw in lines:
        response = json.loads(raw)
        if "error" in response:
            sys.exit("daemon_budget: error response: %s" % raw[:200])
        requests = response["result"].get("requests")
        if isinstance(requests, dict):
            for record in requests["recent"]:
                if record["method"] == "check":
                    walls[record["id"]] = record["wall_ms"]
    with open(metrics) as f:
        timers = json.load(f)["timers"]
    totals = {name: timers.get(name, {}).get("total_ms", 0.0)
              for name in TOP_LEVEL + NESTED}
    return totals, [walls[i] for i in sorted(walls)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mccheckd", required=True)
    ap.add_argument("--mccheck", required=True)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        files, sources = emit_corpus(args.mccheck, PROTOCOL, workdir)
        with_checks = session_lines(files, sources, True)
        without = session_lines(files, sources, False)
        diffs = {name: [] for name in TOP_LEVEL + NESTED}
        walls = []
        for _ in range(args.repeat):
            a, a_walls = run_session(args.mccheckd, with_checks, workdir,
                                     "a")
            b, _ = run_session(args.mccheckd, without, workdir, "b")
            for name in diffs:
                diffs[name].append((a[name] - b[name]) / EDITS)
            # The first check is the cold one.
            walls.append(statistics.mean(a_walls[1:]))

    us = {name: 1000.0 * statistics.median(v) for name, v in diffs.items()}
    wall_us = 1000.0 * statistics.median(walls)
    timed = sum(us[name] for name in TOP_LEVEL)
    print("%-20s %9s" % ("phase", "us/check"))
    for name in TOP_LEVEL:
        print("%-20s %9.1f" % (name, us[name]))
    for name in NESTED:
        print("%-20s %9.1f  (nested)" % ("  " + name, us[name]))
    bookkeeping = timed - us["lang.parse"] - us["phase.units"]
    print("%-20s %9.1f" % ("timed", timed))
    print("%-20s %9.1f" % ("bookkeeping", bookkeeping))
    print("%-20s %9.1f" % ("request wall", wall_us))
    return 0


if __name__ == "__main__":
    sys.exit(main())
