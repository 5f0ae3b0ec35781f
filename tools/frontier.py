#!/usr/bin/env python3
"""Frontier bench: ``tilde_homology`` on the ROADMAP Baseline diagrams,
one fresh process per run, checkouts interleaved.

    python3 tools/frontier.py --label change --out BENCH_10.json
    python3 tools/frontier.py --src /path/to/other/checkout/src \
        --label parent --src src --label change --out BENCH_27.json
    python3 tools/frontier.py --command gradings --case 7,3,5 \
        --label change --out BENCH_32.json
    python3 tools/frontier.py --command enumerate-gn1 --case 1000003,2,1 \
        --label change --out BENCH_33.json

A case ``P,Q,N`` is the first diagram of
``corpus.random_knot_diagrams(P, Q, N, 1, seed=1)``.  Every run is a new
Python process that imports lensgrid from one ``--src``, builds the
diagram and times the ``tilde_homology`` call alone, made without the
generator and piece caps, since every case is chosen to finish; it
reports those seconds, its own peak RSS (``ru_maxrss``) and a digest of
the rows of the homology document, so that two checkouts can be seen to
agree.  After the timed call, in the first run of a case only, it counts
the share of generators with Alexander grading A >= 0, the ones whose
pieces ``tilde_homology`` eliminates.
With ``--command CMD`` a run instead writes the case's diagram to a
temporary grid file and times ``lensgrid.cli.main([CMD, path, "--format",
"structured"])``, its standard output hashed and counted as it is written
and never kept; it reports those seconds, its peak RSS, the document's
bytes and their sha256.  ``--command enumerate-gn1`` takes no grid
file: a case ``P,Q,1`` runs ``enumerate-gn1 P Q --format structured``,
and a case with any other N is a usage error.
``--src`` and ``--label`` are repeatable and go in pairs: the i-th
label names the rows of the i-th checkout (default: this checkout's
src).  Runs go one at a time, in rounds: for each case and each of its
``--repeat`` repeats, every checkout runs once, and the checkout that
runs first moves on by one from round to round, across cases too, so
with two checkouts the first alternates and drift of the host during
the bench falls on both alike.  A case reports, per checkout, the best
(least) time of its runs and the largest peak RSS among them.  The rows
are stored in ``--out`` under their labels.  Labels already in the
file are kept, so one file holds both sides of a comparison, and so are
a label's rows of other cases or commands, so one file holds several
commands.  A case whose runs, or whose checkouts, disagree on the
digest is an error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ((5, 2, 4), (3, 1, 5), (7, 3, 4), (2, 1, 6), (5, 2, 5))

CHILD = r"""
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from lensgrid.corpus import random_knot_diagrams
from lensgrid.gradings import permutation_gradings
from lensgrid.homology import homology_document, tilde_homology
p, q, n, count_share = map(int, sys.argv[2:6])
diagram = random_knot_diagrams(p, q, n, 1, seed=1)[0]
start = time.perf_counter()
table = tilde_homology(diagram, cap=None, piece_cap=None)
seconds = time.perf_counter() - start
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
# the document's rows, so that any checkout that writes the document is
# digested the same way
ranks = sorted((int(s), row["M"], row["A"], row["rank"])
               for s, rows in homology_document(table)["classes"].items()
               for row in rows)
report = {
    "seconds": seconds,
    "peak_rss_mb": peak_rss_mb,
    "total_rank": table.total_rank(),
    "ranks_sha256": hashlib.sha256(json.dumps(ranks).encode()).hexdigest()}
if count_share:
    total = nonnegative = 0
    for *_, alexanders in permutation_gradings(diagram):
        total += len(alexanders)
        nonnegative += sum(a >= 0 for a in alexanders)
    report["a_nonnegative_share"] = nonnegative / total
print(json.dumps(report))
"""

COMMAND_CHILD = r"""
import hashlib, json, os, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from lensgrid.cli import main
from lensgrid.corpus import random_knot_diagrams
from lensgrid.grid import format_grid
command, (p, q, n) = sys.argv[2], map(int, sys.argv[3:6])


class Digest:
    # a standard output that hashes and counts the text, keeping none
    def __init__(self):
        self.sha256, self.bytes = hashlib.sha256(), 0

    def write(self, text):
        data = text.encode()
        self.sha256.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self):
        pass


with tempfile.TemporaryDirectory() as tmp:
    if command == "enumerate-gn1":   # it takes p and q, not a grid file
        args = [str(p), str(q)]
    else:
        args = [os.path.join(tmp, "case.grid")]
        with open(args[0], "w") as fh:
            fh.write(format_grid(random_knot_diagrams(p, q, n, 1, seed=1)[0]))
    stdout, sys.stdout = sys.stdout, Digest()
    start = time.perf_counter()
    code = main([command, *args, "--format", "structured"])
    seconds = time.perf_counter() - start
    digest, sys.stdout = sys.stdout, stdout
if code:
    sys.exit("%s exited %d" % (command, code))
print(json.dumps({
    "seconds": seconds,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "bytes": digest.bytes, "sha256": digest.sha256.hexdigest()}))
"""


def run_once(src, case, count_share):
    """One child process on one case: its JSON report, with the A >= 0
    share when ``count_share``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), *map(str, case),
         str(int(count_share))],
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_command(src, case, command):
    """One child process running ``command`` on one case: its JSON
    report."""
    done = subprocess.run(
        [sys.executable, "-c", COMMAND_CHILD, str(src), command,
         *map(str, case)], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def digest_key(command):
    return "ranks_sha256" if command is None else "sha256"


def summary(case, runs, command=None):
    """The row of one case on one checkout, from its runs."""
    key = digest_key(command)
    if len({r[key] for r in runs}) != 1:
        raise RuntimeError("runs of %s disagree on the %s" % (case, key))
    p, q, n = case
    row = {
        "diagram": "L(%d,%d) n=%d" % (p, q, n),
        "p": p, "q": q, "n": n,
        "seconds": min(r["seconds"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "runs": runs,
    }
    kept = (("total_rank", "ranks_sha256", "a_nonnegative_share")
            if command is None else ("bytes", "sha256"))
    row.update((name, runs[0][name]) for name in kept)
    if command is not None:
        row["command"] = command
    return row


def measure(srcs, case, repeat, round_number, command=None):
    """One row per checkout of ``srcs``: ``repeat`` rounds, each running
    every checkout once, round k starting at checkout ``(round_number +
    k) mod len(srcs)``."""
    runs = [[] for _ in srcs]
    for k in range(repeat):
        start = (round_number + k) % len(srcs)
        for i in [*range(start, len(srcs)), *range(start)]:
            # the share depends only on the diagram: the first run counts it
            runs[i].append(run_once(srcs[i], case, k == 0) if command is None
                           else run_command(srcs[i], case, command))
    rows = [summary(case, r, command) for r in runs]
    if len({row[digest_key(command)] for row in rows}) != 1:
        raise RuntimeError("checkouts disagree on %s" % (case,))
    return rows


def parse_case(text):
    p, q, n = map(int, text.split(","))
    return p, q, n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="a src directory to import lensgrid from "
                             "(repeatable, one per --label); default: "
                             "this checkout's")
    parser.add_argument("--label", required=True, action="append",
                        help="key of a checkout's rows in the output file "
                             "(repeatable, one per --src)")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--case", type=parse_case, action="append",
                        metavar="P,Q,N",
                        help="a case to run (repeatable); default: the "
                             "Baseline rows %s" % (BASELINE,))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--command",
                        help="time this CLI command, structured, instead "
                             "of tilde_homology")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    if len(srcs) != len(args.label):
        parser.error("--src and --label go in pairs: got %d --src and %d "
                     "--label" % (len(srcs), len(args.label)))
    if len(set(args.label)) != len(args.label):
        parser.error("each --label must differ")
    if args.command == "enumerate-gn1" and any(
            n != 1 for _, _, n in args.case or BASELINE):
        parser.error("enumerate-gn1 takes cases P,Q,1")

    rows = {label: [] for label in args.label}
    for number, case in enumerate(args.case or BASELINE):
        measured = measure(srcs, case, args.repeat, number * args.repeat,
                           args.command)
        for label, row in zip(args.label, measured):
            print("%-14s %9.2f s %8.1f MB   %s%s"
                  % (row["diagram"], row["seconds"], row["peak_rss_mb"],
                     "A >= 0: %5.1f%%" % (100 * row["a_nonnegative_share"])
                     if args.command is None else args.command,
                     "   " + label if len(srcs) > 1 else ""), flush=True)
            rows[label].append(row)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label in args.label:
        done = {(row["diagram"], row.get("command")) for row in rows[label]}
        doc[label] = {
            "setup": {"python": platform.python_version(),
                      "machine": platform.machine(), "repeat": args.repeat},
            "rows": [row for row in doc.get(label, {}).get("rows", [])
                     if (row["diagram"], row.get("command")) not in done]
            + rows[label],
        }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
