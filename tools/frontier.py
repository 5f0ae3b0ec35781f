#!/usr/bin/env python3
"""Frontier bench: ``tilde_homology`` on the ROADMAP Baseline diagrams,
one fresh process per run, checkouts interleaved.

    python3 tools/frontier.py --label change --out BENCH_10.json
    python3 tools/frontier.py --src /path/to/other/checkout/src \
        --label parent --src src --label change --out BENCH_27.json

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
``--src`` and ``--label`` are repeatable and go in pairs: the i-th
label names the rows of the i-th checkout (default: this checkout's
src).  Runs go one at a time, in rounds: for each case and each of its
``--repeat`` repeats, every checkout runs once, and the checkout that
runs first moves on by one from round to round, across cases too, so
with two checkouts the first alternates and drift of the host during
the bench falls on both alike.  A case reports, per checkout, the best
(least) time of its runs and the largest peak RSS among them.  The rows
are stored in ``--out`` under their labels; labels already in the file
are kept, so one file holds both sides of a comparison.  Standard
library only.
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


def run_once(src, case, count_share):
    """One child process on one case: its JSON report, with the A >= 0
    share when ``count_share``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), *map(str, case),
         str(int(count_share))],
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(case, runs):
    """The row of one case on one checkout, from its runs."""
    if len({r["ranks_sha256"] for r in runs}) != 1:
        raise RuntimeError("runs of %s disagree on the homology" % (case,))
    p, q, n = case
    return {
        "diagram": "L(%d,%d) n=%d" % (p, q, n),
        "p": p, "q": q, "n": n,
        "seconds": min(r["seconds"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "runs": runs,
        "total_rank": runs[0]["total_rank"],
        "ranks_sha256": runs[0]["ranks_sha256"],
        "a_nonnegative_share": runs[0]["a_nonnegative_share"],
    }


def measure(srcs, case, repeat, round_number):
    """One row per checkout of ``srcs``: ``repeat`` rounds, each running
    every checkout once, round k starting at checkout ``(round_number +
    k) mod len(srcs)``."""
    runs = [[] for _ in srcs]
    for k in range(repeat):
        start = (round_number + k) % len(srcs)
        for i in [*range(start, len(srcs)), *range(start)]:
            # the share depends only on the diagram: the first run counts it
            runs[i].append(run_once(srcs[i], case, k == 0))
    return [summary(case, r) for r in runs]


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
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    if len(srcs) != len(args.label):
        parser.error("--src and --label go in pairs: got %d --src and %d "
                     "--label" % (len(srcs), len(args.label)))
    if len(set(args.label)) != len(args.label):
        parser.error("each --label must differ")

    rows = {label: [] for label in args.label}
    for number, case in enumerate(args.case or BASELINE):
        measured = measure(srcs, case, args.repeat, number * args.repeat)
        for label, row in zip(args.label, measured):
            print("%-14s %9.2f s %8.1f MB   A >= 0: %5.1f%%%s"
                  % (row["diagram"], row["seconds"], row["peak_rss_mb"],
                     100 * row["a_nonnegative_share"],
                     "   " + label if len(srcs) > 1 else ""), flush=True)
            rows[label].append(row)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label in args.label:
        doc[label] = {
            "setup": {"python": platform.python_version(),
                      "machine": platform.machine(), "repeat": args.repeat},
            "rows": rows[label],
        }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
