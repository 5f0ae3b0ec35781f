#!/usr/bin/env python3
"""Benchmark of the lensgrid pipeline, one workload per process.

    python3 perfbench/run.py --workload knot-homology --seed 1 \
        --seconds 35 --trace 0

Run from the root of a checkout.  The benchmark imports lensgrid afresh
from the checkout's ``src`` directory and writes the workload's seeded
grid files under ``perfbench/work/``, then runs rounds over the files,
closed loop and one command at a time: each command calls
``lensgrid.cli.main`` in this process with ``--format structured`` and is
timed from the call until its JSON document is parsed.  An operation is
one diagram through the workload's commands; it fails on a nonzero exit
code, an uncaught exception or a failed output check.  Rounds repeat
while the next one is expected to end within ``--seconds`` (two rounds at
least).  The first round checks every output against the benchmark's own
references; later rounds must reproduce its output byte for byte.

Every operation's time is scaled to reference speed by the reference loop
timed just before and after it (see ``reference.py``); a diagram's time
is the median of its scaled times over the rounds.  After every round the
set-up is timed once more, scaled the same way, with the run's own
modules put back after it; ``setup_s`` is the median of all set-ups,
spread over the whole run, because a set-up takes only 0.04 s and the
host's load changes over seconds.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` untraced and traced rounds
alternate, the per-layer metrics are printed instead, and the spans are
written to ``perfbench/work/<workload>-seed<seed>/trace.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checks import CHECKS
from oracle import generator_count
from reference import loop_times, scale
from tracing import COUNTS, LAYERS, Tracer
from workloads import STRUCTURED, WORKLOADS, make_cases

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
MIN_ROUNDS = 2
MODULES = ("cli", "grid", "complexes", "gradings", "homology", "s3", "cover")


def _lensgrid_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "lensgrid" or name.startswith("lensgrid.")}


def set_up(workload, seed, directory):
    """Import lensgrid afresh from the checkout's src and write the grid files.

    Returns the seconds taken, scaled to reference speed, the program's
    modules by short name and the workload's cases.
    """
    before = loop_times()
    start = perf_counter()
    for name in _lensgrid_modules():
        del sys.modules[name]
    cli = importlib.import_module("lensgrid.cli")
    cases = make_cases(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    for case in cases:
        (directory / case.filename).write_text(case.text)
    seconds = scale(perf_counter() - start, before, loop_times())
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError("lensgrid was imported from %s" % cli.__file__)
    return seconds, {name: sys.modules["lensgrid." + name] for name in MODULES}, cases


def repeat_set_up(workload, seed, directory):
    """Time one more set-up, then put back the modules the run is using."""
    kept = _lensgrid_modules()
    try:
        return set_up(workload, seed, directory)[0]
    finally:
        for name in _lensgrid_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def call(cli, argv):
    """One CLI command in-process: (seconds, stdout, parsed document)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    doc = json.loads(text) if code == 0 else None
    seconds = perf_counter() - start
    if code != 0:
        raise OperationFailed("exit code %d: %s" % (code, err.getvalue().strip()))
    return seconds, text, doc


class OperationFailed(Exception):
    pass


class CheckFailed(OperationFailed):
    pass


class Run:
    """The rounds of one workload in one process."""

    def __init__(self, workload, modules, cases, directory):
        self.cli = modules["cli"]
        self.cases = cases
        self.directory = directory
        self.check = CHECKS[workload]
        self.references = WORKLOADS[workload][1]
        self.tracer = Tracer(modules)
        self.digests = {}   # (case index, subcommand) -> first output's hash
        # (round, traced, case index, seconds or None, scaled seconds or None)
        self.ops = []
        self.correct = True

    def argv(self, case, command):
        return [command[0], str(self.directory / case.filename),
                *command[1:], *STRUCTURED]

    def operation(self, index, case, first):
        seconds, docs = 0.0, {}
        for command in case.commands:
            dt, text, doc = call(self.cli, self.argv(case, command))
            seconds += dt
            docs[command[0]] = doc
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault((index, command[0]), digest) != digest:
                raise CheckFailed("%s output differs from the first round"
                                  % command[0])
        if first:
            refs = {c[0]: call(self.cli, self.argv(case, c))[2]
                    for c in self.references}
            problems = self.check(case, docs, refs)
            if problems:
                raise CheckFailed("; ".join(problems[:3]))
        return seconds

    def round(self, number, traced):
        for index, case in enumerate(self.cases):
            self.tracer.op = len(self.ops)
            gc.collect()  # every operation starts from a collected heap
            before = loop_times()
            try:
                seconds = self.operation(index, case, number == 0)
            except CheckFailed as exc:
                self.correct = False
                seconds = self.report(case, exc)
            except OperationFailed as exc:
                seconds = self.report(case, exc)
            except Exception:
                seconds = self.report(case, traceback.format_exc())
            scaled = None if seconds is None else scale(seconds, before,
                                                        loop_times())
            self.ops.append((number, traced, index, seconds, scaled))

    @staticmethod
    def report(case, problem):
        print("FAILED %s: %s" % (case.name, problem), file=sys.stderr)
        return None

    def measure(self, seconds, trace, after_round):
        """Run rounds until the next is expected to end after ``seconds``,
        calling ``after_round`` after each.

        With ``trace`` every second round is traced.
        """
        start = perf_counter()
        number = 0
        while True:
            began = perf_counter()
            traced = trace and number % 2 == 1
            if traced:
                with self.tracer.installed():
                    self.round(number, True)
            else:
                self.round(number, False)
            after_round()
            number += 1
            now = perf_counter()
            if number >= MIN_ROUNDS and now - start + (now - began) > seconds:
                return number

    def median_times(self, traced):
        """Per case index, its median scaled time over the traced or
        untraced rounds."""
        times = {}
        for _, was_traced, index, _, scaled in self.ops:
            if was_traced == traced and scaled is not None:
                times.setdefault(index, []).append(scaled)
        return {index: statistics.median(v) for index, v in times.items()}

    def end_to_end(self, setup_s):
        times = self.median_times(False)
        if not times:
            return {}
        generators = sum(generator_count(self.cases[i].p, self.cases[i].n)
                         for i in times)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "diagram_s": (statistics.median(times.values()), "s"),
            "generators_per_s": (generators / sum(times.values()), "1/s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }

    def per_layer(self):
        by_op, covered = self.tracer.self_times()
        rounds = {}
        for op, (number, traced, _, seconds, _) in enumerate(self.ops):
            if not traced or seconds is None:
                continue
            r = rounds.setdefault(number, {"layers": Counter(),
                                           "counts": Counter(),
                                           "covered": 0.0, "total": 0.0})
            r["layers"].update(by_op.get(op, {}))
            r["total"] += seconds
            r["covered"] += covered.get(op, 0.0)
            for name, value in self.tracer.counts.get(op, {}).items():
                if name == "homology.max_piece_dim":
                    r["counts"][name] = max(r["counts"][name], value)
                else:
                    r["counts"][name] += value
        if not rounds:
            return {}
        counts = [r["counts"] for r in rounds.values()]
        if any(c != counts[0] for c in counts):
            self.correct = False
            print("counts differ between traced rounds: %s" % counts,
                  file=sys.stderr)
        def med(values):
            return statistics.median(values) if values else 0.0

        out = {layer + "_s": (med([r["layers"][layer] for r in rounds.values()]), "s")
               for layer in LAYERS}
        out.update({name: (counts[0][name], "count") for name in COUNTS})
        out["cli.other_s"] = (med([r["total"] - r["covered"]
                                   for r in rounds.values()]), "s")
        out["trace.coverage"] = (med([r["covered"] / r["total"]
                                      for r in rounds.values()]), "ratio")
        parallelograms = out["complexes.parallelograms_s"][0]
        admissible = counts[0]["complexes.admissible"]
        out["complexes.admissible_per_s"] = (
            admissible / parallelograms if parallelograms else 0.0, "1/s")
        out["complexes.kept_ratio"] = (
            counts[0]["complexes.terms"] / admissible if admissible else 0.0,
            "ratio")
        out["trace.overhead_s"] = (sum(self.median_times(True).values())
                                   - sum(self.median_times(False).values()),
                                   "s")
        return out

    def write_trace(self, path, workload, seed):
        ops = [{"op": op, "round": number, "traced": traced,
                "case": self.cases[i].name, "seconds": seconds,
                "scaled_seconds": scaled}
               for op, (number, traced, i, seconds, scaled)
               in enumerate(self.ops)]
        self.tracer.write(path, {"workload": workload, "seed": seed,
                                 "ops": ops})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    directory = WORK / ("%s-seed%d" % (args.workload, args.seed))
    sys.path.insert(0, str(SRC))
    try:
        seconds, modules, cases = set_up(args.workload, args.seed, directory)
    except ImportError as exc:
        print("cannot import lensgrid from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    setup_times = [seconds]
    run = Run(args.workload, modules, cases, directory)
    rounds = run.measure(args.seconds, bool(args.trace), lambda: setup_times.append(
        repeat_set_up(args.workload, args.seed, directory)))
    setup_s = statistics.median(setup_times)
    if args.trace:
        metrics = run.per_layer()
        trace_path = directory / "trace.jsonl"
        run.write_trace(trace_path, args.workload, args.seed)
        print("trace written to %s" % trace_path.relative_to(HERE.parent))
    else:
        metrics = run.end_to_end(setup_s)
    failed = sum(1 for op in run.ops if op[3] is None)
    print("%s seed %d: %d rounds of %d diagrams, %d operations failed"
          % (args.workload, args.seed, rounds, len(cases), failed))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-28s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": run.correct,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
