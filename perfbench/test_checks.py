"""Controls for the benchmark's output checks and reference computations.

Each check must accept the program's real output and reject a copy
altered on purpose: one rank changed, one minus term dropped, one Maslov
grading shifted by 1.  Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import io
import json
import math
import random
import sys
import unittest
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from lensgrid import cli, gradings  # noqa: E402

from checks import (check_cover_gradings, check_knot_homology,  # noqa: E402
                    check_minus_export)
from oracle import d_invariant, is_knot, raw_candidates  # noqa: E402
from workloads import Case, grid_text, make_cases, random_knot  # noqa: E402

WORK = HERE / "work" / "test"


def run_case(case, commands):
    """Structured documents of the commands on a case, keyed by subcommand."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / case.filename
    path.write_text(case.text)
    docs = {}
    for command in commands:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([command[0], str(path), *command[1:],
                             "--format", "structured"])
        if code != 0:
            raise AssertionError("%s exited %d" % (command, code))
        docs[command[0]] = json.loads(out.getvalue())
    return docs


def knot_case(p, q, n, commands, seed=7):
    text = random_knot(random.Random(seed), p, q, n)
    return Case("test-L%d_%d-n%d" % (p, q, n), p, q, n, text, commands)


def shift_maslov(doc, index=0):
    row = doc["rows"][index]
    row["M"] = str(Fraction(row["M"]) + 1)


class KnotHomologyCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.case = knot_case(3, -1, 3, (("homology",),))
        cls.docs = run_case(cls.case, cls.case.commands)
        cls.refs = run_case(cls.case, (("gradings",),))

    def problems(self, docs=None, refs=None):
        return check_knot_homology(self.case, docs or self.docs,
                                   refs or self.refs)

    def test_accepts_program_output(self):
        self.assertEqual(self.problems(), [])

    def test_rejects_changed_hat_rank(self):
        docs = copy.deepcopy(self.docs)
        docs["homology"]["hfk_hat"]["0"][0]["rank"] += 1
        self.assertTrue(self.problems(docs=docs))

    def test_rejects_changed_rank_with_matching_total(self):
        docs = copy.deepcopy(self.docs)
        docs["homology"]["classes"]["1"][0]["rank"] += 1
        docs["homology"]["total_rank"] += 1
        self.assertTrue(self.problems(docs=docs))

    def test_rejects_shifted_maslov(self):
        refs = copy.deepcopy(self.refs)
        shift_maslov(refs["gradings"])
        self.assertTrue(self.problems(refs=refs))


class CoverGradingsCheck(unittest.TestCase):
    GN1 = (("gradings",), ("verify-cover",), ("homology",))

    @classmethod
    def setUpClass(cls):
        cls.gn1 = Case("test-gn1", 7, -3, 1, grid_text(7, -3, 1, [0], [2]),
                       cls.GN1)
        cls.gn1_docs = run_case(cls.gn1, cls.GN1)
        cls.two_row = knot_case(5, 2, 2, cls.GN1[:2])
        cls.two_row_docs = run_case(cls.two_row, cls.two_row.commands)

    def test_accepts_program_output(self):
        self.assertEqual(check_cover_gradings(self.gn1, self.gn1_docs, {}), [])
        self.assertEqual(
            check_cover_gradings(self.two_row, self.two_row_docs, {}), [])

    def test_rejects_changed_rank(self):
        docs = copy.deepcopy(self.gn1_docs)
        docs["homology"]["hfk_hat"]["3"][0]["rank"] += 1
        self.assertTrue(check_cover_gradings(self.gn1, docs, {}))

    def test_rejects_shifted_maslov(self):
        for case, original in ((self.gn1, self.gn1_docs),
                               (self.two_row, self.two_row_docs)):
            for command in ("gradings", "verify-cover"):
                docs = copy.deepcopy(original)
                shift_maslov(docs[command], index=3)
                self.assertTrue(check_cover_gradings(case, docs, {}),
                                (case.name, command))

    def test_rejects_reported_violation(self):
        docs = copy.deepcopy(self.two_row_docs)
        docs["verify-cover"]["violations"].append("relative Maslov relation")
        docs["verify-cover"]["ok"] = False
        self.assertTrue(check_cover_gradings(self.two_row, docs, {}))


class MinusExportCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.case = knot_case(2, 1, 3, (("boundary-export", "--variant", "minus"),))
        cls.docs = run_case(cls.case, cls.case.commands)
        cls.refs = run_case(cls.case, (("gradings",),))

    def test_accepts_program_output(self):
        self.assertEqual(check_minus_export(self.case, self.docs, self.refs), [])

    def test_rejects_every_dropped_term(self):
        terms = self.docs["boundary-export"]["terms"]
        self.assertGreater(len(terms), 100)
        for i in range(len(terms)):
            docs = copy.deepcopy(self.docs)
            del docs["boundary-export"]["terms"][i]
            self.assertTrue(check_minus_export(self.case, docs, self.refs),
                            terms[i])

    def test_rejects_shifted_maslov(self):
        refs = copy.deepcopy(self.refs)
        shift_maslov(refs["gradings"], index=5)
        self.assertTrue(check_minus_export(self.case, self.docs, refs))


class References(unittest.TestCase):
    def test_d_invariant_small_cases(self):
        self.assertEqual([d_invariant(2, 1, i) for i in range(2)],
                         [Fraction(-1, 4), Fraction(1, 4)])
        self.assertEqual(d_invariant(5, -3, 4), d_invariant(5, 2, 4))

    def test_d_invariant_agrees_with_program(self):
        for p in range(2, 12):
            for q in range(-p + 1, p):
                if q and math.gcd(p, q) == 1:
                    for i in range(p):
                        self.assertEqual(d_invariant(p, q, i),
                                         gradings.d_invariant(p, q, i))

    def test_d_invariant_symmetric_under_conjugation(self):
        # d(L(p, q), i) = d(L(p, q), q - 1 - i): conjugate Spin^c structures
        for p, q in ((5, 2), (7, 3), (11, 4), (13, 5)):
            for i in range(p):
                self.assertEqual(d_invariant(p, q, i),
                                 d_invariant(p, q, q - 1 - i))

    def test_is_knot(self):
        self.assertTrue(is_knot([0, 1], [1, 0]))
        self.assertFalse(is_knot([0, 1], [0, 1]))
        self.assertTrue(is_knot([0], [0]))

    def test_raw_candidates(self):
        # the winding is p whenever gcd(p, q) = 1
        self.assertEqual(raw_candidates(7, -2, 3), 7 * 3 * 2)
        self.assertEqual(raw_candidates(5, 2, 1), 0)

    def test_cases_depend_on_seed_only(self):
        for workload in ("knot-homology", "cover-gradings", "minus-export"):
            first = make_cases(workload, 5)
            self.assertEqual(first, make_cases(workload, 5))
            self.assertNotEqual(first, make_cases(workload, 6))
            for case in first:
                cols = [[int(s) % case.n for s in line.split()[1:]]
                        for line in case.text.splitlines()[1:]]
                self.assertTrue(is_knot(*cols), case.name)


if __name__ == "__main__":
    unittest.main()
