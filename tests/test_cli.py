import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lensgrid import cli, complexes, cover, grid, homology, s3, selftest
from lensgrid.cli import main
from lensgrid.complexes import generator_code
from lensgrid.corpus import gn1_corpus, random_knot_diagrams
from lensgrid.cover import lift_diagram
from lensgrid.errors import LensGridError
from lensgrid.gradings import d_invariant, grading_denominators
from lensgrid.grid import (canonical_generator, format_grid, parse_grid,
                           reconstruct_link)

from benchmark_shapes import KNOT_HOMOLOGY_SHAPES

GN1 = "5 2 1\nO: 0\nX: 2\n"
KNOT_N2 = "2 1 2\nO: 0 1\nX: 1 0\n"
LINK = "3 1 2\nO: 0 1\nX: 0 1\n"
BAD_GCD = "4 2 1\nO: 0\nX: 1\n"
HUGE_P = "99999999989 2 1\nO: 0\nX: 1\n"
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def grid_file(tmp_path):
    def write(text, name="d.grid"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok_and_fail(grid_file, capsys):
    code, out, _ = run(capsys, "validate", grid_file(GN1))
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "validate", grid_file(BAD_GCD))
    assert code == 1 and "gcd-failure" in out


def test_validate_column_collision_names_rows(grid_file, capsys):
    code, out, _ = run(capsys, "validate",
                       grid_file("5 2 2\nO: 0 2\nX: 1 3\n"))
    assert code == 1
    assert "column-collision" in out and "rows [0, 1]" in out


def test_parse_error_exit_one(grid_file, capsys):
    code, _, err = run(capsys, "validate", grid_file("5 2 1\nO: x\nX: 2\n"))
    assert code == 1 and "line 2" in err
    code, _, err = run(capsys, "validate", str(grid_file(GN1)) + ".missing")
    assert code == 1


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "d.grid"
    path.write_bytes(b"5 2 1\nO: 0\n\xff\xfeX: 2\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == 1
    assert err.startswith("error: line 3:") and "0xff" in err


@pytest.mark.parametrize("flag", ["--cap", "--piece-cap"])
def test_negative_caps_exit_one(grid_file, capsys, flag):
    code, _, err = run(capsys, "homology", grid_file(KNOT_N2), flag, "-1")
    assert code == 1 and "error: range-error: %s must be >= 0" % flag in err


def test_info(grid_file, capsys):
    code, out, _ = run(capsys, "info", grid_file(GN1), "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["component_count"] == 1 and doc["order"] == 5
    assert doc["lifted_components"] == 1
    assert "up to the identification" in doc["homology_class_note"]


def test_gradings_rows_and_swap(grid_file, capsys):
    path = grid_file(KNOT_N2)
    code, out, _ = run(capsys, "gradings", path, "--format", "structured")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 8
    code, out, _ = run(capsys, "gradings", path, "--swap-roles",
                       "--format", "structured")
    swapped = json.loads(out)["rows"]
    by_gen = {r["generator"]: r for r in rows}
    from fractions import Fraction
    for r in swapped:
        a = Fraction(by_gen[r["generator"]]["A"])
        assert Fraction(r["A"]) == -a - (2 - 1)


def test_gradings_refuse_links(grid_file, capsys):
    code, _, err = run(capsys, "gradings", grid_file(LINK))
    assert code == 1 and "knots only" in err


def test_homology_json_deterministic(grid_file, capsys):
    path = grid_file(KNOT_N2)
    outs = set()
    for pivot in ("low", "high"):
        code, out, _ = run(capsys, "homology", path, "--format", "structured",
                           "--pivot", pivot)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    doc = json.loads(outs.pop())
    assert doc["extraction_exact"] is True
    assert doc["classification"] in ("simple", "near-simple", "other")


def _written(rows):
    # a polynomial written from a document's rows, independently of the
    # package's writer
    return " + ".join("%d*u^(%s)*v^(%s)" % (row["rank"], row["M"], row["A"])
                      for row in rows) or "0"


def test_human_homology_output_matches_the_document(grid_file, capsys):
    diagrams = gn1_corpus(range(2, 8)) + [
        d for seed in (1, 2) for p, q, n in KNOT_HOMOLOGY_SHAPES
        for d in random_knot_diagrams(p, q, n, 1, seed)]
    for d in diagrams:
        path = grid_file(format_grid(d))
        code, out, _ = run(capsys, "homology", path, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["extraction_exact"]
        code, out, _ = run(capsys, "homology", path)
        assert code == 0
        classes = sorted(doc["poincare"], key=int)
        assert out.splitlines() == (
            ["L(%d,%d) grid number %d, tilde homology"
             % (d.lens.p, d.lens.q, d.n)]
            + ["Spin^c class %s: %s" % (s, doc["poincare"][s])
               for s in classes]
            + ["knot Floer groups (tensor factor divided out):"]
            + ["  class %s: %s" % (s, _written(doc["hfk_hat"][s]))
               for s in classes]
            + ["total rank %d, classification: %s"
               % (doc["hat_total_rank"], doc["classification"])]), d


def test_homology_assoc_graded_variant(grid_file, capsys, monkeypatch):
    # the assoc-graded boundary cut down to its zero monomials is the tilde
    # boundary, so the homology command gives the same groups from it
    path = grid_file(KNOT_N2)
    _, tilde_out, _ = run(capsys, "homology", path, "--format", "structured")
    real = complexes.parallelogram_table

    def graded_tilde(torus, drop):
        n = torus[0]
        assert drop == complexes.drop_mask("tilde", n)
        graded = real(torus, complexes.drop_mask("assoc-graded", n))
        zero = (0,) * n
        return {key: [[e for e in entries if e[2] == zero]
                      for entries in cells]
                for key, cells in graded.items()}

    monkeypatch.setattr(homology, "parallelogram_table", graded_tilde)
    code, graded_out, _ = run(capsys, "homology", path, "--format",
                              "structured")
    assert code == 0
    a, b = json.loads(tilde_out), json.loads(graded_out)
    assert a["classes"] == b["classes"] and a["hfk_hat"] == b["hfk_hat"]


def test_piece_cap_refuses_before_the_boundary(grid_file, capsys,
                                               monkeypatch):
    def unreachable(*args):
        raise AssertionError("boundary built before the piece-cap check")

    monkeypatch.setattr(homology, "parallelogram_table", unreachable)
    with pytest.raises(AssertionError):   # the patch is on the path
        run(capsys, "homology", grid_file(KNOT_N2))
    code, out, err = run(capsys, "homology", grid_file(KNOT_N2),
                         "--piece-cap", "1")
    assert code == 2 and out == ""
    assert err.startswith("refused: graded piece") and "(cap 1)" in err


def test_piece_cap_refuses_a_grid_number_one_knot(grid_file, capsys):
    # with n = 1 nothing is eliminated, yet the piece cap still refuses
    code, out, err = run(capsys, "homology", grid_file(GN1), "--piece-cap",
                         "0")
    assert code == 2 and out == ""
    assert err == "refused: graded piece (S=0, A=-1/5) has dimension 1 " \
                  "(cap 0)\n"
    assert run(capsys, "homology", grid_file(GN1), "--piece-cap", "1")[0] == 0


def test_running_out_of_memory_is_a_refusal(grid_file, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "tilde_homology", exhausted)
    for fmt in ("structured", "human"):
        assert run(capsys, "homology", grid_file(GN1), "--format", fmt) == (
            2, "", "refused: out of memory in homology\n")


# caps this process's own address space a margin above its size after the
# imports, so that an allocation of the command itself fails
LIMITED_CHILD = """\
import resource, sys
from lensgrid.cli import main
with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (32 << 20), hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                    reason="reads the address-space size from /proc")
def test_a_failed_allocation_is_a_refusal(grid_file):
    # L(200003,2) n=1 needs over 100 MB more than the imports
    path = grid_file("200003 2 1\nO: 0\nX: 7\n")
    src = str(Path(cli.__file__).parent.parent)   # the package under test
    done = subprocess.run(
        [sys.executable, "-c", LIMITED_CHILD, "homology", path, "--format",
         "structured"], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "refused: out of memory in homology\n")


def test_lift_roundtrip(grid_file, capsys):
    code, out, _ = run(capsys, "lift", grid_file(GN1))
    assert code == 0
    assert out.splitlines()[0] == "5"
    from lensgrid import parse_s3_grid, validate_s3
    assert validate_s3(parse_s3_grid(out)) == []


def test_lift_takes_no_format(grid_file, capsys):
    # lift writes a square-grid file, so it has no --format to ignore
    code, out, err = run(capsys, "lift", grid_file(GN1),
                         "--format", "structured")
    assert code == 1 and out == ""
    assert err.startswith("usage: lensgrid")
    assert "unrecognized arguments: --format structured" in err


def test_verify_cover(grid_file, capsys):
    code, out, _ = run(capsys, "verify-cover", grid_file(GN1))
    assert code == 0 and "violations: 0" in out


def test_enumerate_gn1(capsys):
    code, out, _ = run(capsys, "enumerate-gn1", "3", "1",
                       "--format", "structured")
    assert code == 0
    assert len(json.loads(out)["diagrams"]) == 3
    code, _, err = run(capsys, "enumerate-gn1", "4", "2")
    assert code == 1


def test_boundary_export_and_debug_orientation(grid_file, capsys):
    # the reversed corner convention lives only in the tests (``transpose``
    # in tests/test_complexes.py); the CLI exports the real boundary
    path = grid_file(KNOT_N2)
    code, out, _ = run(capsys, "boundary-export", path, "--variant", "minus")
    assert code == 0 and "# d^2 = 0: True" in out
    code, out, _ = run(capsys, "boundary-export", path, "--format",
                       "structured")
    doc = json.loads(out)
    assert code == 0 and "debug_orientation" not in doc
    assert doc["variant"] == "minus" and doc["d_squared_zero"] is True
    code, _, err = run(capsys, "boundary-export", path, "--debug-orientation")
    assert code == 1 and "unrecognized arguments" in err


KNOT_N3 = "3 -1 3\nO: 0 4 8\nX: 7 2 3\n"
STRUCTURED_ARGVS = (("validate",), ("info",), ("gradings",),
                    ("gradings", "--swap-roles"), ("homology",),
                    ("verify-cover",)) + tuple(
    ("boundary-export", "--variant", v) for v in complexes.VARIANTS)


@pytest.mark.parametrize("text", (GN1, KNOT_N2, KNOT_N3))
def test_structured_output_is_indented_sorted_json(grid_file, capsys, text):
    # the oracle is the standard library's encoder, which shares no code
    # with the document writer
    path = grid_file(text)
    p, q = text.split()[:2]
    argvs = [(argv[0], path) + argv[1:] for argv in STRUCTURED_ARGVS]
    for argv in argvs + [("enumerate-gn1", p, q)]:
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n", argv


class _Stdout:
    """A stdout that keeps each write, and fails the writes after
    ``fail_after`` of them with MemoryError."""

    def __init__(self, fail_after=None):
        self.writes, self.fail_after = [], fail_after

    def write(self, text):
        if len(self.writes) == self.fail_after:
            raise MemoryError
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def _streamed_argvs(grid_file):
    """Structured commands whose documents hold over 256 rows or items:
    L(5,2) n=3 has 750 generators, and L(1009,2) 1009 classes."""
    knot = grid_file(format_grid(random_knot_diagrams(5, 2, 3, 1, 1)[0]))
    gn1 = grid_file("1009 2 1\nO: 0\nX: 7\n", "gn1.grid")
    return [("gradings", knot), ("verify-cover", knot), ("homology", gn1),
            ("enumerate-gn1", "1009", "2")]


def test_structured_documents_are_written_in_chunks(grid_file, capsys,
                                                    monkeypatch):
    # a document goes to stdout a chunk of at most 256 rows or items at a
    # time, the head riding with the first, and joins to indented JSON
    for argv in _streamed_argvs(grid_file):
        stdout = _Stdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([*argv, "--format", "structured"]) == 0, argv
        out = "".join(stdout.writes)
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n", argv
        # the rows, or the class entries, open at an indent of four
        starts = [m.start() for m in re.finditer(r"\n {4}[^ \]}]", out)]
        assert len(starts) > 256 and len(stdout.writes) > 1, argv
        longest = max(b - a for a, b in zip(starts, starts[1:]))
        bound = starts[0] + 256 * longest + len(out) - starts[-1]
        assert max(map(len, stdout.writes)) <= bound, argv
    assert capsys.readouterr().err == ""


def test_running_out_of_memory_while_writing_is_a_refusal(grid_file, capsys,
                                                         monkeypatch):
    # every table is built before the first write, so a failed write is
    # the one way a refusal can follow part of a document
    for argv in _streamed_argvs(grid_file):
        stdout = _Stdout(fail_after=1)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([*argv, "--format", "structured"]) == 2, argv
        assert len(stdout.writes) == 1, argv
        assert capsys.readouterr().err == (
            "refused: out of memory in %s\n" % argv[0])


def test_usage_errors_exit_one(grid_file, capsys):
    path = grid_file(KNOT_N2)
    for argv in (["homology"], ["frobnicate", path],
                 ["homology", path, "--cap", "abc"],
                 ["homology", path, "--variant", "hat"],
                 ["homology", path, "--variant", "minus-export"],
                 # only homology reads --piece-cap, and validate no cap
                 ["validate", path, "--cap", "3"],
                 *([command, path, "--piece-cap", "3"]
                   for command in ("validate", "info", "gradings", "lift",
                                   "verify-cover", "boundary-export"))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("usage: lensgrid") and "error:" in err, argv
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: lensgrid")
    code, out, _ = run(capsys, "homology", "--help")
    assert code == 0 and "--piece-cap" in out and "--variant" not in out


def test_readme_option_table_matches_the_parser():
    # the table in README's CLI section: one row per subcommand or group of
    # subcommands, the options in backticks (`--pivot low\|high` is --pivot)
    section = README.read_text().split("\n## CLI\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            _, names, options, _ = re.split(r"(?<!\\)\|", line)
            for name in re.findall(r"`([a-z0-9-]+)`", names):
                listed[name] = set(re.findall(r"`(--[a-z-]+)", options))
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    declared = {name: {flag for action in sp._actions
                       for flag in action.option_strings
                       if flag.startswith("--") and flag != "--help"}
                for name, sp in commands.items()}
    assert listed == declared


@pytest.mark.parametrize("command", ["info", "lift"])
def test_lift_refused_above_the_cap(grid_file, capsys, monkeypatch, command):
    code, out, _ = run(capsys, command, grid_file(GN1), "--cap", "5")
    assert code == 0 and out

    def unreachable(*args):
        raise AssertionError("lift built before the cap check")

    monkeypatch.setattr(cli, "lift_diagram", unreachable)
    for text, rows in ((GN1, 5), ("200003 2 1\nO: 0\nX: 1\n", 200003),
                       (HUGE_P, 99999999989)):
        code, out, err = run(capsys, command, grid_file(text), "--cap", "4")
        assert code == 2 and out == ""
        assert err.startswith("refused:") and "%d-row lift (cap 4)" % rows in err


def test_verify_cover_refuses_before_the_lift(grid_file, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("lift built before the cap check")

    monkeypatch.setattr(s3, "lift_diagram", unreachable)
    # a link over the cap is refused too, before it is found to be a link
    for text, total in ((GN1, 5), (LINK, 18),
                        ("200003 2 1\nO: 0\nX: 1\n", 200003),
                        (HUGE_P, 99999999989)):
        code, out, err = run(capsys, "verify-cover", grid_file(text),
                             "--cap", "4")
        assert code == 2 and out == ""
        assert err.startswith("refused:")
        assert "= %d generators (cap 4)" % total in err


def test_verify_cover_refuses_a_sweep_over_the_cap(grid_file, capsys,
                                                  monkeypatch):
    # the sweep visits n*p lifted points per generator: GN1 has 5
    # generators of 5 points each, LINK 18 of 6
    code, out, _ = run(capsys, "verify-cover", grid_file(GN1), "--cap", "25")
    assert code == 0 and out

    def unreachable(*args):
        raise AssertionError("lift built before the sweep cap check")

    monkeypatch.setattr(s3, "lift_diagram", unreachable)
    for text, cap, points in ((GN1, 24, 25), (LINK, 20, 108)):
        code, out, err = run(capsys, "verify-cover", grid_file(text),
                             "--cap", str(cap))
        assert code == 2 and out == ""
        assert err.startswith("refused:")
        assert "%d lifted generator points (cap %d)" % (points, cap) in err
    # L(200003,2) n=1 has 200003 generators, under the default cap, but
    # 200003^2 lifted points
    code, out, err = run_bounded(grid_file("200003 2 1\nO: 0\nX: 7\n"),
                                 ("verify-cover",))
    assert code == 2 and out == ""
    assert "40001200009 lifted generator points (cap 10000000)" in err


def test_size_cap_exit_two(grid_file, capsys):
    code, _, err = run(capsys, "homology", grid_file(KNOT_N2), "--cap", "3")
    assert code == 2 and "cap" in err


@pytest.mark.parametrize("argv, validations", [
    (("info",), 1), (("gradings",), 1), (("gradings", "--swap-roles"), 2),
    (("homology",), 1), (("lift",), 1), (("verify-cover",), 1),
    (("boundary-export",), 1)],
    ids=["info", "gradings", "gradings-swap-roles", "homology", "lift",
         "verify-cover", "boundary-export"])
def test_each_command_validates_its_diagram_once(grid_file, capsys,
                                                 monkeypatch, argv,
                                                 validations):
    # a diagram keeps its verdict, so the later checks of the same object
    # read it; --swap-roles builds and checks a second diagram
    calls = []
    real = grid.validate

    def counting(diagram):
        calls.append(diagram)
        return real(diagram)

    monkeypatch.setattr(grid, "validate", counting)
    code, out, _ = run(capsys, argv[0], grid_file(KNOT_N2), *argv[1:])
    assert code == 0 and out
    assert len(calls) == validations
    # the refusals keep their order: validation, generator cap, knot
    code, _, err = run(capsys, "homology", grid_file(BAD_GCD), "--cap", "0")
    assert code == 1 and "cap" not in err
    code, _, err = run(capsys, "homology", grid_file(LINK), "--cap", "3")
    assert code == 2 and err.startswith("refused:")
    code, _, err = run(capsys, "homology", grid_file(LINK))
    assert code == 1 and "knots only" in err


@pytest.mark.parametrize("command", ["info", "lift", "verify-cover"])
def test_each_lift_is_validated_once(grid_file, capsys, monkeypatch,
                                     command):
    # a square grid keeps its verdict, so counting the lift's components
    # reads the check that lift_diagram made
    calls = []
    real = cover.validate_s3

    def counting(diagram):
        calls.append(diagram)
        return real(diagram)

    monkeypatch.setattr(cover, "validate_s3", counting)
    code, out, _ = run(capsys, command, grid_file(KNOT_N2))
    assert code == 0 and out
    assert len(calls) == 1 and calls[0].N == 4


def test_boundary_export_refuses_before_the_table(grid_file, capsys,
                                                  monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("parallelogram table built before the cap check")

    monkeypatch.setattr(complexes, "parallelogram_table", unreachable)
    code, out, err = run(capsys, "boundary-export",
                         grid_file("3 1 3\nO: 0 1 2\nX: 1 2 0\n"),
                         "--cap", "10")
    assert code == 2 and out == ""
    assert err.startswith("refused:") and "= 162 generators (cap 10)" in err


def test_enumerate_gn1_refuses_more_diagrams_than_the_cap(capsys):
    code, out, err = run(capsys, "enumerate-gn1", str(10**7 + 1), "2")
    assert code == 2 and out == ""
    assert err.startswith("refused:") and "10000001" in err


def test_enumerate_gn1_human_blocks_match_the_document(capsys):
    code, out, _ = run(capsys, "enumerate-gn1", "5", "-2",
                       "--format", "structured")
    texts = json.loads(out)["diagrams"]
    assert code == 0 and len(texts) == 5
    code, out, _ = run(capsys, "enumerate-gn1", "5", "-2")
    blocks = re.split(r"^# j = (\d+)\n", out, flags=re.M)
    assert code == 0 and blocks[0] == ""
    assert [int(j) for j in blocks[1::2]] == list(range(5))
    assert [parse_grid(b) for b in blocks[2::2]] == [parse_grid(t)
                                                     for t in texts]


@pytest.mark.parametrize("failing", [False, True], ids=["pass", "fail"])
def test_selftest_reports_each_check(capsys, monkeypatch, failing):
    seeds = []
    results = [selftest.CheckResult("C01", "first check", True, "fine"),
               selftest.CheckResult("C02", "second check", not failing,
                                    "two of two")]

    def run_all(seed):
        seeds.append(seed)
        return results

    monkeypatch.setattr(cli.selftest, "run_all", run_all)
    verdict = "FAIL" if failing else "PASS"
    code, out, _ = run(capsys, "selftest", "--seed", "7")
    assert code == int(failing)
    assert out.splitlines() == [
        "C01 %-48s PASS  (fine)" % "first check",
        "C02 %-48s %s  (two of two)" % ("second check", verdict)]
    code, out, _ = run(capsys, "selftest", "--seed", "7",
                       "--format", "structured")
    assert code == int(failing)
    expected = {"seed": 7, "results": [
        {"id": "C01", "name": "first check", "ok": True, "detail": "fine"},
        {"id": "C02", "name": "second check", "ok": not failing,
         "detail": "two of two"}]}
    assert json.loads(out) == expected
    # a list of same-keyed dicts, written through the generic path
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    run(capsys, "selftest")
    assert seeds == [7, 7, selftest.DEFAULT_SEED]


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_verify_cover_exits_three_on_violated_relations(grid_file, capsys,
                                                        monkeypatch, fmt):
    # a Maslov grading shifted by 1/p on one generator breaks the cover
    # relations, which the command reports and then treats as a bug
    d = random_knot_diagrams(5, 2, 2, 1, seed=3)[0]
    real = s3.permutation_gradings
    codes = [code for code, _ in complexes.generator_columns(d.n, d.lens.p)]
    victim = codes[len(codes) // 2]

    def shifted(diagram):
        for codes, spins, maslovs, alexanders in real(diagram):
            if victim in codes:
                maslovs = list(maslovs)
                maslovs[victim - codes.start] += (
                    grading_denominators(diagram)[0] // diagram.lens.p)
            yield codes, spins, maslovs, alexanders

    monkeypatch.setattr(s3, "permutation_gradings", shifted)
    violations = s3.verify_cover_relations(d).violations
    assert len(violations) == 2
    code, out, err = run(capsys, "verify-cover", grid_file(format_grid(d)),
                         "--format", fmt)
    assert code == 3
    if fmt == "structured":
        doc = json.loads(out)
        assert doc["ok"] is False and doc["violations"] == violations
    else:
        assert out.endswith("violations: 2\n"
                            + "".join("  %s\n" % v for v in violations))
    assert err == ("internal invariant violated: cover relations violated: "
                   "%s\n" % violations)


@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("broken", ["components", "canonical lift",
                                    "canonical grading"])
def test_verify_cover_exits_three_on_each_structural_violation(
        grid_file, capsys, monkeypatch, broken, fmt):
    # checks no honest diagram trips: the lifted link with one component
    # too many, the canonical generator's lift graded one too high, and
    # the canonical generator's own Maslov grading one too high
    d = random_knot_diagrams(5, 2, 2, 1, seed=3)[0]
    p, q, n = d.lens.p, d.lens.q, d.n
    canon = canonical_generator(d)
    if broken == "components":
        real_components = s3.s3_link_components
        ell = len(real_components(lift_diagram(d)))
        monkeypatch.setattr(s3, "s3_link_components",
                            lambda lifted: real_components(lifted) + [()])
        expected = ("lifted diagram has %d components, expected p/order = "
                    "%d/%d" % (ell + 1, p, reconstruct_link(d).order))
    elif broken == "canonical lift":
        real_cover = s3._cover_gradings

        def raised_lift(*args):
            columns = list(args[-1])   # the sweep reads its columns once
            return ((m + (cols == canon.columns), a)
                    for cols, (m, a) in zip(columns,
                                            real_cover(*args[:-1], columns)))

        monkeypatch.setattr(s3, "_cover_gradings", raised_lift)
        expected = ("canonical generator's lift has square-grid Maslov %d, "
                    "expected %d" % (2 - p * n, 1 - p * n))
    else:
        real_blocks = s3.permutation_gradings

        def raised_grading(diagram):
            code = generator_code(canon, p)
            for codes, spins, maslovs, alexanders in real_blocks(diagram):
                if code in codes:
                    maslovs = list(maslovs)
                    maslovs[code - codes.start] += \
                        grading_denominators(diagram)[0]
                yield codes, spins, maslovs, alexanders

        monkeypatch.setattr(s3, "permutation_gradings", raised_grading)
        expected = ("canonical generator Maslov %s != d(p,q,q-1) - (n-1)"
                    % (d_invariant(p, q, q - 1) - (n - 1) + 1,))
    violations = s3.verify_cover_relations(d).violations
    assert violations[-1] == expected
    if broken == "components":
        assert violations == [expected]
    code, out, err = run(capsys, "verify-cover", grid_file(format_grid(d)),
                         "--format", fmt)
    assert code == 3
    if fmt == "structured":
        doc = json.loads(out)
        assert doc["ok"] is False and doc["violations"] == violations
    else:
        assert out.endswith("violations: %d\n" % len(violations)
                            + "".join("  %s\n" % v for v in violations))
    assert err == ("internal invariant violated: cover relations violated: "
                   "%s\n" % violations[:2])


def test_other_package_errors_exit_one(grid_file, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise LensGridError("no answer for this diagram")

    monkeypatch.setattr(cli, "tilde_homology", failing)
    assert run(capsys, "homology", grid_file(GN1)) == (
        1, "", "error: no answer for this diagram\n")


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_homology_reports_an_inexact_extraction(grid_file, capsys,
                                                monkeypatch, fmt):
    real = cli.tilde_homology

    def lopsided(*args, **kwargs):
        # a lone rank is not divisible by the tensor factor
        table = real(*args, **kwargs)
        return dataclasses.replace(
            table, classes={**table.classes, 0: {(0, 0): 1}})

    monkeypatch.setattr(cli, "tilde_homology", lopsided)
    note = ("rank polynomial of Spin^c class 0 is not divisible by "
            "(1 + u^-1 v^-1)^1")
    code, out, err = run(capsys, "homology", grid_file(KNOT_N2),
                         "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "structured":
        doc = json.loads(out)
        assert doc["extraction_exact"] is False and doc["note"] == note
        assert doc["hfk_hat"] == doc["classes"]
        assert "classification" not in doc
    else:
        assert out.endswith("\nextraction inexact: %s\n" % note)
        assert "knot Floer groups" not in out


def test_homology_exits_three_when_a_class_has_no_rank(grid_file, capsys,
                                                       monkeypatch):
    real = cli.extract_hfk_hat

    def emptied(table):
        out = real(table)
        return dataclasses.replace(out, hfk_hat={**out.hfk_hat, 0: {}})

    monkeypatch.setattr(cli, "extract_hfk_hat", emptied)
    assert run(capsys, "homology", grid_file(GN1)) == (
        3, "", "internal invariant violated: total extracted rank 4 < 5; "
               "one class per Spin^c structure must survive\n")


class Overtime(Exception):
    """A command ran past the fuzz test's time bound."""


@contextlib.contextmanager
def time_bound(seconds):
    def expire(signum, frame):
        raise Overtime("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def grid_texts(draw):
    """Grid files near the valid ones: p up to ~10^11, any q, n <= 3, and
    the marker columns of a valid diagram.  One in two texts then has a
    marker column replaced, the text cut short or one token replaced."""
    p = draw(st.one_of(st.integers(2, 12), st.integers(2, 10 ** 11)))
    if draw(st.sampled_from((True, True, True, False))):
        q = draw(st.sampled_from((1, -1))) * draw(st.integers(1, p - 1))
    else:
        q = draw(st.integers(-10 ** 12, 10 ** 12))
    n = draw(st.integers(1, 3))

    def markers():
        perm = draw(st.permutations(range(n)))
        return [perm[t] + n * draw(st.integers(0, p - 1)) for t in range(n)]

    o_cols, x_cols = markers(), markers()
    mutation = draw(st.sampled_from(("none", "column", "none", "cut",
                                     "none", "token")))
    if mutation == "column":
        cols = draw(st.sampled_from((o_cols, x_cols)))
        cols[draw(st.integers(0, n - 1))] = draw(st.integers(-2, n * p + 2))
    text = "%d %d %d\nO: %s\nX: %s\n" % (
        p, q, n, " ".join(map(str, o_cols)), " ".join(map(str, x_cols)))
    if mutation == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif mutation == "token":
        tokens = text.split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.one_of(
            st.sampled_from(("O:", "X:", "#", "-1", "0", "1e3")),
            st.text(max_size=4)))
        text = " ".join(tokens)
    return text


def run_bounded(path, command, seconds=5):
    """Exit code, stdout and stderr of one command on the file at ``path``,
    raising Overtime after ``seconds``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with time_bound(seconds):
            code = main([command[0], str(path), *command[1:]])
    return code, out.getvalue(), err.getvalue()


FUZZED_COMMANDS = (("validate",), ("info", "--cap", "50"),
                   ("lift", "--cap", "50"), ("gradings", "--cap", "50"),
                   ("homology", "--cap", "50"),
                   ("verify-cover", "--cap", "50"),
                   ("boundary-export", "--cap", "50"))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(text=grid_texts())
def test_fuzzed_grid_files_get_an_answer_or_a_refusal(tmp_path_factory, text):
    # exit 3 would be a bug and an uncaught exception a traceback; every
    # command must also finish in bounded time
    path = tmp_path_factory.getbasetemp() / "fuzzed.grid"
    path.write_text(text, encoding="utf-8")
    for command in FUZZED_COMMANDS:
        code, _, err = run_bounded(path, command)
        assert code in (0, 1, 2), (command, text, err)


def test_many_rows_get_an_answer_or_a_refusal(tmp_path):
    # a valid 20,000-row knot on L(2,1): validation must stay linear in n,
    # and n! * 2^n has about 77,000 digits, more than int-to-str converts
    n = 20000
    path = tmp_path / "rows.grid"
    path.write_text("2 1 %d\nO: %s\nX: %s\n" % (
        n, " ".join(map(str, range(n))),
        " ".join(str((t + 1) % n) for t in range(n))))
    cases = [(("validate",), 0, "ok"),
             (("info",), 0, "generator_count    20000! * 2^20000"),
             (("info", "--format", "structured"), 0,
              '"generator_count": "20000! * 2^20000"'),
             (("lift",), 0, "40000"),
             (("gradings",), 2, "20000! * 2^20000 > 10^100 generators")]
    cases += [((command, "--cap", "10"), 2, "refused:") for command in (
        "info", "lift", "gradings", "homology", "verify-cover",
        "boundary-export")]
    for command, expected, shown in cases:
        code, out, err = run_bounded(path, command)
        assert code == expected and shown in out + err, (command, err)
