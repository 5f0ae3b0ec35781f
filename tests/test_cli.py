import dataclasses
import json

import pytest

from lensgrid import build_boundary, complexes, homology
from lensgrid.cli import main

GN1 = "5 2 1\nO: 0\nX: 2\n"
KNOT_N2 = "2 1 2\nO: 0 1\nX: 1 0\n"
LINK = "3 1 2\nO: 0 1\nX: 0 1\n"
BAD_GCD = "4 2 1\nO: 0\nX: 1\n"


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


def test_homology_assoc_graded_variant(grid_file, capsys, monkeypatch):
    # the assoc-graded boundary cut down to its zero monomials is the tilde
    # boundary, so the homology command gives the same groups from it
    path = grid_file(KNOT_N2)
    _, tilde_out, _ = run(capsys, "homology", path, "--format", "structured")

    def graded_tilde(diagram, variant, cap):
        graded = build_boundary(diagram, "assoc-graded", cap)
        zero = (0,) * diagram.n
        return dataclasses.replace(
            graded, variant="tilde",
            terms={x: tuple(t for t in terms if t[1] == zero)
                   for x, terms in graded.terms.items()})

    monkeypatch.setattr(homology, "build_boundary", graded_tilde)
    code, graded_out, _ = run(capsys, "homology", path, "--format",
                              "structured")
    assert code == 0
    a, b = json.loads(tilde_out), json.loads(graded_out)
    assert a["classes"] == b["classes"] and a["hfk_hat"] == b["hfk_hat"]


def test_piece_cap_refuses_before_the_boundary(grid_file, capsys,
                                               monkeypatch):
    def unreachable(*args):
        raise AssertionError("boundary built before the piece-cap check")

    monkeypatch.setattr(homology, "build_boundary", unreachable)
    code, out, err = run(capsys, "homology", grid_file(KNOT_N2),
                         "--piece-cap", "1")
    assert code == 2 and out == ""
    assert err.startswith("refused: graded piece") and "(cap 1)" in err


def test_lift_roundtrip(grid_file, capsys):
    code, out, _ = run(capsys, "lift", grid_file(GN1))
    assert code == 0
    assert out.splitlines()[0] == "5"
    from lensgrid import parse_s3_grid, validate_s3
    assert validate_s3(parse_s3_grid(out)) == []


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


def test_usage_errors_exit_one(grid_file, capsys):
    path = grid_file(KNOT_N2)
    for argv in (["homology"], ["frobnicate", path],
                 ["homology", path, "--cap", "abc"],
                 ["homology", path, "--variant", "hat"],
                 ["homology", path, "--variant", "minus-export"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("usage: lensgrid") and "error:" in err, argv
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: lensgrid")
    code, out, _ = run(capsys, "homology", "--help")
    assert code == 0 and "--piece-cap" in out and "--variant" not in out


def test_size_cap_exit_two(grid_file, capsys):
    code, _, err = run(capsys, "homology", grid_file(KNOT_N2), "--cap", "3")
    assert code == 2 and "cap" in err


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
