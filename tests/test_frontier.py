import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from lensgrid import generator_columns, gradings_table, tilde_homology
from lensgrid.corpus import random_knot_diagrams

TOOL = Path(__file__).resolve().parent.parent / "tools" / "frontier.py"


def load_frontier():
    spec = importlib.util.spec_from_file_location("frontier", TOOL)
    frontier = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frontier)
    return frontier


def test_frontier_bench_runs_one_case_in_one_process(tmp_path, capsys):
    frontier = load_frontier()
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"other": {"rows": []}}))
    assert frontier.main(["--label", "smoke", "--out", str(out),
                          "--case", "2,1,2", "--repeat", "1"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"other", "smoke"}   # earlier labels are kept
    (row,) = doc["smoke"]["rows"]
    assert row["diagram"] == "L(2,1) n=2" and len(row["runs"]) == 1
    assert row["seconds"] > 0 and row["peak_rss_mb"] > 0
    # every L(2,1) knot's homology has rank 2^(n-1) at least per class
    assert row["total_rank"] >= 4
    # the share of generators in the pieces with A >= 0
    (d,) = random_knot_diagrams(2, 1, 2, 1, seed=1)
    table = gradings_table(d, generator_columns(2, 2))
    share = sum(t.alexander >= 0 for t in table.values()) / len(table)
    assert row["a_nonnegative_share"] == share
    assert all(run["a_nonnegative_share"] == share for run in row["runs"])
    assert "L(2,1) n=2" in capsys.readouterr().out
    # the digest is of (S, M, A, rank) with the gradings as str(Fraction),
    # as every BENCH_*.json has written it
    homology = tilde_homology(d)
    dm, da = homology.denominators
    ranks = sorted((s, str(Fraction(m, dm)), str(Fraction(a, da)), r)
                   for s, by in homology.classes.items()
                   for (m, a), r in by.items())
    assert row["ranks_sha256"] == hashlib.sha256(
        json.dumps(ranks).encode()).hexdigest()


def test_frontier_bench_interleaves_the_checkouts(tmp_path, monkeypatch):
    frontier = load_frontier()
    calls = []

    def run_once(src, case, count_share):
        calls.append((src.name, case, count_share))
        return {"seconds": 1.0, "peak_rss_mb": 1.0, "total_rank": 4,
                "ranks_sha256": "same", "a_nonnegative_share": 0.5}
    monkeypatch.setattr(frontier, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert frontier.main([
        "--src", str(tmp_path / "a"), "--label", "parent",
        "--src", str(tmp_path / "b"), "--label", "change", "--out", str(out),
        "--case", "2,1,2", "--case", "3,1,2", "--repeat", "3"]) == 0
    # per case and repeat, each checkout once; the first alternates across
    # the repeats and on into the next case
    assert [src for src, _, _ in calls] == ["a", "b", "b", "a", "a", "b",
                                            "b", "a", "a", "b", "b", "a"]
    assert [case for _, case, _ in calls] == [(2, 1, 2)] * 6 + [(3, 1, 2)] * 6
    # the A >= 0 share only in each checkout's first run of a case
    assert [share for _, _, share in calls] == [True] * 2 + [False] * 4 + [
        True] * 2 + [False] * 4
    doc = json.loads(out.read_text())
    assert set(doc) == {"parent", "change"}
    for label in doc:
        assert [row["diagram"] for row in doc[label]["rows"]] == [
            "L(2,1) n=2", "L(3,1) n=2"]
        assert all(len(row["runs"]) == 3 for row in doc[label]["rows"])


@pytest.mark.parametrize("argv", [
    ["--src", "a", "--src", "b", "--label", "parent"],
    ["--label", "parent", "--label", "change"],
    ["--src", "a", "--label", "x", "--src", "b", "--label", "x"],
])
def test_frontier_bench_refuses_unpaired_labels(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        load_frontier().main(argv + ["--out", str(tmp_path / "bench.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "bench.json").exists()
