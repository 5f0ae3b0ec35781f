import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from lensgrid import generator_columns, gradings_table, tilde_homology
from lensgrid.corpus import random_knot_diagrams

TOOL = Path(__file__).resolve().parent.parent / "tools" / "frontier.py"


def test_frontier_bench_runs_one_case_in_one_process(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("frontier", TOOL)
    frontier = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frontier)
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
