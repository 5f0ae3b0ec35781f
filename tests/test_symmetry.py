"""The symmetry of HFK-hat, and ``tilde_homology``'s use of it.

``tilde_homology`` eliminates only the (S, A) pieces with A >= 0 and
derives the rest from the symmetry; with one row it counts generators,
the differential being zero.  Full elimination, every piece through
``homology_ranks`` as ``graded_homology`` does it, is the reference here.
"""

import json
import random
from pathlib import Path

import pytest

from lensgrid import (GridDiagram, LensParams, enumerate_grid_number_one,
                      extract_hfk_hat, generator_columns, gradings_table,
                      parse_grid, reconstruct_link, tilde_homology)
from lensgrid import homology
from lensgrid.complexes import lens_torus
from lensgrid.corpus import (coprime_qs, gn1_corpus, random_knot_diagram,
                             random_knot_diagrams)
from lensgrid.errors import SizeCapError
from lensgrid.gradings import (d_invariant, grading_denominators,
                               permutation_gradings, spin_grading)
from lensgrid.grid import canonical_generator
from lensgrid.document import document_bytes
from lensgrid.homology import HomologyTable, homology_document
from lensgrid.selftest import build_corpus

from benchmark_shapes import KNOT_HOMOLOGY_SHAPES

GOLDEN = Path(__file__).parent / "golden" / "grading_digests.json"


def full_elimination(d):
    """The tilde table of a knot with every (S, A) piece eliminated."""
    p, n = d.lens.p, d.n
    denominators = grading_denominators(d)
    classes = {s: {} for s in range(p)}
    classes.update(homology.graded_homology(permutation_gradings(d),
                                            lens_torus(d), denominators))
    return HomologyTable(spin_count=p, tensor_exponent=n - 1,
                         classes=classes, denominators=denominators)


def golden_diagrams():
    sets = json.loads(GOLDEN.read_text())
    return [parse_grid(row["grid"]) for rows in sets.values() for row in rows]


def test_hfk_hat_is_symmetric():
    """``hat[s][(M, A)] == hat[c - s][(M - 2A, -A)]``, c = q - 1 - q*k mod p.

    BGH normalise the Spin^c labels so that the canonical O generator x_O
    lies in class q - 1, and two generators differ by the difference of
    their a-vector sums.  Conjugation of Spin^c(L(p, q)) is then
    s -> q - 1 - s: it is the symmetry d(p, q, s) = d(p, q, q - 1 - s) of
    the correction terms, and for the unknot (k = 0) it is the whole
    symmetry.  Reversing the knot swaps the roles of O and X: the
    Alexander grading changes sign and the Maslov grading is measured
    against X, M - 2A.  The labels then count from the canonical X
    generator x_X instead of x_O.  Each column arc from an O to an X
    marker changes the sheet index a by q times its winding, so
    sum(a(x_O)) - sum(a(x_X)) = q*k and x_X lies in class q - 1 - q*k.
    Conjugating about x_X's label, s -> (q - 1) - s + (c - (q - 1)),
    gives c - s with c = q - 1 - q*k (Ozsvath-Szabo, arXiv:math/0504404,
    for the symmetry of rationally null-homologous knots).  HFK-hat comes
    from full elimination here, not from the derivation that uses it.
    """
    diagrams = golden_diagrams()
    # one of the three golden sets is the self-test corpus
    gn1, rnd = build_corpus()
    assert diagrams[-len(gn1 + rnd):] == gn1 + rnd
    for d in diagrams:
        p, q = d.lens.p, d.lens.q
        k = reconstruct_link(d).homology_class
        c = (q - 1 - q * k) % p
        # the two facts the derivation rests on: the correction terms are
        # symmetric under s -> q - 1 - s, and x_X lies in class c
        assert all(d_invariant(p, q, s) == d_invariant(p, q, q - 1 - s)
                   for s in range(p))
        x_gen = canonical_generator(GridDiagram(d.lens, d.n, d.X, d.O))
        assert spin_grading(x_gen, d) == c == homology._mirror_class(p, q, k)
        full = full_elimination(d)
        table = extract_hfk_hat(full)
        assert table.extraction_exact
        hat = table.hfk_hat
        dm, da = table.denominators
        reflect = 2 * dm // da   # 2A on M's numerators, per step of A
        for s in range(p):
            for (m, a), r in hat[s].items():
                assert hat[(c - s) % p].get((m - reflect * a, -a)) == r, (d, s)
        # the tilde ranks themselves, with no division:
        # tilde[s][(M, A)] == tilde[c - s][(M - 2A - (n-1), -A - (n-1))]
        shift = d.n - 1
        tilde = full.classes
        for s in range(p):
            for (m, a), r in tilde[s].items():
                assert tilde[(c - s) % p].get(
                    (m - reflect * a - shift * dm, -a - shift * da)) == r, (
                        d, s)
    assert len(diagrams) == 519


def equivalence_sets():
    rng = random.Random(20)
    return {
        "grid-number-one, p <= 13": gn1_corpus(range(2, 14)),
        "grid-number-one, p in 29, 61, 101": [
            d for p in (29, 61, 101) for q in (2, -3, p // 2)
            for d in enumerate_grid_number_one(LensParams(p, q))],
        "knot-homology shapes": [
            d for seed in (1, 2) for p, q, n in KNOT_HOMOLOGY_SHAPES
            for d in random_knot_diagrams(p, q, n, 3, seed)],
        "n = 2, p <= 13": [random_knot_diagram(p, q, 2, rng)
                           for p in range(2, 14) for q in coprime_qs(p)
                           for _ in range(2)],
    }


@pytest.mark.parametrize("name", sorted(equivalence_sets()))
def test_derived_documents_equal_full_elimination(name, monkeypatch):
    outcomes = []
    real = homology._derived_ranks

    def recording(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    monkeypatch.setattr(homology, "_derived_ranks", recording)
    diagrams = equivalence_sets()[name]
    for d in diagrams:
        derived = document_bytes(homology_document(extract_hfk_hat(
            tilde_homology(d))))
        full = document_bytes(homology_document(extract_hfk_hat(
            full_elimination(d))))
        assert derived == full, d
    if name.startswith("grid-number-one"):
        # one row has no parallelogram: nothing is derived
        assert outcomes == []
    else:
        # every knot took the derivation, none the fallback
        assert len(outcomes) == len(diagrams)
        assert None not in outcomes


def reading(monkeypatch):
    """Record every code that ``tilde_homology`` reads from the table."""
    asked = []
    real = homology.admissible_entries

    def recording(*args):
        entries_of = real(*args)

        def batch(codes):
            asked.extend(codes)
            return entries_of(codes)
        return batch

    monkeypatch.setattr(homology, "admissible_entries", recording)
    return asked


@pytest.mark.parametrize("shape", [(3, 1, 3), (3, -1, 3), (5, 2, 2)])
def test_a_wrong_mirror_class_falls_back_to_full_elimination(
        shape, monkeypatch):
    d = random_knot_diagrams(*shape, 1, seed=3)[0]
    p = d.lens.p
    expected = full_elimination(d)
    everything = [code for code, _ in generator_columns(d.n, p)]
    asked = reading(monkeypatch)
    assert tilde_homology(d) == expected
    assert len(asked) < len(everything)   # the derivation was taken
    for shift in range(1, p):
        asked.clear()
        monkeypatch.setattr(homology, "_mirror_class",
                            lambda p, q, k: (q - 1 - q * k + shift) % p)
        assert tilde_homology(d) == expected
        assert sorted(asked) == everything


def test_grid_number_one_knots_read_no_code(monkeypatch):
    # with n = 1 the differential is zero: no code is read, and the table
    # is full elimination's
    d = gn1_corpus((7,))[3]
    expected = full_elimination(d)
    asked = reading(monkeypatch)
    assert tilde_homology(d) == expected
    assert asked == []


# A trefoil-shaped class on integer gradings (denominators (1, 1)): HFK-hat
# u^0 v^1 + u^-1 v^0 + u^-2 v^-1, times (1 + u^-1 v^-1) once.
TOP = {0: {(0, 1): 1, (-1, 0): 2}}
BELOW = {(0, -1): {-2: [10, 11]}, (0, -2): {-3: [12]}}


def derive(top=TOP, pieces=BELOW, c=0, exponent=1):
    return homology._derived_ranks(top, pieces, c, exponent, (1, 1))


def test_derived_ranks_of_a_consistent_class():
    assert derive() == {(0, -1): {-2: 2}, (0, -2): {-3: 1}}
    # two classes swapped by c = 1, with equal A = 0 rows
    top = {0: {(0, 0): 1, (3, 1): 1}, 1: {(0, 0): 1}}
    assert derive(top, {(1, -1): {1: [7]}}, c=1, exponent=0) == {
        (1, -1): {1: 1}}


@pytest.mark.parametrize("top, pieces, c, exponent", [
    # a negative quotient coefficient at A >= 0
    ({0: {(0, 1): 1}}, BELOW, 0, 1),
    ({0: {(0, 1): 1, (-1, 0): 1}}, BELOW, 0, 2),   # in the second division
    # the A = 0 rows of s and c - s differ
    ({0: {(0, 0): 1}, 1: {(2, 0): 1}}, {}, 1, 0),
    ({0: {(0, 0): 1}, 1: {(0, 0): 2}}, {}, 1, 0),
    # a derived rank at a Maslov level the piece does not have
    (TOP, {(0, -1): {-1: [10, 11]}, (0, -2): {-3: [12]}}, 0, 1),
    # ... or in a piece that has no generator
    (TOP, {(0, -1): {-2: [10, 11]}}, 0, 1),
    # a rank above its level's size, the Euler characteristic agreeing
    (TOP, {(0, -1): {-2: [10], -4: [13]}, (0, -2): {-3: [12]}}, 0, 1),
    # the Euler characteristic of the level sizes differs
    (TOP, {(0, -1): {-2: [10, 11], -1: [13]}, (0, -2): {-3: [12]}}, 0, 1),
    # ... or a piece with no derived rank has generators of both parities
    (TOP, {**BELOW, (0, -3): {5: [14]}}, 0, 1),
])
def test_each_failed_check_gives_no_derivation(top, pieces, c, exponent):
    assert derive(top, pieces, c, exponent) is None


def test_piece_cap_bounds_the_derived_pieces():
    # the largest piece has A < 0, so a cap just below it refuses, though
    # that piece is never eliminated
    d = random_knot_diagrams(3, 1, 3, 1, seed=3)[0]
    table = gradings_table(d, generator_columns(3, 3))
    sizes = {}
    for t in table.values():
        sizes[t.spin, t.alexander] = sizes.get((t.spin, t.alexander), 0) + 1
    (s, a), largest = max(sizes.items(), key=lambda kv: kv[1])
    assert a < 0
    assert max(v for (_, b), v in sizes.items() if b >= 0) < largest
    with pytest.raises(SizeCapError):
        tilde_homology(d, piece_cap=largest - 1)
    assert tilde_homology(d, piece_cap=largest) == full_elimination(d)
