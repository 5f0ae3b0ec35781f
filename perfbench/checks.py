"""Output checks, one function per workload.

Each check takes a Case, the documents of the operation's timed commands
and the documents of the untimed reference commands, all keyed by
subcommand, and returns a list of problems (empty when the output is
right).  Every check is a property the method must have, computed with
the benchmark's own reference values; none compares against a stored copy
of earlier output.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from oracle import d_invariant, generator_count


def _rank_sum(by_class):
    return sum(row["rank"] for rows in by_class.values() for row in rows)


def _parity_sign(maslov, d, problems, where):
    """(-1)^(M - d); records a problem when M - d is not an integer."""
    e = Fraction(maslov) - d
    if e.denominator != 1:
        problems.append("%s: M - d = %s is not an integer" % (where, e))
        return 0
    return -1 if e.numerator % 2 else 1


def _grading_rows(doc):
    return {row["generator"]: (row["S"], Fraction(row["M"]), Fraction(row["A"]))
            for row in doc["rows"]}


def _check_row_count(case, doc, problems):
    want = generator_count(case.p, case.n)
    if len(doc["rows"]) != want:
        problems.append("gradings lists %d generators, want n!p^n = %d"
                        % (len(doc["rows"]), want))


def check_knot_homology(case, docs, refs):
    doc, grad = docs["homology"], refs["gradings"]
    p, q, n = case.p, case.q, case.n
    problems = []
    if (doc["p"], doc["q"], doc["n"]) != (p, q, n):
        problems.append("document is for L(%s,%s) n=%s"
                        % (doc["p"], doc["q"], doc["n"]))
    if doc["extraction_exact"] is not True:
        return problems + ["extraction_exact is not true"]
    total, hat = _rank_sum(doc["classes"]), _rank_sum(doc["hfk_hat"])
    if (total, hat) != (doc["total_rank"], doc["hat_total_rank"]):
        problems.append("rank rows sum to (%d, %d), document says (%s, %s)"
                        % (total, hat, doc["total_rank"], doc["hat_total_rank"]))
    if total != 2 ** (n - 1) * hat:
        problems.append("total rank %d != 2^(n-1) * hat rank %d" % (total, hat))
    for s in range(p):
        d = d_invariant(p, q, s)
        chi = sum(row["rank"] * _parity_sign(row["M"], d, problems,
                                             "hat class %d" % s)
                  for row in doc["hfk_hat"].get(str(s), ()))
        if chi != 1:
            problems.append("hat class %d has Euler characteristic %d, want 1"
                            % (s, chi))
    _check_row_count(case, grad, problems)
    from_chains, from_homology = Counter(), Counter()
    for s, m, a in _grading_rows(grad).values():
        from_chains[(s, a)] += _parity_sign(m, d_invariant(p, q, s), problems,
                                            "generator in class %d" % s)
    for key, rows in doc["classes"].items():
        s = int(key)
        for row in rows:
            from_homology[(s, Fraction(row["A"]))] += row["rank"] * _parity_sign(
                row["M"], d_invariant(p, q, s), problems, "class %d" % s)
    for key in sorted(set(from_chains) | set(from_homology)):
        if from_chains[key] != from_homology[key]:
            problems.append("(S, A) = (%d, %s): chain Euler characteristic %d, "
                            "homology %d" % (key[0], key[1], from_chains[key],
                                             from_homology[key]))
    return problems


def check_cover_gradings(case, docs, refs):
    grad, cover = docs["gradings"], docs["verify-cover"]
    p, q, n = case.p, case.q, case.n
    problems = []
    if cover["ok"] is not True or cover["violations"]:
        problems.append("verify-cover reports %d violations"
                        % len(cover["violations"]))
    _check_row_count(case, grad, problems)
    rows = _grading_rows(grad)
    per_class = Counter(s for s, _, _ in rows.values())
    want = generator_count(p, n) // p
    if sorted(per_class.items()) != [(s, want) for s in range(p)]:
        problems.append("Spin^c classes are not each of size n!p^(n-1) = %d"
                        % want)
    shift = d_invariant(p, q, q - 1) + Fraction(p - 1, p)
    for row in cover["rows"]:
        label, m = row["generator"], Fraction(row["M"])
        if rows.get(label) != (row["S"], m, Fraction(row["A"])):
            problems.append("gradings and verify-cover disagree on %s" % label)
        if m != Fraction(row["cover_M"], p) + shift:
            problems.append("M(%s) = %s != cover M / p + d(p,q,q-1) + (p-1)/p"
                            % (label, m))
    if n == 1:
        for label, (s, m, _) in sorted(rows.items()):
            if m != d_invariant(p, q, s):
                problems.append("grid-number-one generator %s has M = %s, "
                                "d(p,q,%d) = %s" % (label, m, s,
                                                    d_invariant(p, q, s)))
        hom = docs["homology"]
        if hom["extraction_exact"] is not True:
            problems.append("extraction_exact is not true")
        elif _rank_sum(hom["hfk_hat"]) != p or hom["hat_total_rank"] != p:
            problems.append("hat rank %d (document %s), want p = %d"
                            % (_rank_sum(hom["hfk_hat"]),
                               hom["hat_total_rank"], p))
        if hom.get("classification") != "simple":
            problems.append("classification %r, want 'simple'"
                            % hom.get("classification"))
    return problems


def parse_term(line):
    """(source label, target label, exponent tuple) of one export line."""
    source, rest = line.split(" -> ")
    target, monomial = rest.split("] ", 1)
    exps = tuple(int(tok.split("^")[1]) for tok in monomial.split())
    return source, target + "]", exps


def check_minus_export(case, docs, refs):
    doc, grad = docs["boundary-export"], refs["gradings"]
    problems = []
    if doc["variant"] != "minus":
        problems.append("variant %r, want 'minus'" % doc["variant"])
    if doc["d_squared_zero"] is not True:
        problems.append("d_squared_zero is not true")
    _check_row_count(case, grad, problems)
    rows = _grading_rows(grad)
    terms = [parse_term(line) for line in doc["terms"]]
    if len(set(terms)) != len(terms):
        problems.append("a term is listed twice, so mod-2 collection failed")
    boundary = {}
    for x, y, exps in terms:
        boundary.setdefault(x, []).append((y, exps))
        if x not in rows or y not in rows or len(exps) != case.n:
            problems.append("malformed term %s -> %s %s" % (x, y, exps))
            continue
        (sx, mx, ax), (sy, my, ay) = rows[x], rows[y]
        e = sum(exps)
        if sx != sy:
            problems.append("%s -> %s changes Spin^c" % (x, y))
        if mx - my != 1 - 2 * e:
            problems.append("%s -> %s drops M by %s, want 1 - 2*%d"
                            % (x, y, mx - my, e))
        drop = ax - ay + e
        if drop.denominator != 1 or drop < 0:
            problems.append("%s -> %s: A drop + |e| = %s is not an X count"
                            % (x, y, drop))
    for x, out in boundary.items():
        acc = Counter()
        for y, e1 in out:
            for z, e2 in boundary.get(y, ()):
                acc[(z, tuple(a + b for a, b in zip(e1, e2)))] += 1
        if any(c % 2 for c in acc.values()):
            problems.append("the exported terms do not square to zero at %s" % x)
            break
    return problems


CHECKS = {
    "knot-homology": check_knot_homology,
    "cover-gradings": check_cover_gradings,
    "minus-export": check_minus_export,
}
