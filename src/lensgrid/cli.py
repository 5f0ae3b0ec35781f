"""Command-line front end.

Exit codes: 0 success, 1 validation, parse or usage failure, 2 size-cap
refusal or out of memory, 3 internal invariant violation (a bug, never
bad input).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from functools import cache

from . import selftest
from .complexes import (DEFAULT_GENERATOR_CAP, VARIANTS,
                        boundary_export_lines, bounded_generator_count,
                        build_boundary, generator_columns, label_decoder,
                        require_generator_cap, square_is_zero)
from .cover import format_s3_grid, lift_diagram, s3_link_components
from .errors import (InternalInvariantError, LensGridError, ParseError,
                     SizeCapError, ValidationError)
from .gradings import grading_denominators, gradings_table, rational_text
from .grid import (GridDiagram, LensParams, enumerate_grid_number_one,
                   format_grid, parse_grid, reconstruct_link, require_valid,
                   validate)
# document_bytes is unused here: perfbench/tracing.py wraps the
# cli.document_bytes binding
from .homology import (DEFAULT_PIECE_CAP, _polynomial,  # noqa: F401
                       document_bytes, document_text, extract_hfk_hat,
                       homology_document, simplicity_report, tilde_homology)
from .s3 import verify_cover_relations


def _read(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(raw.count(b"\n", 0, exc.start) + 1,
                         "byte 0x%02x at offset %d is not UTF-8 text"
                         % (raw[exc.start], exc.start)) from None
    return text, hashlib.sha256(raw).hexdigest()


def _load(path):
    """The valid diagram in the grid file at ``path`` and its SHA-256."""
    text, digest = _read(path)
    return require_valid(parse_grid(text)), digest


def _require_nonnegative_caps(args):
    for name in ("cap", "piece_cap"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValidationError("range-error: --%s must be >= 0 (got %d)"
                                  % (name.replace("_", "-"), value))


def _emit(doc):
    sys.stdout.write(document_text(doc))


def _capped_lift(diagram, cap):
    """The universal-cover diagram, refused before it is built when its
    n*p rows exceed the cap."""
    rows = diagram.n * diagram.lens.p
    if rows > cap:
        raise SizeCapError("refusing to build the %d-row lift (cap %d)"
                           % (rows, cap))
    return lift_diagram(diagram)


def cmd_validate(args):
    text, _ = _read(args.path)
    violations = validate(parse_grid(text))
    if args.format == "structured":
        _emit({"valid": not violations, "violations": violations})
    else:
        for v in violations:
            print(v)
        if not violations:
            print("ok")
    return 1 if violations else 0


def cmd_info(args):
    diagram, digest = _load(args.path)
    link = reconstruct_link(diagram)
    lifted = _capped_lift(diagram, args.cap)
    doc = {
        "input_sha256": digest,
        "p": diagram.lens.p, "q": diagram.lens.q, "n": diagram.n,
        "O": [list(c) for c in diagram.O], "X": [list(c) for c in diagram.X],
        "component_count": link.component_count,
        "homology_class": link.homology_class,
        "homology_class_note":
            "up to the identification of H_1(L(p,q)) with Z_p",
        "order": link.order,
        "lifted_grid_size": lifted.N,
        "lifted_components": len(s3_link_components(lifted)),
        # the formula once the count has more digits than int-to-str allows
        "generator_count": bounded_generator_count(
            diagram.n, diagram.lens.p, 10 ** 4300)
        or "%d! * %d^%d" % (diagram.n, diagram.lens.p, diagram.n),
        "orientation_note":
            "row arcs oriented X to O, column arcs O to X",
    }
    if args.format == "structured":
        _emit(doc)
    else:
        for k in ("p", "q", "n", "component_count", "homology_class", "order",
                  "lifted_grid_size", "lifted_components", "generator_count"):
            print("%-18s %s" % (k, doc[k]))
        print("note: homology class is %s" % doc["homology_class_note"])
    return 0


def cmd_gradings(args):
    diagram, digest = _load(args.path)
    if args.swap_roles:
        diagram = GridDiagram(diagram.lens, diagram.n, diagram.X, diagram.O)
    n, p = diagram.n, diagram.lens.p
    require_generator_cap(n, p, args.cap)
    label = label_decoder(n, p)
    dm, da = grading_denominators(diagram)
    keys = ("generator", "S", "M", "A")
    # the numerators sort as the gradings do; ties sort by label text.  No
    # name holds the table or the sorted list, so each is freed once read
    rows = ((text, s, rational_text(m, dm), rational_text(a, da))
            for s, a, m, text in sorted(
                (t.spin, t.alexander, t.maslov, label(code)) for code, t
                in gradings_table(diagram, generator_columns(n, p)).items()))
    if args.format == "structured":
        _emit({"input_sha256": digest, "swap_roles": bool(args.swap_roles),
               "rows": [dict(zip(keys, r)) for r in rows]})
    else:
        print("%-24s %4s %10s %10s" % keys)
        for r in rows:
            print("%-24s %4d %10s %10s" % r)
    return 0


def cmd_homology(args):
    diagram, digest = _load(args.path)
    table = extract_hfk_hat(tilde_homology(
        diagram, cap=args.cap, piece_cap=args.piece_cap, pivot=args.pivot))
    extra = {"input_sha256": digest, "variant": "tilde",
             "p": diagram.lens.p, "q": diagram.lens.q, "n": diagram.n}
    if table.extraction_exact:
        extra["classification"] = simplicity_report(table)
    doc = homology_document(table, extra)
    if args.format == "structured":
        _emit(doc)
    else:
        print("L(%d,%d) grid number %d, tilde homology"
              % (diagram.lens.p, diagram.lens.q, diagram.n))
        for s, text in doc["poincare"].items():
            print("Spin^c class %s: %s" % (s, text))
        if table.extraction_exact:
            print("knot Floer groups (tensor factor divided out):")
            for s, rows in doc["hfk_hat"].items():
                print("  class %s: %s" % (s, _polynomial(rows)))
            print("total rank %d, classification: %s"
                  % (doc["hat_total_rank"], doc["classification"]))
        else:
            print("extraction inexact: %s" % table.note)
    return 0


def cmd_lift(args):
    diagram, _ = _load(args.path)
    sys.stdout.write(format_s3_grid(_capped_lift(diagram, args.cap)))
    return 0


def cmd_verify_cover(args):
    diagram, digest = _load(args.path)
    report = verify_cover_relations(diagram, args.cap)
    label = label_decoder(diagram.n, diagram.lens.p)
    dm, da = grading_denominators(diagram)
    keys = ("generator", "S", "M", "A", "cover_M", "cover_A")
    ok, violations = report.ok, report.violations
    rows = ((label(code), t.spin, rational_text(t.maslov, dm),
             rational_text(t.alexander, da), m_cover,
             rational_text(a_cover, 4))
            for code, t, m_cover, a_cover in report.rows)
    del report   # only rows holds the report's rows
    if args.format == "structured":
        doc = {"input_sha256": digest, "ok": ok, "violations": violations,
               "rows": [dict(zip(keys, r)) for r in rows]}
        del rows
        _emit(doc)
    else:
        print("%-24s %4s %10s %10s %9s %9s" % keys)
        for r in rows:
            print("%-24s %4d %10s %10s %9d %9s" % r)
        print("violations: %d" % len(violations))
        for v in violations:
            print("  " + v)
    if not ok:
        raise InternalInvariantError("cover relations violated: %s"
                                     % violations[:2])
    return 0


def cmd_enumerate_gn1(args):
    if args.p > DEFAULT_GENERATOR_CAP:
        raise SizeCapError("refusing to build %d grid-number-one diagrams "
                           "(cap %d)" % (args.p, DEFAULT_GENERATOR_CAP))
    diagrams = enumerate_grid_number_one(LensParams(args.p, args.q))
    if args.format == "structured":
        _emit({"p": args.p, "q": args.q,
               "diagrams": [format_grid(d) for d in diagrams]})
    else:
        for j, d in enumerate(diagrams):
            print("# j = %d" % j)
            sys.stdout.write(format_grid(d))
    return 0


def cmd_boundary_export(args):
    diagram, digest = _load(args.path)
    boundary = build_boundary(diagram, args.variant, args.cap)
    lines = boundary_export_lines(boundary)
    verdict = square_is_zero(boundary)
    if args.format == "structured":
        _emit({"input_sha256": digest, "variant": args.variant,
               "terms": lines, "d_squared_zero": verdict})
    else:
        for line in lines:
            print(line)
        print("# d^2 = 0: %s" % verdict)
    return 0


def cmd_selftest(args):
    results = selftest.run_all(args.seed)
    if args.format == "structured":
        _emit({"seed": args.seed,
               "results": [{"id": r.ident, "name": r.name, "ok": r.ok,
                            "detail": r.detail} for r in results]})
    else:
        for r in results:
            print("%s %-48s %s  (%s)"
                  % (r.ident, r.name, "PASS" if r.ok else "FAIL", r.detail))
    return 0 if all(r.ok for r in results) else 1


@cache
def build_parser():
    """The argument parser, built on first use and shared by later calls.

    Each subcommand's parser carries its handler as ``run``."""
    parser = argparse.ArgumentParser(
        prog="lensgrid",
        description="Knot Floer invariants of knots in lens spaces from "
                    "twisted toroidal grid diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, path=True, cap=False, seed=False,
                formats=True):
        sp = sub.add_parser(name, help=help)
        if path:
            sp.add_argument("path", help="grid diagram file")
        if seed:   # selftest lists --seed before --format
            sp.add_argument("--seed", type=int, default=selftest.DEFAULT_SEED)
        if formats:
            sp.add_argument("--format", choices=("human", "structured"),
                            default="human")
        if cap:
            sp.add_argument("--cap", type=int, default=DEFAULT_GENERATOR_CAP,
                            help="generator cap; info and lift cap the n*p "
                                 "rows of the lift")
        sp.set_defaults(run=handler)
        return sp

    command("validate", cmd_validate, "check diagram invariants")
    command("info", cmd_info, "diagram and link summary", cap=True)
    sp = command("gradings", cmd_gradings, "exact (S, M, A) per generator",
                 cap=True)
    sp.add_argument("--swap-roles", action="store_true",
                    help="exchange the O and X marker roles")
    sp = command("homology", cmd_homology,
                 "tilde homology and knot Floer groups", cap=True)
    sp.add_argument("--piece-cap", type=int, default=DEFAULT_PIECE_CAP,
                    help="per graded piece elimination cap")
    sp.add_argument("--pivot", choices=("low", "high"), default="high")
    command("lift", cmd_lift, "emit the universal-cover grid file", cap=True,
            formats=False)   # it writes a grid file, never a document
    command("verify-cover", cmd_verify_cover,
            "cross-check gradings through the cover", cap=True)
    sp = command("enumerate-gn1", cmd_enumerate_gn1,
                 "the p grid-number-one diagrams", path=False)
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp = command("boundary-export", cmd_boundary_export,
                 "symbolic boundary terms", cap=True)
    sp.add_argument("--variant", choices=VARIANTS, default="minus")
    command("selftest", cmd_selftest, "run the acceptance checklist",
            path=False, seed=True)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        _require_nonnegative_caps(args)
        return args.run(args)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ValidationError as exc:
        for v in exc.violations:
            print("error: %s" % v, file=sys.stderr)
        return 1
    except SizeCapError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("refused: out of memory in %s" % args.command, file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print("internal invariant violated: %s" % exc, file=sys.stderr)
        return 3
    except LensGridError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
