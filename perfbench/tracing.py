"""Spans around the program's public functions, recorded from outside.

A Tracer replaces each traced function at the module attribute its
callers look up (``homology.build_boundary``, ``complexes.
parallelograms_from``, ...) with a wrapper that records a span: the
operation it belongs to, its own id, its parent span, its layer name,
start and end.  The wrappers exist only inside ``Tracer.installed()``,
which the untraced rounds never enter.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from oracle import raw_candidates


def _count_parallelograms(counts, args, result):
    x, diagram = args
    counts["complexes.generators"] += 1
    counts["complexes.candidates"] += raw_candidates(
        diagram.lens.p, diagram.lens.q, diagram.n)
    counts["complexes.admissible"] += len(result)


def _count_terms(counts, args, result):
    counts["complexes.terms"] += sum(map(len, result.terms.values()))


def _count_lift_points(counts, args, result):
    diagram, generators = args[:2]
    counts["gradings.lift_points"] += len(generators) * diagram.n * diagram.lens.p


def _count_pieces(counts, args, result):
    _count_lift_points(counts, args, result)
    sizes = Counter((t.spin, t.alexander) for t in result.values())
    counts["homology.pieces"] += len(sizes)
    counts["homology.max_piece_dim"] = max(counts["homology.max_piece_dim"],
                                           max(sizes.values(), default=0))


def _count_rank(counts, args, result):
    counts["homology.rank"] += result.total_rank()


# layer -> ((module, attribute, count hook or None), ...).  The attribute is
# the name the caller looks up, so ``cli.require_valid`` and
# ``complexes.require_valid`` are separate bindings of one function.
LAYERS = {
    "cli.args": (("cli", "build_parser", None),),
    "grid.parse": (("cli", "parse_grid", None),),
    "grid.validate": tuple((m, a, None) for m, a in (
        ("cli", "require_valid"), ("cli", "reconstruct_link"),
        ("grid", "require_valid"), ("grid", "reconstruct_link"),
        ("complexes", "require_valid"), ("homology", "require_valid"),
        ("gradings", "require_valid"), ("gradings", "require_knot"),
        ("s3", "require_valid"), ("s3", "require_knot"))),
    "complexes.parallelograms": (
        ("complexes", "parallelograms_from", _count_parallelograms),),
    "complexes.collect": (("cli", "build_boundary", _count_terms),
                          ("homology", "build_boundary", _count_terms)),
    "complexes.square_zero": (("cli", "square_is_zero", None),),
    "complexes.export": (("cli", "boundary_export_lines", None),),
    "gradings.table": (("cli", "gradings_table", _count_lift_points),
                       ("homology", "gradings_table", _count_pieces),
                       ("s3", "gradings_table", _count_lift_points),
                       ("complexes", "gradings_table", _count_lift_points)),
    "cover.lift": (("cli", "lift_diagram", None), ("s3", "lift_diagram", None),
                   ("s3", "lift_generator", None)),
    "s3.maslov": (("s3", "s3_maslov", None),),
    "s3.alexander": (("s3", "s3_alexander_total", None),),
    "s3.verify_cover": (("cli", "verify_cover_relations", None),),
    "homology.eliminate": (("cli", "tilde_homology", _count_rank),),
    "homology.extract": (("cli", "extract_hfk_hat", None),),
    "homology.emit": (("cli", "homology_document", None),
                      ("cli", "document_bytes", None)),
}

COUNTS = ("complexes.generators", "complexes.candidates",
          "complexes.admissible", "complexes.terms", "gradings.lift_points",
          "homology.pieces", "homology.max_piece_dim", "homology.rank")


class Tracer:
    """In-memory span recorder for the traced rounds of one run."""

    def __init__(self, modules):
        self.modules = modules  # short name -> imported lensgrid module
        self.spans = []         # [op, id, parent, layer, start, end]
        self.stack = []
        self.op = None
        self.counts = defaultdict(Counter)  # op -> count name -> value

    def _wrap(self, layer, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, len(spans), stack[-1] if stack else -1, layer,
                    perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts[self.op], args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for layer, bindings in LAYERS.items():
                for module, attr, hook in bindings:
                    mod = self.modules[module]
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(layer, original, hook))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self):
        """Per operation, the self time of each layer and the time covered
        by outermost spans."""
        child = defaultdict(float)
        for op, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_op = defaultdict(Counter)
        covered = Counter()
        for op, sid, parent, layer, start, end in self.spans:
            by_op[op][layer] += end - start - child[sid]
            if parent < 0:
                covered[op] += end - start
        return by_op, covered

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for op, sid, parent, layer, start, end in self.spans:
                fh.write('{"op": %d, "id": %d, "parent": %d, "name": "%s", '
                         '"start": %.9f, "end": %.9f}\n'
                         % (op, sid, parent, layer, start, end))
