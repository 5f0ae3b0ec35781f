"""The distinct (p, q, n) shapes of the knot-homology benchmark's random
knots, in workload order, read from ``perfbench/workloads.py``.

The workloads module is imported with ``perfbench`` first on the path, as
the benchmark runs it, and the path is restored afterwards.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    workloads = importlib.import_module("workloads")
finally:
    sys.path.remove(str(PERFBENCH))
if Path(workloads.__file__).parent != PERFBENCH:
    raise ImportError("workloads was imported from %s" % workloads.__file__)

KNOT_HOMOLOGY_SHAPES = tuple(dict.fromkeys(workloads.KNOT_HOMOLOGY))
