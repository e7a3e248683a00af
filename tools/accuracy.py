"""Worst errors of the three volume forms against frozen reference volumes.

Usage:

    PYTHONPATH=path/to/src python tools/accuracy.py

Imports ``hypervol`` from the path given, runs ``volume_projective``,
``volume_orthoscheme`` and ``volume_halfspace`` at every point of
``SCHLAFLI_VOLUMES`` (20-digit Schlafli volumes, n = 3..6 x 7 values of
t) in ``tests/oracles.py`` beside this script's parent, and prints one
JSON line: for each form, its worst relative error and its worst error over
its own bar, each with the (n, t) where it falls, the number of points
where the error is above the bar (``bar_misses``), the median of
bar / value, which shows a bar too wide to say anything, and the number
of points where the form returned and where it raised (half-space has
no ideal point); then ``ideal_tet_rel_err``, the projective form's at
the ideal n = 3 point.  Errors are taken against the reference's 20
digits in decimal, so a float reference adds no rounding.
`tools/bench.py` runs it on each side's ``src``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import statistics
import sys
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worst_errors(volumes: dict) -> dict:
    """The record the script prints, for ``volumes`` {(n, t): decimal
    string}, which holds the ideal tetrahedron (3, pi/2)."""
    from hypervol import (ConvergenceError, DegenerateGeometryError, SimplexParams,
                          volume_halfspace, volume_orthoscheme, volume_projective)

    forms = {"projective": volume_projective, "orthoscheme": volume_orthoscheme,
             "halfspace": volume_halfspace}
    out = {}
    for name, form in forms.items():
        worst = {"rel_err": (0.0, None), "err_over_bar": (0.0, None)}
        returned = raised = misses = 0
        bars = []
        for (n, t), ref in volumes.items():
            try:
                est = form(SimplexParams(n, t))
            except (ConvergenceError, DegenerateGeometryError):
                raised += 1
                continue
            returned += 1
            off = abs(Decimal(est.value) - Decimal(ref))
            misses += off > Decimal(est.error_estimate)
            bars.append(est.error_estimate / abs(est.value))
            for key, x in (("rel_err", float(off / Decimal(ref))),
                           ("err_over_bar", float(off) / est.error_estimate)):
                if not x <= worst[key][0]:
                    worst[key] = (x, [n, t])
        out[name] = {"worst_rel_err": worst["rel_err"][0], "rel_err_at": worst["rel_err"][1],
                     "worst_err_over_bar": worst["err_over_bar"][0],
                     "err_over_bar_at": worst["err_over_bar"][1],
                     "bar_misses": misses, "median_bar_over_value": statistics.median(bars),
                     "returned": returned, "raised": raised}
    ideal = Decimal(volume_projective(SimplexParams(3, math.pi / 2)).value)
    ideal_tet = Decimal(volumes[3, math.pi / 2])
    return {"forms": out, "ideal_tet_rel_err": float(abs(ideal / ideal_tet - 1))}


def main() -> int:
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_accuracy_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    record = worst_errors(oracles.SCHLAFLI_VOLUMES)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
