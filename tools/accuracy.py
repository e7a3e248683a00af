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

``gauss_bonnet`` holds the same per-form records over
``GAUSS_BONNET_VOLUMES`` (even n: n = 8 at t = 0.3, 1.2, pi/2 - 1e-5 and
pi/2, the ideal n = 24 and n = 40 at t = 0.5, where every form raises);
a form that returned nowhere has no median bar (``null``).

Two blocks follow.  ``orthoscheme_vs_projective`` runs the grid of the
orthoscheme's honesty test (``GAP_GRID``: n = 7..24 at five finite t,
and the ideal point at n = 2..24) and records the worst relative gap
between the two forms, where it falls, the points where the gap is
beyond the orthoscheme's bar plus the allowance for projective's own
error (4 eps n |projective| at finite t, 24 eps n at the ideal point),
and the points where the orthoscheme raised.  Projective is itself
2.5e-13 off at the ideal n = 24 point, so a point beyond may be
projective's.  ``flat`` records, for projective and the orthoscheme, the
worst relative error against the Euclidean simplex of circumradius
sin t (``flat_volume``) at t = 1e-20 and n = 2..24, where it falls;
from n = 16 that volume underflows to 0, where a form must read 0 too.
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

# (n, t, k): the orthoscheme's honesty grid, with projective's allowance
# k eps n |projective|
GAP_GRID = [(n, t, 4) for n in range(7, 25) for t in (0.05, 0.3, 0.8, 1.2, 1.5)] + [
    (n, math.pi / 2, 24) for n in range(2, 25)]
FLAT_NS = range(2, 25)


def form_errors(volumes: dict) -> dict:
    """Per form, its record over ``volumes`` {(n, t): decimal string}: the
    worst relative error and error over bar with where each falls, the
    bar misses, the median bar / value (None where the form returned
    nowhere), and the points where it returned and where it raised."""
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
                     "bar_misses": misses,
                     "median_bar_over_value": statistics.median(bars) if bars else None,
                     "returned": returned, "raised": raised}
    return out


def worst_errors(volumes: dict) -> dict:
    """The Schlafli part of the record, for ``volumes`` {(n, t): decimal
    string}, which holds the ideal tetrahedron (3, pi/2)."""
    from hypervol import SimplexParams, volume_projective

    ideal = Decimal(volume_projective(SimplexParams(3, math.pi / 2)).value)
    ideal_tet = Decimal(volumes[3, math.pi / 2])
    return {"forms": form_errors(volumes), "ideal_tet_rel_err": float(abs(ideal / ideal_tet - 1))}


def orthoscheme_gaps(grid) -> dict:
    """The ``orthoscheme_vs_projective`` block over ``grid`` [(n, t, k)]."""
    from hypervol import ConvergenceError, SimplexParams, volume_orthoscheme, volume_projective

    worst, at, beyond, raised = 0.0, None, 0, 0
    for n, t, k in grid:
        params = SimplexParams(n, t)
        ref = volume_projective(params).value
        try:
            est = volume_orthoscheme(params)
        except ConvergenceError:
            raised += 1
            continue
        gap = abs(est.value - ref)
        beyond += gap > est.error_estimate + k * sys.float_info.epsilon * n * ref
        if not gap / ref <= worst:
            worst, at = gap / ref, [n, t]
    return {"worst_rel_gap": worst, "rel_gap_at": at, "beyond_bar": beyond, "raised": raised}


def flat_errors(flat_volume, ns, t: float = 1e-20) -> dict:
    """The ``flat`` block: per form, the worst relative error against
    ``flat_volume(n, t)`` for n in ``ns``, and its n; a nonzero value where
    the reference is 0 reads inf."""
    from hypervol import SimplexParams, volume_orthoscheme, volume_projective

    out = {}
    for name, form in (("projective", volume_projective), ("orthoscheme", volume_orthoscheme)):
        worst, at = 0.0, None
        for n in ns:
            ref, value = flat_volume(n, t), form(SimplexParams(n, t)).value
            err = abs(value - ref) / ref if ref else (0.0 if value == 0.0 else math.inf)
            if not err <= worst:
                worst, at = err, n
        out[name] = {"worst_rel_err": worst, "rel_err_at": at}
    return out


def main() -> int:
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_accuracy_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    record = {**worst_errors(oracles.SCHLAFLI_VOLUMES),
              "gauss_bonnet": form_errors(oracles.GAUSS_BONNET_VOLUMES),
              "orthoscheme_vs_projective": orthoscheme_gaps(GAP_GRID),
              "flat": flat_errors(oracles.flat_volume, FLAT_NS)}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
