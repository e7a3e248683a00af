"""Seeded inputs and output checks for the three benchmark workloads.

Nothing here imports hypervol: inputs are made before the program sees
them, and checks read only what the program printed or returned, plus
the closed-form oracles in the repository's ``tests/oracles.py``.

Workloads (closed loop, one caller, one process per measured pass):

* ``sweep``  -- ``hypervol sweep --n-list 3,4,5`` over the 31-point t grid
  0.05, 0.10, ..., 1.55 (acceptance criterion 04's 93 cells).  Seed 0 is
  that grid exactly; any other seed moves each t by at most 0.01 rad.
* ``ideal``  -- ``volume_projective`` at t = pi/2 for n = 3, 5, serial.
  The seed is ignored.
* ``forms``  -- ``hypervol volume --method all`` at 31 stratified points:
  for each n = 2..12 one t from [0.05, 0.8) and one from [0.8, 1.5), then
  n in {2, 3, 4} x eps = 10^-u, u in {3, 5, 7} +- 0.25 decade, at
  t = pi/2 - eps.

Two tiers of check.  A *broken* result is one whose output contradicts
itself or misses its reference by more than ``GROSS_REL`` (a blunder
such as a lost factor); any broken result makes the run incorrect.  A
*wrong* result is one whose value misses its reference by more than its
own error bar; wrong results are counted and listed, not hidden, because
several exist at the seed commit (near-ideal n = 2, 3 orthoscheme points
and the n >= 9 orthoscheme).
"""

from __future__ import annotations

import importlib.util
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "ideal", "forms")

# workloads whose calls run on one thread: the child pins itself to one
# core and times the calibration kernel between calls (see child.py)
SERIAL = ("ideal", "forms")

SWEEP_NS = (3, 4, 5)
IDEAL_NS = (3, 5)
SWEEP_COLUMNS = [
    "n", "t", "ratio", "ratio_err", "lower", "upper",
    "hm_lower", "hm_upper", "V_n", "V_facet", "sandwich_flag",
]
FORMS = ("projective", "orthoscheme", "halfspace")

GROSS_REL = 0.25        # relative miss beyond which a result counts as broken
DIGITS_CAP = 12.0
RATIO_IDENTITY_REL = 1e-12


# ---------------------------------------------------------------------------
# inputs

def sweep_inputs(seed: int) -> list[float]:
    """The t grid of the sweep workload (n-list is fixed to 3, 4, 5)."""
    grid = [round(0.05 * k, 10) for k in range(1, 32)]
    if seed == 0:
        return grid
    rng = random.Random(seed)
    return [t + rng.uniform(-0.01, 0.01) for t in grid]


def ideal_inputs(seed: int) -> list[int]:
    """Dimensions of the ideal workload; every volume is at t = pi/2."""
    del seed
    return list(IDEAL_NS)


def forms_inputs(seed: int) -> list[tuple[int, float]]:
    """31 stratified (n, t) points of the forms workload."""
    rng = random.Random(seed)
    points = []
    for n in range(2, 13):
        points.append((n, rng.uniform(0.05, 0.8)))
        points.append((n, rng.uniform(0.8, 1.5)))
    for n in (2, 3, 4):
        for u in (3, 5, 7):
            eps = 10.0 ** -(u + rng.uniform(-0.25, 0.25))
            points.append((n, math.pi / 2 - eps))
    return points


def inputs(workload: str, seed: int):
    return {"sweep": sweep_inputs, "ideal": ideal_inputs, "forms": forms_inputs}[workload](seed)


# ---------------------------------------------------------------------------
# oracles

def load_oracles(root: Path):
    """The repository's independent oracles (``tests/oracles.py``)."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_bench_oracles", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(f"oracle module not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digits(value: float, reference: float) -> float:
    """-log10 of the relative error, capped at DIGITS_CAP."""
    rel = abs(value - reference) / abs(reference)
    return DIGITS_CAP if rel == 0.0 else min(DIGITS_CAP, -math.log10(rel))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# checks

@dataclass
class Verdict:
    """Check outcome of one result (a sweep row, an ideal volume, a forms point)."""

    label: str
    returned: bool = True          # False: the call raised or exited 2
    broken: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    skipped: int = 0               # forms the program declined (degenerate t)
    digits: float | None = None


def _fail_all(labels, why):
    return [Verdict(label, returned=False, broken=[why]) for label in labels]


def check_sweep(ts, result, oracles) -> list[Verdict]:
    """Rows: exit code, count and order, ratio = V_n / V_facet, the sandwich
    flag recomputed from the row's own fields, and for n = 3 the facet
    (a triangle) against Gauss-Bonnet within the row's relative error."""
    cells = [(n, t) for n in SWEEP_NS for t in ts]
    labels = [f"n={n} t={t!r}" for n, t in cells]
    (item,) = result["items"]
    code = item["code"]
    if code not in (0, 3):
        return [Verdict(label, returned=False) for label in labels]
    lines = item["stdout"].strip().splitlines()
    if not lines or lines[0].split(",") != SWEEP_COLUMNS or len(lines) - 1 != len(cells):
        return _fail_all(labels, "malformed sweep table")
    verdicts = []
    any_violation = False
    for label, (n, t), line in zip(labels, cells, lines[1:]):
        v = Verdict(label)
        row = dict(zip(SWEEP_COLUMNS, line.split(",")))
        if int(row["n"]) != n or float(row["t"]) != t:
            v.broken.append(f"row out of order: got n={row['n']} t={row['t']}")
            verdicts.append(v)
            continue
        ratio, err = float(row["ratio"]), float(row["ratio_err"])
        lower, upper = float(row["lower"]), float(row["upper"])
        vol, facet = float(row["V_n"]), float(row["V_facet"])
        if not all(math.isfinite(x) and x > 0 for x in (ratio, vol, facet)):
            v.broken.append("non-finite or non-positive volume")
        elif _rel(ratio, vol / facet) > RATIO_IDENTITY_REL:
            v.broken.append(f"ratio {ratio!r} != V_n/V_facet {vol / facet!r}")
        inside = lower - err <= ratio <= upper + err
        if row["sandwich_flag"] != ("ok" if inside else "violation"):
            v.broken.append(f"sandwich_flag {row['sandwich_flag']} contradicts the row")
        if not inside:
            any_violation = True
            v.wrong.append(f"ratio {ratio!r} outside [{lower!r}, {upper!r}] +- {err!r}")
        if n == 3 and not v.broken:
            s = math.sin(t)
            ref = oracles.gauss_bonnet_triangle_area(
                math.atanh(s * math.sqrt(8.0) / math.sqrt(9.0 - s * s)))
            v.digits = digits(facet, ref)
            # the ratio's relative error bar bounds each volume's relative error
            if abs(facet - ref) > ref * err / ratio:
                v.wrong.append(f"V_facet misses Gauss-Bonnet {ref!r} by more than its error")
            if _rel(facet, ref) > GROSS_REL:
                v.broken.append(f"V_facet {facet!r} far from Gauss-Bonnet {ref!r}")
        verdicts.append(v)
    if any_violation != (code == 3):
        verdicts[0].broken.append(f"exit code {code} disagrees with the sandwich flags")
    return verdicts


def check_ideal(ns, result, oracles) -> list[Verdict]:
    """n = 3 against the ideal-tetrahedron oracle; other n against the
    orthoscheme form computed after the timed region, within the
    combined error bars."""
    verdicts = []
    refs = result["refs"]
    for n, item in zip(ns, result["items"]):
        v = Verdict(f"n={n} t=pi/2")
        if not item["returned"]:
            v.returned = False
            verdicts.append(v)
            continue
        value, err = item["value"], item["error"]
        if n == 3:
            ref, ref_err, ref_name = oracles.IDEAL_TET, 0.0, "IDEAL_TET"
        else:
            ref, ref_err = refs[str(n)]["value"], refs[str(n)]["error"]
            ref_name = "orthoscheme"
        if not (math.isfinite(value) and value > 0):
            v.broken.append("non-finite or non-positive volume")
        else:
            v.digits = digits(value, ref)
            if abs(value - ref) > err + ref_err:
                v.wrong.append(f"misses {ref_name} {ref!r} by more than the combined error")
            if _rel(value, ref) > GROSS_REL:
                v.broken.append(f"value {value!r} far from {ref_name} {ref!r}")
        verdicts.append(v)
    return verdicts


def parse_volume_all(text: str):
    """Parse ``volume --method all`` output into ({form: (value, error)},
    skipped forms, printed max_rel_diff)."""
    values, skipped, spread = {}, [], None
    for line in text.strip().splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if "max_rel_diff" in fields:
            spread = float(fields["max_rel_diff"])
        elif line.endswith("skipped (degenerate t)"):
            skipped.append(fields["method"])
        elif "method" in fields:
            values[fields["method"]] = (float(fields["value"]), float(fields["error"]))
    return values, skipped, spread


def check_forms(points, result, oracles) -> list[Verdict]:
    """Every pair of forms within their combined error bars; n = 2 also
    against Gauss-Bonnet.  Accuracy is measured against Gauss-Bonnet for
    n = 2 and against the projective form otherwise."""
    verdicts = []
    for (n, t), item in zip(points, result["items"]):
        v = Verdict(f"n={n} t={t!r}")
        if item["code"] != 0:
            v.returned = False
            verdicts.append(v)
            continue
        values, skipped, spread = parse_volume_all(item["stdout"])
        v.skipped = len(skipped)
        if set(values) | set(skipped) != set(FORMS) or "projective" not in values or spread is None:
            v.broken.append("malformed volume output")
            verdicts.append(v)
            continue
        vals = [x for x, _ in values.values()]
        if not all(math.isfinite(x) and x > 0 for x in vals):
            v.broken.append("non-finite or non-positive volume")
            verdicts.append(v)
            continue
        if len(vals) >= 2 and abs((max(vals) - min(vals)) / max(vals) - spread) > 1e-12:
            v.broken.append(f"max_rel_diff {spread!r} contradicts the printed values")
        names = sorted(values)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                (va, ea), (vb, eb) = values[a], values[b]
                if abs(va - vb) > ea + eb:
                    v.wrong.append(f"{a} vs {b}: |diff| {abs(va - vb):.3g} > errors {ea + eb:.3g}")
        if n == 2:
            ref = oracles.gauss_bonnet_triangle_area(math.atanh(math.sin(t)))
            scored = values
            for name, (value, err) in values.items():
                if abs(value - ref) > err:
                    v.wrong.append(f"{name} vs Gauss-Bonnet: |diff| {abs(value - ref):.3g} > error {err:.3g}")
        else:
            ref = values["projective"][0]
            scored = {k: x for k, x in values.items() if k != "projective"}
        v.digits = min((digits(value, ref) for value, _ in scored.values()), default=DIGITS_CAP)
        if any(_rel(value, ref) > GROSS_REL for value, _ in values.values()):
            v.broken.append(f"a form is more than {GROSS_REL:.0%} from the reference {ref!r}")
        verdicts.append(v)
    return verdicts


def check(workload: str, inputs_, result, oracles) -> list[Verdict]:
    fn = {"sweep": check_sweep, "ideal": check_ideal, "forms": check_forms}[workload]
    return fn(inputs_, result, oracles)
