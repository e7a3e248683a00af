"""Closed-form bounds on the volume growth V(tau[n,t]) / V(facet), the
measured growth ratio, and the endpoint-limit audit.

The growth ratio of a regular hyperbolic n-simplex (n-volume over
(n-1)-volume of a facet) is sandwiched by two closed forms:

* `lower_bound` -- a product of ladder quantities times the orthoscheme
  edge d_1; equivalent closed form
  (n+1) 2^(1-n) sqrt(1 - s^2 m) / (sqrt(1 - m) sqrt(n^2 - s^2)) cos(t) d_1
  with s = sin t, m = (n-1)/(2n), d_1 = atanh(s sqrt(1-m)/sqrt(1 - s^2 m))
  = asinh(s sqrt(1-m)/cos t);
* `upper_bound` -- (1 - Q^((n-1)/2))/(n-1) with
  Q = n^2 (1-s)^2 (1+s) / ((n+s)^2 (1+s) - (n^2-1) s^2 (1-s)^2),
  which equals 1/(n-1) exactly at the ideal endpoint.

The measured ratio comes from `growth_ratio_grid`, which evaluates a
whole (n, t) grid as one radial batch per dim of its projective
volumes and facets; `growth_ratio` is its one-cell case.

`hm_bounds` gives the classical ideal-case reference bracket
((n-2)/(n-1)^2, 1/(n-1)).  As t -> 0 the ratio over the circumradius
atanh(sin t) tends to the flat-space value (n+1)/n^2.

One widely quoted endpoint claim does not survive numerical audit: the
product cos(t) atanh(sin t) tends to 0 as t -> pi/2 (it behaves like
eps ln(2/eps) with eps = pi/2 - t), not to 1.  `limit_audit` evaluates
the product along a sequence, fits the trend, and reports the empirical
limit next to the claimed value without asserting either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import SimplexParams
from .quadrature import QuadratureConfig, VolumeEstimate, integrate_simplex_radialpow
from .volume_forms import _facet_job, _projective_job

__all__ = [
    "GrowthBounds",
    "lower_bound",
    "upper_bound",
    "hm_bounds",
    "growth_bounds",
    "growth_ratio",
    "growth_ratio_grid",
    "limit_audit",
    "LimitAudit",
]


def lower_bound(params: SimplexParams, *, lemma_form: bool = False) -> float:
    """Closed-form lower bound on the growth ratio; n >= 3.

    d_1 is taken from its exact hyperbolic sine, asinh(s sqrt(1-m) / cos t),
    which keeps its relative precision up to the ideal point.  As an atanh
    its argument carries the square-root denominator
    sqrt(1 - sin^2 t (n-1)/(2n)), which is forced by
    tanh d_1 = sinh d_1 / cosh d_1; ``lemma_form=True`` evaluates the
    literal atanh without the square root (reproducing a common
    mis-statement) and is not used anywhere else.

    At t = pi/2 the 0 * inf product is resolved by its analytic limit,
    which is 0 (see `limit_audit`).
    """
    if params.n < 3:
        raise DomainError("lower bound requires n >= 3")
    if params.is_ideal:
        return 0.0
    n, s = params.n, params.sin_t
    m = (n - 1) / (2.0 * n)
    root = math.sqrt(1.0 - s * s * m)
    pref = (n + 1) * 0.5 ** (n - 1) * root * params.cos_t / (
        math.sqrt(1.0 - m) * math.sqrt(n * n - s * s)
    )
    if lemma_form:
        arg = s * math.sqrt(1.0 - m) / (1.0 - s * s * m)
        return pref * math.atanh(min(arg, 1.0 - 1e-16))
    return pref * math.asinh(s * math.sqrt(1.0 - m) / params.cos_t)


def upper_bound(params: SimplexParams) -> float:
    """Closed-form upper bound on the growth ratio; n >= 2.

    Equals 1/(n-1) exactly at t = pi/2 (the inner ratio vanishes with
    1 - sin t) and 0 at t = 0.  Where Q = num/den >= 1/2, 1 - Q^((n-1)/2)
    is -expm1 of a log1p, with num - den written without cancellation as
    s [(1+s)((n^2-1) s - 2n(n+1)) + (n^2-1) s (1-s)^2].
    """
    n, s = params.n, params.sin_t
    om, op = params.one_minus_sin_t, params.one_plus_sin_t
    num = n * n * om * om * op
    den = (n + s) ** 2 * op - (n * n - 1.0) * s * s * om * om
    if num < den / 2:
        return (1.0 - (num / den) ** ((n - 1) / 2.0)) / (n - 1)
    diff = s * (op * ((n * n - 1.0) * s - 2.0 * n * (n + 1)) + (n * n - 1.0) * s * om * om)
    return -math.expm1((n - 1) / 2.0 * math.log1p(diff / den)) / (n - 1)


def hm_bounds(n: int) -> tuple[float, float]:
    """The classical ideal-case bracket ((n-2)/(n-1)^2, 1/(n-1)); n >= 2."""
    if n < 2:
        raise DomainError("hm_bounds requires n >= 2")
    return (n - 2) / (n - 1) ** 2, 1.0 / (n - 1)


@dataclass(frozen=True)
class GrowthBounds:
    """The two closed-form bounds plus the classical reference bracket."""

    lower: float
    upper: float
    hm_lower: float
    hm_upper: float


def growth_bounds(params: SimplexParams) -> GrowthBounds:
    lo, hi = hm_bounds(params.n)
    return GrowthBounds(
        lower=lower_bound(params),
        upper=upper_bound(params),
        hm_lower=lo,
        hm_upper=hi,
    )


def growth_ratio_grid(cells, cfg: QuadratureConfig | None = None) -> list[tuple]:
    """(ratio, volume, facet volume) of each tau[n, t] in ``cells``, a
    sequence of SimplexParams with n >= 3 and t in (0, pi/2].

    Both volumes come from the projective form, as one batch of
    `integrate_simplex_radialpow` per dim; the facet of n is the
    volume one dimension down, so n in {3, 4, 5} makes four batches.
    Each volume keeps its own error bar and stall gate.  Batches run in
    the order of their first cell, a cell's volume before its facet, and
    the first batch that stalls raises its first stalled row
    (`integrate_simplex_radialpow`) as a ConvergenceError that carries
    the row's estimate as it is, whose message names the form,
    projective or facet-projective, and the cell, and whose ``row`` is
    the cell's index.
    A batch's stacks are built on the widest theta range it needs, with
    more nodes, so a cell's values can differ from its grid of one within
    the error bars (about 1e-14 relative on the criterion-04 grid).  The
    ratio's error is first-order propagated from the two quadrature
    errors.  A volume that underflows to 0.0 (V_n is about t^n) raises
    DomainError.
    """
    for params in cells:
        if params.n < 3:
            raise DomainError("growth ratio requires n >= 3")
        if params.t <= 0.0:
            raise DomainError("growth ratio is undefined at t = 0")
    jobs = [job(params) for params in cells for job in (_projective_job, _facet_job)]
    batches: dict = {}
    for i, (dim, _, _) in enumerate(jobs):
        batches.setdefault(dim, []).append(i)
    rows = {}
    for dim, index in batches.items():
        scale, w = zip(*(jobs[i][1:] for i in index))
        try:
            rows.update(zip(index, integrate_simplex_radialpow(dim, scale, cfg,
                                                               one_minus_scale_sq=w)))
        except ConvergenceError as exc:
            k, facet = divmod(index[exc.row], 2)             # jobs alternate volume, facet
            form = "facet-projective" if facet else "projective"
            raise ConvergenceError(
                f"{form} volume of cell {k} (n = {cells[k].n}, t = {cells[k].t!r}): {exc}",
                estimate=exc.estimate, row=k) from exc
    out = []
    for k, params in enumerate(cells):
        vol, facet = rows[2 * k], rows[2 * k + 1]
        if vol.value == 0.0 or facet.value == 0.0:
            raise DomainError(f"volume underflows to 0.0 at n = {params.n}, t = {params.t!r}")
        ratio = vol.value / facet.value
        err = ratio * (
            vol.error_estimate / vol.value + facet.error_estimate / facet.value
        )
        out.append((VolumeEstimate(ratio, err, vol.n_evals + facet.n_evals), vol, facet))
    return out


def growth_ratio(params: SimplexParams, cfg: QuadratureConfig | None = None) -> VolumeEstimate:
    """Measured growth ratio V(tau[n,t]) / V(facet), n >= 3, t in (0, pi/2];
    the ratio of the one-cell `growth_ratio_grid`."""
    return growth_ratio_grid([params], cfg)[0][0]


@dataclass(frozen=True)
class LimitAudit:
    """Audit of the endpoint product cos(t) atanh(sin t) as t -> pi/2.

    rows hold (t, eps, product); ``fitted_limit`` is the intercept of a
    least-squares fit of product against its leading asymptotic shape
    eps ln(2/eps).  ``claimed_limit`` is the widely quoted value 1.  The
    audit reports both and asserts neither.
    """

    rows: tuple
    fitted_limit: float
    claimed_limit: float
    monotone_decreasing: bool

    @property
    def agrees_with_claim(self) -> bool:
        return abs(self.fitted_limit - self.claimed_limit) < 1e-2


def _endpoint_product(params: SimplexParams) -> float:
    """cos(t) atanh(sin t) = cos t log((1 + sin t) / (1 - sin t)) / 2, from
    the cancellation-free 1 +- sin t of `SimplexParams`."""
    if params.is_ideal:
        raise DomainError("audit products need t < pi/2")
    return params.cos_t * 0.5 * math.log(params.one_plus_sin_t / params.one_minus_sin_t)


def limit_audit(n: int, t_sequence) -> LimitAudit:
    """Evaluate the endpoint product along t_sequence (increasing toward
    pi/2), fit the trend, and report the empirical limit alongside the
    claimed value.

    The dimension n is accepted for report symmetry with the bound
    evaluators and checked by each row's SimplexParams; the product
    itself is dimension-free.
    """
    ts = np.asarray(list(t_sequence), dtype=float)
    if ts.size < 2 or np.any(np.diff(ts) <= 0):
        raise DomainError("t_sequence must be increasing with at least 2 entries")
    rows = []
    for t in ts:
        eps = math.pi / 2 - float(t)
        rows.append((float(t), eps, _endpoint_product(SimplexParams(n, float(t)))))
    eps = np.array([r[1] for r in rows])
    prod = np.array([r[2] for r in rows])
    shape = eps * np.log(2.0 / eps)
    design = np.stack([np.ones_like(shape), shape], axis=1)
    coef, *_ = np.linalg.lstsq(design, prod, rcond=None)
    monotone = bool(np.all(np.diff(prod) < 0))
    return LimitAudit(
        rows=tuple(rows),
        fitted_limit=float(coef[0]),
        claimed_limit=1.0,
        monotone_decreasing=monotone,
    )


def default_audit_sequence() -> np.ndarray:
    """t = pi/2 - 10^(-k), k = 1..6."""
    return math.pi / 2 - 10.0 ** -np.arange(1, 7)
