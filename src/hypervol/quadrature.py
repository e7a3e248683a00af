"""Structured numerical integration engines.

Two engines live here:

* `integrate_nested` -- iterated integrals with state-dependent limits
  (each level's upper limit is a function of the previous variable),
  held as a stack of one-variable Chebyshev series, one per level, at
  increasing degree until two passes agree; the orthoscheme form runs
  on it;
* `integrate_simplex_radialpow` -- integrals of (1 - |x|^2)^(-p) over a
  scaled regular simplex, the volume element of the projective model.
  The simplex is collapsed to iterated cone (Duffy-type) coordinates; in
  these coordinates each level is a one-dimensional integral of the same
  integral one dimension down, which is held as a Chebyshev series in
  log(1 - sigma^2) of its own degree.  Panels are refined dyadically
  toward the vertex end, so the vertex-touching case scale = 1 (ideal
  simplices) integrates its corner singularities properly.  The
  projective and half-space forms run on it.

The radial engine holds its levels in a lo/hi pair of stacks whose
gap is the error bar.  A pair depends on scale only through the range
of log(1 - sigma^2) it covers, so `shared_radial_stacks`, the one place
a pair is built, builds one pair per (dimension, power) on the widest
range a set of integrals needs, and each integral then pays only its
own top level.  A stack's evaluation count is fixed when it is built; a
call counts the build plus its own top-level work.

Both engines integrate on Gauss panels graded dyadically toward one
end (`_panels_toward_one`) and share one interpolation scheme,
`_chebyshev_series` (second-kind points, coefficients by FFT): a radial
level doubles its points until `_standard_chop` finds the plateau, a
nested pass samples at its fixed degree.  The only setting is the
relative tolerance in `QuadratureConfig`; the absolute floor, the Gauss
order, the nested degrees, the radial cap and the chop tolerance are
module constants.
Both engines are pure functions of their inputs and reentrant; a
shared stack is only read after it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureConfig",
    "VolumeEstimate",
    "integrate_nested",
    "integrate_simplex_radialpow",
]

_EPS = float(np.finfo(np.float64).eps)
_ABS_TOL = 1e-12       # absolute floor of every tolerance and radial error bar
_BASE_ORDER = 14       # Gauss points per panel in the radial engine
_MAX_DEGREE = 512      # largest N a radial level's series may double to
_CHOP_TOL = 4 * _EPS   # plateau of a chopped series; level values carry a few ulps


@dataclass(frozen=True)
class QuadratureConfig:
    """The relative tolerance shared by the integration engines.  The
    radial engine targets |error| <= max(_ABS_TOL, rel_tol * |I|), the
    nested engine rel_tol * |I|."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not 10 * _EPS <= self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must lie in [{10 * _EPS:.2e}, 1)")

    def tolerance(self, value: float) -> float:
        return max(_ABS_TOL, self.rel_tol * abs(value))


@dataclass(frozen=True)
class VolumeEstimate:
    """A computed integral with its error estimate and evaluation count.

    The error estimate is a refinement difference: the gap between the
    lo/hi stack pair (radial engine) or between the last two level-stack
    passes (nested engine), which in practice overestimates the true
    error.  Values produced by the volume operations are nonnegative.
    """

    value: float
    error_estimate: float
    n_evals: int
    method: str

    def __post_init__(self):
        if not self.error_estimate >= 0.0:
            raise DomainError("error_estimate must be nonnegative")


# ---------------------------------------------------------------------------
# Gauss nodes

@lru_cache(maxsize=None)
def _gauss01(order: int):
    """Gauss-Legendre nodes/weights mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2, w / 2


# ---------------------------------------------------------------------------
# Nested iterated integrals

# Chebyshev degree and Gauss order of the successive level-stack passes
_NESTED_ORDERS = (8, 12, 18, 27, 40, 60, 90)


def _level_series(limit, factor, inner, top: float, m: int) -> np.polynomial.Chebyshev:
    """Degree-m Chebyshev series on [0, top] of
    x -> int_0^{limit(x)} factor(y) inner(y) dy, by an m-point Gauss rule."""
    g, w = _gauss01(m)

    def level(x):
        ub = limit(x)[:, None]
        y = ub * g
        return (ub * w * inner(y) * factor(y)).sum(axis=1)

    return _chebyshev_series(level, 0.0, top, m)[0]


def _nested_pass(limits, factors, m: int):
    """One level-stack pass at Chebyshev degree and Gauss order m."""
    tops = [float(limits[0])]               # X_k, the range of level k's variable
    for limit in limits[1:-1]:
        tops.append(float(limit(np.array([tops[-1]]))[0]))
    inner = np.ones_like
    for k in range(len(limits) - 1, 0, -1):
        inner = _level_series(limits[k], factors[k], inner, tops[k - 1], m)
    # the outer panels are graded toward 0, where the first factor may
    # carry a thin layer
    _, x, w = _panels_toward_one(52, m)
    x = tops[0] * x
    w = tops[0] * w * inner(x) * factors[0](x)
    return float(w.sum()), (len(limits) - 1) * (m + 1) * m + x.size


def integrate_nested(limits: Sequence, factors: Sequence,
                     cfg: QuadratureConfig | None = None) -> VolumeEstimate:
    """Iterated integral with state-dependent limits.

    ``limits[0]`` is the outermost (constant) upper limit; ``limits[k]``
    for k >= 1 maps the previous level's variable to the next upper
    limit and must be nondecreasing.  ``factors[k]`` is the per-level
    integrand factor, a callable; the integrand is the product of the
    factors.  All lower limits are 0.  Limits and factors must accept and
    return arrays.

    The chain is held one level at a time.  With X_0 = limits[0] and
    X_k = limits[k](X_{k-1}), level k = n-1 .. 1 is one Chebyshev series

        I_k(x) = int_0^{limits[k](x)} factors[k](y) I_{k+1}(y) dy   on [0, X_{k-1}],

    with I_n = 1, built by a Gauss rule on each of its Chebyshev points
    (second kind).  The outer integral of factors[0] I_1 runs on Gauss
    panels graded dyadically toward 0.  Pass m uses degree and Gauss
    order m over _NESTED_ORDERS, until two successive values agree to
    rel_tol times the value; their difference is the error estimate.  If
    the passes run out first with the difference above 100 times that,
    the last pass is attached to a ConvergenceError.
    """
    cfg = cfg or QuadratureConfig()
    depth = len(limits)
    if depth < 1:
        raise DomainError("chain depth must be >= 1")
    if len(factors) != depth:
        raise DomainError("need one factor entry per level")
    prev = None
    total_evals = 0
    for m in _NESTED_ORDERS:
        val, ev = _nested_pass(limits, factors, m)
        total_evals += ev
        if prev is not None:
            err = abs(val - prev)
            if err <= cfg.rel_tol * abs(val):
                return VolumeEstimate(val, err, total_evals, "nested-chebyshev")
        prev = val
    est = VolumeEstimate(val, err, total_evals, "nested-chebyshev")
    if err > 100 * cfg.rel_tol * abs(val):
        raise ConvergenceError(
            f"level-stack refinement exhausted at depth {depth} (err {err:.3e})", estimate=est
        )
    return est


# ---------------------------------------------------------------------------
# Radial powers over the regular simplex

def _panels_toward_one(depth: int, order: int):
    """Gauss panels on (0, 1), dyadically refined toward 1.

    Returns (x, one_minus_x, weights); one_minus_x is carried exactly so
    integrands can evaluate 1 - x without cancellation.
    """
    g, w = _gauss01(order)
    deltas = [(0.5, 1.0)]
    hi = 0.5
    for _ in range(depth):
        deltas.append((hi / 2, hi))
        hi /= 2
    deltas.append((0.0, hi))   # closing sliver; Gauss nodes stay interior
    xs, oms, ws = [], [], []
    for lo, hi in deltas:
        om = hi - (hi - lo) * g          # 1 - x inside the panel
        oms.append(om)
        xs.append(1.0 - om)
        ws.append((hi - lo) * w)
    return np.concatenate(xs), np.concatenate(oms), np.concatenate(ws)


# entries of each (theta rows x xi nodes) temporary when a level is
# evaluated on its Chebyshev points.  At 128 KiB of float64 the series'
# temporaries are reused from the heap; 530 KiB blocks were mapped and
# faulted in afresh, 28,000 page faults per ideal n = 5 volume
_BLOCK_ENTRIES = 1 << 14


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients of the polynomial through ``values`` at the points
    cos(pi j / N), j = 0..N: a DCT-I, as the FFT of the even extension."""
    coef = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / (values.size - 1)
    coef[[0, -1]] /= 2
    return coef


def _standard_chop(coef: np.ndarray) -> int:
    """How many leading coefficients to keep, by the rule of Aurentz and
    Trefethen, "Chopping a Chebyshev series" (ACM TOMS 43(4), 2017;
    Chebfun's standardChop): scan the monotone envelope of |coef| for a
    plateau, then cut where the envelope plus a slight upward tilt is
    least.  Without a plateau every coefficient stays; all zeros keep one."""
    n, tol = coef.size, _CHOP_TOL
    env = np.maximum.accumulate(np.abs(coef)[::-1])[::-1]
    if n < 17 or env[0] == 0.0:
        return n if n < 17 else 1
    env = env / env[0]
    for j in range(2, n + 1):                    # 1-based, as in the paper
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1 = env[j - 1]
        if e1 == 0.0 or env[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            break
    floor = tol ** (7 / 6)
    j2 = min(j2, int(np.count_nonzero(env >= floor)) + 1)
    tilted = np.log10(np.maximum(env[:j2], floor)) + np.linspace(0.0, -math.log10(tol) / 3, j2)
    return max(int(np.argmin(tilted)), 1)


def _chebyshev_series(f, a: float, b: float, degree: int, chop: bool = False):
    """Chebyshev series of f on [a, b] from its values at the N + 1 points
    b - (b - a) sin^2(pi j / 2N) (second kind, exact at both ends), with
    the number of points sampled.

    Without ``chop``, N is ``degree``.  With it, N doubles from 16 to at
    most ``degree``, each doubling sampling only the N new points between
    the old ones, until `_standard_chop` finds the coefficients' plateau;
    the coefficients before it are kept (all of them at ``degree``).

    The coefficients come from one FFT.  At degrees in the hundreds,
    numpy's Chebyshev.interpolate (three-term recurrence) left a 2e-12
    floor on those of log I_k, a cosine sum (cos(k angle) rounds at large
    arguments) 1e-13 to 1e-15 of the largest; by FFT the radial levels
    flatten out at 2e-18 to 3e-17 of it (N = 512, n = 3..8).
    """
    def sample(n, j):
        return f(b - (b - a) * np.sin(np.pi / (2 * n) * j) ** 2)

    n = min(16, degree) if chop else degree
    values = sample(n, np.arange(n + 1))
    while True:
        coef = _chebyshev_coefficients(values)
        keep = _standard_chop(coef) if chop else coef.size
        if keep < coef.size or 2 * n > degree:
            return np.polynomial.Chebyshev(coef[:keep], domain=(a, b)), values.size
        n *= 2
        values = np.insert(values, np.arange(1, values.size), sample(n, np.arange(1, n, 2)))


@dataclass(frozen=True)
class _RadialSettings:
    """``ncheb`` is the largest N a level may double to, not the degree it
    ends at; it keeps its name because `perfbench/tracing.py` reads it."""

    ncheb: int
    depth: int
    order: int


def _radial_settings(theta_min: float):
    depth = int(min(72, max(16, max(4.0, -theta_min) / math.log(2) + 12)))
    return (_RadialSettings(_MAX_DEGREE, max(12, depth - 6), _BASE_ORDER - 5),   # lo
            _RadialSettings(_MAX_DEGREE, depth, _BASE_ORDER))                   # hi


class RadialPowerStack:
    """Chebyshev series for the levels of the iterated-cone reduction of
    integral over S(k) of (1 - sigma^2 |x|^2)^(-p) dx.

    Level k is held as a Chebyshev series in theta = log(1 - sigma^2)
    on [theta_min, 0], interpolating log I_k(p, sigma) at the Chebyshev
    points of the second kind, doubled from N = 16 up to
    ``settings.ncheb`` and chopped at the coefficients' rounding plateau
    (`_chebyshev_series`); the ideal n = 5 levels stop at N = 128.
    ``n_evals`` counts the points the levels sampled.  Each level's
    defining integral runs over the cone parameter xi in (0, 1) on panels
    refined dyadically toward xi = 1, where the integrand concentrates as
    sigma -> 1.

    The reduction, with h = 1/k and rho^2 = 1 - h^2:

        I_k(p, sigma) = (k+1)/k * rho^(k-1) *
            int_0^1 xi^(k-1) (1 - sigma^2 xi^2 h^2)^(-p) I_{k-1}(p, sigma') dxi,
        sigma'^2 = sigma^2 xi^2 rho^2 / (1 - sigma^2 xi^2 h^2),

    with I_0 = 1 and I_1 = 2 int_0^1 (1 - sigma^2 x^2)^(-p) dx.

    Stacks come in lo/hi fidelity pairs, built by `shared_radial_stacks`
    and read by `_radial_estimate`.
    """

    def __init__(self, levels: int, p: float, theta_min: float, settings: _RadialSettings):
        self.p = p
        self.theta_min = theta_min
        self.settings = settings
        self._series: list[np.polynomial.Chebyshev | None] = [None] * (levels + 1)
        xi, om, w = _panels_toward_one(settings.depth, settings.order)
        self._nodes = (xi, w, om * (2.0 - om))                 # 1 - xi^2, exact
        # integrand evaluations of the build; fixed here, so a shared stack
        # carries no count from one caller's top integrals into the next
        self.n_evals = 0
        for k in range(1, levels + 1):
            self._series[k], points = _chebyshev_series(
                lambda th: self._log_level(k, th), theta_min, 0.0, settings.ncheb, chop=True)
            self.n_evals += points * xi.size

    def _log_level(self, k, thetas):
        """log I_k at each theta, by direct quadrature in row blocks."""
        out = np.empty(thetas.size)
        rows = max(1, _BLOCK_ENTRIES // self._nodes[0].size)
        for i in range(0, thetas.size, rows):
            block = thetas[i:i + rows]
            out[i:i + rows] = np.log(
                self._level_integral(k, np.exp(block), -np.expm1(block), self._nodes))
        return out

    def _vertex_nodes(self):
        """(xi, weights, 1 - xi^2) for xi = 1 - eta^2, which regularizes the
        vertex endpoint when sigma = 1; eta is the 1 - x of panels toward
        one, so it is refined toward 0."""
        _, eta, weta = _panels_toward_one(self.settings.depth // 2 + 8, self.settings.order)
        om = eta * eta
        return 1.0 - om, 2.0 * eta * weta, om * (2.0 - om)

    def _level_integral(self, k, w, sigma2, nodes):
        """Direct quadrature of level k at each row of the arrays
        (w, sigma2) = (1 - sigma^2, sigma^2) on the xi ``nodes``, given the
        level k-1 series."""
        xi, wq, one_m_xi2 = nodes
        num = w[:, None] + sigma2[:, None] * one_m_xi2          # 1 - sigma^2 xi^2
        if k == 1:
            return 2.0 * (num ** (-self.p) @ wq)
        h2 = 1.0 / (k * k)
        rho2 = 1.0 - h2
        den = h2 * num + rho2                                   # 1 - sigma^2 xi^2 h^2
        inner = self.level_value(k - 1, num / den)
        coef = (k + 1) / k * rho2 ** ((k - 1) / 2)
        return coef * ((xi ** (k - 1) * den ** (-self.p) * inner) @ wq)

    # -- public surface ------------------------------------------------------

    def level_value(self, k: int, one_minus_sigma_sq):
        """I_k(p, sigma) for an array of 1 - sigma^2 values (from the series)."""
        if k == 0:
            return np.ones_like(np.asarray(one_minus_sigma_sq, dtype=float))
        w = np.maximum(np.asarray(one_minus_sigma_sq, dtype=float), 1e-300)
        return np.exp(self._series[k](np.clip(np.log(w), self.theta_min, 0.0)))

    def top_integral(self, k: int, w_top: float, sigma2_top: float) -> tuple[float, int]:
        """I_k evaluated directly at the target sigma (not interpolated),
        with the number of integrand evaluations it took."""
        nodes = self._vertex_nodes() if w_top == 0.0 else self._nodes
        row = self._level_integral(k, np.array([w_top]), np.array([sigma2_top]), nodes)
        return float(row[0]), nodes[0].size


def _radial_theta_min(w_top: float, depth: int) -> float:
    if w_top > 0.0:
        # keep the interpolation interval nondegenerate even when
        # 1 - scale^2 rounds to 1 (scale ~ 1e-9)
        return min(math.log(w_top), -1e-9)
    return -(depth - 1) * math.log(2.0) - 1.0


def shared_radial_stacks(jobs, cfg: QuadratureConfig) -> dict:
    """Low/high fidelity RadialPowerStack pairs, one per (dim, p) among
    ``jobs``, an iterable of (dim, p, w_top) triples.  Each pair has
    levels 1..dim-1 and is built on the smallest w_top its (dim, p)
    needs, so it serves every top integral at 1 - sigma^2 >= that w_top:
    a stack depends on w_top only through its theta range."""
    floors: dict = {}
    for dim, p, w_top in jobs:
        floors[dim, p] = min(w_top, floors.get((dim, p), math.inf))
    pool = {}
    for (dim, p), w_top in floors.items():
        settings = _radial_settings(_radial_theta_min(w_top, 72))  # (lo, hi)
        pool[dim, p] = tuple(
            RadialPowerStack(dim - 1, p, _radial_theta_min(w_top, s.depth), s)
            for s in settings)
    return pool


def _radial_estimate(stacks, cfg: QuadratureConfig, value_of: Callable,
                     method: str) -> VolumeEstimate:
    """``value_of(stack)`` on the high-fidelity stack of a `shared_radial_stacks`
    pair; its error is the gap to the low-fidelity value plus _ABS_TOL.
    ``value_of`` returns (value, evaluations beyond the stack's build), so
    the count is the pair's build plus this call's own work.  A gap above
    max(1e-3 |value|, 1e4 * tolerance) raises ConvergenceError."""
    values = []
    evals = 0
    for stack in stacks:
        value, extra = value_of(stack)
        values.append(value)
        evals += stack.n_evals + extra
    lo, hi = values
    err = abs(hi - lo) + _ABS_TOL
    est = VolumeEstimate(hi, err, evals, method)
    if err > max(1e-3 * abs(hi), 1e4 * cfg.tolerance(hi)):
        raise ConvergenceError(
            f"radial refinement stalled (err {err:.3e} on value {hi:.6e})", estimate=est
        )
    return est


def integrate_simplex_radialpow(n: int, scale: float, p: float,
                                cfg: QuadratureConfig | None = None, *,
                                one_minus_scale_sq: float | None = None,
                                pool: dict | None = None) -> VolumeEstimate:
    """Integral of (1 - |x|^2)^(-p) over scale * S(n), where S(n) is the
    regular n-simplex inscribed in the unit sphere.

    scale = 1 touches the sphere at the n+1 vertices; the integral then
    exists iff p <= (n+1)/2 (and p < 1 when n = 1) and the corner
    singularities are handled by the dyadic panels plus a radial
    square-root substitution at the outermost level.

    ``one_minus_scale_sq`` may be supplied when the caller knows
    1 - scale^2 in a cancellation-free form (it dominates the integrand
    near the vertices).

    ``pool`` is a `shared_radial_stacks` result whose jobs include this
    one; without it the pair is built for this call alone.
    """
    cfg = cfg or QuadratureConfig()
    if n < 1:
        raise DomainError("dimension must be >= 1")
    if not 0.0 <= scale <= 1.0:
        raise DomainError(f"scale must lie in [0, 1], got {scale!r}")
    if scale == 1.0 and (p > (n + 1) / 2 or (n == 1 and p >= 1.0)):
        raise DomainError(
            f"(1 - |x|^2)^(-p) is not integrable over S({n}) for p = {p}"
        )
    if scale == 0.0:
        return VolumeEstimate(0.0, 0.0, 0, "simplex-radial")
    sigma2 = scale * scale
    w_top = one_minus_scale_sq if one_minus_scale_sq is not None \
        else (1.0 - scale) * (1.0 + scale)
    if w_top < 0.0:
        raise DomainError("one_minus_scale_sq must be nonnegative")
    def value_of(stack):
        value, evals = stack.top_integral(n, w_top, sigma2)
        return sigma2 ** (n / 2) * value, evals

    if pool is None:
        pool = shared_radial_stacks([(n, p, w_top)], cfg)
    return _radial_estimate(pool[n, p], cfg, value_of, "simplex-radial")
