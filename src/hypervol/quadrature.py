"""Adaptive and structured numerical integration engines.

Three engines live here:

* `integrate_adaptive` -- globally adaptive Gauss-Kronrod (7, 15) on an
  interval, with an embedded-rule error estimate;
* `integrate_nested` -- iterated integrals with state-dependent limits
  (each level's upper limit is a function of the previous variable),
  held as a stack of one-variable Chebyshev series, one per level, at
  increasing degree until two passes agree;
* `integrate_simplex_radialpow` -- integrals of (1 - |x|^2)^(-p) over a
  scaled regular simplex, the volume element of the projective model.
  The simplex is collapsed to iterated cone (Duffy-type) coordinates; in
  these coordinates each level is a one-dimensional integral of the same
  integral one dimension down, which is held as a Chebyshev series in
  log(1 - sigma^2).  Panels are refined dyadically
  toward the vertex end, so the vertex-touching case scale = 1 (ideal
  simplices) integrates its corner singularities properly.

The radial engine holds its levels in a lo/hi pair of stacks whose
gap is the error bar.  A pair depends on scale only through the range
of log(1 - sigma^2) it covers, so `shared_radial_stacks` builds one
pair per (dimension, power) on the widest range a set of integrals
needs, and each integral then pays only its own top level.  A stack's
evaluation count is fixed when it is built; a call counts the build
plus its own top-level work.

The nested and radial engines share one interpolation scheme,
`_chebyshev_series`.  The only setting is the relative tolerance in
`QuadratureConfig`; the absolute floor, the panel cap, the Gauss order
and the nested degree ladder are module constants.
All engines are pure functions of their inputs and reentrant; a
shared stack is only read after it is built.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureConfig",
    "VolumeEstimate",
    "integrate_adaptive",
    "integrate_nested",
    "integrate_simplex_radialpow",
]

_EPS = float(np.finfo(np.float64).eps)
_ABS_TOL = 1e-12       # absolute floor of every tolerance and radial error bar
_BASE_ORDER = 14       # Gauss points per panel in the radial engine
_MAX_PANELS = 4000     # panel cap of the adaptive interval engine


@dataclass(frozen=True)
class QuadratureConfig:
    """The relative tolerance shared by the integration engines.  The
    adaptive and radial engines target |error| <= max(_ABS_TOL,
    rel_tol * |I|), the nested engine rel_tol * |I|."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not 10 * _EPS <= self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must lie in [{10 * _EPS:.2e}, 1)")

    def tolerance(self, value: float) -> float:
        return max(_ABS_TOL, self.rel_tol * abs(value))


@dataclass(frozen=True)
class VolumeEstimate:
    """A computed integral with its error estimate and evaluation count.

    The error estimate is the embedded-rule or refinement difference,
    which in practice overestimates the true error.  Values produced by
    the volume operations are nonnegative.
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


# Gauss-Kronrod (7, 15) nodes on [-1, 1] and both weight sets (QUADPACK values)
_GK_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_GK_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GK_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _gk_panel(f, a, b):
    half = (b - a) / 2
    x = (a + b) / 2 + half * _GK_NODES
    fx = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise DomainError(f"integrand is not finite inside [{a!r}, {b!r}]")
    ik = half * float(fx @ _GK_WK)
    ig = half * float(fx[1::2] @ _GK_WG)
    # QUADPACK-style sharpened estimate of the K15-G7 gap
    err = abs(ik - ig)
    scale = float(np.abs(fx) @ _GK_WK) * abs(half)
    if scale > 0 and err > 0:
        err = scale * min(1.0, (200 * err / scale) ** 1.5)
    return ik, err


def integrate_adaptive(f, a: float, b: float, cfg: QuadratureConfig | None = None) -> VolumeEstimate:
    """Adaptive Gauss-Kronrod integration of ``f`` on [a, b].

    ``f`` must accept an ndarray of abscissae and return the integrand
    values elementwise.
    Endpoint behavior: nodes are strictly interior, so integrable endpoint
    singularities are admissible.

    Raises ConvergenceError (with the best estimate attached) if the
    tolerance is not met within _MAX_PANELS panels.
    """
    cfg = cfg or QuadratureConfig()
    if not a <= b:
        raise DomainError(f"need a <= b, got ({a!r}, {b!r})")
    if a == b:
        return VolumeEstimate(0.0, 0.0, 0, "adaptive-gk15")
    i0, e0 = _gk_panel(f, a, b)
    heap = [(-e0, a, b, i0)]
    total, err = i0, e0
    evals = 15
    panels = 1
    while err > cfg.tolerance(total):
        if panels >= _MAX_PANELS:
            est = VolumeEstimate(total, err, evals, "adaptive-gk15")
            raise ConvergenceError(
                f"no convergence after {panels} panels (err {err:.3e})", estimate=est
            )
        neg_e, pa, pb, pi = heapq.heappop(heap)
        mid = (pa + pb) / 2
        il, el = _gk_panel(f, pa, mid)
        ir, er = _gk_panel(f, mid, pb)
        evals += 30
        total += il + ir - pi
        err += el + er - (-neg_e)
        heapq.heappush(heap, (-el, pa, mid, il))
        heapq.heappush(heap, (-er, mid, pb, ir))
        panels += 1
        if panels % 64 == 0:
            # resum to shed accumulated cancellation in the running totals
            total = sum(item[3] for item in heap)
            err = sum(-item[0] for item in heap)
    return VolumeEstimate(total, err, evals, "adaptive-gk15")


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
        v = ub * w * inner(y)
        if factor is not None:
            v = v * factor(y)
        return v.sum(axis=1)

    return _chebyshev_series(level, m, 0.0, top)


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
    w = tops[0] * w * inner(x)
    if factors[0] is not None:
        w = w * factors[0](x)
    return float(w.sum()), (len(limits) - 1) * (m + 1) * m + x.size


def integrate_nested(limits: Sequence, factors: Sequence,
                     cfg: QuadratureConfig | None = None) -> VolumeEstimate:
    """Iterated integral with state-dependent limits.

    ``limits[0]`` is the outermost (constant) upper limit; ``limits[k]``
    for k >= 1 maps the previous level's variable to the next upper
    limit and must be nondecreasing.  ``factors[k]`` is the per-level
    integrand factor (``None`` for 1); the integrand is the product of the
    factors.  All lower limits are 0.  Limits and factors must accept and
    return arrays.

    The chain is held one level at a time.  With X_0 = limits[0] and
    X_k = limits[k](X_{k-1}), level k = n-1 .. 1 is one Chebyshev series

        I_k(x) = int_0^{limits[k](x)} factors[k](y) I_{k+1}(y) dy   on [0, X_{k-1}],

    with I_n = 1, built by a Gauss rule on each of its Chebyshev points.
    The outer integral of factors[0] I_1 runs on Gauss panels graded
    dyadically toward 0.  Pass m uses degree and Gauss order m over
    _NESTED_ORDERS, until two successive values agree to rel_tol times
    the value; their difference is the error estimate.  If the passes run
    out first with the difference above 100 times that, the last pass is
    attached to a ConvergenceError.
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


def _chebyshev_series(f, degree: int, a: float, b: float) -> np.polynomial.Chebyshev:
    """Chebyshev series interpolating f at the degree + 1 Chebyshev points
    of the first kind on [a, b].

    The coefficients are cosine sums over the point angles.  numpy's
    Chebyshev.interpolate builds T_k at the points by the three-term
    recurrence, whose rounding grows like k^2 toward the interval ends; at
    degree 420 that left a 2e-12 floor on the coefficients of log I_k.
    """
    angles = math.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
    values = f(b - (b - a) / 2 * (1.0 - np.cos(angles)))
    coef = np.cos(np.outer(np.arange(degree + 1), angles)) @ values * (2.0 / (degree + 1))
    coef[0] /= 2
    return np.polynomial.Chebyshev(coef, domain=(a, b))


@dataclass(frozen=True)
class _RadialSettings:
    ncheb: int
    depth: int
    order: int


def _radial_settings(cfg: QuadratureConfig, theta_min: float):
    digits = min(13.0, -math.log10(max(cfg.rel_tol, 1e-14)))
    span = max(4.0, -theta_min)
    ncheb = int(min(420, (26 + 7.5 * digits) * max(1.0, span / 9.0)))
    depth = int(min(72, max(16, span / math.log(2) + 12)))
    hi = _RadialSettings(ncheb, depth, _BASE_ORDER)
    lo = _RadialSettings(max(24, int(0.6 * ncheb)), max(12, depth - 6), _BASE_ORDER - 5)
    return lo, hi


class RadialPowerStack:
    """Chebyshev series for the levels of the iterated-cone reduction of
    integral over S(k) of (1 - sigma^2 |x|^2)^(-p) dx.

    Level k is held as a Chebyshev series in theta = log(1 - sigma^2)
    on [theta_min, 0], interpolating log I_k(p, sigma) at the Chebyshev
    points of the first kind.  Each level's defining integral runs over
    the cone parameter xi in (0, 1) on panels refined dyadically toward
    xi = 1, where the integrand concentrates as sigma -> 1.

    The reduction, with h = 1/k and rho^2 = 1 - h^2:

        I_k(p, sigma) = (k+1)/k * rho^(k-1) *
            int_0^1 xi^(k-1) (1 - sigma^2 xi^2 h^2)^(-p) I_{k-1}(p, sigma') dxi,
        sigma'^2 = sigma^2 xi^2 rho^2 / (1 - sigma^2 xi^2 h^2),

    with I_0 = 1 and I_1 = 2 int_0^1 (1 - sigma^2 x^2)^(-p) dx.
    """

    def __init__(self, levels: int, p: float, theta_min: float, settings: _RadialSettings):
        self.p = p
        self.theta_min = theta_min
        self.settings = settings
        self._series: list[np.polynomial.Chebyshev | None] = [None] * (levels + 1)
        xi, om, w = _panels_toward_one(settings.depth, settings.order)
        self._nodes = (xi, w, om * (2.0 - om))                 # 1 - xi^2, exact
        for k in range(1, levels + 1):
            self._series[k] = _chebyshev_series(
                lambda thetas: self._log_level(k, thetas), settings.ncheb, theta_min, 0.0)
        # integrand evaluations of the build; fixed here, so a shared stack
        # carries no count from one caller's top integrals into the next
        self.n_evals = levels * (settings.ncheb + 1) * xi.size

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


def build_radial_stacks(dim: int, p: float, w_top: float, cfg: QuadratureConfig):
    """Low/high fidelity RadialPowerStack pair with levels 1..dim-1, which
    serves every top integral at 1 - sigma^2 >= w_top."""
    lo_set, hi_set = _radial_settings(cfg, _radial_theta_min(w_top, 72))
    theta_lo = _radial_theta_min(w_top, lo_set.depth)
    theta_hi = _radial_theta_min(w_top, hi_set.depth)
    return (
        RadialPowerStack(dim - 1, p, theta_lo, lo_set),
        RadialPowerStack(dim - 1, p, theta_hi, hi_set),
    )


def shared_radial_stacks(jobs, cfg: QuadratureConfig) -> dict:
    """One `build_radial_stacks` pair per (dim, p) among ``jobs``, an
    iterable of (dim, p, w_top) triples, built on the smallest w_top
    that (dim, p) needs.  A stack depends on w_top only through its
    theta range, so the widest range serves every job of its (dim, p)."""
    floors: dict = {}
    for dim, p, w_top in jobs:
        floors[dim, p] = min(w_top, floors.get((dim, p), math.inf))
    return {(dim, p): build_radial_stacks(dim, p, w_top, cfg)
            for (dim, p), w_top in floors.items()}


def _radial_estimate(stacks, cfg: QuadratureConfig, value_of: Callable,
                     method: str) -> VolumeEstimate:
    """``value_of(stack)`` on the high-fidelity stack of a `build_radial_stacks`
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
