"""Structured numerical integration engines.

Two engines live here:

* `integrate_nested` -- iterated integrals with state-dependent limits
  (each level's upper limit is a function of the previous variable),
  built once as a stack of one-variable Chebyshev antiderivatives, one
  per level; the orthoscheme form runs on it;
* `integrate_simplex_radialpow` -- integrals of (1 - |x|^2)^(-p) over a
  scaled regular simplex, the volume element of the projective model.
  The simplex is collapsed to iterated cone (Duffy-type) coordinates; in
  these coordinates each level I_k is a one-dimensional integral of the
  level one dimension down, which is held as a Chebyshev series in
  log(1 - sigma^2) of its own degree.  With v = 1 - sigma^2 xi^2,
  den(v) = v/k^2 + rho^2, rho^2 = 1 - 1/k^2 and c_k = (k+1)/k rho^(k-1),

      sigma^k I_k(sigma) = (c_k/2) int_{1-sigma^2}^1
          (1 - v)^((k-2)/2) den(v)^(-p) I_{k-1}(v / den(v)) dv

  (c_1 = 2, and den = v at k = 1, I_0 = 1).  The integrand does not
  depend on sigma, so a level is one cumulative integral over one set of
  Gauss panels in y = sqrt(-log v) (`RadialPowerStack`), and the top
  level is the same integral read at each row's sigma; the
  vertex-touching case scale = 1 (ideal simplices) runs it to the
  stack's theta_min and adds the leading term of the tail beyond.  The
  projective and half-space forms run on it.

The radial engine holds its levels in a lo/hi pair of stacks whose
gap is the error bar.  A pair depends on scale only through the range
of log(1 - sigma^2) it covers, so `_radial_pair`, the one place a pair
is built, builds it on the widest range a batch of integrals of one
(dimension, power) needs, and each stack runs the batch's top levels in
one pass; a standalone integral is a batch of one.  A stack's
evaluation count is fixed when it is built; a row counts the build plus
its own top-level work.

The nested engine's outer integral and the half-space form's sliced
facet integral run on Gauss panels graded dyadically toward one end
(`_panels_toward_one`).
Both engines share one interpolation scheme,
`_chebyshev_series` (second-kind points, coefficients by FFT), and one
evaluator, `_chebval`: a level of either engine doubles its points
until `_standard_chop` finds the plateau, a radial level from the N
where the level below stopped, a nested level from N = 32.  Each round
of a level is one pass over the level below, a Clenshaw step per
coefficient.  A step costs a fixed 2-3 us plus 1-2 ns per point (a
shared 2-vCPU Xeon VM, Python 3.11, numpy 2.4), so at the few hundred
to few thousand points of a round the fixed part dominates, and a
build costs about passes times degree.  What a round costs besides its
pass does not depend on the level: the chop's index pairs are cached by
size, a radial stack builds each round's sample geometry once for all
its levels, and a nested level's antiderivative is a few vector
operations.  Both engines stop on one rule: a
level with no plateau by its cap leaves the result unresolved, and the
engine raises ConvergenceError carrying its estimate.  The radial engine
also raises a row whose lo/hi gap stalls; `_radial_estimate` is the one
place its verdict is formed.  The only setting is the relative
tolerance in `QuadratureConfig`; the absolute floor, the Gauss order,
the degree cap and the chop tolerance are module constants.
Both engines are pure functions of their inputs and reentrant; a
shared stack is only read after it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

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
_BASE_ORDER = 14       # Gauss points per panel of the radial and outer nested integrals
_MAX_DEGREE = 512      # largest N a level's series may double to
_CHOP_TOL = 4 * _EPS   # plateau of a chopped series; level values carry a few ulps


@dataclass(frozen=True)
class QuadratureConfig:
    """The relative tolerance shared by the integration engines.  The
    nested engine raises ConvergenceError when its estimate is above
    rel_tol * |I|.  The radial engine does not target it: its bar is the
    lo/hi gap plus _ABS_TOL, and it raises only when that gap is above
    max(1e-3 |I|, 1e4 * tolerance(I))."""

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
    lo/hi stack pair plus _ABS_TOL (radial engine), or between two outer
    panel sets plus a rounding term at the chop's plateau (nested
    engine).  Values produced by the volume operations are nonnegative.
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

def integrate_nested(limits: Sequence, factors: Sequence,
                     cfg: QuadratureConfig | None = None) -> VolumeEstimate:
    """Iterated integral with state-dependent limits.

    ``limits[0]`` is the outermost (constant) upper limit; ``limits[k]``
    for k >= 1 maps the previous level's variable to the next upper
    limit and must be nondecreasing.  ``factors[k]`` is the per-level
    integrand factor, a callable; the integrand is the product of the
    factors.  All lower limits are 0.  Limits and factors must accept and
    return arrays.

    The chain is built once, one level at a time.  With n = len(limits),
    X_0 = limits[0] and X_k = limits[k](X_{k-1}), level k = n-1 .. 1 is
    the antiderivative

        F_k(u) = int_0^u factors[k](y) F_{k+1}(limits[k+1](y)) dy   on [0, X_k],

    with F_n = 1.  Its integrand does not depend on the outer variables,
    so it is one chopped Chebyshev series (`_chebyshev_series` from
    N = 32), integrated exactly.  The outer integral of
    factors[0] F_1(limits[1]) runs on Gauss panels graded dyadically
    toward 0, where the first factor may carry a thin layer, at two panel
    depths; the deeper one is the value.  The error estimate is their
    gap plus the chop's plateau, relative once per level and absolute on
    F_1 under the outer weights w f_0:

        |hi - lo| + _CHOP_TOL (n |hi| + sum |w f_0| |F_1(X_1)|).

    A level with no plateau by _MAX_DEGREE, or an estimate above rel_tol
    times the value, raises ConvergenceError carrying the estimate.
    """
    cfg = cfg or QuadratureConfig()
    depth = len(limits)
    if depth < 1:
        raise DomainError("chain depth must be >= 1")
    if len(factors) != depth:
        raise DomainError("need one factor entry per level")
    tops = [float(limits[0])]                   # X_k, the range of level k's variable
    for limit in limits[1:]:
        tops.append(float(limit(np.array([tops[-1]]))[0]))
    inner, top_value, n_evals, stalled = np.ones_like, 1.0, 0, False
    for k in range(depth - 1, 0, -1):
        series, points = _chebyshev_series(
            lambda y, k=k, inner=inner: factors[k](y) * inner(y), 0.0, tops[k], _MAX_DEGREE, 32)
        n_evals += points
        stalled |= series.coef.size == points
        antiderivative = _antiderivative(series)
        top_value = float(antiderivative.coef.sum())   # F_k(X_k): every T_j is 1 there
        inner = lambda y, k=k, f=antiderivative: _chebval(f, limits[k](y))

    def outer(panels):
        _, x, w = _panels_toward_one(panels, _BASE_ORDER)
        x = tops[0] * x
        w = tops[0] * w * factors[0](x)
        return float(w @ inner(x)), float(np.abs(w).sum()), x.size

    (value, weight, hi_evals), (lo, _, lo_evals) = outer(52), outer(46)
    n_evals += hi_evals + lo_evals
    err = abs(value - lo) + _CHOP_TOL * (depth * abs(value) + weight * abs(top_value))
    est = VolumeEstimate(value, err, n_evals, "nested-chebyshev")
    if stalled or err > cfg.rel_tol * abs(value):
        why = f"a level has no plateau by N = {_MAX_DEGREE}" if stalled else f"err {err:.3e}"
        raise ConvergenceError(f"nested chain unresolved at depth {depth} ({why})", estimate=est)
    return est


# ---------------------------------------------------------------------------
# Radial powers over the regular simplex

@lru_cache(maxsize=None)
def _panels_toward_one(depth: int, order: int):
    """Gauss panels on (0, 1), dyadically refined toward 1.

    Returns (x, one_minus_x, weights), read-only because they are cached;
    one_minus_x is carried exactly so integrands can evaluate 1 - x
    without cancellation.
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
    panels = np.array([np.concatenate(v) for v in (xs, oms, ws)])
    panels.flags.writeable = False
    return tuple(panels)


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients of the polynomial through ``values`` at the points
    cos(pi j / N), j = 0..N: a DCT-I, as the FFT of the even extension."""
    coef = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / (values.size - 1)
    coef[0] /= 2
    coef[-1] /= 2
    return coef


_LOG_CHOP_TOL = math.log(_CHOP_TOL)
_CHOP_FLOOR = _CHOP_TOL ** (7 / 6)     # envelope floor of the tilted cut
_CHOP_TILT = -math.log10(_CHOP_TOL) / 3


@lru_cache(maxsize=None)
def _chop_plan(n: int):
    """The 0-based pairs (j - 1, j2 - 1), j2 = floor(1.25 j + 5.5) <= n,
    that `_standard_chop` scans on n coefficients; read-only because they
    are cached."""
    j = np.arange(2, n + 1)                      # 1-based, as in the paper
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    plan = np.array([j[j2 <= n] - 1, j2[j2 <= n] - 1])
    plan.flags.writeable = False
    return tuple(plan)


@lru_cache(maxsize=None)
def _chop_tilt(size: int) -> np.ndarray:
    """The upward tilt added to log10 of the first ``size`` envelope
    entries; read-only because it is cached."""
    tilt = np.linspace(0.0, _CHOP_TILT, size)
    tilt.flags.writeable = False
    return tilt


def _standard_chop(coef: np.ndarray) -> int:
    """How many leading coefficients to keep, by the rule of Aurentz and
    Trefethen, "Chopping a Chebyshev series" (ACM TOMS 43(4), 2017;
    Chebfun's standardChop): scan the monotone envelope of |coef| for a
    plateau, then cut where the envelope plus a slight upward tilt is
    least.  Without a plateau every coefficient stays; all zeros keep one.
    The scan tests every j at once and takes the first plateau, which is
    where the paper's loop stops; its index pairs and the tilt are cached
    by size (`_chop_plan`, `_chop_tilt`)."""
    n = coef.size
    env = np.maximum.accumulate(np.abs(coef)[::-1])[::-1]
    if n < 17 or env[0] == 0.0:
        return n if n < 17 else 1
    env = env / env[0]
    i1, i2 = _chop_plan(n)
    e1 = env[i1]
    # past the envelope's last nonzero entry e1 = 0 is a plateau; the
    # 0/0 and log(0) there are masked by it
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0.0) | (env[i2] / e1 > 3.0 * (1.0 - np.log(e1) / _LOG_CHOP_TOL))
    if not plateau.any():
        return n
    j2 = min(int(i2[plateau.argmax()]) + 1, int(np.count_nonzero(env >= _CHOP_FLOOR)) + 1)
    tilted = np.log10(np.maximum(env[:j2], _CHOP_FLOOR)) + _chop_tilt(j2)
    return max(int(np.argmin(tilted)), 1)


def _chebyshev_series(f, a: float, b: float, degree: int, start: int):
    """Chebyshev series of f on [a, b] from its values at the N + 1 points
    b - (b - a) sin^2(pi j / 2N) (second kind, exact at both ends), with
    the number of points sampled.

    N doubles from ``start`` to at most ``degree``, each doubling sampling
    only the N new points between the old ones, until `_standard_chop`
    finds the coefficients' plateau; the coefficients before it are kept.
    A series with no plateau by ``degree`` keeps every coefficient, as
    many as its points, which is how both engines tell an unresolved
    level.  A caller whose f reads other series starts near the plateau,
    since each round costs a pass over them: a series first sampled past
    its plateau is still cut there, from finer samples.

    The coefficients come from one FFT.  At degrees in the hundreds,
    numpy's Chebyshev.interpolate (three-term recurrence) left a 2e-12
    floor on those of log I_k, a cosine sum (cos(k angle) rounds at large
    arguments) 1e-13 to 1e-15 of the largest; by FFT the radial levels
    flatten out at 2e-18 to 3e-17 of it (N = 512, n = 3..8).
    """
    def sample(n, j):
        return f(b - (b - a) * np.sin(np.pi / (2 * n) * j) ** 2)

    n = min(start, degree)
    values = sample(n, np.arange(n + 1))
    while True:
        coef = _chebyshev_coefficients(values)
        keep = _standard_chop(coef)
        if keep < coef.size or 2 * n > degree:
            return np.polynomial.Chebyshev(coef[:keep], domain=(a, b)), values.size
        n *= 2
        old, values = values, np.empty(n + 1)
        values[::2] = old
        values[1::2] = sample(n, np.arange(1, n, 2))


def _antiderivative(series: np.polynomial.Chebyshev) -> np.polynomial.Chebyshev:
    """``series.integ(lbnd=0)``, bitwise, where numpy's chebint loops in
    Python over the coefficients: with c the coefficients times 1/scl,
    c_0 becomes the one of T_1 and each c_j (j >= 1) adds c_j / 2(j+1) to
    T_(j+1) and takes c_j / 2(j-1) from T_(j-1), in numpy's operations;
    the constant is then minus the result's value at the lower bound, by
    the same Clenshaw steps as numpy's chebval.  A zero constant series
    (numpy keeps one coefficient) becomes two zeros."""
    off, scl = series.mapparms()
    c = series.coef * (1.0 / scl)
    n = c.size
    out = np.empty(n + 1)
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2:] = c[1:] / (2 * np.arange(2, n + 1))
    out[1:n - 1] -= c[2:] / (2 * np.arange(1, n - 1))
    x = float(off + scl * 0.0)                   # the lower bound 0, mapped
    x2, coef = 2 * x, out.tolist()
    c0, c1 = coef[-2], coef[-1]
    for ck in coef[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    out[0] += 0 - (c0 + c1 * x)
    return np.polynomial.Chebyshev(out, series.domain)


def _chebval(series: np.polynomial.Chebyshev, x: np.ndarray) -> np.ndarray:
    """``series(x)``, bitwise: x mapped by ``series.mapparms()``, then
    numpy's Clenshaw recurrence (chebval) on three reused buffers where
    numpy allocates three arrays per coefficient.  A step is three ufunc
    calls, whose fixed cost dominates at the few hundred to few thousand
    points of a pass, so the coefficients are read as Python floats and
    the outputs passed by position."""
    off, scl = series.mapparms()
    x = off + scl * x
    c = series.coef.tolist()
    if len(c) < 3:
        return c[0] + (c[1] if len(c) == 2 else 0) * x
    x2 = 2 * x
    c0, c1, t = np.full_like(x, c[-2]), np.full_like(x, c[-1]), np.empty_like(x)
    multiply, subtract, add = np.multiply, np.subtract, np.add
    for ck in c[-3::-1]:
        # c0, c1 = ck - c1, c0 + c1 * x2, with t free for the product
        multiply(c1, x2, t)
        subtract(ck, c1, c1)
        add(t, c0, t)
        c0, c1, t = c1, t, c0
    np.multiply(c1, x, out=t)
    t += c0
    return t


@dataclass(frozen=True)
class _RadialSettings:
    """``ncheb`` is the largest N a level may double to, not the degree it
    ends at; it keeps its name because `perfbench/tracing.py` reads it."""

    ncheb: int
    depth: int
    order: int


def _cone_factor(k: int) -> float:
    """c_k = (k+1)/k * rho^(k-1), rho^2 = 1 - 1/k^2, of level k's reduction."""
    return (k + 1) / k * (1.0 - 1.0 / (k * k)) ** ((k - 1) / 2)


class _Nodes(NamedTuple):
    """Where a stack's sums in y are evaluated (`RadialPowerStack._nodes`):
    the panel ``m`` holding each upper limit and the width ``part`` of its
    partial panel, the first ``whole`` points being the whole panels'
    nodes, and at every point y, v = exp(-y^2) and 1 - v = -expm1(-y^2)."""

    m: np.ndarray
    part: np.ndarray
    whole: int
    y: np.ndarray
    v: np.ndarray
    one_minus_v: np.ndarray


class RadialPowerStack:
    """Chebyshev series for the levels of the iterated-cone reduction of
    integral over S(k) of (1 - sigma^2 |x|^2)^(-p) dx.

    The reduction, with h = 1/k, rho^2 = 1 - h^2 and
    c_k = (k+1)/k * rho^(k-1) (so c_1 = 2):

        I_k(p, sigma) = c_k int_0^1 xi^(k-1) (1 - sigma^2 xi^2 h^2)^(-p) I_{k-1}(p, sigma') dxi,
        sigma'^2 = sigma^2 xi^2 rho^2 / (1 - sigma^2 xi^2 h^2),

    with I_0 = 1.  Level k is held as a Chebyshev series in
    theta = log(1 - sigma^2) on [theta_min, 0], interpolating log I_k at
    the Chebyshev points of the second kind, doubled up to
    ``settings.ncheb`` and chopped at the coefficients' rounding plateau
    (`_chebyshev_series`).  Level 1 starts at N = 16 and reads no series
    (I_0 = 1); each level above starts at the N where the one below
    stopped, so it usually samples in one round.  The ideal n = 5 levels
    stop at N = 128.  ``unresolved`` is the first level with no plateau
    by ``settings.ncheb`` (0 when every level found one); every row read
    from such a stack stalls (`_radial_estimate`).

    The series is built from one cumulative integral.  With
    v = 1 - sigma^2 xi^2 and den(v) = v h^2 + rho^2 = 1 - sigma^2 xi^2 h^2,

        sigma^k I_k(sigma) = c_k / 2 * int_{1 - sigma^2}^1
            (1 - v)^((k-2)/2) den(v)^(-p) I_{k-1}(p, v / den(v)) dv,

    where 1 - sigma'^2 = v / den(v) (for k = 1, den = v).  The integrand
    does not depend on sigma, so in y = sqrt(-log v), where the branch
    point at v = 1 becomes y^(k-2) times an analytic factor, the build
    sums ``settings.depth`` uniform panels of ``settings.order`` Gauss
    points on [0, sqrt(-theta_min)] cumulatively from y = 0, and each
    Chebyshev point theta adds only its own partial panel up to
    y = sqrt(-theta); the first round's partial panels are evaluated
    with the whole ones, in one pass over level k - 1.  At theta = 0 the
    identity is 0/0; there I_k(0) = c_k I_{k-1}(0) / k.  ``n_evals``
    counts the panel nodes plus ``settings.order`` per sampled point, per
    level.

    Every level samples the same theta range, so a round's points depend
    only on N and on whether the round is a level's first (N + 1 points,
    with the whole panels) or a doubling (the N/2 new points, reading the
    level's panel sums).  The build keys each round's geometry by that
    pair, not by its points, and keeps it from the first level that
    samples it: log sigma^2 at each theta < 0, and the `_Nodes`, the
    panel and partial width of each theta with the Gauss nodes y,
    v = exp(-y^2) and 1 - v = -expm1(-y^2).  So a level pays only for
    what depends on k: the density and its pass over level k - 1.  The
    geometry and the panels live only for the build; a built stack is
    only read.

    `top_integral` runs the same sum (`_integral_to`) for the level above
    the stack at each row's sigma and returns sigma^k I_k, an ideal row's
    with the leading term of its tail beyond theta_min.

    Stacks come in lo/hi fidelity pairs, built by `_radial_pair` and read
    by `_radial_estimate`.
    """

    def __init__(self, levels: int, p: float, theta_min: float, settings: _RadialSettings):
        self.p = p
        self.theta_min = theta_min
        self.settings = settings
        self._series: list[np.polynomial.Chebyshev | None] = [None] * (levels + 1)
        # integrand evaluations of the build; fixed here, so a shared stack
        # carries no count from one caller's top integrals into the next
        self.n_evals = 0
        self.unresolved = 0
        at_zero, start = 1.0, 16                                # I_k(p, 0), first N
        rounds = {}                                             # sampling rounds' nodes
        for k in range(1, levels + 1):
            at_zero *= _cone_factor(k) / k
            self._series[k], points = self._build_level(k, at_zero, start, rounds)
            self.n_evals += (settings.depth + points) * settings.order
            if not self.unresolved and self._series[k].coef.size == points:
                self.unresolved = k
            start = points - 1

    def _build_level(self, k, at_zero, start, rounds):
        """Level k's series and the number of points it sampled, from N =
        ``start`` up, by the cumulative integral in y (class docstring),
        given level k - 1.  ``rounds`` holds the sample geometry that every
        level of the stack shares, by round."""
        below = None                                            # integral up to each edge

        def log_level(thetas):
            nonlocal below
            # a round's points depend only on their number and on whether
            # it is the level's first round, whose partial panels ride with
            # the whole panels, in one pass over the level below
            key = (below is None, thetas.size)
            if key not in rounds:
                inside = thetas < 0.0
                rounds[key] = (inside, self._nodes(np.sqrt(-thetas[inside]), below is None),
                               np.log(-np.expm1(thetas[inside])))
            inside, nodes, log_sigma2 = rounds[key]
            value, below, _ = self._integral_to(k, nodes, below)
            out = np.full(thetas.size, math.log(at_zero))
            out[inside] = np.log(value) - k / 2 * log_sigma2
            return out

        return _chebyshev_series(log_level, self.theta_min, 0.0, self.settings.ncheb, start)

    def _nodes(self, y, whole, at=()):
        """The points of the sums in y up to each upper limit y in
        (0, sqrt(-theta_min)]: the whole panels' nodes if ``whole``, then
        each y's partial panel, then the points ``at``."""
        depth = self.settings.depth
        g, _ = _gauss01(self.settings.order)
        width = math.sqrt(-self.theta_min) / depth
        edges = width * np.arange(depth + 1)
        m = np.minimum((y / width).astype(int), depth - 1)      # the panel holding y
        part = y - edges[m]
        panels = edges[:-1, None] + width * g if whole else np.empty((0, g.size))
        points = np.concatenate((panels.ravel(), (edges[m, None] + part[:, None] * g).ravel(), at))
        y2 = points * points
        return _Nodes(m, part, panels.size, points, np.exp(-y2), -np.expm1(-y2))

    def _integral_to(self, k, nodes, below=None):
        """sigma^k I_k at each upper limit of ``nodes`` (`_nodes`), given
        level k - 1, with the integral up to each panel edge and the
        density at the nodes' points ``at``: the whole panels below the
        limit, cumulatively, plus its own partial panel.  Nodes that carry
        the whole panels sum them in the same pass over level k - 1 as the
        partial ones; others read their sums from ``below``."""
        order = self.settings.order
        _, wg = _gauss01(order)
        density = self._density(k, nodes)
        if nodes.whole:
            width = math.sqrt(-self.theta_min) / self.settings.depth
            below = np.concatenate(([0.0], np.cumsum(density[:nodes.whole].reshape(-1, order)
                                                     @ (width * wg))))
        end = nodes.whole + nodes.part.size * order
        partial = density[nodes.whole:end].reshape(-1, order) @ wg * nodes.part
        return below[nodes.m] + partial, below, density[end:]

    def _density(self, k, nodes):
        """The integrand of the v identity (class docstring) times
        |dv/dy| = 2 y v, at the points y = sqrt(-log v) of ``nodes``."""
        v = nodes.v
        h2 = 1.0 / (k * k)
        den = h2 * v + (1.0 - h2)
        return (_cone_factor(k) * nodes.y * v * nodes.one_minus_v ** ((k - 2) / 2)
                * den ** (-self.p) * self.level_value(k - 1, v / den))

    # -- public surface ------------------------------------------------------

    def level_value(self, k: int, one_minus_sigma_sq):
        """I_k(p, sigma) for an array of 1 - sigma^2 values (from the series)."""
        if k == 0:
            return np.ones_like(np.asarray(one_minus_sigma_sq, dtype=float))
        w = np.maximum(np.asarray(one_minus_sigma_sq, dtype=float), 1e-300)
        theta = np.minimum(np.maximum(np.log(w), self.theta_min), 0.0)
        return np.exp(_chebval(self._series[k], theta))

    def top_integral(self, k: int, w_top, sigma2_top) -> tuple[np.ndarray, np.ndarray]:
        """sigma^k I_k at each row of the arrays (w_top, sigma2_top) =
        (1 - sigma^2, sigma^2), by the cumulative integral in y, with the
        number of integrand evaluations each row took: the whole panels,
        in the one pass the rows share, plus its own partial panel.  A
        row's upper limit is y = sqrt(-log(1 - sigma^2)), the log taken of
        w_top below 1/2 and as log1p(-sigma^2) above, where w_top may
        round to 1.  An ideal row (w_top = 0) stops at y_max =
        sqrt(-theta_min) and adds the leading term of the tail beyond,
        density(y_max) / y_max, exact for a density falling as
        y exp(-y^2 / 2) (the ideal triangle's); y_max rides in the shared
        pass and counts as one more evaluation.  Rows at sigma = 0 are 0
        and take no evaluations: the density is 0/0 at y = 0."""
        w, sigma2 = np.atleast_1d(w_top, sigma2_top)
        values = np.zeros(w.size)
        live, ideal = sigma2 > 0.0, w == 0.0
        if live.any():
            with np.errstate(divide="ignore"):                  # log 0 on ideal rows
                theta = np.where(w < 0.5, np.log(w), np.log1p(-sigma2))
            y = np.sqrt(-np.where(ideal, self.theta_min, theta)[live])
            y_max = math.sqrt(-self.theta_min)
            nodes = self._nodes(y, True, [y_max] if ideal.any() else [])
            values[live], _, tail = self._integral_to(k, nodes)
            values[ideal] += tail / y_max
        return values, np.where(live, (self.settings.depth + 1) * self.settings.order, 0) + ideal


def _radial_pair(levels: int, p: float, w_floor: float) -> tuple:
    """The low/high fidelity RadialPowerStack pair with levels 1..levels,
    built on w_floor, so it serves every top integral at 1 - sigma^2 >=
    w_floor: a stack depends on w_floor only through its theta range.

    This is the whole lo/hi recipe.  A finite floor gives
    theta = min(log w_floor, -1e-9), which keeps the interval
    nondegenerate when 1 - scale^2 rounds to 1 (scale ~ 1e-9); the ideal
    floor gives theta = -71 ln 2 - 1.  With
    depth = int(min(72, max(16, max(4, -theta) / ln 2 + 12))), the lo
    stack sums max(12, depth - 6) panels of _BASE_ORDER - 5 points and
    the hi stack depth panels of _BASE_ORDER points, both doubling to
    N = _MAX_DEGREE.  At a finite floor both run from theta_min = theta;
    an ideal stack of d panels runs from theta_min = -(d - 1) ln 2 - 1
    (-46.1 lo, -50.2 hi)."""
    ln2 = math.log(2.0)
    finite = w_floor > 0.0
    theta = min(math.log(w_floor), -1e-9) if finite else -71 * ln2 - 1.0
    depth = int(min(72, max(16, max(4.0, -theta) / ln2 + 12)))
    settings = (_RadialSettings(_MAX_DEGREE, max(12, depth - 6), _BASE_ORDER - 5),   # lo
                _RadialSettings(_MAX_DEGREE, depth, _BASE_ORDER))                   # hi
    return tuple(RadialPowerStack(levels, p, theta if finite else -(s.depth - 1) * ln2 - 1.0, s)
                 for s in settings)


def _radial_estimate(stacks, cfg: QuadratureConfig | None, values_of: Callable,
                     method: str) -> list[VolumeEstimate]:
    """One estimate per row of ``values_of(stack)``, the rows' values and
    evaluations beyond the build on each stack of a `_radial_pair`: the
    high-fidelity value, the gap to the low-fidelity one plus _ABS_TOL, and
    the pair's build plus the row's own work.

    The first row that stalls raises ConvergenceError carrying its
    estimate.  Every row stalls when a level of either stack has no
    plateau by its cap, as in `integrate_nested`; otherwise a row stalls
    when its gap is above max(1e-3 |value|, 1e4 * tolerance), with the
    default QuadratureConfig when ``cfg`` is None."""
    cfg = cfg or QuadratureConfig()
    (lo, lo_evals), (hi, hi_evals) = (values_of(stack) for stack in stacks)
    build = sum(stack.n_evals for stack in stacks)
    unresolved = [f"level {stack.unresolved} has no plateau by N = {stack.settings.ncheb}"
                  for stack in stacks if stack.unresolved]
    out = []
    for lo_v, hi_v, evals in zip(lo, hi, np.add(lo_evals, hi_evals).tolist()):
        err = abs(hi_v - lo_v) + _ABS_TOL
        est = VolumeEstimate(hi_v, err, build + evals, method)
        if unresolved or err > max(1e-3 * abs(hi_v), 1e4 * cfg.tolerance(hi_v)):
            why = unresolved[0] if unresolved else f"err {err:.3e} on value {hi_v:.6e}"
            raise ConvergenceError(f"radial refinement stalled ({why})", estimate=est)
        out.append(est)
    return out


def integrate_simplex_radialpow(n: int, scale: float | Sequence[float], p: float,
                                cfg: QuadratureConfig | None = None, *,
                                one_minus_scale_sq: float | Sequence[float] | None = None,
                                ) -> VolumeEstimate | list[VolumeEstimate]:
    """Integral of (1 - |x|^2)^(-p) over scale * S(n), where S(n) is the
    regular n-simplex inscribed in the unit sphere.

    scale = 1 touches the sphere at the n+1 vertices; the integral then
    exists iff p <= (n+1)/2 (and p < 1 when n = 1), and the top level's
    y integral runs to sqrt(-theta_min) of an ideal stack pair plus the
    leading term of the tail beyond (`RadialPowerStack.top_integral`).

    ``one_minus_scale_sq`` may be supplied when the caller knows
    1 - scale^2 in a cancellation-free form (it dominates the integrand
    near the vertices).

    A float ``scale`` gives one VolumeEstimate, (0, 0, 0) at scale = 0.
    Sequences of scales and of ``one_minus_scale_sq`` are a batch on one
    stack pair, built on their smallest 1 - scale^2, and give a list with
    one estimate per row; an empty batch builds nothing.  Either way the first row that stalls raises ConvergenceError carrying
    its estimate (`_radial_estimate`), so a batch returns only settled rows.
    """
    if n < 1:
        raise DomainError("dimension must be >= 1")
    rows = np.asarray(scale, dtype=float).reshape(-1)
    if not np.all((rows >= 0.0) & (rows <= 1.0)):
        raise DomainError(f"scale must lie in [0, 1], got {scale!r}")
    if np.any(rows == 1.0) and (p > (n + 1) / 2 or (n == 1 and p >= 1.0)):
        raise DomainError(
            f"(1 - |x|^2)^(-p) is not integrable over S({n}) for p = {p}"
        )
    if np.ndim(scale) == 0 and scale == 0.0:
        return VolumeEstimate(0.0, 0.0, 0, "simplex-radial")
    sigma2 = rows * rows
    w_top = np.asarray(one_minus_scale_sq, dtype=float).reshape(-1) \
        if one_minus_scale_sq is not None else (1.0 - rows) * (1.0 + rows)
    if w_top.shape != rows.shape or np.any(w_top < 0.0):
        raise DomainError("one_minus_scale_sq must be one nonnegative value per scale")
    if not rows.size:
        return []

    def values_of(stack):
        top, evals = stack.top_integral(n, w_top, sigma2)
        return top.tolist(), evals

    stacks = _radial_pair(n - 1, p, float(w_top.min()))
    out = _radial_estimate(stacks, cfg, values_of, "simplex-radial")
    return out if np.ndim(scale) else out[0]
