"""Structured numerical integration engines.

Two engines live here:

* `integrate_nested` -- iterated integrals with state-dependent limits
  (each level's upper limit is a function of the previous variable),
  built once as a stack of one-variable Chebyshev antiderivatives, one
  per level, the outermost too; the orthoscheme form runs on it;
* `integrate_simplex_radialpow` -- integrals of (1 - |x|^2)^(-p) over a
  scaled regular simplex, the volume element of the projective model.
  The simplex is collapsed to iterated cone (Duffy-type) coordinates; in
  these coordinates each level I_k is a one-dimensional integral of the
  level one dimension down, which is held as a Chebyshev series of its
  own degree in a variable u that stretches log(1 - sigma^2) near 0
  (`RadialPowerStack`).  With v = 1 - sigma^2 xi^2,
  den(v) = v/k^2 + rho^2, rho^2 = 1 - 1/k^2 and c_k = (k+1)/k rho^(k-1),

      sigma^k I_k(sigma) = (c_k/2) int_{1-sigma^2}^1
          (1 - v)^((k-2)/2) den(v)^(-p) I_{k-1}(v / den(v)) dv

  (c_1 = 2, and den = v at k = 1, I_0 = 1).  Levels 1,
  (2/sigma) int_0^sigma (1 - s^2)^(-p) ds, and 2, the integral over the
  triangle S(2), are elementary for the p in Z/2 that every form uses,
  and are read in closed form (`_level_one`, `_level_two`).  Above them
  the integrand does not depend on sigma, so a level is one cumulative
  integral in y = sqrt(-log v) over Gauss panels between its own sample
  points (`RadialPowerStack`), and the top level is the same integral on
  the N = 32 grid level 3 starts on, read at each row's sigma; the
  vertex-touching case scale = 1 (ideal simplices) runs it to the
  stack's theta_min and adds the leading term of the tail beyond.  The
  projective and half-space forms run on it.

The radial engine holds its levels in a lo/hi pair of stacks whose
gap is the error bar.  A pair depends on scale only through the range
of log(1 - sigma^2) it covers, so `_radial_pair`, the one place a pair
is built, builds it on the widest range a batch of integrals of one
dimension needs, and each stack runs the batch's top levels in one
pass; a standalone integral is a batch of one.  A stack's
evaluation count is fixed when it is built; a row counts the build plus
its own top-level work.

The half-space form's sliced facet integral runs on Gauss panels graded
dyadically toward one end (`_panels_toward_one`).  Every Gauss panel
reads one rule, `_gauss01`: numpy's Gauss-Legendre nodes and weights,
held as constants, so no volume imports numpy.polynomial.
Both engines share one interpolation scheme, `_chebyshev_series`
(second-kind points, coefficients from a cached DCT-I matrix,
`_dct_matrix`), and one evaluator, `_chebval`: a level of either engine
doubles its points until `_standard_chop` finds the plateau, a radial
level from the N where the level below stopped (level 3 from N = 32),
a nested level from N = 64, and every round samples its whole grid.  A
level is its coefficients on [-1, 1], and each engine maps its variable
there by constants its interval fixes.  A nested level on [0, X_k]
reads -1 + (2 / X_k) u, the offset and scale numpy's Chebyshev class
derives for that domain, so its values equal numpy's bit for bit.  A
radial level on theta in [theta_min, 0] reads 1 - 2 u(theta), where
u = log1p(-theta / c) / log1p(-theta_min / c) is exactly 0 at theta = 0
and 1 at theta_min, and c = _STRETCH (`RadialPowerStack`).  Each round
of a level is one pass over the level below, a Clenshaw step per
coefficient, three ufunc calls.  A step costs about 1 us at a few
hundred points and 3.2 us at 2,800 (a shared 2-vCPU Xeon VM, Python
3.11, numpy 2.4: a pass over 100 coefficients took 95-100 us at 300
points and 300-330 us at 2,800), so at the N = 32 where most levels
stop, keeping 7-20 coefficients, a round pays numpy's fixed cost per
call, not its arithmetic.  A radial round at N = 32 (448 Gauss nodes)
over a level of 14 coefficients takes 41-45 us: 13-15 us in the pass,
about 30 us in the rest, of which 5-6 us is the chop.  That rest does
not depend on the level, and each of its calls counts: points and
values are mapped in place, the chop scans the envelope's nonzero
prefix once, the tables a round reads (sin^2 of its points, the chop's
index pairs and tilt, the DCT-I matrix) are cached by size, a radial
stack builds each N's panel grid once for all its levels, and a nested
level's antiderivative is a few vector operations.  Both engines stop
on one rule: a level with no plateau by its cap leaves the result
unresolved, and the engine raises ConvergenceError carrying its
estimate; a radial stack builds no level above it.  The radial engine
also raises a row whose lo/hi gap stalls; `_radial_estimate` is the one
place its verdict is formed.  The only setting is the relative tolerance in
`QuadratureConfig`; the absolute floor, the Gauss order, the degree cap
and the chop tolerance are module constants.
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
_BASE_ORDER = 14       # Gauss points per panel of the hi radial stack and its half-space slices
_MAX_DEGREE = 512      # largest N a level's series may double to
_CHOP_TOL = 4 * _EPS   # plateau of a chopped series; level values carry a few ulps
_LOG_MAX = math.log(np.finfo(np.float64).max)   # 709.78
_STRETCH = 8.0         # c of the radial levels' variable u (RadialPowerStack)


@dataclass(frozen=True)
class QuadratureConfig:
    """The relative tolerance shared by the integration engines.  The
    nested engine raises ConvergenceError when its estimate is above
    rel_tol * |I|.  The radial engine does not target it: its bar is the
    lo/hi gap plus _ABS_TOL (and the half-space form's cancellation
    term), and it raises only when that bar is above
    max(1e-3 |I|, 1e4 * tolerance(I))."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not 10 * _EPS <= self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must lie in [{10 * _EPS:.2e}, 1)")

    def tolerance(self, value: float) -> float:
        return max(_ABS_TOL, self.rel_tol * abs(value))


@dataclass(frozen=True)
class VolumeEstimate:
    """A computed integral: its value, error estimate and evaluation count,
    and nothing else.  The caller knows which form it asked for.

    The error estimate is the gap between the lo/hi stack pair plus
    _ABS_TOL and any rounding term of the row (radial engine), or a
    rounding term at the chop's plateau (nested engine).  Values
    produced by the volume operations are nonnegative.
    """

    value: float
    error_estimate: float
    n_evals: int

    def __post_init__(self):
        if not self.error_estimate >= 0.0:
            raise DomainError("error_estimate must be nonnegative")


# ---------------------------------------------------------------------------
# Gauss nodes

# The nonnegative half of numpy's leggauss(order), nodes then weights, at
# the orders of the radial stack pair's panels (_BASE_ORDER and
# _BASE_ORDER - 5)
_GAUSS_HALF = {
    9: ((0.0, 0.3242534234038089, 0.6133714327005904, 0.8360311073266358, 0.9681602395076261),
        (0.33023935500125984, 0.3123470770400029, 0.2606106964029356, 0.18064816069485737,
         0.08127438836157416)),
    14: ((0.10805494870734367, 0.31911236892788974, 0.5152486363581541, 0.6872929048116855,
          0.827201315069765, 0.9284348836635735, 0.9862838086968124),
         (0.21526385346315793, 0.20519846372129572, 0.18553839747793788, 0.15720316715819363,
          0.12151857068790331, 0.08015808715975999, 0.03511946033175175)),
}


@lru_cache(maxsize=None)
def _gauss01(order: int):
    """Gauss-Legendre nodes/weights mapped to (0, 1), from numpy's
    leggauss(order) bit for bit, so no volume imports numpy.polynomial.
    numpy symmetrises its rule exactly (odd nodes, even weights), so the
    nonnegative half in `_GAUSS_HALF` rebuilds it by mirroring."""
    nodes, weights = map(np.array, _GAUSS_HALF[order])
    x = np.concatenate((-nodes[::-1][:order // 2], nodes))
    w = np.concatenate((weights[::-1][:order // 2], weights))
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
    return arrays.  Every X_k (below) must be finite; a zero one makes the
    integral the zero estimate (0, 0, 0).

    The chain is built once, one level at a time.  With n = len(limits),
    X_0 = limits[0] and X_k = limits[k](X_{k-1}), level k = n-1 .. 0 is
    the antiderivative

        F_k(u) = int_0^u g_k(y) dy,   g_k(y) = factors[k](y) F_{k+1}(limits[k+1](y)),

    on [0, X_k], with F_n = 1, and the integral is F_0(X_0).  A level's
    integrand does not depend on the outer variables, so it is one
    chopped Chebyshev series, integrated exactly (`_chebyshev_series`
    from N = 64: over the orthoscheme's 31 perfbench `forms` points, 32
    took 13% longer, and 128 as long with 74% more evaluations);
    ``n_evals`` counts the points of every round of every level.  The
    error estimate is the chop's plateau, relative once per level and
    absolute on the outer level's samples g_0 of its last round:

        _CHOP_TOL (n |value| + X_0 max |g_0|).

    It does not see cancellation along the chain: each level's relative
    term reads |value|, not the size of the terms that cancel in it.
    With limits [1, x] and factors [1, cos(w y)], a sign-changing chain,
    w = 80 comes back 1.5e-12 off on a bar of 6.6e-14, both relative.

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
    for k, top in enumerate(tops):
        if not math.isfinite(top):
            raise DomainError(f"limits[{k}] gives the range X_{k} = {top!r}; it must be finite")
    if 0.0 in tops:
        return VolumeEstimate(0.0, 0.0, 0)      # an empty range
    inner, values, n_evals, stalled = np.ones_like, None, 0, False
    for k in range(depth - 1, -1, -1):
        def sample(n):
            nonlocal n_evals, values
            n_evals += n + 1
            y = _second_kind(0.0, tops[k], n)
            values = factors[k](y) * inner(y)
            return values

        coef, points = _chebyshev_series(sample, 64)
        stalled |= coef.size == points
        scl = 2 / tops[k]                               # [0, X_k] -> [-1, 1]
        level = _antiderivative(coef, scl)              # F_k
        inner = lambda y, k=k, c=level.tolist(), s=scl: _chebval(c, -1.0 + s * limits[k](y))

    value = float(level.sum())                          # F_0(X_0): every T_j is 1 there
    err = _CHOP_TOL * (depth * abs(value) + tops[0] * float(np.abs(values).max()))
    est = VolumeEstimate(value, err, n_evals)
    if stalled or err > cfg.rel_tol * abs(value):
        why = f"a level has no plateau by N = {_MAX_DEGREE}" if stalled else f"err {err:.3e}"
        raise ConvergenceError(f"nested chain unresolved at depth {depth} ({why})", estimate=est)
    return est


# ---------------------------------------------------------------------------
# Radial powers over the regular simplex

def _read_only(table: np.ndarray) -> np.ndarray:
    """``table``, made read-only: the cached tables are shared."""
    table.flags.writeable = False
    return table


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
    return tuple(_read_only(np.array([np.concatenate(v) for v in (xs, oms, ws)])))


@lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    """The matrix taking values at the points cos(pi j / N), j = 0..N, for
    N = n to the coefficients of the polynomial through them: a DCT-I,
    entry (m, j) = cos(pi m j / N) * 2 / N, halved in columns 0 and N and
    in rows 0 and N; read-only because it is cached.  The cosines come
    from a table of cos(pi r / N), r = 0..N, built from the first octant
    (sines of the complement past pi / 4), so it is exactly odd about
    r = N / 2, and its mirror extends it to the period r = 0..2N - 1,
    where every entry is looked up at m j mod 2N.  N is a power of two,
    as every round's is, so the mod is the mask m j & (2N - 1)."""
    assert n > 0 and n & (n - 1) == 0, f"N = {n} is not a power of two"
    r = np.arange(n + 1)
    q = np.minimum(r, n - r)
    octant = np.where(4 * q <= n, np.cos(np.pi / n * q), np.sin(np.pi / (2 * n) * (n - 2 * q)))
    table = np.where(2 * r <= n, octant, -octant) * (2.0 / n)
    at = np.multiply.outer(r, r)
    at &= 2 * n - 1                             # in place: a temporary would raise peak memory
    mat = np.concatenate((table, table[-2:0:-1]))[at]
    mat[:, [0, n]] /= 2
    mat[[0, n]] /= 2
    return _read_only(mat)


_LOG_CHOP_TOL = math.log(_CHOP_TOL)
_CHOP_FLOOR = _CHOP_TOL ** (7 / 6)     # envelope floor of the tilted cut
_CHOP_TILT = -math.log10(_CHOP_TOL) / 3


# j2 - 1 = floor(1.25 j + 5.5) - 1 for j = 2, 3, ..., 1-based as in the paper
_CHOP_PLAN = _read_only(np.floor(1.25 * np.arange(2, _MAX_DEGREE + 2) + 5.5).astype(int) - 1)
_CHOP_EDGES = np.array([5e-324, _CHOP_FLOOR])   # an envelope entry below the first is 0


@lru_cache(maxsize=None)
def _chop_plan(n: int):
    """The 0-based ends j2 - 1, j2 = floor(1.25 j + 5.5) <= n, of the
    pairs (j - 1, j2 - 1), j = 2, 3, ..., that `_standard_chop` scans on n
    coefficients: j2 grows with j, so they are a view of the leading
    entries of the one read-only plan for _MAX_DEGREE + 1, and pair i
    starts at i + 1."""
    return _CHOP_PLAN[:np.searchsorted(_CHOP_PLAN, n - 1, "right")]


@lru_cache(maxsize=None)
def _chop_tilt(size: int) -> np.ndarray:
    """The upward tilt added to log10 of the first ``size`` >= 2 envelope
    entries: np.linspace(0, _CHOP_TILT, size) by its own arithmetic, a
    ramp times the step with the last entry set to the end, bit for bit;
    read-only because it is cached."""
    tilt = np.arange(size) * (_CHOP_TILT / (size - 1))
    tilt[-1] = _CHOP_TILT
    return _read_only(tilt)


def _standard_chop(coef: np.ndarray) -> int:
    """How many leading coefficients to keep, by the rule of Aurentz and
    Trefethen, "Chopping a Chebyshev series" (ACM TOMS 43(4), 2017;
    Chebfun's standardChop): scan the monotone envelope of |coef| for a
    plateau, then cut where the envelope plus a slight upward tilt is
    least.  Without a plateau every coefficient stays; all zeros keep one.
    The scan tests every j at once and takes the first plateau, which is
    where the paper's loop stops; its index pairs are a view of one module
    table, cached by size (`_chop_plan`), and its tilt a cached ramp
    (`_chop_tilt`).  The envelope is built once, from the end, so it
    ascends, and one search in it counts its zeros and its entries below
    the floor.  A pair whose first entry is 0 is a plateau, and the
    first such pair follows the last nonzero entry, so only the pairs
    before it are tested, with no log of 0."""
    n = coef.size
    if n < 17:
        return n
    env = np.maximum.accumulate(np.abs(coef[::-1]))    # ascending
    if env[-1] == 0.0:
        return 1
    env /= env[-1]
    zeros, low = env.searchsorted(_CHOP_EDGES).tolist()
    env = env[::-1]
    i2 = _chop_plan(n)
    scan = min(i2.size, n - 1 - zeros)                  # pairs whose e1 = env[j - 1] > 0
    e1 = env[1:scan + 1]
    plateau = env[i2[:scan]] / e1 > 3.0 * (1.0 - np.log(e1) / _LOG_CHOP_TOL)
    hits = plateau.nonzero()[0]
    first = int(hits[0]) if hits.size else scan
    if first == i2.size:
        return n
    j2 = min(int(i2[first]) + 1, n - low + 1)
    tilted = np.log10(np.maximum(env[:j2], _CHOP_FLOOR))
    tilted += _chop_tilt(j2)
    return max(int(tilted.argmin()), 1)


def _chebyshev_series(sample, start: int):
    """The coefficients of a Chebyshev series on [-1, 1] from its values at
    the N + 1 points cos(pi j / N), j = 0..N, with the number of points of
    the last round.  ``sample(n)`` returns the values for N = n, the whole
    grid in every round; each engine maps the points to its own variable
    (`_second_kind`) and counts what it samples.  A doubled grid's
    even-indexed points are the old grid's bit for bit, so a nested level
    samples its old values again unchanged; a radial level's come from
    panels between its own points (`RadialPowerStack`).

    N doubles from ``start`` to at most _MAX_DEGREE, read at each call,
    until `_standard_chop` finds the coefficients' plateau; the
    coefficients before it are kept.  A series with no plateau by
    _MAX_DEGREE keeps every coefficient, as many as its points, which is
    how both engines tell an unresolved level.  A caller whose values read
    other series starts near the plateau, since each round costs a pass
    over them: a series first sampled past its plateau is still cut there,
    from finer samples.

    The coefficients are one product with the DCT-I matrix of N
    (`_dct_matrix`), cached per N, whose cosines are looked up in a
    table: summed by recurrence or as cos(k angle), which rounds at large
    arguments, they leave a floor of 1e-15 to 2e-12 of the largest
    coefficient at degrees in the hundreds.  By the matrix the ideal
    p = 3 level 3, doubled to N = 512, flattens out at 2.1e-17 of it
    (median of the last 256 coefficients), far below _CHOP_TOL.  A row
    sums N + 1 terms, so c_0 of a level whose values share one sign
    rounds up to 5.7 eps max|values| off an extended-precision sum at
    N = 512 (ideal p = 3 level 4).  At the N = 32 to 128 where almost
    every level of the perfbench workloads stops (a near-ideal n = 4
    orthoscheme reaches 256), the product takes 1-3 us, and no volume
    imports numpy.fft, 1.4 ms of a fresh process.
    """
    n = min(start, _MAX_DEGREE)
    while True:
        values = sample(n)
        coef = _dct_matrix(n) @ values
        keep = _standard_chop(coef)
        if keep < coef.size or 2 * n > _MAX_DEGREE:
            return coef[:keep], values.size
        n *= 2


@lru_cache(maxsize=None)
def _sin_squared(n: int) -> np.ndarray:
    """sin^2(pi j / 2N), j = 0..N, for N = n; read-only because it is
    cached."""
    return _read_only(np.sin(np.pi / (2 * n) * np.arange(n + 1)) ** 2)


def _second_kind(a: float, b: float, n: int) -> np.ndarray:
    """The points b - (b - a) sin^2(pi j / 2N), j = 0..N, of [a, b] for
    N = n, the second-kind points cos(pi j / N) mapped with b to 1 and a
    to -1, exact at both ends; a > b reverses the map, as the radial
    levels' u does."""
    return b - (b - a) * _sin_squared(n)


_TWICE = 2 * np.arange(_MAX_DEGREE + 2)         # 2j, j = 0..N + 1, at the largest N


def _antiderivative(coef: np.ndarray, scl: float) -> np.ndarray:
    """The coefficients of the antiderivative, zero at u = 0, of the series
    ``coef`` of a level on [0, X] with ``scl`` = 2 / X: numpy's
    ``Chebyshev(coef, domain=(0, X)).integ(lbnd=0).coef``, bitwise, where
    numpy's chebint loops in Python over the coefficients.  With c the
    coefficients times 1/scl, c_0 becomes the one of T_1 and each c_j
    (j >= 1) adds c_j / 2(j+1) to T_(j+1) and takes c_j / 2(j-1) from
    T_(j-1), in numpy's operations; the constant is then minus the
    result's value at u = 0, which maps to -1, by the same Clenshaw steps
    as numpy's chebval.  A zero constant series (numpy keeps one
    coefficient) becomes two zeros."""
    c = coef * (1.0 / scl)
    n = c.size
    out = np.empty(n + 1)
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2:] = c[1:] / _TWICE[2:n + 1]
    out[1:n - 1] -= c[2:] / _TWICE[1:n - 1]
    x = -1.0                                     # u = 0, mapped
    x2, terms = 2 * x, out.tolist()
    c0, c1 = terms[-2], terms[-1]
    for ck in terms[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    out[0] += 0 - (c0 + c1 * x)
    return out


def _chebval(c: list, x: np.ndarray) -> np.ndarray:
    """numpy's chebval(x, c), bitwise, for points x already on [-1, 1]
    and coefficients c as Python floats: the Clenshaw recurrence on three
    reused buffers where numpy allocates three arrays per coefficient.  A
    step is three ufunc calls, whose fixed cost dominates at the few
    hundred to few thousand points of a pass, so the caller converts a
    level's coefficients once and the outputs are passed by position."""
    if len(c) < 3:
        return c[0] + (c[1] if len(c) == 2 else 0) * x
    x2 = 2 * x
    c0, c1, t = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    c0.fill(c[-2])
    c1.fill(c[-1])
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
    """``order`` is the number of Gauss points of every panel of a stack,
    its one setting.  ``ncheb`` is no setting: it reads _MAX_DEGREE, the
    largest N any level may double to, and is kept only as a name
    `perfbench/tracing.py` reads."""

    order: int

    @property
    def ncheb(self) -> int:
        return _MAX_DEGREE


def _cone_factor(k: int) -> float:
    """c_k = (k+1)/k * rho^(k-1), rho^2 = 1 - 1/k^2, of level k's reduction."""
    return (k + 1) / k * (1.0 - 1.0 / (k * k)) ** ((k - 1) / 2)


class _Panels(NamedTuple):
    """Gauss panels of a stack's sums in y (`RadialPowerStack._panels`):
    each panel's ``width``, then at every node y (the panels' nodes, then
    any extra points) v = exp(-y^2) and 1 - v = -expm1(-y^2)."""

    width: np.ndarray
    y: np.ndarray
    v: np.ndarray
    one_minus_v: np.ndarray


def _level_one(p: float, w):
    """I_1(p, sigma) = 2 K_p at w = 1 - sigma^2, for p in Z/2, p >= 1/2,
    where K_p = (1/sigma) int_0^sigma (1 - s^2)^(-p) ds.  Integrating
    d/ds s (1 - s^2)^(-q) from 0 to sigma gives the recurrence

        K_(q+1) = (w^(-q) + (2q - 1) K_q) / (2q),

    run up, every term positive, from K_(1/2) = asin(sigma) / sigma or
    K_1 = atanh(sigma) / sigma.  sigma is floored at 1e-300, where atan2
    and log1p are the identity, so sigma = 0 reads K = 1."""
    sigma = np.maximum(np.sqrt(1.0 - w), 1e-300)
    if p % 1:                                                           # p in 1/2 + Z
        q, k = 0.5, np.arctan2(sigma, np.sqrt(w)) / sigma
    else:
        q, k = 1.0, (np.log1p(sigma) - 0.5 * np.log(w)) / sigma      # atanh, cancellation-free
    while q < p:
        k = (w ** -q + (2 * q - 1) * k) / (2 * q)
        q += 1
    return 2 * k


def _level_two(p: float, w):
    """I_2(p, sigma) at w = 1 - sigma^2, for p in Z/2, p >= 3/2.  The
    divergence theorem on S(2), inradius 1/2 and three edges of length
    sqrt 3, applied to x (1 - sigma^2 |x|^2)^(-q) gives

        2q I_2(q + 1) + (2 - 2q) I_2(q) = (3 sqrt 3 / 4) e^(-q) I_1(q, sigma'),

    with e = (3 + w) / 4 and I_1 = 2 K_q (`_level_one`) at
    w' = 1 - sigma'^2 = 4 w / (3 + w): an edge lies at |x|^2 = 1/4 + s^2.
    The recurrence runs up, every term positive, from

        I_2(2) = (3 sqrt 3 / 8) I_1(1, sigma') / e, where the I_2(1) term drops out, or
        I_2(3/2) = 6 atan(sqrt 3 sigma^2 / ((1 + sqrt w)(3 + sqrt w))) / sigma^2,

    the Gauss-Bonnet area of the triangle sigma S(2) in the Klein model
    over sigma^2, pi at w = 0.  K_q at w' runs up in the same loop
    (K_(3/2) = w'^(-1/2) needs no K_(1/2)), which forms no power beyond
    the last it reads.  sigma'^2 is taken from w, as 3 (1 - w) / (3 + w),
    and log w' as log1p(-sigma'^2) above w' = 1/2, so the digits hold at
    small sigma; sigma^2 and sigma' are floored at 1e-300 as in
    `_level_one`."""
    flux = 1.5 * math.sqrt(3.0)                 # (3 sqrt 3 / 4) I_1 = flux K
    e = (3.0 + w) / 4
    sigma2_edge = 0.75 * (1.0 - w) / e          # sigma'^2 = 3 (1 - w) / (3 + w), bit for bit
    w_edge = w / e                              # w' = 4 w / (3 + w), bit for bit
    if p % 1:                                                           # p in 1/2 + Z
        sigma2 = np.maximum(1.0 - w, 1e-300)
        root = np.sqrt(w)
        q, k = 1.5, 0.0
        level = 6.0 * np.arctan(math.sqrt(3.0) * sigma2 / ((1.0 + root) * (3.0 + root))) / sigma2
    else:
        sigma_edge = np.maximum(np.sqrt(sigma2_edge), 1e-300)
        # log1p's argument is capped where its branch is not taken: it is
        # -1 at the ideal floor, where sigma'^2 rounds to 1
        log_w = np.where(w_edge > 0.5, np.log1p(-np.minimum(sigma2_edge, 0.5)), np.log(w_edge))
        q, k = 2.0, (np.log1p(sigma_edge) - 0.5 * log_w) / sigma_edge   # K_1
        level = flux / 2 * k / e
    while q < p:
        k = (w_edge ** (1.0 - q) + (2 * q - 3) * k) / (2 * q - 2)      # K_q
        level = (flux * e ** -q * k + (2 * q - 2) * level) / (2 * q)
        q += 1
    return level


class RadialPowerStack:
    """The levels of the iterated-cone reduction of the integral over
    S(k) of (1 - sigma^2 |x|^2)^(-p) dx, for p in Z/2: levels 1 and 2 in
    closed form, the levels above as Chebyshev series.

    The reduction, with h = 1/k, rho^2 = 1 - h^2 and
    c_k = (k+1)/k * rho^(k-1) (so c_1 = 2):

        I_k(p, sigma) = c_k int_0^1 xi^(k-1) (1 - sigma^2 xi^2 h^2)^(-p) I_{k-1}(p, sigma') dxi,
        sigma'^2 = sigma^2 xi^2 rho^2 / (1 - sigma^2 xi^2 h^2),

    with I_0 = 1.  A series level is held as a Chebyshev series in u on
    [0, 1], where theta = log(1 - sigma^2) on [theta_min, 0] is

        theta(u) = -c expm1(u L),   L = log1p(-theta_min / c),   c = _STRETCH,

    its coefficients a list of floats interpolating log I_k at the
    Chebyshev points of the second kind in x = 1 - 2u, doubled up to
    _MAX_DEGREE and chopped at the coefficients' rounding plateau
    (`_chebyshev_series`).  log I_k changes near theta = 0 and is almost
    linear far out; u is close to -theta / (c L) for |theta| << c and to
    log(-theta) / L beyond, so it spends the points near 0.  c = 8 is
    measured: the hi stacks of n = 3..12 keep 2,867 coefficients in all at
    the ideal floor and 3,063 at t in {0.05, 0.3, 0.8, 1.2, 1.5}.  c = 4
    kept fewer ideal ones, but a finite n = 4 volume read from a stack
    shared with an ideal row then fell 1.0e-14 off its standalone value.
    `level_value` reads theta at
    x = 1 - 2 (log1p(-theta / c) / L), so theta = 0 reads x = 1 and
    theta_min x = -1 exactly (c is a power of 2, so -theta / c is exact),
    and a sample point maps back to within a few ulps of its
    cos(pi j / N).  Level 1 is 2 K_p (`_level_one`) and level 2 its own
    closed form (`_level_two`), which need p >= 1/2 and p >= 3/2: every
    stack a form builds with those levels has them, and the build asserts
    it.  Each is read at 1 - sigma^2 clipped to theta in [theta_min, 0] as
    every level is, and has no series, no chop and no evaluations.  Level
    3, the first series level, starts at N = 32, the grid the top integral
    reads, and each level above at the N where the one below stopped, so
    it usually samples in one round.  The ideal n = 5 levels stop at
    N = 64.  ``unresolved`` is the first level with no plateau by
    _MAX_DEGREE (0 when every level found one).  The build stops there:
    the levels above it would start at the cap, and from n of about 64
    their running sums underflow.  A pair with such a level reads no row
    (`_radial_estimate`).

    The series is built from one cumulative integral.  With
    v = 1 - sigma^2 xi^2 and den(v) = v h^2 + rho^2 = 1 - sigma^2 xi^2 h^2,

        sigma^k I_k(sigma) = c_k / 2 * int_{1 - sigma^2}^1
            (1 - v)^((k-2)/2) den(v)^(-p) I_{k-1}(p, v / den(v)) dv,

    where 1 - sigma'^2 = v / den(v) (for k = 1, den = v).  The integrand
    does not depend on sigma, so in y = sqrt(-log v), where the branch
    point at v = 1 becomes y^(k-2) times an analytic factor, a round at N
    takes its points' y_j = sqrt(-theta(u_j)), j = 0..N, as panel edges:
    one panel of ``settings.order`` Gauss points on each [y_j, y_(j+1)],
    and the value at y_j is the running sum of the panels below it, one
    pass over level k - 1.  The sum's terms are positive, so each value
    keeps its relative accuracy down to y -> 0.  A doubling round sums
    the whole finer grid afresh, so a level's values depend only on the N
    it ends at.  At theta = 0 the identity is 0/0; there
    I_k(0) = c_k I_{k-1}(0) / k.  ``n_evals`` counts ``settings.order``
    times N per round, per level.

    Every level samples the same theta range, so a round's points depend
    only on N.  The build keys each round's grid (`_grid`) by N, not by
    its points, and keeps it from the first level that samples it: the
    points y_j, from theta(u) clipped to theta_min against the last ulp,
    the `_Panels` between them, with their Gauss nodes y, v = exp(-y^2)
    and 1 - v = -expm1(-y^2), and log sigma^2 at each point but
    theta = 0.  So a level pays only for what depends on k: the density
    and its pass over level k - 1.  The grids live only for the build,
    but for N = 32, the one level 3 starts on and the top integral reads;
    a built stack is only read.

    `top_integral` runs the same sum for level k = levels + 1, the one
    above the stack, at each row's sigma on that N = 32 grid: its 32
    whole panels and a partial panel from the grid point below each row's
    y, and returns sigma^k I_k, an ideal row's with the leading term of
    its tail beyond theta_min.  So every sum of a stack, level or top,
    reads one panel layout, the Gauss panels between a round's own sample
    points.

    Stacks come in lo/hi fidelity pairs, built by `_radial_pair` and read
    by `_radial_estimate`, which builds the pair and judges each row.
    """

    def __init__(self, levels: int, p: float, theta_min: float, settings: _RadialSettings):
        self.p = p
        self.theta_min = theta_min
        self.settings = settings
        # L, by numpy's log1p as `level_value` takes it (math.log1p can
        # differ in the last bit), so theta_min reads u = 1 exactly
        self._span = float(np.log1p(theta_min / -_STRETCH))
        self._series: list[list[float] | None] = [None] * (levels + 1)
        # integrand evaluations of the build; fixed here, so a shared stack
        # carries no count from one caller's top integrals into the next
        self.n_evals = 0
        self.unresolved = 0
        # K_p runs up from K_(1/2) or K_1, and I_2 from I_2(3/2) or I_2(2)
        assert levels < 1 or p >= min(levels, 2) - 0.5, \
            f"p = {p} is below the closed form of level {min(levels, 2)}"
        self._w_min = math.exp(theta_min)                       # the closed levels' floor
        at_zero, start = _cone_factor(2), 32                    # I_2(p, 0), first N
        self._top = self._grid(start)                           # level 3's grid
        grids = {start: self._top}                              # grids, by N
        for k in range(3, levels + 1):
            at_zero *= _cone_factor(k) / k
            coef, points = self._build_level(k, at_zero, start, grids)
            self._series[k] = coef.tolist()
            if coef.size == points:
                self.unresolved = k
                break
            start = points - 1

    def _build_level(self, k, at_zero, start, grids):
        """Level k's coefficients and the number of points of its last
        round, from N = ``start`` up, by the cumulative integral in y
        (class docstring), given level k - 1.  ``grids`` holds the panel
        grid of each N, which every level of the stack shares."""

        def log_level(n):
            # every round sums the panels between its own points afresh
            if n not in grids:
                grids[n] = self._grid(n)
            _, panels, log_sigma2 = grids[n]
            self.n_evals += n * self.settings.order
            out = np.empty(n + 1)
            out[0] = math.log(at_zero)
            rest = np.add.accumulate(self._panel_sums(k, panels)[0], out=out[1:])
            np.subtract(np.log(rest, out=rest), k / 2 * log_sigma2, out=rest)
            return out

        return _chebyshev_series(log_level, start)

    def _grid(self, n):
        """The grid of a round at N = n: its points y_j = sqrt(-theta(u_j)),
        j = 0..N, the `_Panels` between them, and log sigma^2 at each point
        but theta = 0."""
        # x = 1 - 2u: u = 0 (theta = 0) is x = 1, u = 1 (theta_min) is x = -1;
        # _second_kind(1, 0, n) = 0 - (-1) sin^2 is the table, bit for bit
        u = _sin_squared(n)
        theta = np.maximum(-_STRETCH * np.expm1(self._span * u), self.theta_min)
        y = np.sqrt(-theta)
        return y, self._panels(y[:-1], np.diff(y)), np.log(-np.expm1(theta[1:]))

    def _panels(self, lo, width, at=()):
        """The `_Panels` [lo, lo + width] of ``settings.order`` Gauss
        points, one per entry, with the extra points ``at``."""
        g, _ = _gauss01(self.settings.order)
        y = np.concatenate(((lo[:, None] + width[:, None] * g).ravel(), at))
        y2 = y * y
        return _Panels(width, y, np.exp(-y2), -np.expm1(-y2))

    def _panel_sums(self, k, panels):
        """Level k's integral over each of ``panels`` (`_panels`), given
        level k - 1, and its density at their extra points."""
        order = self.settings.order
        _, wg = _gauss01(order)
        density = self._density(k, panels)
        end = panels.width.size * order
        return density[:end].reshape(-1, order) @ wg * panels.width, density[end:]

    def _density(self, k, panels):
        """The integrand of the v identity (class docstring) times
        |dv/dy| = 2 y v, at the points y = sqrt(-log v) of ``panels``.
        v den^(-p) is formed as (v / den) den^(1 - p): at k = 1, where
        den = v, den^(-p) alone overflows once -log v passes 709.8 / p,
        and v / den is the 1 - sigma'^2 that level k - 1 is read at.
        Levels 1 and 2 are closed forms, so k = 1 and 2 serve only the top
        integral of a stack with no levels (the n = 2 half-space form) or
        one (the n = 2 integral, the n = 3 half-space form)."""
        v = panels.v
        h2 = 1.0 / (k * k)
        den = h2 * v + (1.0 - h2)
        ratio = v / den                                         # 1 - sigma'^2
        out = _cone_factor(k) * panels.y * ratio
        out *= panels.one_minus_v ** ((k - 2) / 2)
        out *= den ** (1.0 - self.p)
        out *= self.level_value(k - 1, ratio)
        return out

    # -- public surface ------------------------------------------------------

    def level_value(self, k: int, one_minus_sigma_sq):
        """I_k(p, sigma) at 1 - sigma^2 given as a float, a list or an
        array, in its shape: 1 at k = 0, the closed forms at k = 1
        (`_level_one`) and k = 2 (`_level_two`), the series above;
        theta = log(1 - sigma^2) is clipped to [theta_min, 0]."""
        if k == 0:
            return np.ones_like(np.asarray(one_minus_sigma_sq, dtype=float))
        if k <= 2:
            w = np.minimum(np.maximum(one_minus_sigma_sq, self._w_min), 1.0)
            return (_level_one if k == 1 else _level_two)(self.p, w)
        x = np.array(one_minus_sigma_sq, dtype=float)          # mapped in place
        np.log(np.maximum(x, 1e-300, out=x), out=x)
        np.minimum(np.maximum(x, self.theta_min, out=x), 0.0, out=x)             # theta
        np.log1p(np.divide(x, -_STRETCH, out=x), out=x)
        # 1 - 2u, with u's divide by L and the factor 2 folded, which is exact
        np.subtract(1.0, np.divide(x, self._span / 2, out=x), out=x)
        return np.exp(_chebval(self._series[k], x))

    def top_integral(self, w_top, sigma2_top, terms: bool = False) -> tuple:
        """sigma^k I_k, k = levels + 1, at each row of the arrays
        (w_top, sigma2_top) = (1 - sigma^2, sigma^2), by the cumulative
        integral in y on the stack's N = 32 grid, with the number of
        integrand evaluations each row took: the grid's 32 whole panels,
        in the one pass the rows share, plus its own partial panel, from
        the grid point at or below its upper limit (`searchsorted`) to the
        limit.  A row's upper
        limit is y = sqrt(-log(1 - sigma^2)), the log taken of w_top below
        1/2 and as log1p(-sigma^2) above, where w_top may round to 1.  An
        ideal row (w_top = 0) stops at y_max = sqrt(-theta_min) and adds
        the leading term of the tail beyond, density(y_max) / y_max, exact
        for a density falling as y exp(-y^2 / 2) (the ideal triangle's);
        y_max rides in the shared pass and counts as one more evaluation.
        Rows at sigma = 0 are 0 and take no evaluations: at k = 1 the
        density is 0/0 at y = 0.  The density reads level k - 1 by
        `level_value`: 1 when k = 1, a closed form up to level 2, a series
        above.

        With ``terms``, a batch of one row returns in place of its value
        the list of positive terms the value sums: the whole panels below
        its grid point, its partial panel and an ideal row's tail (none at
        sigma = 0), so a caller can sum them exactly with its own (the
        half-space form's T1 - T2, `math.fsum`)."""
        w, sigma2 = np.atleast_1d(w_top, sigma2_top)
        values, row_terms = np.zeros(w.size), []
        live, ideal = sigma2 > 0.0, w == 0.0
        edges, whole, _ = self._top
        n, k = whole.width.size, len(self._series)             # k = levels + 1
        if live.any():
            with np.errstate(divide="ignore"):                  # log 0 on ideal rows
                theta = np.where(w < 0.5, np.log(w), np.log1p(-sigma2))
            y = np.sqrt(-np.where(ideal, self.theta_min, theta)[live])
            y_max = math.sqrt(-self.theta_min)
            m = np.searchsorted(edges, y, "right") - 1          # the grid point at or below y
            part = self._panels(edges[m], y - edges[m], [y_max] if ideal.any() else [])
            sums, tail = self._panel_sums(k, _Panels(*map(np.concatenate, zip(whole, part))))
            tail /= y_max
            if terms:
                row_terms = [*sums[:m[0]].tolist(), *sums[n:].tolist(), *tail.tolist()]
            values[live] = np.concatenate(([0.0], np.cumsum(sums[:n])))[m] + sums[n:]
            values[ideal] += tail
        evals = np.where(live, (n + 1) * self.settings.order, 0) + ideal
        return (row_terms if terms else values), evals


def _radial_pair(levels: int, p: float, w_floor: float) -> tuple:
    """The low/high fidelity RadialPowerStack pair with levels 1..levels,
    built on w_floor, so it serves every top integral at 1 - sigma^2 >=
    w_floor: a stack depends on w_floor only through its theta range.

    This is the whole lo/hi recipe: the lo stack's panels have
    _BASE_ORDER - 5 = 9 Gauss points, the hi stack's _BASE_ORDER = 14.
    Both double their levels to N = _MAX_DEGREE, one panel between each
    pair of sample points, and read their top integral on the N = 32
    grid.  A finite floor gives both theta_min = min(log w_floor, -1e-9),
    which keeps the interval nondegenerate when 1 - scale^2 rounds to 1
    (scale ~ 1e-9).  The ideal floor gives the lo stack
    theta_min = -65 ln 2 - 1 (-46.05) and the hi stack -71 ln 2 - 1
    (-50.21).  Each stack reads its levels in the u its own theta_min
    fixes (`RadialPowerStack`).

    A finite floor with (p - 1)(-theta) above log(float64 max) - 10 =
    699.8 raises DomainError: level 1, 2 K_p, sums at most p + 1
    positive terms, the largest w^(1 - p) (`_level_one`), so it would
    overflow.  The guard covers level 2's closed form (`_level_two`) too:
    it reads K_q at w' = 4 w / (3 + w) >= w times e^(-q), and
    e^(-q) w'^(1 - q) = 4 w^(1 - q) / (3 + w).  Short of that, level 3's
    panels lie between its own sample points, which u spreads over the
    whole range: at p = 2.5 the floor 1e-200 settles on the ideal value.

    A lo stack with an unresolved level (`RadialPowerStack`) is returned
    alone: no row can settle on it, so the hi stack is not built."""
    ln2 = math.log(2.0)
    finite = w_floor > 0.0
    theta = min(math.log(w_floor), -1e-9) if finite else -71 * ln2 - 1.0
    if (p - 1.0) * -theta > _LOG_MAX - 10.0:
        raise DomainError(f"1 - scale^2 = {w_floor:.3e} is too small for p = {p:g}: level 1's "
                          "leading term (1 - scale^2)^(1 - p) overflows float64")
    lo = RadialPowerStack(levels, p, theta if finite else -65 * ln2 - 1.0,
                          _RadialSettings(_BASE_ORDER - 5))
    if lo.unresolved:
        return (lo,)
    return lo, RadialPowerStack(levels, p, theta, _RadialSettings(_BASE_ORDER))


def _radial_estimate(levels: int, p: float, w_floor: float, cfg: QuadratureConfig | None,
                     values_of: Callable) -> list[VolumeEstimate]:
    """One estimate per row of ``values_of(stack)``, the rows' values,
    evaluations beyond the build and rounding terms on each stack of the
    `_radial_pair` (levels, p, w_floor).  A row's estimate is the
    high-fidelity value; its bar, the gap to the low-fidelity one plus
    _ABS_TOL plus the high-fidelity row's rounding term (the half-space
    form's cancellation; 0 for a plain integral); and its count, the
    pair's build plus the row's own work.  The projective and half-space
    forms return these estimates as they are.

    The first row that stalls raises ConvergenceError carrying its
    estimate and its index as ``row``.  When a level of either stack has
    no plateau by its cap, as in `integrate_nested`, the stack stops
    there, and row 0 raises before any row is read, with the estimate
    (nan, inf, the evaluations of the build).  Otherwise a row stalls when
    its bar is above max(1e-3 |value|, 1e4 * tolerance), with the default
    QuadratureConfig when ``cfg`` is None; a nan bar reads inf."""
    cfg = cfg or QuadratureConfig()
    stacks = _radial_pair(levels, p, w_floor)
    build = sum(stack.n_evals for stack in stacks)
    if stacks[-1].unresolved:                       # a pair stops at its first such stack
        why = f"level {stacks[-1].unresolved} has no plateau by N = {_MAX_DEGREE}"
        raise ConvergenceError(f"radial refinement stalled ({why})",
                               estimate=VolumeEstimate(math.nan, math.inf, build), row=0)
    (lo, lo_evals, _), (hi, hi_evals, rounding) = (values_of(stack) for stack in stacks)
    out = []
    rows = zip(lo, hi, np.add(lo_evals, hi_evals).tolist(), rounding)
    for row, (lo_v, hi_v, evals, term) in enumerate(rows):
        err = abs(hi_v - lo_v) + _ABS_TOL + term
        if math.isnan(err):
            err = math.inf
        est = VolumeEstimate(hi_v, err, build + evals)
        if not err <= max(1e-3 * abs(hi_v), 1e4 * cfg.tolerance(hi_v)):
            why = f"err {err:.3e} on value {hi_v:.6e}"
            raise ConvergenceError(f"radial refinement stalled ({why})", estimate=est, row=row)
        out.append(est)
    return out


def integrate_simplex_radialpow(n: int, scale: float | Sequence[float],
                                cfg: QuadratureConfig | None = None, *,
                                one_minus_scale_sq: float | Sequence[float] | None = None,
                                ) -> VolumeEstimate | list[VolumeEstimate]:
    """Integral of (1 - |x|^2)^(-p), p = (n + 1)/2, over scale * S(n),
    where S(n) is the regular n-simplex inscribed in the unit sphere: the
    projective model's volume element, which is all its callers
    integrate.  n must be an integer >= 2 (not a bool), as in
    `SimplexParams`; anything else raises DomainError.

    scale = 1 touches the sphere at the n+1 vertices, where the integral
    exists at this p; the top level's y integral then runs to
    sqrt(-theta_min) of an ideal stack pair plus the leading term of the
    tail beyond (`RadialPowerStack.top_integral`).

    ``one_minus_scale_sq`` may be supplied when the caller knows
    1 - scale^2 in a cancellation-free form (it dominates the integrand
    near the vertices); each value must lie in [0, 1].  A non-finite
    scale or one_minus_scale_sq raises DomainError.

    A float ``scale`` gives one VolumeEstimate, (0, 0, 0) at scale = 0.
    Sequences of scales and of ``one_minus_scale_sq`` are a batch on one
    stack pair, built on their smallest 1 - scale^2, and give a list with
    one estimate per row; an empty batch builds nothing.  Either way the
    first row that stalls raises ConvergenceError carrying its estimate
    (`_radial_estimate`), so a batch returns only settled rows.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"dimension must be an integer, got {n!r}")
    if n < 2:
        raise DomainError("dimension must be >= 2")
    rows = np.asarray(scale, dtype=float).reshape(-1)
    if not np.all((rows >= 0.0) & (rows <= 1.0)):
        raise DomainError(f"scale must lie in [0, 1], got {scale!r}")
    w_top = np.asarray(one_minus_scale_sq, dtype=float).reshape(-1) \
        if one_minus_scale_sq is not None else (1.0 - rows) * (1.0 + rows)
    # nan fails both tests; a floor above 1 would build the pair on
    # theta = -1e-9 and clip every row's theta to it
    if w_top.shape != rows.shape or not np.all((w_top >= 0.0) & (w_top <= 1.0)):
        raise DomainError("one_minus_scale_sq must be one value in [0, 1] per scale")
    if np.ndim(scale) == 0 and scale == 0.0:
        return VolumeEstimate(0.0, 0.0, 0)
    sigma2 = rows * rows
    if not rows.size:
        return []

    def values_of(stack):
        top, evals = stack.top_integral(w_top, sigma2)
        return top.tolist(), evals, [0.0] * top.size

    out = _radial_estimate(n - 1, (n + 1) / 2, float(w_top.min()), cfg, values_of)
    return out if np.ndim(scale) else out[0]
