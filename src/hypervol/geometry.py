"""Closed-form metric data of the regular hyperbolic n-simplex family.

The family is parametrized by a dimension ``n >= 2`` and an angle
``t in [0, pi/2]``; the simplex has hyperbolic circumradius
``atanh(sin t)``, which is finite exactly when ``t < pi/2`` (the limit
``t = pi/2`` is the ideal simplex, with all vertices on the sphere at
infinity).

Three coordinate pictures are provided:

* projective (Cayley-Klein) unit-ball coordinates, where the simplex is
  ``sin t`` times the regular simplex inscribed in the unit sphere
  (`unit_simplex_vertices`) and geodesics are straight chords;
* the chain of circumradii ``r_k`` and orthoscheme edges ``d_k`` of the
  barycentric subdivision (`ladder`);
* upper half-space coordinates normalized so the projection of the
  bottom-facet center onto the boundary hyperplane has height 1
  (`halfspace_embedding`).

Ideal values are returned as explicit ``inf`` (their tanh-space
counterparts stay in ``[0, 1]``), so downstream consumers never see NaN.

A note on one easily mis-stated constant: the hyperbolic distance from
the simplex center to a facet center is ``atanh(sin t / n)``, which
equals ``(1/2) ln((n + sin t)/(n - sin t))``; it is *not* ``atanh(sin t)``
(that is the center-to-vertex distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError, DomainError

__all__ = [
    "SimplexParams",
    "OrthoschemeLadder",
    "HalfspaceEmbedding",
    "unit_simplex_vertices",
    "ladder",
    "halfspace_embedding",
]

_HALF_PI = math.pi / 2
# inputs this far above pi/2 are treated as exactly ideal (covers values
# like 1.5707963268 produced by truncating pi/2 in decimal)
_IDEAL_SLACK = 1e-9
# half-space formulas divide by 1 - sin t; closer to ideal than this the
# embedding is numerically meaningless in double precision
_HALFSPACE_GAP = 1e-6


@dataclass(frozen=True)
class SimplexParams:
    """The pair (n, t) selecting one regular hyperbolic n-simplex.

    n is the dimension (the simplex has n+1 facets); t is an angle in
    radians with sin t the Euclidean circumradius of the projective-model
    picture. t = pi/2 selects the ideal simplex.
    """

    n: int
    t: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise DomainError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        t = float(self.t)
        if not math.isfinite(t) or t < 0.0:
            raise DomainError(f"t must satisfy 0 <= t <= pi/2, got {t!r}")
        if t > _HALF_PI:
            if t - _HALF_PI > _IDEAL_SLACK:
                raise DomainError(f"t must satisfy 0 <= t <= pi/2, got {t!r}")
            t = _HALF_PI
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", int(self.n))

    @classmethod
    def from_sin_t(cls, n: int, sin_t: float) -> "SimplexParams":
        if not 0.0 <= sin_t <= 1.0:
            raise DomainError(f"sin t must lie in [0, 1], got {sin_t!r}")
        return cls(n, math.asin(sin_t))

    @cached_property
    def sin_t(self) -> float:
        return 1.0 if self.is_ideal else math.sin(self.t)

    @cached_property
    def cos_t(self) -> float:
        return 0.0 if self.is_ideal else math.cos(self.t)

    @cached_property
    def is_ideal(self) -> bool:
        # pi/2 only: sin t is 1.0 from pi/2 - 1e-8 on, but cos t is not
        return self.t == _HALF_PI

    @cached_property
    def one_minus_sin_t(self) -> float:
        """1 - sin t as cos^2 t / (1 + sin t), within a few ulps of it at the
        float t up to the ideal point; 2 sin^2(pi/4 - t/2) would carry the
        rounding of pi/4, 1.2e-4 relative at pi/2 - t = 1e-12."""
        return self.cos_t ** 2 / self.one_plus_sin_t

    @cached_property
    def one_plus_sin_t(self) -> float:
        """1 + sin t, within about one rounding of it: the sum does not cancel."""
        return 1.0 + self.sin_t


def _ratio_m(n: int, k: int) -> float:
    # interpolation weight appearing in the k-th rung of both ladders
    return k / (n * (n - k + 1))


@dataclass(frozen=True)
class OrthoschemeLadder:
    """Circumradii r_1..r_n and edge lengths d_1..d_n of the orthoscheme chain.

    Entry k (1-based) refers to the k-dimensional face of the barycentric
    chain; r_n is the simplex circumradius and d_n the center-to-facet
    distance.  All arrays are kept both as hyperbolic lengths (possibly
    inf at the ideal point) and in tanh-space, where every entry lies in
    [0, 1] and the chain identity

        cosh r_{k+1} = cosh d_{k+1} * cosh r_k

    is exactly testable.  ``cosh_r``/``cosh_d``/``sinh_d`` are evaluated
    from cancellation-free closed forms, not from the tanh values.
    """

    params: SimplexParams
    r: np.ndarray
    d: np.ndarray
    tanh_r: np.ndarray
    tanh_d: np.ndarray
    cosh_r: np.ndarray
    cosh_d: np.ndarray
    sinh_d: np.ndarray

    def chain_residuals(self) -> np.ndarray:
        """Relative residuals of cosh r_{k+1} - cosh d_{k+1} cosh r_k, k=1..n-1.

        Entries where r_{k+1} is ideal (infinite cosh) are reported through
        the reciprocal identity and stay finite.
        """
        n = self.params.n
        res = np.empty(n - 1)
        for k in range(n - 1):
            lhs, rhs = self.cosh_r[k + 1], self.cosh_d[k + 1] * self.cosh_r[k]
            if math.isinf(lhs) or math.isinf(rhs):
                res[k] = 0.0 if lhs == rhs else math.inf
            else:
                res[k] = abs(lhs - rhs) / lhs
        return res


def unit_simplex_vertices(k: int) -> np.ndarray:
    """Vertices of the regular k-simplex inscribed in the unit sphere of R^k.

    Returns a (k+1, k) array.  The last vertex sits on the positive last
    axis and the remaining k vertices lie in the hyperplane x_k = -1/k;
    the construction recurses on the first k-1 coordinates, so it is
    deterministic and reproducible bit-for-bit.

    k = 0 returns the single vertex of a point "simplex" (shape (1, 0)).
    """
    if k < 0:
        raise DomainError("dimension must be >= 0")
    if k == 0:
        return np.zeros((1, 0))
    V = np.array([[1.0], [-1.0]])
    for m in range(2, k + 1):
        shrink = math.sqrt(1.0 - 1.0 / m**2)
        Vm = np.zeros((m + 1, m))
        Vm[:m, : m - 1] = shrink * V
        Vm[:m, m - 1] = -1.0 / m
        Vm[m, m - 1] = 1.0
        V = Vm
    return V


def ladder(params: SimplexParams) -> OrthoschemeLadder:
    """Build the full orthoscheme ladder for tau[n, t].

    The closed forms, with s = sin t and m_k = k / (n (n - k + 1)):

        tanh r_{n-k} = s sqrt(1 - m_k) / sqrt(1 - s^2 m_k)            k = 0..n-1
        tanh d_{n-k} = s sqrt(1 - m_k) / ((n-k) sqrt(1 - s^2 m_k))    k = 0..n-1

    (m_0 = 0, so r_n = atanh(s) and d_n = atanh(s/n)).  Each length is
    taken from its exact hyperbolic sine, r = asinh(tanh r cosh r) and
    d = asinh(sinh d), with cosh r_{n-k} = sqrt(1 - s^2 m_k) / cos t, so it
    keeps its relative precision up to the ideal point, where the tanh
    values round toward 1.  cosh d_1 = cosh r_1, so d_1 = r_1 holds
    bitwise; at t = pi/2 every r_k and d_1 are inf.
    """
    n, s = params.n, params.sin_t
    cos_t = params.cos_t
    tanh_r = np.empty(n)
    tanh_d = np.empty(n)
    cosh_r = np.empty(n)
    cosh_d = np.empty(n)
    tanh_r[n - 1] = s
    tanh_d[n - 1] = s / n
    cosh_r[n - 1] = math.inf if params.is_ideal else 1.0 / cos_t
    cosh_d[n - 1] = n / math.sqrt(n * n - s * s)
    for k in range(1, n):
        m = _ratio_m(n, k)
        root = math.sqrt(1.0 - s * s * m)
        j = n - k
        tanh_r[j - 1] = s * math.sqrt(1.0 - m) / root
        tanh_d[j - 1] = tanh_r[j - 1] / j
        cosh_r[j - 1] = math.inf if params.is_ideal else root / cos_t
        if j == 1:
            # d_1 = r_1; the general form would reach cos^2 t by cancellation
            cosh_d[0] = cosh_r[0]
        else:
            den = j * j * (1.0 - s * s * m) - s * s * (1.0 - m)   # >= (j^2-1)(1-m)
            cosh_d[j - 1] = j * root / math.sqrt(den)
    sinh_d = tanh_d * cosh_d
    r = np.arcsinh(tanh_r * cosh_r)
    d = np.arcsinh(sinh_d)
    return OrthoschemeLadder(
        params=params, r=r, d=d, tanh_r=tanh_r, tanh_d=tanh_d,
        cosh_r=cosh_r, cosh_d=cosh_d, sinh_d=sinh_d,
    )


@dataclass(frozen=True)
class HalfspaceEmbedding:
    """Upper half-space picture of tau[n, t], normalized so the projection
    of the bottom-facet center onto the boundary hyperplane has height 1.

    The n "lower" vertices sit on the unit sphere about the origin at
    height cos(alpha); the top vertex, ``vertices[n]``, sits on the vertical
    axis at height sqrt(A).  Facet i (i = 1..n) lies on the sphere of radius
    ``gamma`` centered at ``centers[i-1]`` in the boundary hyperplane; the
    bottom facet lies on the unit sphere (center ``centers[n]`` = origin,
    radius 1).

    ``height_sq_scale`` (A) and ``height_sq_slope`` (B) are the constants
    of the vertical-extent bound: above a boundary point v inside the
    sub-simplex dissection with barycentric sum a, the simplex occupies
    sqrt(1 - |v|^2) <= z <= sqrt(A - B a - |v|^2).  A - B = 1 exactly.
    """

    params: SimplexParams
    sin_alpha: float
    cos_alpha: float
    vertices: np.ndarray      # (n+1, n); last row is the top vertex
    v: np.ndarray             # (n, n-1) horizontal parts of the lower vertices
    centers: np.ndarray       # (n+1, n-1); last row is the origin
    gamma: float
    gram: np.ndarray          # (n-1, n-1) Gram matrix of any n-1 of the v_k
    height_sq_scale: float    # A
    height_sq_slope: float    # B

    @property
    def n(self) -> int:
        return self.params.n


def halfspace_embedding(params: SimplexParams) -> HalfspaceEmbedding:
    """Construct the half-space embedding of tau[n, t].

    Requires 0 < t < pi/2 strictly (the construction divides by sin t and
    1 - sin t); inputs within 1e-6 of pi/2 are rejected as degenerate.
    """
    n, t = params.n, params.t
    if t <= 0.0:
        raise DegenerateGeometryError("half-space embedding is undefined at t = 0")
    if params.is_ideal or _HALF_PI - t < _HALFSPACE_GAP:
        raise DegenerateGeometryError(
            "half-space embedding is undefined at ideal t "
            f"(need pi/2 - t >= {_HALFSPACE_GAP:g})"
        )
    s = params.sin_t
    om = params.one_minus_sin_t           # 1 - s, stable
    op = params.one_plus_sin_t            # 1 + s
    nn = n * n - s * s
    sin_alpha = s * math.sqrt(n * n - 1.0) / math.sqrt(nn)
    cos_alpha = n * params.cos_t / math.sqrt(nn)
    v = sin_alpha * unit_simplex_vertices(n - 1)          # (n, n-1)
    A = (n + s) * op / ((n - s) * om)
    B = 2.0 * (n + 1) * s / ((n - s) * om)
    vertices = np.zeros((n + 1, n))
    vertices[:n, : n - 1] = v
    vertices[:n, n - 1] = cos_alpha
    vertices[n, n - 1] = math.sqrt(A)
    y = ((n + s) / (s * om)) * v
    centers = np.zeros((n + 1, n - 1))
    centers[:n] = y
    gamma = (n + s) / om
    off = -1.0 / (n - 1)
    gram = sin_alpha**2 * ((1.0 - off) * np.eye(n - 1) + off * np.ones((n - 1, n - 1)))
    return HalfspaceEmbedding(
        params=params, sin_alpha=sin_alpha, cos_alpha=cos_alpha,
        vertices=vertices, v=v, centers=centers, gamma=gamma,
        gram=gram, height_sq_scale=A, height_sq_slope=B,
    )
