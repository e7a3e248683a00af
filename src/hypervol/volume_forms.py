"""The three model-specific volume computations of the regular hyperbolic
simplex, plus the generalized half-space formula.

Every volume is computed three independent ways so the routes can audit
each other:

* `volume_projective` integrates the projective-model volume element
  (1 - r^2)^(-(n+1)/2) over the Euclidean simplex picture;
* `volume_orthoscheme` integrates the orthogonal-coordinate volume form
  over the fundamental orthoscheme, whose limits it reads straight off
  the edge ladder, and multiplies by the (n+1)! congruent copies tiling
  the simplex; the chain is the level stack of
  `quadrature.integrate_nested`, one chopped Chebyshev series per level,
  each a running sum of Gauss panels, built once;
* `volume_halfspace` integrates the half-space volume element z^(-n)
  vertically between the unit hemisphere below and the facet spheres
  above, reducing to two integrals over the projected bottom facet.

`volume_halfspace_general` extends the half-space form to quasi-regular
simplices (regular facet, apex above the facet center) parametrized by
the circumcenter-to-apex and circumcenter-to-facet distances.

The half-space integrands are evaluated per sub-simplex of the projected
facet's barycentric dissection; on each sub-simplex the slice of constant
barycentric sum is a centered regular simplex one dimension down, so both
facet integrals reduce to the radial-power machinery of `quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, DomainError
from .geometry import (
    HalfspaceEmbedding,
    SimplexParams,
    halfspace_embedding,
    ladder,
)
from .quadrature import (
    _EPS,
    _LOG_MAX,
    QuadratureConfig,
    VolumeEstimate,
    _panels_toward_one,
    _radial_estimate,
    integrate_nested,
    integrate_simplex_radialpow,
)

__all__ = [
    "QuasiRegularParams",
    "cosh_power_antiderivative",
    "volume_orthoscheme",
    "volume_projective",
    "zn_bounds",
    "volume_halfspace",
    "volume_halfspace_general",
    "richardson_limit",
]

_IDEAL_CUT = 40.0     # d_1 of the ideal orthoscheme (`volume_orthoscheme`)


def cosh_power_antiderivative(m: int, x):
    """F_m(x), the antiderivative of cosh^m with F_m(0) = 0.

    Closed form from the power-reduction of cosh^m: even powers carry a
    linear term plus a sinh sum, odd powers a pure sinh sum.

        m = 2k:   4^(-k) C(2k, k) x
                  + 2^(1-2k) sum_{l<k} C(2k, l) sinh(2(k-l) x) / (2(k-l))
        m = 2k+1: 4^(-k) sum_{l<=k} C(2k+1, l) sinh((2(k-l)+1) x) / (2(k-l)+1)
    """
    if m < 0 or not isinstance(m, (int, np.integer)):
        raise DomainError("power m must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    if m % 2 == 0:
        k = m // 2
        out = math.comb(2 * k, k) / 4.0**k * x
        for l in range(k):
            j = 2 * (k - l)
            out = out + math.comb(2 * k, l) / 2.0 ** (2 * k - 1) * np.sinh(j * x) / j
    else:
        k = (m - 1) // 2
        out = np.zeros_like(x)
        for l in range(k + 1):
            j = 2 * (k - l) + 1
            out = out + math.comb(2 * k + 1, l) / 4.0**k * np.sinh(j * x) / j
    return out if out.ndim else float(out)


def volume_orthoscheme(params: SimplexParams, cfg: QuadratureConfig | None = None) -> VolumeEstimate:
    """Volume via the orthoscheme dissection: (n+1)! times the iterated
    orthogonal-coordinate integral over the fundamental orthoscheme.

    The chain has n levels.  Level k = 0..n-1 carries the weight cosh^k
    in its native variable, the outer one x on [0, d_1]; for k >= 1 its
    upper limit is

        alpha_k(x) = atanh(c_k sinh x),   c_k = tanh d_{k+1} / sinh d_k,

    in the previous level's variable x, and `integrate_nested` takes
    d_1 and the slopes c_k.  As t -> pi/2 the outer integrand grows like
    e^((n-1)(x - d_1)), a layer below d_1 that the outer level's chopped
    series resolves as it does any other level.  Only the ideal point's
    d_1 = inf is cut, at _IDEAL_CUT = 40: every float t < pi/2 has
    d_1 <= 36.4, and the cut drops about e^-40, 4e-18, of the value.
    c_1 divides by sinh of d_1 as the chain reads it, rounded or cut, so
    that c_1 sinh d_1 is tanh d_2 to rounding; with the ladder's sinh d_1,
    the rounding of d_1 near 36 (3.5e-15) would enter the volume n - 1
    times over.

    The (n+1)! copies are the chain's weight, so the tolerance applies to
    the returned volume.
    """
    if params.t <= 0.0:
        return VolumeEstimate(0.0, 0.0, 0)
    lad = ladder(params)
    outer = min(float(lad.d[0]), _IDEAL_CUT)
    sinh_d = np.concatenate(([np.sinh(outer)], lad.sinh_d[1:-1]))
    slopes = (lad.tanh_d[1:] / sinh_d).tolist()
    return integrate_nested(outer, slopes, float(math.factorial(params.n + 1)), cfg)


def _projective_job(params: SimplexParams):
    """(dim, scale, 1 - scale^2) of the projective volume integral.
    1 - sin^2 t is cos^2 t, exactly 0 at the ideal point."""
    return params.n, params.sin_t, params.cos_t ** 2


def _facet_job(params: SimplexParams):
    """(dim, scale, 1 - scale^2) of the projective facet integral; n >= 3."""
    n, s = params.n, params.sin_t
    scale = s * math.sqrt(n * n - 1.0) / math.sqrt(n * n - s * s)   # tanh r_{n-1}
    w = n * n * params.cos_t ** 2 / (n * n - s * s)
    return n - 1, scale, w


def volume_projective(params: SimplexParams, cfg: QuadratureConfig | None = None) -> VolumeEstimate:
    """Volume via the projective model: the radial-power integral

        sin^n t * integral over S(n) of (1 - sin^2 t r^2)^(-(n+1)/2).

    The ideal case (sin t = 1) is the vertex-touching scale-1 integral,
    handled by the corner machinery of the radial engine; at t = 0 the
    engine returns the zero volume of scale 0.
    """
    dim, scale, w = _projective_job(params)
    return integrate_simplex_radialpow(dim, scale, cfg, one_minus_scale_sq=w)


# ---------------------------------------------------------------------------
# Half-space form

def zn_bounds(emb: HalfspaceEmbedding, v):
    """Vertical extent of the half-space simplex above boundary points v.

    v is one point of shape (n - 1,) or a stack of shape (..., n - 1).
    Returns (lo, hi) with lo^2 = 1 - |v|^2 (the unit hemisphere carrying
    the bottom facet) and hi^2 = lo^2 + B (1 - a), where a is the
    barycentric sum of v in its dissection piece and B the embedding's
    height slope: two floats for one point, two arrays of v's leading
    shape for a stack.  The interval collapses exactly at the facet
    vertices.

    a is the projected facet's gauge about its center.  The piece of v
    omits the vertex v_i with the least <v, v_i>, and on the piece
    <v, v_i> = -a sigma^2 / (n - 1), sigma = sin alpha, so

        a = (1 - n) min_i <v / sigma, v_i / sigma>,

    which is 1 - n times v's least barycentric weight in the facet.  Both
    vectors are divided by sigma first, so a keeps its digits where sigma^2
    underflows (t = 1e-300).  Raises DomainError if any point lies outside
    the facet, a > 1 + 1e-10.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (emb.n - 1,):
        raise DomainError(f"v must have shape (..., {emb.n - 1})")
    a = (1 - emb.n) * np.min((v / emb.sin_alpha) @ (emb.v / emb.sin_alpha).T, axis=-1)
    if np.any(a > 1.0 + 1e-10):
        raise DomainError("point lies outside the projected facet")
    lo_sq = np.maximum(1.0 - (v * v).sum(axis=-1), 0.0)
    lo, hi = np.sqrt(lo_sq), np.sqrt(lo_sq + emb.height_sq_slope * np.maximum(1.0 - a, 0.0))
    return (lo, hi) if v.ndim > 1 else (float(lo), float(hi))


def _halfspace_value(n: int, sigma: float, w_perp: float, slope: float,
                     cfg: QuadratureConfig | None) -> VolumeEstimate:
    """Shared core of the regular and quasi-regular half-space volumes.

    sigma   circumradius of the projected facet (tanh of the hyperbolic one)
    w_perp  1 - sigma^2 in cancellation-free form
    slope   B, the coefficient of (1 - a) in the vertical upper bound
            (upper^2 = 1 + B(1-a) - rho^2, using that the constant is B + 1)

    The first facet integral is radial; the second is sliced along
    constant barycentric sum a, each slice being a centered regular
    (n-2)-simplex of circumradius a * rho_F, so both reduce to the radial
    level stack.  Their difference cancels about T1 / ((n - 1) V) of the
    digits, about 1.1 / t at small t, so it is one exactly rounded sum
    (`math.fsum`) of T1's panel terms (`RadialPowerStack.top_integral`)
    and T2's slice terms, which adds no rounding of its own to what the
    terms carry, and the bar adds 16 eps |T1| / (n - 1) of the
    high-fidelity stack to the lo/hi gap (`_radial_estimate`); the error
    against the orthoscheme form measured up to 6.5 eps |T1| / (n - 1) at
    n = 3, 4, 5, 8 and t = 1e-2 .. 1e-14.
    """
    p = (n - 1) / 2.0
    dim = n - 1
    b_c = sigma / (n - 1)                                # |centroid of a piece's outer face|
    rho_f_sq = sigma * sigma * n * (n - 2) / (n - 1) ** 2
    depth = int(min(64, max(18, math.log2(max(slope, 2.0)) + 14)))

    def values_of(stack):
        t1, (evals,) = stack.top_integral(w_perp, sigma * sigma, terms=True)
        a, one_m_a, wq = _panels_toward_one(depth, stack.settings.order)
        # C(a) = upper^2 at the slice's outermost radius, built from (1 - a)
        c_of_a = (1.0 - b_c * b_c) + slope * one_m_a + b_c * b_c * one_m_a * (2.0 - one_m_a)
        w_slice = (w_perp + slope * one_m_a + sigma * sigma * one_m_a * (2.0 - one_m_a)) / c_of_a
        inner = stack.level_value(dim - 1, w_slice)
        t2 = n * b_c * rho_f_sq ** ((n - 2) / 2.0) * a ** (n - 2) * c_of_a ** (-p) * inner * wq
        diff = math.fsum([*t1, *(-t2).tolist()])        # T1 - T2, exactly rounded
        if diff <= 0.0:         # as at n = 3 from t ~ 1e-18 down; a nan row stalls instead
            raise DegenerateGeometryError("half-space integrals t1 - t2 cancel to every digit")
        return [diff / (n - 1)], [evals + a.size], [16 * _EPS * math.fsum(t1) / (n - 1)]

    return _radial_estimate(dim - 1, p, w_perp, cfg, values_of)[0]


def volume_halfspace(params: SimplexParams, cfg: QuadratureConfig | None = None) -> VolumeEstimate:
    """Volume via the half-space model: the vertical integral of z^(-n)
    between the unit hemisphere and the facet spheres, written as two
    integrals over the projected bottom facet.

    Defined for 0 < t < pi/2 only; near the ideal point callers should
    evaluate at t <= pi/2 - 1e-6 and extrapolate (see `richardson_limit`).
    At tiny t its two facet integrals cancel: at n = 3 every digit is gone
    below t ~ 1e-15, and where they cross (from about 1e-18) it raises
    DegenerateGeometryError, as at the ends of the range.  Short of that
    the error estimate carries the cancellation (`_halfspace_value`), so
    it grows as 1 / t relative to the value.
    """
    emb = halfspace_embedding(params)
    return _halfspace_value(params.n, emb.sin_alpha, emb.cos_alpha**2, emb.height_sq_slope, cfg)


@dataclass(frozen=True)
class QuasiRegularParams:
    """A quasi-regular simplex: regular facet, apex on the axis through the
    facet's circumcenter.

    r is the hyperbolic distance from the circumcenter to the apex, d the
    distance from the circumcenter to the facet center, and
    facet_circumradius the circumradius of the regular (n-1)-simplex
    facet.  The regular simplex tau[n, t] is recovered with
    (r, d, facet_circumradius) = (r_n, d_n, r_{n-1}) from its ladder.
    """

    n: int
    r: float
    d: float
    facet_circumradius: float

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("n must be >= 2")
        if not (self.d > 0.0 and self.r >= self.d):
            raise DomainError("need r >= d > 0")
        if not 0.0 <= self.facet_circumradius < math.inf:
            raise DomainError("facet circumradius must be finite and nonnegative")


def volume_halfspace_general(q: QuasiRegularParams, cfg: QuadratureConfig | None = None,
                             *, literal_height_constant: bool = False) -> VolumeEstimate:
    """Half-space volume of a quasi-regular simplex.

    The vertical upper bound above a boundary point with barycentric sum
    a is T - (T - 1) a - rho^2 with T = e^{2(r+d)} (the squared Euclidean
    height of the apex in the normalized picture); the slope is tied to
    the constant by the facet-vertex collapse condition upper = lower at
    a = 1.  ``literal_height_constant`` substitutes T = (e^{r+d} + 1)^2,
    which breaks the collapse condition and the reduction to the regular
    case; it is provided for comparison only.

    Reduces to `volume_halfspace` when (r, d, facet_circumradius) are the
    regular values (r_n, d_n, r_{n-1}).  Raises DomainError when r + d is
    above about 354.9, where either form of the slope overflows float64.
    """
    if q.facet_circumradius == 0.0:
        return VolumeEstimate(0.0, 0.0, 0)
    if 2.0 * (q.r + q.d) > _LOG_MAX:
        raise DomainError(f"r + d = {q.r + q.d:.10g} is above {_LOG_MAX / 2:.10g}: the height "
                          "constant e^(2(r+d)) overflows float64")
    sigma = math.tanh(q.facet_circumradius)
    e = math.exp(-q.facet_circumradius)
    w_perp = (2.0 * e / (1.0 + e * e)) ** 2             # sech^2 R; 0 (ideal) once it underflows
    if literal_height_constant:
        slope = math.exp(q.r + q.d) * (math.exp(q.r + q.d) + 2.0)
    else:
        slope = math.expm1(2.0 * (q.r + q.d))           # T - 1, exact for small r+d
    return _halfspace_value(q.n, sigma, w_perp, slope, cfg)


def richardson_limit(eps: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Extrapolate values(eps) to eps -> 0 from the last three entries
    (Aitken delta-squared; exact when the error decays geometrically along
    the sequence).  Returns (limit, error_estimate).
    """
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise DomainError("need at least three values to extrapolate")
    v1, v2, v3 = values[-3], values[-2], values[-1]
    d1, d2 = v2 - v1, v3 - v2
    denom = d2 - d1
    if denom == 0.0:
        return v3, abs(d2)
    limit = v3 - d2 * d2 / denom
    return limit, abs(limit - v3)
