"""Independent oracles the tests check the package against.

Nothing here imports from hypervol's numerical engines: every value is
produced by a different route (closed forms, classical identities,
series, the Schlafli differential, high-precision mpmath quadrature,
projective-model distances between explicit vertices, or uniform
sampling) so agreement is evidence, not circularity.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np


def gauss_bonnet_triangle_area(circumradius: float) -> float:
    """Area of the equilateral hyperbolic triangle with the given
    circumradius: pi minus three times the vertex angle, with the angle
    from the right-triangle relation cot(theta/2) = cosh(R) tan(pi/3)."""
    theta = 2.0 * math.atan(1.0 / (math.cosh(circumradius) * math.tan(math.pi / 3)))
    return math.pi - 3.0 * theta


def lobachevsky(theta: float, terms: int = 60) -> float:
    """The Lobachevsky function via its log-series,
    L(x) = x - x ln(2x) + sum_k zeta(2k) x^(2k+1) / (k (2k+1) pi^(2k))."""
    x = mp.mpf(theta)
    out = x - x * mp.log(2 * x)
    for k in range(1, terms):
        out += mp.zeta(2 * k) * x ** (2 * k + 1) / (k * (2 * k + 1) * mp.pi ** (2 * k))
    return float(out)


def ideal_tetrahedron_volume() -> float:
    """3 L(pi/3): the volume of the regular ideal 3-simplex."""
    return 3.0 * lobachevsky(math.pi / 3)


# frozen from the series oracle above (and confirmed against the Clausen
# function); ideal_tetrahedron_volume() must reproduce it
IDEAL_TET = 1.0149416064096536


@lru_cache(maxsize=None)
def schlafli_volume(n: int, t: float, dps: int = 30) -> float:
    """Volume of tau[n, t] for 2 <= n <= 6 by the Schlafli differential,
    to ``dps`` digits.

    The dihedral angle alpha of tau[n, t] falls from its Euclidean value
    alpha(0) as the simplex grows, and each of its C(n+1, 2) codimension-2
    faces is a regular (n-2)-simplex with the same edge d, so

        V_n = C(n+1, 2) / (n-1) int_{alpha(x)}^{alpha(0)} V_{n-2}(x''(alpha)) d alpha

    with x = sin^2 t and cos alpha = (n + x) / (n^2 - x).  Along the path,
    x(alpha) = (n^2 cos alpha - n) / (1 + cos alpha), the edge has
    cosh d = (1 + x/n) / (1 - x), and the face has
    x'' = (cosh d - 1) / (cosh d + 1/(n-2)).  V_0 = 1, and for n = 3 the
    faces are the edges, V_1 = d.  The recursion steps n -> n-2, so n = 6
    nests as deep as n = 5 (6 -> 4 -> 2).  Only closed forms and mpmath's
    tanh-sinh quadrature are used.  A face at an end of its range can
    round to a complex value with a tiny imaginary part (at the ideal
    point of n = 5, 6); the real part is returned.
    """
    if not 2 <= n <= 6:
        raise ValueError("the Schlafli recursion is implemented for 2 <= n <= 6")
    with mp.workdps(dps):
        def volume(n, x):
            cos_a = (n + x) / (n * n - x)
            alpha_0 = mp.acos(mp.mpf(1) / n)
            scale = mp.mpf(math.comb(n + 1, 2)) / (n - 1)
            if n == 2:                           # V_0 = 1
                return scale * (alpha_0 - mp.acos(cos_a))

            def face(alpha):
                c = mp.cos(alpha)
                x_a = (n * n * c - n) / (1 + c)
                cosh_d = (1 + x_a / n) / (1 - x_a)
                if n == 3:
                    return mp.acosh(cosh_d)
                return volume(n - 2, (cosh_d - 1) / (cosh_d + mp.mpf(1) / (n - 2)))

            return scale * mp.quad(face, [mp.acos(cos_a), alpha_0])

        return float(mp.re(volume(n, mp.sin(mp.mpf(t)) ** 2)))


def regular_simplex_volume_by_edge(n: int) -> float:
    """Euclidean volume of the regular n-simplex inscribed in the unit
    sphere, via the edge-length formula V = a^n / n! sqrt((n+1)/2^n)."""
    a = math.sqrt(2.0 * (n + 1) / n)
    return a**n / math.factorial(n) * math.sqrt((n + 1) / 2.0**n)


def klein_triangle_integral(sigma, p, dps: int = 50) -> float:
    """50-digit reference for integral over S(2) of (1 - sigma^2 r^2)^(-p),
    by exact radial integration over the three polar cones (valid p != 1)."""
    with mp.workdps(dps):
        sigma = mp.mpf(sigma)
        p = mp.mpf(p)

        def cone(phi):
            r_edge = 1 / (2 * mp.cos(phi))
            inner = ((1 - sigma**2 * r_edge**2) ** (1 - p) - 1) / (2 * sigma**2 * (p - 1))
            return inner

        val = 3 * mp.quad(cone, [-mp.pi / 3, mp.pi / 3])
        return float(val)


def mp_integral(f, a, b, dps: int = 50) -> float:
    """50-digit adaptive reference for a 1-d integral."""
    with mp.workdps(dps):
        return float(mp.quad(f, [a, b]))


def mp_ladder(n: int, t: float, dps: int = 50) -> tuple[list, list]:
    """50-digit orthoscheme ladder of tau[n, t] at the double t: the lists
    (r_1..r_n, d_1..d_n), each length the atanh of its closed-form tanh

        tanh r_{n-k} = s sqrt(1 - m_k) / sqrt(1 - s^2 m_k),
        tanh d_{n-k} = tanh r_{n-k} / (n - k),   m_k = k / (n (n - k + 1)).
    """
    with mp.workdps(dps):
        s = mp.sin(mp.mpf(t))
        r, d = [0.0] * n, [0.0] * n
        for k in range(n):
            m = mp.mpf(k) / (n * (n - k + 1))
            tanh_r = s * mp.sqrt(1 - m) / mp.sqrt(1 - s * s * m)
            r[n - k - 1] = float(mp.atanh(tanh_r))
            d[n - k - 1] = float(mp.atanh(tanh_r / (n - k)))
        return r, d


def mp_lower_bound(n: int, t: float, dps: int = 50) -> float:
    """50-digit closed-form lower bound on the growth ratio of tau[n, t]."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        s = mp.sin(t)
        m = mp.mpf(n - 1) / (2 * n)
        pref = (n + 1) * mp.mpf(2) ** (1 - n) * mp.sqrt(1 - s * s * m) * mp.cos(t) / (
            mp.sqrt(1 - m) * mp.sqrt(n * n - s * s))
        return float(pref * mp.atanh(s * mp.sqrt(1 - m) / mp.sqrt(1 - s * s * m)))


def simplex_vertices(params) -> np.ndarray:
    """Projective-model coordinates of the n+1 vertices of the
    SimplexParams ``params``, as an (n+1, n) array.

    All vertices have Euclidean norm sin t, pairwise Gram entries
    -sin^2 t / n, and the last vertex lies on the positive last axis.
    """
    # imported here: perfbench loads this module without hypervol on the path
    from hypervol.geometry import unit_simplex_vertices

    return params.sin_t * unit_simplex_vertices(params.n)


def cross_ratio_distance(a, b) -> float:
    """Hyperbolic distance between two points of the open unit ball in the
    projective model (the logarithm of the classical cross-ratio with the
    chord endpoints, halved).

    Evaluated through the equivalent sinh form

        sinh d = sqrt(|a-b|^2 - (|a|^2 |b|^2 - <a,b>^2)) / sqrt((1-|a|^2)(1-|b|^2))

    which is exact at coincident points and stable for small separations.

    Raises ValueError if either point is on or outside the unit sphere.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("points must be 1-d arrays of equal length")
    qa = 1.0 - float(a @ a)
    qb = 1.0 - float(b @ b)
    if qa <= 0.0 or qb <= 0.0:
        raise ValueError("points must lie strictly inside the unit ball")
    diff = a - b
    dot = float(a @ b)
    gram = float(a @ a) * float(b @ b) - dot * dot  # >= 0 by Cauchy-Schwarz
    num = float(diff @ diff) - gram
    if num < 0.0:  # round-off below the coincident-point floor
        num = 0.0
    return math.asinh(math.sqrt(num) / math.sqrt(qa * qb))


def face_centroids(vertices: np.ndarray) -> list[np.ndarray]:
    """Centroids K_1..K_{n-1} of the nested faces spanned by the first
    2, 3, ..., n vertices (the hyperbolic face centers, since the
    vertex-permuting symmetries fix the origin and act orthogonally)."""
    n = vertices.shape[1]
    return [vertices[: k + 1].mean(axis=0) for k in range(1, n)]


def hyperbolic_triangle_angle_from_side(cosh_side: float) -> float:
    """Vertex angle of the equilateral hyperbolic triangle with the given
    side, from the hyperbolic law of cosines:
    cos(theta) = cosh(side) / (cosh(side) + 1)."""
    return math.acos(cosh_side / (cosh_side + 1.0))


def euclidean_simplex_volume(n: int, scale: float = 1.0) -> float:
    """Euclidean volume of scale * S(n) (regular, unit circumradius at scale 1)."""
    return scale**n * (n + 1) ** ((n + 1) / 2) / (math.factorial(n) * n ** (n / 2))


_MC_CHUNK = 1 << 16


def _mc_chunk_stream(seed: int, index: int) -> np.random.Generator:
    # Philox is counter-based: distinct chunk indices give independent,
    # order-insensitive streams for the same key
    return np.random.Generator(
        np.random.Philox(key=seed, counter=np.array([0, 0, 0, index], dtype=np.uint64))
    )


def monte_carlo_simplex(n: int, scale: float, integrand, samples: int,
                        seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the integral of ``integrand`` over scale * S(n),
    returned as (value, standard error of the mean).

    Points are sampled uniformly via the exponential-spacing method
    (normalized unit-rate exponentials as barycentric weights).  Given the
    same seed the result is bit-identical run to run, regardless of how the
    chunks would be scheduled.

    ``integrand`` receives an (m, n) array of points and must return m values.
    """
    # imported here: perfbench loads this module without hypervol on the path
    from hypervol.geometry import unit_simplex_vertices

    verts = scale * unit_simplex_vertices(n)
    vol = euclidean_simplex_volume(n, scale)
    s1 = 0.0
    s2 = 0.0
    done = 0
    index = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        rng = _mc_chunk_stream(seed, index)
        expo = rng.standard_exponential(size=(m, n + 1))
        lam = expo / expo.sum(axis=1, keepdims=True)
        vals = np.asarray(integrand(lam @ verts), dtype=float)
        assert vals.shape == (m,), "integrand must return one value per sample point"
        s1 += float(vals.sum())
        s2 += float(vals @ vals)
        done += m
        index += 1
    mean = s1 / samples
    var = max(s2 / samples - mean * mean, 0.0)
    return vol * mean, vol * math.sqrt(var / samples)
