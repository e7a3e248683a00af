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
    """`schlafli_digits` rounded to a float."""
    return float(schlafli_digits(n, t, dps))


def schlafli_digits(n: int, t: float, dps: int = 30):
    """Volume of tau[n, t] for 2 <= n <= 6 by the Schlafli differential,
    to ``dps`` digits, as an mpmath number.

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

        return mp.re(volume(n, mp.sin(mp.mpf(t)) ** 2))


# the t of the frozen Schlafli table: a spread of finite t, one near the
# ideal point and the ideal point itself
SCHLAFLI_TS = (0.05, 0.3, 0.8, 1.2, 1.5, math.pi / 2 - 1e-5, math.pi / 2)

# frozen from schlafli_digits(n, t) at 40 digits, which the 30-digit values
# match to 4e-27 or better, rounded to 20 digits; (n, t) -> V_n for
# n = 3..6 and t in SCHLAFLI_TS
SCHLAFLI_VOLUMES = {(n, t): value for n, row in {
    3: ('6.4133974741654729281e-5', '1.3726751327937160959e-2', '2.4122365772553652769e-1',
        '6.8145194133264553729e-1', '9.9130926257083927194e-1', '1.0149416047854221024e+0',
        '1.0149416064096536250e+0'),
    4: ('9.0928949541333804208e-7', '1.1522621337378507014e-3', '4.9242696990233534299e-2',
        '1.7733445639631301143e-1', '2.6423854868647551301e-1', '2.6889566007058128856e-1',
        '2.6889566016931122547e-1'),
    5: ('1.0052123232433775305e-8', '7.5389436213139494694e-5', '7.8300466528361550513e-3',
        '3.6201796394344525585e-2', '5.6554524526930789376e-2', '5.7564737664704740083e-2',
        '5.7564737685177927246e-2'),
    6: ('9.1047054631152766654e-11', '4.0403505031972263410e-6', '1.0194728567440615316e-3',
        '6.0750183688839905359e-3', '1.0043414955016029111e-2', '1.0239275416224697291e-2',
        '1.0239275420176640259e-2'),
}.items() for t, value in zip(SCHLAFLI_TS, row)}


def flat_volume(n: int, t: float) -> float:
    """The Euclidean regular n-simplex of circumradius sin t,
    sin^n t (n+1)^((n+1)/2) / (n! n^(n/2)), which tau[n, t] tends to as
    t -> 0: their relative gap is at most (n + 1)/2 sin^2 t, so below
    t = 1e-9 it is a reference at every n to the rounding of its own
    few operations."""
    return math.sin(t) ** n * (n + 1) ** ((n + 1) / 2) / (math.factorial(n) * n ** (n / 2))


def gauss_bonnet_volume(n: int, t: float, dps: int = 60):
    """Volume of tau[n, t] for even n by the Gauss-Bonnet theorem, to
    about ``dps`` digits less the sum's cancellation, as an mpmath number.

    With cos alpha = (n + x)/(n^2 - x), x = sin^2 t, the link of each
    k-face is a regular spherical simplex of dihedral angle alpha, whose
    solid angle is the orthant probability P_m of m = n - k standard
    normals with correlation -cos alpha, so

        V_n = (-1)^(n/2) (vol S^n / 2) sum_k (-1)^k C(n+1, k+1) P_(n-k).

    P_0 = 1, P_1 = 1/2, P_2 and P_3 are closed forms in asin(-cos alpha),
    and for m >= 4, with b^2 = cos alpha / (1 + cos alpha),

        P_m = 2/sqrt(2 pi) int_0^inf Re[(1/2 + (i/2) erfi(b z / sqrt 2))^m] e^(-z^2/2) dz,

    whose integrand decays as e^(-(1 - m b^2) z^2 / 2); at the ideal point
    P_n is 0 (a vertex link is Euclidean) and is not integrated.  The sum
    cancels about 40 digits at n = 24, t = 0.3, and more as t falls."""
    if n % 2:
        raise ValueError("the Gauss-Bonnet route needs an even n")
    with mp.workdps(dps):
        x = mp.mpf(1) if t == math.pi / 2 else mp.sin(mp.mpf(t)) ** 2
        cos_a = (n + x) / (n * n - x)
        b = mp.sqrt(cos_a / (1 + cos_a))

        def orthant(m):
            if m < 4:
                return [1, mp.mpf(1) / 2, mp.mpf(1) / 4 - mp.asin(cos_a) / (2 * mp.pi),
                        mp.mpf(1) / 8 - 3 * mp.asin(cos_a) / (4 * mp.pi)][m]
            if m == n and x == 1:
                return 0
            z_max = mp.sqrt(2 * (2.4 * dps + 10) / (1 - m * b * b))
            f = lambda z: mp.re((0.5 + 0.5j * mp.erfi(b * z / mp.sqrt(2))) ** m) * mp.exp(-z * z / 2)
            return 2 / mp.sqrt(2 * mp.pi) * mp.quad(f, mp.linspace(0, z_max, 9))

        total = mp.fsum((-1) ** k * mp.binomial(n + 1, k + 1) * orthant(n - k) for k in range(n + 1))
        return (-1) ** (n // 2) * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2) * total


# frozen from gauss_bonnet_volume(n, t) at two working precisions (60 and
# 80 digits at n = 8, 50 and 100 at the ideal n = 24, 110 and 140 at
# n = 40), which agree to 20 digits or more, rounded to 20; (n, t) -> V_n
GAUSS_BONNET_VOLUMES = {
    (8, 0.3): "7.2140834153243031786e-9",
    (8, 1.2): "1.0693543051898458457e-4",
    (8, math.pi / 2 - 1e-5): "2.0497686680231937021e-4",
    (8, math.pi / 2): "2.0497686689883607909e-4",
    (24, math.pi / 2): "2.1935597090455410438e-23",
    (40, 0.5): "2.4388721904448531105e-60",
}


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


def cone_level_integral(k: int, p: float, w: float, sigma2: float, inner,
                        depth: int, order: int) -> float:
    """Level k of the iterated-cone reduction of the integral over the
    regular k-simplex of (1 - sigma^2 |x|^2)^(-p), at one
    (w, sigma2) = (1 - sigma^2, sigma^2), by its defining integral in the
    cone parameter xi, given ``inner``, level k - 1 as a function of
    1 - sigma'^2 (arrays in and out).  With h = 1/k:

        I_k = c_k int_0^1 xi^(k-1) den^(-p) I_{k-1}(num / den) dxi,
        num = 1 - sigma^2 xi^2,  den = h^2 num + 1 - h^2,
        c_k = (k+1)/k (1 - h^2)^((k-1)/2).

    Gauss panels of ``order`` points are refined ``depth`` times
    dyadically toward xi = 1, where the integrand concentrates as
    sigma -> 1, with 1 - xi carried exactly.  This is a different route
    from the engine's cumulative integral in y = sqrt(-log num), which
    has no xi rule.
    """
    x, wx = np.polynomial.legendre.leggauss(order)
    g, wg = (x + 1.0) / 2, wx / 2
    hi = 0.5 ** np.arange(depth + 2)            # 1 - xi at each panel's upper end
    lo = np.append(hi[1:], 0.0)
    om = (hi[:, None] - (hi - lo)[:, None] * g).ravel()
    wq = ((hi - lo)[:, None] * wg).ravel()
    num = w + sigma2 * om * (2.0 - om)
    h2 = 1.0 / (k * k)
    den = h2 * num + (1.0 - h2)
    c_k = (k + 1) / k * (1.0 - h2) ** ((k - 1) / 2)
    return c_k * float(((1.0 - om) ** (k - 1) * den ** (-p) * inner(num / den)) @ wq)


def level_one_integral(p: float, w: float, dps: int = 30):
    """(2/sigma) int_0^sigma (1 - s^2)^(-p) ds at w = 1 - sigma^2, to
    ``dps`` digits, as an mpmath number, by mpmath's quadrature in
    x = sigma - s.  There 1 - s^2 = w + x (2 sigma - x) keeps every digit
    of w, which 1 - sigma^2 at 30 digits rounds away at w ~ 1e-22, and the
    breakpoints sigma 16^-j, down past w, follow the integrand toward x = 0,
    where it moves on the scale w."""
    with mp.workdps(dps):
        w = mp.mpf(w)
        sigma = mp.sqrt(1 - w)
        cuts = [sigma * mp.mpf(16) ** -j for j in range(int(math.log(1 / float(w), 16)) + 2)]
        return 2 / sigma * mp.quad(lambda x: (w + x * (2 * sigma - x)) ** -p, [0, *cuts[::-1]])


def level_two_integral(p: float, w: float, dps: int = 30):
    """The integral over S(2) of (1 - sigma^2 |x|^2)^(-p) at
    w = 1 - sigma^2 in (0, 1], to ``dps`` digits, as an mpmath number.
    S(2) is six right triangles about its center, each the angle
    phi in [0, pi/3] from an edge's foot out to R(phi) = 1 / (2 cos phi),
    so it is 6 int_0^(pi/3) of the radial antiderivative

        int_0^R (1 - sigma^2 r^2)^(-p) r dr = expm1((1 - p) log f) / (2 sigma^2 (p - 1)),

    -log f / (2 sigma^2) at p = 1, with f = 1 - sigma^2 R^2 =
    (4 cos^2 phi - 1 + w) / (4 cos^2 phi).  mpmath integrates in
    psi = pi/3 - phi, where 4 cos^2 phi - 1 = 2 sin psi (sqrt 3 cos psi +
    sin psi) keeps its digits at the vertex psi = 0, so w's survive
    there; log f is log1p(-sigma^2 / (4 cos^2 phi)) above w = 1/2, so
    sigma's survive as it goes to 0.  The breakpoints (pi/3) 16^-j, down
    past w, follow the integrand toward the vertex, where it moves on the
    scale w, and Gauss-Legendre takes a third of tanh-sinh's time there."""
    with mp.workdps(dps):
        w = mp.mpf(w)
        sigma2, root3 = 1 - w, mp.sqrt(3)

        def antiderivative(psi):
            c, s = mp.cos_sin(psi)
            c2 = (c + root3 * s) ** 2                           # 4 cos^2 phi
            if w > 0.5:
                log_f = mp.log1p(-sigma2 / c2)
            else:
                log_f = mp.log((2 * s * (root3 * c + s) + w) / c2)
            if p == 1:
                return -log_f / (2 * sigma2)
            return mp.expm1((1 - p) * log_f) / (2 * sigma2 * (p - 1))

        cuts = [mp.pi / 3 * mp.mpf(16) ** -j for j in range(int(math.log(1 / float(w), 16)) + 2)]
        return 6 * mp.quad(antiderivative, [0, *cuts[::-1]], method="gauss-legendre")


def chebyshev_coefficients(values, dps: int = 30) -> np.ndarray:
    """The coefficients of the polynomial through ``values`` at the points
    cos(pi j / N), j = 0..N: the DCT-I, entry (m, j) = cos(pi m j / N) 2/N,
    halved in columns 0 and N and in rows 0 and N, summed at ``dps``
    digits and rounded once, so no route's rounding moves them."""
    n = len(values) - 1
    with mp.workdps(dps):
        cos = [mp.cospi(mp.mpf(r) / n) for r in range(2 * n)]
        v = [mp.mpf(float(x)) for x in values]
        v[0], v[n] = v[0] / 2, v[n] / 2
        out = [2 * mp.fsum(cos[m * j % (2 * n)] * v[j] for j in range(n + 1)) / n
               for m in range(n + 1)]
        out[0], out[n] = out[0] / 2, out[n] / 2
        return np.array([float(c) for c in out])


def chebyshev_antiderivative(coef: np.ndarray, scl: float) -> np.ndarray:
    """The coefficients of the antiderivative, zero at u = 0, of the series
    ``coef`` on [0, X] with ``scl`` = 2 / X: numpy's
    ``Chebyshev(coef, domain=(0, X)).integ(lbnd=0).coef``, bitwise, with no
    Python loop over the coefficients but numpy's Clenshaw steps for the
    constant.  With c the coefficients times 1/scl, c_0 becomes the one of
    T_1 and each c_j (j >= 1) adds c_j / 2(j+1) to T_(j+1) and takes
    c_j / 2(j-1) from T_(j-1); the constant is minus the value at u = 0,
    which maps to -1.  A per-level series route to the Schlafli volumes
    integrates its levels with it."""
    c = coef * (1.0 / scl)
    n = c.size
    twice = 2 * np.arange(n + 1)
    out = np.empty(n + 1)
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2:] = c[1:] / twice[2:n + 1]
    out[1:n - 1] -= c[2:] / twice[1:n - 1]
    terms = out.tolist()
    c0, c1 = terms[-2], terms[-1]
    for ck in terms[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * -2.0
    out[0] += 0 - (c0 + c1 * -1.0)
    return out


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


def standard_chop(coef, tol: float) -> int:
    """How many leading Chebyshev coefficients to keep, by the scalar loop
    of Aurentz and Trefethen, "Chopping a Chebyshev series" (ACM TOMS
    43(4), 2017), as Chebfun's standardChop writes it: fewer than 17
    coefficients all stay; otherwise build the monotone envelope of |coef|
    from the end, scan j = 2, 3, ... for the first plateau, and cut where
    log10 of the envelope plus a linear tilt is least.  MATLAB's
    round(1.25 j + 5) is floor(1.25 j + 5.5) for positive j.  Step 3's
    branch for a zero envelope at the plateau point is left out: the
    first plateau follows a nonzero entry, since the envelope starts at 1.
    """
    n = len(coef)
    if n < 17:
        return n
    envelope = [abs(float(c)) for c in coef]
    for j in range(n - 2, -1, -1):
        envelope[j] = max(envelope[j], envelope[j + 1])
    if envelope[0] == 0.0:
        return 1
    envelope = np.array(envelope) / envelope[0]
    for j in range(2, n + 1):                    # 1-based, as in the paper
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return n                             # no plateau
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            break
    j3 = int(np.sum(envelope >= tol ** (7 / 6)))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = tol ** (7 / 6)
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -math.log10(tol) / 3, j2)
    return max(int(np.argmin(tilted)), 1)        # MATLAB's max(d - 1, 1), d 1-based
