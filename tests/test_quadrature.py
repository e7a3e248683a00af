import math
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate

from hypervol import (
    ConvergenceError,
    DomainError,
    QuadratureConfig,
    SimplexParams,
    growth_ratio,
    integrate_nested,
    integrate_simplex_radialpow,
    ladder,
    quadrature,
    volume_halfspace,
    volume_orthoscheme,
    volume_projective,
)

from hypervol.quadrature import (
    _chebval,
    _cone_factor,
    _radial_pair,
    _standard_chop,
)

from oracles import (
    cone_level_integral,
    chebyshev_antiderivative,
    chebyshev_coefficients,
    euclidean_simplex_volume,
    level_one_integral,
    level_two_integral,
    gauss_bonnet_triangle_area,
    klein_triangle_integral,
    monte_carlo_simplex,
    regular_simplex_volume_by_edge,
    standard_chop,
)


class TestConfig:
    def test_defaults_valid(self):
        QuadratureConfig()

    @pytest.mark.parametrize("kw", [
        {"rel_tol": 1e-17},
        {"rel_tol": 0.0},
        {"rel_tol": -1e-8},
        {"rel_tol": -math.inf},
        {"rel_tol": math.inf},
        {"rel_tol": 1.0},
        {"rel_tol": 2e-15},          # just under 10 * eps
        {"rel_tol": float("nan")},
    ])
    def test_rejects(self, kw):
        with pytest.raises(DomainError):
            QuadratureConfig(**kw)


@pytest.mark.parametrize("err", [-1e-300, -math.inf, math.nan])
def test_estimate_refuses_a_negative_or_nan_bar(err):
    with pytest.raises(DomainError, match="error_estimate must be nonnegative"):
        quadrature.VolumeEstimate(1.0, err, 1)


def chain_ranges(outer, slopes):
    """X_0 = outer and X_k = atanh(c_k sinh X_(k-1)) of an orthoscheme chain."""
    tops = [outer]
    for c in slopes:
        tops.append(math.atanh(c * math.sinh(tops[-1])))
    return tops


class TestNested:
    """The orthoscheme chain: ranges X_k = atanh(c_k sinh X_(k-1)) and
    factors cosh^k, checked against closed forms and scipy's cubature."""

    def test_triangle(self):
        # the n = 2 orthoscheme chain, 3! copies, is the triangle's area
        t = 1.1
        lad = ladder(SimplexParams(2, t))
        est = integrate_nested(float(lad.d[0]), [lad.tanh_d[1] / lad.sinh_d[0]], 6.0)
        ref = gauss_bonnet_triangle_area(math.atanh(math.sin(t)))
        assert est.value == pytest.approx(ref, rel=1e-14)

    def test_one_level_is_its_range(self):
        est = integrate_nested(1.3, [], 2.0)
        assert est.value == pytest.approx(2.6, rel=1e-15)
        assert abs(est.value - 2.6) <= est.error_estimate

    def test_against_dblquad(self):
        """Depth-2 chain vs an independent 2-d adaptive cubature."""
        outer, c = 1.0, 0.5
        est = integrate_nested(outer, [c], 2.0)
        ref, _ = scipy.integrate.dblquad(
            lambda y, x: 2.0 * math.cosh(y), 0.0, outer,
            0.0, lambda x: math.atanh(c * math.sinh(x)), epsabs=1e-13, epsrel=1e-13)
        assert abs(est.value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("outer, c", [(0.3, 0.9), (1.0, 0.5), (2.5, 0.08), (12.0, 1e-5)])
    def test_two_levels_closed_form(self, outer, c):
        # int_0^X sinh(atanh(c sinh x)) dx = asin(c cosh x / sqrt(1 + c^2))
        # from 0 to X, taken at 30 digits: it cancels at small X
        with mp.workdps(30):
            root = mp.sqrt(1 + mp.mpf(c) ** 2)
            exact = float(mp.asin(c * mp.cosh(outer) / root) - mp.asin(c / root))
        est = integrate_nested(outer, [c])
        assert abs(est.value - exact) <= est.error_estimate

    def test_against_tplquad_depth3(self):
        """Depth-3 chain vs an independent 3-d adaptive cubature."""
        outer, (c1, c2) = 0.8, (0.7, 0.6)
        est = integrate_nested(outer, [c1, c2], 3.0)
        ref, _ = scipy.integrate.tplquad(
            lambda z, y, x: 3.0 * math.cosh(y) * math.cosh(z) ** 2, 0.0, outer,
            0.0, lambda x: math.atanh(c1 * math.sinh(x)),
            0.0, lambda x, y: math.atanh(c2 * math.sinh(y)), epsabs=1e-14, epsrel=1e-13)
        assert est.value == pytest.approx(ref, rel=1e-11)

    def test_bad_chain(self):
        # a negative range is no chain
        for outer, slopes, k in ((-1.0, [], 0), (1.0, [-0.5], 1), (1.0, [0.5, -1e-300], 2)):
            with pytest.raises(DomainError, match=rf"the range X_{k} = -"):
                integrate_nested(outer, slopes)

    @pytest.mark.parametrize("outer, slopes", [
        (0.0, []), (0.0, [0.5]), (1.0, [0.0]), (1.0, [0.5, 0.0]), (0.0, [0.5] * 40),
    ], ids=["outer", "both", "inner", "innermost", "deeper_than_28"])
    def test_zero_range_is_the_zero_estimate(self, outer, slopes):
        # X_k = 0 empties level k and every level inside it, also in a
        # chain too deep to build
        est = integrate_nested(outer, slopes)
        assert (est.value, est.error_estimate, est.n_evals) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("limits, k", [
        ((math.inf, []), 0), ((math.nan, [0.5]), 0), ((1.0, [1 / math.sinh(1.0)]), 1),
        ((1.0, [2.0]), 1), ((1.0, [0.5, 3.0]), 2),
    ])
    def test_non_finite_range_is_refused(self, limits, k):
        # c sinh X_(k-1) at or past 1 has no atanh
        with pytest.raises(DomainError, match=rf"the range X_{k} = "):
            integrate_nested(*limits)

    def test_n_evals_counts_every_round(self, monkeypatch):
        # every level starts at N = 32 and doubles while its series has no
        # plateau; each round sums _BASE_ORDER Gauss points on each of its N
        # panels.  Near the ideal point the outer level doubles
        sizes = []
        panels = quadrature._unit_panels
        monkeypatch.setattr(quadrature, "_unit_panels", lambda n: sizes.append(n) or panels(n))
        outer, slopes = 30.0, [math.tanh(0.6) / math.sinh(30.0), 0.5]
        est = integrate_nested(outer, slopes)
        levels = [[]]
        for n in sizes:
            if n == 32 and levels[-1]:
                levels.append([])
            levels[-1].append(n)
        assert len(levels) == 3 and len(levels[-1]) >= 2
        for rounds in levels:
            assert rounds == [32 * 2 ** i for i in range(len(rounds))]
        assert est.n_evals == quadrature._BASE_ORDER * sum(sizes)

    def test_stalled_chain_carries_its_estimate(self, nested_stalled):
        # no level of a noisy panel rule finds a plateau; the chain still
        # forms its value and bar and raises them
        with pytest.raises(ConvergenceError, match="no plateau by N = 512") as info:
            integrate_nested(1.0, [0.5, 0.5])
        est = info.value.estimate
        assert est.value > 0 and est.error_estimate > 0 and est.n_evals > 0


class TestSimplexRadialPow:
    def test_zero_scale(self):
        assert integrate_simplex_radialpow(4, 0.0).value == 0.0

    def test_batch_needs_one_floor_per_scale(self, monkeypatch):
        with pytest.raises(DomainError):
            integrate_simplex_radialpow(3, [0.5, 0.6], one_minus_scale_sq=[0.75])
        built = []
        init = quadrature.RadialPowerStack.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        # an empty batch returns before it builds a stack pair
        monkeypatch.setattr(quadrature.RadialPowerStack, "__init__", counted)
        assert integrate_simplex_radialpow(3, []) == []
        assert built == []

    @pytest.mark.parametrize("w", [2.0, math.inf, math.nan, -0.5])
    def test_floor_outside_the_unit_interval_is_refused(self, w):
        # a floor above 1 built the pair on theta = -1e-9 and clipped each
        # row's theta to it (0.0664 for 0.0714 at w = 2); nan was taken as
        # the ideal floor.  A scalar, a batch and scale 0 refuse alike
        for scale, floor in ((0.5, w), ([0.5, 0.6], [w, 0.64]), (0.0, w)):
            with pytest.raises(DomainError, match="one_minus_scale_sq"):
                integrate_simplex_radialpow(3, scale, one_minus_scale_sq=floor)

    @pytest.mark.parametrize("n", [3.0, 2.5, True])
    def test_non_integer_dimension_is_refused(self, n):
        # n = 3.0 raised a bare TypeError from the stack build and n = True
        # integrated over S(1).  A scalar, a batch and scale 0 refuse alike
        for scale in (0.5, [0.5, 0.6], 0.0):
            with pytest.raises(DomainError, match="dimension must be an integer"):
                integrate_simplex_radialpow(n, scale)

    def test_stalled_batch_raises_its_first_row(self, request):
        # a batch returns only settled rows: under a crude low-fidelity
        # stack the first row raises, carrying its own estimate; n = 4 reads
        # a series level (level 3)
        first = integrate_simplex_radialpow(4, 0.5).value
        request.getfixturevalue("stalled")
        with pytest.raises(ConvergenceError) as info:
            integrate_simplex_radialpow(4, [0.5, 0.9])
        est = info.value.estimate
        assert est.value == pytest.approx(first, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n, ref", [
        (2, 0.25 * klein_triangle_integral(0.5, 1.5)),
    ], ids=["triangle"])
    def test_zero_row_in_a_batch(self, n, ref):
        # a row at sigma = 0 takes no panel and is 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = integrate_simplex_radialpow(n, [0.0, 0.5])
        assert rows[0].value == 0.0
        assert rows[1].value == pytest.approx(ref, rel=1e-12, abs=0)

    def test_deep_finite_floors(self):
        # (v / den) den^(1 - p) stays finite where den^(-p) overflowed at
        # level 1 (-log w past 709.8 / p): the 1e-200 floor is formed, and
        # level 3's panels, between its own points, follow the closed
        # levels below to the ideal value; at 1e-300, v^(1 - p) itself is
        # beyond float64 and the pair refuses it by name
        deep = integrate_simplex_radialpow(4, 1.0, one_minus_scale_sq=1e-200)
        ideal = integrate_simplex_radialpow(4, 1.0)
        assert deep.value == pytest.approx(ideal.value, rel=1e-12, abs=0)
        with pytest.raises(DomainError, match="overflows"):
            integrate_simplex_radialpow(4, 1.0, one_minus_scale_sq=1e-300)

    def test_near_ideal_n24_settles(self):
        # t = pi/2 - 1e-13 puts level 1 of the n = 24 pair at p - 1 = 11.5
        # over -log w ~ 60; it settles on the ideal value
        near = volume_projective(SimplexParams(24, math.pi / 2 - 1e-13))
        ideal = volume_projective(SimplexParams(24, math.pi / 2))
        assert near.value == pytest.approx(ideal.value, rel=1e-12, abs=0)

    def test_hyperbolic_triangle_gauss_bonnet(self):
        # scale = tanh(circumradius) = sin t, p = 3/2: the triangle's area
        s = 0.6
        est = integrate_simplex_radialpow(2, s)
        assert est.value == pytest.approx(
            gauss_bonnet_triangle_area(math.atanh(s)), abs=1e-12)

    def test_against_50_digit_reference(self):
        ref = 0.81 * klein_triangle_integral(0.9, 1.5)   # scale^2 * I_2
        est = integrate_simplex_radialpow(2, 0.9)
        assert est.value == pytest.approx(ref, rel=1e-11)

    def test_tolerance_scaling_against_reference(self):
        ref = 0.81 * klein_triangle_integral(0.9, 1.5)
        gaps = []
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            est = integrate_simplex_radialpow(2, 0.9, QuadratureConfig(rel_tol=tol))
            gaps.append(abs(est.value - ref))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= 1.1 * a + 5e-15 * abs(ref)

    def test_dimension_below_two_or_scale_above_one_is_refused(self):
        for n in (1, 0):
            with pytest.raises(DomainError, match="dimension must be >= 2"):
                integrate_simplex_radialpow(n, 0.5)
        with pytest.raises(DomainError, match="scale must lie in"):
            integrate_simplex_radialpow(3, 1.2)

    def test_vertex_touching_cases(self):
        # ideal 2-simplex facet integral is exactly pi
        est = integrate_simplex_radialpow(2, 1.0)
        assert est.value == pytest.approx(math.pi, abs=1e-9)

    @pytest.mark.parametrize("case", range(6))
    def test_adaptive_vs_monte_carlo(self, case):
        rng = np.random.Generator(np.random.Philox(key=case))
        n = int(rng.integers(2, 5))
        scale = float(rng.uniform(0.2, 0.95))
        p = (n + 1) / 2
        ada = integrate_simplex_radialpow(n, scale)
        mc, mc_err = monte_carlo_simplex(
            n, scale, lambda x: (1.0 - np.einsum("ij,ij->i", x, x)) ** (-p),
            400_000, seed=case)
        combined = 4.0 * (ada.error_estimate + mc_err) + 1e-12
        assert abs(ada.value - mc) <= combined


class TestRadialPowerStack:
    @pytest.mark.parametrize("w_top, rel", [(0.36, 1e-12), (1e-6, 1e-12), (0.0, 1e-9)])
    def test_series_matches_direct_level_integral(self, w_top, rel):
        # level_value reads each level's Chebyshev series and top_integral
        # returns sigma^k I_k, both from the cumulative integral in y; the
        # oracle integrates the same level by a direct xi rule on the
        # series one down.  top_integral reads level k = levels + 1, so
        # level k's is the top of the stack of k - 1 levels, whose levels
        # are those of the whole stack
        for n in (3, 5, 8):
            _, stack = _radial_pair(n - 1, (n + 1) / 2, w_top)
            # theta = log(1 - sigma^2) from 0 to theta_min, then one point
            # below theta_min, where the series' argument is clipped to theta_min
            for k in range(1, n + 1):
                inner = partial(stack.level_value, k - 1)
                _, lower = _radial_pair(k - 1, (n + 1) / 2, w_top)
                for frac in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0, 1.01):
                    theta = frac * stack.theta_min
                    at = max(theta, stack.theta_min)
                    w, sigma2 = math.exp(at), -math.expm1(at)
                    # 72 dyadic refinements toward xi = 1, to 1 - xi = 2^-73
                    ref = cone_level_integral(k, stack.p, w, sigma2, inner,
                                              72, stack.settings.order)
                    if k < n:
                        got = stack.level_value(k, np.array([math.exp(theta)]))[0]
                        assert got == pytest.approx(ref, rel=rel, abs=0), (n, k, frac)
                    if sigma2 > 0.0:
                        (top,), _ = lower.top_integral([w], [sigma2])
                        assert top / sigma2 ** (k / 2) == pytest.approx(ref, rel=rel, abs=0), \
                            (n, k, frac)
                if k < n:
                    # theta = 0 is the identity's 0/0: I_k(0) = c_k I_{k-1}(0) / k
                    (at_zero,), (below,) = (stack.level_value(j, np.ones(1)) for j in (k, k - 1))
                    assert at_zero == pytest.approx(_cone_factor(k) / k * below,
                                                    rel=1e-12, abs=0), (n, k)

    @staticmethod
    def row_at(y):
        """The row (1 - sigma^2, sigma^2) whose upper limit, as top_integral
        takes it from log w (w < 1/2) or log1p(-sigma^2), is y exactly:
        ulp steps from the nearest guess."""
        small = y * y > math.log(2.0)
        x = math.exp(-y * y) if small else -math.expm1(-y * y)
        for _ in range(64):
            got = math.sqrt(-float(np.log(x) if small else np.log1p(-x)))
            if got == y:
                return (x, 1.0 - x) if small else (1.0 - x, x)
            x = float(np.nextafter(x, 0.0 if (got < y) == small else 1.0))
        raise AssertionError(f"no row reads y = {y!r}")

    def test_top_integral_across_its_grid_edges(self):
        # a row on an edge of the top grid sums the whole panels below it
        # and an empty partial panel; one ulp below, one whole panel fewer
        # and a partial panel of all but an ulp of it; one ulp above, a sliver
        _, stack = _radial_pair(3, 2.5, 0.0)
        edges = stack._top[0]
        for edge in edges[1:]:
            rows = [self.row_at(float(y)) for y in np.nextafter(edge, [0.0, edge, 1e3])]
            got, _ = stack.top_integral(*zip(*rows))
            assert np.abs(got / got[1] - 1).max() <= 8 * quadrature._EPS, edge
        # an ideal row stops at y_max = sqrt(-theta_min): the sum of the
        # whole grid, plus the tail term
        y_max = math.sqrt(-stack.theta_min)
        sums, (tail,) = stack._panel_sums(4, stack._panels(edges[:-1], np.diff(edges), [y_max]))
        (ideal,), _ = stack.top_integral([0.0], [1.0])
        assert ideal == pytest.approx(sums.sum() + tail / y_max, rel=4 * quadrature._EPS, abs=0)

    def test_build_count_fixed_at_construction(self):
        # a shared stack must not carry one caller's top integrals into the next
        for stack in _radial_pair(3, 2.5, 0.04):
            built = stack.n_evals
            _, (first,) = stack.top_integral([0.04], [0.96])
            _, (again,) = stack.top_integral([0.04], [0.96])
            assert first == again > 0
            assert stack.n_evals == built > 0


class TestSchlafliSlope:
    """Schlafli's differential read off one radial level at every n up to 24.

    With x = sin^2 t and v = 1 - x, the level identity gives the volume's
    slope as one read of level n - 1: dV_n/dx = (c_n/2) g(v), where
    g(v) = x^((n-2)/2) den^(-p) I_{n-1}(v / den), den = v/n^2 + 1 - 1/n^2
    and p = (n+1)/2.  Schlafli's differential gives it from the
    C(n+1, 2) codimension-2 faces, regular (n-2)-simplices with
    x'' = x (n+1)/n / s and 1 - x'' = v (n-1)/(n-2) / s,
    s = 1 + x/n + v/(n-2):

        dV_n/dx = C(n+1, 2)/(n-1) V_{n-2}(x'') n(n+1) / ((n^2 - x)^2 sin alpha),

    cos alpha = (n + x)/(n^2 - x), so (n^2 - x) sin alpha is
    sqrt((n^2 - n - 2x)(n^2 + n)).  At n = 3 the faces are edges,
    V_1 = d = acosh(1 + x (n+1)/n / v).  V_{n-2} comes from the
    orthoscheme chain up to n - 2 = 12 and from a radial pair beyond,
    where the chain drifts past its bar."""

    TS = np.array([0.05, 0.3, 0.8, 1.2, 1.5, math.pi / 2 - 1e-3])

    @staticmethod
    def chop_bar(stack, levels):
        # each series level's log carries its chop plateau, _CHOP_TOL times
        # its largest coefficient, and a relative error in I_{k-1} reaches
        # I_k at most unchanged (positive weights), so the top level
        # carries at most their sum, relative; levels 1 and 2 are closed
        # forms at every p >= 3/2 read here
        return quadrature._CHOP_TOL * sum(max(map(abs, stack._series[k]))
                                          for k in range(3, levels + 1))

    def sides(self, n):
        """For the hi stacks, then the lo ones: the slope read off level
        n - 1 and Schlafli's side, each with its bar short of the lo/hi gap."""
        x, v = np.sin(self.TS) ** 2, np.cos(self.TS) ** 2
        p, m = (n + 1) / 2, n - 2
        den = v / n**2 + 1 - 1 / n**2
        lo, hi = _radial_pair(n - 1, p, float(v.min()))
        if n == 3:
            cosh_m1 = x * (n + 1) / n / v
            faces = [(np.log1p(cosh_m1 + np.sqrt(cosh_m1 * (cosh_m1 + 2))), 0.0)] * 2
        else:
            s = 1 + x / n + v / m
            x2, v2 = x * (n + 1) / n / s, v * (n - 1) / m / s
            if m <= 12:
                ests = [volume_orthoscheme(SimplexParams(m, float(t)))
                        for t in np.arctan2(np.sqrt(x2), np.sqrt(v2))]
                faces = [(np.array([e.value for e in ests]),
                          np.array([e.error_estimate for e in ests]))] * 2
            else:
                faces = []
                for stack in _radial_pair(m - 1, (m + 1) / 2, float(v2.min()))[::-1]:
                    face, _ = stack.top_integral(v2, x2)
                    faces.append((face, self.chop_bar(stack, m - 1) * face))
        pre = _cone_factor(n) / 2 * x ** (m / 2) * den ** -p
        factor = math.comb(n + 1, 2) / (n - 1) * n * (n + 1) / (
            (n * n - x) * np.sqrt((n * n - n - 2 * x) * (n * n + n)))
        out = []
        for stack, (face, face_bar) in zip((hi, lo), faces):
            slope = pre * stack.level_value(n - 1, v / den)
            out.append([slope, self.chop_bar(stack, n - 1) * slope,
                        factor * face, factor * face_bar])
        return out

    def test_level_slope_matches_the_faces(self):
        # the bound is both sides' bars: each radial side's lo/hi gap plus
        # its chop term, the orthoscheme face's own error estimate, and 16
        # ulps for the closed-form factors (powers up to p = 12.5).  With
        # the lo settings in place of the hi ones the gaps read 0, and the
        # lo levels' under-resolution shows from n = 17 on
        misses = []
        for n in range(3, 25):
            # rows: the hi stacks, then the lo ones
            slope, slope_bar, face, face_bar = np.swapaxes(self.sides(n), 0, 1)
            off = np.abs(slope - face)
            bar = slope_bar + face_bar + 16 * quadrature._EPS * face
            gaps = np.abs(slope[0] - slope[1]) + np.abs(face[0] - face[1])
            assert np.all(off[0] <= gaps + bar[0]), (n, off[0] / (gaps + bar[0]))
            if np.any(off[1] > bar[1]):
                misses.append(n)
        assert misses and min(misses) >= 17 and max(misses) == 24


class TestLevelValue:
    def test_float_list_and_array_agree(self):
        # level_value is public: a float, a list and an array of 1 - sigma^2
        # give the same bits, inside [theta_min, 0] and clipped outside it
        for stack in _radial_pair(3, 2.0, 0.04):
            ws = [0.3, 1.0, 0.04, 1e-3, 0.0, 1.0 + 1e-15]
            for k in range(4):
                as_list = stack.level_value(k, ws)
                as_array = stack.level_value(k, np.array(ws).reshape(1, -1))
                assert as_list.shape == (len(ws),) and as_array.shape == (1, len(ws))
                assert as_list.tobytes() == as_array.tobytes()
                for i, w in enumerate(ws):
                    one = stack.level_value(k, w)
                    assert np.ndim(one) == 0
                    assert np.float64(one).tobytes() == as_list[i].tobytes(), (k, w)
                # theta clips to 0 above w = 1 and to theta_min = log 0.04 below it
                assert as_list[-1] == as_list[1] and as_list[-2] == as_list[3]


class TestChebval:
    @pytest.mark.parametrize("size", [1, 2, 3, 17, 140])
    @pytest.mark.parametrize("domain", [(-50.2, 0.0), (0.0, 1.3)])
    def test_bitwise_equal_to_numpy(self, size, domain):
        rng = np.random.default_rng(size)
        series = np.polynomial.Chebyshev(rng.standard_normal(size) * 0.7 ** np.arange(size),
                                         domain=domain)
        off, scl = series.mapparms()
        x = np.concatenate((domain, [0.0], rng.uniform(*domain, 200)))
        for points in (x, x[:1], x.reshape(-1, 7)):
            mapped = off + scl * points
            kept = mapped.copy()
            got, want = _chebval(series.coef.tolist(), mapped), series(points)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert mapped.tobytes() == kept.tobytes()


class TestAntiderivative:
    """The test-side Chebyshev antiderivative (`oracles.chebyshev_antiderivative`),
    which a per-level series oracle integrates with."""

    @pytest.mark.parametrize("size", [*range(1, 41), 100, 513])
    @pytest.mark.parametrize("domain", [(0.0, 1.3), (0.0, 47.5), (0.0, 3e-4)])
    def test_bitwise_equal_to_numpy(self, size, domain):
        rng = np.random.default_rng(size)
        series = np.polynomial.Chebyshev(
            rng.standard_normal(size) * 0.8 ** np.arange(size) * 10.0 ** rng.uniform(-6, 6),
            domain=domain)
        kept = series.coef.copy()
        got, want = chebyshev_antiderivative(series.coef, 2 / domain[1]), series.integ(lbnd=0)
        assert got.tobytes() == want.coef.tobytes()
        assert series.coef.tobytes() == kept.tobytes()


def run_fresh(script, env):
    """The standard output of ``script`` run in a fresh interpreter."""
    env = {**env, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestGaussRule:
    def test_bitwise_equal_to_numpy(self):
        # the two orders the engines use, mirrored from their nonnegative half
        for order in (9, 14):
            x, w = np.polynomial.legendre.leggauss(order)
            got = quadrature._gauss01(order)
            assert got[0].tobytes() == ((x + 1.0) / 2).tobytes(), order
            assert got[1].tobytes() == (w / 2).tobytes(), order

    def test_volume_paths_leave_numpy_polynomial_and_fft_unloaded(self):
        # importing numpy.polynomial costs a fresh process about 6 ms, and
        # numpy.fft about 1.4 ms
        script = "\n".join([
            "import math, sys",
            "from hypervol import SimplexParams, cli, volume_projective",
            "volume_projective(SimplexParams(3, math.pi / 2))",
            "cli.main(['volume', '--n', '4', '--t', '1.0', '--method', 'all'])",
            "cli.main(['sweep', '--n-list', '3', '--t-list', '0.5'])",
            "assert 'numpy.polynomial' not in sys.modules",
            "assert 'numpy.fft' not in sys.modules",
        ])
        run_fresh(script, os.environ)


def test_import_builds_no_table():
    # the cached tables come on first use, so a process that only imports
    # the package and its CLI (perfbench's set-up) builds none of them
    script = "\n".join([
        "import hypervol, hypervol.cli",
        "from hypervol import quadrature as q",
        "caches = (q._dct_matrix, q._chop_plan, q._chop_tilt, q._sin_squared, q._gauss01,",
        "          q._panels_toward_one)",
        "print([f.cache_info().currsize for f in caches])",
    ])
    assert run_fresh(script, os.environ) == "[0, 0, 0, 0, 0, 0]\n"


def rfft_coefficients(values):
    """A level's coefficients by the route `_dct_matrix` replaced: the real
    FFT of the values' even extension, scaled as the matrix is."""
    coef = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / (values.size - 1)
    coef[0] /= 2
    coef[-1] /= 2
    return coef


class TestDctMatrix:
    """The coefficients of a round are one product with the cached DCT-I
    matrix of its N.  On random values at every size a level may sample,
    the powers of two up to _MAX_DEGREE, and on the rounds of the ideal
    n = 5 pair, they stay within 4 eps max|values| of the FFT route's."""

    SIZES = [2 ** j for j in range(1, 10)]

    @staticmethod
    def assert_matches_rfft(values):
        got = quadrature._dct_matrix(values.size - 1) @ values
        bound = 4 * quadrature._EPS * np.abs(values).max()
        assert np.abs(got - rfft_coefficients(values)).max() <= bound, values.size - 1
        return got

    def test_matches_the_rfft_route_on_random_values(self):
        rng = np.random.default_rng(26)
        for n in self.SIZES:
            self.assert_matches_rfft(rng.standard_normal(n + 1))

    def test_matches_the_rfft_route_on_ideal_levels(self, monkeypatch):
        # every round of the ideal n = 5 pair's series levels 3 and 4
        # (N = 32, 64): the two routes agree on whether the chop finds a
        # plateau, which fixes the rounds and n_evals.  The kept count may
        # move inside the plateau, within 3 of where the chop of the exact
        # coefficients of the same values cuts (the lo stack's level 3 keeps
        # 47 of 65 where they keep 50).  The FFT route's own rounding moves
        # it further: there it rounds the last three coefficients to 0
        # where the exact ones are about 1e-17 of c_0, and its chop keeps
        # 62.  Both chopped series give the same values
        rounds = []
        chebyshev_series = quadrature._chebyshev_series

        def recorded(sample, start):
            return chebyshev_series(lambda n: rounds.append(sample(n)) or rounds[-1], start)

        monkeypatch.setattr(quadrature, "_chebyshev_series", recorded)
        _radial_pair(4, 3.0, 0.0)
        assert sorted({v.size - 1 for v in rounds}) == [32, 64]
        for values in rounds:
            got, want = self.assert_matches_rfft(values), rfft_coefficients(values)
            keep, keep_fft = _standard_chop(got), _standard_chop(want)
            assert (keep < values.size) == (keep_fft < values.size)
            assert abs(keep - _standard_chop(chebyshev_coefficients(values))) <= 3
            x = np.cos(np.pi / (values.size - 1) * np.arange(values.size))
            off = _chebval(got[:keep].tolist(), x) - _chebval(want[:keep_fft].tolist(), x)
            assert np.abs(off).max() <= 2 * quadrature._CHOP_TOL * np.abs(values).max()

    def test_values_do_not_depend_on_blas_threads(self):
        # the coefficient products reach 129 x 129 at the ideal n = 5 and
        # n = 8 levels, where OpenBLAS may split a product over threads
        script = "\n".join([
            "import math",
            "from hypervol import SimplexParams, cli, volume_projective",
            "print(repr(volume_projective(SimplexParams(5, math.pi / 2))))",
            "cli.main(['volume', '--n', '8', '--t', '1.2', '--method', 'all'])",
        ])
        unset = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        threaded = run_fresh(script, unset)
        assert threaded.count("\n") >= 4
        assert threaded == run_fresh(script, {**unset, "OPENBLAS_NUM_THREADS": "1"})

    def test_mask_is_the_mod(self):
        # the entries are looked up at m j & (2N - 1), which is m j mod 2N
        # for N a power of two; the table lookup by mod gives the same bits
        for n in self.SIZES[3:]:
            r = np.arange(n + 1)
            q = np.minimum(r, n - r)
            octant = np.where(4 * q <= n, np.cos(np.pi / n * q),
                              np.sin(np.pi / (2 * n) * (n - 2 * q)))
            table = np.where(2 * r <= n, octant, -octant) * (2.0 / n)
            want = np.concatenate((table, table[-2:0:-1]))[np.multiply.outer(r, r) % (2 * n)]
            want[:, [0, n]] /= 2
            want[[0, n]] /= 2
            assert quadrature._dct_matrix(n).tobytes() == want.tobytes(), n

    def test_refuses_a_size_not_a_power_of_two(self):
        for n in (3, 24, 96):
            with pytest.raises(AssertionError, match="not a power of two"):
                quadrature._dct_matrix(n)

    def test_read_only_and_exactly_symmetric(self):
        # column N - j is column j times (-1)^m, row N - m is row m times (-1)^j
        for n in self.SIZES:
            mat = quadrature._dct_matrix(n)
            assert not mat.flags.writeable
            sign = 1.0 - 2 * (np.arange(n + 1) % 2)
            assert (mat[:, ::-1] == mat * sign[:, None]).all(), n
            assert (mat[::-1] == mat * sign).all(), n


class TestEngineMaps:
    """Each engine maps its variable to [-1, 1] by constants its interval
    fixes, with the origin at x = 1.  A radial level reads 1 - 2 u(theta)
    with u = log1p(-theta / c) / log1p(-theta_min / c), exact at both
    ends, and `_chebval` stays bitwise equal to numpy's chebval at the
    mapped points."""

    @staticmethod
    def mapped_reads(monkeypatch):
        """Record the points and values of every `_chebval` call, each value
        checked bitwise against numpy's chebval at the same points."""
        reads = []

        def recorded(c, x):
            got = _chebval(c, x)
            want = np.polynomial.chebyshev.chebval(x, c)
            assert got.tobytes() == want.tobytes()
            reads.append((x.copy(), got))
            return got

        monkeypatch.setattr(quadrature, "_chebval", recorded)
        return reads

    @pytest.mark.parametrize("w_floor", [0.0, 1e-30, 1e-6, 0.04, 0.36, 0.9, 1.0 - 1e-18])
    def test_radial_stack_reads_its_levels_as_numpy(self, w_floor, monkeypatch):
        stacks = _radial_pair(4, 2.0, w_floor)
        reads = self.mapped_reads(monkeypatch)
        for stack in stacks:
            # u(0) = 0 and u(theta_min) = 1 exactly: w = 1 reads x = 1, and
            # w = 0 clips to theta_min, which reads x = -1; levels 1 and 2
            # read no series
            for k in range(3, 5):
                del reads[:]
                values = stack.level_value(k, np.array([1.0, 0.0]))
                (x, got), = reads
                assert x.tolist() == [1.0, -1.0]
                assert values.tobytes() == np.exp(got).tobytes()
            # the build samples theta(u_j) = -c expm1(u_j log1p(-theta_min / c))
            # at u_j = sin^2(pi j / 2N), clipped to theta_min; level_value
            # maps those thetas back to within a few ulps of cos(pi j / N),
            # beyond what the round trip w = exp(theta), log w moves them
            # (dx/dtheta = 2 / ((c - theta) L))
            c = quadrature._STRETCH
            span = math.log1p(-stack.theta_min / c)
            for size in (17, 129, 513):
                j = np.arange(size)
                u = np.sin(np.pi / (2 * (size - 1)) * j) ** 2
                theta = np.maximum(-c * np.expm1(u * span), stack.theta_min)
                moved = np.abs(np.log(np.exp(theta)) - theta) * 2 / ((c - theta) * span)
                del reads[:]
                stack.level_value(3, np.exp(theta))
                (x, _), = reads
                off = np.abs(x - np.cos(np.pi / (size - 1) * j)) - moved
                assert off.max() <= 8 * quadrature._EPS, (w_floor, size)

    @pytest.mark.parametrize("w_floor", [0.0, 1e-30, 1e-6, 0.04, 0.36, 0.9, 1.0 - 1e-18])
    def test_level_value_maps_in_place_as_the_formula(self, w_floor):
        # level_value maps its points in one buffer and divides by L / 2
        # where the formula divides by L and doubles, which is exact
        rng = np.random.default_rng(30)
        w = np.concatenate(([0.0, 1e-300, 1.0, 1.0 + 1e-15], rng.uniform(0.0, 1.0, 5000),
                            10.0 ** -rng.uniform(0.0, 40.0, 4996)))
        c = quadrature._STRETCH
        for stack in _radial_pair(4, 2.0, w_floor):
            theta = np.minimum(np.maximum(np.log(np.maximum(w, 1e-300)), stack.theta_min), 0.0)
            x = 1 - 2 * (np.log1p(theta / -c) / stack._span)
            for k in range(3, 5):
                want = np.exp(_chebval(stack._series[k], x))
                assert stack.level_value(k, w).tobytes() == want.tobytes(), (w_floor, k)

    def test_radial_map_at_random_theta_min(self, monkeypatch):
        # the ends of the u map are exact wherever theta_min falls: a
        # three-level stack reads level 3, its one series, at w = 1 at
        # x = 1 and at its floor at x = -1
        rng = np.random.default_rng(6)
        settings = quadrature._RadialSettings(9)
        floors = [-50.2, -46.1, -1e-9, *-10.0 ** rng.uniform(-9, 2.5, 200)]
        stacks = [quadrature.RadialPowerStack(3, 1.5, theta_min, settings) for theta_min in floors]
        reads = self.mapped_reads(monkeypatch)
        for stack in stacks:
            del reads[:]
            stack.level_value(3, np.array([1.0, 0.0]))
            (x, _), = reads
            assert x.tolist() == [1.0, -1.0], stack.theta_min

    def test_sin_squared_table_is_the_formula(self):
        # the points of every round read one cached table per N
        for n in range(16, 513):
            table = quadrature._sin_squared(n)
            assert not table.flags.writeable
            want = np.sin(np.pi / (2 * n) * np.arange(n + 1)) ** 2
            assert table.tobytes() == want.tobytes(), n

    def test_doubled_grid_keeps_the_old_points(self):
        # the even-indexed points of a round at 2N are those of the round
        # at N bit for bit, in the u of both engines
        for n in range(2, 513):
            assert quadrature._sin_squared(2 * n)[::2].tobytes() == \
                quadrature._sin_squared(n).tobytes(), n

    def test_no_numpy_chebyshev_is_built(self, monkeypatch):
        # a level is its coefficient list: no volume route builds numpy's
        # Chebyshev wrapper, on either engine
        def refuse(self, *args, **kwargs):
            raise AssertionError("a numpy Chebyshev was built")

        monkeypatch.setattr(np.polynomial.Chebyshev, "__init__", refuse)
        params = SimplexParams(4, 0.9)
        for volume in (volume_projective, volume_orthoscheme, volume_halfspace):
            assert volume(params).value > 0.0
        assert growth_ratio(SimplexParams(5, 1.1)).value > 0.0


def chop_oracle(coef):
    return standard_chop(coef, quadrature._CHOP_TOL)


class TestStandardChop:
    @pytest.mark.parametrize("rate", [0.5, 0.7, 0.8])
    def test_cuts_at_the_plateau_onset(self, rate):
        # geometric decay onto a noise plateau at 1e-15
        rng = np.random.default_rng(0)
        coef = np.maximum(rate ** np.arange(400), 1e-15 * (1.0 + rng.random(400)))
        onset = math.log(1e-15) / math.log(rate)
        assert 0.9 * onset <= _standard_chop(coef) <= onset + 2

    def test_no_plateau_keeps_every_coefficient(self):
        assert _standard_chop(1.0 / (np.arange(100) + 1.0) ** 2) == 100

    def test_zeros_keep_one(self):
        assert _standard_chop(np.zeros(40)) == 1

    def test_vectorized_scan_matches_the_loop(self):
        rng = np.random.default_rng(14)
        kinds = ("plateau", "zero tail", "zeros", "no plateau")
        for i in range(2400):
            kind, n = kinds[i % 4], int(rng.integers(2, 300))
            rate = rng.uniform(0.3, 0.98)
            decay = rate ** np.arange(n) * rng.choice([-1.0, 1.0], n)
            if kind == "plateau":
                noise = 10.0 ** rng.uniform(-18, -9)
                coef = decay + noise * rng.standard_normal(n)
            elif kind == "zero tail":
                coef = np.where(np.arange(n) < rng.integers(0, n + 1), decay, 0.0)
            elif kind == "zeros":
                coef = np.zeros(n)
            else:
                coef = rng.standard_normal(n) / (np.arange(n) + 1.0) ** rng.uniform(0, 3)
            assert _standard_chop(coef) == chop_oracle(coef), (i, kind, n)

    @pytest.mark.parametrize("coef, keep", [
        (np.ones(1), 1),
        (np.zeros(5), 5),                                   # n < 17 keeps all
        (0.1 ** np.arange(16), 16),
        (np.zeros(17), 1),                                  # all zeros keep one
        (np.zeros(513), 1),
        (np.where(np.arange(60) < 9, 0.5 ** np.arange(60), 0.0), 9),   # zero tail
        (np.where(np.arange(17) < 1, 1.0, 0.0), 1),
        (np.where(np.arange(513) < 400, 0.9 ** np.arange(513), 0.0), None),
        (1.0 / (np.arange(100) + 1.0) ** 2, 100),           # no plateau
        (1.0 / (np.arange(513) + 1.0), 513),
    ])
    def test_edge_cases_match_the_loop(self, coef, keep):
        assert _standard_chop(coef) == chop_oracle(coef)
        assert keep is None or _standard_chop(coef) == keep

    def test_tables_equal_the_formulas_they_replace(self):
        # the pairs' ends are a view of the plan for _MAX_DEGREE + 1, and
        # the tilt a ramp times its step, bit for bit at every size
        for n in range(1, quadrature._MAX_DEGREE + 2):
            j2 = np.floor(1.25 * np.arange(2, n + 1) + 5.5).astype(int)
            got, want = quadrature._chop_plan(n), j2[j2 <= n] - 1
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n
        for size in range(2, quadrature._MAX_DEGREE + 2):
            want = np.linspace(0.0, quadrature._CHOP_TILT, size)
            assert quadrature._chop_tilt(size).tobytes() == want.tobytes(), size


class TestLevelOne:
    """Level 1 is 2 K_p in closed form (`quadrature._level_one`), checked
    against a 30-digit mpmath quadrature of its integral
    (`level_one_integral`) from w = 1 - 1e-12 down to the ideal hi
    stack's floor e^theta_min, at both kinds of p in Z/2 from 1/2 up to
    the n = 24 projective p = 25/2."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 2.5, 6.5, 12.5])
    def test_matches_a_30_digit_quadrature(self, p):
        _, hi = _radial_pair(1, p, 0.0)
        for w in (1.0 - 1e-12, 0.5, 1e-3, math.exp(hi.theta_min)):
            got = hi.level_value(1, w)
            ref = level_one_integral(p, w)
            # the recurrence adds at most p + 1 positive terms
            assert abs(got - ref) <= 2 * quadrature._EPS * (p + 1) * ref, (p, w)


class TestLevelTwo:
    """Level 2 is a closed form for p >= 3/2 (`quadrature._level_two`),
    checked against a 30-digit mpmath quadrature of its integral
    (`level_two_integral`) from w = 1 - 1e-12 down to the ideal hi
    stack's floor e^theta_min, at both kinds of p in Z/2 up to the n = 24
    projective p = 25/2."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 6.5, 12.5])
    def test_matches_a_30_digit_quadrature(self, p):
        _, hi = _radial_pair(2, p, 0.0)
        assert hi._series[2] is None
        for w in (1.0 - 1e-12, 0.5, 1e-3, math.exp(hi.theta_min)):
            got = hi.level_value(2, w)
            ref = level_two_integral(p, w)
            # the recurrence adds at most p + 1 positive terms
            assert abs(got - ref) <= 2 * quadrature._EPS * (p + 1) * ref, (p, w)


def test_stack_refuses_a_power_below_its_closed_levels():
    # levels 1 and 2 have no series to fall back on: level 1 needs
    # p >= 1/2 and level 2 p >= 3/2, where their recurrences start
    settings = quadrature._RadialSettings(14)
    for levels, p in ((1, 0.0), (2, 1.0), (5, 0.5)):
        with pytest.raises(AssertionError, match="below the closed form"):
            quadrature.RadialPowerStack(levels, p, -1.0, settings)
    for levels, p in ((0, 0.5), (1, 0.5), (2, 1.5)):
        quadrature.RadialPowerStack(levels, p, -1.0, settings)


class TestChoppedLevels:
    def test_level_one_reads_its_closed_form(self):
        # level 1 of (dim, p) = (2, 3/2) is 2 / sqrt(1 - sigma^2)
        for stack in _radial_pair(1, 1.5, 0.3):
            w = np.exp(np.linspace(stack.theta_min, 0.0, 1001))
            got = stack.level_value(1, w)
            assert np.abs(got * np.sqrt(w) / 2 - 1).max() <= 4 * quadrature._EPS

    def test_u_map_keeps_fewer_ideal_coefficients(self):
        # over their series levels 3 and up, the hi stacks of n = 3..12
        # keep 4,255 coefficients in all at the ideal floor and 3,123 at
        # five finite t when those levels are series in theta; in u the
        # ideal sum falls by at least 30% and the finite one rises by at
        # most 5%
        def kept(w_floor):
            his = (_radial_pair(n - 1, (n + 1) / 2, w_floor)[1] for n in range(3, 13))
            return sum(len(level) for hi in his for level in hi._series[3:])

        assert kept(0.0) <= 0.7 * 4255
        finite = sum(kept(math.cos(t) ** 2) for t in (0.05, 0.3, 0.8, 1.2, 1.5))
        assert finite <= 1.05 * 3123

    def test_ideal_levels_stop_well_below_the_cap(self, monkeypatch):
        # every series level of the ideal n = 5 stacks finds its plateau by
        # N = 64; a fixed high degree coming back would sample 513 points
        sampled, densities = [], []
        chebyshev_series = quadrature._chebyshev_series
        density = quadrature.RadialPowerStack._density

        def counted(sample, start):
            rounds = []
            series = chebyshev_series(lambda n: rounds.append(n) or sample(n), start)
            sampled.append(rounds)
            return series

        def counted_density(self, k, panels):
            densities.append(self)
            return density(self, k, panels)

        monkeypatch.setattr(quadrature, "_chebyshev_series", counted)
        monkeypatch.setattr(quadrature.RadialPowerStack, "_density", counted_density)
        for stack in _radial_pair(4, 3.0, 0.0):
            rounds, sampled[:2] = sampled[:2], []
            assert max(n for r in rounds for n in r) + 1 <= 65
            assert max(len(stack._series[k]) for k in range(3, 5)) <= 64
            # each round sums one panel of order points between each pair
            # of its N + 1 points, afresh: order x the sum of N over rounds
            assert stack.n_evals == sum(map(sum, rounds)) * stack.settings.order
            # levels 1 and 2 are closed forms, so level 3 is the first
            # series; level 4 starts where level 3 stopped and finds the
            # plateau there, each round one pass over the level below
            assert rounds[0][0] == 32 and [len(r) for r in rounds[1:]] == [1]
            assert sum(d is stack for d in densities) == sum(len(r) for r in rounds)


class TestMonteCarlo:
    def test_constant_integrand(self):
        value, stderr = monte_carlo_simplex(3, 0.8, lambda x: np.ones(len(x)), 1000)
        assert value == pytest.approx(euclidean_simplex_volume(3, 0.8), rel=1e-14)
        assert stderr == 0.0

    def test_oracles_load_without_the_package(self):
        # perfbench loads tests/oracles.py in a process without src on the path
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        subprocess.run(
            [sys.executable, "-c", "import oracles, sys; assert 'hypervol' not in sys.modules"],
            cwd=Path(__file__).parent, env=env, check=True)

    def test_euclidean_volume_formula(self):
        for n in range(1, 7):
            assert euclidean_simplex_volume(n) == pytest.approx(
                regular_simplex_volume_by_edge(n), rel=1e-13)

    def test_area_estimate(self):
        # radial power 0 over the full triangle: exact area, zero variance
        p = 0.0
        value, _ = monte_carlo_simplex(
            2, 1.0, lambda x: (1.0 - np.einsum("ij,ij->i", x, x)) ** (-p), 100_000)
        assert value == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, rel=1e-13)

    def test_deterministic(self):
        f = lambda x: np.exp(-np.einsum("ij,ij->i", x, x))
        a = monte_carlo_simplex(3, 0.9, f, 50_000, seed=42)
        b = monte_carlo_simplex(3, 0.9, f, 50_000, seed=42)
        assert a == b

    def test_seed_changes_stream(self):
        f = lambda x: np.exp(-np.einsum("ij,ij->i", x, x))
        a, _ = monte_carlo_simplex(3, 0.9, f, 10_000, seed=1)
        b, _ = monte_carlo_simplex(3, 0.9, f, 10_000, seed=2)
        assert a != b

    def test_unbiased_against_adaptive(self):
        f = lambda x: (1.0 - 0.5 * np.einsum("ij,ij->i", x, x)) ** -1.5
        mc, mc_err = monte_carlo_simplex(2, 0.9, f, 400_000, seed=3)
        ada = integrate_simplex_radialpow(2, 0.9 / math.sqrt(2))
        # rescale: (1 - |x|^2/2)^(-3/2) over 0.9 S(2) is (1 - |y|^2)^(-3/2)
        # over (0.9/sqrt 2) S(2) times the Jacobian 2
        ref = ada.value * math.sqrt(2.0) ** 2
        assert abs(mc - ref) <= 4.0 * mc_err
