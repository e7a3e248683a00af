import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from hypervol import integrate_simplex_radialpow, quadrature
from hypervol.bounds import growth_ratio_grid
from hypervol.volume_forms import _projective_job
from hypervol import (
    ConvergenceError,
    DegenerateGeometryError,
    DomainError,
    QuadratureConfig,
    QuasiRegularParams,
    SimplexParams,
    cosh_power_antiderivative,
    halfspace_embedding,
    ladder,
    richardson_limit,
    volume_halfspace,
    volume_halfspace_general,
    volume_orthoscheme,
    volume_projective,
    zn_bounds,
)

from oracles import (
    IDEAL_TET,
    SCHLAFLI_VOLUMES,
    gauss_bonnet_triangle_area,
    ideal_tetrahedron_volume,
    mp_integral,
    schlafli_digits,
    schlafli_volume,
)

T35 = math.asin(0.6)
FORMS = (volume_projective, volume_orthoscheme, volume_halfspace)


def facet_row(params):
    """The facet volume of tau[n, t], n >= 3: the facet row of its
    one-cell growth-ratio grid, the package's one facet path."""
    return growth_ratio_grid([params])[0][2]


def test_lobachevsky_oracle_self_consistent():
    assert ideal_tetrahedron_volume() == pytest.approx(IDEAL_TET, abs=1e-14)


class TestAntiderivative:
    def test_f1(self):
        assert cosh_power_antiderivative(1, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_zero_point(self):
        for m in range(13):
            assert cosh_power_antiderivative(m, 0.0) == 0.0

    def test_f2_closed_form(self):
        assert cosh_power_antiderivative(2, 1.0) == pytest.approx(
            0.5 + math.sinh(2.0) / 4.0, rel=1e-15)

    def test_f0_is_identity(self):
        assert cosh_power_antiderivative(0, 0.73) == pytest.approx(0.73, abs=1e-16)

    @pytest.mark.parametrize("m", range(13))
    def test_matches_quadrature(self, m):
        ref = mp_integral(lambda x: mp.cosh(x) ** m, 0, 2)
        val = cosh_power_antiderivative(m, 2.0)
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(val))

    def test_derivative_property(self):
        # finite differences of F_m recover cosh^m
        for m in (3, 6):
            h = 1e-5
            for x in (0.3, 1.1):
                fd = (cosh_power_antiderivative(m, x + h)
                      - cosh_power_antiderivative(m, x - h)) / (2 * h)
                assert fd == pytest.approx(math.cosh(x) ** m, rel=1e-9)

    def test_rejects_bad_power(self):
        with pytest.raises(DomainError):
            cosh_power_antiderivative(-1, 1.0)


class TestAlphaChain:
    """Coefficients c_k = tanh d_{k+1} / sinh d_k of the orthoscheme limits
    alpha_k(x) = atanh(c_k sinh x), read off the ladder as
    `volume_orthoscheme` reads them (0-based: tanh_d[k] / sinh_d[k-1])."""

    def test_coefficient_value(self):
        lad = ladder(SimplexParams.from_sin_t(3, 0.6))
        # tanh d_3 / sinh d_2 = sqrt(11)/5, the closed-form rung ratio
        assert lad.tanh_d[2] / lad.sinh_d[1] == pytest.approx(math.sqrt(11) / 5, rel=1e-13)

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("t", [0.2, 0.8, 1.3, 1.55])
    def test_last_coefficient_closed_form(self, n, t):
        s = math.sin(t)
        lad = ladder(SimplexParams(n, t))
        expect = math.sqrt((n - 1) / (n + 1)) * math.sqrt(1 - 2 * s * s / (n * (n - 1)))
        assert abs(lad.tanh_d[n - 1] / lad.sinh_d[n - 2] - expect) <= 1e-12


class TestOrthoscheme:
    def test_zero_t(self):
        assert volume_orthoscheme(SimplexParams(5, 0.0)).value == 0.0

    def test_triangle_gauss_bonnet(self):
        est = volume_orthoscheme(SimplexParams(2, T35))
        assert est.value == pytest.approx(
            gauss_bonnet_triangle_area(math.atanh(0.6)), abs=1e-12)

    def test_ideal_tetrahedron(self):
        est = volume_orthoscheme(SimplexParams(3, math.pi / 2))
        assert est.value == pytest.approx(IDEAL_TET, abs=1e-8)

    def test_extreme_near_ideal_boundary_layer(self):
        # pi/2 - t ~ 3e-7: in the native outer variable the integrand
        # lives in a boundary layer below d_1 ~ 16 that a plain tensor
        # rule quietly misses; the outer level's chopped series doubles
        # until it resolves it
        est = volume_orthoscheme(SimplexParams(3, 1.5707960))
        ref = volume_projective(SimplexParams(3, 1.5707960))
        assert est.value == pytest.approx(ref.value, rel=1e-9)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6, 1e-7])
    def test_near_ideal_triangle_gauss_bonnet(self, eps):
        # the outer integrand's layer below d_1 thins with eps; the
        # circumradius atanh(cos eps) is taken as -log(tan(eps/2)), since
        # atanh(sin t) loses digits there
        est = volume_orthoscheme(SimplexParams(2, math.pi / 2 - eps))
        gap = abs(est.value - gauss_bonnet_triangle_area(-math.log(math.tan(eps / 2))))
        assert gap <= min(est.error_estimate, 1e-9)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
    def test_near_ideal_triangle_exact(self, eps):
        # d_1 = r_1 diverges here; taken from its sine it keeps its digits,
        # so the value sits on Gauss-Bonnet at the eps the double t carries
        t = math.pi / 2 - eps
        eps = math.pi / 2 - t
        est = volume_orthoscheme(SimplexParams(2, t))
        ref = gauss_bonnet_triangle_area(-math.log(math.tan(eps / 2)))
        assert abs(est.value - ref) <= 1e-13

    @pytest.mark.parametrize("n", range(2, 13))
    def test_ideal_cut_meets_the_last_float_below(self, n):
        # the ideal point's d_1 = inf is cut at 40; the float below pi/2
        # has d_1 = 36.3, so the two volumes differ by rounding alone
        ideal = volume_orthoscheme(SimplexParams(n, math.pi / 2))
        below = volume_orthoscheme(SimplexParams(n, math.nextafter(math.pi / 2, 0)))
        assert abs(ideal.value - below.value) <= ideal.error_estimate + below.error_estimate

    def test_beyond_twelve_matches_projective(self):
        # the level stack costs n series, not order^n points, so n = 13 runs
        p = SimplexParams(13, 0.5)
        est = volume_orthoscheme(p)
        ref = volume_projective(p)
        assert est.value == pytest.approx(ref.value, rel=1e-10)


class TestProjective:
    def test_zero_t(self):
        # the radial engine returns the zero volume of scale 0
        est = volume_projective(SimplexParams(3, 0.0))
        assert (est.value, est.error_estimate, est.n_evals) == (0.0, 0.0, 0)

    def test_triangle_gauss_bonnet(self):
        est = volume_projective(SimplexParams(2, T35))
        assert est.value == pytest.approx(
            gauss_bonnet_triangle_area(math.atanh(0.6)), abs=1e-12)

    def test_ideal_tetrahedron(self):
        # levels 1 and 2 in closed form leave only the top integral, and
        # the value lands on IDEAL_TET's float; the bound is two ulps
        est = volume_projective(SimplexParams(3, math.pi / 2))
        assert abs(est.value - IDEAL_TET) <= 4.4e-16 * IDEAL_TET

    def test_ideal_triangle(self):
        # the top integral adds the leading term of the tail beyond theta_min
        est = volume_projective(SimplexParams(2, math.pi / 2))
        assert est.value == pytest.approx(math.pi, rel=1e-14, abs=0)


    @pytest.mark.parametrize("form, n, t, evals", [
        (volume_projective, 3, 0.8, 759),
        (volume_projective, 5, 1.2, 2_231),
        (facet_row, 4, 0.8, 759),
        (volume_halfspace, 4, 1.0, 1_219),
        (volume_orthoscheme, 3, 0.8, 195),
        (volume_orthoscheme, 5, 1.2, 325),
    ])
    def test_n_evals_standalone(self, form, n, t, evals):
        # radial forms: the stack pair's build plus this call's own
        # top-level work, (32 + 1) x order per stack, and the build is
        # empty below three levels (levels 1 and 2 are closed forms), so
        # 759 = 33 x (9 + 14); orthoscheme: the
        # points of every round of every level, the outer one too.  The
        # same on every call
        p = SimplexParams(n, t)
        assert form(p).n_evals == form(p).n_evals == evals

    def test_n_evals_on_a_shared_pool(self):
        # each row of a batch counts the shared pair's build plus its own
        # top-level work: the whole y panels and its partial panel
        cells = [SimplexParams(3, t) for t in (0.4, 0.8, 1.2, math.pi / 2)]
        _, scale, w = zip(*map(_projective_job, cells))
        pair = quadrature._radial_pair(2, 2.0, 0.0)
        build = sum(stack.n_evals for stack in pair)
        for _ in range(2):
            rows = integrate_simplex_radialpow(3, scale, one_minus_scale_sq=w)
            for row, s, w_top in zip(rows, scale, w):
                own = sum(stack.top_integral([w_top], [s * s])[1][0] for stack in pair)
                assert row.n_evals == build + own
        assert rows[0].n_evals == rows[2].n_evals


class TestFacetProjective:
    """The grid's facet rows."""

    def test_ideal_facet_is_ideal_triangle(self):
        est = facet_row(SimplexParams(3, math.pi / 2))
        assert est.value == pytest.approx(math.pi, abs=1e-8)

    def test_facet_35(self):
        # the facet of tau[3, asin(3/5)] is the triangle with circumradius
        # atanh(1/sqrt 3)
        est = facet_row(SimplexParams(3, T35))
        assert est.value == pytest.approx(
            gauss_bonnet_triangle_area(math.atanh(1 / math.sqrt(3))), abs=1e-12)

    @pytest.mark.parametrize("n,t", [(3, 0.7), (4, 1.1), (5, 0.4)])
    def test_facet_consistency(self, n, t):
        """facet volume equals the (n-1)-simplex volume at sin t' = tanh r_{n-1}."""
        p = SimplexParams(n, t)
        lad = ladder(p)
        t_prime = math.asin(lad.tanh_r[n - 2])
        a = facet_row(p)
        b = volume_projective(SimplexParams(n - 1, t_prime))
        assert abs(a.value - b.value) <= 1e-8 * a.value


class TestZnBounds:
    def setup_method(self):
        self.emb = halfspace_embedding(SimplexParams.from_sin_t(3, 0.5))

    def test_center(self):
        lo, hi = zn_bounds(self.emb, np.zeros(2))
        assert lo == pytest.approx(1.0, abs=1e-14)
        assert hi == pytest.approx(math.sqrt(4.2), rel=1e-13)

    def test_vertex_collapse(self):
        lo, hi = zn_bounds(self.emb, self.emb.v[1])
        target = 9 * (0.75) / (9 - 0.25)     # n^2 cos^2 t / (n^2 - sin^2 t)
        assert hi**2 == pytest.approx(target, rel=1e-11)
        assert lo**2 == pytest.approx(target, rel=1e-11)
        assert hi - lo <= 1e-10

    def test_matches_literal_coefficient_form(self):
        # lo^2 + B(1-a) agrees with the expanded A - B a - |v|^2, where a
        # is 1 - n times the least barycentric weight of v in the facet
        emb = self.emb
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            v = w @ emb.v
            lo, hi = zn_bounds(emb, v)
            literal = (emb.height_sq_scale
                       - emb.height_sq_slope * (1 - 3 * w.min()) - float(v @ v))
            assert hi**2 == pytest.approx(literal, rel=1e-9)

    @pytest.mark.parametrize("delta", [0.0, 1e-12, 5e-11])
    def test_gauge_on_faces_shared_by_two_pieces(self, delta):
        # v on, or delta inside piece j of, the face that pieces i < j
        # share, where a search over the pieces with a tolerance on the
        # weights can pick piece i: a must still be 1 - n min(w)
        rng = np.random.Generator(np.random.Philox(key=8))
        for n in range(2, 13):
            emb = halfspace_embedding(SimplexParams(n, 0.7))
            for _ in range(100):
                w = rng.dirichlet(np.ones(n))
                i, j = sorted(rng.choice(n, 2, replace=False))
                w[i] = w[j] = w.min()
                w[j] -= delta
                w /= w.sum()
                lo, hi = zn_bounds(emb, w @ emb.v)
                a = 1 - (hi * hi - lo * lo) / emb.height_sq_slope
                assert abs(a - (1 - n * w.min())) <= 1e-14, (n, w)

    def test_scale_free_at_t_1e_300(self):
        # sigma^2 underflows to 0; the gauge reads v / sigma, so the center
        # is inside and a point past a vertex is outside
        emb = halfspace_embedding(SimplexParams(4, 1e-300))
        assert emb.sin_alpha ** 2 == 0.0
        assert zn_bounds(emb, np.zeros(3)) == (1.0, 1.0)
        assert zn_bounds(emb, emb.v[2]) == (1.0, 1.0)
        with pytest.raises(DomainError, match="outside the projected facet"):
            zn_bounds(emb, 1.01 * emb.v[2])

    def test_interior_strict(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        for _ in range(100):
            w = rng.dirichlet(np.ones(3) * 2.0)
            v = w @ self.emb.v
            lo, hi = zn_bounds(self.emb, v)
            assert lo < hi

    def test_outside_rejected(self):
        with pytest.raises(DomainError):
            zn_bounds(self.emb, np.array([10.0, 0.0]))
        with pytest.raises(DomainError):
            zn_bounds(self.emb, np.zeros(3))

    @pytest.mark.parametrize("n,t", [(3, 0.8), (4, 1.2), (5, 0.6)])
    def test_sandwich_points_inside_model_simplex(self, n, t):
        """Points (v, z) with z in [lo, hi] satisfy all n+1 facet-sphere
        inequalities of the half-space picture."""
        emb = halfspace_embedding(SimplexParams(n, t))
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(334):
            w = rng.dirichlet(np.ones(n))
            v = w @ emb.v
            lo, hi = zn_bounds(emb, v)
            assert lo <= hi + 1e-13
            for z in (lo + 1e-13, 0.5 * (lo + hi), hi - 1e-13):
                pt = np.append(v, z)
                assert pt @ pt >= 1.0 - 1e-9          # above the bottom hemisphere
                for i in range(n):
                    c = np.append(emb.centers[i], 0.0)
                    assert (pt - c) @ (pt - c) <= emb.gamma**2 * (1 + 1e-9)


class TestHalfspace:
    def test_matches_projective(self):
        a = volume_halfspace(SimplexParams(3, T35))
        b = volume_projective(SimplexParams(3, T35))
        assert abs(a.value - b.value) <= max(1e-6 * b.value, a.error_estimate + b.error_estimate)

    def test_positive(self):
        for n, t in ((2, 0.3), (4, 1.0), (6, 1.4)):
            assert volume_halfspace(SimplexParams(n, t)).value > 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            volume_halfspace(SimplexParams(3, 0.0))
        with pytest.raises(DegenerateGeometryError):
            volume_halfspace(SimplexParams(3, math.pi / 2))

    def test_near_ideal_extrapolation(self):
        eps = [1e-2, 1e-3, 1e-4]
        vals = [volume_halfspace(SimplexParams(3, math.pi / 2 - e)).value for e in eps]
        limit, _ = richardson_limit(eps, vals)
        assert limit == pytest.approx(IDEAL_TET, abs=1e-4)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_bar_covers_the_cancellation(self, n, monkeypatch):
        # T1 - T2 cancels about 1.1 / t of the digits: at n = 3 and
        # t = 1e-12 the value is 1.3e-4 off.  These volumes are 5e-7 and
        # far below, where the 1e-12 absolute floor would cover any error,
        # so the grid reads the bars without it; a row whose bar passes the
        # stall gate is read from its ConvergenceError
        monkeypatch.setattr(quadrature, "_ABS_TOL", 0.0)
        for t in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            params = SimplexParams(n, t)
            try:
                est = volume_halfspace(params)
            except ConvergenceError as exc:
                est = exc.estimate
            ref = volume_orthoscheme(params)
            assert abs(est.value - ref.value) <= est.error_estimate + ref.error_estimate, t

    def test_stalled_refinement_raises(self, stalled):
        # a crude low-fidelity stack leaves a fidelity gap above the stall
        # gate, which half-space shares with the projective form; n = 5
        # is the first with a series level (level 3)
        with pytest.raises(ConvergenceError) as info:
            volume_halfspace(SimplexParams(5, 1.5))
        est = info.value.estimate
        assert est.error_estimate > 1e-3 * est.value > 0.0

    def test_unresolved_level_raises(self, monkeypatch):
        # a radial level with no plateau by its cap stalls the volume, as an
        # unresolved nested level does.  Capped at N = 32 the lo stack's
        # level 3 of the ideal n = 5 pair, its first series (levels 1 and 2
        # are closed forms), has no plateau, and the pair stops there: the
        # stall carries no value, on an inf bar, and counts the one round of
        # 32 panels of 9 Gauss points it took.
        monkeypatch.setattr(quadrature, "_MAX_DEGREE", 32)
        with pytest.raises(ConvergenceError, match="level 3 has no plateau by N = 32") as info:
            volume_projective(SimplexParams(5, math.pi / 2))
        est = info.value.estimate
        assert math.isnan(est.value) and est.error_estimate == math.inf
        assert est.n_evals == 32 * 9


class TestHalfspaceGeneral:
    @pytest.mark.parametrize("n,t", [(2, 0.9), (3, T35), (3, 1.0), (4, 0.8), (5, 1.2)])
    def test_reduction_to_regular(self, n, t):
        p = SimplexParams(n, t)
        lad = ladder(p)
        q = QuasiRegularParams(n=n, r=float(lad.r[n - 1]), d=float(lad.d[n - 1]),
                               facet_circumradius=float(lad.r[n - 2]))
        general = volume_halfspace_general(q)
        regular = volume_halfspace(p)
        assert abs(general.value - regular.value) <= 1e-6 * regular.value

    def test_monotone_in_apex_distance(self):
        base = ladder(SimplexParams(3, 1.0))
        d, rf = float(base.d[2]), float(base.r[1])
        vols = [volume_halfspace_general(
            QuasiRegularParams(3, r, d, rf)).value for r in (0.8, 1.1, 1.5)]
        assert vols[0] < vols[1] < vols[2]

    def test_deep_facet_circumradius(self):
        # w_perp = sech^2 R falls to 1e-295 at R = 340; the radial density
        # stays finite there, and the volume is R = 200's within the bars.
        # At R = 400 cosh R overflows float64 and sech^2 R underflows to the
        # ideal floor 0; r + d = 354.5 is just below the slope's overflow.
        ref = volume_halfspace_general(QuasiRegularParams(4, 201.0, 0.5, 200.0))
        for r, radius in ((241.0, 240.0), (301.0, 300.0), (341.0, 340.0),
                          (300.0, 400.0), (354.0, 400.0)):
            est = volume_halfspace_general(QuasiRegularParams(4, r, 0.5, radius))
            assert abs(est.value - ref.value) <= est.error_estimate + ref.error_estimate, radius

    @pytest.mark.parametrize("literal", [False, True])
    def test_overflowing_height_constant_rejected(self, literal):
        # r + d = 401.5: e^(2(r+d)) is beyond float64 in either form of the slope
        with pytest.raises(DomainError, match="overflows"):
            volume_halfspace_general(QuasiRegularParams(4, 401.0, 0.5, 300.0),
                                     literal_height_constant=literal)

    def test_degenerate_facet(self):
        q = QuasiRegularParams(3, 1.0, 0.5, 0.0)
        assert volume_halfspace_general(q).value == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            QuasiRegularParams(3, 0.5, 0.8, 1.0)    # r < d
        with pytest.raises(DomainError):
            QuasiRegularParams(3, 0.5, 0.0, 1.0)    # d = 0
        with pytest.raises(DomainError):
            QuasiRegularParams(1, 0.5, 0.2, 1.0)
        with pytest.raises(DomainError, match="finite"):
            QuasiRegularParams(3, 1.0, 0.5, math.inf)

    def test_literal_constant_differs(self):
        base = ladder(SimplexParams(3, 1.0))
        q = QuasiRegularParams(3, float(base.r[2]), float(base.d[2]), float(base.r[1]))
        corrected = volume_halfspace_general(q).value
        literal = volume_halfspace_general(q, literal_height_constant=True).value
        assert abs(corrected - literal) > 1e-4 * corrected


class TestCrossModel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("t", [0.3, 0.8, 1.3])
    def test_three_forms_agree(self, n, t):
        p = SimplexParams(n, t)
        ests = [form(p) for form in FORMS]
        vals = [e.value for e in ests]
        spread = max(vals) - min(vals)
        budget = max(1e-6 * max(vals), sum(e.error_estimate for e in ests))
        assert spread <= budget

    @pytest.mark.parametrize("form", FORMS)
    def test_monotone_in_t(self, form):
        ts = [0.2, 0.5, 0.9, 1.2, 1.45]
        vals = [form(SimplexParams(3, t)).value for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def _halfspace_general_of(params):
    lad, n = ladder(params), params.n
    return volume_halfspace_general(QuasiRegularParams(
        n=n, r=float(lad.r[n - 1]), d=float(lad.d[n - 1]), facet_circumradius=float(lad.r[n - 2])))


@pytest.mark.parametrize("form, params", [
    (volume_projective, SimplexParams(5, math.pi / 2)),
    (volume_orthoscheme, SimplexParams(5, 1.5)),
    (volume_halfspace, SimplexParams(5, 1.5)),
    (_halfspace_general_of, SimplexParams(5, 1.5)),
], ids=["projective", "orthoscheme", "halfspace", "halfspace-general"])
def test_stall_carries_the_form_method(monkeypatch, form, params):
    # capped at N = 32 a level of each form's engine has no plateau; the
    # stall raises the engine's own estimate.  The grid's facet rows:
    # TestGrowthRatioGrid::test_stall_names_its_cell_and_form
    monkeypatch.setattr(quadrature, "_MAX_DEGREE", 32)
    with pytest.raises(ConvergenceError, match="no plateau by N = 32") as info:
        form(params)
    est = info.value.estimate
    assert est is not None and est.n_evals > 0


@pytest.mark.parametrize("form", [volume_projective, volume_halfspace])
def test_underflowed_level_stalls_on_its_level(form):
    # at n = 80 the running sums of the levels above the first unresolved
    # one would underflow and their coefficients turn nan.  The row stalls
    # on the first unresolved level with an inf bar, not on a nan bar or on
    # a nan half-space crossing
    with pytest.raises(
            ConvergenceError, match=r"\(level \d+ has no plateau by N = 512\)") as info:
        form(SimplexParams(80, 0.5))
    assert info.value.estimate.error_estimate == math.inf


def test_a_pair_stops_at_its_first_unresolved_level(monkeypatch):
    # at n = 80 level 25 of the lo stack has no plateau by N = 512.  The
    # stack stops there and the hi stack is not built: no level above 25
    # underflows (numpy would warn of the log of 0), and the stall costs the
    # lo stack's 25 levels; every level of both stacks would cost 514,839
    # evaluations
    built = []
    stack = quadrature.RadialPowerStack
    monkeypatch.setattr(quadrature, "RadialPowerStack",
                        lambda *args: built.append(stack(*args)) or built[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConvergenceError, match=r"\(level 25 has no plateau") as info:
            volume_projective(SimplexParams(80, 0.5))
    est = info.value.estimate
    assert math.isnan(est.value) and est.error_estimate == math.inf and info.value.row == 0
    assert est.n_evals <= 60_000 and est.n_evals == built[0].n_evals
    (lo,) = built
    assert lo.unresolved == 25 and lo._series[25] and lo._series[26:] == [None] * 54


class TestSchlafli:
    """The Schlafli-differential oracle: it integrates face volumes over the
    dihedral angle, a route shared with none of the engines."""

    @pytest.mark.parametrize("t", [0.3, 1.0, 1.5])
    def test_oracle_triangle_gauss_bonnet(self, t):
        ref = gauss_bonnet_triangle_area(math.atanh(math.sin(t)))
        assert schlafli_volume(2, t) == pytest.approx(ref, rel=1e-13)

    def test_oracle_ideal_tetrahedron(self):
        assert schlafli_volume(3, math.pi / 2) == pytest.approx(IDEAL_TET, rel=1e-13)

    @pytest.mark.parametrize("n, t", [(4, 1.2), (5, 0.3)])
    def test_frozen_table_recomputes(self, n, t):
        # the table's 20 digits, rounded, are the oracle's at 30
        with mp.workdps(30):
            ref = mp.mpf(SCHLAFLI_VOLUMES[n, t])
            assert abs(schlafli_digits(n, t) - ref) <= mp.mpf("1e-19") * ref

    @pytest.mark.parametrize("form, bound", [(volume_projective, 6e-15),
                                             (volume_halfspace, 1.2e-14)])
    def test_radial_forms_against_the_frozen_table(self, form, bound):
        # an accuracy guard at every point of the table, n = 3..6 and
        # t from 0.05 to the ideal point, which half-space does not reach
        for (n, t), value in SCHLAFLI_VOLUMES.items():
            params = SimplexParams(n, t)
            if form is volume_halfspace and params.is_ideal:
                continue
            ref = mp.mpf(value)
            assert abs(form(params).value - ref) <= bound * ref, (n, t)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ideal_projective_to_2e_14(self, n):
        ref = schlafli_volume(n, math.pi / 2)
        est = volume_projective(SimplexParams(n, math.pi / 2))
        assert abs(est.value - ref) <= 2e-14 * ref

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("t", [0.02, 0.05, 0.1])
    def test_small_t_radial_forms(self, n, t):
        # a finite row's y limit is its own log(1 - sigma^2), not the
        # batch's theta_min, whose rounding would cut the integral short
        ref = schlafli_volume(n, t)
        p = SimplexParams(n, t)
        assert abs(volume_projective(p).value - ref) <= 1e-14 * ref
        assert abs(volume_halfspace(p).value - ref) <= 5e-14 * ref

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0, math.pi / 2])
    def test_forms_within_their_bars(self, n, t):
        ref = schlafli_volume(n, t)
        for form in (volume_projective, volume_orthoscheme):
            est = form(SimplexParams(n, t))
            gap = abs(est.value - ref)
            assert gap <= est.error_estimate, form.__name__
            assert gap <= 1e-10 * ref, form.__name__


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12, 1e-15])
@pytest.mark.parametrize("form", [volume_projective, volume_orthoscheme])
def test_near_ideal_triangle_is_not_snapped(form, eps):
    # sin t rounds to 1.0 here, but the triangle is not ideal: each form
    # sits on Gauss-Bonnet at the eps the double t carries, within its bar
    t = math.pi / 2 - eps
    eps = math.asin(math.cos(t))
    est = form(SimplexParams(2, t))
    ref = gauss_bonnet_triangle_area(-math.log(math.tan(eps / 2)))
    assert abs(est.value - ref) <= est.error_estimate


def test_richardson_on_geometric_sequence():
    # v_k = 1 + 0.11 * 10^(1-k): Aitken recovers the limit 1 exactly
    limit, err = richardson_limit([1e-1, 1e-2, 1e-3], [1.11, 1.011, 1.0011])
    assert limit == pytest.approx(1.0, abs=1e-12)
    assert err >= 0
    with pytest.raises(DomainError):
        richardson_limit([1e-1], [1.0])


def test_richardson_on_arithmetic_sequence():
    # equal steps decay at no rate: the last value, with its last step as error
    assert richardson_limit([1e-1, 1e-2, 1e-3], [1.0, 2.0, 3.0]) == (3.0, 1.0)
