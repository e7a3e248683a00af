import math

import mpmath as mp
import numpy as np
import pytest

from hypervol import integrate_simplex_radialpow, quadrature
from hypervol.volume_forms import _projective_job
from hypervol import (
    ConvergenceError,
    DegenerateGeometryError,
    DomainError,
    QuadratureConfig,
    QuasiRegularParams,
    SimplexParams,
    cosh_power_antiderivative,
    facet_volume_projective,
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
    gauss_bonnet_triangle_area,
    ideal_tetrahedron_volume,
    mp_integral,
    schlafli_volume,
)

T35 = math.asin(0.6)
FORMS = (volume_projective, volume_orthoscheme, volume_halfspace)


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
        assert (est.value, est.error_estimate, est.n_evals, est.method) == (
            0.0, 0.0, 0, "projective")

    def test_triangle_gauss_bonnet(self):
        est = volume_projective(SimplexParams(2, T35))
        assert est.value == pytest.approx(
            gauss_bonnet_triangle_area(math.atanh(0.6)), abs=1e-12)

    def test_ideal_tetrahedron(self):
        est = volume_projective(SimplexParams(3, math.pi / 2))
        assert est.value == pytest.approx(IDEAL_TET, abs=1e-10)

    def test_ideal_triangle(self):
        # the top integral adds the leading term of the tail beyond theta_min
        est = volume_projective(SimplexParams(2, math.pi / 2))
        assert est.value == pytest.approx(math.pi, rel=1e-14, abs=0)


    @pytest.mark.parametrize("form, n, t, evals", [
        (volume_projective, 3, 0.8, 2_231),
        (volume_projective, 5, 1.2, 3_703),
        (facet_volume_projective, 4, 0.8, 2_231),
        (volume_halfspace, 4, 1.0, 2_691),
        (volume_orthoscheme, 3, 0.8, 195),
        (volume_orthoscheme, 5, 1.2, 325),
    ])
    def test_n_evals_standalone(self, form, n, t, evals):
        # radial forms: the stack pair's build plus this call's own
        # top-level work, (32 + 1) x order per stack; orthoscheme: the
        # points of every round of every level, the outer one too.  The
        # same on every call
        p = SimplexParams(n, t)
        assert form(p).n_evals == form(p).n_evals == evals

    def test_n_evals_on_a_shared_pool(self):
        # each row of a batch counts the shared pair's build plus its own
        # top-level work: the whole y panels and its partial panel
        cells = [SimplexParams(3, t) for t in (0.4, 0.8, 1.2, math.pi / 2)]
        _, _, scale, w = zip(*map(_projective_job, cells))
        pair = quadrature._radial_pair(2, 2.0, 0.0)
        build = sum(stack.n_evals for stack in pair)
        for _ in range(2):
            rows = integrate_simplex_radialpow(3, scale, 2.0, one_minus_scale_sq=w)
            for row, s, w_top in zip(rows, scale, w):
                own = sum(stack.top_integral(3, [w_top], [s * s])[1][0] for stack in pair)
                assert row.n_evals == build + own
        assert rows[0].n_evals == rows[2].n_evals


class TestFacetProjective:
    def test_requires_n3(self):
        with pytest.raises(DomainError):
            facet_volume_projective(SimplexParams(2, 0.5))

    def test_zero_t(self):
        est = facet_volume_projective(SimplexParams(3, 0.0))
        assert (est.value, est.error_estimate, est.n_evals, est.method) == (
            0.0, 0.0, 0, "facet-projective")

    def test_ideal_facet_is_ideal_triangle(self):
        est = facet_volume_projective(SimplexParams(3, math.pi / 2))
        assert est.value == pytest.approx(math.pi, abs=1e-8)

    def test_facet_35(self):
        # the facet of tau[3, asin(3/5)] is the triangle with circumradius
        # atanh(1/sqrt 3)
        est = facet_volume_projective(SimplexParams(3, T35))
        assert est.value == pytest.approx(
            gauss_bonnet_triangle_area(math.atanh(1 / math.sqrt(3))), abs=1e-12)

    @pytest.mark.parametrize("n,t", [(3, 0.7), (4, 1.1), (5, 0.4)])
    def test_facet_consistency(self, n, t):
        """facet volume equals the (n-1)-simplex volume at sin t' = tanh r_{n-1}."""
        p = SimplexParams(n, t)
        lad = ladder(p)
        t_prime = math.asin(lad.tanh_r[n - 2])
        a = facet_volume_projective(p)
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
        # lo^2 + B(1-a) agrees with the expanded A - B a - |v|^2
        emb = self.emb
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            v = w @ emb.v
            lo, hi = zn_bounds(emb, v)
            from hypervol.volume_forms import _locate_subsimplex
            _, lam = _locate_subsimplex(emb, v)
            literal = (emb.height_sq_scale
                       - emb.height_sq_slope * lam.sum() - float(v @ v))
            assert hi**2 == pytest.approx(literal, rel=1e-9)

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
        # gate, which half-space shares with the projective form
        with pytest.raises(ConvergenceError) as info:
            volume_halfspace(SimplexParams(4, 1.5))
        est = info.value.estimate
        assert est.method == "halfspace"
        assert est.error_estimate > 1e-3 * est.value > 0.0

    def test_unresolved_level_raises(self, monkeypatch):
        # a radial level with no plateau by its cap stalls every row read
        # from its stack, as an unresolved nested level does; capped at
        # N = 32 the ideal n = 5 lo/hi gap alone looks settled while the
        # value is 8e-7 off
        params = SimplexParams(5, math.pi / 2)
        settled = volume_projective(params).value
        monkeypatch.setattr(quadrature, "_MAX_DEGREE", 32)
        with pytest.raises(ConvergenceError, match="no plateau by N = 32") as info:
            volume_projective(params)
        est = info.value.estimate
        assert est.value == pytest.approx(settled, rel=1e-5, abs=0)
        assert abs(est.value - settled) > est.error_estimate


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


@pytest.mark.parametrize("form, params, method", [
    (volume_projective, SimplexParams(5, math.pi / 2), "projective"),
    (facet_volume_projective, SimplexParams(6, math.pi / 2), "facet-projective"),
    (volume_orthoscheme, SimplexParams(5, 1.5), "orthoscheme"),
    (volume_halfspace, SimplexParams(5, 1.5), "halfspace"),
    (_halfspace_general_of, SimplexParams(5, 1.5), "halfspace-general"),
], ids=["projective", "facet", "orthoscheme", "halfspace", "halfspace-general"])
def test_stall_carries_the_form_method(monkeypatch, form, params, method):
    # capped at N = 32 a level of each engine has no plateau; the estimate
    # a stall raises names the form, as a settled one does
    monkeypatch.setattr(quadrature, "_MAX_DEGREE", 32)
    with pytest.raises(ConvergenceError, match="no plateau by N = 32") as info:
        form(params)
    assert info.value.estimate.method == method


class TestSchlafli:
    """The Schlafli-differential oracle: it integrates face volumes over the
    dihedral angle, a route shared with none of the engines."""

    @pytest.mark.parametrize("t", [0.3, 1.0, 1.5])
    def test_oracle_triangle_gauss_bonnet(self, t):
        ref = gauss_bonnet_triangle_area(math.atanh(math.sin(t)))
        assert schlafli_volume(2, t) == pytest.approx(ref, rel=1e-13)

    def test_oracle_ideal_tetrahedron(self):
        assert schlafli_volume(3, math.pi / 2) == pytest.approx(IDEAL_TET, rel=1e-13)

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
