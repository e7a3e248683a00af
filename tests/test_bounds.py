import math

import mpmath as mp
import numpy as np
import pytest

from hypervol import (
    ConvergenceError,
    DomainError,
    SimplexParams,
    VolumeEstimate,
    growth_bounds,
    growth_ratio,
    hm_bounds,
    ladder,
    limit_audit,
    lower_bound,
    quadrature,
    upper_bound,
    volume_orthoscheme,
    volume_projective,
)
from hypervol.bounds import default_audit_sequence, growth_ratio_grid

from oracles import IDEAL_TET, mp_lower_bound


def mp_upper_bound(n, t, dps=50):
    with mp.workdps(dps):
        t = mp.mpf(t)
        s = mp.sin(t)
        num = n * n * (1 - s) ** 2 * (1 + s)
        den = (n + s) ** 2 * (1 + s) - (n * n - 1) * s * s * (1 - s) ** 2
        return float((1 - (num / den) ** (mp.mpf(n - 1) / 2)) / (n - 1))


class TestLowerBound:
    def test_zero_t(self):
        assert lower_bound(SimplexParams(4, 0.0)) == 0.0

    def test_near_ideal_value(self):
        # 50-digit reference of the closed form
        v = lower_bound(SimplexParams(3, math.pi / 2 - 0.01))
        assert v == pytest.approx(0.018015665114931930, rel=1e-12)
        assert v == pytest.approx(mp_lower_bound(3, math.pi / 2 - 0.01), rel=1e-12)

    def test_ideal_is_analytic_limit(self):
        # the endpoint product tends to 0, so the bound's limit is 0 --
        # not the positive value a naive endpoint substitution would give
        assert lower_bound(SimplexParams(3, math.pi / 2)) == 0.0

    def test_requires_n3(self):
        with pytest.raises(DomainError):
            lower_bound(SimplexParams(2, 0.5))

    def test_lemma_form_differs(self):
        p = SimplexParams(3, 1.0)
        assert lower_bound(p) != lower_bound(p, lemma_form=True)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 1.4, 1.55])
    def test_ladder_composition_identity(self, n, t):
        """The closed form equals
        (n+1) 2^(1-n) sinh(d_n) cosh(d_1) d_1 / (cosh(r_n) sinh(d_1))."""
        p = SimplexParams(n, t)
        lad = ladder(p)
        composed = ((n + 1) * 0.5 ** (n - 1) * lad.sinh_d[n - 1] * lad.cosh_d[0]
                    * lad.d[0] / (lad.cosh_r[n - 1] * lad.sinh_d[0]))
        closed = lower_bound(p)
        assert abs(closed - composed) <= 1e-12 * max(1.0, abs(closed))

    @pytest.mark.parametrize("n,t", [(3, 0.4), (5, 1.2), (4, 1.5)])
    def test_matches_50_digit_form(self, n, t):
        assert lower_bound(SimplexParams(n, t)) == pytest.approx(
            mp_lower_bound(n, t), rel=1e-13)

    @pytest.mark.parametrize("n, peak", [(3, 0.2133), (4, 0.0972), (8, 0.0053)])
    def test_stays_below_the_hm_lower_value(self, n, peak):
        # a finding, not a claim of the paper: on a t grid of step 1e-3 the
        # bound peaks near t = 0.95-0.98, below (n-2)/(n-1)^2
        bound = max(lower_bound(SimplexParams(n, t)) for t in np.arange(1, 1571) * 1e-3)
        assert bound == pytest.approx(peak, abs=5e-5)
        assert bound < hm_bounds(n)[0]


class TestUpperBound:
    def test_zero_t(self):
        assert upper_bound(SimplexParams(5, 0.0)) == 0.0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_ideal_endpoint_exact(self, n):
        assert upper_bound(SimplexParams(n, math.pi / 2)) == 1.0 / (n - 1)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_near_ideal(self, n):
        v = upper_bound(SimplexParams(n, math.pi / 2 - 1e-4))
        assert abs(v - 1.0 / (n - 1)) <= 1e-6

    def test_half_sine_value(self):
        # exact rational 58/143 at sin t = 1/2, n = 3
        v = upper_bound(SimplexParams.from_sin_t(3, 0.5))
        assert v == pytest.approx(58.0 / 143.0, rel=1e-14)
        assert v == pytest.approx(mp_upper_bound(3, math.asin(0.5)), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 24])
    @pytest.mark.parametrize("t", [1e-8, 1e-12, 1e-16, 1e-50, 1e-300])
    def test_small_t_keeps_its_digits(self, n, t):
        # 1 - Q^((n-1)/2) with Q = 1 - O(t): the closed form cancels in
        # mpmath too, so the reference carries 700 digits
        ref = mp_upper_bound(n, t, dps=700)
        assert abs(upper_bound(SimplexParams(n, t)) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("n", range(3, 9))
    def test_increasing_in_t(self, n):
        ts = np.linspace(0.0, math.pi / 2, 40)
        vals = [upper_bound(SimplexParams(n, float(t))) for t in ts]
        assert all(b > a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(b - a < 0.2 for a, b in zip(vals, vals[1:]))   # no jumps


class TestHmBounds:
    def test_three(self):
        assert hm_bounds(3) == (0.25, 0.5)

    def test_two(self):
        assert hm_bounds(2) == (0.0, 1.0)

    def test_ten(self):
        lo, hi = hm_bounds(10)
        assert lo == pytest.approx(8.0 / 81.0, rel=1e-15)
        assert hi == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_rejects(self):
        with pytest.raises(DomainError):
            hm_bounds(1)

    def test_ordering(self):
        for n in range(2, 12):
            lo, hi = hm_bounds(n)
            assert lo <= hi


class TestGrowthRatio:
    def test_ideal_tetrahedron_ratio(self):
        est = growth_ratio(SimplexParams(3, math.pi / 2))
        assert est.value == pytest.approx(IDEAL_TET / math.pi, rel=1e-8)

    def test_small_t_euclidean_limit(self):
        for n in (3, 4):
            est = growth_ratio(SimplexParams(n, 0.01))
            scaled = est.value / math.atanh(math.sin(0.01))
            assert abs(scaled / ((n + 1) / n**2) - 1.0) <= 0.01

    @pytest.mark.parametrize("n, t", [(3, 1e-12), (5, 1e-12), (8, 1e-12), (3, 1e-50), (5, 1e-50)])
    def test_tiny_t_keeps_the_euclidean_limit(self, n, t):
        # 1 - sin^2 t rounds to 1 here; the top integral's upper limit
        # must come from log1p(-sin^2 t), or the volumes read 0
        scaled = growth_ratio(SimplexParams(n, t)).value / math.atanh(math.sin(t))
        assert scaled == pytest.approx((n + 1) / n**2, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("t", [0.2, 0.7, 1.2, 1.5])
    def test_sandwich(self, n, t):
        p = SimplexParams(n, t)
        est = growth_ratio(p)
        b = growth_bounds(p)
        assert b.lower - est.error_estimate <= est.value <= b.upper + est.error_estimate

    def test_rejects(self):
        with pytest.raises(DomainError):
            growth_ratio(SimplexParams(2, 0.5))
        with pytest.raises(DomainError):
            growth_ratio(SimplexParams(3, 0.0))


class TestGrowthRatioGrid:
    def test_mixed_grid_within_standalone_bars(self):
        # pairs built on the ideal floor serve every t of their dim
        cells = [SimplexParams(n, t) for n in (3, 4, 5, 8)
                 for t in (0.01, 0.3, 1.0, 1.5, math.pi / 2 - 1e-6, math.pi / 2)]
        for cell, shared in zip(cells, growth_ratio_grid(cells)):
            alone = growth_ratio_grid([cell])[0]
            for a, b in zip(shared, alone):
                assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, cell

    def test_batch_mixing_ideal_and_finite_matches_standalone(self):
        # a batch of one dim runs its ideal rows and the rest in one
        # pass over the shared y panels
        cells = [SimplexParams(n, t) for n in (3, 4)
                 for t in (0.3, 1.0, math.pi / 2 - 1e-6, math.pi / 2)]
        for cell, row in zip(cells, growth_ratio_grid(cells)):
            assert all(isinstance(part, VolumeEstimate) for part in row), cell
            _, vol, facet = row
            for shared, alone in ((vol, volume_projective(cell)),
                                  (facet, growth_ratio_grid([cell])[0][2])):
                assert shared.value == pytest.approx(alone.value, rel=1e-14, abs=0), cell

    def test_ideal_ratio_in_both_brackets(self):
        # at the ideal point the projective ratio lies between the paper's
        # bounds and in the Haagerup-Munkholm bracket, and it matches the
        # orthoscheme ratio of the ideal n- and (n-1)-simplices
        cells = [SimplexParams(n, math.pi / 2) for n in range(3, 13)]
        ideal = {n: volume_orthoscheme(SimplexParams(n, math.pi / 2)).value
                 for n in range(2, 13)}
        for cell, (ratio, _, _) in zip(cells, growth_ratio_grid(cells)):
            n, b, err = cell.n, growth_bounds(cell), ratio.error_estimate
            assert b.lower - err <= ratio.value <= b.upper + err, n
            assert (n - 2) / (n - 1) ** 2 <= ratio.value <= 1 / (n - 1), n
            assert ratio.value == pytest.approx(ideal[n] / ideal[n - 1], rel=1e-12, abs=0), n

    def test_sandwich_up_to_n24(self):
        # the paper's bounds hold the measured ratio for every n the
        # engines reach, and the ideal ratio sits in the Haagerup-Munkholm
        # bracket.  The assertions read no bar: from n ~ 15 the ratio's
        # bar, built on the 1e-12 floor of each volume, is wider than the
        # gap to the bounds.  The measured margins are at least 30% above
        # lower and 2.2% below upper
        ts = (0.05, 0.3, 0.8, 1.2, 1.5, math.pi / 2 - 1e-3, math.pi / 2 - 1e-6, math.pi / 2)
        cells = [SimplexParams(n, t) for n in range(3, 25) for t in ts]
        for cell, (ratio, _, _) in zip(cells, growth_ratio_grid(cells)):
            n, b = cell.n, growth_bounds(cell)
            assert b.lower < ratio.value < b.upper, cell
            if cell.is_ideal:
                assert (n - 2) / (n - 1) ** 2 < ratio.value < 1 / (n - 1), n

    def test_stall_names_its_cell_and_form(self, monkeypatch):
        # capped at N = 32 an ideal level has no plateau; the stall raises
        # the stalled volume, and names its form and its cell
        monkeypatch.setattr(quadrature, "_MAX_DEGREE", 32)
        with pytest.raises(ConvergenceError, match=r"^projective volume of cell 0 \(n = 5") as info:
            growth_ratio(SimplexParams(5, math.pi / 2))
        assert info.value.row == 0
        # the (5, 3) batch holds cell 0's facet and cell 1's ideal volume,
        # so its first row, the facet, stalls
        with pytest.raises(ConvergenceError, match=r"^facet-projective volume of cell 0 ") as info:
            growth_ratio_grid([SimplexParams(6, 0.3), SimplexParams(5, math.pi / 2)])
        assert info.value.row == 0

    def test_rejects_any_bad_cell(self):
        with pytest.raises(DomainError):
            growth_ratio_grid([SimplexParams(3, 0.5), SimplexParams(3, 0.0)])
        with pytest.raises(DomainError):
            growth_ratio_grid([SimplexParams(4, 0.5), SimplexParams(2, 0.5)])


class TestLimitAudit:
    def test_sample_products(self):
        audit = limit_audit(3, default_audit_sequence())
        by_eps = {round(-math.log10(eps)): prod for (_, eps, prod) in audit.rows}
        # direct evaluations, frozen: eps = 0.1 and eps = 1e-3
        assert by_eps[1] == pytest.approx(0.29899094514991966, rel=1e-10)
        assert by_eps[3] == pytest.approx(0.007600901109391018, rel=1e-10)

    def test_monotone_and_limit(self):
        audit = limit_audit(3, default_audit_sequence())
        assert audit.monotone_decreasing
        assert abs(audit.fitted_limit) < 1e-2
        assert audit.claimed_limit == 1.0
        assert not audit.agrees_with_claim

    def test_products_match_50_digit_values(self):
        # cos t atanh(sin t) at the float t, down to a few ulps below pi/2
        ts = list(default_audit_sequence()) + [math.pi / 2 - e for e in (1e-9, 1e-12, 1e-15)]
        for t, _, prod in limit_audit(3, ts).rows:
            with mp.workdps(50):
                ref = float(mp.cos(mp.mpf(t)) * mp.atanh(mp.sin(mp.mpf(t))))
            assert prod == pytest.approx(ref, rel=1e-14, abs=0), t

    def test_asymptotic_shape(self):
        # the product behaves like eps ln(2/eps)
        audit = limit_audit(3, default_audit_sequence())
        for (_, eps, prod) in audit.rows[-3:]:
            assert prod == pytest.approx(eps * math.log(2.0 / eps), rel=0.02)

    def test_rejects_bad_sequence(self):
        with pytest.raises(DomainError):
            limit_audit(3, [1.0])
        with pytest.raises(DomainError):
            limit_audit(3, [1.0, 0.5])
        with pytest.raises(DomainError):
            limit_audit(1, default_audit_sequence())
        with pytest.raises(DomainError, match="need t < pi/2"):
            limit_audit(3, [1.0, 1.5, math.pi / 2])


def test_bounds_bundle():
    b = growth_bounds(SimplexParams(4, 1.0))
    assert b.lower <= b.upper
    assert b.hm_lower == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert b.hm_upper == pytest.approx(1.0 / 3.0, rel=1e-15)
