"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured margin when it holds (pytest -s shows them).

All tolerances are fixed here, not tuned at runtime.  Expected values
come from the independent oracles in oracles.py (Gauss-Bonnet angles,
the Lobachevsky series, 50-digit closed-form evaluations), never from
the engines under test.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from hypervol import (
    QuasiRegularParams,
    SimplexParams,
    cosh_power_antiderivative,
    growth_ratio,
    halfspace_embedding,
    hm_bounds,
    ladder,
    limit_audit,
    lower_bound,
    richardson_limit,
    upper_bound,
    volume_halfspace,
    volume_halfspace_general,
    volume_orthoscheme,
    volume_projective,
)
from hypervol.bounds import default_audit_sequence
from hypervol.cli import main as cli_main

from oracles import IDEAL_TET, gauss_bonnet_triangle_area, ideal_tetrahedron_volume, mp_integral


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_01_cross_model_agreement():
    """Projective, orthoscheme and half-space volumes agree pairwise within
    max(1e-6 relative, combined reported errors) on n in {2..5} x
    t in {0.3, 0.8, 1.3}, within 60 s."""
    start = time.time()
    worst = 0.0
    for n in (2, 3, 4, 5):
        for t in (0.3, 0.8, 1.3):
            p = SimplexParams(n, t)
            ests = [volume_projective(p), volume_orthoscheme(p), volume_halfspace(p)]
            vals = [e.value for e in ests]
            scale = max(vals)
            for i in range(3):
                for j in range(i + 1, 3):
                    gap = abs(ests[i].value - ests[j].value)
                    budget = max(1e-6 * scale,
                                 ests[i].error_estimate + ests[j].error_estimate)
                    assert gap <= budget, (n, t, gap, budget)
                    worst = max(worst, gap / scale)
    elapsed = time.time() - start
    assert elapsed <= 60.0
    report(1, f"worst pairwise relative gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_triangle_gauss_bonnet():
    """All three forms within 1e-8 of pi - 3 theta, theta from
    cot(theta/2) = cosh(atanh(sin t)) tan(pi/3), at 5 values of t."""
    worst = 0.0
    for t in (0.3, math.asin(0.6), 0.8, 1.1, 1.4):
        p = SimplexParams(2, t)
        area = gauss_bonnet_triangle_area(math.atanh(p.sin_t))
        for form in (volume_projective, volume_orthoscheme, volume_halfspace):
            gap = abs(form(p).value - area)
            assert gap <= 1e-8, (form.__name__, t, gap)
            worst = max(worst, gap)
    report(2, f"worst |volume - (pi - 3 theta)| = {worst:.2e}")


def test_criterion_03_ideal_tetrahedron():
    """Projective volume at t = pi/2 and Richardson-extrapolated half-space
    volume both within 1e-4 of the Lobachevsky-series value."""
    ref = ideal_tetrahedron_volume()
    assert ref == pytest.approx(IDEAL_TET, abs=1e-12)
    proj = volume_projective(SimplexParams(3, math.pi / 2)).value
    assert abs(proj - ref) <= 1e-4
    eps = [1e-2, 1e-3, 1e-4]
    vals = [volume_halfspace(SimplexParams(3, math.pi / 2 - e)).value for e in eps]
    half, _ = richardson_limit(eps, vals)
    assert abs(half - ref) <= 1e-4
    report(3, f"projective gap {abs(proj - ref):.2e}, "
              f"half-space extrapolated gap {abs(half - ref):.2e}")


def test_criterion_04_growth_sandwich():
    """lower <= ratio <= upper with slack bounded by the propagated
    quadrature error, over n in {3,4,5} x t in {0.05..1.55}; the sweep
    command never exits 3."""
    worst_slack = 0.0
    for n in (3, 4, 5):
        for k in range(1, 32):
            t = round(0.05 * k, 10)
            if t > 1.55 + 1e-12:
                break
            p = SimplexParams(n, t)
            est = growth_ratio(p)
            lo, hi = lower_bound(p), upper_bound(p)
            assert lo - est.error_estimate <= est.value <= hi + est.error_estimate, (n, t)
            worst_slack = max(worst_slack,
                              max(lo - est.value, est.value - hi, 0.0))
    ts = ",".join(str(round(0.05 * k, 10)) for k in range(1, 32))
    rc = cli_main(["sweep", "--n-list", "3,4,5", "--t-list", ts, "--out", "/dev/null"])
    assert rc == 0
    report(4, f"93 grid points, worst slack {worst_slack:.2e}, sweep exit 0")


def test_criterion_05_upper_bound_endpoint():
    """upper_bound(n, pi/2) equals 1/(n-1) exactly; at pi/2 - 1e-4 it is
    within 1e-6 of 1/(n-1), for n in 3..8."""
    worst = 0.0
    for n in range(3, 9):
        exact = upper_bound(SimplexParams(n, math.pi / 2))
        assert exact == 1.0 / (n - 1)
        near = upper_bound(SimplexParams(n, math.pi / 2 - 1e-4))
        gap = abs(near - 1.0 / (n - 1))
        assert gap <= 1e-6
        worst = max(worst, gap)
    report(5, f"endpoint exact for n=3..8, near-endpoint gap <= {worst:.2e}")


def test_criterion_06_hm_sandwich_near_ideal():
    """growth ratio at t = pi/2 - 1e-3 lies inside the classical bracket
    ((n-2)/(n-1)^2, 1/(n-1)) for n in {3,4,5}."""
    margins = []
    for n in (3, 4, 5):
        est = growth_ratio(SimplexParams(n, math.pi / 2 - 1e-3))
        lo, hi = hm_bounds(n)
        assert lo <= est.value <= hi, (n, est.value, lo, hi)
        margins.append(min(est.value - lo, hi - est.value))
    report(6, f"smallest margin to the bracket {min(margins):.3e}")


def test_criterion_07_euclidean_limit():
    """ratio(n, 0.01)/atanh(sin 0.01) within 1% of (n+1)/n^2 for n in {3,4}."""
    worst = 0.0
    for n in (3, 4):
        est = growth_ratio(SimplexParams(n, 0.01))
        scaled = est.value / math.atanh(math.sin(0.01))
        dev = abs(scaled / ((n + 1) / n**2) - 1.0)
        assert dev <= 0.01
        worst = max(worst, dev)
    report(7, f"worst relative deviation {worst:.2e}")


def test_criterion_08_structural_identities():
    """Ladder chain, Gram closed form, gamma, sin alpha = tanh r_{n-1}, and
    the lower-bound ladder composition: residuals <= 1e-12 on a 50-point
    (n, t) grid."""
    worst = 0.0
    grid = [(n, t) for n in (2, 3, 4, 5, 6)
            for t in np.linspace(0.1, 1.45, 10)]
    assert len(grid) == 50
    for n, t in grid:
        p = SimplexParams(n, float(t))
        lad = ladder(p)
        worst = max(worst, float(lad.chain_residuals().max()))
        emb = halfspace_embedding(p)
        for i in range(n):
            idx = [j for j in range(n) if j != i]
            gram_res = np.max(np.abs(emb.v[idx] @ emb.v[idx].T - emb.gram))
            worst = max(worst, float(gram_res) / emb.sin_alpha**2)
        g_closed = (n + p.sin_t) / p.one_minus_sin_t
        center = np.append(emb.centers[0], 0.0)
        g_sphere = np.linalg.norm(emb.vertices[n] - center)
        worst = max(worst, abs(emb.gamma - g_closed) / g_closed,
                    abs(g_sphere - emb.gamma) / emb.gamma)
        worst = max(worst, abs(emb.sin_alpha - lad.tanh_r[n - 2]))
        if n >= 3:
            composed = ((n + 1) * 0.5 ** (n - 1) * lad.sinh_d[n - 1] * lad.cosh_d[0]
                        * lad.d[0] / (lad.cosh_r[n - 1] * lad.sinh_d[0]))
            lb = lower_bound(p)
            worst = max(worst, abs(lb - composed) / max(1.0, abs(lb)))
    assert worst <= 1e-12
    report(8, f"worst residual {worst:.2e} over 50 grid points")


def test_criterion_09_antiderivative():
    """F_m vs 50-digit quadrature of cosh^m on [0, 2]: relative residual
    <= 1e-10 for m <= 12."""
    worst = 0.0
    for m in range(13):
        ref = mp_integral(lambda x, m=m: mp.cosh(x) ** m, 0, 2)
        val = cosh_power_antiderivative(m, 2.0)
        res = abs(val - ref) / max(1.0, abs(val))
        assert res <= 1e-10, (m, res)
        worst = max(worst, res)
    report(9, f"worst residual {worst:.2e} for m <= 12")


def test_criterion_10_general_reduction():
    """volume_halfspace_general at the regular ladder values matches
    volume_halfspace within 1e-6 relative, for 5 (n, t) pairs."""
    worst = 0.0
    for n, t in ((2, 0.9), (3, math.asin(0.6)), (3, 1.0), (4, 0.8), (5, 1.2)):
        p = SimplexParams(n, t)
        lad = ladder(p)
        q = QuasiRegularParams(n=n, r=float(lad.r[n - 1]), d=float(lad.d[n - 1]),
                               facet_circumradius=float(lad.r[n - 2]))
        rel = abs(volume_halfspace_general(q).value / volume_halfspace(p).value - 1.0)
        assert rel <= 1e-6, (n, t, rel)
        worst = max(worst, rel)
    report(10, f"worst relative reduction gap {worst:.2e}")


def test_criterion_11_limit_audit():
    """The endpoint product cos(t) atanh(sin t) decreases monotonically
    along eps = 1e-1..1e-6 with fitted limit below 1e-2, contradicting the
    claimed limit 1; the audit reports both values."""
    audit = limit_audit(3, default_audit_sequence())
    assert len(audit.rows) == 6
    assert audit.monotone_decreasing
    assert abs(audit.fitted_limit) < 1e-2
    assert audit.claimed_limit == 1.0
    assert not audit.agrees_with_claim
    report(11, f"fitted limit {audit.fitted_limit:.3e} vs claimed "
               f"{audit.claimed_limit}; monotone decrease confirmed")
