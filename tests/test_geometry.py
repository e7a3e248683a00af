import math

import numpy as np
import pytest

from hypervol import (
    DegenerateGeometryError,
    DomainError,
    SimplexParams,
    halfspace_embedding,
    ladder,
    lower_bound,
    unit_simplex_vertices,
)

from oracles import (
    cross_ratio_distance,
    face_centroids,
    mp_ladder,
    mp_lower_bound,
    simplex_vertices,
)

T35 = math.asin(0.6)   # sin t = 3/5


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimplexParams(1, 0.5)
        with pytest.raises(DomainError):
            SimplexParams(3, -0.1)
        with pytest.raises(DomainError):
            SimplexParams(3, 1.8)
        with pytest.raises(DomainError):
            SimplexParams(3.5, 0.5)

    def test_ideal_detection(self):
        assert SimplexParams(3, math.pi / 2).is_ideal
        # decimal truncations of pi/2 just above the float value clamp to ideal
        assert SimplexParams(3, 1.5707963268).is_ideal
        assert not SimplexParams(3, 1.57).is_ideal

    def test_sin_parametrization(self):
        p = SimplexParams.from_sin_t(3, 0.6)
        assert p.sin_t == pytest.approx(0.6, abs=1e-15)
        assert SimplexParams.from_sin_t(3, 1.0).is_ideal
        with pytest.raises(DomainError):
            SimplexParams.from_sin_t(3, 1.2)

    def test_stable_one_minus_sin(self):
        p = SimplexParams(4, math.pi / 2 - 1e-4)
        # 1 - cos(1e-4) = 2 sin^2(5e-5)
        assert p.one_minus_sin_t == pytest.approx(2 * math.sin(5e-5) ** 2, rel=1e-14)
        assert SimplexParams(4, math.pi / 2).one_minus_sin_t == 0.0


class TestCrossRatioDistance:
    def test_coincident(self):
        assert cross_ratio_distance((0, 0, 0), (0, 0, 0)) == 0.0

    def test_radial_point(self):
        # atanh(1/2) = ln(3)/2
        d = cross_ratio_distance((0, 0, 0), (0, 0, 0.5))
        assert d == pytest.approx(0.5493061443340549, abs=1e-15)

    def test_center_to_facet_center_ideal(self):
        # n = 3, sin t = 1: |OK| = 1/3 and the distance is ln(2)/2,
        # i.e. atanh(sin t / n), not atanh(sin t)
        d = cross_ratio_distance((0.0, 0.0, 0.0), (0.0, 0.0, 1.0 / 3.0))
        assert d == pytest.approx(0.34657359027997264, abs=1e-15)

    def test_symmetry_and_triangle(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(50):
            pts = rng.uniform(-0.57, 0.57, size=(3, 3))
            a, b, c = pts
            dab = cross_ratio_distance(a, b)
            assert dab == pytest.approx(cross_ratio_distance(b, a), rel=1e-14)
            assert dab <= cross_ratio_distance(a, c) + cross_ratio_distance(c, b) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            cross_ratio_distance((1.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            cross_ratio_distance((0.0, 0.0), (1.5, 0.0))


class TestVertices:
    def test_degenerate(self):
        v = simplex_vertices(SimplexParams(3, 0.0))
        assert np.all(v == 0.0)
        assert v.shape == (4, 3)

    def test_ideal_triangle(self):
        v = simplex_vertices(SimplexParams(2, math.pi / 2))
        for i in range(3):
            assert np.linalg.norm(v[i]) == pytest.approx(1.0, abs=1e-15)
            for j in range(i + 1, 3):
                assert np.linalg.norm(v[i] - v[j]) == pytest.approx(math.sqrt(3), abs=1e-14)

    @pytest.mark.parametrize("n,t", [(2, 0.4), (3, T35), (5, 1.2), (7, 0.9)])
    def test_gram(self, n, t):
        p = SimplexParams(n, t)
        v = simplex_vertices(p)
        s2 = p.sin_t**2
        gram = v @ v.T
        expect = -s2 / n * (np.ones((n + 1, n + 1)) - np.eye(n + 1)) + s2 * np.eye(n + 1)
        assert np.allclose(gram, expect, atol=1e-14)

    def test_apex_on_last_axis(self):
        v = simplex_vertices(SimplexParams(4, 0.7))
        assert np.allclose(v[-1][:-1], 0.0)
        assert v[-1][-1] == pytest.approx(math.sin(0.7), abs=1e-15)
        assert np.allclose(v.sum(axis=0), 0.0, atol=1e-14)


class TestLadders:
    def test_zero_t(self):
        lad = ladder(SimplexParams(5, 0.0))
        for k in range(1, 6):
            assert lad.r[k - 1] == 0.0
            assert lad.d[k - 1] == 0.0

    def test_top_circumradius(self):
        lad = ladder(SimplexParams(3, math.pi / 4))
        assert lad.r[2] == pytest.approx(math.atanh(math.sqrt(2) / 2), rel=1e-15)

    def test_face_circumradius(self):
        # r_2 of tau[3, asin(3/5)] is atanh(1/sqrt(3))
        lad = ladder(SimplexParams.from_sin_t(3, 0.6))
        assert lad.r[1] == pytest.approx(math.atanh(1 / math.sqrt(3)), rel=1e-14)

    def test_edge_lengths_ideal(self):
        lad = ladder(SimplexParams(3, math.pi / 2))
        assert lad.d[2] == pytest.approx(0.34657359027997264, abs=1e-15)
        assert lad.d[1] == pytest.approx(math.atanh(0.5), rel=1e-15)
        assert math.isinf(lad.d[0])

    def test_ladder_35(self):
        lad = ladder(SimplexParams.from_sin_t(3, 0.6))
        assert lad.r[2] == pytest.approx(math.log(2.0), rel=1e-15)
        assert lad.d[2] == pytest.approx(math.atanh(0.2), rel=1e-15)
        # cosh r_3 = 5/4 = cosh d_3 cosh r_2 = (5/sqrt(24)) sqrt(3/2)
        assert lad.cosh_r[2] == pytest.approx(1.25, rel=1e-15)
        assert lad.cosh_d[2] == pytest.approx(5 / math.sqrt(24), rel=1e-15)
        assert lad.cosh_r[1] == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_d1_equals_r1(self):
        for t in (0.2, 0.9, 1.5, math.pi / 2 - 1e-7, math.pi / 2):
            lad = ladder(SimplexParams(2, t))
            assert lad.r[0] == lad.d[0]

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("t", [1e-6, 0.05, 0.8, 1.4, math.pi / 2 - 1e-3,
                                   math.pi / 2 - 1e-5, math.pi / 2 - 1e-7])
    def test_lengths_match_50_digit_forms(self, n, t):
        # toward the ideal point tanh r_k rounds toward 1, so a length taken
        # back through atanh loses digits; the sinh route keeps them
        p = SimplexParams(n, t)
        lad = ladder(p)
        r_ref, d_ref = mp_ladder(n, t)
        for k in range(n):
            assert abs(lad.r[k] - r_ref[k]) <= 1e-14 * r_ref[k], ("r", k + 1)
            assert abs(lad.d[k] - d_ref[k]) <= 1e-14 * d_ref[k], ("d", k + 1)
        if n >= 3:
            ref = mp_lower_bound(n, t)
            assert abs(lower_bound(p) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("t", [0.05, 0.4, 0.8, 1.2, 1.5, 1.55])
    def test_chain_identity(self, n, t):
        res = ladder(SimplexParams(n, t)).chain_residuals()
        assert res.max() <= 1e-12

    def test_chain_identity_ideal(self):
        res = ladder(SimplexParams(4, math.pi / 2)).chain_residuals()
        # finite rungs of the ideal chain still satisfy the identity
        assert np.all(res[np.isfinite(res)] <= 1e-12)

    def test_entries_nondecreasing_in_t(self):
        for n in (2, 4, 6):
            prev = ladder(SimplexParams(n, 0.2))
            for t in (0.5, 0.9, 1.3):
                cur = ladder(SimplexParams(n, t))
                assert np.all(cur.tanh_r >= prev.tanh_r - 1e-15)
                assert np.all(cur.tanh_d >= prev.tanh_d - 1e-15)
                prev = cur

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("t", [0.3, 0.8, 1.2])
    def test_ladder_vs_cross_ratio_centroids(self, n, t):
        """The closed forms agree with brute-force distances between the
        projective-model face centroids."""
        p = SimplexParams(n, t)
        verts = simplex_vertices(p)
        centers = face_centroids(verts)          # K_1 .. K_{n-1}
        chain = [verts[0]] + centers + [np.zeros(n)]   # K_0=E_1, ..., K_n=O
        lad = ladder(p)
        for k in range(1, n + 1):
            r_direct = cross_ratio_distance(chain[k], verts[0])
            d_direct = cross_ratio_distance(chain[k], chain[k - 1])
            assert abs(r_direct - lad.r[k - 1]) <= 1e-12 * max(1.0, lad.r[k - 1])
            assert abs(d_direct - lad.d[k - 1]) <= 1e-12 * max(1.0, lad.d[k - 1])


class TestHalfspaceEmbedding:
    def test_gamma(self):
        emb = halfspace_embedding(SimplexParams.from_sin_t(3, 0.5))
        assert emb.gamma == pytest.approx(7.0, rel=1e-14)

    def test_sin_alpha(self):
        p = SimplexParams.from_sin_t(3, 0.6)
        emb = halfspace_embedding(p)
        assert emb.sin_alpha == pytest.approx(1 / math.sqrt(3), rel=1e-14)
        assert emb.sin_alpha == pytest.approx(ladder(p).tanh_r[1], rel=1e-14)

    def test_horizontal_parts_sum_to_zero(self):
        emb = halfspace_embedding(SimplexParams(5, 1.1))
        assert np.allclose(emb.v.sum(axis=0), 0.0, atol=1e-13)
        assert np.allclose(np.einsum("ij,ij->i", emb.v, emb.v), emb.sin_alpha**2, rtol=1e-13)

    @pytest.mark.parametrize("n,t", [(2, 0.8), (3, T35), (4, 1.2), (6, 0.5)])
    def test_spheres_through_vertices(self, n, t):
        emb = halfspace_embedding(SimplexParams(n, t))
        for i in range(n):
            center = np.append(emb.centers[i], 0.0)
            for k in range(n + 1):
                if k == i:
                    continue
                dist = np.linalg.norm(emb.vertices[k] - center)
                assert abs(dist - emb.gamma) <= 1e-10 * emb.gamma
        # the bottom facet's vertices sit on the unit sphere
        for k in range(n):
            assert np.linalg.norm(emb.vertices[k]) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n,t", [(2, 0.8), (3, T35), (5, 1.3)])
    def test_gram_closed_form(self, n, t):
        emb = halfspace_embedding(SimplexParams(n, t))
        for i in range(n):
            idx = [j for j in range(n) if j != i]
            gram = emb.v[idx] @ emb.v[idx].T
            assert np.max(np.abs(gram - emb.gram)) <= 1e-12 * emb.sin_alpha**2

    def test_gram_rhs_constant(self):
        n, s = 3, 0.6
        emb = halfspace_embedding(SimplexParams.from_sin_t(n, s))
        c = -(n + 1) * s / ((n - s) * (1 - s))
        for i in range(n):
            for k in range(n):
                if k == i:
                    continue
                assert emb.v[k] @ emb.centers[i] == pytest.approx(c, rel=1e-12)

    def test_vertical_coordinates(self):
        p = SimplexParams(4, 0.9)
        emb = halfspace_embedding(p)
        n, s = 4, p.sin_t
        assert emb.cos_alpha == pytest.approx(
            n * p.cos_t / math.sqrt(n * n - s * s), rel=1e-14)
        top = math.sqrt((n + s) * (1 + s) / ((n - s) * (1 - s)))
        assert emb.top_height == pytest.approx(top, rel=1e-13)
        assert emb.height_sq_scale - emb.height_sq_slope == pytest.approx(1.0, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            halfspace_embedding(SimplexParams(3, 0.0))
        with pytest.raises(DegenerateGeometryError):
            halfspace_embedding(SimplexParams(3, math.pi / 2))
        with pytest.raises(DegenerateGeometryError):
            halfspace_embedding(SimplexParams(3, math.pi / 2 - 1e-8))


def test_unit_simplex_point_case():
    assert unit_simplex_vertices(0).shape == (1, 0)
    assert np.array_equal(unit_simplex_vertices(1), [[1.0], [-1.0]])
