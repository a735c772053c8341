import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpblab import (
    INF,
    Face,
    Point,
    arc_length_constant,
    arc_length_total,
    birkhoff_orthogonal,
    enumerate_faces,
    extreme_points,
    is_smooth_point,
    l1,
    l2,
    linf,
    lp,
    norm,
    point,
    support_functionals,
)
from bpblab.errors import (
    OutOfRangeError,
    UnsupportedExponentError,
    UnsupportedSpaceError,
    ZeroVectorError,
)
from bpblab.spaces import lp_circle, pnorm, points_distance


class TestNorm:
    def test_unit_vector(self):
        assert norm(point([1.0, 0.0], lp(3, 2))) == 1.0

    def test_sup_norm_of_ones(self):
        assert norm(point([1.0, 1.0], linf(2))) == 1.0

    def test_p4_formula(self):
        # (1^4 + 1^4)^(1/4) = 2^(1/4)
        assert norm(point([1.0, 1.0], lp(4, 2))) == pytest.approx(2 ** 0.25, abs=1e-12)

    def test_zero_iff_zero_vector(self):
        assert norm(point([0.0, 0.0, 0.0], l1(3))) == 0.0
        assert norm(point([0.0, 1e-100], l2(2))) > 0.0


class TestDuality:
    def test_conjugate_pairs(self):
        assert linf(3).dual() == l1(3)
        assert l2(5).dual() == l2(5)
        assert lp(4, 2).dual() == lp(Fraction(4, 3), 2)

    @given(
        st.one_of(
            st.just(INF),
            st.fractions(min_value=1, max_value=50),
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_involution(self, p, n):
        s = lp(p, n)
        assert s.dual().dual() == s

    def test_rejects_p_below_one(self):
        with pytest.raises(UnsupportedExponentError):
            lp(Fraction(1, 2), 2)


class TestExtremePoints:
    def test_square_has_four_vertices(self):
        pts = extreme_points(linf(2))
        assert len(pts) == 4
        assert {tuple(p.coords) for p in pts} == {
            (1, 1), (1, -1), (-1, 1), (-1, -1)
        }

    def test_cross_polytope_vertices(self):
        pts = extreme_points(l1(2))
        assert {tuple(p.coords) for p in pts} == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_cube_count(self):
        assert len(extreme_points(linf(3))) == 8

    def test_strictly_convex_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            extreme_points(l2(2))


class TestFaces:
    def test_square_face_count(self):
        assert len(enumerate_faces(linf(2))) == 8
        assert len(enumerate_faces(l1(2))) == 8

    def test_cube_face_count(self):
        faces = enumerate_faces(linf(3))
        assert len(faces) == 26
        by_dim = {}
        for f in faces:
            by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
        assert by_dim == {0: 8, 1: 12, 2: 6}

    def test_face_lattice_closed_forms(self):
        # cube: sum_k C(n,k) 2^(n-k) proper faces; cross-polytope: sum C(n,k) 2^k
        for n in (2, 3):
            assert len(enumerate_faces(linf(n))) == 3 ** n - 1
            assert len(enumerate_faces(l1(n))) == 3 ** n - 1

    def test_relative_interior_points(self):
        assert tuple(Face(linf(2), (1, 0)).relative_interior_coords()) == (1, 0)
        ri = Face(l1(2), (1, 1)).relative_interior_coords()
        assert tuple(ri) == (0.5, 0.5)
        assert tuple(Face(linf(3), (0, 0, -1)).relative_interior_coords()) == (
            0,
            0,
            -1,
        )

    def test_every_interior_point_is_on_sphere_and_on_face(self):
        for s in (linf(2), linf(3), l1(2), l1(3)):
            for f in enumerate_faces(s):
                x = f.relative_interior_coords()
                assert pnorm(x, s.p) == pytest.approx(1.0, abs=1e-12)
                assert float(f.distance_to(x[None, :])[0]) == pytest.approx(0.0, abs=1e-12)

    def test_bad_pattern_rejected(self):
        with pytest.raises(OutOfRangeError):
            Face(linf(2), (0, 0))
        with pytest.raises(OutOfRangeError):
            Face(l1(2), (2, 0))


class TestDistances:
    def test_point_list(self):
        x = point([0.0, 1.0], l2(2))
        assert points_distance(x.coords, [point([1.0, 0.0], l2(2)).coords], x.space.p) == pytest.approx(
            math.sqrt(2)
        )

    def test_point_on_face(self):
        x = point([0.5, 1.0], linf(2))
        assert float(Face(linf(2), (0, 1)).distance_to(x.coords[None, :])[0]) == 0.0

    def test_linf_face_clamping_oracle(self):
        # brute force over a fine grid of the face {x1 = 1, |x2| <= 1}
        f = Face(linf(2), (1, 0))
        rng = np.random.default_rng(0)
        for x in rng.uniform(-2, 2, size=(20, 2)):
            grid = np.stack([np.ones(4001), np.linspace(-1, 1, 4001)], axis=1)
            brute = np.abs(grid - x).max(axis=1).min()
            assert float(f.distance_to(x[None, :])[0]) == pytest.approx(
                brute, abs=1e-3
            )

    def test_l1_face_simplex_oracle(self):
        # brute force over convex combinations of e1 and e2
        f = Face(l1(2), (1, 1))
        rng = np.random.default_rng(1)
        lam = np.linspace(0, 1, 4001)
        verts = np.stack([lam, 1 - lam], axis=1)
        for x in rng.uniform(-2, 2, size=(20, 2)):
            brute = np.abs(verts - x).sum(axis=1).min()
            assert float(f.distance_to(x[None, :])[0]) == pytest.approx(
                brute, abs=1e-3
            )

    def test_l1_face_off_support_mass(self):
        f = Face(l1(3), (1, 0, 0))
        d = float(f.distance_to(np.array([[1.0, 0.3, -0.2]]))[0])
        assert d == pytest.approx(0.5)

    @pytest.mark.parametrize("space", [linf(3), l1(3), linf(4), l1(4)])
    def test_face_distance_matches_closed_forms(self, space):
        # the whole-array closed forms: clamping for l_inf, and for l_1
        # sum((-y)_+) + |sum(y_+) - 1| + off-support mass, y = q x on the support
        X = np.random.default_rng(2).uniform(-2.0, 2.0, size=(400, space.n))
        out, work = np.empty(len(X)), np.empty((2, len(X)))
        for f in enumerate_faces(space):
            pat = np.array(f.pattern, dtype=float)
            fixed = pat != 0
            if space.p == INF:
                expected = np.abs(X[:, fixed] - pat[fixed]).max(axis=1)
                if (~fixed).any():
                    over = np.maximum(np.abs(X[:, ~fixed]) - 1.0, 0.0).max(axis=1)
                    expected = np.maximum(expected, over)
            else:
                y = X[:, fixed] * pat[fixed]
                expected = (np.maximum(-y, 0.0).sum(axis=1)
                            + np.abs(np.maximum(y, 0.0).sum(axis=1) - 1.0)
                            + np.abs(X[:, ~fixed]).sum(axis=1))
            d = f.distance_to(X)
            assert np.abs(d - expected).max() <= 1e-12
            assert f.distance_to(X, out, work) is out
            assert np.array_equal(out, d)


class TestSupportFunctionals:
    def test_euclidean_self_duality(self):
        J = support_functionals(point([1.0, 0.0], l2(2)))
        assert J.is_unique
        assert tuple(J.functionals[0].coords) == (1.0, 0.0)

    def test_sup_norm_corner_generators(self):
        J = support_functionals(point([1.0, 1.0], linf(2)))
        assert not J.is_unique
        gens = {tuple(f.coords) for f in J.functionals}
        assert gens == {(1.0, 0.0), (0.0, 1.0)}
        # oracle: brute maximization of f(x) over a sampled dual sphere
        t = np.linspace(0, 2 * math.pi, 2000, endpoint=False)
        duals = lp_circle(1, t)
        best = (duals @ np.array([1.0, 1.0])).max()
        assert best == pytest.approx(1.0, abs=1e-5)

    def test_p4_duality_map(self):
        x = point([2 ** -0.25, 2 ** -0.25], lp(4, 2))
        J = support_functionals(x)
        assert J.is_unique
        f = J.functionals[0]
        q = Fraction(4, 3)
        assert pnorm(f.coords, q) == pytest.approx(1.0, abs=1e-12)
        assert float(f.coords @ x.coords) == pytest.approx(x.norm(), abs=1e-12)

    def test_holder_consistency(self):
        rng = np.random.default_rng(3)
        for s in (linf(3), l1(3), l2(3), lp(4, 2)):
            for _ in range(20):
                x = rng.standard_normal(s.n)
                f = rng.standard_normal(s.n)
                f = f / pnorm(f, s.dual().p)
                assert float(f @ x) <= pnorm(x, s.p) + 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            support_functionals(point([0.0, 0.0], l2(2)))


class TestSmoothPoints:
    def test_unique_max_coordinate(self):
        assert is_smooth_point(point([1.0, 0.5], linf(2)))

    def test_tied_max_coordinate(self):
        assert not is_smooth_point(point([1.0, 1.0], linf(2)))

    def test_l1_zero_coordinate(self):
        assert not is_smooth_point(point([1.0, 0.0], l1(2)))
        assert is_smooth_point(point([0.5, -0.5], l1(2)))

    def test_strictly_convex_always_smooth(self):
        assert is_smooth_point(point([1.0, 1.0], lp(4, 2)))


class TestBirkhoffOrthogonality:
    def test_inner_product_orthogonality(self):
        assert birkhoff_orthogonal(point([1, 0], l2(2)), point([0, 1], l2(2)))

    def test_sup_norm_pair(self):
        x = point([1.0, 1.0], linf(2))
        y = point([1.0, -1.0], linf(2))
        assert birkhoff_orthogonal(x, y)
        # oracle: grid minimization of the sup norm of x + lam*y
        lam = np.linspace(-3, 3, 20001)
        vals = np.abs(x.coords + lam[:, None] * y.coords).max(axis=1)
        assert vals.min() >= 1.0 - 1e-9

    def test_collinear_fails(self):
        assert not birkhoff_orthogonal(point([1, 0], l2(2)), point([1, 0], l2(2)))

    def test_strong_variant_on_strictly_convex(self):
        assert birkhoff_orthogonal(
            point([1, 0], l2(2)), point([0, 1], l2(2)), strong=True
        )

    def test_strong_fails_on_flat_sphere(self):
        # on the square, (1,1) stays norm-one under small moves along (0,1)
        x = point([1.0, 0.0], linf(2))
        y = point([0.0, 1.0], linf(2))
        assert birkhoff_orthogonal(x, y)
        assert not birkhoff_orthogonal(x, y, strong=True)

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0.01, max_value=100),
    )
    def test_homogeneous_in_both_arguments(self, a, b):
        x = point([1.0, 0.3], lp(3, 2))
        y = point([-0.2, 1.0], lp(3, 2))
        base = birkhoff_orthogonal(x, y)
        xs = point(a * x.coords, x.space)
        ys = point(b * y.coords, y.space)
        assert birkhoff_orthogonal(xs, ys) == base


class TestArcLength:
    def test_circle(self):
        assert arc_length_total(2) == pytest.approx(2 * math.pi, rel=1e-10)

    def test_polyhedral_perimeters(self):
        assert arc_length_total(1) == pytest.approx(4 * math.sqrt(2))
        assert arc_length_total(INF) == pytest.approx(8.0)

    def test_p4_against_polyline_oracle(self):
        t = np.linspace(0, 2 * math.pi, 1_000_001)
        pts = lp_circle(4, t)
        polyline = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
        assert arc_length_total(4) == pytest.approx(polyline, rel=1e-8)


class TestArcLengthConstant:
    def test_circle_chord_formula(self):
        for eps in (0.1, 0.5, 1.0, 2.0):
            assert arc_length_constant(2, eps) == pytest.approx(
                2 * math.sin(eps / 2), abs=1e-5
            )

    def test_p4_against_brute_force_pairs(self):
        eps = 0.1
        t = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
        pts = lp_circle(4, t)
        seg = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])[:-1]
        # for each start point, the partner at cumulative arc separation eps
        j = np.searchsorted(np.concatenate([s, s + s[-1] + seg[-1]]), s + eps)
        partners = pts[j % len(t)]
        brute = float(pnorm(pts - partners, 4, axis=1).min())
        assert arc_length_constant(4, eps) == pytest.approx(brute, abs=1e-3)

    def test_nondecreasing_in_eps(self):
        vals = [arc_length_constant(3, e) for e in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_chord_at_most_arc_for_large_p(self):
        for p in (3, 4):
            for eps in (0.1, 0.5, 1.5):
                assert arc_length_constant(p, eps) <= eps + 1e-9

    def test_small_eps_ratio_bounded(self):
        ratios = [arc_length_constant(3, e) / e for e in (1e-2, 1e-3)]
        assert all(0.5 < r <= 1.0 + 1e-6 for r in ratios)

    def test_eps_out_of_range(self):
        L = arc_length_total(3)
        with pytest.raises(OutOfRangeError):
            arc_length_constant(3, L / 2 + 0.1)

    def test_polyhedral_exponent_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            arc_length_constant(1, 0.1)
