import math
import warnings
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
    attainment_set,
    birkhoff_orthogonal,
    extreme_points,
    is_smooth_point,
    l1,
    l2,
    linf,
    lp,
    norm,
    op_norm,
    operator,
    point,
    support_functionals,
)
from bpblab.errors import (
    OutOfRangeError,
    UnsupportedExponentError,
    UnsupportedSpaceError,
    ZeroVectorError,
)
from bpblab import spaces
from bpblab.operators import AttainmentSet
from bpblab.spaces import (
    as_exponent,
    face_barycentres,
    face_distances,
    lp_circle,
    pnorm,
    pnorm_into,
    polyhedral_table,
)


def faces(s):
    return polyhedral_table(s).faces


def face_distance(f, X):
    """The distance from each row of X to the face f."""
    return face_distances(f.space, [f.pattern], np.atleast_2d(X))[0]


class TestSpaceSpec:
    @pytest.mark.parametrize("n", [True, False, 0, -1, 2.0])
    def test_dimension_must_be_a_positive_int(self, n):
        # isinstance(True, int) holds, so l_inf^True was built
        with pytest.raises(UnsupportedSpaceError):
            spaces.SpaceSpec(INF, n)


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

    @pytest.mark.parametrize(
        "v, p, want",
        [([0.6, 0.8], 5000, 0.8), ([1e-10, 5e-11], 50, 1e-10 * (1 + 2.0 ** -50) ** (1 / 50)),
         ([3.0, 4.0], 2000, 4.0), ([0.0, 0.0], 5000, 0.0), ([math.inf, 1.0], 5000, math.inf)],
    )
    def test_large_exponent_neither_underflows_nor_overflows(self, v, p, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pnorm(v, p) == pytest.approx(want, rel=1e-12)
            assert pnorm_into(np.array(v)[:, None], p, 0)[0] == pytest.approx(want, rel=1e-12)

    def test_dual_of_an_exponent_just_above_one(self):
        # q = 10^20 + 1, so ||.||_q is the sup norm to the last bit here
        q = lp("1.00000000000000000001", 2).dual().p
        assert pnorm([0.6, 0.8], q) == 0.8

    def test_operator_norm_at_a_large_exponent_raises_no_warning(self):
        s = lp(5000, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = op_norm(operator(np.diag([2.0, 1.0]), s, s))
        assert value == pytest.approx(2.0, rel=1e-12)


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

    @pytest.mark.parametrize("value", ["1e400", 10 ** 400, Fraction(10 ** 309, 3), -math.inf])
    def test_rejects_p_beyond_the_floats(self, value):
        # "1e400" became a 401-digit Fraction that no norm kernel can use,
        # and -inf was read as inf
        with pytest.raises(UnsupportedExponentError):
            as_exponent(value)
        assert as_exponent("1e300") == Fraction(10) ** 300
        assert as_exponent(math.inf) == as_exponent(" Infinity ") == math.inf


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
        assert len(faces(linf(2))) == 8
        assert len(faces(l1(2))) == 8

    def test_cube_face_count(self):
        cube = faces(linf(3))
        assert len(cube) == 26
        by_dim = {}
        for f in cube:
            by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
        assert by_dim == {0: 8, 1: 12, 2: 6}

    def test_face_lattice_closed_forms(self):
        # cube: sum_k C(n,k) 2^(n-k) proper faces; cross-polytope: sum C(n,k) 2^k
        for n in (2, 3):
            assert len(faces(linf(n))) == 3 ** n - 1
            assert len(faces(l1(n))) == 3 ** n - 1

    def test_relative_interior_points(self):
        assert tuple(face_barycentres(linf(2), (1, 0))[0]) == (1, 0)
        assert tuple(face_barycentres(l1(2), (1, 1))[0]) == (0.5, 0.5)
        assert tuple(face_barycentres(linf(3), (0, 0, -1))[0]) == (0, 0, -1)

    def test_every_interior_point_is_on_sphere_and_on_face(self):
        for s in (linf(2), linf(3), l1(2), l1(3)):
            table = polyhedral_table(s)
            assert np.array_equal(table.barycentres, face_barycentres(s, table.patterns))
            for f, x in zip(table.faces, table.barycentres):
                assert pnorm(x, s.p) == pytest.approx(1.0, abs=1e-12)
                assert float(face_distance(f, x)[0]) == pytest.approx(0.0, abs=1e-12)

    def test_bad_pattern_rejected(self):
        with pytest.raises(OutOfRangeError):
            Face(linf(2), (0, 0))
        with pytest.raises(OutOfRangeError):
            Face(l1(2), (2, 0))


def refuse_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated despite the size guard")

    monkeypatch.setattr(spaces.itertools, "product", refuse)


class TestPolyhedralTableGuard:
    """The table refuses, before enumerating anything, a ball with more
    than ENUMERATION_LIMIT vertices (l_inf^20) or faces (n = 13)."""

    def test_cube_vertices(self, monkeypatch):
        refuse_enumeration(monkeypatch)
        with pytest.raises(OutOfRangeError, match="n = 20"):
            op_norm(operator(np.ones((1, 20)), linf(20), l1(1)))

    def test_dual_cube_vertices(self, monkeypatch):
        refuse_enumeration(monkeypatch)
        with pytest.raises(OutOfRangeError, match="n = 20"):
            support_functionals(point(np.eye(20)[0], l1(20)))

    def test_faces(self, monkeypatch):
        polyhedral_table(linf(13))  # its 2^13 vertices are within the limit
        refuse_enumeration(monkeypatch)
        with pytest.raises(OutOfRangeError, match="n = 13"):
            attainment_set(operator(np.eye(13), linf(13), linf(13)))


class TestDistances:
    def test_point_list(self):
        M = AttainmentSet("points", 1.0, l2(2), points=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert float(M.distance_to(np.array([[0.0, 1.0]]))[0]) == pytest.approx(math.sqrt(2))

    def test_no_faces_lie_at_infinite_distance(self):
        X = np.eye(2)
        assert face_distances(linf(2), [], X).shape == (0, 2)
        assert np.isinf(AttainmentSet("faces", 1.0, linf(2), faces=()).distance_to(X)).all()

    def test_point_on_face(self):
        x = point([0.5, 1.0], linf(2))
        assert float(face_distance(Face(linf(2), (0, 1)), x.coords)[0]) == 0.0

    def test_linf_face_clamping_oracle(self):
        # brute force over a fine grid of the face {x1 = 1, |x2| <= 1}
        f = Face(linf(2), (1, 0))
        rng = np.random.default_rng(0)
        for x in rng.uniform(-2, 2, size=(20, 2)):
            grid = np.stack([np.ones(4001), np.linspace(-1, 1, 4001)], axis=1)
            brute = np.abs(grid - x).max(axis=1).min()
            assert float(face_distance(f, x)[0]) == pytest.approx(
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
            assert float(face_distance(f, x)[0]) == pytest.approx(
                brute, abs=1e-3
            )

    def test_l1_face_off_support_mass(self):
        f = Face(l1(3), (1, 0, 0))
        d = float(face_distance(f, [1.0, 0.3, -0.2])[0])
        assert d == pytest.approx(0.5)

    @pytest.mark.parametrize("space", [linf(3), l1(3), linf(4), l1(4)])
    def test_face_distance_matches_closed_forms(self, space):
        # the whole-array closed forms: clamping for l_inf, and for l_1
        # sum((-y)_+) + |sum(y_+) - 1| + off-support mass, y = q x on the support
        X = np.random.default_rng(2).uniform(-2.0, 2.0, size=(400, space.n))
        for f in faces(space):
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
            d = face_distance(f, X)
            assert np.abs(d - expected).max() <= 1e-12
            assert np.array_equal(face_distances(space, [f.pattern], X)[0], d)


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

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
    @pytest.mark.parametrize(
        "space, x, y, strong",
        [
            (linf(2), [1.0, 1.0], [1.0, -1.0], True),
            (l1(2), [1.0, 0.0], [0.0, 1.0], True),
            (linf(2), [1.0, 0.0], [0.0, 1.0], False),
            (l1(2), [1.0, 1.0], [1.0, -1.0], False),
        ],
    )
    def test_strong_variant_is_homogeneous_in_y(self, space, x, y, strong, scale):
        # J(x) y spans [-1, 1] in the first two cases and is {0} in the last two
        ys = point(scale * np.array(y), space)
        assert birkhoff_orthogonal(point(x, space), ys)
        assert birkhoff_orthogonal(point(x, space), ys, strong=True) == strong

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
