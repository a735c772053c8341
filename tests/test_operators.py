import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpblab import (
    approx_attainment,
    attainment_set,
    delta_for_epsilon,
    is_smooth_operator,
    l1,
    l2,
    linf,
    lp,
    op_norm,
    operator,
    restricted_norm,
)
from bpblab.errors import (
    DegenerateBasisError,
    UnsupportedSpaceError,
    ZeroOperatorError,
)
from bpblab.operators import OperatorMatrix
from bpblab.sampling import sphere_grid
from bpblab.spaces import pnorm


def hadamard(p):
    s = lp(p, 2)
    return operator([[1.0, 1.0], [1.0, -1.0]], s, s)


class TestOpNorm:
    def test_p4_value_and_witness(self):
        v, w = op_norm(hadamard(4))
        assert v == pytest.approx(2 ** 0.75, abs=1e-8)
        assert abs(abs(w.coords[0]) - 2 ** -0.25) < 1e-6
        assert abs(abs(w.coords[1]) - 2 ** -0.25) < 1e-6

    def test_p4_against_independent_grid_oracle(self):
        T = hadamard(4)
        from bpblab.spaces import lp_circle

        t = np.linspace(0, 2 * math.pi, 200_001)
        vals = pnorm(lp_circle(4, t) @ T.entries.T, 4, axis=1)
        v, _ = op_norm(T)
        assert v == pytest.approx(float(vals.max()), abs=1e-8)

    def test_identity_on_sup_norm(self):
        T = operator(np.eye(3), linf(3), linf(3))
        v, _ = op_norm(T)
        assert v == 1.0

    def test_l1_column_maximum(self):
        T = operator([[3.0, 0.0], [0.0, 4.0]], l1(2), l1(2))
        v, w = op_norm(T)
        assert v == 4.0
        assert abs(w.coords[1]) == 1.0 and w.coords[0] == 0.0

    def test_l1_exactness_against_sampling(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            T = operator(rng.standard_normal((3, 3)), l1(3), l1(3))
            v, _ = op_norm(T)
            X = sphere_grid(l1(3), 4096)
            assert float(T.image_norms(X).max()) <= v + 1e-9

    def test_hilbert_is_top_singular_value(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((3, 3))
        v, w = op_norm(operator(M, l2(3), l2(3)))
        assert v == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], abs=1e-12)

    def test_witness_consistency(self):
        for T in (
            hadamard(4),
            operator([[1.0, 2.0], [0.5, -1.0]], linf(2), linf(2)),
            operator([[1.0, 2.0], [0.5, -1.0]], l1(2), l1(2)),
        ):
            v, w = op_norm(T)
            assert pnorm(T.apply(w.coords), T.codomain.p) == pytest.approx(
                v, rel=1e-9
            )

    @settings(deadline=None, max_examples=30)
    @given(st.floats(min_value=0.01, max_value=50))
    def test_scaling(self, c):
        T = operator([[1.0, 0.5], [0.2, -0.7]], linf(2), linf(2))
        v, _ = op_norm(T)
        vc, _ = op_norm(c * T)
        assert vc == pytest.approx(c * v, rel=1e-12)

    def test_unsupported_high_dim(self):
        with pytest.raises(UnsupportedSpaceError):
            op_norm(operator(np.eye(3), lp(4, 3), lp(4, 3)))


class TestAttainmentSet:
    def test_p4_four_points(self):
        M = attainment_set(hadamard(4))
        assert M.kind == "points"
        got = {tuple(np.round(p, 6)) for p in M.points}
        c = round(2 ** -0.25, 6)
        expected = {(c, c), (-c, -c), (c, -c), (-c, c)}
        assert got == expected

    def test_identity_on_plane_is_full_sphere(self):
        M = attainment_set(operator(np.eye(2), l2(2), l2(2)))
        assert M.kind == "subspace" and M.subspace_dim == M.space.n

    def test_hadamard_on_plane_is_full_sphere(self):
        M = attainment_set(hadamard(2))
        assert M.kind == "subspace" and M.subspace_dim == M.space.n

    def test_finite_points_of_each_kind(self):
        P = attainment_set(hadamard(4)).finite_points()
        assert P.shape == (4, 2)
        P = attainment_set(operator(np.diag([1.0, 0.5]), l2(2), l2(2))).finite_points()
        assert np.abs(np.abs(P) - np.eye(2)[[0, 0]]).max() < 1e-12 and np.array_equal(P[1], -P[0])
        assert attainment_set(operator(np.eye(2), l2(2), l2(2))).finite_points() is None
        M = attainment_set(operator(np.diag([1.0, 0.5]), l1(2), l1(2)))
        assert {tuple(x) for x in M.finite_points()} == {(1.0, 0.0), (-1.0, 0.0)}
        assert M.pair_count() == 1
        assert attainment_set(operator([[1.0, 0.0], [0.0, 0.0]], linf(2), linf(2))).finite_points() is None

    def test_dominant_singular_direction(self):
        M = attainment_set(operator(np.diag([1.0, 0.5]), l2(2), l2(2)))
        assert M.kind == "subspace"
        assert M.subspace_dim == 1
        assert abs(abs(M.basis[0, 0]) - 1.0) < 1e-12

    def test_matches_eigendecomposition_of_gram_matrix(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((3, 3))
        T = operator(M, l2(3), l2(3))
        A = attainment_set(T)
        evals, evecs = np.linalg.eigh(M.T @ M)
        top = evecs[:, -1]
        proj = A.basis @ A.basis.T
        assert np.abs(proj @ top - top).max() < 1e-8

    def test_rank_one_sup_norm_face(self):
        T = operator([[1.0, 0.0], [0.0, 0.0]], linf(2), linf(2))
        M = attainment_set(T)
        assert M.kind == "faces"
        assert {f.pattern for f in M.faces} == {(1, 0), (-1, 0)}

    def test_midpoint_filter_excludes_dipping_faces(self):
        # both vertices of the edge x2 = 1 attain, the midpoint does not
        T = operator([[1.0, 0.0], [0.0, 0.1]], linf(2), linf(2))
        M = attainment_set(T)
        assert {f.pattern for f in M.faces} == {(1, 0), (-1, 0)}

    def test_scaling_invariance(self):
        T = hadamard(4)
        A1 = attainment_set(T)
        A2 = attainment_set(3.0 * T)
        got1 = {tuple(np.round(p, 8)) for p in A1.points}
        got2 = {tuple(np.round(p, 8)) for p in A2.points}
        assert got1 == got2

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperatorError):
            attainment_set(operator(np.zeros((2, 2)), l2(2), l2(2)))

    def test_point_pair_cardinality_bound(self):
        # non-isometric operators on 2-D spaces with integer p > 2 attain on
        # at most 2(8p - 5) points
        rng = np.random.default_rng(8)
        s = lp(3, 2)
        for _ in range(10):
            M = rng.standard_normal((2, 2))
            T = operator(M, s, s)
            A = attainment_set(T)
            assert len(A.points) <= 2 * (8 * 3 - 5)


class TestApproxAttainment:
    def test_vacuous_threshold_returns_whole_sample(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        v, _ = op_norm(T)
        pts = approx_attainment(T, delta=v + 1.0, resolution=256)
        assert len(pts) == len(sphere_grid(l2(2), 256))

    def test_angular_cap_oracle(self):
        # for the projection onto e1, ||Tz|| = |cos(angle)|
        T = operator([[1.0, 0.0], [0.0, 0.0]], l2(2), l2(2))
        pts = approx_attainment(T, delta=0.01, resolution=4096)
        assert len(pts) > 0
        assert (np.abs(pts[:, 0]) > 0.99).all()

    def test_p4_clusters_near_attainment(self):
        T = hadamard(4)
        pts = approx_attainment(T, delta=1e-4, resolution=8192)
        M = attainment_set(T)
        assert len(pts) > 0
        assert float(M.distance_to(pts).max()) < 0.05

    def test_monotone_nesting(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        small = approx_attainment(T, delta=0.05, resolution=1024)
        large = approx_attainment(T, delta=0.2, resolution=1024)
        small_set = {tuple(p) for p in small}
        large_set = {tuple(p) for p in large}
        assert small_set <= large_set


class TestSphereGrid:
    @pytest.mark.parametrize("space", [linf(1), linf(3), l1(3), l2(2), lp(4, 2), l2(3), l2(4)])
    def test_grids_are_read_only(self, space):
        # one cached array serves every caller at this resolution
        X = sphere_grid(space, 256)
        with pytest.raises(ValueError):
            X[0, 0] = 2.0
        assert sphere_grid(space, 256) is X


class TestDeltaForEpsilon:
    def test_full_attainment_takes_grid_top(self):
        T = operator(np.eye(2), l2(2), l2(2))
        res = delta_for_epsilon(T, eps=0.1)
        assert res.succeeded and res.delta == pytest.approx(0.5)

    def test_projection_cap_certificate(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        res = delta_for_epsilon(T, eps=0.1, resolution=4096)
        assert res.succeeded and res.delta > 0
        # independent recheck on the same sample
        X = sphere_grid(l2(2), 4096)
        norms = np.linalg.norm(X @ T.entries.T, axis=1)
        mask = norms > 1.0 - res.delta
        dist = np.sqrt(2.0 - 2.0 * np.abs(X[mask, 0]))
        assert float(dist.max()) < 0.1

    def test_p4_positive_delta(self):
        T = hadamard(4)
        res = delta_for_epsilon(T, eps=0.2)
        assert res.succeeded and res.delta > 0


class TestRestrictedNorm:
    def test_diagonal_on_axis(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        assert restricted_norm(T, np.array([[0.0], [1.0]])) == pytest.approx(0.5)

    def test_full_space(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        assert restricted_norm(T, np.eye(2)) == pytest.approx(1.0)

    def test_p4_line_evaluation(self):
        s = lp(4, 2)
        T = operator(np.array([[1.0, 1.0], [1.0, -1.0]]) / 2 ** 0.75, s, s)
        z = np.array([1.0, -1.0])
        expected = float(pnorm(T.apply(z), 4) / pnorm(z, 4))
        assert restricted_norm(T, z[:, None]) == pytest.approx(expected, abs=1e-10)

    def test_degenerate_basis_rejected(self):
        T = operator(np.eye(2), l2(2), l2(2))
        with pytest.raises(DegenerateBasisError):
            restricted_norm(T, np.array([[1.0, 2.0], [1.0, 2.0]]))


class TestSmoothOperator:
    def test_single_pair_smooth_image(self):
        assert is_smooth_operator(operator(np.diag([1.0, 0.5]), l2(2), l2(2)))

    def test_full_sphere_not_smooth(self):
        assert not is_smooth_operator(operator(np.eye(2), l2(2), l2(2)))

    def test_face_attainment_not_smooth(self):
        T = operator([[1.0, 0.0], [0.0, 0.0]], linf(2), linf(2))
        assert not is_smooth_operator(T)
