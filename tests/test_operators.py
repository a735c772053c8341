import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from bpblab import (
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
    BpbLabError,
    DegenerateBasisError,
    MixedSpacesError,
    NonFiniteError,
    UnsupportedSpaceError,
    ZeroOperatorError,
)
from bpblab.operators import OperatorMatrix, op_norms
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


class TestOpNorms:
    """The stacked kernel gives op_norm's value, bit for bit, per matrix."""

    PAIRS = [
        (linf(2), linf(2)), (linf(3), l1(3)), (l1(2), l1(3)), (l1(3), lp(3, 2)),
        (l2(2), l2(2)), (l2(3), l2(2)), (l2(2), linf(3)), (lp(3, 2), lp(4, 2)),
        (lp("4/3", 2), l1(3)),
    ]

    @pytest.mark.parametrize("dom, cod", PAIRS, ids=lambda s: str(s))
    @pytest.mark.parametrize("stack", [(7,), (3, 2)], ids=["k", "k_j"])
    def test_equals_op_norm_per_matrix(self, dom, cod, stack):
        rng = np.random.default_rng(len(stack) + 10 * dom.n + cod.n)
        E = rng.standard_normal(stack + (cod.n, dom.n))
        E.reshape(-1, cod.n, dom.n)[0] = np.round(E.reshape(-1, cod.n, dom.n)[0])
        got = op_norms(E, dom, cod)
        assert got.shape == stack
        for idx in np.ndindex(*stack):
            want, _ = op_norm(OperatorMatrix(E[idx], dom, cod))
            assert got[idx] == want, (idx, got[idx], want)

    def test_one_matrix_gives_a_scalar(self):
        T = operator([[1.0, -2.0], [0.5, 3.0]], linf(2), l1(2))
        assert op_norms(T.entries, T.domain, T.codomain)[()] == op_norm(T)[0]

    @pytest.mark.parametrize("shape", [(4, 2, 3), (4, 3, 2, 2), (2,)])
    def test_wrong_shape_is_refused(self, shape):
        with pytest.raises(MixedSpacesError, match="3 x 2"):
            op_norms(np.ones(shape), linf(2), linf(3))

    def test_non_finite_entries_are_refused(self):
        E = np.ones((3, 2, 2))
        E[1, 0, 1] = np.nan
        with pytest.raises(NonFiniteError, match="finite"):
            op_norms(E, l2(2), l2(2))


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


def near_norming(T, delta, resolution):
    """Sampled M_T(delta): the unit grid vectors z with ||Tz|| > ||T|| - delta."""
    X = sphere_grid(T.domain, resolution)
    return X[T.image_norms(X) > op_norm(T)[0] - delta]


class TestApproxAttainment:
    def test_angular_cap_oracle(self):
        # for the projection onto e1, ||Tz|| = |cos(angle)|
        T = operator([[1.0, 0.0], [0.0, 0.0]], l2(2), l2(2))
        pts = near_norming(T, 0.01, 4096)
        assert len(pts) > 0
        assert (np.abs(pts[:, 0]) > 0.99).all()

    def test_p4_clusters_near_attainment(self):
        T = hadamard(4)
        pts = near_norming(T, 1e-4, 8192)
        M = attainment_set(T)
        assert len(pts) > 0
        assert float(M.distance_to(pts).max()) < 0.05


GRID_SPACES = [
    linf(2), linf(3), l1(2), l1(3), l2(2), l2(3), lp(3, 2), lp(3, 3), lp("3/2", 2), lp("3/2", 3)
]
GRID_RESOLUTIONS = [2, 16, 256, 4096, 16384]


def covering_bound(space, resolution):
    """The covering radius that `sphere_grid` proves for its radial grids:
    2 s n^(1 - 1/p), s the l_1 covering radius of the cross-polytope
    lattice."""
    n, p = space.n, float(space.p)
    if n == 2:
        s = 1.0 / (max(resolution // 4, 2) - 1)
    else:
        s = 4.0 / (3.0 * max(int(round((2 * max(resolution // 8, 2)) ** 0.5)), 2))
    return 2.0 * s * n ** (1.0 - 1.0 / p)


class TestSphereGrid:
    @pytest.mark.parametrize(
        "space", [linf(1), linf(3), l1(3), l2(2), lp(4, 2), l2(3), l2(4), lp(3, 3), lp("3/2", 3)]
    )
    def test_grids_are_read_only(self, space):
        # one cached array serves every caller at this resolution
        X = sphere_grid(space, 256)
        with pytest.raises(ValueError):
            X[0, 0] = 2.0
        assert sphere_grid(space, 256) is X

    @pytest.mark.parametrize("resolution", GRID_RESOLUTIONS)
    @pytest.mark.parametrize("space", GRID_SPACES, ids=repr)
    def test_rows_are_unit_vectors_holding_the_vertices(self, space, resolution):
        X = sphere_grid(space, resolution)
        assert np.abs(pnorm(X.T, space.p, axis=0) - 1.0).max() <= 4 * np.finfo(float).eps
        # the ball's vertices on l_inf, +-e_i for p < inf: T's norming vertex
        # on a polyhedral domain is always a row already
        if space.p == math.inf:
            must = np.array(list(itertools.product((1.0, -1.0), repeat=space.n)))
        else:
            must = np.concatenate([np.eye(space.n), -np.eye(space.n)])
        for v in must:
            assert (X == v).all(axis=1).any(), v

    @pytest.mark.parametrize("resolution", [1024, 4096])
    @pytest.mark.parametrize(
        "space", [l2(2), lp(3, 2), lp("4/3", 2), l2(3), lp(3, 3), lp("3/2", 3)], ids=repr
    )
    def test_radial_grid_meets_its_covering_bound(self, space, resolution):
        # nearest rows in the domain norm of 20,000 seeded random points of S_X
        X = sphere_grid(space, resolution)
        rng = np.random.default_rng(resolution + space.n)
        Z = rng.standard_normal((20000, space.n))
        Z /= pnorm(Z.T, space.p, axis=0)[:, None]
        dist, _ = cKDTree(X).query(Z, p=float(space.p))
        assert 0.0 < dist.max() <= covering_bound(space, resolution)

    def test_hilbert_n4_keeps_its_seeded_grid(self):
        g = np.random.default_rng(20240000 + 256).standard_normal((256, 4))
        assert np.array_equal(sphere_grid(l2(4), 256), g / np.linalg.norm(g, axis=1, keepdims=True))

    @pytest.mark.parametrize("space", [l1(4), lp(3, 4)], ids=repr)
    def test_n4_off_hilbert_is_refused(self, space):
        with pytest.raises(UnsupportedSpaceError):
            sphere_grid(space, 256)


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

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-10, 1e-11])
    def test_rank_test_covers_the_qr_diagonal(self, scale):
        # the Hilbert path also refused a QR with some |R_ii| <= TAU_RANK;
        # that could not fire after the rank test, as |R_ii| >= s_min(B)
        rng = np.random.default_rng(3)
        for k in (2, 3):
            B = rng.standard_normal((4, k))
            B[:, -1] = B[:, 0] + scale * rng.standard_normal(4)
            s_min = np.linalg.svd(B, compute_uv=False)[-1]
            R = np.linalg.qr(B)[1]
            assert np.abs(np.diag(R)).min() >= s_min * (1.0 - 1e-9)
            T = operator(np.eye(4), l2(4), l2(4))
            assert restricted_norm(T, B) == pytest.approx(1.0)


class TestSmoothOperator:
    def test_single_pair_smooth_image(self):
        assert is_smooth_operator(operator(np.diag([1.0, 0.5]), l2(2), l2(2)))

    def test_full_sphere_not_smooth(self):
        assert not is_smooth_operator(operator(np.eye(2), l2(2), l2(2)))

    def test_face_attainment_not_smooth(self):
        T = operator([[1.0, 0.0], [0.0, 0.0]], linf(2), linf(2))
        assert not is_smooth_operator(T)


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("space", [lp(3, 2), linf(2), l2(2)])
    def test_refused_at_construction_naming_entries(self, bad, space):
        with pytest.raises(NonFiniteError, match="entries") as info:
            operator([[bad, 0.0], [0.0, 1.0]], space, space)
        assert isinstance(info.value, BpbLabError)
        with pytest.raises(NonFiniteError, match="entries"):
            OperatorMatrix(np.array([[1.0, 0.0], [0.0, bad]]), space, space)

    def test_scaling_cannot_build_one(self):
        T = operator([[1.0, 2.0], [3.0, 4.0]], lp(3, 2), lp(3, 2))
        with pytest.raises(NonFiniteError):
            T * math.inf

    def test_overflowing_product_is_refused(self):
        T = operator([[2.0, 0.0], [0.0, 1.0]], linf(2), linf(2))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="entries"):
            T * 1e308


class TestArithmetic:
    """+, - and * build their result without the constructor's copy and
    shape check; the entries are those of the constructor, read-only."""

    @pytest.mark.parametrize("dom, cod", [(l2(3), l2(3)), (linf(3), l1(2)), (lp(3, 2), lp(3, 2))])
    def test_results_are_the_constructor_results(self, dom, cod):
        rng = np.random.default_rng(43)
        T, A = (operator(rng.standard_normal((cod.n, dom.n)), dom, cod) for _ in range(2))
        for got, want in [
            (T - A, OperatorMatrix(T.entries - A.entries, dom, cod)),
            (T + A, OperatorMatrix(T.entries + A.entries, dom, cod)),
            (T * 0.3, OperatorMatrix(T.entries * 0.3, dom, cod)),
            (-2 * T, OperatorMatrix(T.entries * -2.0, dom, cod)),
        ]:
            assert got.entries.tobytes() == want.entries.tobytes()
            assert (got.domain, got.codomain, got.entries.dtype) == (dom, cod, np.float64)
            assert not got.entries.flags.writeable
            with pytest.raises(ValueError):
                got.entries[0, 0] = 1.0

    def test_mixed_pairs_are_refused(self):
        T = operator(np.eye(2), l2(2), l2(2))
        with pytest.raises(MixedSpacesError):
            T - operator(np.eye(2), linf(2), l2(2))
        with pytest.raises(MixedSpacesError):
            T + operator(np.eye(2), l2(2), l1(2))


class TestImageNorms:
    def test_rows_are_norms_of_the_images(self):
        T = operator([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]], l1(2), linf(3))
        X = np.array([[1.0, 0.0], [0.0, -1.0], [0.5, 0.5]])
        assert T.image_norms(X).tolist() == [3.0, 2.0, 1.75]
        assert T.image_norms(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2,), (3,), (1, 2, 2)])
    def test_other_shapes_are_refused_naming_both(self, shape):
        # a 1-D x would otherwise be read as one column after the transpose
        T = operator([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]], l1(2), linf(3))
        with pytest.raises(MixedSpacesError) as info:
            T.image_norms(np.ones(shape))
        assert str(shape) in str(info.value) and "3 x 2" in str(info.value)
