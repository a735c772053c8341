import math

import numpy as np
import pytest

from bpblab import (
    convex_witness_approx,
    direct_sum_shrink_approx,
    enumerate_extreme_linf3_l13,
    functional_approx_lp2,
    hilbert_nonpreserving_demo,
    hilbert_rotate_approx,
    l1,
    l1_extreme_approx,
    l2,
    linf,
    linf3_l13_extreme_approx,
    linf_extreme_approx,
    lp,
    op_norm,
    operator,
    point,
    rank_one_approx,
    sbpbp_counterexample_family,
    verify_uniform_bpb,
)
from bpblab import approximants, operators
from bpblab.classify import census_lookup
from bpblab.errors import (
    BadIndexError,
    CodomainDimOneError,
    ConditionFailsError,
    ConstructionError,
    DegenerateWitnessError,
    IsIsometryError,
    NotAMidpointError,
    NotInEnumerationError,
    NormNotOneError,
    NotRankOneError,
    ObstructionError,
    OutOfRangeError,
    ZeroOnX2Error,
)
from bpblab.bpbverify import _random_linf_candidates
from bpblab.operators import OperatorMatrix, attainment_equal, attainment_set
from bpblab.optim import bisect_increasing
from bpblab.spaces import TAU_EQ, Point, SpaceSpec, lp_circle, pnorm, support_functionals


def check_contract(report, preserved=True):
    assert report.distance < report.eps
    v, _ = op_norm(report.approximant)
    assert v == pytest.approx(1.0, abs=1e-9)
    assert not report.approximant.close_to(report.original)
    assert report.attainment_preserved == preserved


def small_eps_operators():
    """The rank-one census member and l_inf^3 -> l_3^2 operator on which
    the tilt misbehaved at small eps, by codomain."""
    w = np.array([0.6, (1.0 - 0.6 ** 3) ** (1.0 / 3.0)])
    return {
        "census": operator([[0, 0, 0], [0, -1, 0], [0, 0, 0]], linf(3), l1(3)),
        "l_3^2": operator(np.outer(w, [0.5, -0.25, 0.25]), linf(3), lp(3, 2)),
    }


class TestRankOne:
    def test_euclidean_projection(self):
        T = operator([[1.0, 0.0], [0.0, 0.0]], l2(2), l2(2))
        report = rank_one_approx(T, 0.1)
        check_contract(report)
        assert report.distance == pytest.approx(0.025, abs=1e-10)

    def test_sup_norm_face_preserved(self):
        T = operator([[1.0, 0.0], [0.0, 0.0]], linf(2), linf(2))
        report = rank_one_approx(T, 0.2)
        check_contract(report)
        assert {f.pattern for f in report.attainment_approximant.faces} == {
            (1, 0),
            (-1, 0),
        }

    def test_rank_two_rejected(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        with pytest.raises(NotRankOneError):
            rank_one_approx(T, 0.1)

    def test_one_dimensional_codomain_rejected(self):
        T = operator([[1.0, 0.0]], l2(2), l2(1))
        with pytest.raises(CodomainDimOneError):
            rank_one_approx(T, 0.1)

    @pytest.mark.parametrize("eps", [1e-12, 5e-13, 1e-13])
    @pytest.mark.parametrize("codomain", ["census", "l_3^2"])
    def test_small_eps_lands_at_a_quarter_of_eps(self, codomain, eps):
        # the tilt t is about eps/8, so a bracket 1e-12 wide is no bound on
        # it: at 5e-13 the census member raised, the distance 9.1e-13 not
        # below eps, and at 1e-12 the distance was 0.91 eps
        T = small_eps_operators()[codomain]
        report = rank_one_approx(T, eps)
        assert report.distance < eps and report.attainment_preserved
        # within 2^-10 relative, up to the rounding of T - A's entries near
        # 1 (half an ulp of 1 each)
        assert abs(report.distance - eps / 4.0) <= 2.0 ** -10 * eps / 4.0 + 2.0 ** -51
        if eps >= 1e-12:
            assert report.distance == pytest.approx(eps / 4.0, rel=1e-3)

    @pytest.mark.parametrize("eps", [4e-14, 1e-15, approximants._RANK_ONE_EPS_MIN])
    def test_eps_at_the_coincidence_floor_is_refused_up_front(self, monkeypatch, eps):
        # at 4e-14 the l_3^2 operator raised ConstructionError("coincides")
        monkeypatch.setattr(approximants, "norm_one_attainment_set", None)
        monkeypatch.setattr(approximants, "_tilt", None)
        for T in small_eps_operators().values():
            with pytest.raises(OutOfRangeError, match="eps"):
                rank_one_approx(T, eps)
        # the l_2^n chain reaches the tilt with eps already in (0, 2)
        monkeypatch.undo()
        monkeypatch.setattr(approximants, "_tilt", None)
        R = operator(np.diag([1.0, 0.0, 0.0]), l2(3), l2(3))
        with pytest.raises(OutOfRangeError, match="eps"):
            hilbert_rotate_approx(R, eps)

    def test_every_accepted_small_eps_constructs(self):
        floor = approximants._RANK_ONE_EPS_MIN
        assert floor == 5.0 * operators.TAU_COINCIDE
        grid = np.concatenate([
            np.nextafter(floor, 1.0) + 1e-17 * np.arange(8),
            np.geomspace(4e-14, 1e-12, 24),
        ])
        R = operator(np.diag([1.0, 0.0, 0.0]), l2(3), l2(3))
        for eps in grid.tolist():
            for T in small_eps_operators().values():
                if eps <= floor:
                    with pytest.raises(OutOfRangeError):
                        rank_one_approx(T, eps)
                    continue
                report = rank_one_approx(T, eps)
                assert operators.TAU_COINCIDE < report.distance < eps
            if eps > floor:
                assert hilbert_rotate_approx(R, eps).distance > operators.TAU_COINCIDE


class TestConvexWitness:
    def setup_method(self):
        self.T = operator([[1.0, 0.0], [0.0, 0.0]], linf(2), linf(2))
        self.T1 = operator([[1.0, 0.0], [0.0, 0.5]], linf(2), linf(2))
        self.T2 = operator([[1.0, 0.0], [0.0, -0.5]], linf(2), linf(2))

    def test_smallest_index_and_entries(self):
        report = convex_witness_approx(self.T, self.T1, self.T2, 0.1)
        check_contract(report)
        assert report.construction == "convex_witness(n=6)"
        assert np.allclose(
            report.approximant.entries, [[1.0, 0.0], [0.0, 1.0 / 12.0]]
        )

    def test_distance_formula(self):
        report = convex_witness_approx(self.T, self.T1, self.T2, 0.1)
        d, _ = op_norm(self.T - self.T1)
        assert report.distance == pytest.approx(d / 6.0)

    def test_attainment_recomputed_both_ways(self):
        report = convex_witness_approx(self.T, self.T1, self.T2, 0.1)
        assert attainment_equal(
            attainment_set(self.T), attainment_set(report.approximant)
        )

    def test_not_a_midpoint(self):
        bad = operator([[0.9, 0.0], [0.0, 0.0]], linf(2), linf(2))
        with pytest.raises(NotAMidpointError):
            convex_witness_approx(bad, self.T1, self.T2, 0.1)

    def test_degenerate_witness(self):
        with pytest.raises(DegenerateWitnessError):
            convex_witness_approx(self.T1, self.T1, self.T1, 0.1)

    def test_endpoint_norms_must_be_one(self):
        long = operator([[1.1, 0.0], [0.0, 0.5]], linf(2), linf(2))
        for T1, T2, name in ((long, self.T2, "T1"), (self.T1, long, "T2")):
            with pytest.raises(NormNotOneError, match=name):
                convex_witness_approx(0.5 * (T1 + T2), T1, T2, 0.1)


class TestDirectSumShrink:
    def test_diagonal_shrink(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        report = direct_sum_shrink_approx(
            T, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), 0.1
        )
        check_contract(report)
        # the second diagonal entry shrinks by the factor 1 - 1/n
        n = 21
        assert report.approximant.entries[1, 1] == pytest.approx(0.5 * (1 - 1 / n))
        assert report.distance <= 2.0 / n

    def test_shrink_bound_holds_across_eps(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        for eps in (0.5, 0.21, 0.07):
            report = direct_sum_shrink_approx(
                T, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), eps
            )
            n = int(report.construction.split("n=")[1].rstrip(")"))
            assert 2.0 / n < eps <= 2.0 / (n - 1)
            assert report.distance <= 2.0 / n + 1e-12

    def test_vanishing_second_component_rejected(self):
        T = operator(np.diag([1.0, 0.0]), l2(2), l2(2))
        with pytest.raises(ZeroOnX2Error):
            direct_sum_shrink_approx(
                T, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), 0.1
            )


class TestLinfExtreme:
    def test_doubled_column_entry(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        report = linf_extreme_approx(T, 0.2)
        check_contract(report)
        assert np.allclose(report.approximant.entries, [[0.9, 0.0], [1.0, 0.0]])
        assert {f.pattern for f in report.attainment_approximant.faces} == {
            (1, 0),
            (-1, 0),
        }

    def test_distance_is_exactly_half_eps(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        for eps in (0.02, 0.2, 0.9):
            report = linf_extreme_approx(T, eps)
            assert report.distance == pytest.approx(eps / 2.0, abs=1e-9)

    def test_negative_entry_moves_toward_zero(self):
        T = operator(
            [[-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            linf(3),
            linf(3),
        )
        report = linf_extreme_approx(T, 0.2)
        check_contract(report)
        assert report.approximant.entries[0, 0] == pytest.approx(-0.9)

    def test_isometry_rejected(self):
        with pytest.raises(IsIsometryError):
            linf_extreme_approx(operator(np.eye(2), linf(2), linf(2)), 0.2)

    def test_condition_failure_rejected(self):
        T = operator([[0.5, 0.5], [0.0, 1.0]], linf(2), linf(2))
        with pytest.raises(ConditionFailsError):
            linf_extreme_approx(T, 0.2)

    def test_boundary_signed_permutation_rejected(self):
        # 1e-9 is TAU_EQ: zero for the row condition and for is_isometry
        T = operator([[1.0, 1e-9], [0.0, 1.0]], linf(2), linf(2))
        with pytest.raises(IsIsometryError):
            linf_extreme_approx(T, 0.2)


class TestL1Extreme:
    def test_column_sums_preserved(self):
        T = operator([[1.0, 1.0], [0.0, 0.0]], l1(2), l1(2))
        report = l1_extreme_approx(T, 0.2)
        check_contract(report)
        A = report.approximant.entries
        assert np.allclose(np.abs(A).sum(axis=0), [1.0, 1.0])
        assert np.allclose(A, [[0.95, 1.0], [0.05, 0.0]])

    def test_distance_below_eps(self):
        T = operator([[1.0, 1.0], [0.0, 0.0]], l1(2), l1(2))
        report = l1_extreme_approx(T, 0.2)
        assert report.distance == pytest.approx(0.1, abs=1e-9)

    def test_three_dimensional_case(self):
        T = operator(
            [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], l1(3), l1(3)
        )
        report = l1_extreme_approx(T, 0.3)
        check_contract(report)

    def test_isometry_rejected(self):
        with pytest.raises(IsIsometryError):
            l1_extreme_approx(operator(np.eye(2), l1(2), l1(2)), 0.2)

    def test_boundary_signed_permutation_rejected(self):
        # 1e-9 is TAU_EQ: zero for the column condition and for is_isometry
        T = operator([[1.0, 0.0], [1e-9, 1.0]], l1(2), l1(2))
        with pytest.raises(IsIsometryError):
            l1_extreme_approx(T, 0.2)


def old_linf_target(E):
    """The entry linf_extreme_approx shrank before it read the column
    counts off one mask: the first entry of the first doubled column."""
    for c in range(E.shape[1]):
        rows = [r for r in range(E.shape[0]) if abs(E[r, c]) > TAU_EQ]
        if len(rows) >= 2:
            return {(rows[0], c)}


def old_l1_targets(E):
    """The entries l1_extreme_approx moved mass between, found row by row:
    the first doubled row's first entry and the first zero row."""
    m = E.shape[0]
    heavy = next(r for r in range(m) if (np.abs(E[r]) > TAU_EQ).sum() >= 2)
    zero = next(r for r in range(m) if (np.abs(E[r]) <= TAU_EQ).all())
    c = next(c for c in range(E.shape[1]) if abs(E[heavy, c]) > TAU_EQ)
    return {(heavy, c), (zero, c)}


@pytest.mark.parametrize("n", [2, 3])
def test_sign_pattern_constructors_move_the_entries_the_loops_chose(n):
    # every non-isometric one-unimodular-per-row matrix: 8 for n = 2, 168 for n = 3
    family = _random_linf_candidates(n, 1000, np.random.default_rng(0))
    for M in family:
        for E, s, build, old in ((M, linf(n), linf_extreme_approx, old_linf_target),
                                 (M.T, l1(n), l1_extreme_approx, old_l1_targets)):
            T = operator(E, s, s)
            A = build(T, 0.3).approximant.entries
            moved = set(zip(*np.nonzero(A != T.entries)))
            assert moved == old(E)


class TestMixedCensusApprox:
    def test_block_canonical_distance(self):
        T = operator(
            [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]], linf(3), l1(3)
        )
        report = linf3_l13_extreme_approx(T, 0.4)
        check_contract(report)
        assert report.distance == pytest.approx(0.2, abs=1e-12)

    def test_conjugated_member_matches_canonical(self):
        members = enumerate_extreme_linf3_l13()
        block = [m for m in members if census_lookup(m)[0] == "block"]
        for T in block[::9]:
            report = linf3_l13_extreme_approx(T, 0.4)
            check_contract(report)
            assert report.distance == pytest.approx(0.2, abs=1e-12)

    def test_rank_one_member_routes_to_rank_one(self):
        members = enumerate_extreme_linf3_l13()
        T = next(m for m in members if census_lookup(m)[0] == "rank_one")
        report = linf3_l13_extreme_approx(T, 0.4)
        check_contract(report)
        assert report.construction == "rank_one"

    def test_outsider_rejected(self):
        T = operator(np.full((3, 3), 1.0 / 3.0), linf(3), l1(3))
        v, _ = op_norm(T)
        with pytest.raises(NotInEnumerationError):
            linf3_l13_extreme_approx((1.0 / v) * T, 0.4)


class TestHilbertRotate:
    def test_positive_subnorm_complement_shrinks(self):
        T = operator(np.diag([1.0, 1.0, 0.5]), l2(3), l2(3))
        report = hilbert_rotate_approx(T, 0.1)
        check_contract(report)
        assert report.construction.startswith("direct_sum_shrink")
        assert report.attainment_approximant.subspace_dim == 2

    def test_vanishing_complement_rotates(self):
        T = operator(np.diag([1.0, 1.0, 0.0]), l2(3), l2(3))
        report = hilbert_rotate_approx(T, 0.1)
        check_contract(report)
        assert report.construction == "hilbert_rotate"
        assert report.distance == pytest.approx(0.1 / 4.0, abs=1e-9)

    def test_rank_one_branch(self):
        T = operator(np.diag([1.0, 0.0]), l2(2), l2(2))
        report = hilbert_rotate_approx(T, 0.1)
        check_contract(report)
        assert report.construction == "rank_one"

    def test_full_norm_on_complement_is_an_obstruction(self):
        T = operator(np.eye(2), l2(2), l2(2))
        with pytest.raises((ObstructionError, IsIsometryError)):
            hilbert_rotate_approx(T, 0.1, attained_subspace=np.array([[1.0], [0.0]]))
        Tsplit = operator(np.diag([1.0, 1.0, 0.5]), l2(3), l2(3))
        with pytest.raises(ObstructionError):
            hilbert_rotate_approx(
                Tsplit, 0.1, attained_subspace=np.array([[1.0], [0.0], [0.0]])
            )


class TestHilbertChainWork:
    """The l_2^n chain hilbert_rotate_approx -> direct_sum_shrink or
    rank_one -> _finish checks ||T|| once and builds M_T once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        for name in ("op_norm", "attainment_set"):
            fn = getattr(operators, name)

            def spy(T, *args, _fn=fn, _name=name, **kwargs):
                log.append((_name, T.entries.tobytes()))
                return _fn(T, *args, **kwargs)

            for module in (operators, approximants):
                monkeypatch.setattr(module, name, spy)
        return log

    @pytest.mark.parametrize("diag, construction", [
        ([1.0, 1.0, 0.5], "direct_sum_shrink"),
        ([1.0, 1.0, 0.0], "hilbert_rotate"),
        ([1.0, 0.0, 0.0], "rank_one"),
    ])
    def test_one_attainment_set_and_no_norm_of_T(self, calls, diag, construction):
        T = operator(np.diag(diag), l2(3), l2(3))
        report = hilbert_rotate_approx(T, 0.1)
        assert report.construction.startswith(construction)
        of_T = [name for name, key in calls if key == T.entries.tobytes()]
        assert of_T == ["attainment_set"]
        # the rest: M_A and ||T - A|| in _finish
        assert sorted(name for name, _ in calls) == ["attainment_set", "attainment_set", "op_norm"]

    def test_the_complement_norm_is_computed_once(self, monkeypatch):
        # hilbert_rotate_approx reads ||T|_{X2}|| off the held SVD, or takes
        # it on the orthonormal complement of a declared subspace without
        # the public rank test, and hands it to the shrink; the public
        # direct_sum_shrink_approx computes it itself
        log = []

        def spy(fn):
            def call(T, basis):
                log.append(np.array(basis))
                return fn(T, basis)
            return call

        for name in ("restricted_norm", "_orthonormal_norm"):
            monkeypatch.setattr(approximants, name, spy(getattr(approximants, name)))
        T = operator(np.diag([1.0, 1.0, 0.5]), l2(3), l2(3))
        assert hilbert_rotate_approx(T, 0.1).construction.startswith("direct_sum_shrink")
        assert len(log) == 0
        Q0, Qc = np.eye(3)[:, :2], np.eye(3)[:, 2:]
        declared = hilbert_rotate_approx(T, 0.1, attained_subspace=Q0)
        assert declared.construction.startswith("direct_sum_shrink")
        assert len(log) == 1 and np.abs(np.abs(log[0]) - Qc).max() < 1e-15
        assert direct_sum_shrink_approx(T, Q0, Qc, 0.1).construction.startswith("direct_sum_shrink")
        assert len(log) == 2 and np.array_equal(log[1], Qc)

    def test_the_l23_chain_runs_three_svds_and_one_eigh(self, monkeypatch):
        # norm -> set -> constructor -> certificate on a fresh l_2^3
        # operator: one SVD each for T, A and T - A (the norm memo), one
        # eigh for the secular solve; the split is read off T's SVD
        rng = np.random.default_rng(7)
        M = rng.standard_normal((3, 3))
        T = operator(M / np.linalg.svd(M, compute_uv=False)[0], l2(3), l2(3))
        counts = {}
        for name in ("svd", "eigh", "qr", "det", "inv"):
            fn = getattr(np.linalg, name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        operators._norm_analysis.cache_clear()
        op_norm(T)
        operators.attainment_set(T)
        report = hilbert_rotate_approx(T, 0.3)
        assert report.construction.startswith("direct_sum_shrink")
        assert verify_uniform_bpb(T, report.approximant, 0.3).certified
        assert counts == {"svd": 3, "eigh": 1}

    def test_reports_match_the_public_constructors(self):
        T = operator(np.diag([1.0, 1.0, 0.5]), l2(3), l2(3))
        chained = hilbert_rotate_approx(T, 0.1)
        Q0 = chained.attainment_original.basis
        Qc = np.array([[0.0], [0.0], [1.0]])
        direct = direct_sum_shrink_approx(T, Q0, Qc, 0.1)
        assert np.array_equal(chained.approximant.entries, direct.approximant.entries)
        assert chained.distance == direct.distance
        assert chained.construction == direct.construction
        R = operator(np.diag([1.0, 0.0, 0.0]), l2(3), l2(3))
        chained, alone = hilbert_rotate_approx(R, 0.1), rank_one_approx(R, 0.1)
        assert np.array_equal(chained.approximant.entries, alone.approximant.entries)
        assert chained.distance == alone.distance

    @pytest.mark.parametrize("scale", [0.0, 2.0])
    def test_norm_errors_are_unchanged(self, scale):
        T = operator(scale * np.eye(3), l2(3), l2(3))
        for construct in (
            lambda: hilbert_rotate_approx(T, 0.1),
            lambda: direct_sum_shrink_approx(T, np.eye(3)[:, :1], np.eye(3)[:, 1:], 0.1),
            lambda: rank_one_approx(T, 0.1),
        ):
            with pytest.raises(NormNotOneError, match=f"operator norm is {scale}, expected 1"):
                construct()


class TestNonPreservingDemo:
    def test_distance_is_cos_theta(self):
        eps = 0.2
        report = hilbert_nonpreserving_demo(eps)
        st = 1.0 - eps ** 2 / 16.0
        ct = math.sqrt(1.0 - st * st)
        assert report.distance == pytest.approx(ct, abs=1e-10)
        assert report.distance < eps / 2.0

    def test_attainment_moves(self):
        eps = 0.2
        report = hilbert_nonpreserving_demo(eps)
        assert not report.attainment_preserved
        st = 1.0 - eps ** 2 / 16.0
        ct = math.sqrt(1.0 - st * st)
        MA = report.attainment_approximant
        direction = np.array([st, ct])
        proj = MA.basis @ MA.basis.T
        assert np.abs(proj @ direction - direction).max() < 1e-9
        assert MA.subspace_dim == 1


class TestFunctionalApprox:
    def test_contract_on_p4_dual(self):
        f = point([1.0, 0.0], lp("4/3", 2))
        report = functional_approx_lp2(f, 0.3)
        assert not report.approximant.close_to(report.original)
        # dual distance below eps
        diff = report.approximant.entries[0] - report.original.entries[0]
        assert float(pnorm(diff, lp("4/3", 2).p)) < 0.3

    def test_attaining_points_within_eps(self):
        f = point([1.0, 0.0], lp("4/3", 2))
        report = functional_approx_lp2(f, 0.3)
        x = report.attainment_original.points
        xk = report.attainment_approximant.points
        d = min(
            float(pnorm(a - bpt, 4)) for a in x for bpt in xk
        )
        assert 0 < d < 0.3


def point_target_functional(f, eps):
    """functional_approx_lp2 as it was with one point distance, eps/4: it
    refused f when the support functional there lay eps or more from f."""
    q_space = f.space
    p_space = q_space.dual()
    qf = float(q_space.p)
    c = f.coords
    x = np.sign(c) * np.abs(c) ** (qf - 1.0)
    x = x / float(pnorm(x, p_space.p))
    t0 = math.atan2(
        math.copysign(abs(x[1]) ** (float(p_space.p) / 2.0), x[1]),
        math.copysign(abs(x[0]) ** (float(p_space.p) / 2.0), x[0]),
    )

    def gap(dt):
        return pnorm(lp_circle(p_space.p, t0 + dt) - x, p_space.pf)

    dt = bisect_increasing(gap, eps / 4.0, 0.0, math.pi / 2.0)
    xk = lp_circle(p_space.p, t0 + dt)
    fk = support_functionals(Point(xk, p_space)).functionals[0]
    cod = SpaceSpec(2, 1)
    Tf = OperatorMatrix(c[None, :], p_space, cod)
    Af = OperatorMatrix(fk.coords[None, :], p_space, cod)
    report = approximants._finish(Tf, Af, eps, "functional_lp2", expect_preserved=False)
    if float(pnorm(fk.coords - c, q_space.p)) >= eps:
        raise ConstructionError("dual distance exceeds eps")
    return report


def report_bits(r):
    return (
        r.approximant.entries.tobytes(), r.distance.hex(), r.construction,
        r.attainment_original.points.tobytes(), r.attainment_approximant.points.tobytes(),
    )


class TestFunctionalHalving:
    """Near p = 1 the support functional of the point eps/4 from x can lie
    eps or more from f; the constructor then halves the point distance."""

    @pytest.fixture
    def targets(self, monkeypatch):
        """The point distances the constructor bisects for, in order."""
        log = []

        def spy(g, target, lo, hi):
            log.append(target)
            return bisect_increasing(g, target, lo, hi)

        monkeypatch.setattr(approximants, "bisect_increasing", spy)
        return log

    @pytest.mark.parametrize("p, refused_before", [
        ("6/5", 5), ("3", 1), ("11/10", 13), ("101/100", 17),
    ])
    def test_every_seeded_functional_is_accepted(self, p, refused_before, targets):
        s = lp(p, 2)
        rng = np.random.default_rng(0)
        refused = 0
        for _ in range(30):
            c = rng.standard_normal(2)
            f = point(c / float(pnorm(c, s.p)), s)
            eps = float(rng.uniform(0.02, 1.98))
            targets.clear()
            report = functional_approx_lp2(f, eps)
            check_contract(report, preserved=report.attainment_preserved)
            diff = report.approximant.entries[0] - report.original.entries[0]
            assert float(pnorm(diff, s.p)) < eps
            assert targets == [eps / 2.0 ** k for k in range(2, len(targets) + 2)]
            assert len(targets) <= 6
            try:
                want = point_target_functional(f, eps)
            except ConstructionError:
                refused += 1
                assert len(targets) > 1
            else:
                # accepted at eps/4: the same bits as before
                assert len(targets) == 1 and report_bits(report) == report_bits(want)
        assert refused == refused_before

    def test_refused_after_the_last_halving(self, targets):
        # on l_{101/100}^2 the dual distance of J(x_k) jumps near a zero
        # coordinate of x, so no halving within the bound helps
        c = np.array([-1.0, -0.49254298])
        f = point(c / float(pnorm(c, 101)), lp(101, 2))
        with pytest.raises(ConstructionError, match="no support functional within eps"):
            functional_approx_lp2(f, 0.025)
        assert len(targets) == approximants._FUNCTIONAL_HALVINGS + 1
        assert targets[-1] == 0.025 / 2.0 ** (approximants._FUNCTIONAL_HALVINGS + 2)


class TestSbpbpFamily:
    def test_matrix_form(self):
        A = sbpbp_counterexample_family(point([1.0, 0.0], l2(2)), 10)
        assert np.allclose(A.entries, np.diag([1.0, 0.9]))

    def test_attainment_pair(self):
        A = sbpbp_counterexample_family(point([1.0, 0.0], l2(2)), 10)
        M = attainment_set(A)
        assert M.kind == "subspace" and M.subspace_dim == 1
        assert abs(abs(M.basis[0, 0]) - 1.0) < 1e-12

    def test_orthogonal_image_norm(self):
        A = sbpbp_counterexample_family(point([1.0, 0.0], l2(2)), 10)
        assert float(pnorm(A.apply([0.0, 1.0]), 2)) == pytest.approx(0.9)

    def test_bad_index(self):
        with pytest.raises(BadIndexError):
            sbpbp_counterexample_family(point([1.0, 0.0], l2(2)), 1)
