import math
import threading
import tracemalloc

import numpy as np
import pytest

from bpblab import (
    attainment_cardinality_check,
    check_ball_inclusion,
    enumerate_isometries,
    epsilon0_lp2,
    hilbert_necessary_checks,
    hilbert_nonpreserving_demo,
    hilbert_rotate_approx,
    is_only_approximation,
    l1,
    l1_extreme_approx,
    l2,
    linf,
    linf_extreme_approx,
    lp,
    op_norm,
    operator,
    pair_property_sweep,
    property_p_witness,
    verify_uniform_bpb,
)
from bpblab.errors import (
    BadExponentError,
    IsIsometryError,
    NotDiscreteError,
    UnsupportedPairError,
)
from bpblab.operators import attainment_set


class TestVerifyUniformBpb:
    def test_constructor_output_certified(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        report = linf_extreme_approx(T, 0.2)
        cert = verify_uniform_bpb(T, report.approximant, 0.2)
        assert cert.certified and cert.delta_found > 0

    def test_self_approximation_certified(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        cert = verify_uniform_bpb(T, T, 0.1)
        assert cert.certified
        assert cert.operator_distance == 0.0

    def test_distance_violation_falsifies(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        A = operator(np.diag([0.5, 1.0]), l2(2), l2(2))
        cert = verify_uniform_bpb(T, A, 0.2)
        assert cert.status == "falsified"

    def test_moved_attainment_falsifies_small_eps(self):
        # nearby operators whose attainment pairs sit far apart
        T = operator(np.diag([1.0, 0.97]), l2(2), l2(2))
        A = operator(np.diag([0.97, 1.0]), l2(2), l2(2))
        cert = verify_uniform_bpb(T, A, 0.5)
        assert cert.status == "falsified"
        assert cert.counterexample is not None
        z = cert.counterexample.coords
        # the counterexample nearly attains for T yet sits far from M_A
        assert float(np.linalg.norm(T.apply(z))) > 1.0 - 1e-5
        MA = attainment_set(A)
        assert float(MA.distance_to(z[None, :])[0]) >= 0.5

    @pytest.mark.parametrize("p", [2, 3])
    def test_sparse_grid_does_not_certify_vacuously(self, p):
        # the two grid points (+-1, 0) have ||Tz|| = 0.4, so no grid sample
        # is near-norming; the norming vector of T must join the sample
        s = lp(p, 2)
        T = operator(np.diag([0.4, 1.0]), s, s)
        A = operator(np.diag([1.0, 0.4]), s, s)
        cert = verify_uniform_bpb(T, A, 0.7, resolution=2)
        assert cert.status == "falsified"
        assert abs(cert.counterexample.coords[1]) == pytest.approx(1.0)

    def test_polyhedral_verify_reuses_its_grid_arrays(self):
        # every array over the 16384-point grid is 0.1-0.4 MB; after the
        # first call none of them is allocated again, on a polyhedral
        # domain (face distances) or a Euclidean one (subspace distances)
        s, h = l1(3), l2(3)
        L = operator(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]).T, s, s)
        H = operator(np.diag([1.0, 1.0, 0.5]), h, h)
        for T, A in ((L, l1_extreme_approx(L, 0.3).approximant),
                     (H, hilbert_rotate_approx(H, 0.3).approximant)):
            first = verify_uniform_bpb(T, A, 0.3, resolution=16384)
            tracemalloc.start()
            try:
                again = verify_uniform_bpb(T, A, 0.3, resolution=16384)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert again == first and first.certified
            assert peak < 64 * 1024, T.domain

    def test_threads_do_not_share_grid_arrays(self):
        s = linf(3)
        cases = []
        for cols in ((0, 0, 2), (1, 1, 0), (0, 2, 2), (2, 1, 2)):
            T = operator(np.eye(3)[list(cols)], s, s)
            cases.append((T, linf_extreme_approx(T, 0.3).approximant))
        expected = [verify_uniform_bpb(T, A, 0.3, resolution=4096) for T, A in cases]
        got = [[] for _ in cases]

        def work(i):
            for _ in range(5):
                got[i].append(verify_uniform_bpb(*cases[i], 0.3, resolution=4096))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == [[c] * 5 for c in expected]

    def test_monotone_in_eps(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        report = linf_extreme_approx(T, 0.2)
        c1 = verify_uniform_bpb(T, report.approximant, 0.2)
        c2 = verify_uniform_bpb(T, report.approximant, 0.4)
        assert c1.certified and c2.certified
        assert c2.delta_found >= c1.delta_found

    def test_certificate_survives_refinement(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        report = linf_extreme_approx(T, 0.2)
        for res in (4096, 16384):
            assert verify_uniform_bpb(T, report.approximant, 0.2, resolution=res).certified


class TestOnlyApproximation:
    def test_isometry_has_no_random_counterexample(self):
        T = enumerate_isometries(linf(2))[0]
        res = is_only_approximation(T, 0.5, trials=50, seed=0)
        assert not res.found

    def test_split_singular_values_admit_counterexamples(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        res = is_only_approximation(T, 0.3, trials=50, seed=0)
        assert res.found
        assert res.certificate.certified
        d, _ = op_norm(T - res.counterexample)
        assert d < 0.3

    def test_trials_validated(self):
        T = enumerate_isometries(linf(2))[0]
        with pytest.raises(ValueError):
            is_only_approximation(T, 0.5, trials=0, seed=0)


class TestBallInclusion:
    def test_preserving_pair_any_radius(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        report = linf_extreme_approx(T, 0.2)
        assert check_ball_inclusion(T, report.approximant, 1e-6)

    def test_moved_pair_threshold(self):
        eps = 0.2
        report = hilbert_nonpreserving_demo(eps)
        st = 1.0 - eps ** 2 / 16.0
        ct = math.sqrt(1.0 - st * st)
        gap = float(np.linalg.norm(np.array([1.0, 0.0]) - np.array([st, ct])))
        T, A = report.original, report.approximant
        assert check_ball_inclusion(T, A, 2 * gap)
        assert not check_ball_inclusion(T, A, gap / 4.0)


class TestPropertyPWitness:
    def test_hilbert_radius_is_one(self):
        A = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        w = property_p_witness(A)
        assert w.r0 == 1.0
        assert abs(abs(w.x_A.coords[1]) - 1.0) < 1e-12

    def test_polyhedral_facet_witness(self):
        A = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        w = property_p_witness(A)
        assert tuple(np.abs(w.x_A.coords)) == (0.0, 1.0)
        assert w.r0 > 0

    def test_ball_actually_misses_attainment(self):
        rng = np.random.default_rng(12)
        for s in (linf(3), l1(3), l2(3), lp(3, 2)):
            for _ in range(5):
                M = rng.standard_normal((s.n, s.n))
                v, _ = op_norm(operator(M, s, s))
                A = operator(M / v, s, s)
                w = property_p_witness(A)
                MA = attainment_set(A)
                d = float(MA.distance_to(w.x_A.coords[None, :])[0])
                assert d >= w.r0 - 1e-9

    def test_arc_gap_count_bound(self):
        rng = np.random.default_rng(13)
        s = lp(3, 2)
        for _ in range(5):
            M = rng.standard_normal((2, 2))
            v, _ = op_norm(operator(M, s, s))
            A = operator(M / v, s, s)
            assert len(attainment_set(A).points) <= 2 * (8 * 3 - 5)
            w = property_p_witness(A)
            assert w.r0 > 0

    def test_isometry_has_no_witness(self):
        with pytest.raises(IsIsometryError):
            property_p_witness(operator(np.eye(2), linf(2), linf(2)))


class TestEpsilon0:
    def test_p3_components(self):
        rep = epsilon0_lp2(3)
        assert rep.separation == pytest.approx(2 ** (2.0 / 3.0), abs=1e-12)
        assert rep.delta1 > 0
        assert rep.eps0 == min(rep.separation, rep.delta1)

    def test_isometry_separation_matches_enumeration(self):
        for p in (3, 4):
            isos = enumerate_isometries(lp(p, 2))
            dists = set()
            for i in range(len(isos)):
                for j in range(i + 1, len(isos)):
                    d, _ = op_norm(isos[i] - isos[j])
                    dists.add(round(d, 8))
            assert dists == {round(2 ** ((p - 1.0) / p), 8), 2.0}

    def test_bad_exponent(self):
        for p in (1, 2):
            with pytest.raises(BadExponentError):
                epsilon0_lp2(p)


class TestHilbertChecks:
    def test_preserving_pipeline_passes(self):
        T = operator(np.diag([1.0, 1.0, 0.5]), l2(3), l2(3))
        report = hilbert_rotate_approx(T, 0.1)
        checks = hilbert_necessary_checks(T, report.approximant, 0.1)
        assert checks.all_pass

    def test_nonpreserving_demo_dims_match(self):
        report = hilbert_nonpreserving_demo(0.2)
        checks = hilbert_necessary_checks(report.original, report.approximant, 0.2)
        assert checks.dims_equal
        assert checks.intersections_trivial

    def test_orthogonal_attainments_fail_intersection(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        A = operator(np.diag([0.5, 1.0]), l2(2), l2(2))
        checks = hilbert_necessary_checks(T, A, 0.75)
        assert not checks.intersections_trivial


class TestCardinality:
    def test_equality_for_self(self):
        s = lp(4, 2)
        T = operator(np.array([[1.0, 1.0], [1.0, -1.0]]) / 2 ** 0.75, s, s)
        assert attainment_cardinality_check(T, T, 0.05)

    def test_non_discrete_rejected(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        with pytest.raises(NotDiscreteError):
            attainment_cardinality_check(T, T, 0.05)


class TestSweep:
    def test_sup_norm_pair(self):
        s = pair_property_sweep(linf(2), linf(2), [0.2], trials=5, seed=1)
        assert s.total == s.certified == s.preserved
        assert not s.failures

    def test_l1_pair(self):
        s = pair_property_sweep(l1(3), l1(3), [0.3], trials=5, seed=2)
        assert not s.failures

    def test_mixed_pair_census(self):
        s = pair_property_sweep(linf(3), l1(3), [0.4], trials=12, seed=3)
        assert not s.failures

    def test_hilbert_pair(self):
        s = pair_property_sweep(l2(2), l2(2), [0.2], trials=5, seed=4)
        assert not s.failures

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        for X, Y in ((linf(2), linf(2)), (l2(2), l2(2)), (linf(3), l1(3))):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                pair_property_sweep(X, Y, [0.2], trials=trials, seed=1)

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedPairError):
            pair_property_sweep(lp(4, 2), lp(4, 2), [0.2], trials=1, seed=0)
