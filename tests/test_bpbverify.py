import math
import threading
import tracemalloc

import numpy as np
import pytest

from bpblab import (
    attainment_cardinality_check,
    delta_for_epsilon,
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
    NormNotOneError,
    OutOfRangeError,
    NotDiscreteError,
    UnsupportedPairError,
)
from bpblab.bpbverify import (
    SWEEP_PAIRS,
    SweepPair,
    _random_linf_candidates,
    _sample,
    _split_norm_disjunction,
)
from bpblab import operators
from bpblab.operators import attainment_set
from bpblab.sampling import sphere_grid


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

    def test_falsified_sample_names_a_row_at_least_eps_away(self):
        # ||T e2|| = 1 - 1.5e-6 lies between the last grid level 1 - 2^-19
        # and 1 - 1e-6: every level fails on rows near e2, sqrt(2) from
        # M_T = {+/-e1}, and those rows name the counterexample
        T = operator(np.diag([1.0, 1.0 - 1.5e-6]), l2(2), l2(2))
        MT = attainment_set(T)
        cert = verify_uniform_bpb(T, T, 1.0, resolution=1024)
        res = delta_for_epsilon(T, 1.0, resolution=1024)
        assert cert.status == "falsified" and cert.worst_distance >= 1.0
        assert not res.succeeded
        for z in (cert.counterexample.coords, res.counterexample.coords):
            assert float(MT.distance_to(z[None, :])[0]) >= 1.0
            assert float(T.image_norms(z[None, :])[0]) > 1.0 - 2.0 ** -19

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

    def test_exact_worst_distance_is_a_lower_bound(self):
        # the `verify_falsified` golden triple: the corners above the last
        # level lie at most 0.2 from M_A (the faces x_1 = +-1), yet
        # z = (0, -1) attains ||Tz|| = 1 and lies 1.0 from M_A
        s = linf(2)
        T = operator(np.eye(2), s, s)
        A = operator(np.diag([1.0, 0.9]), s, s)
        cert = verify_uniform_bpb(T, A, 0.2)
        assert (cert.status, cert.basis, cert.worst_distance) == ("falsified", "exact", 0.2)
        z = np.array([[0.0, -1.0]])
        assert T.image_norms(z)[0] == 1.0
        assert attainment_set(A).distance_to(z)[0] == 1.0

    def test_repeated_verify_allocates_one_sample(self):
        # a repeated certificate allocates little: on a polyhedral domain
        # the cached corner set and distances over M_A's maximal faces only;
        # on the l_2^2 grid at 16384 a fresh sample (two rows, with T's
        # norming vector last), its image block (two rows, reduced in place
        # to its norms, one row) and the three distance rows to M_A: at
        # most eight float rows, where a copy of the image block would
        # pass eight
        s, h = l1(3), l2(2)
        rows = len(sphere_grid(h, 16384)) + 1
        L = operator(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]).T, s, s)
        H = operator(np.diag([1.0, 0.5]), h, h)
        for T, A, bound in ((L, l1_extreme_approx(L, 0.3).approximant, 64 * 1024),
                            (H, hilbert_rotate_approx(H, 0.3).approximant, 8 * 8 * rows)):
            first = verify_uniform_bpb(T, A, 0.3, resolution=16384)
            tracemalloc.start()
            try:
                again = verify_uniform_bpb(T, A, 0.3, resolution=16384)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert again == first and first.certified
            assert peak < bound, T.domain
        # the distance kernels read the sample a column at a time
        sample = _sample(H, None, 16384, None)
        assert sample.basis == "sampled" and sample.rows.flags.f_contiguous
        assert sample.rows.shape == (rows, h.n)

    def test_threads_do_not_share_grid_arrays(self):
        # l_inf^3 and l_1^3 certificates share the cached corner sets; the
        # l_2^2, l_3^2 and l_2^4 ones (dim M_A = 2 on l_2^4) each build
        # their grid sample
        cases = []
        for cols in ((0, 0, 2), (1, 1, 0), (0, 2, 2), (2, 1, 2)):
            T = operator(np.eye(3)[list(cols)], linf(3), linf(3))
            cases.append((T, linf_extreme_approx(T, 0.3).approximant))
        for cols in ((0, 0, 2), (2, 1, 2)):
            T = operator(np.eye(3)[list(cols)].T, l1(3), l1(3))
            cases.append((T, l1_extreme_approx(T, 0.3).approximant))
        for diag in ((1.0, 0.5), (1.0, 1.0, 0.6, 0.3)):
            T = operator(np.diag(diag), l2(len(diag)), l2(len(diag)))
            cases.append((T, hilbert_rotate_approx(T, 0.3).approximant))
        T = operator([[0.8145883340447172, 0.4072941670223586],
                      [-0.2036470835111793, 0.6109412505335379]], lp(3, 2), lp(3, 2))
        cases.append((T, T))
        expected = [verify_uniform_bpb(T, A, 0.3, resolution=4096) for T, A in cases]
        assert [c.basis for c in expected[-3:]] == ["sampled"] * 3
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


def hadamard_l4():
    """The normalised Hadamard operator of l_4^2, which attains at four
    points, (+/-1, +/-1) / 2^(1/4)."""
    s = lp(4, 2)
    return operator(np.array([[1.0, 1.0], [1.0, -1.0]]) / 2.0 ** 0.75, s, s)


def inline_certificate(T, A, eps, resolution):
    """(delta_found, worst_distance) of the inclusion test written out:
    the sphere grid plus op_norm's witness of T, M_A = attainment_set(A),
    and the levels 1/2, 1/4, ... tried one at a time."""
    X = np.concatenate([sphere_grid(T.domain, resolution), op_norm(T)[1].coords[None, :]])
    norms, dists = T.image_norms(X), attainment_set(A).distance_to(X)
    delta = 0.5
    while delta >= 2.0 ** -19:
        near = norms > 1.0 - delta
        if (dists[near] < eps).all():
            return delta, float(dists[near].max())
        delta /= 2.0
    return None, None


class TestVerifyResolution:
    @pytest.mark.parametrize("resolution", [2, 3, 8])
    def test_coarse_sample_keeps_the_exact_attainment_set(self, resolution):
        # M_A came from an r-point search and T's norming vector from
        # op_norm's 4096-point one, so with A = T the vector lay off M_A:
        # 1.79e-9, 9.9e-10 and 3.6e-10 from it at r = 2, 3 and 8
        H = hadamard_l4()
        assert len(attainment_set(H).points) == 4
        assert verify_uniform_bpb(H, H, 0.05, resolution=resolution).worst_distance == 0.0

    def test_certificate_is_the_inline_one_on_the_search_grid_set(self):
        H = hadamard_l4()
        cert = verify_uniform_bpb(H, H, 0.05, resolution=1024)
        assert (cert.delta_found, cert.worst_distance) == inline_certificate(H, H, 0.05, 1024)
        assert cert.worst_distance == 0.035374962565074566

    def test_hilbert_resolution_zero_still_runs_on_the_svd_path(self):
        # M_A comes from an SVD, which reads no resolution; the sample is
        # the norming vector of T alone
        s = l2(2)
        T = operator([[1.0, 0.0], [0.0, 0.5]], s, s)
        A = operator([[0.5, 0.0], [0.0, 1.0]], s, s)
        cert = verify_uniform_bpb(T, A, 0.6, resolution=0)
        assert cert.resolution == 0 and cert.status in ("certified", "falsified")


# T = 2I on l_3^2 is not norm one, and every call below fails on some
# argument other than the resolution; a ValueError naming the resolution
# shows that it is checked before any work
TWICE = operator(2.0 * np.eye(2), lp(3, 2), lp(3, 2))
RESOLUTION_ENTRY_POINTS = {
    "verify_uniform_bpb": lambda r: verify_uniform_bpb(TWICE, TWICE, 0.3, resolution=r),
    "delta_for_epsilon": lambda r: delta_for_epsilon(TWICE, -1.0, resolution=r),
    "is_only_approximation": lambda r: is_only_approximation(TWICE, 0.3, 3, 0, resolution=r),
    "hilbert_necessary_checks": lambda r: hilbert_necessary_checks(TWICE, TWICE, 0.3, resolution=r),
    "pair_property_sweep": lambda r: pair_property_sweep(lp(3, 2), lp(3, 2), [0.3], 1, 0, resolution=r),
    "sphere_grid": lambda r: sphere_grid(lp(3, 4), r),
}


class TestResolutionArgument:
    @pytest.mark.parametrize("resolution", [-1, 2.5, 16.0, True, False, "16", None])
    @pytest.mark.parametrize("entry", sorted(RESOLUTION_ENTRY_POINTS))
    def test_bad_resolution_is_refused_before_any_work(self, entry, resolution):
        with pytest.raises(ValueError, match="resolution must be"):
            RESOLUTION_ENTRY_POINTS[entry](resolution)

    def test_negative_resolution_no_longer_certifies(self):
        # it returned "certified" with resolution -1 in the certificate
        s = lp(3, 2)
        T = operator(np.diag([1.0, 0.5]), s, s)
        with pytest.raises(ValueError, match="resolution must be at least 0, got -1"):
            verify_uniform_bpb(T, T, 0.3, resolution=-1)

    def test_zero_and_numpy_integers_are_accepted(self):
        s = lp(3, 2)
        T = operator(np.diag([1.0, 0.5]), s, s)
        assert len(sphere_grid(s, 0)) == 4
        assert delta_for_epsilon(T, 0.3, resolution=0).resolution == 0
        cert = verify_uniform_bpb(T, T, 0.3, resolution=np.int64(256))
        assert cert.resolution == 256 and type(cert.resolution) is int
        assert cert == verify_uniform_bpb(T, T, 0.3, resolution=256)

    def test_cached_grid_admits_no_equal_float_or_bool(self):
        # the grid cache is keyed by type too: 16.0 and True do not reach
        # the grids cached for 16 and 1
        s = lp(3, 2)
        sphere_grid(s, 16), sphere_grid(s, 1)
        for resolution in (16.0, True):
            with pytest.raises(ValueError, match="resolution must be an integer"):
                sphere_grid(s, resolution)


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

    @pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, "3", None, -1])
    def test_non_integer_or_bool_trials_are_refused(self, trials):
        T = enumerate_isometries(linf(2))[0]
        with pytest.raises(ValueError, match="trials"):
            is_only_approximation(T, 0.5, trials=trials, seed=0)

    @pytest.mark.parametrize("seed", [None, True, 2.5, -1])
    def test_bad_seed_is_refused_before_any_draw(self, seed, monkeypatch):
        # seed=None drew from fresh OS entropy; -1 raised numpy's error
        def refuse(*args, **kwargs):
            raise AssertionError("a draw started before the seed was checked")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        T = enumerate_isometries(linf(2))[0]
        with pytest.raises(ValueError, match="seed"):
            is_only_approximation(T, 0.5, trials=3, seed=seed)

    def test_numpy_integer_trials_are_accepted(self):
        T = enumerate_isometries(linf(2))[0]
        res = is_only_approximation(T, 0.5, trials=np.int64(3), seed=0, resolution=64)
        assert res.trials == 3 and type(res.trials) is int and not res.found


class TestNormWitnessOfT:
    """verify_uniform_bpb and is_only_approximation check ||T|| by its
    value and build op_norm's witness of T only where the grid sample
    reads it: not on the corner set, nor on the exact l_2^3 supplier."""

    @pytest.mark.parametrize("T, exact", [
        (operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2)), True),
        (operator(np.diag([1.0, 0.5, 0.25]), l2(3), l2(3)), True),
        (operator(np.diag([1.0, 0.5]), l2(2), l2(2)), False),
    ])
    def test_witness_is_built_only_for_the_grid(self, T, exact):
        for run in (
            lambda: verify_uniform_bpb(T, T, 0.2, resolution=64),
            lambda: is_only_approximation(T, 0.2, trials=2, seed=0, resolution=64),
        ):
            operators._norm_analysis.cache_clear()
            run()
            assert (operators._analysis(T).witness is None) == exact

    @pytest.mark.parametrize("space", [linf(2), l2(3), l2(2)], ids=str)
    @pytest.mark.parametrize("scale", [0.0, 2.0])
    def test_norm_errors_are_unchanged(self, space, scale):
        T = operator(scale * np.eye(space.n), space, space)
        A = operator(np.eye(space.n), space, space)
        with pytest.raises(NormNotOneError, match=f"^T norm is {scale}, expected 1$"):
            verify_uniform_bpb(T, A, 0.2, resolution=64)
        with pytest.raises(NormNotOneError, match=f"^T norm is {scale}, expected 1$"):
            is_only_approximation(T, 0.2, trials=2, seed=0, resolution=64)


class TestEpsBoundary:
    """eps must be finite and positive; it is checked before any work, so
    even an operator that is not norm-one gets the eps error."""

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("check", ["verify", "only", "delta"])
    def test_non_positive_or_non_finite_eps_is_refused(self, eps, check, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before eps was checked")

        monkeypatch.setattr("bpblab.bpbverify.op_norm", refuse)
        T = operator(0.5 * np.eye(2), linf(2), linf(2))
        with pytest.raises(OutOfRangeError, match="eps"):
            if check == "verify":
                verify_uniform_bpb(T, T, eps)
            elif check == "delta":
                delta_for_epsilon(T, eps)
            else:
                is_only_approximation(T, eps, trials=3, seed=0)

    @pytest.mark.parametrize("eps", [True, False, np.True_, "0.2", None, [0.2], 1j])
    @pytest.mark.parametrize("check", ["verify", "only", "delta", "construct"])
    def test_bool_or_non_real_eps_is_refused_naming_eps(self, eps, check, monkeypatch):
        # True is not eps = 1, and a string or None is no bare TypeError
        def refuse(*args, **kwargs):
            raise AssertionError("work started before eps was checked")

        monkeypatch.setattr("bpblab.bpbverify.op_norm", refuse)
        monkeypatch.setattr("bpblab.approximants.is_isometry", refuse)
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        with pytest.raises(OutOfRangeError, match="^eps must be a real number, got "):
            if check == "verify":
                verify_uniform_bpb(T, T, eps)
            elif check == "delta":
                delta_for_epsilon(T, eps)
            elif check == "only":
                is_only_approximation(T, eps, trials=3, seed=0)
            else:
                linf_extreme_approx(T, eps)

    def test_real_eps_of_any_numeric_type_is_taken(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        A = linf_extreme_approx(T, 0.2).approximant
        want = verify_uniform_bpb(T, A, 0.2)
        assert verify_uniform_bpb(T, A, np.float64(0.2)) == want
        assert verify_uniform_bpb(T, A, 1) == verify_uniform_bpb(T, A, 1.0)

    def test_finite_positive_eps_is_accepted(self):
        T = enumerate_isometries(linf(2))[0]
        assert verify_uniform_bpb(T, T, 1e-12, resolution=64).certified
        assert verify_uniform_bpb(T, T, 1e6, resolution=64).certified


def ball_inclusion(T, A, radius):
    """Whether every representative point of M_A lies within radius of M_T."""
    reps = attainment_set(A).representative_points()
    return bool(attainment_set(T).distance_to(reps).max() <= radius)


class TestBallInclusion:
    def test_preserving_pair_any_radius(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        report = linf_extreme_approx(T, 0.2)
        assert ball_inclusion(T, report.approximant, 1e-6)

    def test_moved_pair_threshold(self):
        eps = 0.2
        report = hilbert_nonpreserving_demo(eps)
        st = 1.0 - eps ** 2 / 16.0
        ct = math.sqrt(1.0 - st * st)
        gap = float(np.linalg.norm(np.array([1.0, 0.0]) - np.array([st, ct])))
        T, A = report.original, report.approximant
        assert ball_inclusion(T, A, 2 * gap)
        assert not ball_inclusion(T, A, gap / 4.0)


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


def grid_disjunction(n1, n2, radius):
    """The 14-angle test that `_split_norm_disjunction` replaced, kept as an
    oracle: n1 < r cos a or n2 < r sin a on the inner angles of a 16-point
    grid of [0, pi/2]."""
    angles = np.linspace(0.0, math.pi / 2.0, 16)
    return all(n1 < radius * math.cos(a) or n2 < radius * math.sin(a) for a in angles[1:-1])


class TestSplitNormDisjunction:
    GAP = math.pi / 30  # the spacing of the oracle's angles

    def test_agrees_with_the_angle_grid_off_two_thin_bands(self):
        # the grid tests a subset of the angles, so it can only pass where
        # the closed form fails; that happens only near the circle between
        # grid angles, or near an axis, below the first or beyond the last
        # grid angle
        rng = np.random.default_rng(7)
        r = 1.5 * 0.2
        disagree = 0
        for n1, n2 in rng.uniform(0.0, 2.5 * r, size=(20000, 2)):
            closed, grid = _split_norm_disjunction(n1, n2, r), grid_disjunction(n1, n2, r)
            if closed == grid:
                continue
            disagree += 1
            assert grid and not closed
            near_circle = r <= math.hypot(n1, n2) < r * math.sqrt(1.0 + math.sin(self.GAP))
            near_axis = min(n1, n2) < r * math.sin(self.GAP)
            assert near_circle or near_axis, (n1, n2)
        assert 0 < disagree < 2000

    @pytest.mark.parametrize(
        "n1, n2, closed, grid",
        [
            (2.0, 0.05, False, True),  # near an axis: below the first grid angle
            (0.05, 2.0, False, True),  # beyond the last grid angle
            (1.001 * math.cos(0.05 * math.pi), 1.001 * math.sin(0.05 * math.pi), False, True),
            (0.6, 0.6, True, True),  # inside the circle
            (1.0, 1.0, False, False),  # well outside, away from the axes
            (0.0, 5.0, True, True),  # a vanishing restricted norm
            (5.0, 1e-13, True, True),  # below TAU_VANISH, read as 0
        ],
    )
    def test_listed_cases(self, n1, n2, closed, grid):
        assert _split_norm_disjunction(n1, n2, 1.0) is closed
        assert grid_disjunction(n1, n2, 1.0) is grid


class TestCardinality:
    def test_equality_for_self(self):
        s = lp(4, 2)
        T = operator(np.array([[1.0, 1.0], [1.0, -1.0]]) / 2 ** 0.75, s, s)
        assert attainment_cardinality_check(T, T)

    def test_non_discrete_rejected(self):
        # M_T is the whole circle
        T = operator(np.eye(2), l2(2), l2(2))
        with pytest.raises(NotDiscreteError):
            attainment_cardinality_check(T, T)

    def test_one_dimensional_subspace_is_counted(self):
        T = operator(np.diag([1.0, 0.5]), l2(2), l2(2))
        A = operator(np.diag([0.5, 1.0]), l2(2), l2(2))
        assert attainment_set(T).pair_count() == 1
        assert attainment_cardinality_check(T, A)

    def test_finite_face_set_is_counted(self):
        # M_T is the two vertices +/-e1 of the cross-polytope, one pair
        s = l1(2)
        T = operator([[1.0, 0.0], [0.0, 0.5]], s, s)
        assert attainment_set(T).finite_points().tolist() == [[-1.0, 0.0], [1.0, 0.0]]
        assert attainment_cardinality_check(T, T)
        # into l_inf^2: one pair for T, the two pairs +/-e1, +/-e2 for A
        T, A = (operator(M, s, linf(2)) for M in ([[1.0, 0.0], [0.0, 0.5]], np.eye(2)))
        assert attainment_cardinality_check(T, A) is True
        assert attainment_cardinality_check(A, T) is False

    def test_face_continuum_rejected(self):
        # M_T holds the edge from e1 to e2, a continuum
        s = l1(2)
        T = operator([[1.0, 1.0], [0.0, 0.0]], s, s)
        with pytest.raises(NotDiscreteError):
            attainment_cardinality_check(T, T)


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

    def test_draws_are_distinct_and_stop_at_the_family(self):
        # every constructor refuses eps >= 2, so each operator tried is a
        # failure; l_inf^2 has 8 non-isometric one-unimodular-per-row matrices
        s = pair_property_sweep(linf(2), linf(2), [2.5], trials=10, seed=1)
        ops = {tuple(f.operator.entries.ravel()) for f in s.failures}
        assert len(ops) == len(s.failures) == s.total == 8
        M = _random_linf_candidates(3, 500, np.random.default_rng(0))
        assert len({tuple(m.ravel()) for m in M}) == len(M) == 168

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        for X, Y in ((linf(2), linf(2)), (l2(2), l2(2)), (linf(3), l1(3))):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                pair_property_sweep(X, Y, [0.2], trials=trials, seed=1)

    @pytest.mark.parametrize("trials", [True, 2.5, "3", None])
    def test_non_integer_or_bool_trials_rejected(self, trials):
        for X, Y in ((linf(2), linf(2)), (l2(2), l2(2)), (linf(3), l1(3))):
            with pytest.raises(ValueError, match="trials must be an integer"):
                pair_property_sweep(X, Y, [0.2], trials=trials, seed=1)

    @pytest.mark.parametrize("seed", [None, False, 1.0, -1])
    def test_bad_seed_is_refused_before_any_draw(self, seed, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a draw started before the seed was checked")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for X, Y in ((linf(2), linf(2)), (l2(2), l2(2)), (linf(3), l1(3))):
            with pytest.raises(ValueError, match="seed"):
                pair_property_sweep(X, Y, [0.2], trials=1, seed=seed)

    def test_constructor_bug_propagates(self, monkeypatch):
        # only a refusal of the constructor contract (a BpbLabError) is a
        # counted failure; any other exception is a bug and is raised
        def broken(T, eps):
            raise TypeError("a bug in the constructor")

        pair = SWEEP_PAIRS["linf2"]
        monkeypatch.setitem(SWEEP_PAIRS, "linf2",
                            SweepPair(pair.domain, pair.codomain, pair.draw, broken))
        with pytest.raises(TypeError, match="a bug in the constructor"):
            pair_property_sweep(linf(2), linf(2), [0.2], trials=1, seed=1)

    @pytest.mark.parametrize("eps_list, text", [
        ([], "eps_list must hold at least one eps"),
        (0.2, "eps_list must be a list of eps, got 0.2"),
        ([0.2, None], "eps_list item must be a real number, got None"),
        ([0.2, "0.3"], "eps_list item must be a real number, got '0.3'"),
        ([True], "eps_list item must be a real number, got True"),
        ([0.2, math.nan], "eps_list item must lie in \\(0, inf\\), got nan"),
        ([math.inf], "eps_list item must lie in \\(0, inf\\), got inf"),
        ([0.2, 0.0], "eps_list item must lie in \\(0, inf\\), got 0.0"),
        ([-1], "eps_list item must lie in \\(0, inf\\), got -1"),
    ])
    def test_bad_eps_list_is_refused_before_any_draw(self, eps_list, text, monkeypatch):
        # an empty list once returned total 0 and no failures: vacuous
        def refuse(*args, **kwargs):
            raise AssertionError("a draw started before eps_list was checked")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for X, Y in ((linf(2), linf(2)), (l2(2), l2(2)), (linf(3), l1(3))):
            with pytest.raises(OutOfRangeError, match=f"^{text}$"):
                pair_property_sweep(X, Y, eps_list, trials=2, seed=0)

    def test_eps_list_may_be_any_iterable(self):
        want = pair_property_sweep(linf(2), linf(2), [0.2, 2.5], trials=2, seed=1)
        for eps_list in ((0.2, 2.5), iter([0.2, 2.5]), np.array([0.2, 2.5])):
            got = pair_property_sweep(linf(2), linf(2), eps_list, trials=2, seed=1)
            assert (got.total, got.certified, len(got.failures)) == (4, 2, 2)
        assert (want.total, want.certified, len(want.failures)) == (4, 2, 2)

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedPairError):
            pair_property_sweep(lp(4, 2), lp(4, 2), [0.2], trials=1, seed=0)

    @pytest.mark.parametrize(
        "X, Y",
        [(l2(1), l2(1)), (linf(1), linf(1)), (l1(1), l1(1)), (lp(3, 2), lp(3, 2)),
         (l1(3), linf(3)), (linf(4), linf(4)), (l2(4), l2(4))],
    )
    def test_unlisted_pair_is_refused_before_any_draw(self, X, Y, monkeypatch):
        # every norm-one 1 x 1 matrix is an isometry, so no n = 1 pair has
        # a family to draw from
        def refuse(*args, **kwargs):
            raise AssertionError("a draw started before the pair was checked")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(UnsupportedPairError, match="unsupported pair"):
            pair_property_sweep(X, Y, [0.2], trials=3, seed=1)
