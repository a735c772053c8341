"""End-to-end acceptance checks.

Each test covers one headline guarantee, prints a single PASS/FAIL line,
and enforces a wall-clock budget.  Expensive intermediate results (the
constructor reports and the Euclidean pairs) are cached and shared.
"""

import math
import time

import numpy as np

from bpblab import (
    Point,
    attainment_set,
    enumerate_extreme_linf3_l13,
    enumerate_isometries,
    epsilon0_lp2,
    hilbert_necessary_checks,
    hilbert_nonpreserving_demo,
    hilbert_rotate_approx,
    is_extreme_contraction,
    is_isometry,
    is_only_approximation,
    l1,
    l1_extreme_approx,
    l2,
    linf,
    linf3_l13_extreme_approx,
    linf_extreme_approx,
    lp,
    op_norm,
    operator,
    property_p_witness,
    restricted_norm,
    sbpbp_counterexample_family,
    verify_uniform_bpb,
)
from bpblab.bpbverify import _random_linf_candidates
from bpblab.classify import census_lookup
from bpblab.errors import ObstructionError
from bpblab.operators import orthogonal_complement
from bpblab.spaces import _arc_constant_at, arc_length_total, as_exponent


def run_criterion(k, budget, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    except Exception:
        print(f"CRITERION {k}: FAIL")
        raise
    print(f"CRITERION {k}: PASS")


_cache = {}


def _constructor_reports():
    """Census members plus 50 distinct seeded condition matrices, each with
    its report; l_inf^2 and l_1^2 hold only 8 each."""
    if "reports" not in _cache:
        eps = 0.3
        reports = []
        for m in enumerate_extreme_linf3_l13():
            reports.append(("mixed", m, linf3_l13_extreme_approx(m, eps), eps))
        rng = np.random.default_rng(404)
        plan = [(linf(2), "linf", 8), (linf(3), "linf", 17), (l1(2), "l1", 8), (l1(3), "l1", 17)]
        for s, path, count in plan:
            for M in _random_linf_candidates(s.n, count, rng):
                if path == "l1":
                    T = operator(M.T, s, s)
                    rep = l1_extreme_approx(T, eps)
                else:
                    T = operator(M, s, s)
                    rep = linf_extreme_approx(T, eps)
                reports.append((path, T, rep, eps))
        _cache["reports"] = reports
    return _cache["reports"]


def _hilbert_cases():
    """50 seeded random Euclidean contractions with preserving approximants."""
    if "hilbert" not in _cache:
        eps = 0.3
        rng = np.random.default_rng(505)
        out = []
        for n in (2, 3):
            made = 0
            while made < 25:
                M = rng.standard_normal((n, n))
                v, _ = op_norm(operator(M, l2(n), l2(n)))
                M = M / v
                if np.abs(M.T @ M - np.eye(n)).max() < 1e-3:
                    continue
                T = operator(M, l2(n), l2(n))
                out.append((T, hilbert_rotate_approx(T, eps), eps))
                made += 1
        _cache["hilbert"] = out
    return _cache["hilbert"]


def _hilbert_iff_pairs():
    """100 seeded random norm-one operators on the Euclidean 3-space."""
    if "iff" not in _cache:
        eps = 0.25
        rng = np.random.default_rng(606)
        pairs = []
        for _ in range(100):
            M = rng.standard_normal((3, 3))
            v, _ = op_norm(operator(M, l2(3), l2(3)))
            T = operator(M / v, l2(3), l2(3))
            H0 = attainment_set(T).basis
            cond = restricted_norm(T, orthogonal_complement(H0)) < 1.0 - 1e-9
            try:
                rep = hilbert_rotate_approx(T, eps)
                succeeded = True
            except ObstructionError:
                rep = None
                succeeded = False
            assert succeeded == cond
            if succeeded:
                pairs.append((T, rep.approximant, eps))
        _cache["iff"] = pairs
    return _cache["iff"]


def test_criterion_1_extreme_census():
    def body():
        members = enumerate_extreme_linf3_l13()
        assert len(members) == 90
        keys = set()
        orbit_sizes = {"rank_one": 0, "block": 0}
        for m in members:
            keys.add(tuple(np.round(m.entries, 9).reshape(-1)))
            name, _, _, _ = census_lookup(m)
            orbit_sizes[name] += 1
            v, _ = op_norm(m)
            assert v == 1.0
            assert is_extreme_contraction(m).is_extreme
        assert len(keys) == 90
        assert orbit_sizes == {"rank_one": 18, "block": 72}

    run_criterion(1, 5.0, body)


def test_criterion_2_clarkson_attainment():
    def body():
        s4 = lp(4, 2)
        T = operator([[1.0, 1.0], [1.0, -1.0]], s4, s4)
        v, _ = op_norm(T)
        assert abs(v - 2.0 ** 0.75) <= 1e-8
        M = attainment_set(T)
        assert M.kind == "points" and len(M.points) == 4
        a = 2.0 ** -0.25
        expected = [np.array(e) for e in ((a, a), (-a, -a), (a, -a), (-a, a))]
        for e in expected:
            assert min(np.abs(p - e).max() for p in M.points) <= 1e-6
        s2 = l2(2)
        T2 = operator([[1.0, 1.0], [1.0, -1.0]], s2, s2)
        M2 = attainment_set(T2)
        assert M2.kind == "subspace" and M2.subspace_dim == M2.space.n

    run_criterion(2, 1.0, body)


def test_criterion_3_isometry_rigidity():
    def body():
        for p in (3, 4):
            isos = enumerate_isometries(lp(p, 2))
            assert len(isos) == 8
            allowed = (2.0 ** ((p - 1.0) / p), 2.0)
            for i in range(len(isos)):
                for j in range(i + 1, len(isos)):
                    d, _ = op_norm(isos[i] - isos[j])
                    assert min(abs(d - a) for a in allowed) <= 1e-8
        report = epsilon0_lp2(3)
        assert report.eps0 > 0
        # the arc constant converges in the table's segment count
        eps = arc_length_total(3) / (2.0 * (16 * 3 - 9))
        coarse, fine = (_arc_constant_at(as_exponent(3), eps, m) for m in (1 << 14, 1 << 15))
        assert abs(coarse - fine) < 1e-4 and abs(report.delta1 - fine) < 1e-4

    run_criterion(3, 10.0, body)


def test_criterion_4_constructor_contracts():
    def body():
        for path, T, rep, eps in _constructor_reports():
            v, _ = op_norm(rep.approximant)
            assert abs(v - 1.0) <= 1e-9
            if path == "linf":
                assert abs(rep.distance - eps / 2.0) <= 1e-9
            else:
                assert rep.distance < eps
            MT, MA = rep.attainment_original, rep.attainment_approximant
            assert MT.kind == "faces" and MA.kind == "faces"
            assert {tuple(f.pattern) for f in MT.faces} == {
                tuple(f.pattern) for f in MA.faces
            }

    run_criterion(4, 20.0, body)


def test_criterion_5_certificates_end_to_end():
    def body():
        triples = [(T, rep.approximant, eps) for _, T, rep, eps in _constructor_reports()]
        triples += [(T, rep.approximant, eps) for T, rep, eps in _hilbert_cases()]
        assert len(triples) == 190
        for T, A, eps in triples:
            base = verify_uniform_bpb(T, A, eps, resolution=4096)
            assert base.certified and base.delta_found > 0
            refined = verify_uniform_bpb(T, A, eps, resolution=16384)
            assert refined.certified and refined.delta_found > 0

    run_criterion(5, 60.0, body)


def test_criterion_6_hilbert_iff_and_demo():
    def body():
        pairs = _hilbert_iff_pairs()
        assert len(pairs) >= 1
        eps = 0.2
        demo = hilbert_nonpreserving_demo(eps)
        st = 1.0 - eps ** 2 / 16.0
        ct = math.sqrt(1.0 - st * st)
        assert abs(demo.distance - ct) <= 1e-10
        MA = demo.attainment_approximant
        reps = MA.representative_points()
        target = np.array([st, ct])
        for sign in (1.0, -1.0):
            assert min(np.abs(p - sign * target).max() for p in reps) <= 1e-9

    run_criterion(6, 10.0, body)


def test_criterion_7_rigidity_falsification_sweeps():
    def body():
        eps = 0.5
        seed = 0
        for s in (linf(2), l1(2), linf(3)):
            isos = enumerate_isometries(s)
            min_dist = math.inf
            for i in range(len(isos)):
                for j in range(i + 1, len(isos)):
                    d, _ = op_norm(isos[i] - isos[j])
                    min_dist = min(min_dist, d)
            assert eps < min_dist / 2.0
            for T in isos:
                res = is_only_approximation(T, eps, trials=200, seed=seed, resolution=256)
                seed += 1
                assert not res.found

    run_criterion(7, 30.0, body)


def test_criterion_8_property_p_witnesses():
    def body():
        rng = np.random.default_rng(808)
        for s in (linf(3), l1(3), lp(3, 2), l2(3)):
            made = 0
            while made < 50:
                M = rng.standard_normal((s.n, s.n))
                A = operator(M, s, s)
                v, _ = op_norm(A)
                A = (1.0 / v) * A
                if s.n == A.codomain.n and is_isometry(A):
                    continue
                w = property_p_witness(A)
                assert w.r0 > 0
                if s.hilbert:
                    assert w.r0 == 1.0
                if s == lp(3, 2):
                    assert len(attainment_set(A).points) <= 38
                made += 1

    run_criterion(8, 20.0, body)


def test_criterion_9_sbpbp_family():
    def body():
        x0 = Point(np.array([1.0, 0.0]), l2(2))
        h0 = np.array([0.0, 1.0])
        for n in (10, 10 ** 3, 10 ** 6):
            A = sbpbp_counterexample_family(x0, n)
            assert float(np.linalg.norm(A.apply(h0))) >= 1.0 - 1.0 / n - 1e-12
            M = attainment_set(A)
            d = float(M.distance_to(h0[None, :])[0])
            assert abs(d - math.sqrt(2.0)) <= 1e-9

    run_criterion(9, 1.0, body)


def test_criterion_10_hilbert_pair_checks():
    def body():
        pairs = _hilbert_iff_pairs()
        for T, A, eps in pairs:
            checks = hilbert_necessary_checks(T, A, eps, resolution=512)
            assert checks.dims_equal
            assert checks.intersections_trivial
            assert checks.disjunction_holds

    run_criterion(10, 5.0, body)
