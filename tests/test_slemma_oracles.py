"""Oracles for the exact certificates on l_2^n (n >= 3) of `slemma`.

The far-set maximum g = sup{||Tz|| : ||z|| = 1, d(z, M_A) >= eps} is
checked four ways: against the sphere-grid certificate it replaced, kept
here as a differential oracle (its delta is never below the exact one, as
the grid's points are real points); against a dense random sample of the
far set and an SLSQP primal, neither of which may exceed it; and against
the closed form of the secular equation's hard case, M_A spanned by top
singular vectors of T, where g^2 = c + (1 - c) s_{k+1}^2 with
c = (1 - eps^2/2)^2 and s_{k+1} the largest singular value below the top
k.  The worst distance is checked against the dense sample too.
"""

import functools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from bpblab import (
    OperatorMatrix,
    attainment_set,
    delta_for_epsilon,
    hilbert_necessary_checks,
    hilbert_rotate_approx,
    is_only_approximation,
    l2,
    op_norm,
    verify_uniform_bpb,
)
from bpblab import bpbverify
from bpblab.bpbverify import _random_hilbert_candidates, delta_descent
from bpblab.operators import TAU_SECULAR
from bpblab.sampling import sphere_grid
from bpblab.slemma import HilbertSupplier

DENSE_POINTS = 2_000_000  # random unit points of the dense-sample oracle
DENSE_CHUNK = 250_000     # drawn this many at a time, to bound the memory


def unit(M, dom, cod):
    return OperatorMatrix(M / op_norm(OperatorMatrix(M, dom, cod))[0], dom, cod)


def grid_certificate(T, A, eps, resolution):
    """The l_2^n certificate the exact one replaced: the delta descent on
    the sphere grid with T's norming vector as the last row; (status,
    delta_found)."""
    X = np.concatenate([sphere_grid(T.domain, resolution), op_norm(T)[1].coords[None]])
    delta, _, _ = delta_descent(T.image_norms(X), attainment_set(A).distance_to(X), 1.0, eps)
    return "falsified" if delta is None else "certified", delta


@functools.lru_cache(maxsize=1)
def triples():
    """(T, A, eps) on l_2^3: seeded norm-one T with the constructor's A,
    which keeps M_A = M_T (the hard case), and with a perturbed A, whose
    M_A is a generic line; two with a 2-D M_A, one of them rotated; and
    two that fail, on the boundary (a second singular value 1e-7 below
    the first) and inside (M_A orthogonal to M_T)."""
    rng = np.random.default_rng(17)
    s = l2(3)
    out = []
    for M in _random_hilbert_candidates(3, 12, rng):
        T = OperatorMatrix(M, s, s)
        for eps in (0.1, 0.3):
            out.append((T, hilbert_rotate_approx(T, eps).approximant, eps))
            out.append((T, unit(M + 0.3 * eps * rng.standard_normal((3, 3)), s, s), eps))
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    for D in (np.diag([1.0, 1.0, 0.5]), Q @ np.diag([1.0, 1.0, 0.3]) @ Q.T):
        T = OperatorMatrix(D, s, s)
        out.append((T, hilbert_rotate_approx(T, 0.2).approximant, 0.2))
    T = OperatorMatrix(np.diag([1.0, 1.0 - 1e-7, 0.5]), s, s)
    out.append((T, T, 0.3))
    T = OperatorMatrix(np.diag([1.0, 0.999, 0.5]), s, s)
    out.append((T, OperatorMatrix(np.diag([0.999, 1.0, 0.5]), s, s), 0.3))
    return out


def test_exact_delta_never_exceeds_the_grid_delta():
    over = {4096: 0, 16384: 0}
    for T, A, eps in triples():
        cert = verify_uniform_bpb(T, A, eps)
        assert cert.basis == "exact"
        for resolution in over:
            status, delta = grid_certificate(T, A, eps, resolution)
            assert (cert.delta_found or 0.0) <= (delta or 0.0), (T, A, eps, resolution)
            over[resolution] += (cert.delta_found or 0.0) < (delta or 0.0)
    # the grid over-claims delta on some of these triples: the reason for the exact path
    assert over[4096] > 0


def far_cases():
    """(T, M, eps) covering each case of the supplier: a 1-D M on its
    boundary (generic and hard case) and inside, a 2-D M on its boundary
    and inside, and codomains of other dimensions."""
    rng = np.random.default_rng(29)
    s = l2(3)
    cases = []
    T = unit(rng.standard_normal((3, 3)), s, s)
    A = unit(T.entries + 0.05 * rng.standard_normal((3, 3)), s, s)
    cases += [(T, attainment_set(A), 0.3), (T, attainment_set(T), 0.3)]
    far = unit(T.entries @ np.diag([1.0, 1.0, 3.0]), s, s)  # M_A far from M_T
    cases.append((T, attainment_set(far), 0.3))
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    P2 = OperatorMatrix(Q @ np.diag([1.0, 1.0, 0.2]) @ Q.T, s, s)
    cases += [(T, attainment_set(P2), 0.4), (P2, attainment_set(A), 0.4)]
    for m in (2, 4):
        Tm = unit(rng.standard_normal((m, 3)), s, l2(m))
        cases.append((Tm, attainment_set(unit(Tm.entries + 0.05 * rng.standard_normal((m, 3)), s, l2(m))), 0.3))
    return cases


def far_maximum(T, M, eps):
    return HilbertSupplier(T).profile(M).far_maximum(eps)


def test_exact_g_is_never_below_a_dense_sample():
    # a generic boundary and an interior case on a 1-D M, a 2-D M, and a
    # codomain l_2^4; the test below covers every case with SLSQP
    cases = [far_cases()[k] for k in (0, 2, 3, 6)]
    best = np.zeros(len(cases))
    rng = np.random.default_rng(31)
    for _ in range(DENSE_POINTS // DENSE_CHUNK):
        # one unit point per column: the row-wise reductions below run
        # over contiguous rows
        X = rng.standard_normal((3, DENSE_CHUNK))
        X /= np.sqrt(np.einsum("ij,ij->j", X, X))
        for i, (T, M, eps) in enumerate(cases):
            # x is at least eps from M iff ||Px||^2 = ||B^T x||^2 <= c
            PX = M.basis.T @ X
            far = np.einsum("ij,ij->j", PX, PX) <= (1.0 - eps * eps / 2.0) ** 2
            values = np.einsum("ij,ij->j", (T.entries.T @ T.entries) @ X, X)
            best[i] = max(best[i], values.max(where=far, initial=0.0))
    for (T, M, eps), sampled in zip(cases, np.sqrt(best)):
        g = far_maximum(T, M, eps)
        assert sampled <= g - TAU_SECULAR + 1e-15, (T, M, eps)
        assert g - sampled < 1e-3, (T, M, eps)


def slsqp_far_maximum(T, M, eps, starts=2):
    """max ||Tx||^2 over ||x||^2 = 1 and ||Px||^2 <= c by SLSQP, the best of
    a few seeded starts: a primal value, never above the true g^2 by more
    than the constraint tolerance."""
    Q, P = T.entries.T @ T.entries, M.basis @ M.basis.T
    c = (1.0 - eps * eps / 2.0) ** 2
    rng = np.random.default_rng(37)
    cons = [{"type": "eq", "fun": lambda x: x @ x - 1.0},
            {"type": "ineq", "fun": lambda x: c - x @ P @ x}]
    best = -np.inf
    for _ in range(starts):
        x0 = rng.standard_normal(T.domain.n)
        res = minimize(lambda x: -(x @ Q @ x), x0 / np.linalg.norm(x0), jac=lambda x: -2.0 * Q @ x,
                       constraints=cons, method="SLSQP", options={"ftol": 1e-14, "maxiter": 200})
        x = res.x / np.linalg.norm(res.x)
        if x @ P @ x <= c + 1e-9:
            best = max(best, float(x @ Q @ x))
    return math.sqrt(best)


def test_slsqp_primal_agrees_with_the_exact_g():
    for T, M, eps in far_cases():
        g = far_maximum(T, M, eps) - TAU_SECULAR
        assert abs(slsqp_far_maximum(T, M, eps) - g) <= 1e-7, (T, M, eps)


@pytest.mark.parametrize("k", [1, 2])
def test_hard_case_closed_form(k):
    # M_A spanned by the top k right singular vectors of T: the secular
    # equation's hard case, g^2 = c + (1 - c) s_{k+1}^2 exactly
    rng = np.random.default_rng(41 + k)
    s = l2(3)
    for _ in range(10):
        U, V = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        sv = np.concatenate([np.ones(k), np.sort(rng.uniform(0.05, 0.95, 3 - k))[::-1]])
        T = OperatorMatrix(U @ np.diag(sv) @ V.T, s, s)
        M = attainment_set(T)
        assert M.subspace_dim == k
        for eps in (0.05, 0.3, 1.0, 1.4):
            c = (1.0 - eps * eps / 2.0) ** 2
            want = math.sqrt(c + (1.0 - c) * sv[k] ** 2)
            assert abs(far_maximum(T, M, eps) - TAU_SECULAR - want) <= 1e-14, (sv, eps)
        # no point lies farther than sqrt 2 from M
        assert far_maximum(T, M, 1.5) == -math.inf


def test_worst_distance_is_the_sup_above_the_level():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((50_000, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    statuses = set()
    for T, A, eps in triples():
        cert = verify_uniform_bpb(T, A, eps)
        if cert.operator_distance >= eps:
            continue
        statuses.add(cert.status)
        M = attainment_set(A)
        level = 1.0 - (cert.delta_found or bpbverify.DELTA_LAST)
        sampled = M.distance_to(X[T.image_norms(X) >= level]).max(initial=0.0)
        assert sampled <= cert.worst_distance + 1e-12, (T, A, eps)
        assert cert.worst_distance - sampled < 0.05, (T, A, eps)
        if not cert.certified:
            z = cert.counterexample.coords
            assert M.distance_to(z[None])[0] >= eps - 1e-12
            assert T.image_norms(z[None])[0] > level
    assert statuses == {"certified", "falsified"}


def test_l2_3_certificates_sample_no_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sphere grid was sampled")

    monkeypatch.setattr(bpbverify, "sphere_grid", refuse)
    s = l2(3)
    T, A, eps = triples()[1]
    assert verify_uniform_bpb(T, A, eps, resolution=16384).basis == "exact"
    delta_for_epsilon(T, eps)
    is_only_approximation(T, eps, trials=3, seed=0)
    hilbert_necessary_checks(T, A, eps)
    # M_A is the whole sphere: no point is far from it
    identity = OperatorMatrix(np.eye(3), s, s)
    cert = verify_uniform_bpb(identity, identity, eps)
    assert (cert.status, cert.delta_found, cert.worst_distance, cert.basis) == ("certified", 0.5, 0.0, "exact")


def test_l2_4_takes_the_grid_only_for_middle_dimensions():
    s = l2(4)
    rng = np.random.default_rng(47)
    T = unit(rng.standard_normal((4, 4)), s, s)
    for sv, basis in (([1.0, 0.5, 0.4, 0.2], "exact"), ([1.0, 1.0, 0.5, 0.3], "sampled"),
                      ([1.0, 1.0, 1.0, 0.3], "exact")):
        U, V = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
        A = OperatorMatrix(U @ np.diag(sv) @ V.T, s, s)
        assert verify_uniform_bpb(T, A, 2.0).basis == basis
