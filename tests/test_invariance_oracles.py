"""Invariance oracles: results that an isometry or duality must keep.

- Signed permutations are the isometries of l_inf^n and l_1^n, so
  (VTU, VAU, eps) is a triple of the same geometry as (T, A, eps) for
  signed permutations U of the domain and V of the codomain.  The exact
  corner certificate must give it the same status and the same delta, bit
  for bit.
- ||T|| on l_p^2 -> l_q^2 is the norm of the adjoint T^T on
  l_{q'}^2 -> l_{p'}^2.  The pairs below cross all three geometries, so
  each kernel is checked against another one.
- Orthogonal maps are the isometries of l_2^n, so (U^T T V, U^T A V, eps)
  must keep the status and delta of the exact l_2^3 certificate, and its
  worst distance up to rounding.  The sphere grid it replaced is not
  invariant: at resolution 1024 its delta moved with the basis on 20 of
  40 such triples, by up to 8x.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from bpblab import (
    OperatorMatrix,
    hilbert_rotate_approx,
    l1,
    l1_extreme_approx,
    l2,
    linf,
    linf_extreme_approx,
    lp,
    op_norm,
    verify_uniform_bpb,
)
from bpblab.bpbverify import (
    _random_hilbert_candidates,
    _random_l1_candidates,
    _random_linf_candidates,
)
from bpblab.classify import all_signed_permutations
from bpblab.operators import pair_geometry
from bpblab.spaces import INF

# Largest relative gap between ||T|| and ||T^T|| on the dual pair still read
# as one norm.  Both sides are exact up to rounding: the vertex maximum and
# the SVD outright, the l_p^2 search to a parameter bracket of TAU_OPT,
# whose error in the norm is second order.  So the gap is a few ulps: at
# most 4.7e-16 was measured.
TAU_DUALITY = 1e-14

SPACES = [(linf(2), linf_extreme_approx, _random_linf_candidates),
          (linf(3), linf_extreme_approx, _random_linf_candidates),
          (l1(2), l1_extreme_approx, _random_l1_candidates),
          (l1(3), l1_extreme_approx, _random_l1_candidates)]
PERMUTATION_PAIRS = 4  # seeded (U, V) per triple
OPERATORS = 20         # seeded operators per space, at most the family


@pytest.mark.parametrize("space, construct, draw", SPACES, ids=[repr(s[0]) for s in SPACES])
def test_signed_permutations_keep_the_exact_certificate(space, construct, draw):
    n = space.n
    perms = list(all_signed_permutations(n))
    rng = np.random.default_rng(n + 10 * int(space.p == INF))
    statuses = set()
    for M in draw(n, OPERATORS, rng):
        T = OperatorMatrix(M, space, space)
        for eps in (0.05, 0.3):
            A = construct(T, eps).approximant
            want = verify_uniform_bpb(T, A, eps)
            statuses.add(want.status)
            for _ in range(PERMUTATION_PAIRS):
                U, V = (perms[k] for k in rng.integers(len(perms), size=2))
                got = verify_uniform_bpb(OperatorMatrix(V @ M @ U, space, space),
                                         OperatorMatrix(V @ A.entries @ U, space, space), eps)
                assert got.status == want.status, (M, eps, U, V)
                assert got.delta_found == want.delta_found, (M, eps, U, V)
    assert statuses == {"certified"}


EXPONENTS_P = [Fraction(6, 5), Fraction(4, 3), Fraction(3, 2), Fraction(2), Fraction(3),
               Fraction(4), Fraction(10)]
EXPONENTS_Q = [Fraction(1), Fraction(4, 3), Fraction(2), Fraction(3), INF]


def test_adjoint_norm_is_the_norm_on_the_dual_pair():
    rng = np.random.default_rng(0)
    geometries = set()
    for p, q in itertools.product(EXPONENTS_P, EXPONENTS_Q):
        X, Y = lp(p, 2), lp(q, 2)
        geometries |= {pair_geometry(X, Y), pair_geometry(Y.dual(), X.dual())}
        for _ in range(4):
            E = rng.standard_normal((2, 2))
            a = op_norm(OperatorMatrix(E, X, Y))[0]
            b = op_norm(OperatorMatrix(E.T, Y.dual(), X.dual()))[0]
            assert abs(a - b) <= TAU_DUALITY * max(a, b), (p, q, E)
    assert geometries == {"polyhedral", "hilbert", "lp2"}


# Largest gap between the worst distances of a certificate and of its
# rotated copy: both are exact up to the rounding of the SVD, the eigh and
# the secular solve.
TAU_ROTATED_WORST = 1e-9


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def test_orthogonal_maps_keep_the_exact_hilbert_certificate():
    rng = np.random.default_rng(23)
    s = l2(3)
    statuses = set()
    for M in _random_hilbert_candidates(3, 10, rng):
        T = OperatorMatrix(M, s, s)
        for eps in (0.1, 0.3):
            # the constructor keeps M_A = M_T; a perturbation moves it
            nearby = M + 0.3 * eps * rng.standard_normal((3, 3))
            for A in (hilbert_rotate_approx(T, eps).approximant.entries,
                      nearby / op_norm(OperatorMatrix(nearby, s, s))[0]):
                want = verify_uniform_bpb(T, OperatorMatrix(A, s, s), eps)
                assert want.basis == "exact"
                statuses.add(want.status)
                for _ in range(PERMUTATION_PAIRS):
                    U, V = _orthogonal(rng, 3), _orthogonal(rng, 3)
                    got = verify_uniform_bpb(OperatorMatrix(U.T @ M @ V, s, s),
                                             OperatorMatrix(U.T @ A @ V, s, s), eps)
                    assert (got.status, got.delta_found) == (want.status, want.delta_found), (M, A, eps)
                    if want.operator_distance < eps:
                        assert abs(got.worst_distance - want.worst_distance) <= TAU_ROTATED_WORST
    assert statuses == {"certified", "falsified"}
