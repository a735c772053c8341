"""Structural classification of contractions.

Sign-pattern criteria for extreme contractions on l_inf^n and l_1^n, a
rank-based extremality test, isometry testing and enumeration, and
signed-permutation equivalence orbits including the 90-element census of
extreme contractions from l_inf^3 to l_1^3.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfiniteGroupError, OutOfRangeError, WrongSpacesError
from .operators import OperatorMatrix, require_norm_one
from .spaces import ENUMERATION_LIMIT, INF, TAU_EQ, SpaceSpec, l1, linf, polyhedral_table


def _check_enumeration_size(n: int, power: int) -> None:
    """Refuse, before building any, to enumerate (2^n * n!)^power matrices
    when that is more than ENUMERATION_LIMIT: 2^n * n! for the isometries
    of l_p^n (n <= 7), its square for an orbit (n <= 4)."""
    count = 1
    for k in range(1, n + 1):
        count *= 2 * k  # 2^k * k!
        if count ** power > ENUMERATION_LIMIT:
            raise OutOfRangeError(
                f"n = {n}: the enumeration would build more than "
                f"{ENUMERATION_LIMIT} matrices"
            )


def all_signed_permutations(n: int):
    """The 2^n * n! signed permutation matrices of size n."""
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            m = np.zeros((n, n))
            m[rows, perm] = signs
            yield m


@dataclass(frozen=True)
class ExtremalityVerdict:
    """Outcome of the extremality test for a norm-one operator."""

    status: str  # "extreme", "not_extreme", "necessary_condition_only"
    method: str
    witness: Optional[np.ndarray] = None

    @property
    def is_extreme(self) -> bool:
        return self.status == "extreme"


def _require_pair(T: OperatorMatrix, p):
    if T.domain.p != p or T.codomain.p != p:
        raise WrongSpacesError(f"operator must map l_{p} to l_{p}")
    if T.domain.n != T.codomain.n:
        raise WrongSpacesError("operator must be square")


def linf_row_condition(T: OperatorMatrix) -> bool:
    """Every row has exactly one nonzero entry and that entry is +/-1.

    For a norm-one T on l_inf^n this is exactly extremality, up to TAU_EQ:
    ||T|| is the largest l_1 norm of a row, so the unit ball of the
    operators is the product of the rows' l_1 balls, and T is an extreme
    point iff every row is a vertex +/-e_j of its ball.
    """
    _require_pair(T, INF)
    require_norm_one(T)
    return _one_unimodular_per_line(T.entries)


def l1_column_condition(T: OperatorMatrix) -> bool:
    """Every column has exactly one nonzero entry and that entry is +/-1.

    For a norm-one T on l_1^n this is exactly extremality, up to TAU_EQ:
    ||T|| is the largest l_1 norm of a column, so the unit ball of the
    operators is the product of the columns' l_1 balls.
    """
    _require_pair(T, 1)
    require_norm_one(T)
    return _one_unimodular_per_line(T.entries.T)


def _one_unimodular_per_line(M: np.ndarray) -> bool:
    """Whether every row of M has exactly one entry above TAU_EQ in
    absolute value, and that entry lies within TAU_EQ of +/-1."""
    A = np.abs(M)
    nz = A > TAU_EQ
    # with one per row, A[nz] holds one entry per row
    return bool((nz.sum(axis=1) == 1).all()) and bool(np.abs(A[nz] - 1.0).max() <= TAU_EQ)


def is_extreme_contraction(T: OperatorMatrix) -> ExtremalityVerdict:
    """Whether a norm-one T is an extreme point of the operator unit ball.

    Polyhedral pairs: the operator unit ball is the polytope
    {S : f(S v) <= 1} over the domain vertices v and the extreme dual
    functionals f, so T is extreme iff it is a vertex of that polytope: iff
    the normals f (x) v of the constraints active at T span R^(m*n)
    (Schrijver, Theory of Linear and Integer Programming, section 8).  One
    SVD decides the rank; otherwise a null vector D of the active normals,
    scaled so that no inactive constraint is crossed, is a witness with
    ||T +/- D|| <= ||T||.  Other pairs get no verdict beyond ||T|| = 1:
    status "necessary_condition_only", method "none".  A random
    perturbation search cannot stand in there, since every D with
    ||T +/- D|| <= 1 lies in the span of the minimal face of T, a proper
    subspace that a random draw misses with probability one.
    """
    value, _ = require_norm_one(T)
    dom, cod = T.domain, T.codomain
    if dom.polyhedral and cod.polyhedral and dom.n <= 3 and cod.n <= 3:
        return _rank_extremality(T, value)
    return ExtremalityVerdict("necessary_condition_only", "none")


def _rank_extremality(T: OperatorMatrix, value: float) -> ExtremalityVerdict:
    m, n = T.entries.shape
    V = polyhedral_table(T.domain).vertices          # (v, n)
    F = polyhedral_table(T.codomain.dual()).vertices  # (f, m)
    vals = F @ T.entries @ V.T                       # f(T v), (f, v)
    # active relative to ||T||, as in the attainment set: require_norm_one
    # lets ||T|| miss 1 by more than TAU_EQ
    active = vals >= value * (1.0 - TAU_EQ)
    fi, vi = np.nonzero(active)
    # the coefficient of d_ij in f(D v) is f_i v_j: the normal is kron(f, v)
    normals = (F[fi, :, None] * V[vi, None, :]).reshape(len(fi), m * n)
    _, s, Vt = np.linalg.svd(normals)
    # numpy's matrix_rank tolerance; the normals have entries in {0, +-1}
    rank = int((s > s.max(initial=0.0) * max(normals.shape) * np.finfo(float).eps).sum())
    if rank == m * n:
        return ExtremalityVerdict("extreme", "rank")
    D = Vt[rank].reshape(m, n)
    # f(D v) = 0 on the active pairs; stop at the first inactive one to reach ||T||
    slack, reach = value - vals[~active], np.abs(F @ D @ V.T)[~active]
    with np.errstate(divide="ignore"):
        t = np.min(slack / reach, initial=1.0)
    return ExtremalityVerdict("not_extreme", "rank", witness=t * D)


def is_isometry(T: OperatorMatrix) -> bool:
    """Surjective isometry test for a square operator on one l_p space."""
    if T.domain.p != T.codomain.p or T.domain.n != T.codomain.n:
        raise WrongSpacesError("isometries need a square operator, same exponent")
    M = T.entries
    if T.domain.hilbert:
        return bool(np.abs(M.T @ M - np.eye(T.domain.n)).max() < TAU_EQ)
    # p != 2: the isometries of l_p^n are exactly the signed permutations,
    # the matrices with one unimodular entry in every row and every column
    return _one_unimodular_per_line(M) and _one_unimodular_per_line(M.T)


def enumerate_isometries(s: SpaceSpec) -> list[OperatorMatrix]:
    """All 2^n * n! signed permutation isometries of l_p^n, p != 2."""
    if s.hilbert:
        raise InfiniteGroupError("the Hilbert isometry group is infinite")
    _check_enumeration_size(s.n, 1)
    return [OperatorMatrix(m, s, s) for m in all_signed_permutations(s.n)]


def _round_key(M: np.ndarray) -> tuple:
    r = np.round(M, 12) + 0.0  # normalise -0.0
    return tuple(r.reshape(-1))


def orbit_with_witnesses(A: OperatorMatrix) -> dict:
    """The two-sided signed-permutation orbit {L A R}.

    Maps each orbit member's rounded-entry key to (member entries, L, R)
    with member = L @ A @ R.  A must be square.
    """
    n = A.domain.n
    if A.codomain.n != n:
        raise WrongSpacesError(f"an orbit needs a square operator, got {A.codomain.n} x {n}")
    _check_enumeration_size(n, 2)
    mats = list(all_signed_permutations(n))
    out = {}
    for L in mats:
        LA = L @ A.entries
        for R in mats:
            B = LA @ R
            key = _round_key(B)
            if key not in out:
                out[key] = (B, L, R)
    return out


def equivalence_orbit(A: OperatorMatrix) -> list[OperatorMatrix]:
    """Deduplicated orbit of A under signed permutations on both sides."""
    return [
        OperatorMatrix(B, A.domain, A.codomain)
        for B, _, _ in orbit_with_witnesses(A).values()
    ]


CANONICAL_RANK_ONE_3 = np.array(
    [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
)
CANONICAL_BLOCK_3 = np.array(
    [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]]
)


@functools.lru_cache(maxsize=1)
def _extreme_census():
    dom, cod = linf(3), l1(3)
    rank_one = orbit_with_witnesses(OperatorMatrix(CANONICAL_RANK_ONE_3, dom, cod))
    block = orbit_with_witnesses(OperatorMatrix(CANONICAL_BLOCK_3, dom, cod))
    return rank_one, block


def enumerate_extreme_linf3_l13() -> list[OperatorMatrix]:
    """The 90 extreme contractions from l_inf^3 to l_1^3.

    The union of the two-sided signed-permutation orbits of the rank-one
    canonical form (18 members) and the 2x2 block canonical form (72).
    """
    rank_one, block = _extreme_census()
    dom, cod = linf(3), l1(3)
    out = [OperatorMatrix(B, dom, cod) for B, _, _ in rank_one.values()]
    out += [OperatorMatrix(B, dom, cod) for B, _, _ in block.values()]
    return out


def census_lookup(T: OperatorMatrix):
    """Locate T in the 90-element census.

    Returns (orbit_name, canonical, L, R) with T = L @ canonical @ R, or
    None if T is not in the enumeration.
    """
    rank_one, block = _extreme_census()
    key = _round_key(T.entries)
    if key in rank_one:
        _, L, R = rank_one[key]
        return ("rank_one", CANONICAL_RANK_ONE_3, L, R)
    if key in block:
        _, L, R = block[key]
        return ("block", CANONICAL_BLOCK_3, L, R)
    return None
