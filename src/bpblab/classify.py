"""Structural classification of contractions.

Sign-pattern criteria for extreme contractions on l_inf^n and l_1^n, an
extremality test by rows, by columns or by rank, isometry testing and
enumeration, and
signed-permutation equivalence orbits including the 90-element census of
extreme contractions from l_inf^3 to l_1^3.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfiniteGroupError, OutOfRangeError, WrongSpacesError
from .operators import OperatorMatrix, _norm_value, _stacked_norms, check_norm_one
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


def _check_pair_norm_one(T: OperatorMatrix, p):
    if T.domain.p != p or T.codomain.p != p:
        raise WrongSpacesError(f"operator must map l_{p} to l_{p}")
    if T.domain.n != T.codomain.n:
        raise WrongSpacesError("operator must be square")
    check_norm_one(_norm_value(T), "operator")


def linf_row_condition(T: OperatorMatrix) -> bool:
    """Every row has exactly one nonzero entry and that entry is +/-1.

    For a norm-one T on l_inf^n this is exactly extremality, up to TAU_EQ:
    ||T|| is the largest l_1 norm of a row, so the unit ball of the
    operators is the product of the rows' l_1 balls, and T is an extreme
    point iff every row is a vertex +/-e_j of its ball.
    """
    _check_pair_norm_one(T, INF)
    return _one_unimodular_per_line(T.entries)


def l1_column_condition(T: OperatorMatrix) -> bool:
    """Every column has exactly one nonzero entry and that entry is +/-1.

    For a norm-one T on l_1^n this is exactly extremality, up to TAU_EQ:
    ||T|| is the largest l_1 norm of a column, so the unit ball of the
    operators is the product of the columns' l_1 balls.
    """
    _check_pair_norm_one(T, 1)
    return _one_unimodular_per_line(T.entries.T)


def _extreme_lines(L: np.ndarray, value: float, signs: bool) -> np.ndarray:
    """Whether each row of L is extreme in the ball of radius `value`, within
    TAU_EQ * value: of l_inf (signs: every entry near +/-value) or of l_1
    (one entry above TAU_EQ * value in magnitude, and one near +/-value)."""
    A = np.abs(L)
    tol = TAU_EQ * value
    near = np.abs(A - value) <= tol
    if signs:
        return near.all(axis=1)
    return ((A > tol).sum(axis=1) == 1) & near.any(axis=1)


def _one_unimodular_per_line(M: np.ndarray) -> bool:
    """Whether every row of M is a vertex +/-e_j of the l_1 ball, within TAU_EQ."""
    return bool(_extreme_lines(M, 1.0, False).all())


def is_extreme_contraction(T: OperatorMatrix) -> ExtremalityVerdict:
    """Whether a norm-one T is an extreme point of the operator unit ball.

    Polyhedral pairs, relative to ||T|| within TAU_EQ, by method "rows" on
    an l_inf^m codomain (every row extreme in X*'s ball), "columns" on an
    l_1^n domain (every column extreme in Y's ball; Lindenstrauss and
    Perles, Duke Math. J. 1966), else "rank": whether the normals of the
    facets {S : f(S v) <= 1} active at T span R^(m*n) (the vertex
    criterion; Schrijver, Theory of Linear and Integer Programming, section
    8), by an exact certificate or else exact integer elimination.  A
    not_extreme verdict carries a witness D != 0 with ||T +/- D|| <= ||T||.
    Other pairs get no verdict beyond ||T|| = 1: status
    "necessary_condition_only", method "none".  A random perturbation
    search cannot stand in there, since every D with ||T +/- D|| <= 1 lies
    in the span of the minimal face of T, a proper subspace that a random
    draw misses with probability one.
    """
    dom, cod = T.domain, T.codomain
    lines = dom.polyhedral and cod.polyhedral and (cod.p == INF or dom.p == 1)
    # on the rows and columns pairs ||T|| is a closed form, op_norm's bits
    value = float(_stacked_norms(T.entries, dom, cod, "polyhedral")) if lines else _norm_value(T)
    check_norm_one(value, "operator")
    if lines:
        return _line_extremality(T, value)
    if not (dom.polyhedral and cod.polyhedral):
        return ExtremalityVerdict("necessary_condition_only", "none")
    return _rank_extremality(T, value)


def _line_extremality(T: OperatorMatrix, value: float) -> ExtremalityVerdict:
    """The rows or the columns test.  The witness changes the first line
    that is not extreme: it adds the line's slack to one entry, or moves
    t = min(|r_a|, |r_b|) between the two largest entries of an l_1 line
    of norm ||T||."""
    columns = T.codomain.p != INF
    D = np.zeros_like(T.entries)
    L, DL = (T.entries.T, D.T) if columns else (T.entries, D)
    signs = T.domain.p == 1 and not columns  # rows in l_inf's ball, else in l_1's
    ok = _extreme_lines(L, value, signs)
    method = "columns" if columns else "rows"
    if ok.all():
        return ExtremalityVerdict("extreme", method)
    i = int(ok.argmin())
    A = np.abs(L[i])
    slack = value - A.sum()
    if signs:
        j = int(A.argmin())
        DL[i, j] = value - A[j]
    elif slack > TAU_EQ * value:
        DL[i, A.argmax()] = slack
    else:
        a, b = np.argsort(-A, kind="stable")[:2]
        DL[i, a], DL[i, b] = A[b] * np.sign(L[i, a]), -A[b] * np.sign(L[i, b])
    return ExtremalityVerdict("not_extreme", method, witness=D)


RANK_TABLE_LIMIT = 1 << 12  # facet normals the rank test may tabulate


@functools.lru_cache(maxsize=16)
def _facet_normals(domain: SpaceSpec, codomain: SpaceSpec) -> np.ndarray:
    """K, read-only, with f(S v) = K @ vec(S) for every facet of the
    operator ball of l_inf^n -> l_1^m: v runs over the 2^n sign vectors, f
    over those with f_1 = +1, since (f, v) and (-f, -v) give one facet.
    OutOfRangeError, before building, past RANK_TABLE_LIMIT rows."""
    m, n = codomain.n, domain.n
    count = 2 ** (m + n - 1)
    if count > RANK_TABLE_LIMIT:
        raise OutOfRangeError(f"{domain} -> {codomain}: the rank test would "
                              f"tabulate {count} facet normals, more than {RANK_TABLE_LIMIT}")
    V = polyhedral_table(domain).vertices
    F = polyhedral_table(codomain.dual()).vertices[: count >> n]  # f_1 = +1 first
    K = (F[:, None, :, None] * V[None, :, None, :]).reshape(count, m * n)
    K.setflags(write=False)
    return K


def _spans(N: np.ndarray) -> bool:
    """Whether the rows of N, entries +-1, certainly span R^s, s = N's
    column count: False with fewer than s rows, else whether the Cholesky
    factorisation of G - cI completes, G = N^T N.  False proves nothing.

    G is exact: its entries are integers of magnitude at most
    RANK_TABLE_LIMIT, so every partial sum is exact in any order, with or
    without FMA.  Rump (Verification of positive definiteness, BIT Numer.
    Math. 46, 2006) proves that a symmetric floating-point A of order s is
    positive definite if the floating-point Cholesky factorisation of
    fl(A - cI) runs to completion for some
        c >= gamma_(s+1) / (1 - gamma_(s+1)) tr(A)
             + 4 (s + 1) (2 (s + 2) + max a_ii) eta,
    gamma_k = k u / (1 - k u), u = 2^-53, eta = 2^-1074.  LAPACK scales a
    column by the reciprocal of its pivot, one rounding more per entry than
    the division analysed there, so gamma_(s+2) stands for gamma_(s+1).
    Here tr(G) = rows * s exactly, and c = (s + 3) u tr(G), exact in
    floating point, is above that first term by more than u tr(G) / 2 >=
    2^-54 for s <= 42 (the table's limit), while the second term is below
    2^-1050.  G positive definite is N of rank s.
    """
    rows, s = N.shape
    if rows < s:
        return False
    G = N.T @ N
    G.flat[:: s + 1] -= (s + 3) * rows * s * 2.0 ** -53
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


EXACT_INT_LIMIT = 1 << 53  # integers of magnitude below this are exact floats


def _integer_kernel(A) -> tuple[int, Optional[np.ndarray]]:
    """(rank, D) of an integer matrix A: its exact rank and, when that is
    below A's column count, a primitive integer null vector D as floats,
    else None.

    Fraction-free elimination on Python ints (Bareiss, Math. Comp. 22,
    1968): each update divides exactly by the previous pivot, and the k-th
    pivot is the k x k minor of A on the pivot rows and columns.  At the
    first column c without a pivot, below r pivots, D_c is the r-th pivot
    and back substitution on the r pivot rows, which no later step
    changes, gives the rest: by Cramer's rule every entry is a minor of A,
    so each division is exact.  D is divided by its gcd and signed so that
    D_c > 0.  OutOfRangeError, naming the size, when ||D||_1 reaches
    EXACT_INT_LIMIT: below it every partial sum of +-D_j is an exact
    float, so K @ D is exact for a +-1 matrix K.
    """
    A = np.asarray(A)
    rows, cols = A.shape
    M = A.astype(np.int64).tolist()
    pivots, d, free = [], 1, None
    for j in range(cols):
        r = len(pivots)
        k = r
        while k < rows and not M[k][j]:
            k += 1
        if k == rows:
            free = free or (j, r, d)
            if r == rows:  # every later column is free too
                break
            continue
        M[r], M[k] = M[k], M[r]
        P, p = M[r], M[r][j]
        for i in range(r + 1, rows):
            Q, q = M[i], M[i][j]
            M[i] = [0] * (j + 1) + [(p * a - q * b) // d for a, b in zip(Q[j + 1:], P[j + 1:])]
        pivots.append(j)
        d = p
    if free is None:
        return cols, None
    c, r, d = free
    D = [0] * cols
    D[c] = d
    for i in reversed(range(r)):
        D[pivots[i]] = -sum(M[i][x] * D[x] for x in pivots[i + 1:r] + [c]) // M[i][pivots[i]]
    g = math.gcd(*D) * (1 if d > 0 else -1)
    size = sum(map(abs, D)) // abs(g)
    if size >= EXACT_INT_LIMIT:
        raise OutOfRangeError(f"a {rows} x {cols} integer matrix: its null vector has "
                              f"l_1 norm {size}, past {EXACT_INT_LIMIT} (2^53)")
    return len(pivots), np.array([x // g for x in D], dtype=float)


def _rank_extremality(T: OperatorMatrix, value: float) -> ExtremalityVerdict:
    m, n = T.entries.shape
    K = _facet_normals(T.domain, T.codomain)
    vals = K @ T.entries.reshape(-1)  # f(T v)
    # active relative to ||T||, as in the attainment set: the norm check
    # lets ||T|| miss 1 by more than TAU_EQ
    active = vals >= value * (1.0 - TAU_EQ)
    normals = K[active]
    if _spans(normals):
        return ExtremalityVerdict("extreme", "rank")
    # the exact rank where the certificate refuses: of N itself below m*n
    # rows, else of G = N^T N, which has N's kernel
    _, D = _integer_kernel(normals if len(normals) < m * n else normals.T @ normals)
    if D is None:
        return ExtremalityVerdict("extreme", "rank")
    # f(D v) is exactly 0 on the active facets; stop at the first other
    # facet to reach ||T||
    reach = np.abs(K @ D)
    step = np.divide(value - vals, reach, out=np.full_like(reach, np.inf), where=reach > 0)
    return ExtremalityVerdict("not_extreme", "rank", witness=step.min() * D.reshape(m, n))


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


def _round_keys(M: np.ndarray):
    """The keys of the matrices of a stack M, one at a time; M is rounded
    in place."""
    np.round(M, 12, out=M)
    M += 0.0  # normalise -0.0
    return (tuple(row.tolist()) for row in M.reshape(-1, M.shape[-2] * M.shape[-1]))


def orbit_with_witnesses(A: OperatorMatrix) -> dict:
    """The two-sided signed-permutation orbit {L A R}.

    Maps each orbit member's rounded-entry key to (member entries, L, R)
    with member = L @ A @ R, in the order of the first L and then R to
    reach it.  A must be square.  The keys come from one stacked matmul.
    """
    n = A.domain.n
    if A.codomain.n != n:
        raise WrongSpacesError(f"an orbit needs a square operator, got {A.codomain.n} x {n}")
    _check_enumeration_size(n, 2)
    P = np.array(list(all_signed_permutations(n)))
    LA = P @ A.entries
    out = {}
    for k, key in enumerate(_round_keys(LA[:, None] @ P)):
        if key not in out:
            l, r = divmod(k, len(P))
            out[key] = (LA[l] @ P[r], P[l], P[r])
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
    key = next(_round_keys(T.entries.copy()))
    if key in rank_one:
        _, L, R = rank_one[key]
        return ("rank_one", CANONICAL_RANK_ONE_3, L, R)
    if key in block:
        _, L, R = block[key]
        return ("block", CANONICAL_BLOCK_3, L, R)
    return None
