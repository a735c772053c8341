"""Constructors for explicit norm-attainment-aware approximants.

Each constructor returns an ApproximantReport bundling the input operator,
the approximant, the measured operator distance, both norm attainment sets,
and whether the attainment set was preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import census_lookup, is_isometry, l1_column_condition, linf_row_condition
from .errors import (
    BadIndexError,
    CodomainDimOneError,
    ConditionFailsError,
    ConstructionError,
    DegenerateWitnessError,
    IsIsometryError,
    NoZeroRowError,
    NormNotOneError,
    NotAMidpointError,
    NotComplementaryError,
    NotInEnumerationError,
    NotRankOneError,
    ObstructionError,
    OrthogonalityError,
    OutOfRangeError,
    WrongSpacesError,
    ZeroOnX2Error,
)
from .operators import (
    AttainmentSet,
    OperatorMatrix,
    attainment_equal,
    attainment_set,
    norm_one_attainment_set,
    op_norm,
    orthogonal_complement,
    require_norm_one,
    restricted_norm,
)
from .optim import bisect_increasing
from .spaces import (
    TAU_EQ,
    Point,
    SpaceSpec,
    birkhoff_orthogonal,
    l2,
    lp_circle,
    pnorm,
    support_functionals,
)


@dataclass(frozen=True)
class ApproximantReport:
    """A constructed approximant together with its measured guarantees."""

    original: OperatorMatrix
    approximant: OperatorMatrix
    eps: float
    distance: float
    attainment_original: AttainmentSet
    attainment_approximant: AttainmentSet
    attainment_preserved: bool
    construction: str


def _finish(T, A, eps, construction, expect_preserved=True):
    """Measure the report fields and enforce the constructor contract."""
    MA = norm_one_attainment_set(A, "approximant", error=ConstructionError)
    dist, _ = op_norm(T - A)
    if not dist < eps:
        raise ConstructionError(f"distance {dist} is not below eps={eps}")
    if dist <= 1e-14:
        raise ConstructionError("approximant coincides with the input operator")
    MT = attainment_set(T)
    preserved = attainment_equal(MT, MA)
    if expect_preserved and not preserved:
        raise ConstructionError("attainment set was not preserved")
    return ApproximantReport(T, A, eps, dist, MT, MA, preserved, construction)


def _shrink_index(d, eps):
    """The smallest integer n >= 2 with d/n < eps."""
    n = max(int(math.floor(d / eps)) + 1, 2)
    while d / n >= eps:
        n += 1
    return n


def _check_eps(eps, hi=2.0):
    if not (0.0 < eps < hi):
        raise OutOfRangeError(f"eps must lie in (0, {hi}), got {eps}")


def _rank_one_factors(T: OperatorMatrix):
    """Write T = f (x) w with w a unit codomain vector; requires rank 1."""
    U, s, Vt = np.linalg.svd(T.entries)
    if s[0] <= 0 or (len(s) > 1 and s[1] > 1e-10 * s[0]):
        raise NotRankOneError("operator is not rank one")
    w0 = U[:, 0]
    f0 = s[0] * Vt[0]
    wn = float(pnorm(w0, T.codomain.p))
    return f0 * wn, w0 / wn


def rank_one_approx(T: OperatorMatrix, eps: float) -> ApproximantReport:
    """Tilt the output direction of a rank-one norm-one operator.

    With T = f (x) w, the approximant is f (x) u where u is a unit vector at
    codomain distance eps/4 from w, reached by rotating w toward the lowest
    index basis vector independent of w.  The attainment set, which is that
    of the functional f alone, is untouched.
    """
    _check_eps(eps, hi=4.0)
    require_norm_one(T)
    if T.codomain.n < 2:
        raise CodomainDimOneError("rank-one construction needs dim(codomain) > 1")
    f, w = _rank_one_factors(T)
    m = T.codomain.n
    v = None
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        if np.linalg.norm(e - (e @ w) * w / (w @ w)) > 1e-8:
            v = e
            break
    p = T.codomain.p

    def gap(t):
        u = w + t * v
        u = u / float(pnorm(u, p))
        return float(pnorm(u - w, p))

    hi = 1.0
    while gap(hi) < eps / 4.0 and hi < 1e6:
        hi *= 2.0
    target = min(eps / 4.0, 0.9 * gap(hi))
    t = bisect_increasing(gap, target, 0.0, hi)
    u = w + t * v
    u = u / float(pnorm(u, p))
    A = OperatorMatrix(np.outer(u, f), T.domain, T.codomain)
    return _finish(T, A, eps, "rank_one")


def convex_witness_approx(
    T: OperatorMatrix, T1: OperatorMatrix, T2: OperatorMatrix, eps: float
) -> ApproximantReport:
    """Slide a proper midpoint T = (T1+T2)/2 slightly toward T1.

    Returns A_n = (1-1/n)T + (1/n)T1 for the smallest n > 1 whose distance
    ||T-T1||/n falls below eps.
    """
    _check_eps(eps)
    require_norm_one(T1, "T1")
    require_norm_one(T2, "T2")
    mid = 0.5 * (T1.entries + T2.entries)
    if np.abs(mid - T.entries).max() > TAU_EQ:
        raise NotAMidpointError("T is not the midpoint of (T1, T2)")
    d, _ = op_norm(T - T1)
    if d <= 1e-14:
        raise DegenerateWitnessError("T coincides with T1")
    n = _shrink_index(d, eps)
    A = (1.0 - 1.0 / n) * T + (1.0 / n) * T1
    return _finish(T, A, eps, f"convex_witness(n={n})")


def _decomposition_projectors(X1, X2, n):
    B1 = np.atleast_2d(np.asarray(X1, dtype=float))
    B2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if B1.shape[0] != n:
        B1 = B1.T
    if B2.shape[0] != n:
        B2 = B2.T
    C = np.concatenate([B1, B2], axis=1)
    if C.shape != (n, n) or abs(np.linalg.det(C)) < 1e-12:
        raise NotComplementaryError("bases do not decompose the domain")
    Cinv = np.linalg.inv(C)
    k = B1.shape[1]
    P1 = B1 @ Cinv[:k]
    P2 = B2 @ Cinv[k:]
    return B1, B2, P1, P2


def direct_sum_shrink_approx(
    T: OperatorMatrix, X1_basis, X2_basis, eps: float
) -> ApproximantReport:
    """Shrink T on the second summand of a decomposition X1 (+) X2.

    A_n acts as T on X1 and as (1-1/n)T on X2; n is the smallest index with
    2/n < eps.  Requires the attainment set inside X1 and X1 Birkhoff-James
    orthogonal to X2.
    """
    _check_eps(eps)
    require_norm_one(T)
    n_dim = T.domain.n
    B1, B2, P1, P2 = _decomposition_projectors(X1_basis, X2_basis, n_dim)
    MT = attainment_set(T)
    reps = MT.representative_points()
    if np.abs(reps @ P2.T).max() > 1e-7:
        raise NotComplementaryError("attainment set is not contained in X1")
    if restricted_norm(T, B2) <= 1e-12:
        raise ZeroOnX2Error("T vanishes on X2; the construction is trivial")
    for i in range(B1.shape[1]):
        for j in range(B2.shape[1]):
            x = Point(B1[:, i], T.domain)
            y = Point(B2[:, j], T.domain)
            if not birkhoff_orthogonal(x, y):
                raise OrthogonalityError("X1 is not Birkhoff-James orthogonal to X2")
    n = _shrink_index(2.0, eps)
    A = OperatorMatrix(T.entries @ (P1 + (1.0 - 1.0 / n) * P2), T.domain, T.codomain)
    return _finish(T, A, eps, f"direct_sum_shrink(n={n})")


def linf_extreme_approx(T: OperatorMatrix, eps: float) -> ApproximantReport:
    """Shrink one redundant entry of a sup-norm contraction by eps/2.

    T must have exactly one unimodular entry per row and must not be a
    signed permutation.  A column carrying two or more entries is located
    and its first entry moved toward zero by eps/2, which keeps the norm,
    the attainment set, and gives distance exactly eps/2.
    """
    _check_eps(eps)
    if is_isometry(T):
        raise IsIsometryError("signed permutations admit no such perturbation")
    if not linf_row_condition(T):
        raise ConditionFailsError("row condition fails")
    E = T.entries.copy()
    n = T.domain.n
    target = None
    for c in range(n):
        rows = [r for r in range(T.codomain.n) if abs(E[r, c]) > TAU_EQ]
        if len(rows) >= 2:
            target = (rows[0], c)
            break
    if target is None:
        raise ConditionFailsError("no column with two entries (unexpected)")
    r, c = target
    E[r, c] -= math.copysign(eps / 2.0, E[r, c])
    A = OperatorMatrix(E, T.domain, T.codomain)
    return _finish(T, A, eps, "linf_extreme")


def l1_extreme_approx(T: OperatorMatrix, eps: float) -> ApproximantReport:
    """Move eps/4 of mass from a doubled row into a zero row, per column.

    T must carry exactly one unimodular entry per column and must not be a
    signed permutation; then some row holds two or more entries and some row
    is zero.  Shifting eps/4 within one column preserves the column sums
    (hence the norm and the attainment set) at distance eps/2.
    """
    _check_eps(eps)
    if is_isometry(T):
        raise IsIsometryError("signed permutations admit no such perturbation")
    if not l1_column_condition(T):
        raise ConditionFailsError("column condition fails")
    E = T.entries
    m = T.codomain.n
    heavy = next(
        (r for r in range(m) if (np.abs(E[r]) > TAU_EQ).sum() >= 2), None
    )
    zero = next((r for r in range(m) if (np.abs(E[r]) <= TAU_EQ).all()), None)
    if heavy is None:
        raise ConditionFailsError("no row with two entries (unexpected)")
    if zero is None:
        raise NoZeroRowError("no zero row available (unexpected)")
    c = next(c for c in range(T.domain.n) if abs(E[heavy, c]) > TAU_EQ)
    s = math.copysign(1.0, E[heavy, c])
    for fill_sign in (s, -s):
        F = E.copy()
        F[heavy, c] -= s * eps / 4.0
        F[zero, c] = fill_sign * eps / 4.0
        A = OperatorMatrix(F, T.domain, T.codomain)
        try:
            return _finish(T, A, eps, "l1_extreme")
        except ConstructionError:
            if fill_sign == -s:
                raise
    raise ConditionFailsError("unreachable")


_BLOCK_APPROX = "block"


def _block_canonical_approx(eps: float) -> np.ndarray:
    e = eps / 8.0
    return np.array(
        [[0.5 - e, 0.5 - e, 0.0], [0.5, -0.5, 0.0], [e, e, 0.0]]
    )


def linf3_l13_extreme_approx(T: OperatorMatrix, eps: float) -> ApproximantReport:
    """Approximant for a member of the 90-element extreme census.

    Rank-one members route to the rank-one constructor; the others are
    conjugated by signed permutations to the canonical 2x2 block form, where
    an explicit perturbation at distance eps/2 applies, and conjugated back.
    """
    _check_eps(eps)
    hit = census_lookup(T)
    if hit is None:
        raise NotInEnumerationError("operator is not in the 90-element census")
    orbit, canonical, L, R = hit
    if orbit == "rank_one":
        return rank_one_approx(T, eps)
    A_canon = _block_canonical_approx(eps)
    A = OperatorMatrix(L @ A_canon @ R, T.domain, T.codomain)
    return _finish(T, A, eps, "linf3_l13_extreme")


def hilbert_rotate_approx(
    T: OperatorMatrix, eps: float, attained_subspace=None
) -> ApproximantReport:
    """Attainment-preserving approximant for a Hilbert-space contraction.

    With H_0 the top singular subspace: shrink the complement component if T
    has positive but sub-unit norm there; otherwise tilt the rank-one output
    when dim H_0 = 1, or rotate the images of two H_0 directions by the
    angle with chord eps/4.  Fails when T has full norm on the complement
    of the declared attainment subspace, where no preserving approximant
    exists.
    """
    _check_eps(eps)
    if not (T.domain.hilbert and T.codomain.hilbert):
        raise WrongSpacesError("construction requires Hilbert domain and codomain")
    require_norm_one(T)
    n = T.domain.n
    if attained_subspace is not None:
        Q0 = np.atleast_2d(np.asarray(attained_subspace, dtype=float))
        if Q0.shape[0] != n:
            Q0 = Q0.T
        Q0, _ = np.linalg.qr(Q0)
    else:
        Q0 = attainment_set(T).basis
    k = Q0.shape[1]
    if k == n:
        raise IsIsometryError("full-sphere attainment; T is an isometry")
    Qc = orthogonal_complement(Q0)
    r = restricted_norm(T, Qc)
    if r >= 1.0 - TAU_EQ:
        raise ObstructionError(
            "T has full norm on the attainment complement; preservation impossible"
        )
    if r > 1e-12:
        return direct_sum_shrink_approx(T, Q0, Qc, eps)
    if k == 1:
        return rank_one_approx(T, eps)
    phi = 2.0 * math.asin(eps / 8.0)
    e1, e2 = Q0[:, 0], Q0[:, 1]
    plane = np.outer(e1, e1) + np.outer(e2, e2)
    skew = np.outer(e2, e1) - np.outer(e1, e2)
    Rmat = np.eye(n) + (math.cos(phi) - 1.0) * plane + math.sin(phi) * skew
    A = OperatorMatrix(T.entries @ Rmat, T.domain, T.codomain)
    return _finish(T, A, eps, "hilbert_rotate")


def hilbert_nonpreserving_demo(eps: float) -> ApproximantReport:
    """A nearby rank-one pair on the Euclidean plane that moves M_T.

    For T the projection onto the first axis, the approximant projects onto
    a slightly rotated axis: distance cos(theta) < eps/2 while the
    attainment pair moves from +/-e1 to the rotated direction.
    """
    _check_eps(eps)
    s = l2(2)
    T = OperatorMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), s, s)
    st = 1.0 - eps ** 2 / 16.0
    ct = math.sqrt(max(1.0 - st * st, 0.0))
    A = OperatorMatrix(
        np.array([[st * st, st * ct], [st * ct, ct * ct]]), s, s
    )
    return _finish(T, A, eps, "hilbert_nonpreserving_demo", expect_preserved=False)


def functional_approx_lp2(f: Point, eps: float) -> ApproximantReport:
    """A nearby norm-one functional on a 2-D strictly convex l_p space.

    The input f attains its norm at a single sphere point x; the output is
    the supporting functional of a sphere point x_k at p-distance eps/4 from
    x.  Functionals are reported as 1 x 2 operators.
    """
    _check_eps(eps)
    q_space = f.space
    p_space = q_space.dual()
    if p_space.n != 2 or not p_space.strictly_convex:
        raise WrongSpacesError("functional construction lives on strictly convex l_p^2")
    if abs(f.norm() - 1.0) > 1e-9:
        raise NormNotOneError("functional must have dual norm one")
    qf = float(q_space.p)
    c = f.coords
    x = np.sign(c) * np.abs(c) ** (qf - 1.0)
    x = x / float(pnorm(x, p_space.p))
    t0 = math.atan2(
        math.copysign(abs(x[1]) ** (float(p_space.p) / 2.0), x[1]),
        math.copysign(abs(x[0]) ** (float(p_space.p) / 2.0), x[0]),
    )

    def gap(dt):
        return float(pnorm(lp_circle(p_space.p, t0 + dt) - x, p_space.p))

    dt = bisect_increasing(gap, eps / 4.0, 0.0, math.pi / 2.0)
    xk = lp_circle(p_space.p, t0 + dt)
    fk = support_functionals(Point(xk, p_space)).functionals[0]
    cod = SpaceSpec(2, 1)
    Tf = OperatorMatrix(c[None, :], p_space, cod)
    Af = OperatorMatrix(fk.coords[None, :], p_space, cod)
    report = _finish(Tf, Af, eps, "functional_lp2", expect_preserved=False)
    if float(pnorm(fk.coords - c, q_space.p)) >= eps:
        raise ConstructionError("dual distance exceeds eps")
    return report


def sbpbp_counterexample_family(x0: Point, n: int) -> OperatorMatrix:
    """The family A_n = P + (1-1/n)(I-P), P projecting onto span{x0}.

    Each A_n has norm one with attainment pair {+/-x0}, yet unit vectors
    orthogonal to x0 have image norm 1-1/n while sitting at Euclidean
    distance sqrt(2) from the attainment set.
    """
    if not isinstance(n, int) or n <= 1:
        raise BadIndexError("family index must be an integer above one")
    s = x0.space
    if not s.hilbert:
        raise WrongSpacesError("family is defined on Euclidean domains")
    if abs(x0.norm() - 1.0) > 1e-9:
        raise NormNotOneError("x0 must be a unit vector")
    P = np.outer(x0.coords, x0.coords)
    A = P + (1.0 - 1.0 / n) * (np.eye(s.n) - P)
    return OperatorMatrix(A, s, s)
