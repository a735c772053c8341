"""Constructors for explicit norm-attainment-aware approximants.

Each constructor returns an ApproximantReport bundling the input operator,
the approximant, the measured operator distance, both norm attainment sets,
and whether the attainment set was preserved.
"""

from __future__ import annotations

import math
import numbers
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
    NormNotOneError,
    NotAMidpointError,
    NotComplementaryError,
    NotInEnumerationError,
    NotRankOneError,
    ObstructionError,
    OrthogonalityError,
    WrongSpacesError,
    ZeroOnX2Error,
)
from .operators import (
    TAU_COINCIDE,
    TAU_DET,
    TAU_INDEP,
    TAU_INSIDE,
    TAU_RANK_ONE,
    TAU_UNIT,
    TAU_VANISH,
    AttainmentSet,
    OperatorMatrix,
    _analysis,
    _basis_columns,
    _norm_value,
    _orthonormal_norm,
    attainment_equal,
    attainment_set,
    check_norm_one,
    norm_one_attainment_set,
    orthogonal_complement,
    restricted_norm,
)
from .optim import bisect_increasing
from .spaces import (
    TAU_EQ,
    Point,
    SpaceSpec,
    _check_eps,
    _orthogonal_columns,
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


def _finish(T, A, eps, construction, expect_preserved=True, MT=None):
    """Measure the report fields and enforce the constructor contract;
    `MT`, when given, is attainment_set(T) built by the caller."""
    try:
        MA = norm_one_attainment_set(A, "approximant")
    except NormNotOneError as exc:
        raise ConstructionError(str(exc)) from None
    dist = _norm_value(T - A)
    if not dist < eps:
        raise ConstructionError(f"distance {dist} is not below eps={eps}")
    if dist <= TAU_COINCIDE:
        raise ConstructionError("approximant coincides with the input operator")
    if MT is None:
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


# the least eps the rank-one tilt accepts: it lands within 2^-10 relative of
# eps/4, up to the rounding of T - A's entries near 1, and the distance must
# exceed TAU_COINCIDE; at 4 TAU_COINCIDE it fell below for eps up to 4.17e-14
_RANK_ONE_EPS_MIN = 5.0 * TAU_COINCIDE


def _rank_one_factors(T: OperatorMatrix):
    """Write T = f (x) w with w a unit codomain vector; requires rank 1."""
    U, s, Vt = np.linalg.svd(T.entries)
    if s[0] <= 0 or (len(s) > 1 and s[1] > TAU_RANK_ONE * s[0]):
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
    of the functional f alone, is untouched.  eps at or below
    5 TAU_COINCIDE is refused, as the approximant would coincide with T.
    """
    _check_eps(eps, hi=4.0, lo=_RANK_ONE_EPS_MIN)
    return _rank_one(T, norm_one_attainment_set(T, "operator"), eps)


def _tilt_gap(w, v, p, t):
    """||u - w||_p for the unit tilts u = (w + t v) / ||w + t v||_p of an
    array of t, built coordinate-major, one column per t."""
    u = w[:, None] + t * v[:, None]
    u /= pnorm(u, p, axis=0)
    return pnorm(u - w[:, None], p, axis=0)


_TILT_ENDS = 2.0 ** np.arange(21)  # the brackets [0, 2^k] that _tilt tries


def _tilt(w, v, p, eps):
    """The t whose unit tilt of w toward v lies eps/4 from w.

    The bracket is [0, hi] for the first hi = 2^k with gap(hi) >= eps/4,
    or hi = 2^20, the first past 1e6, where the target falls to
    0.9 gap(hi) if that is smaller; every candidate hi is one gap call.
    """
    gaps = _tilt_gap(w, v, p, _TILT_ENDS)
    k = int(np.argmax(~(gaps < eps / 4.0) | (_TILT_ENDS >= 1e6)))
    target = min(eps / 4.0, 0.9 * float(gaps[k]))
    return bisect_increasing(lambda t: _tilt_gap(w, v, p, t), target, 0.0, float(_TILT_ENDS[k]))


def _rank_one(T: OperatorMatrix, MT: AttainmentSet, eps: float) -> ApproximantReport:
    """rank_one_approx of a norm-one T whose attainment set MT is built."""
    _check_eps(eps, hi=4.0, lo=_RANK_ONE_EPS_MIN)
    if T.codomain.n < 2:
        raise CodomainDimOneError("rank-one construction needs dim(codomain) > 1")
    f, w = _rank_one_factors(T)
    m = T.codomain.n
    v = None
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        if np.linalg.norm(e - (e @ w) * w / (w @ w)) > TAU_INDEP:
            v = e
            break
    p = T.codomain.pf
    t = _tilt(w, v, p, eps)
    u = w + t * v
    u = u / float(pnorm(u, p))
    A = OperatorMatrix(np.outer(u, f), T.domain, T.codomain)
    return _finish(T, A, eps, "rank_one", MT=MT)


def convex_witness_approx(
    T: OperatorMatrix, T1: OperatorMatrix, T2: OperatorMatrix, eps: float
) -> ApproximantReport:
    """Slide a proper midpoint T = (T1+T2)/2 slightly toward T1.

    Returns A_n = (1-1/n)T + (1/n)T1 for the smallest n > 1 whose distance
    ||T-T1||/n falls below eps.
    """
    _check_eps(eps)
    check_norm_one(_norm_value(T1), "T1")
    check_norm_one(_norm_value(T2), "T2")
    mid = 0.5 * (T1.entries + T2.entries)
    if np.abs(mid - T.entries).max() > TAU_EQ:
        raise NotAMidpointError("T is not the midpoint of (T1, T2)")
    d = _norm_value(T - T1)
    if d <= TAU_COINCIDE:
        raise DegenerateWitnessError("T coincides with T1")
    n = _shrink_index(d, eps)
    A = (1.0 - 1.0 / n) * T + (1.0 / n) * T1
    return _finish(T, A, eps, f"convex_witness(n={n})")


def _decomposition_projectors(X1, X2, n):
    B1 = _basis_columns(X1, n, "X1_basis")
    B2 = _basis_columns(X2, n, "X2_basis")
    C = np.concatenate([B1, B2], axis=1)
    if C.shape != (n, n) or abs(np.linalg.det(C)) < TAU_DET:
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
    2/n < eps.  Requires the attainment set inside X1, T nonzero on X2
    and X1 Birkhoff-James orthogonal to X2.  The bases (`_basis_columns`)
    may be oblique: the projectors come from the inverse of [X1 X2].
    """
    _check_eps(eps)
    MT = norm_one_attainment_set(T, "operator")
    B1, B2, P1, P2 = _decomposition_projectors(X1_basis, X2_basis, T.domain.n)
    _check_inside(MT, P2)
    if restricted_norm(T, B2) <= TAU_VANISH:
        raise ZeroOnX2Error("T vanishes on X2; the construction is trivial")
    for x in B1.T:
        if not _orthogonal_columns(Point(x, T.domain), B2).all():
            raise OrthogonalityError("X1 is not Birkhoff-James orthogonal to X2")
    return _direct_sum_shrink(T, MT, P1, P2, eps)


def _check_inside(MT: AttainmentSet, P2) -> None:
    """Refuse an MT with a point off X1, the kernel of the projector P2."""
    if np.abs(MT.representative_points() @ P2.T).max() > TAU_INSIDE:
        raise NotComplementaryError("attainment set is not contained in X1")


def _direct_sum_shrink(
    T: OperatorMatrix, MT: AttainmentSet, P1, P2, eps: float
) -> ApproximantReport:
    """direct_sum_shrink_approx of a norm-one T with attainment set MT, on
    a split the caller has checked, with projectors P1 + P2 = I."""
    n = _shrink_index(2.0, eps)
    A = OperatorMatrix(T.entries @ (P1 + (1.0 - 1.0 / n) * P2), T.domain, T.codomain)
    return _finish(T, A, eps, f"direct_sum_shrink(n={n})", MT=MT)


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
    # n entries, one per row, and not one per column: by pigeonhole some
    # column carries two or more; take its first
    nz = np.abs(E) > TAU_EQ
    c = int(np.argmax(nz.sum(axis=0) >= 2))
    r = int(np.argmax(nz[:, c]))
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
    E = T.entries.copy()
    # n entries, one per column, and not one per row: by pigeonhole the
    # first row with two or more and the first zero row both exist
    nz = np.abs(E) > TAU_EQ
    counts = nz.sum(axis=1)
    heavy, zero = int(np.argmax(counts >= 2)), int(np.argmax(counts == 0))
    c = int(np.argmax(nz[heavy]))
    s = math.copysign(1.0, E[heavy, c])
    E[heavy, c] -= s * eps / 4.0
    # the filled entry is alone in a zero row of T, so its sign flips one
    # coordinate of A and of T - A, an isometry of the codomain: ||A||, M_A
    # and ||T - A||, hence the verdict of _finish, do not depend on it
    E[zero, c] = s * eps / 4.0
    return _finish(T, OperatorMatrix(E, T.domain, T.codomain), eps, "l1_extreme")


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

    Without a declared subspace the split is read off T's SVD, which the
    norm memo holds: H_0 and its complement are spanned by the right
    singular vectors Vt[:k] and Vt[k:], where T has norm s[k] (0 when k
    is the number of singular values).  A declared subspace (`_basis_columns`)
    takes a QR for its complement and an SVD for that norm; M_T must lie in it.
    Either split is orthonormal, hence Birkhoff-James orthogonal, so the
    shrink gets the projectors Q Q^T of its two bases and no check.
    """
    _check_eps(eps)
    if not (T.domain.hilbert and T.codomain.hilbert):
        raise WrongSpacesError("construction requires Hilbert domain and codomain")
    MT = norm_one_attainment_set(T, "operator")
    n = T.domain.n
    if attained_subspace is None:
        s, Vt = _analysis(T).data
        Q0 = MT.basis
        k = Q0.shape[1]
        Qc, r = Vt[k:].T, (float(s[k]) if k < len(s) else 0.0)
    else:
        Q0, _ = np.linalg.qr(_basis_columns(attained_subspace, n, "attained_subspace"))
        k = Q0.shape[1]
        Qc = orthogonal_complement(Q0)
        r = _orthonormal_norm(T, Qc)
    if k == n:
        raise IsIsometryError("full-sphere attainment; T is an isometry")
    if r >= 1.0 - TAU_EQ:
        raise ObstructionError(
            "T has full norm on the attainment complement; preservation impossible"
        )
    if r > TAU_VANISH:
        P2 = Qc @ Qc.T
        if attained_subspace is not None:
            _check_inside(MT, P2)
        return _direct_sum_shrink(T, MT, Q0 @ Q0.T, P2, eps)
    if k == 1:
        return _rank_one(T, MT, eps)
    phi = 2.0 * math.asin(eps / 8.0)
    e1, e2 = Q0[:, 0], Q0[:, 1]
    plane = np.outer(e1, e1) + np.outer(e2, e2)
    skew = np.outer(e2, e1) - np.outer(e1, e2)
    Rmat = np.eye(n) + (math.cos(phi) - 1.0) * plane + math.sin(phi) * skew
    A = OperatorMatrix(T.entries @ Rmat, T.domain, T.codomain)
    return _finish(T, A, eps, "hilbert_rotate", MT=MT)


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


# halvings of the point distance eps/4 that functional_approx_lp2 tries; 30
# seeded unit functionals on each of l_{101/100}^2, l_{11/10}^2, l_{6/5}^2
# and l_3^2, eps in [0.02, 1.98], needed at most 5
_FUNCTIONAL_HALVINGS = 10


def functional_approx_lp2(f: Point, eps: float) -> ApproximantReport:
    """A nearby norm-one functional on a 2-D strictly convex l_p space.

    The input f attains its norm at a single sphere point x; the output is
    the supporting functional of a sphere point x_k at p-distance eps/4 from
    x, or eps/8, eps/16, ... (up to _FUNCTIONAL_HALVINGS halvings) while
    that functional lies eps or more from f, as it can near p = 1.
    Functionals are reported as 1 x 2 operators.
    """
    _check_eps(eps)
    q_space = f.space
    p_space = q_space.dual()
    if p_space.n != 2 or not p_space.strictly_convex:
        raise WrongSpacesError("functional construction lives on strictly convex l_p^2")
    if abs(f.norm() - 1.0) > TAU_UNIT:
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
        return pnorm(lp_circle(p_space.p, t0 + dt) - x, p_space.pf)

    cod = SpaceSpec(2, 1)
    Tf = OperatorMatrix(c[None, :], p_space, cod)
    target = eps / 4.0
    for _ in range(_FUNCTIONAL_HALVINGS + 1):
        dt = bisect_increasing(gap, target, 0.0, math.pi / 2.0)
        xk = lp_circle(p_space.p, t0 + dt)
        fk = support_functionals(Point(xk, p_space)).functionals[0]
        Af = OperatorMatrix(fk.coords[None, :], p_space, cod)
        # the operator distance is the one _finish measures (a memo hit there)
        if _norm_value(Tf - Af) < eps and float(pnorm(fk.coords - c, q_space.p)) < eps:
            return _finish(Tf, Af, eps, "functional_lp2", expect_preserved=False)
        target /= 2.0
    raise ConstructionError(
        f"no support functional within eps={eps} of f down to point distance {2.0 * target}"
    )


def sbpbp_counterexample_family(x0: Point, n: int) -> OperatorMatrix:
    """The family A_n = P + (1-1/n)(I-P), P projecting onto span{x0}.

    Each A_n has norm one with attainment pair {+/-x0}, yet unit vectors
    orthogonal to x0 have image norm 1-1/n while sitting at Euclidean
    distance sqrt(2) from the attainment set.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n <= 1:
        raise BadIndexError("family index must be an integer above one")
    s = x0.space
    if not s.hilbert:
        raise WrongSpacesError("family is defined on Euclidean domains")
    if abs(x0.norm() - 1.0) > TAU_UNIT:
        raise NormNotOneError("x0 must be a unit vector")
    P = np.outer(x0.coords, x0.coords)
    A = P + (1.0 - 1.0 / n) * (np.eye(s.n) - P)
    return OperatorMatrix(A, s, s)
