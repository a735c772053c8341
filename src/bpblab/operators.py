"""Matrix operators between l_p spaces.

Operator norm with a maximising witness, the norm attainment set M_T in an
exact representation per domain geometry, delta-approximate attainment,
restricted norms, and operator smoothness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateBasisError,
    MixedSpacesError,
    NormNotOneError,
    NotDiscreteError,
    UnsupportedSpaceError,
    ZeroOperatorError,
)
from .optim import golden_section_min
from .sampling import sphere_grid
from .spaces import (
    TAU_EQ,
    TAU_OPT,
    Point,
    SpaceSpec,
    face_barycentres,
    face_containment,
    is_smooth_point,
    lp_circle,
    pnorm,
    pnorm_into,
    points_distance,
    polyhedral_table,
)

TAU_GAP = 1e-8     # singular-value gap deciding dim H_0
TAU_DEDUP = 1e-5   # dedup radius for point-pair attainment sets
TAU_NORM_ONE = 1e-7  # largest | ||T|| - 1 | of an operator taken as norm one

DEFAULT_RESOLUTION = 4096


@dataclass(frozen=True)
class OperatorMatrix:
    """An m x n real matrix between declared l_p spaces."""

    entries: np.ndarray
    domain: SpaceSpec
    codomain: SpaceSpec

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape != (self.codomain.n, self.domain.n):
            raise MixedSpacesError(
                f"matrix shape {m.shape} does not match "
                f"{self.codomain.n} x {self.domain.n}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def apply(self, x) -> np.ndarray:
        return self.entries @ np.asarray(x, dtype=float)

    def apply_rows(self, X) -> np.ndarray:
        """Apply to each row of X; returns image rows."""
        return np.asarray(X, dtype=float) @ self.entries.T

    def image_norms(self, X) -> np.ndarray:
        return pnorm(self.apply_rows(X), self.codomain.p, axis=1)

    def __add__(self, other):
        self._check_same(other)
        return OperatorMatrix(self.entries + other.entries, self.domain, self.codomain)

    def __sub__(self, other):
        self._check_same(other)
        return OperatorMatrix(self.entries - other.entries, self.domain, self.codomain)

    def __mul__(self, c):
        return OperatorMatrix(self.entries * float(c), self.domain, self.codomain)

    __rmul__ = __mul__

    def _check_same(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise MixedSpacesError("operators between different space pairs")

    def close_to(self, other, tol=1e-12) -> bool:
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and bool(np.allclose(self.entries, other.entries, atol=tol, rtol=0.0))
        )

    def __repr__(self):
        return (
            f"OperatorMatrix({np.array2string(self.entries, precision=6)}, "
            f"{self.domain} -> {self.codomain})"
        )


def operator(entries, domain: SpaceSpec, codomain: SpaceSpec) -> OperatorMatrix:
    return OperatorMatrix(np.asarray(entries, dtype=float), domain, codomain)


@dataclass(frozen=True)
class AttainmentSet:
    """M_T = {x in S_X : ||Tx|| = ||T||} in one of three exact forms.

    kind "faces": a union of maximal faces of the polyhedral unit ball;
    kind "points": finitely many +/- point pairs (rows, closed under
    negation); kind "subspace": S_X intersected with a subspace given by an
    orthonormal column basis (Hilbert domain).
    """

    kind: str
    value: float
    space: SpaceSpec
    faces: tuple = ()
    points: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None

    def distance_to(self, X, out=None, work=None) -> np.ndarray:
        """Distance in the domain norm from each row of X to the set.

        The result goes to `out`; `work`, shape (3, len(X)), is scratch.
        Both are allocated when not given; with both given, no array of
        len(X) is allocated.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if out is None:
            out = np.empty(len(X))
        if work is None:
            work = np.empty((3, len(X)))
        if self.kind == "faces":
            out.fill(np.inf)
            for f in self.faces:
                np.minimum(out, f.distance_to(X, work[0], work[1:]), out=out)
        elif self.kind == "points":
            # points sets live on 2-D domains: work[:2] holds X - q by columns
            out.fill(np.inf)
            for q in self.points:
                np.subtract(X.T, q[:, None], out=work[:2])
                np.minimum(out, pnorm_into(work[:2], self.space.p, 0, work[2]), out=out)
        elif self.basis.shape[1] == 0:
            out.fill(np.inf)
        else:
            # the nearest point of S_X /\ H_0 to x is the normalised
            # projection: distance sqrt(||x||^2 + 1 - 2 ||Q^T x||)
            tmp, qx = work[0], work[1]
            out.fill(1.0)
            for x in X.T:
                np.add(out, np.multiply(x, x, out=tmp), out=out)
            qx.fill(0.0)
            for q in self.basis.T:
                np.matmul(X, q, out=tmp)
                np.add(qx, np.multiply(tmp, tmp, out=tmp), out=qx)
            np.subtract(out, np.multiply(np.sqrt(qx, out=qx), 2.0, out=qx), out=out)
            np.sqrt(np.maximum(out, 0.0, out=out), out=out)
        return out

    def finite_points(self) -> Optional[np.ndarray]:
        """The set as +/- rows when it is finite, else None: the points,
        the vertices of faces that all have dimension 0, or +/-q of a 1-D
        subspace."""
        if self.kind == "points":
            return self.points
        if self.kind == "faces":
            if any(f.dim for f in self.faces):
                return None
            # a 0-dimensional face is the vertex its sign pattern names
            return np.array([f.pattern for f in self.faces], dtype=float)
        if self.subspace_dim > 1:
            return None
        return np.concatenate([self.basis.T, -self.basis.T])

    def representative_points(self) -> np.ndarray:
        """Unit vectors representing the set, one row each."""
        if self.kind == "faces":
            table = polyhedral_table(self.space)
            patterns = [f.pattern for f in self.faces]
            verts = table.vertices[face_containment(self.space, patterns, table.vertices).any(axis=0)]
            reps = face_barycentres(self.space, patterns)
            return np.unique(np.round(np.concatenate([reps, verts]), 12), axis=0)
        if self.kind == "points":
            return self.points
        Q = self.basis
        cols = [Q[:, j] for j in range(Q.shape[1])]
        reps = cols + [-c for c in cols]
        if Q.shape[1] >= 2:
            for i, j in itertools.combinations(range(Q.shape[1]), 2):
                v = (Q[:, i] + Q[:, j]) / math.sqrt(2.0)
                reps.extend([v, -v])
        return np.array(reps)

    @property
    def subspace_dim(self) -> int:
        if self.basis is None:
            raise UnsupportedSpaceError("not a subspace attainment set")
        return self.basis.shape[1]

    def pair_count(self) -> int:
        """Number of +/- pairs for a discrete set."""
        P = self.finite_points()
        if P is None:
            raise NotDiscreteError("attainment set is not a finite point set")
        return len(P) // 2


def attainment_equal(a: AttainmentSet, b: AttainmentSet, tol: float = 1e-7) -> bool:
    """Whether two attainment sets describe the same subset of the sphere."""
    if a.space != b.space:
        return False
    if a.kind == "faces" and b.kind == "faces":
        return {f.pattern for f in a.faces} == {f.pattern for f in b.faces}
    if a.kind == "subspace" and b.kind == "subspace":
        if a.subspace_dim != b.subspace_dim:
            return False
        P = a.basis @ a.basis.T
        Q = b.basis @ b.basis.T
        return bool(np.abs(P - Q).max() < tol)
    if a.kind == "points" and b.kind == "points":
        if len(a.points) != len(b.points):
            return False
        da = a.distance_to(b.points)
        db = b.distance_to(a.points)
        return bool(da.max() < tol and db.max() < tol)
    # mixed representations: compare via mutual representative distances
    ra, rb = a.representative_points(), b.representative_points()
    return bool(a.distance_to(rb).max() < tol and b.distance_to(ra).max() < tol)


def _refined_maxima(t: np.ndarray, h: np.ndarray, val):
    """Golden-section refinement of the local maxima of a pi-periodic
    objective sampled as h at the equispaced parameters t of [0, pi).

    `val(theta)` is the objective negated.  Returns the refined
    (theta mod pi, value) pairs and the largest value.
    """
    left, right = np.roll(h, 1), np.roll(h, -1)
    # plateaus (constant stretches, up to rounding noise) contribute one
    # candidate at most, via the global argmax; otherwise require a rise
    # above the floating-point noise floor on the two sides combined
    keep = (h >= left) & (h >= right) & ((h - left) + (h - right) > 1e-13 * np.maximum(1.0, h))
    keep[np.argmax(h)] = True
    step = math.pi / len(t)
    candidates = []
    for i in np.flatnonzero(keep):
        tt, negv = golden_section_min(val, t[i] - step, t[i] + step, tol=TAU_OPT)
        candidates.append((tt % math.pi, -negv))
    return candidates, max(v for _, v in candidates)


def _lp2_local_maxima(T: OperatorMatrix, resolution: int):
    """Grid + golden-section refinement of ||T gamma(t)|| on the l_p circle;
    refuses domains of other dimensions."""
    if T.domain.n != 2:
        raise UnsupportedSpaceError(
            f"operator norm on {T.domain} is out of desk scale (1<p<inf, p!=2 needs n=2)"
        )
    p = T.domain.p
    t = np.linspace(0.0, math.pi, resolution, endpoint=False)

    def val(tt):
        return -float(pnorm(T.apply(lp_circle(p, tt)), T.codomain.p))

    return _refined_maxima(t, T.image_norms(lp_circle(p, t)), val)


def op_norm(T: OperatorMatrix) -> tuple[float, Point]:
    """Operator norm sup ||Tx|| over the unit sphere, with a witness.

    Exact per domain: the maximum over the unit ball's vertices for l_1^n
    and l_inf^n (the first maximising vertex is the witness), the top
    singular value for Hilbert-to-Hilbert, and grid search
    refined by golden section for 2-D strictly convex domains.
    """
    dom = T.domain
    if dom.polyhedral:
        V = polyhedral_table(dom).vertices
        norms = T.image_norms(V)
        k = int(np.argmax(norms))
        return float(norms[k]), Point(V[k], dom)
    if dom.hilbert and T.codomain.hilbert:
        U, s, Vt = np.linalg.svd(T.entries)
        return float(s[0]), Point(Vt[0], dom)
    candidates, best = _lp2_local_maxima(T, DEFAULT_RESOLUTION)
    tt = max(candidates, key=lambda c: c[1])[0]
    return best, Point(lp_circle(dom.p, tt), dom)


def check_norm_one(value: float, what: str, error=NormNotOneError) -> None:
    """Raise `error` naming `what` unless the norm `value` is 1 within
    TAU_NORM_ONE."""
    if abs(value - 1.0) > TAU_NORM_ONE:
        raise error(f"{what} norm is {value}, expected 1")


def require_norm_one(T: OperatorMatrix, what: str = "operator") -> tuple[float, Point]:
    """op_norm(T), refusing operators whose norm is not 1 within TAU_NORM_ONE."""
    value, witness = op_norm(T)
    check_norm_one(value, what)
    return value, witness


def _polyhedral_attainment(T: OperatorMatrix, value: float) -> AttainmentSet:
    # ||T.|| is convex and at most ||T|| on the ball, so it reaches ||T|| at
    # a face's barycentre iff it is constant on the whole face.
    table = polyhedral_table(T.domain)
    hit = np.flatnonzero(T.image_norms(table.barycentres) >= value * (1.0 - TAU_EQ))
    # distinct patterns, so off the diagonal containment is proper
    H = table.patterns[hit]
    inside = face_containment(T.domain, H, H)
    np.fill_diagonal(inside, False)
    faces = tuple(table.faces[i] for i in hit[~inside.any(axis=0)])
    return AttainmentSet("faces", value, T.domain, faces=faces)


def orthogonal_complement(Q: np.ndarray) -> np.ndarray:
    """An orthonormal basis, one column each, of the orthogonal complement
    of the span of the orthonormal columns of Q."""
    n, k = Q.shape
    full, _ = np.linalg.qr(np.concatenate([Q, np.eye(n)], axis=1))
    return full[:, k:n]


def _orthonormal(basis: np.ndarray) -> np.ndarray:
    Q, R = np.linalg.qr(basis)
    keep = np.abs(np.diag(R)) > 1e-12
    if not keep.all():
        raise DegenerateBasisError("basis columns are linearly dependent")
    return Q


def attainment_set(
    T: OperatorMatrix, resolution: int = DEFAULT_RESOLUTION, check=None
) -> AttainmentSet:
    """The norm attainment set M_T in its exact representation.

    Polyhedral domains: union of the maximal faces whose barycentre
    attains.  Hilbert-to-Hilbert: the right singular subspace of
    the top singular value (gap TAU_GAP).  Other 2-D domains: refined point
    pairs.  `check`, when given, is called with ||T|| before anything else
    is decided from it.
    """
    dom = T.domain
    if dom.polyhedral:
        value, _ = op_norm(T)
    elif dom.hilbert and T.codomain.hilbert:
        _, s, Vt = np.linalg.svd(T.entries)
        value = float(s[0])
    else:
        candidates, value = _lp2_local_maxima(T, resolution)
    if check is not None:
        check(value)
    if value <= 0.0:
        raise ZeroOperatorError("the zero operator attains nothing")
    if dom.polyhedral:
        return _polyhedral_attainment(T, value)
    if dom.hilbert and T.codomain.hilbert:
        k = int((s >= s[0] - TAU_GAP * max(s[0], 1.0)).sum())
        return AttainmentSet("subspace", value, dom, basis=Vt[:k].T.copy())
    pts = []
    for tt, v in candidates:
        if v >= value * (1.0 - TAU_EQ):
            x = lp_circle(dom.p, tt)
            if not pts or points_distance(x, np.array(pts), dom.p) > TAU_DEDUP:
                pts.append(x)
    pts = pts + [-x for x in pts]
    return AttainmentSet("points", value, dom, points=np.array(pts))


def norm_one_attainment_set(
    T: OperatorMatrix, what: str, resolution: int = DEFAULT_RESOLUTION, error=NormNotOneError
) -> AttainmentSet:
    """attainment_set(T), refused with `error` naming `what` before the set
    is built when ||T|| is not 1 within TAU_NORM_ONE, the zero operator
    included."""
    return attainment_set(T, resolution, check=lambda value: check_norm_one(value, what, error))


def approx_attainment(
    T: OperatorMatrix, delta: float, resolution: int = DEFAULT_RESOLUTION
) -> np.ndarray:
    """Sampled M_T(delta): unit grid vectors z with ||Tz|| > ||T|| - delta."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    value, _ = op_norm(T)
    X = sphere_grid(T.domain, resolution)
    mask = T.image_norms(X) > value - delta
    return X[mask]


@dataclass(frozen=True)
class DeltaSearch:
    """Outcome of the delta(eps) grid descent of the inclusion test."""

    succeeded: bool
    delta: Optional[float]
    counterexample: Optional[Point]
    resolution: int


DELTA_FLOOR = 1e-6


def delta_descent(norms, dists, top: float, eps: float, mask: np.ndarray):
    """The geometric delta descent of the uniform inclusion test.

    Sample row i has image norm norms[i] and distance dists[i] to the
    target set.  Returns (delta, worst distance, None) for the first delta
    of top/2, top/4, ... down to DELTA_FLOOR*top whose rows with
    norms > top - delta all lie below eps; else (None, its distance, index)
    of the farthest row with norms > top - DELTA_FLOOR*top, or
    (None, -inf, None) without one.  `mask`, one flag per row, is scratch.
    """
    delta = top / 2.0
    while delta >= DELTA_FLOOR * top:
        np.greater(norms, top - delta, out=mask)
        worst = float(dists.max(where=mask, initial=-np.inf))
        if worst < eps:
            return delta, worst, None
        delta /= 2.0
    np.greater(norms, top - DELTA_FLOOR * top, out=mask)
    if not mask.any():
        return None, -np.inf, None
    idx = int(np.argmax(np.where(mask, dists, -np.inf)))
    return None, float(dists[idx]), idx


def delta_for_epsilon(
    T: OperatorMatrix, eps: float, resolution: int = DEFAULT_RESOLUTION
) -> DeltaSearch:
    """Largest grid delta with sampled M_T(delta) inside eps-balls of M_T.

    The delta grid is geometric, ||T||*2^-k down to DELTA_FLOOR*||T||.  On
    failure the counterexample is the sample farthest from M_T among those
    with ||Tz|| > ||T||(1 - DELTA_FLOOR), None when no sample is that close
    to norming.  The certificate is valid at the stated sampling resolution
    only.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    M = attainment_set(T, resolution=resolution)
    X = sphere_grid(T.domain, resolution)
    mask = np.empty(len(X), dtype=bool)
    delta, _, idx = delta_descent(T.image_norms(X), M.distance_to(X), M.value, eps, mask)
    if delta is not None:
        return DeltaSearch(True, delta, None, resolution)
    z = None if idx is None else Point(X[idx], T.domain)
    return DeltaSearch(False, None, z, resolution)


def restricted_norm(T: OperatorMatrix, basis) -> float:
    """sup ||Tz|| over unit vectors of the subspace spanned by basis columns."""
    B = np.asarray(basis, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape[0] != T.domain.n:
        raise MixedSpacesError("basis does not live in the domain")
    if B.shape[1] == 0:
        return 0.0
    if np.linalg.matrix_rank(B, tol=1e-12) < B.shape[1]:
        raise DegenerateBasisError("basis columns are linearly dependent")
    dom = T.domain
    if dom.hilbert and T.codomain.hilbert:
        Q = _orthonormal(B)
        s = np.linalg.svd(T.entries @ Q, compute_uv=False)
        return float(s[0])
    if B.shape[1] == 1:
        b = B[:, 0]
        return float(pnorm(T.apply(b), T.codomain.p) / pnorm(b, dom.p))
    if B.shape[1] == 2:
        b1, b2 = B[:, 0], B[:, 1]

        def val(theta):
            v = math.cos(theta) * b1 + math.sin(theta) * b2
            return -float(
                pnorm(T.apply(v), T.codomain.p) / pnorm(v, dom.p)
            )

        t = np.linspace(0.0, math.pi, 2048, endpoint=False)
        V = np.outer(np.cos(t), b1) + np.outer(np.sin(t), b2)
        return _refined_maxima(t, T.image_norms(V) / pnorm(V, dom.p, axis=1), val)[1]
    raise UnsupportedSpaceError("restricted norm supports dim(Z) <= 2 off Hilbert space")


def is_smooth_operator(T: OperatorMatrix) -> bool:
    """True iff M_T is a single +/- pair and the image of the attaining
    direction is a smooth point of the codomain."""
    P = attainment_set(T).finite_points()
    if P is None or len(P) != 2:
        return False
    return is_smooth_point(Point(T.apply(P[0]), T.codomain))
