"""Matrix operators between l_p spaces.

Operator norm with a maximising witness, the norm attainment set M_T in an
exact representation per domain geometry, restricted norms, and operator
smoothness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateBasisError,
    MixedSpacesError,
    NonFiniteError,
    NormNotOneError,
    NotDiscreteError,
    UnsupportedPairError,
    UnsupportedSpaceError,
    ZeroOperatorError,
)
from .optim import zoom_max
from .spaces import (
    INF,
    TAU_EQ,
    TAU_OPT,
    Point,
    SpaceSpec,
    _check_finite,
    _read_only,
    code_containment,
    face_barycentres,
    face_containment,
    face_distances,
    is_smooth_point,
    lp_circle,
    pnorm,
    pnorm_into,
    polyhedral_table,
)

TAU_GAP = 1e-8     # singular-value gap deciding dim H_0
TAU_DEDUP = 1e-5   # dedup radius for point-pair attainment sets
TAU_NORM_ONE = 1e-7  # largest | ||T|| - 1 | of an operator taken as norm one
TAU_SAME = 1e-9    # entry gap below which a perturbation of T is T itself,
                   # so the rigidity search does not verify it
TAU_ANGLE = 1e-9   # largest cosine of the widest principal angle between two
                   # attainment subspaces still read as 0: up to it, one meets
                   # the other's orthogonal complement
TAU_ATTAIN_EQ = 1e-7  # largest distance between two attainment sets (points
                      # or subspace projectors) still read as equal sets
TAU_COINCIDE = 1e-14  # largest ||T - A|| at which a constructor reads A as T
                      # itself and refuses it; the rank-one tilt lands near
                      # eps/4, so it refuses eps <= 5 TAU_COINCIDE up front
TAU_RANK_ONE = 1e-10  # largest s_2 / s_1 of an operator still read as rank one
TAU_INDEP = 1e-8   # smallest distance from a basis vector to span{w} for the
                   # rank-one tilt to turn w toward it
TAU_DET = 1e-12    # smallest |det [X1 X2]| read as X1 (+) X2 spanning the domain
TAU_INSIDE = 1e-7  # largest X2 component of an attainment point still read as
                   # the point lying in X1
TAU_VANISH = 1e-12  # largest norm of T restricted to a subspace still read as T
                    # vanishing there
TAU_RANK = 1e-12   # smallest singular value of a basis still read as independent;
                   # the |R_ii| of its QR are at least that
TAU_UNIT = 1e-9    # largest | ||x|| - 1 | of an input vector or functional taken
                   # as a unit one
TAU_CLOSE = 1e-12  # largest entry gap at which close_to reads two operators
                   # between the same spaces as equal
TAU_CORNER = 1e-15  # largest rounding (a few ulps of 1) below eps of a positive
                    # corner distance still read as eps; that only adds far points
TAU_RISE = 1e-13  # smallest two-sided rise of a sampled l_p^2 maximum, relative to
                 # max(1, its value), read as a local maximum, not rounding noise
TAU_SECULAR = 1e-12  # added to the exact far-set maximum g on l_2^n before the
                     # delta levels: it covers the rounding of the SVD, the
                     # eigh and the secular solve, so rounding only shrinks delta

LP2_SEARCH_POINTS = 4096  # equispaced parameters of [0, pi) in the l_p^2 maximum search


@dataclass(frozen=True)
class OperatorMatrix:
    """An m x n real matrix between declared l_p spaces; NaN and infinite
    entries are refused."""

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
        self._seal(m)

    def _seal(self, m: np.ndarray):
        _check_finite(m, "entries")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def _result(self, m: np.ndarray) -> "OperatorMatrix":
        """The operator of this pair whose entries are the fresh float
        array `m` of an arithmetic result: no copy and no shape check."""
        out = object.__new__(OperatorMatrix)
        object.__setattr__(out, "domain", self.domain)
        object.__setattr__(out, "codomain", self.codomain)
        out._seal(m)
        return out

    def apply(self, x) -> np.ndarray:
        return self.entries @ np.asarray(x, dtype=float)

    def image_norms(self, X) -> np.ndarray:
        """||Tx|| in the codomain for each row x of X, an array of shape
        (rows, domain.n); other shapes are refused.  The images are
        computed coordinate-major, shape (codomain.n, rows), and fresh, so
        the norm reduces across their coordinates in place."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.domain.n:
            raise MixedSpacesError(
                f"sample shape {X.shape} does not fit the {self.entries.shape[0]} x "
                f"{self.entries.shape[1]} matrix, which needs rows of {self.domain.n} entries"
            )
        return pnorm_into(self.entries @ X.T, self.codomain.pf, 0)

    def __add__(self, other):
        self._check_same(other)
        return self._result(self.entries + other.entries)

    def __sub__(self, other):
        self._check_same(other)
        return self._result(self.entries - other.entries)

    def __mul__(self, c):
        return self._result(self.entries * float(c))

    __rmul__ = __mul__

    def _check_same(self, other):
        # a tuple compares its items by identity first
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise MixedSpacesError("operators between different space pairs")

    def close_to(self, other) -> bool:
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and bool(np.allclose(self.entries, other.entries, atol=TAU_CLOSE, rtol=0.0))
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

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """The faces' rows in `polyhedral_table(space)`, read-only, found
        once; `attainment_set` sets its mask's rows here."""
        rows = polyhedral_table(self.space).rows
        return _read_only(np.array([rows[f.pattern] for f in self.faces], dtype=np.intp))

    @functools.cached_property
    def _patterns(self) -> np.ndarray:
        """The faces' sign patterns, one int8 row each, read-only."""
        P = np.array([f.pattern for f in self.faces], dtype=np.int8)
        return _read_only(P.reshape(len(self.faces), self.space.n))

    def distance_to(self, X) -> np.ndarray:
        """Distance in the domain norm from each row of X to the set."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "faces":
            D = face_distances(self.space, self._patterns, X)
            return D.min(axis=0, initial=np.inf)
        out = np.full(len(X), np.inf)
        if self.kind == "points":
            # points sets live on 2-D domains: X - q by columns
            for q in self.points:
                np.minimum(out, pnorm_into(X.T - q[:, None], self.space.pf, 0), out=out)
        elif self.basis.shape[1]:
            # the nearest point of S_X /\ H_0 to x is the normalised
            # projection: distance sqrt(||x||^2 + 1 - 2 ||Q^T x||); two
            # scratch rows, as a fresh array per step made a repeated l_2^3
            # certificate at resolution 16384 about 10 % slower
            tmp, qx = np.empty(len(X)), np.zeros(len(X))
            out.fill(1.0)
            for x in X.T:
                out += np.multiply(x, x, out=tmp)
            for q in self.basis.T:
                np.matmul(X, q, out=tmp)
                qx += np.multiply(tmp, tmp, out=tmp)
            out -= np.multiply(np.sqrt(qx, out=qx), 2.0, out=qx)
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
            return self._patterns.astype(float)
        if self.subspace_dim > 1:
            return None
        return np.concatenate([self.basis.T, -self.basis.T])

    def representative_points(self) -> np.ndarray:
        """Unit vectors representing the set, one row each."""
        if self.kind == "faces":
            table = polyhedral_table(self.space)
            patterns = self._patterns
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


def attainment_equal(a: AttainmentSet, b: AttainmentSet) -> bool:
    """Whether two attainment sets describe the same subset of the sphere,
    up to TAU_ATTAIN_EQ."""
    if a.space != b.space:
        return False
    if a.kind == "faces" and b.kind == "faces":
        # the sets of one attained-face mask share its faces tuple
        return a.faces is b.faces or {f.pattern for f in a.faces} == {f.pattern for f in b.faces}
    if a.kind == "subspace" and b.kind == "subspace":
        if a.subspace_dim != b.subspace_dim:
            return False
        P = a.basis @ a.basis.T
        Q = b.basis @ b.basis.T
        return bool(np.abs(P - Q).max() < TAU_ATTAIN_EQ)
    # points, or mixed representations: mutual representative distances
    ra, rb = a.representative_points(), b.representative_points()
    return bool(a.distance_to(rb).max() < TAU_ATTAIN_EQ and b.distance_to(ra).max() < TAU_ATTAIN_EQ)


def _refined_maxima(t: np.ndarray, h: np.ndarray, f):
    """Refinement of the local maxima of a pi-periodic objective sampled as
    h at the equispaced parameters t of [0, pi).

    `f` evaluates the objective on an array of parameters.  One zoom_max
    call refines every kept grid maximum on its +/- one grid step bracket.
    Returns the refined (theta mod pi, value) pairs and the largest value.
    """
    # g[i] = h[i] - h[i - 1], cyclically, so h[i] - h[i + 1] = -g[i + 1]
    n = len(h)
    g = np.empty(n + 1)
    np.subtract(h[1:], h[:-1], out=g[1:n])
    g[0] = g[n] = h[0] - h[-1]
    # plateaus (constant stretches, up to rounding noise) contribute one
    # candidate at most, via the global argmax; otherwise require a rise
    # above the floating-point noise floor on the two sides combined
    rise = g[:n] - g[1:]
    keep = (g[:n] >= 0.0) & (g[1:] <= 0.0) & (rise > TAU_RISE * np.maximum(1.0, h))
    keep[np.argmax(h)] = True
    x, v = zoom_max(f, t[keep], math.pi / len(t), TAU_OPT)
    return list(zip((x % math.pi).tolist(), v.tolist())), float(v.max())


@functools.lru_cache(maxsize=32)
def _lp2_grid(p):
    """Read-only (LP2_SEARCH_POINTS parameters t of [0, pi), their l_p
    circle points) of the l_p^2 maximum search, shared by every operator on
    the space.  The points are Fortran-ordered, so `image_norms`
    multiplies by a C-contiguous transpose."""
    t = np.linspace(0.0, math.pi, LP2_SEARCH_POINTS, endpoint=False)
    pts = np.asfortranarray(lp_circle(p, t))
    t.setflags(write=False)
    pts.setflags(write=False)
    return t, pts


@functools.cache
def pair_geometry(domain: SpaceSpec, codomain: SpaceSpec) -> str:
    """The geometry whose kernels serve operators from `domain` to
    `codomain`, decided once per pair: "polyhedral" on l_1^n and l_inf^n
    domains (vertex maximum or its closed form, faces, exact corner
    certificate), "hilbert" on
    l_2^n -> l_2^m (SVD, subspace, sampled), "lp2" on other 2-D domains
    (the l_p^2 search, points, sampled).  Other pairs are refused."""
    if domain.polyhedral:
        return "polyhedral"
    if domain.hilbert and codomain.hilbert:
        return "hilbert"
    if domain.n == 2:
        return "lp2"
    raise UnsupportedPairError(
        f"no geometry covers {domain} -> {codomain}: the domain must be l_1^n, "
        f"l_inf^n or 2-D, or l_2^n with an l_2^m codomain"
    )


def _lp2_local_maxima(T: OperatorMatrix):
    """Grid + zoom refinement of ||T gamma(t)|| on the l_p circle of the
    2-D domain."""
    t, pts = _lp2_grid(T.domain.p)
    # float exponents: the same norms, without Fraction arithmetic per level
    p, q, E = T.domain.pf, T.codomain.pf, T.entries.T

    def f(theta):
        # the matmul's output is fresh, so the norm takes it as scratch
        return pnorm_into(lp_circle(p, theta) @ E, q, -1)

    return _refined_maxima(t, T.image_norms(pts), f)


class _Analysis:
    """The norm memo's entry: `value`, ||T||; `data`, the geometry's raw
    analysis: the row of the first maximising vertex in
    `PolyhedralTable.vertices` (polyhedral), (s, Vt) of the SVD, read-only
    (hilbert), or the l_p^2 search's refined (theta, value) candidates as
    a tuple (lp2); `witness` and `mset`, op_norm's Point and
    attainment_set's AttainmentSet, None until first asked for, then kept,
    read-only, and returned by every hit."""

    __slots__ = ("value", "data", "witness", "mset")

    def __init__(self, value: float, data):
        self.value, self.data, self.witness, self.mset = value, data, None, None


@functools.lru_cache(maxsize=8)
def _norm_analysis(raw: bytes, shape: tuple, domain: SpaceSpec, codomain: SpaceSpec) -> _Analysis:
    """The raw norm analysis of the operator with C-ordered float entries
    `raw` of `shape`, memoised on that content and the two spaces.

    Eight entries hold the operators of one call chain (T, A and T - A of
    a certificate), not a list of operators: a loop over more than eight
    operators computes each afresh.  A hit returns the very entry the miss
    made, so every caller keeps its bits.
    """
    E = np.frombuffer(raw).reshape(shape)
    geometry = pair_geometry(domain, codomain)
    if geometry == "polyhedral":
        # e_1..e_n come first among the l_1^n vertices, so the first
        # maximiser is one row whether or not the columns alone are measured
        norms = _polyhedral_norms(E, domain, codomain)
        k = int(norms.argmax())
        return _Analysis(float(norms[k]), k)
    if geometry == "hilbert":
        _, s, Vt = np.linalg.svd(E)
        s.setflags(write=False)
        Vt.setflags(write=False)
        return _Analysis(float(s[0]), (s, Vt))
    candidates, best = _lp2_local_maxima(OperatorMatrix(E, domain, codomain))
    return _Analysis(best, tuple(candidates))


def _analysis(T: OperatorMatrix):
    """_norm_analysis of T."""
    return _norm_analysis(T.entries.tobytes(), T.entries.shape, T.domain, T.codomain)


def _vertex_norms(E: np.ndarray, V: np.ndarray, codomain: SpaceSpec) -> np.ndarray:
    """||Ev|| in `codomain` at every row v of V (vertices or barycentres of
    a polyhedral unit ball) for a stack E of shape (..., m, n); the result
    has shape (..., rows of V).  The images E V^T, shape (..., m, rows),
    are fresh, so the norm reduces them across their m coordinates in
    place."""
    return pnorm_into(E @ V.T, codomain.pf, -2)


def _polyhedral_norms(E: np.ndarray, domain: SpaceSpec, codomain: SpaceSpec) -> np.ndarray:
    """Image norms of a stack E of shape (..., m, n) at the vertices of the
    polyhedral `domain` ball that reach the largest, the entry of vertex
    row k of `PolyhedralTable.vertices` at k: on l_1^n with n >= 2 the
    column norms ||E e_j||, at the first n vertices, else the norms at
    every vertex.  The columns are `_vertex_norms` at e_j bit for bit: a
    product by e_j adds only zeros to E_ij, and both add the m coordinates
    in order.  On l_1^1 those would be numpy's inner loop, which adds
    pairwise from 8 terms on, so it keeps the vertex matmul."""
    if domain.pf == 1.0 and domain.n > 1:
        return pnorm_into(np.abs(E), codomain.pf, -2)
    return _vertex_norms(E, polyhedral_table(domain).vertices, codomain)


def op_norm(T: OperatorMatrix) -> tuple[float, Point]:
    """Operator norm sup ||Tx|| over the unit sphere, with a witness, by
    the kernel of the pair's geometry, memoised per operator: the vertex
    maximum (the first maximising vertex is the witness), the top singular
    value, or the l_p^2 search refined by zoom_max.  The witness is built
    once per memo entry."""
    dom = T.domain
    entry = _analysis(T)
    if entry.witness is None:
        geometry = pair_geometry(dom, T.codomain)
        if geometry == "polyhedral":
            x = polyhedral_table(dom).vertices[entry.data]
        elif geometry == "hilbert":
            x = entry.data[1][0]
        else:
            x = lp_circle(dom.p, max(entry.data, key=lambda c: c[1])[0])
        entry.witness = Point(x, dom)
    return entry.value, entry.witness


def _norm_value(T: OperatorMatrix) -> float:
    """op_norm(T)[0], read off the memo entry without building the witness."""
    return _analysis(T).value


def op_norms(E, domain: SpaceSpec, codomain: SpaceSpec) -> np.ndarray:
    """op_norm(...)[0] of every matrix of a stack E of shape (..., m, n),
    bit for bit, in shape (...), by `_stacked_norms`: a closed form on
    l_1^n domains and on l_inf^n -> l_inf^m, else one vertex matmul, one
    stacked SVD or op_norm per matrix.  Non-finite entries are refused."""
    E = np.asarray(E, dtype=float)
    if E.ndim < 2 or E.shape[-2:] != (codomain.n, domain.n):
        raise MixedSpacesError(
            f"stack shape {E.shape} does not end in {codomain.n} x {domain.n}"
        )
    if not np.isfinite(E).all():
        raise NonFiniteError("entries must be finite")
    return _stacked_norms(E, domain, codomain, pair_geometry(domain, codomain))


def _stacked_norms(E: np.ndarray, domain: SpaceSpec, codomain: SpaceSpec, geometry: str):
    """op_norms of a finite float stack E between spaces of `geometry`,
    unchecked.  Polyhedral pairs take the closed form the ball gives, with
    op_norm's bits: the largest row l_1 sum on l_inf^n -> l_inf^m with
    m >= 2, the largest column norm on l_1^n with n >= 2, else one vertex
    matmul (`_polyhedral_norms`).  The row sums add in column order, as
    the vertex matmul does at the row's sign vector, where E_ij v_j =
    |E_ij|: numpy's row sum adds pairwise from 8 terms on, so they are
    the column sums of a C-ordered transpose.  On l_inf^n -> l_inf^1 the
    one-row matmul is a matrix-vector product, whose BLAS kernel adds in
    another order (the last bit differs from n = 4 on), so that pair
    keeps the vertex matmul.  Hilbert pairs take one stacked SVD (with
    vectors: op_norm's LAPACK routine), l_p^2 pairs op_norm per matrix."""
    if geometry == "polyhedral":
        if domain.pf == INF and codomain.pf == INF and codomain.n > 1:
            rows = np.abs(E.reshape(-1, domain.n).T, order="C").sum(axis=0)
            return rows.reshape(E.shape[:-1]).max(axis=-1)
        return _polyhedral_norms(E, domain, codomain).max(axis=-1)
    if geometry == "hilbert":
        return np.linalg.svd(E)[1][..., 0]
    flat = E.reshape(-1, codomain.n, domain.n)
    norms = [op_norm(OperatorMatrix(M, domain, codomain))[0] for M in flat]
    return np.array(norms).reshape(E.shape[:-2])


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


def _attaining_faces(E: np.ndarray, values, domain: SpaceSpec, codomain: SpaceSpec) -> np.ndarray:
    """H[..., f]: whether the operator of the stack E, shape (..., m, n),
    with norm values[...] attains on face f of the polyhedral `domain`, in
    `PolyhedralTable.patterns` order.

    ||E.|| is convex and at most ||E|| on the ball, so it reaches ||E|| at
    a face's barycentre iff it is constant on the whole face; the test is
    ||E b|| >= ||E|| (1 - TAU_EQ) at the barycentre b.
    """
    B = polyhedral_table(domain).barycentres
    return _vertex_norms(E, B, codomain) >= np.asarray(values)[..., None] * (1.0 - TAU_EQ)


_HOLDER_ROWS = 256  # hit faces per block when _mask_faces counts holders
_MASKS_KEPT = 64  # attained-face masks whose maximal faces _mask_faces keeps


def _maximal_faces(T: OperatorMatrix, value: float) -> tuple:
    """The maximal faces of M_T on a polyhedral domain, ||T|| = value:
    `_mask_faces` of the faces T attains on."""
    hit = _attaining_faces(T.entries, value, T.domain, T.codomain)
    return _mask_faces(T.domain, hit.tobytes())


@functools.lru_cache(maxsize=_MASKS_KEPT)
def _mask_faces(space: SpaceSpec, mask: bytes) -> tuple:
    """(faces, rows) of the maximal faces among those the boolean `mask`,
    over the `PolyhedralTable.patterns` rows of `space`, marks: the
    `PolyhedralTable.faces` objects in row order and their rows, read-only.

    Memoised on the mask's bytes, not on Face objects, so the operators
    that attain on the same faces share one result.  An entry holds a key
    of 3^n - 1 bytes and 16 bytes per maximal face (a tuple slot and an
    intp row; the Face objects are the table's), and at most every face
    is maximal: 112 KB an entry on l_inf^8 at worst, 7.1 MB for the
    _MASKS_KEPT entries, and under 0.5 KB an entry up to n = 3.
    """
    table = polyhedral_table(space)
    hit = np.flatnonzero(np.frombuffer(mask, dtype=bool))
    # a hit face is maximal when the only hit face holding it is itself;
    # the holders are counted _HOLDER_ROWS hit faces at a time, so the
    # containment grid has _HOLDER_ROWS rows, not one per hit face
    codes = table.codes[hit]
    holders = np.zeros(len(hit), dtype=np.intp)
    for i in range(0, len(hit), _HOLDER_ROWS):
        holders += code_containment(space, codes[i:i + _HOLDER_ROWS, None], codes).sum(axis=0)
    rows = _read_only(hit[holders == 1])
    return tuple(table.faces[i] for i in rows.tolist()), rows


def orthogonal_complement(Q: np.ndarray) -> np.ndarray:
    """An orthonormal basis, one column each, of the orthogonal complement
    of the span of the orthonormal columns of Q."""
    n, k = Q.shape
    full, _ = np.linalg.qr(np.concatenate([Q, np.eye(n)], axis=1))
    return full[:, k:n]


def attainment_set(T: OperatorMatrix, check=None) -> AttainmentSet:
    """The norm attainment set M_T in the exact form of the pair's
    geometry: the maximal faces whose barycentre attains, the right singular
    subspace of the top singular value (gap TAU_GAP), or the refined point
    pairs of op_norm's search, all read from op_norm's memo entry, which
    keeps the set, read-only, once built.  `check`, when given, is called
    with ||T|| before anything else is decided from it."""
    entry = _analysis(T)
    value = entry.value
    if check is not None:
        check(value)
    if value <= 0.0:
        raise ZeroOperatorError("the zero operator attains nothing")
    if entry.mset is None:
        entry.mset = _build_attainment_set(T, entry)
    return entry.mset


def top_singular_dim(s: np.ndarray) -> int:
    """dim H_0: how many of the descending singular values s lie within
    TAU_GAP * max(s[0], 1) of the largest."""
    return int(np.count_nonzero(s >= s[0] - TAU_GAP * max(s[0], 1.0)))


def _build_attainment_set(T: OperatorMatrix, entry: _Analysis) -> AttainmentSet:
    """attainment_set's set, from T's memo entry, its arrays read-only."""
    dom, value = T.domain, entry.value
    geometry = pair_geometry(dom, T.codomain)
    if geometry == "polyhedral":
        faces, rows = _maximal_faces(T, value)
        M = AttainmentSet("faces", value, dom, faces=faces)
        object.__setattr__(M, "_rows", rows)  # the mask's, so no set looks them up
        return M
    if geometry == "hilbert":
        s, Vt = entry.data
        return AttainmentSet("subspace", value, dom, basis=_read_only(Vt[:top_singular_dim(s)].T.copy()))
    pts = []
    for tt, v in entry.data:
        if v >= value * (1.0 - TAU_EQ):
            x = lp_circle(dom.p, tt)
            if not pts or pnorm(np.array(pts) - x, dom.p, axis=1).min() > TAU_DEDUP:
                pts.append(x)
    pts = pts + [-x for x in pts]
    return AttainmentSet("points", value, dom, points=_read_only(np.array(pts)))


def norm_one_attainment_set(T: OperatorMatrix, what: str, error=NormNotOneError) -> AttainmentSet:
    """attainment_set(T), refused with `error` naming `what` before the set
    is built when ||T|| is not 1 within TAU_NORM_ONE, the zero operator
    included."""
    return attainment_set(T, check=lambda value: check_norm_one(value, what, error))


def _orthonormal_norm(T: OperatorMatrix, Q: np.ndarray) -> float:
    """restricted_norm(T, Q) of a Hilbert pair for Q with orthonormal
    columns, which needs neither the rank test nor the QR."""
    return float(np.linalg.svd(T.entries @ Q, compute_uv=False)[0]) if Q.shape[1] else 0.0


def restricted_norm(T: OperatorMatrix, basis) -> float:
    """sup ||Tz|| over unit vectors of the subspace spanned by basis columns."""
    B = np.asarray(basis, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape[0] != T.domain.n:
        raise MixedSpacesError("basis does not live in the domain")
    _check_finite(B, "basis")
    if B.shape[1] == 0:
        return 0.0
    if np.linalg.matrix_rank(B, tol=TAU_RANK) < B.shape[1]:
        raise DegenerateBasisError("basis columns are linearly dependent")
    dom = T.domain
    if dom.hilbert and T.codomain.hilbert:
        return _orthonormal_norm(T, np.linalg.qr(B)[0])
    if B.shape[1] == 1:
        b = B[:, 0]
        return float(pnorm(T.apply(b), T.codomain.p) / pnorm(b, dom.p))
    if B.shape[1] == 2:
        b1, b2 = B[:, 0], B[:, 1]

        def f(theta):
            V = np.cos(theta)[..., None] * b1 + np.sin(theta)[..., None] * b2
            return pnorm(V @ T.entries.T, T.codomain.p) / pnorm(V, dom.p)

        t = np.linspace(0.0, math.pi, 2048, endpoint=False)
        return _refined_maxima(t, f(t), f)[1]
    raise UnsupportedSpaceError("restricted norm supports dim(Z) <= 2 off Hilbert space")


def is_smooth_operator(T: OperatorMatrix) -> bool:
    """True iff M_T is a single +/- pair and the image of the attaining
    direction is a smooth point of the codomain."""
    P = attainment_set(T).finite_points()
    if P is None or len(P) != 2:
        return False
    return is_smooth_point(Point(T.apply(P[0]), T.codomain))
