"""Certificate engine for attainment-aware approximation.

Verifies or falsifies that every near-norming point of T lies within eps
of a norming point of A (exactly on l_1^n, l_inf^n and l_2^n, n >= 3);
computes isolation witnesses, the rigidity constant for 2-D l_p spaces,
Hilbert necessary-condition reports, and pair-level sweeps.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import approximants as apx
from .classify import enumerate_extreme_linf3_l13, is_isometry
from .errors import (
    BadExponentError,
    BpbLabError,
    IsIsometryError,
    NonFiniteError,
    UnsupportedPairError,
    UnsupportedSpaceError,
    WrongSpacesError,
)
from .operators import (
    TAU_ANGLE,
    TAU_CORNER,
    TAU_SAME,
    TAU_VANISH,
    OperatorMatrix,
    _attaining_faces,
    _orthonormal_norm,
    _stacked_norms,
    attainment_set,
    check_norm_one,
    norm_one_attainment_set,
    op_norm,
    orthogonal_complement,
    pair_geometry,
    require_norm_one,
)
from .sampling import corner_points, sphere_grid
from .slemma import HilbertSupplier
from .spaces import (
    ARC_TABLE_SIZE,
    INF,
    Point,
    SpaceSpec,
    _arc_table,
    _arc_table_rows,
    _arc_witness_table,
    _check_int,
    arc_length_constant,
    arc_length_total,
    face_distances,
    l1,
    l2,
    linf,
    pnorm_into,
    polyhedral_table,
)


DEFAULT_RESOLUTION = 4096  # a certificate's sphere-grid sample where it is not exact

_scratch = threading.local()
_SAMPLE_BUFFERS_KEPT = 8


def _sample_buffers(space: SpaceSpec, resolution: int, cols: int):
    """This thread's arrays for verifying on the grid of `space` at
    `resolution` with a codomain of dimension `cols`, kept from call to call.

    `sample`, shape (rows, space.n) and Fortran-ordered, holds the grid and
    one free last row for T's norming vector; `images`, shape (cols, rows)
    and C-ordered, holds their images coordinate by coordinate, so that a
    norm reduces across `cols` contiguous rows; `norms` holds the image
    norm of every row.  At resolution 16384 each array is 0.13-0.4 MB.
    Allocated afresh per call, such blocks go back to the kernel whenever
    glibc trims the heap, which depends on what was allocated before the
    call, and the next call faults every page in again, hundreds of page
    faults per call.
    """
    buffers = _scratch.__dict__.setdefault("samples", {})
    key = (space, resolution, cols)
    if key not in buffers:
        if len(buffers) == _SAMPLE_BUFFERS_KEPT:
            del buffers[next(iter(buffers))]
        grid = sphere_grid(space, resolution)
        rows = len(grid) + 1
        # column-major: the distance kernels read the sample a column at a time
        sample = np.empty((rows, space.n), order="F")
        sample[:-1] = grid
        buffers[key] = (sample, np.empty((cols, rows)), np.empty(rows))
    return buffers[key]


@dataclass(frozen=True)
class BpbCertificate:
    """Verdict for an approximation triple (T, A, eps): `basis` "exact" on
    l_1^n and l_inf^n, and on l_2^n -> l_2^m (n >= 3) when dim M_A is 1,
    n - 1 or n (every l_2^3 pair), where `resolution` has no effect, else
    "sampled".

    `worst_distance` is the largest distance to M_A among the points z
    with ||Tz|| above the level that decided, 1 - delta_found when
    certified and 1 - DELTA_LAST when falsified; `counterexample` is a
    point at least eps from M_A when falsified, else None.  With
    ||T - A|| >= eps no descent runs: inf and None.
    - "sampled": the points are the sphere grid and T's norming vector,
      and the counterexample is the row that attains the worst distance.
    - "exact" on l_2^n: the value is the exact supremum over the unit z
      with ||Tz|| at or above the level, from the same secular solve as
      g (`slemma`), and the counterexample is the maximiser of ||Tz||
      among the points at least eps from M_A.
    - "exact" on l_1^n and l_inf^n: the points are the corner set, their
      distances read off the cached corner table of (space, eps), where a
      distance within TAU_CORNER below eps reads as eps.  The corners hold
      a maximiser of ||Tz|| among the points at least eps from M_A, not
      one of the distance: the value is a lower bound that can lie far
      below the supremum.  T = I and A = diag(1, 0.9) on l_inf^2 at eps
      0.2 report 0.2, yet z = (0, -1) has ||Tz|| = 1 and lies 1.0 from
      M_A.
    """

    status: str  # "certified", "falsified"
    eps: float
    delta_found: Optional[float]
    resolution: int
    worst_distance: float
    counterexample: Optional[Point]
    operator_distance: float
    basis: str = "sampled"

    @property
    def certified(self) -> bool:
        return self.status == "certified"


# The last level of the delta grid 1/2, 1/4, ... (times the norm), the
# least 2^-k >= 1e-6.  It decides the whole grid: a largest image norm g
# among the rows not below eps passes some level iff it passes this one,
# g <= top - top*DELTA_LAST, and a failed descent names a row above it.
DELTA_LAST = 2.0 ** -19


def _delta_level(g: float, top: float) -> Optional[float]:
    """The first delta of top/2, top/4, ... down to top*DELTA_LAST with
    g <= top - delta, None when g > top - top*DELTA_LAST."""
    if g > top - top * DELTA_LAST:
        return None
    delta = top / 2.0
    while g > top - delta:
        delta /= 2.0
    return delta


def delta_descent(norms, dists, top: float, eps: float):
    """The geometric delta descent of the uniform inclusion test.

    Sample row i has image norm norms[i] and distance dists[i] to the
    target set, neither NaN.  Returns (delta, worst distance, None) for
    the first delta of top/2, top/4, ... down to top*DELTA_LAST whose rows
    with norms > top - delta all lie below eps; else (None, its distance,
    index) of the farthest row with norms > top - top*DELTA_LAST, which
    lies at least eps from the set.

    A delta fails iff some row not below eps has norms > top - delta, that
    is iff g, the largest norm among those rows, exceeds top - delta; so
    one masked maximum decides every level of the grid (`_delta_level`).
    The masks go through np.where and a boolean index: max(where=) took
    1.1-2 times as long on the l_2^3 grid at resolution 16384.
    """
    g = float(np.where(dists >= eps, norms, -np.inf).max())
    delta = _delta_level(g, top)
    if delta is None:
        idx = int(np.argmax(np.where(norms > top - top * DELTA_LAST, dists, -np.inf)))
        return None, float(dists[idx]), idx
    return delta, float(dists[norms > top - delta].max(initial=-np.inf)), None


class _Sample(NamedTuple):
    """The T side of the inclusion test: the rows z, their norms ||Tz||,
    the `_CornerTable` whose corners the rows are (else None: `distance_to`
    measures the rows), the certificate's `basis`, and on l_2^n (n >= 3)
    T's `HilbertSupplier`, which decides every attainment set it covers
    (no rows on n = 3)."""

    rows: Optional[np.ndarray]
    norms: Optional[np.ndarray]
    table: Optional[_CornerTable]
    basis: str
    hilbert: Optional[HilbertSupplier] = None


def _sample(
    T: OperatorMatrix,
    witness: Optional[Point],
    resolution: int,
    table: Optional[_CornerTable],
) -> _Sample:
    """The sample of T's geometry.  With `table`, `_exact_table(T, eps)`:
    its corners at eps, which hold every vertex ("exact").  On l_2^n ->
    l_2^m with n >= 3, T's `HilbertSupplier` ("exact"); it covers every
    attainment set on n = 3, and on n >= 4 the grid below stands by for
    those of dimension 2 to n - 2.  Else this thread's sphere grid at
    `resolution` with T's norming vector `witness` last, its norms in
    this thread's norms row ("sampled")."""
    if table is not None:
        return _Sample(table.corners, T.image_norms(table.corners), table, "exact")
    hilbert = None
    if T.domain.n >= 3 and pair_geometry(T.domain, T.codomain) == "hilbert":
        hilbert = HilbertSupplier(T)
        if T.domain.n == 3:
            return _Sample(None, None, None, "exact", hilbert)
    X, images, norms = _sample_buffers(T.domain, resolution, T.codomain.n)
    X[-1] = witness.coords
    pnorm_into(np.matmul(T.entries, X.T, out=images), T.codomain.pf, 0, norms)
    return _Sample(X, norms, None, "sampled", hilbert)


def _far_from(eps: float) -> float:
    """The least corner distance read as eps, as a corner at exactly eps
    may compute just below it: eps - TAU_CORNER, above 0."""
    return max(eps - TAU_CORNER, math.ulp(0.0))


_CORNER_DISTANCES_KEPT = 2 ** 16  # distances a _CornerTable keeps from call to call


class _CornerTable:
    """The corners of `corner_points(space, eps)` and their distances to
    the faces of the ball, read by face row in `polyhedral_table(space)`
    order, a distance in [`_far_from(eps)`, eps) read as eps.  The rule
    is monotone, so it commutes with the least entry over the faces of M:
    that is the corner's distance to M read by the rule, bit for bit.

    A face's row is measured when first read, and the newest rows are
    kept while they hold at most _CORNER_DISTANCES_KEPT distances (512
    KB): every face of l_1^3 and l_inf^3, one row of the 65,280 corners
    of l_inf^8.  So a call holds the rows of the faces it reads, not one
    row per face of the ball (3^n - 1 rows of up to 4^n - 2^n corners on
    l_inf^n).
    """

    def __init__(self, space: SpaceSpec, eps: float):
        self.space, self.eps = space, eps
        self.corners = corner_points(space, eps)
        self._kept = {}
        self._rows_kept = _CORNER_DISTANCES_KEPT // len(self.corners)
        self._lock = threading.Lock()

    def rows(self, faces) -> np.ndarray:
        """D[k, i]: the read distance from corner i to the face of row
        faces[k]."""
        with self._lock:
            kept = self._kept
            got = {f: kept[f] for f in faces if f in kept}
            new = [f for f in dict.fromkeys(faces) if f not in got]
            if new:
                patterns = polyhedral_table(self.space).patterns[new]
                D = face_distances(self.space, patterns, self.corners)
                np.copyto(D, self.eps, where=(D < self.eps) & (D >= _far_from(self.eps)))
                got.update(zip(new, D))
                for f in new[max(len(new) - self._rows_kept, 0):]:
                    kept[f] = got[f].copy()
                while len(kept) > self._rows_kept:
                    del kept[next(iter(kept))]
            return np.array([got[f] for f in faces])


# one table per (space, eps), for every operator, as corner_points
_corner_table = lru_cache(maxsize=64)(_CornerTable)


def _exact_table(T: OperatorMatrix, eps: float) -> Optional[_CornerTable]:
    """`_corner_table` of T's domain at eps on a polyhedral pair, else
    None.  Each certificate entry asks it once, before any norm, and
    passes it to `_sample`, so a polyhedral domain without corner set
    (l_1^n, n >= 4) is refused up front, with UnsupportedPairError naming
    the pair."""
    if pair_geometry(T.domain, T.codomain) != "polyhedral":
        return None
    try:
        return _corner_table(T.domain, eps)
    except UnsupportedSpaceError as exc:
        raise UnsupportedPairError(
            f"no exact certificate for {T.domain} -> {T.codomain}: {exc}"
        ) from None


def _descent(M, top: float, eps: float, sample: _Sample):
    """The delta descent of the T-side `sample`, whose image norms peak at
    `top`, against the attainment set M: (delta, worst distance,
    counterexample Point or None, basis).  When T's `HilbertSupplier`
    covers M, the exact g of its far set takes the levels; on "exact"
    polyhedral rows a row's distance is the least of its entries in the
    table rows of M's faces."""
    profile = None if sample.hilbert is None else sample.hilbert.profile(M)
    if profile is not None:
        delta = _delta_level(profile.far_maximum(eps), top)
        if delta is None:
            worst = profile.worst_distance(top - top * DELTA_LAST)
            return None, worst, profile.far_point(eps), "exact"
        return delta, profile.worst_distance(top - delta), None, "exact"
    if sample.table is None:
        dists = M.distance_to(sample.rows)
    else:
        rows = polyhedral_table(M.space).rows
        dists = sample.table.rows([rows[f.pattern] for f in M.faces]).min(axis=0)
    delta, worst, idx = delta_descent(sample.norms, dists, top, eps)
    z = None if idx is None else Point(sample.rows[idx], M.space)
    return delta, worst, z, sample.basis


def _inclusion_certificate(MA, dist: float, eps: float, resolution: int, sample) -> BpbCertificate:
    """The A side of the inclusion test: the delta descent of the T-side
    `sample` against the attainment set MA of A, when `dist`, ||T - A||,
    is below eps; else falsified with no descent."""
    if dist < eps:
        delta, worst, z, basis = _descent(MA, 1.0, eps, sample)
    else:
        delta, worst, z, basis = None, math.inf, None, sample.basis
    status = "falsified" if delta is None else "certified"
    return BpbCertificate(status, eps, delta, resolution, worst, z, dist, basis)


@dataclass(frozen=True)
class DeltaSearch:
    """Outcome of the delta(eps) grid descent of the inclusion test."""

    succeeded: bool
    delta: Optional[float]
    counterexample: Optional[Point]
    resolution: int


def delta_for_epsilon(
    T: OperatorMatrix, eps: float, resolution: int = DEFAULT_RESOLUTION
) -> DeltaSearch:
    """Largest grid delta with M_T(delta) inside eps-balls of M_T.

    The delta grid is geometric, ||T||*2^-k down to ||T||*DELTA_LAST, and
    the sample is that of `verify_uniform_bpb`, with a point of M_T on
    the grid.  On failure the counterexample has ||Tz|| >
    ||T||(1 - DELTA_LAST) and lies at least eps from M_T: the farthest
    such sample on the grid, the maximiser of ||Tz|| over the points at
    least eps from M_T on the exact l_2^n path.  eps must be finite and positive and
    resolution an integer of at least 0.
    """
    resolution = _check_int(resolution, "resolution", 0)
    apx._check_eps(eps, hi=math.inf)
    table = _exact_table(T, eps)  # refuses before any norm
    M = attainment_set(T)
    # the set's first row, not op_norm's witness (another of its points on
    # l_p^2), keeps the sample's bits
    witness = None if table is not None else Point(M.representative_points()[0], T.domain)
    delta, _, z, _ = _descent(M, M.value, eps, _sample(T, witness, resolution, table))
    return DeltaSearch(delta is not None, delta, z, resolution)


def verify_uniform_bpb(
    T: OperatorMatrix, A: OperatorMatrix, eps: float, resolution: int = DEFAULT_RESOLUTION
) -> BpbCertificate:
    """Certify or falsify the uniform inclusion property.

    Requires ||T-A|| < eps; then descends a geometric delta grid looking for
    the largest delta such that every sampled z with ||Tz|| > 1 - delta lies
    within eps of the attainment set of A.  The verdict is exact on l_1^n
    and l_inf^n, whose sample is the corner set, and on l_2^n (n >= 3),
    where `slemma` computes the far set's maximum of ||Tz||; else the
    sample is the sphere grid at `resolution` plus the norming vector of
    T, so no delta is certified on an empty set.  eps must be finite and
    positive and resolution an integer of at least 0.
    """
    resolution = _check_int(resolution, "resolution", 0)
    apx._check_eps(eps, hi=math.inf)
    table = _exact_table(T, eps)  # refuses before any norm
    _, witness = require_norm_one(T, "T")
    MA = norm_one_attainment_set(A, "A")
    dist, _ = op_norm(T - A)
    sample = _sample(T, witness, resolution, table)
    return _inclusion_certificate(MA, dist, eps, resolution, sample)


@dataclass(frozen=True)
class OnlyApproximationResult:
    """Outcome of the randomized search for a nontrivial approximant."""

    found: bool
    trials: int
    counterexample: Optional[OperatorMatrix] = None
    certificate: Optional[BpbCertificate] = None


HALVINGS = 60      # scalings t = eps/2, eps/4, ... tried per random direction
TRIAL_BLOCK = 64   # trials of is_only_approximation searched in lockstep


def _halving_search(T: OperatorMatrix, D: np.ndarray, eps: float):
    """For each direction D[i], the first t of eps/2, eps/4, ... (HALVINGS
    of them) whose normalised T + tD[i] lies within eps of T, all directions
    in lockstep: two stacked norm kernels per halving over the still-open
    directions, the pair's geometry decided once.  Returns the candidates,
    their distances ||T - A|| and which directions found one.  A candidate
    with non-finite entries, or of norm 0, is refused with NonFiniteError,
    as op_norms refused it."""
    dom, cod = T.domain, T.codomain
    geometry = pair_geometry(dom, cod)
    cands, dists = np.empty_like(D), np.empty(len(D))
    found = np.zeros(len(D), dtype=bool)
    open_ = np.arange(len(D))
    t = eps / 2.0
    # T + sD lies between T and T + tD for 0 < s < t, so the first
    # candidates are finite iff all are
    if not np.isfinite(T.entries + t * D).all():
        raise NonFiniteError("entries must be finite")
    for _ in range(HALVINGS):
        C = T.entries + t * D[open_]
        norms = _stacked_norms(C, dom, cod, geometry)
        if not norms.all():
            raise NonFiniteError("entries must be finite: a candidate T + tD is 0")
        C /= norms[:, None, None]
        d = _stacked_norms(T.entries - C, dom, cod, geometry)
        hit = d < eps
        done = open_[hit]
        cands[done], dists[done], found[done] = C[hit], d[hit], True
        open_ = open_[~hit]
        if not open_.size:
            break
        t /= 2.0
    return cands, dists, found


def _polyhedral_screen(C: np.ndarray, dom: SpaceSpec, cod: SpaceSpec, sample: _Sample):
    """||A|| of every candidate A of the stack C on a polyhedral domain, and
    whether `_inclusion_certificate` certifies A against the T-side
    `sample` when ||A|| is 1, decided without building an attainment set.

    A attains on the faces `_attaining_faces` names, as in
    `attainment_set`.  A face is no farther from a point than its
    subfaces, so a row lies near M_A iff it lies near one of these faces,
    maximal or not: the sample's corner table, over the faces some
    candidate attains on, gives each candidate's g, the largest image
    norm among the rows not near, and A certifies iff g passes some level
    of the delta grid, g <= 1 - DELTA_LAST.
    """
    values = _stacked_norms(C, dom, cod, "polyhedral")
    hit = _attaining_faces(C, values, dom, cod)
    used = np.flatnonzero(hit.any(axis=0))
    near = sample.table.rows(used.tolist()) < sample.table.eps
    g = np.where(hit[:, used] @ near, -np.inf, sample.norms).max(axis=1)
    return values, g <= 1.0 - DELTA_LAST


def is_only_approximation(
    T: OperatorMatrix,
    eps: float,
    trials: int,
    seed: int,
    resolution: int = 512,
) -> OnlyApproximationResult:
    """Randomized falsification of 'T is its own only approximation'.

    Samples norm-one perturbations A != T with ||T-A|| < eps and verifies
    each; the first certified A is returned as a counterexample.  Finding
    none is evidence, not proof.  eps must be finite and positive, trials
    an integer of at least 1, seed and resolution integers of at least 0.

    Trials run in blocks of TRIAL_BLOCK, one Gaussian draw per block (the
    same stream as one draw per trial), with the halving search of the
    block in lockstep and the candidates verified in trial order against
    one sample of T.  On polyhedral domains one stacked screen
    (`_polyhedral_screen`) decides every candidate of a block, and only
    the first that certifies gets its attainment set and certificate.  On
    l_p^2 domains, where op_norms loops per matrix, a block is one trial,
    so no trial past a certificate is searched.
    """
    apx._check_eps(eps, hi=math.inf)
    trials = _check_int(trials, "trials", 1)
    seed = _check_int(seed, "seed", 0)
    resolution = _check_int(resolution, "resolution", 0)
    table = _exact_table(T, eps)  # refuses before any norm
    _, witness = require_norm_one(T, "T")
    dom, cod = T.domain, T.codomain
    geometry = pair_geometry(dom, cod)
    block = 1 if geometry == "lp2" else TRIAL_BLOCK
    rng = np.random.default_rng(seed)
    sample = _sample(T, witness, resolution, table)
    for start in range(0, trials, block):
        D = rng.standard_normal((min(block, trials - start), *T.entries.shape))
        cands, dists, found = _halving_search(T, D, eps)
        idx = np.flatnonzero(found)
        if geometry == "polyhedral" and idx.size:
            values, certifies = _polyhedral_screen(cands[idx], dom, cod, sample)
        for j, i in enumerate(idx):
            if np.abs(cands[i] - T.entries).max() < TAU_SAME:
                continue
            if geometry == "polyhedral":
                check_norm_one(float(values[j]), "A")
                if not certifies[j]:
                    continue
            A = OperatorMatrix(cands[i], dom, cod)
            MA = norm_one_attainment_set(A, "A")
            cert = _inclusion_certificate(MA, float(dists[i]), eps, resolution, sample)
            if cert.certified:
                return OnlyApproximationResult(True, trials, A, cert)
    return OnlyApproximationResult(False, trials)


@dataclass(frozen=True)
class PropertyPWitness:
    """A unit vector whose ball of radius r0 misses the attainment set."""

    operator: OperatorMatrix
    x_A: Point
    r0: float


def property_p_witness(A: OperatorMatrix) -> PropertyPWitness:
    """An isolation witness (x_A, r0) with B(x_A, r0) disjoint from M_A.

    Strategies per domain: a facet interior point off the attainment faces
    (polyhedral), a free arc of a fine partition of the l_p circle
    (2-D, integer p > 2), or any unit vector of the orthocomplement of the
    attainment subspace (Hilbert, r0 = 1 exactly).
    """
    dom = A.domain
    # an isometry has norm 1, so testing for one first refuses no operator
    # that the norm-one rule would have refused
    if dom.n == A.codomain.n and dom.p == A.codomain.p and is_isometry(A):
        raise IsIsometryError("an isometry attains everywhere; no witness exists")
    MA = norm_one_attainment_set(A, "A")
    if dom.polyhedral:
        table = polyhedral_table(dom)
        # a cube facet fixes one sign, a cross-polytope facet fixes all n
        support = (table.patterns != 0).sum(axis=1)
        facets = table.barycentres[support == (1 if dom.p == INF else dom.n)]
        dists = MA.distance_to(facets)
        k = int(np.argmax(dists))
        x, d = facets[k], float(dists[k])
        if d <= 0.0:
            raise UnsupportedSpaceError("no facet interior point avoids M_A")
        return PropertyPWitness(A, Point(x, dom), d / 2.0)
    if dom.hilbert:
        if not A.codomain.hilbert:
            raise UnsupportedSpaceError("Hilbert witness needs a Hilbert codomain")
        x = orthogonal_complement(MA.basis)[:, 0]
        return PropertyPWitness(A, Point(x, dom), 1.0)
    if dom.n == 2 and dom.strictly_convex:
        p = dom.p
        if p.denominator != 1 or p <= 2:
            raise UnsupportedSpaceError("arc strategy needs integer exponent p > 2")
        K, L, mids, r0 = _arc_witness_table(p)
        s = _arc_table(p, ARC_TABLE_SIZE)[1]
        # arc-length positions of the attainment points, binned into K arcs
        rows = _arc_table_rows(p, ARC_TABLE_SIZE, MA.points)
        occupied = set(((s[rows] / (L / K)).astype(int) % K).tolist())
        free = next(a for a in range(K) if a not in occupied)
        return PropertyPWitness(A, Point(mids[free], dom), r0)
    raise UnsupportedSpaceError(f"no witness strategy for {dom}")


@dataclass(frozen=True)
class Epsilon0Report:
    """Rigidity constant of the 2-D l_p isometry group."""

    p: int
    separation: float
    delta1: float
    eps0: float


def epsilon0_lp2(p: int) -> Epsilon0Report:
    """min of the isometry separation 2^((p-1)/p) and the arc constant
    at one part in 2(16p-9) of the circle length."""
    if not isinstance(p, int) or p in (1, 2) or p < 1:
        raise BadExponentError("p must be an integer >= 3")
    L = arc_length_total(p)
    sep = 2.0 ** ((p - 1.0) / p)
    delta1 = arc_length_constant(p, L / (2.0 * (16 * p - 9)))
    return Epsilon0Report(p, sep, delta1, min(sep, delta1))


@dataclass(frozen=True)
class HilbertChecks:
    """Necessary conditions linking the attainment subspaces of T and A."""

    dims_equal: bool
    intersections_trivial: bool
    disjunction_holds: bool
    inclusion_certified: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.dims_equal
            and self.intersections_trivial
            and self.disjunction_holds
            and self.inclusion_certified
        )


def hilbert_necessary_checks(
    T: OperatorMatrix,
    A: OperatorMatrix,
    eps: float,
    resolution: int = DEFAULT_RESOLUTION,
) -> HilbertChecks:
    """Three Hilbert-space sanity checks for an approximation pair.

    (i) equal attainment dimensions and trivial cross intersections of the
    attainment subspaces; (ii) a split-norm disjunction for every
    (eps1, eps2) > 0 with eps1^2 + eps2^2 = 2.25 eps^2, decided by
    `_split_norm_disjunction`; (iii) the inclusion certificate of
    `verify_uniform_bpb`.
    resolution must be an integer of at least 0.
    """
    resolution = _check_int(resolution, "resolution", 0)
    if not (T.domain.hilbert and T.codomain.hilbert):
        raise WrongSpacesError("checks require Hilbert domain and codomain")
    H0 = attainment_set(T).basis
    H = attainment_set(A).basis
    dims_equal = H0.shape[1] == H.shape[1]
    k = min(H0.shape[1], H.shape[1])
    sv = np.linalg.svd(H0.T @ H, compute_uv=False)
    trivial = dims_equal and (len(sv) == 0 or float(sv[min(k, len(sv)) - 1]) > TAU_ANGLE)
    D = T - A
    n1 = _orthonormal_norm(D, H0)
    n2 = _orthonormal_norm(D, orthogonal_complement(H0))
    disjunction = _split_norm_disjunction(n1, n2, math.sqrt(2.25) * eps)
    cert = verify_uniform_bpb(T, A, eps, resolution=resolution)
    return HilbertChecks(dims_equal, trivial, disjunction, cert.certified)


def _split_norm_disjunction(n1: float, n2: float, r: float) -> bool:
    """Whether n1 < r cos a or n2 < r sin a for all a in (0, pi/2).  Some a
    fails iff n1, n2 > 0 (above TAU_VANISH) and n1^2 + n2^2 >= r^2, as
    cos a, sin a > 0; then a = atan2(n2, n1) has r (cos a, sin a) <= (n1, n2)."""
    return not (n1 > TAU_VANISH and n2 > TAU_VANISH and n1 * n1 + n2 * n2 >= r * r)


def attainment_cardinality_check(T: OperatorMatrix, A: OperatorMatrix) -> bool:
    """Whether A attains on at least as many +/- pairs as T.  Raises
    NotDiscreteError when an attainment set, T's checked first, is not
    finite."""
    pairs = attainment_set(T).pair_count()
    return attainment_set(A).pair_count() >= pairs


# ---------------------------------------------------------------------------
# Pair-level sweep.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepFailure:
    operator: OperatorMatrix
    eps: float
    reason: str


@dataclass(frozen=True)
class SweepSummary:
    pair: tuple
    total: int
    certified: int
    preserved: int
    failures: tuple


def _random_linf_candidates(n, trials, rng):
    """Distinct random non-isometric matrices with one unimodular entry per
    row, at most all (n^n - n!) 2^n of them."""
    family = (n ** n - math.factorial(n)) * 2 ** n
    out, seen = [], set()
    while len(out) < min(trials, family):
        cols = rng.integers(0, n, size=n)
        if len(set(cols.tolist())) == n:
            continue  # signed permutation pattern: skip isometries
        signs = rng.choice([-1.0, 1.0], size=n)
        key = (tuple(cols.tolist()), tuple(signs.tolist()))
        if key in seen:
            continue
        seen.add(key)
        M = np.zeros((n, n))
        M[np.arange(n), cols] = signs
        out.append(M)
    return out


def _random_l1_candidates(n, trials, rng):
    """The transposes of `_random_linf_candidates`: one unimodular entry per
    column."""
    return [M.T for M in _random_linf_candidates(n, trials, rng)]


def _census_candidates(trials, rng):
    """The first `trials` members of the l_inf^3 -> l_1^3 census; draws
    nothing."""
    return [T.entries for T in enumerate_extreme_linf3_l13()[:trials]]


def _random_hilbert_candidates(n, trials, rng):
    """Gaussian n x n matrices scaled to norm one, each redrawn while
    M^T M lies within 1e-3 of I entrywise, so none is near an isometry."""
    s = l2(n)
    out = []
    while len(out) < trials:
        M = rng.standard_normal((n, n))
        M = M / op_norm(OperatorMatrix(M, s, s))[0]
        if np.abs(M.T @ M - np.eye(n)).max() >= 1e-3:
            out.append(M)
    return out


@dataclass(frozen=True)
class SweepPair:
    """A pair of the sweep: its spaces, `draw(trials, rng)`, the seeded
    entries of `trials` operators from a family without isometries, and
    the constructor of their approximants."""

    domain: SpaceSpec
    codomain: SpaceSpec
    draw: Callable
    construct: Callable


SWEEP_PAIRS = {
    "linf2": SweepPair(linf(2), linf(2), partial(_random_linf_candidates, 2), apx.linf_extreme_approx),
    "linf3": SweepPair(linf(3), linf(3), partial(_random_linf_candidates, 3), apx.linf_extreme_approx),
    "l12": SweepPair(l1(2), l1(2), partial(_random_l1_candidates, 2), apx.l1_extreme_approx),
    "l13": SweepPair(l1(3), l1(3), partial(_random_l1_candidates, 3), apx.l1_extreme_approx),
    "linf3-l13": SweepPair(linf(3), l1(3), _census_candidates, apx.linf3_l13_extreme_approx),
    "l22": SweepPair(l2(2), l2(2), partial(_random_hilbert_candidates, 2), apx.hilbert_rotate_approx),
    "l23": SweepPair(l2(3), l2(3), partial(_random_hilbert_candidates, 3), apx.hilbert_rotate_approx),
}


def pair_property_sweep(
    spaceX: SpaceSpec,
    spaceY: SpaceSpec,
    eps_list,
    trials: int,
    seed: int,
    resolution: int = 1024,
) -> SweepSummary:
    """Construct and verify preserving approximants across a space pair.

    The pair must be one of SWEEP_PAIRS; any other raises
    UnsupportedPairError before anything is drawn.  Draws `trials` of its
    operators from the seeded RNG, builds each one's approximant with the
    pair's constructor for every eps, and verifies every report.  trials
    must be an integer of at least 1, seed and resolution integers of at
    least 0.
    """
    trials = _check_int(trials, "trials", 1)
    seed = _check_int(seed, "seed", 0)
    resolution = _check_int(resolution, "resolution", 0)
    pair = next(
        (s for s in SWEEP_PAIRS.values() if (s.domain, s.codomain) == (spaceX, spaceY)), None
    )
    if pair is None:
        raise UnsupportedPairError(f"unsupported pair {spaceX} -> {spaceY}")
    total = certified = preserved = 0
    failures = []
    for M in pair.draw(trials, np.random.default_rng(seed)):
        T = OperatorMatrix(M, spaceX, spaceY)
        for eps in eps_list:
            total += 1
            try:
                report = pair.construct(T, eps)
            except BpbLabError as exc:  # constructor contract violations
                failures.append(SweepFailure(T, eps, f"constructor: {exc}"))
                continue
            cert = verify_uniform_bpb(T, report.approximant, eps, resolution=resolution)
            if cert.certified:
                certified += 1
            else:
                failures.append(SweepFailure(T, eps, "verification falsified"))
            if report.attainment_preserved:
                preserved += 1
            else:
                failures.append(SweepFailure(T, eps, "attainment not preserved"))
    return SweepSummary((str(spaceX), str(spaceY)), total, certified, preserved, tuple(failures))
