"""Certificate engine for attainment-aware approximation.

Verifies or falsifies that every near-norming point of T lies within eps
of a norming point of A (exactly on l_1^n, l_inf^n and l_2^n, n >= 3);
computes isolation witnesses, the rigidity constant for 2-D l_p spaces,
Hilbert necessary-condition reports, and pair-level sweeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import approximants as apx
from . import operators
from .classify import enumerate_extreme_linf3_l13, is_isometry
from .errors import (
    BadExponentError,
    BpbLabError,
    IsIsometryError,
    NonFiniteError,
    OutOfRangeError,
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
    _mask_faces,
    _norm_value,
    _orthonormal_norm,
    _stacked_norms,
    attainment_set,
    check_norm_one,
    norm_one_attainment_set,
    op_norm,
    orthogonal_complement,
    pair_geometry,
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
    _check_eps,
    _check_int,
    _read_only,
    arc_length_constant,
    arc_length_total,
    face_distances,
    l1,
    l2,
    linf,
    polyhedral_table,
)


DEFAULT_RESOLUTION = 4096  # a certificate's sphere-grid sample where it is not exact

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
      distances to M_A's faces measured once per (space, eps, faces) and
      cached (`_corner_distances`), where a distance within TAU_CORNER
      below eps reads as eps.  The corners hold a maximiser of ||Tz||
      among the points at least eps from M_A, not one of the distance:
      the value is a lower bound that can lie far below the supremum.
      T = I and A = diag(1, 0.9) on l_inf^2 at eps 0.2 report 0.2, yet
      z = (0, -1) has ||Tz|| = 1 and lies 1.0 from M_A.
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
    the certificate's `basis`, and on l_2^n (n >= 3) T's
    `HilbertSupplier`, which decides every attainment set it covers (no
    rows on n = 3).  "exact" rows are the corner set at the caller's eps,
    whose distances `_corner_distances` reads; `distance_to` measures
    "sampled" rows."""

    rows: Optional[np.ndarray]
    norms: Optional[np.ndarray]
    basis: str
    hilbert: Optional[HilbertSupplier] = None


def _sample(
    T: OperatorMatrix,
    witness: Optional[Point],
    resolution: int,
    corners: Optional[np.ndarray],
) -> _Sample:
    """The sample of T's geometry.  With `corners`, `_exact_table(T, eps)`:
    the corner set at eps, which holds every vertex ("exact").  On l_2^n ->
    l_2^m with n >= 3, T's `HilbertSupplier` ("exact"); it covers every
    attainment set on n = 3, and on n >= 4 the grid below stands by for
    those of dimension 2 to n - 2.  Else the sphere grid at `resolution`
    with T's norming vector `witness` last, in a fresh Fortran-ordered
    array ("sampled"): the distance kernels read the sample a column at
    a time, and the l_2^n subspace distance's product on it takes its
    bits from that layout.  A `witness` of None is op_norm's, built only
    here, where a sample reads it."""
    if corners is not None:
        return _Sample(corners, T.image_norms(corners), "exact")
    hilbert = None
    if T.domain.n >= 3 and pair_geometry(T.domain, T.codomain) == "hilbert":
        hilbert = HilbertSupplier(T)
        if T.domain.n == 3:
            return _Sample(None, None, "exact", hilbert)
    grid = sphere_grid(T.domain, resolution)
    X = np.empty((len(grid) + 1, T.domain.n), order="F")
    X[:-1], X[-1] = grid, (op_norm(T)[1] if witness is None else witness).coords
    return _Sample(X, T.image_norms(X), "sampled", hilbert)


def _far_from(eps: float) -> float:
    """The least corner distance read as eps, as a corner at exactly eps
    may compute just below it: eps - TAU_CORNER, above 0."""
    return max(eps - TAU_CORNER, math.ulp(0.0))


_CORNER_VECTORS_KEPT = 32  # (space, eps, faces) whose corner distances _corner_distances keeps


@lru_cache(maxsize=_CORNER_VECTORS_KEPT)
def _corner_distances(space: SpaceSpec, eps: float, rows: bytes) -> np.ndarray:
    """The read distance from each corner of `corner_points(space, eps)`
    to the union of the faces of `polyhedral_table(space)` rows `rows`
    (intp bytes), read-only: the least `face_distances` entry over those
    faces, a distance in [`_far_from(eps)`, eps) read as eps.  The rule is
    monotone, so reading each entry before the least one gives the same
    bits.  Memoised, so a set of faces is measured once per eps for every
    operator attaining on it.  8 bytes a corner: 624 bytes up to l_inf^3,
    522 KB on l_inf^8 and 2.1 MB on l_inf^9 (16.7 MB and 67 MB for
    _CORNER_VECTORS_KEPT of them)."""
    patterns = polyhedral_table(space).patterns[np.frombuffer(rows, dtype=np.intp)]
    D = face_distances(space, patterns, corner_points(space, eps)).min(axis=0)
    np.copyto(D, eps, where=(D < eps) & (D >= _far_from(eps)))
    return _read_only(D)


def _exact_table(T: OperatorMatrix, eps: float) -> Optional[np.ndarray]:
    """`corner_points` of T's domain at eps on a polyhedral pair, else
    None.  Each certificate entry asks it once, before any norm, and
    passes it to `_sample`, so a polyhedral domain without corner set
    (l_1^n, n >= 4) is refused up front, with UnsupportedPairError naming
    the pair."""
    if pair_geometry(T.domain, T.codomain) != "polyhedral":
        return None
    try:
        return corner_points(T.domain, eps)
    except UnsupportedSpaceError as exc:
        raise UnsupportedPairError(
            f"no exact certificate for {T.domain} -> {T.codomain}: {exc}"
        ) from None


def _descent(M, top: float, eps: float, sample: _Sample):
    """The delta descent of the T-side `sample`, whose image norms peak at
    `top`, against the attainment set M: (delta, worst distance,
    counterexample Point or None, basis).  When T's `HilbertSupplier`
    covers M, the exact g of its far set takes the levels; on "exact"
    polyhedral rows, the corners at eps, `_corner_distances` of M's
    faces."""
    profile = None if sample.hilbert is None else sample.hilbert.profile(M)
    if profile is not None:
        delta = _delta_level(profile.far_maximum(eps), top)
        if delta is None:
            worst = profile.worst_distance(top - top * DELTA_LAST)
            return None, worst, profile.far_point(eps), "exact"
        return delta, profile.worst_distance(top - delta), None, "exact"
    if sample.basis == "sampled":
        dists = M.distance_to(sample.rows)
    else:
        dists = _corner_distances(M.space, eps, M._rows.tobytes())
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
    _check_eps(eps, hi=math.inf)
    corners = _exact_table(T, eps)  # refuses before any norm
    M = attainment_set(T)
    # the set's first row, not op_norm's witness (another of its points on
    # l_p^2), keeps the sample's bits
    witness = None if corners is not None else Point(M.representative_points()[0], T.domain)
    delta, _, z, _ = _descent(M, M.value, eps, _sample(T, witness, resolution, corners))
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
    _check_eps(eps, hi=math.inf)
    corners = _exact_table(T, eps)  # refuses before any norm
    check_norm_one(_norm_value(T), "T")
    MA = norm_one_attainment_set(A, "A")
    dist, _ = op_norm(T - A)
    sample = _sample(T, None, resolution, corners)
    return _inclusion_certificate(MA, dist, eps, resolution, sample)


@dataclass(frozen=True)
class OnlyApproximationResult:
    """Outcome of the randomized search for a nontrivial approximant."""

    found: bool
    trials: int
    counterexample: Optional[OperatorMatrix] = None
    certificate: Optional[BpbCertificate] = None


HALVINGS = 60      # scalings t = eps/2, eps/4, ... tried per random direction
HALVING_LEVELS = 4  # halvings one stacked kernel call decides on polyhedral pairs
TRIAL_BLOCK = 64   # trials of is_only_approximation searched in lockstep


def _halving_search(T: OperatorMatrix, D: np.ndarray, eps: float):
    """For each direction D[i], the first t of eps/2, eps/4, ... (HALVINGS
    of them) whose normalised T + tD[i] lies within eps of T, all directions
    in lockstep, the pair's geometry decided once: two stacked norm kernels
    over the still-open directions decide HALVING_LEVELS halvings on
    polyhedral pairs (a direction's first hit is the argmax over the
    levels), and one on Hilbert and l_p^2 pairs, where op_norms loops per
    matrix.  Returns the candidates, their distances ||T - A|| and which
    directions found one.  A candidate with non-finite entries, or of norm
    0 at a halving its direction reaches, is refused with NonFiniteError,
    as op_norms refused it."""
    dom, cod = T.domain, T.codomain
    geometry = pair_geometry(dom, cod)
    levels = HALVING_LEVELS if geometry == "polyhedral" else 1
    cands, dists = np.empty_like(D), np.empty(len(D))
    found = np.zeros(len(D), dtype=bool)
    open_ = np.arange(len(D))
    t, k = eps / 2.0, 0
    # T + sD lies between T and T + tD for 0 < s < t, so the first
    # candidates are finite iff all are
    if not np.isfinite(T.entries + t * D).all():
        raise NonFiniteError("entries must be finite")
    while open_.size and k < HALVINGS:
        ts = [t]
        while len(ts) < min(levels, HALVINGS - k):
            ts.append(ts[-1] / 2.0)
        C = T.entries + np.reshape(ts, (-1, 1, 1, 1)) * D[open_]
        norms = _stacked_norms(C, dom, cod, geometry)
        if not norms.all():
            if len(ts) > 1:  # the 0 may lie past a first hit: redo one halving a call
                levels = 1
                continue
            raise NonFiniteError("entries must be finite: a candidate T + tD is 0")
        C /= norms[..., None, None]
        d = _stacked_norms(T.entries - C, dom, cod, geometry)
        hit = d < eps
        got = hit.any(axis=0)
        row, done = hit.argmax(axis=0)[got], open_[got]
        cands[done], dists[done], found[done] = C[row, got], d[row, got], True
        open_ = open_[~got]
        k, t = k + len(ts), ts[-1] / 2.0
    return cands, dists, found


def _polyhedral_screen(C: np.ndarray, dom: SpaceSpec, cod: SpaceSpec, eps: float, sample: _Sample):
    """||A|| of every candidate A of the stack C on a polyhedral domain, and
    whether `_inclusion_certificate` certifies A at eps against the T-side
    `sample` when ||A|| is 1, decided without building an attainment set.

    A attains on the faces `_attaining_faces` names, so M_A is the union of
    that mask's maximal faces (`_mask_faces`), and the corners' distances
    to it are `_corner_distances` of their rows, as `_descent` reads them.
    Each distinct mask of the block is looked up once, and one masked
    maximum over the stacked distances gives each candidate's g, the
    largest image norm among the corners not below eps: A certifies iff g
    passes some level of the delta grid, g <= 1 - DELTA_LAST.
    """
    values = _stacked_norms(C, dom, cod, "polyhedral")
    hit = _attaining_faces(C, values, dom, cod)
    masks = {}  # each distinct mask's bytes, in first-seen order
    at = [masks.setdefault(m.tobytes(), len(masks)) for m in hit]
    D = np.array([_corner_distances(dom, eps, _mask_faces(dom, m)[1].tobytes()) for m in masks])
    g = np.where(D < eps, -np.inf, sample.norms).max(axis=1)
    return values, (g <= 1.0 - DELTA_LAST)[at]


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
    (`_polyhedral_screen`) decides every candidate of a block from the
    cached corner distances of its maximal faces, the ones its
    certificate reads, so a repeated search measures no face; with the
    A != T and norm-one masks it leaves only the candidates that raise or
    certify to visit, and only the first that certifies gets its
    attainment set and certificate.  On l_p^2 domains, where op_norms
    loops per matrix, a block is one trial, so no trial past a
    certificate is searched.
    """
    _check_eps(eps, hi=math.inf)
    trials = _check_int(trials, "trials", 1)
    seed = _check_int(seed, "seed", 0)
    resolution = _check_int(resolution, "resolution", 0)
    corners = _exact_table(T, eps)  # refuses before any norm
    check_norm_one(_norm_value(T), "T")
    dom, cod = T.domain, T.codomain
    geometry = pair_geometry(dom, cod)
    block = 1 if geometry == "lp2" else TRIAL_BLOCK
    rng = np.random.default_rng(seed)
    sample = _sample(T, None, resolution, corners)
    for start in range(0, trials, block):
        D = rng.standard_normal((min(block, trials - start), *T.entries.shape))
        cands, dists, found = _halving_search(T, D, eps)
        idx = np.flatnonzero(found)
        if not idx.size:
            continue
        C = cands[idx]
        visit = np.abs(C - T.entries).max(axis=(1, 2)) >= TAU_SAME
        if geometry == "polyhedral":
            values, certifies = _polyhedral_screen(C, dom, cod, eps, sample)
            visit &= certifies | (np.abs(values - 1.0) > operators.TAU_NORM_ONE)
        for j in np.flatnonzero(visit):
            if geometry == "polyhedral":
                check_norm_one(float(values[j]), "A")
            A = OperatorMatrix(C[j], dom, cod)
            MA = norm_one_attainment_set(A, "A")
            cert = _inclusion_certificate(MA, float(dists[idx[j]]), eps, resolution, sample)
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
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 3:
        raise BadExponentError("p must be an integer >= 3")
    p = int(p)
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
    resolution: int = DEFAULT_RESOLUTION,
) -> SweepSummary:
    """Construct and verify preserving approximants across a space pair.

    The pair must be one of SWEEP_PAIRS; any other raises
    UnsupportedPairError before anything is drawn.  Draws `trials` of its
    operators from the seeded RNG, builds each one's approximant with the
    pair's constructor for every eps, and verifies every report.  eps_list
    must hold at least one eps, each finite and positive (an eps the
    constructor refuses is a recorded failure), trials must be an integer
    of at least 1, seed and resolution integers of at least 0.
    """
    try:
        eps_list = list(eps_list)
    except TypeError:
        raise OutOfRangeError(f"eps_list must be a list of eps, got {eps_list!r}") from None
    if not eps_list:
        raise OutOfRangeError("eps_list must hold at least one eps")
    for eps in eps_list:
        _check_eps(eps, hi=math.inf, name="eps_list item")
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
