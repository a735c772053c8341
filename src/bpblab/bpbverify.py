"""Certificate engine for attainment-aware approximation.

Verifies or falsifies, at a stated sampling resolution, that every
near-norming point of T lies within eps of a norming point of A; computes
isolation witnesses, the rigidity constant for 2-D l_p spaces, Hilbert
necessary-condition reports, and pair-level sweeps.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import approximants as apx
from .classify import enumerate_extreme_linf3_l13, is_isometry
from .errors import (
    BadExponentError,
    IsIsometryError,
    NotDiscreteError,
    UnsupportedPairError,
    UnsupportedSpaceError,
    WrongSpacesError,
)
from .operators import (
    DEFAULT_RESOLUTION,
    OperatorMatrix,
    attainment_set,
    delta_descent,
    norm_one_attainment_set,
    op_norm,
    orthogonal_complement,
    require_norm_one,
    restricted_norm,
)
from .sampling import sphere_grid
from .spaces import (
    ARC_TABLE_SIZE,
    INF,
    Point,
    SpaceSpec,
    _arc_table,
    _arc_table_rows,
    _interp_on_curve,
    arc_length_constant,
    arc_length_total,
    pnorm,
    pnorm_into,
    polyhedral_table,
)


_scratch = threading.local()
_SAMPLE_BUFFERS_KEPT = 8


def _sample_buffers(space: SpaceSpec, resolution: int, cols: int):
    """This thread's arrays for verifying on the grid of `space` at
    `resolution` with a codomain of dimension `cols`, kept from call to call.

    `sample` holds the grid and one free last row, `images` their images,
    `work` five rows of scratch and `mask` one flag per sample row.  At
    resolution 16384 each array is 0.13-0.4 MB.  Allocated afresh per call,
    such blocks go back to the kernel whenever glibc trims the heap, which
    depends on what was allocated before the call, and the next call faults
    every page in again, hundreds of page faults per call.
    """
    buffers = _scratch.__dict__.setdefault("samples", {})
    key = (space, resolution, cols)
    if key not in buffers:
        if len(buffers) == _SAMPLE_BUFFERS_KEPT:
            del buffers[next(iter(buffers))]
        grid = sphere_grid(space, resolution)
        rows = len(grid) + 1
        sample = np.empty((rows, space.n))
        sample[:-1] = grid
        buffers[key] = (sample, np.empty((rows, cols)), np.empty((5, rows)),
                        np.empty(rows, dtype=bool))
    return buffers[key]


@dataclass(frozen=True)
class BpbCertificate:
    """Sampling-relative verdict for an approximation triple (T, A, eps)."""

    status: str  # "certified", "falsified"
    eps: float
    delta_found: Optional[float]
    resolution: int
    worst_distance: float
    counterexample: Optional[Point]
    operator_distance: float

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def verify_uniform_bpb(
    T: OperatorMatrix, A: OperatorMatrix, eps: float, resolution: int = DEFAULT_RESOLUTION
) -> BpbCertificate:
    """Certify or falsify the uniform inclusion property at a resolution.

    Requires ||T-A|| < eps; then descends a geometric delta grid looking for
    the largest delta such that every sampled z with ||Tz|| > 1 - delta lies
    within eps of the attainment set of A.  The sample is the sphere grid
    plus the norming vector of T, so no delta is certified on an empty set.
    """
    _, witness = require_norm_one(T, "T")
    MA = norm_one_attainment_set(A, "A")
    dist, _ = op_norm(T - A)
    if dist >= eps:
        return BpbCertificate("falsified", eps, None, resolution, math.inf, None, dist)
    X, images, work, mask = _sample_buffers(T.domain, resolution, T.codomain.n)
    X[-1] = witness.coords
    norms, dists = work[0], work[1]
    pnorm_into(np.matmul(X, T.entries.T, out=images), T.codomain.p, 1, norms)
    MA.distance_to(X, out=dists, work=work[2:])
    delta, worst, idx = delta_descent(norms, dists, 1.0, eps, mask)
    if delta is not None:
        return BpbCertificate("certified", eps, delta, resolution, worst, None, dist)
    z = Point(X[idx], T.domain)
    return BpbCertificate("falsified", eps, None, resolution, worst, z, dist)


@dataclass(frozen=True)
class OnlyApproximationResult:
    """Outcome of the randomized search for a nontrivial approximant."""

    found: bool
    trials: int
    counterexample: Optional[OperatorMatrix] = None
    certificate: Optional[BpbCertificate] = None


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
    none is evidence, not proof.
    """
    require_norm_one(T, "T")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    m, n = T.entries.shape
    hits = 0
    for _ in range(trials):
        D = rng.standard_normal((m, n))
        t = eps / 2.0
        A = None
        for _ in range(60):
            cand = T.entries + t * D
            v, _ = op_norm(OperatorMatrix(cand, T.domain, T.codomain))
            cand = cand / v
            Ac = OperatorMatrix(cand, T.domain, T.codomain)
            d, _ = op_norm(T - Ac)
            if d < eps:
                A = Ac
                break
            t /= 2.0
        if A is None or np.abs(A.entries - T.entries).max() < 1e-9:
            continue
        hits += 1
        cert = verify_uniform_bpb(T, A, eps, resolution=resolution)
        if cert.certified:
            return OnlyApproximationResult(True, trials, A, cert)
    return OnlyApproximationResult(False, trials)


def check_ball_inclusion(
    T: OperatorMatrix,
    A: OperatorMatrix,
    delta_ball: float,
    resolution: int = DEFAULT_RESOLUTION,
) -> bool:
    """Whether every representative point of M_A is delta_ball-close to M_T."""
    require_norm_one(T, "T")
    require_norm_one(A, "A")
    MT = attainment_set(T, resolution=resolution)
    MA = attainment_set(A, resolution=resolution)
    reps = MA.representative_points()
    return bool(MT.distance_to(reps).max() <= delta_ball)


@dataclass(frozen=True)
class PropertyPWitness:
    """A unit vector whose ball of radius r0 misses the attainment set."""

    operator: OperatorMatrix
    x_A: Point
    r0: float


def property_p_witness(A: OperatorMatrix, resolution: int = DEFAULT_RESOLUTION) -> PropertyPWitness:
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
    MA = norm_one_attainment_set(A, "A", resolution)
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
        pi = int(p)
        K = 2 * (16 * pi - 9)
        L = arc_length_total(p)
        tab_pts, s = _arc_table(p, ARC_TABLE_SIZE)
        # arc-length positions of the attainment points, binned into K arcs
        rows = _arc_table_rows(p, ARC_TABLE_SIZE, MA.points)
        occupied = set(((s[rows] / (L / K)).astype(int) % K).tolist())
        free = next(a for a in range(K) if a not in occupied)
        mid_s = (free + 0.5) * (L / K)
        x = _interp_on_curve(tab_pts, s, np.array([mid_s]))[0]
        x = x / float(pnorm(x, p))
        r0 = arc_length_constant(p, L / (2.0 * K))
        return PropertyPWitness(A, Point(x, dom), r0)
    raise UnsupportedSpaceError(f"no witness strategy for {dom}")


@dataclass(frozen=True)
class Epsilon0Report:
    """Rigidity constant of the 2-D l_p isometry group."""

    p: int
    separation: float
    delta1: float
    eps0: float


def epsilon0_lp2(p: int, resolution: int | None = None) -> Epsilon0Report:
    """min of the isometry separation 2^((p-1)/p) and the arc constant
    at one part in 2(16p-9) of the circle length."""
    if not isinstance(p, int) or p in (1, 2) or p < 1:
        raise BadExponentError("p must be an integer >= 3")
    L = arc_length_total(p)
    sep = 2.0 ** ((p - 1.0) / p)
    delta1 = arc_length_constant(p, L / (2.0 * (16 * p - 9)), resolution=resolution)
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
    attainment subspaces; (ii) a split-norm disjunction over a boundary grid
    of (eps1, eps2) with eps1^2 + eps2^2 = 2.25 eps^2; (iii) the sampled
    inclusion certificate.
    """
    if not (T.domain.hilbert and T.codomain.hilbert):
        raise WrongSpacesError("checks require Hilbert domain and codomain")
    H0 = attainment_set(T).basis
    H = attainment_set(A).basis
    dims_equal = H0.shape[1] == H.shape[1]
    k = min(H0.shape[1], H.shape[1])
    sv = np.linalg.svd(H0.T @ H, compute_uv=False)
    trivial = dims_equal and (len(sv) == 0 or float(sv[min(k, len(sv)) - 1]) > 1e-9)
    D = T - A
    n1 = restricted_norm(D, H0)
    n2 = restricted_norm(D, orthogonal_complement(H0))
    radius = math.sqrt(2.25) * eps
    angles = np.linspace(0.0, math.pi / 2.0, 16)
    disjunction = all(
        n1 < radius * math.cos(a) or n2 < radius * math.sin(a) for a in angles[1:-1]
    )
    cert = verify_uniform_bpb(T, A, eps, resolution=resolution)
    return HilbertChecks(dims_equal, trivial, disjunction, cert.certified)


def attainment_cardinality_check(T: OperatorMatrix, A: OperatorMatrix, eps: float) -> bool:
    """Whether A attains on at least as many point pairs as T, whose
    attainment set must be refined points (a 2-D non-Euclidean domain)."""
    MT = attainment_set(T)
    if MT.points is None:
        raise NotDiscreteError("the attainment set of T is not a finite point set")
    return attainment_set(A).pair_count() >= MT.pair_count()


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
    skipped_isometries: int
    failures: tuple


def _random_linf_candidates(n, trials, rng):
    """Random non-isometric matrices with one unimodular entry per row."""
    out = []
    while len(out) < trials:
        cols = rng.integers(0, n, size=n)
        if len(set(cols.tolist())) == n:
            continue  # signed permutation pattern: skip isometries
        signs = rng.choice([-1.0, 1.0], size=n)
        M = np.zeros((n, n))
        for r in range(n):
            M[r, cols[r]] = signs[r]
        out.append(M)
    return out


def _route(T: OperatorMatrix, eps: float):
    dom, cod = T.domain, T.codomain
    if dom.p == INF and cod.p == INF:
        return apx.linf_extreme_approx(T, eps)
    if dom.p == 1 and cod.p == 1:
        return apx.l1_extreme_approx(T, eps)
    if dom.p == INF and cod.p == 1 and dom.n == 3:
        return apx.linf3_l13_extreme_approx(T, eps)
    if dom.hilbert and cod.hilbert:
        return apx.hilbert_rotate_approx(T, eps)
    raise UnsupportedPairError(f"no constructor route for {dom} -> {cod}")


def pair_property_sweep(
    spaceX: SpaceSpec,
    spaceY: SpaceSpec,
    eps_list,
    trials: int,
    seed: int,
    resolution: int = 1024,
) -> SweepSummary:
    """Construct and verify preserving approximants across a space pair.

    Samples non-isometric norm-one operators (plus the full extreme census
    where available), routes each through the applicable constructor, and
    verifies every report.  Isometries are skipped by definition.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    candidates: list[OperatorMatrix] = []
    same = spaceX.n == spaceY.n and spaceX.p == spaceY.p
    if spaceX.p == INF and spaceY.p == INF and same and spaceX.n <= 3:
        for M in _random_linf_candidates(spaceX.n, trials, rng):
            candidates.append(OperatorMatrix(M, spaceX, spaceY))
    elif spaceX.p == 1 and spaceY.p == 1 and same and spaceX.n <= 3:
        for M in _random_linf_candidates(spaceX.n, trials, rng):
            candidates.append(OperatorMatrix(M.T, spaceX, spaceY))
    elif spaceX.p == INF and spaceX.n == 3 and spaceY.p == 1 and spaceY.n == 3:
        candidates.extend(enumerate_extreme_linf3_l13()[:trials])
    elif spaceX.hilbert and spaceY.hilbert and same and spaceX.n <= 3:
        while len(candidates) < trials:
            M = rng.standard_normal((spaceX.n, spaceX.n))
            v, _ = op_norm(OperatorMatrix(M, spaceX, spaceY))
            M = M / v
            cand = OperatorMatrix(M, spaceX, spaceY)
            if np.abs(M.T @ M - np.eye(spaceX.n)).max() < 1e-3:
                continue
            candidates.append(cand)
    else:
        raise UnsupportedPairError(f"unsupported pair {spaceX} -> {spaceY}")
    total = certified = preserved = skipped = 0
    failures = []
    for T in candidates:
        if same and is_isometry(T):
            skipped += 1
            continue
        for eps in eps_list:
            total += 1
            try:
                report = _route(T, eps)
            except Exception as exc:  # constructor contract violations
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
    return SweepSummary(
        (str(spaceX), str(spaceY)),
        total,
        certified,
        preserved,
        skipped,
        tuple(failures),
    )
