"""Finite-dimensional real l_p spaces.

Norms and duality, extreme points and the face lattice of the polyhedral
unit balls (p in {1, inf}), supporting functionals, Birkhoff-James
orthogonality, and Euclidean arc-length machinery for the 2-D l_p circle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import (
    MixedSpacesError,
    OutOfRangeError,
    UnsupportedExponentError,
    UnsupportedSpaceError,
    ZeroVectorError,
)
from .optim import golden_section_min

INF = math.inf

# Decidability tolerances. The underlying mathematics is exact; these make
# every predicate computable on floats.
TAU_EQ = 1e-9      # relative tolerance for norm equalities
TAU_OPT = 1e-10    # bracket width for 1-D convex minimisation
TAU_PROBE = 1e-6   # probe offset for strong Birkhoff-James certification

# The most elements one enumeration may build: vertices or faces of a
# polyhedral ball, signed permutations of l_p^n or pairs of them.
ENUMERATION_LIMIT = 10 ** 6

Exponent = Union[Fraction, float]


def as_exponent(value) -> Exponent:
    """Coerce to an exact exponent: a Fraction >= 1, or math.inf."""
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        value = Fraction(value)
    if isinstance(value, float) and math.isinf(value):
        return INF
    p = Fraction(value)
    if p < 1:
        raise UnsupportedExponentError(f"exponent must satisfy p >= 1, got {p}")
    return p


def exponent_str(p: Exponent) -> str:
    return "inf" if p == INF else str(Fraction(p))


@dataclass(frozen=True)
class SpaceSpec:
    """A finite-dimensional l_p space: exponent p in [1, inf] and dimension n."""

    p: Exponent
    n: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_exponent(self.p))
        if not (isinstance(self.n, int) and self.n >= 1):
            raise UnsupportedSpaceError(f"dimension must be a positive integer, got {self.n}")

    @property
    def pf(self) -> float:
        """Exponent as a float (math.inf for the sup norm)."""
        return float(self.p)

    @property
    def polyhedral(self) -> bool:
        return self.p == 1 or self.p == INF

    @property
    def strictly_convex(self) -> bool:
        return 1 < self.p < INF

    @property
    def hilbert(self) -> bool:
        return self.p == 2

    def dual(self) -> "SpaceSpec":
        """Conjugate-exponent space: 1/p + 1/q = 1, with 1 <-> inf."""
        if self.p == INF:
            return SpaceSpec(Fraction(1), self.n)
        if self.p == 1:
            return SpaceSpec(INF, self.n)
        return SpaceSpec(self.p / (self.p - 1), self.n)

    def __repr__(self):
        return f"l_{exponent_str(self.p)}^{self.n}"


def linf(n: int) -> SpaceSpec:
    return SpaceSpec(INF, n)


def l1(n: int) -> SpaceSpec:
    return SpaceSpec(Fraction(1), n)


def l2(n: int) -> SpaceSpec:
    return SpaceSpec(Fraction(2), n)


def lp(p, n: int) -> SpaceSpec:
    return SpaceSpec(as_exponent(p), n)


def pnorm(v, p: Exponent, axis: int = -1):
    """l_p norm along an axis; vectorized."""
    v = np.asarray(v, dtype=float)
    if p == INF:
        return np.abs(v).max(axis=axis)
    pf = float(p)
    if pf == 1.0:
        return np.abs(v).sum(axis=axis)
    if pf == 2.0:
        return np.sqrt((v * v).sum(axis=axis))
    return (np.abs(v) ** pf).sum(axis=axis) ** (1.0 / pf)


def pnorm_into(v: np.ndarray, p: Exponent, axis: int, out: np.ndarray) -> np.ndarray:
    """pnorm(v, p, axis) written to `out`, with the float array v
    overwritten as scratch, so no array is allocated."""
    if p == INF:
        return np.abs(v, out=v).max(axis=axis, out=out)
    pf = float(p)
    if pf == 1.0:
        return np.abs(v, out=v).sum(axis=axis, out=out)
    if pf == 2.0:
        return np.sqrt(np.multiply(v, v, out=v).sum(axis=axis, out=out), out=out)
    np.power(np.abs(v, out=v), pf, out=v).sum(axis=axis, out=out)
    return np.power(out, 1.0 / pf, out=out)


@dataclass(frozen=True)
class Point:
    """A vector together with the space whose norm measures it."""

    coords: np.ndarray
    space: SpaceSpec

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.ndim != 1 or c.shape[0] != self.space.n:
            raise MixedSpacesError(
                f"coordinate length {c.shape} does not match dimension {self.space.n}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def norm(self) -> float:
        return float(pnorm(self.coords, self.space.p))

    def __repr__(self):
        return f"Point({np.array2string(self.coords, precision=6)}, {self.space})"


def point(coords, space: SpaceSpec) -> Point:
    return Point(np.asarray(coords, dtype=float), space)


def norm(x: Point) -> float:
    """The l_p norm of x in its own space."""
    return x.norm()


def extreme_points(s: SpaceSpec) -> list[Point]:
    """Extreme points of the unit ball, in `PolyhedralTable.vertices`
    order; polyhedral spaces only."""
    if not s.polyhedral:
        raise UnsupportedSpaceError(
            "extreme points of a strictly convex ball form the whole sphere"
        )
    return [Point(v, s) for v in polyhedral_table(s).vertices]


@dataclass(frozen=True)
class Face:
    """A proper face of the unit ball of l_inf^n or l_1^n.

    The sign pattern q in {-1,0,+1}^n encodes, for l_inf, the set
    {x : x_i = q_i where q_i != 0, |x_j| <= 1 elsewhere}; for l_1 it encodes
    conv{q_i e_i : q_i != 0}.
    """

    space: SpaceSpec
    pattern: tuple

    def __post_init__(self):
        if not self.space.polyhedral:
            raise UnsupportedSpaceError("faces are defined for polyhedral spaces only")
        pat = tuple(int(v) for v in self.pattern)
        if len(pat) != self.space.n or any(v not in (-1, 0, 1) for v in pat):
            raise OutOfRangeError(f"bad sign pattern {self.pattern}")
        if all(v == 0 for v in pat):
            raise OutOfRangeError("a proper face needs at least one nonzero sign")
        object.__setattr__(self, "pattern", pat)

    @property
    def dim(self) -> int:
        nz = sum(1 for v in self.pattern if v != 0)
        if self.space.p == INF:
            return self.space.n - nz
        return nz - 1

    def vertices(self) -> np.ndarray:
        """Extreme points of the face, one per row, in
        `PolyhedralTable.vertices` order."""
        V = polyhedral_table(self.space).vertices
        return V[face_containment(self.space, [self.pattern], V)[0]]

    @property
    def signs(self) -> str:
        """The sign pattern as a string such as "+0-"."""
        return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in self.pattern)

    def relative_interior_coords(self) -> np.ndarray:
        return face_barycentres(self.space, self.pattern)[0]

    def contains_face(self, other: "Face") -> bool:
        """Whether `other` is a (not necessarily proper) subface of this face."""
        if self.space != other.space:
            raise MixedSpacesError("faces of different spaces")
        return bool(face_containment(self.space, [self.pattern], [other.pattern])[0, 0])

    def distance_to(self, X, out=None, work=None) -> np.ndarray:
        """Distance (in the space's own norm) from each row of X to the face.

        Closed forms, one coordinate at a time: coordinate clamping for
        l_inf faces, an exact simplex projection formula for l_1 faces.
        The result goes to `out`; `work`, shape (2, len(X)), is scratch.
        Both are allocated when not given.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if out is None:
            out = np.empty(len(X))
        tmp, pos = np.empty((2, len(X))) if work is None else work
        out.fill(0.0)
        if self.space.p == INF:
            # max of |x_i - s_i| over the fixed coordinates and of
            # (|x_i| - 1)_+ over the free ones
            for i, s in enumerate(self.pattern):
                if s:
                    np.abs(np.subtract(X[:, i], s, out=tmp), out=tmp)
                else:
                    np.subtract(np.abs(X[:, i], out=tmp), 1.0, out=tmp)
                np.maximum(out, tmp, out=out)
            return out
        # l_1: min over the simplex conv{q_i e_i} of ||x - v||_1.  With
        # P = sum((q_i x_i)_+) over the support, the optimum value is
        # ||x||_1 - P + |P - 1|.
        pos.fill(0.0)
        for i, s in enumerate(self.pattern):
            np.add(out, np.abs(X[:, i], out=tmp), out=out)
            if s:
                np.add(pos, np.maximum(np.multiply(X[:, i], s, out=tmp), 0.0, out=tmp), out=pos)
        np.subtract(out, pos, out=out)
        return np.add(out, np.abs(np.subtract(pos, 1.0, out=pos), out=pos), out=out)

    def __repr__(self):
        return f"Face({self.space}, {self.signs})"


def enumerate_faces(s: SpaceSpec) -> list[Face]:
    """All proper faces of the unit ball of a polyhedral space."""
    return list(polyhedral_table(s).faces)


def face_containment(s: SpaceSpec, big, small) -> np.ndarray:
    """C[i, j]: whether the face with sign pattern small[j] is a (not
    necessarily proper) subface of the face with sign pattern big[i].

    A cube face is fixed by its nonzero signs, so the larger face fixes a
    subset of them; a cross-polytope face is spanned by its nonzero signs,
    so the larger face spans a superset.
    """
    big, small = np.atleast_2d(big), np.atleast_2d(small)
    C = np.ones((len(big), len(small)), dtype=bool)
    # one coordinate at a time keeps the working memory at one matrix
    for b, q in zip(big.T, small.T):
        b, q = b[:, None], q[None, :]
        free = b == 0 if s.p == INF else q == 0
        C &= free | (b == q)
    return C


def face_barycentres(s: SpaceSpec, patterns) -> np.ndarray:
    """Barycentres of the faces with the given sign patterns, one row each:
    the pattern itself for a cube face, pattern / |support| for a
    cross-polytope face."""
    P = np.atleast_2d(patterns).astype(float)
    if s.p == 1:
        P /= np.abs(P).sum(axis=1, keepdims=True)
    return P


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_table_size(n: int, count: int, what: str) -> None:
    if count > ENUMERATION_LIMIT:
        raise OutOfRangeError(
            f"n = {n}: the ball has {count} {what}, more than {ENUMERATION_LIMIT}"
        )


class PolyhedralTable:
    """The unit ball of l_1^n or l_inf^n as arrays, built once per space.

    ``vertices`` holds the extreme points, one per row: the sign vectors in
    ``itertools.product((1, -1))`` order for the cube, e_1..e_n then
    -e_1..-e_n for the cross-polytope.  The vertices of ``space.dual()`` are
    the extreme functionals of the dual ball, so one table serves both
    roles.  ``patterns`` holds the sign patterns of the proper faces in
    ``itertools.product((-1, 0, 1))`` order, ``faces`` the faces themselves
    and ``barycentres`` their barycentres, one row each.  The face fields
    are built on first use.  Either raises OutOfRangeError, before
    enumerating, when it would hold more than ENUMERATION_LIMIT rows.
    """

    def __init__(self, space: SpaceSpec):
        if not space.polyhedral:
            raise UnsupportedSpaceError("face enumeration requires p in {1, inf}")
        self.space = space
        n = space.n
        if space.p == INF:
            _check_table_size(n, 2 ** n, "vertices")
            V = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
        else:
            V = np.concatenate([np.eye(n), -np.eye(n)])
        self.vertices = _read_only(V)

    @functools.cached_property
    def patterns(self) -> np.ndarray:
        _check_table_size(self.space.n, 3 ** self.space.n - 1, "faces")
        P = np.array(list(itertools.product((-1, 0, 1), repeat=self.space.n)))
        return _read_only(P[(P != 0).any(axis=1)])

    @functools.cached_property
    def faces(self) -> tuple:
        return tuple(Face(self.space, tuple(row)) for row in self.patterns)

    @functools.cached_property
    def barycentres(self) -> np.ndarray:
        return _read_only(face_barycentres(self.space, self.patterns))


@functools.lru_cache(maxsize=32)
def polyhedral_table(s: SpaceSpec) -> PolyhedralTable:
    """The cached PolyhedralTable of a polyhedral space."""
    return PolyhedralTable(s)


def points_distance(x_coords, pts, p: Exponent) -> float:
    """Min l_p distance from a single vector to a finite point list."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return float(pnorm(pts - np.asarray(x_coords, dtype=float), p, axis=1).min())


@dataclass(frozen=True)
class SupportSet:
    """J(x): the norm-one functionals attaining ||x|| at x.

    ``functionals`` lists either the unique supporting functional or the
    extreme generators of the (polyhedral) support face in the dual ball.
    """

    point: Point
    functionals: tuple
    is_unique: bool

    def __post_init__(self):
        dual = self.point.space.dual()
        nx = self.point.norm()
        for f in self.functionals:
            if abs(f.norm() - 1.0) > 1e-7:
                raise OutOfRangeError("supporting functional is not norm-one")
            if abs(float(f.coords @ self.point.coords) - nx) > 1e-7 * max(1.0, nx):
                raise OutOfRangeError("functional does not attain the norm at x")
            if f.space != dual:
                raise MixedSpacesError("functional not in the dual space")


def _supporting_vertices(x: Point, nx: float) -> np.ndarray:
    """The vertices f of the dual ball of a polyhedral space with
    f(x) >= ||x|| (1 - TAU_EQ): the extreme points of J(x)."""
    V = polyhedral_table(x.space.dual()).vertices
    return V[V @ x.coords >= nx * (1.0 - TAU_EQ)]


def support_functionals(x: Point) -> SupportSet:
    """The supporting functionals J(x) of a nonzero vector: the duality
    map on strictly convex spaces, else the supporting vertices of the
    dual ball in `PolyhedralTable.vertices` order."""
    nx = x.norm()
    if nx == 0.0:
        raise ZeroVectorError("J(x) is undefined for x = 0")
    s = x.space
    dual = s.dual()
    c = x.coords
    if s.strictly_convex:
        pf = s.pf
        f = np.sign(c) * np.abs(c) ** (pf - 1.0) / nx ** (pf - 1.0)
        return SupportSet(x, (Point(f, dual),), True)
    gens = tuple(Point(f, dual) for f in _supporting_vertices(x, nx))
    return SupportSet(x, gens, len(gens) == 1)


def is_smooth_point(x: Point) -> bool:
    """True iff J(x) is a singleton."""
    nx = x.norm()
    if nx == 0.0:
        raise ZeroVectorError("smoothness is undefined for x = 0")
    return x.space.strictly_convex or len(_supporting_vertices(x, nx)) == 1


def birkhoff_orthogonal(x: Point, y: Point, strong: bool = False) -> bool:
    """Birkhoff-James orthogonality x _|_B y.

    Plain: min over real lambda of ||x + lambda*y|| >= ||x||, decided by
    golden-section search on a bracketing interval.  Strong additionally
    requires the minimiser set to be {0}, certified by probing
    ||x +/- tau*y|| > ||x|| at tau = TAU_PROBE (exact for strictly convex
    spaces; a tau-resolution certificate for polyhedral ones).
    """
    if x.space != y.space:
        raise MixedSpacesError("Birkhoff-James orthogonality needs one space")
    nx = x.norm()
    if nx == 0.0:
        raise ZeroVectorError("x must be nonzero")
    ny = y.norm()
    if ny == 0.0:
        return not strong
    p = x.space.p
    r = 2.0 * nx / ny

    def g(lam):
        return float(pnorm(x.coords + lam * y.coords, p))

    _, gmin = golden_section_min(g, -r, r, tol=TAU_OPT)
    plain = gmin >= nx * (1.0 - TAU_EQ)
    if not strong or not plain:
        return plain
    if x.space.strictly_convex:
        # the minimiser is unique, and plain orthogonality pins it at 0
        return True
    probe = TAU_PROBE
    bump = nx * TAU_EQ
    return g(probe) > nx + bump and g(-probe) > nx + bump


# ---------------------------------------------------------------------------
# Arc-length machinery for the l_p circle |x|^p + |y|^p = 1.
# ---------------------------------------------------------------------------


def lp_circle(p: Exponent, t) -> np.ndarray:
    """Point(s) on the l_p unit circle at parameter t.

    Parametrization x = sgn(cos t)|cos t|^(2/p), y = sgn(sin t)|sin t|^(2/p).
    """
    t = np.asarray(t, dtype=float)
    e = 2.0 / float(p)
    c, s = np.cos(t), np.sin(t)
    x = np.sign(c) * np.abs(c) ** e
    y = np.sign(s) * np.abs(s) ** e
    return np.stack([x, y], axis=-1)


# Segments of the arc table shared by arc_length_total and property_p_witness.
ARC_TABLE_SIZE = 1 << 15


def arc_length_total(p) -> float:
    """Euclidean length of the l_p unit circle.

    Richardson extrapolation (4 L(m) - L(m/2)) / 3 of the arc tables'
    perimeters at m = ARC_TABLE_SIZE for 1 < p < inf, within 2e-11
    relative of the exact length for 1.001 <= p <= 1000 (the worst case
    near p = 1); the exact polygonal perimeters for p in {1, inf}.
    """
    p = as_exponent(p)
    if p == 1:
        return 4.0 * math.sqrt(2.0)
    if p == INF:
        return 8.0
    m = ARC_TABLE_SIZE
    return (4.0 * _arc_table(p, m)[1][-1] - _arc_table(p, m // 2)[1][-1]) / 3.0


@functools.lru_cache(maxsize=32)
def _arc_table(p: Exponent, m: int):
    """Cumulative Euclidean arc-length table of the l_p circle.

    Returns read-only (points (m+1,2) with wrap row, s (m+1,) cumulative
    lengths), shared by every caller.  The wrap row is the first row:
    lp_circle(p, 2*pi) misses it by |sin(2*pi)|^(2/p), 7e-4 at p = 10.
    """
    t = np.linspace(0.0, 2.0 * math.pi, m + 1)
    pts = lp_circle(p, t)
    pts[-1] = pts[0]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    return _read_only(pts), _read_only(s)


def _interp_on_curve(pts, s, u):
    """Linear interpolation of curve points at cumulative arc positions u."""
    L = s[-1]
    u = np.mod(u, L)
    x = np.interp(u, s, pts[:, 0])
    y = np.interp(u, s, pts[:, 1])
    return np.stack([x, y], axis=-1)


def _arc_table_rows(p: Exponent, m: int, Q) -> np.ndarray:
    """For each point q (row of Q) of the l_p circle, the row of
    _arc_table(p, m) nearest to q in the Euclidean norm, never the wrap row.

    The inverse of lp_circle, t = atan2(sgn(y)|y|^(p/2), sgn(x)|x|^(p/2)),
    names q's row up to rounding; the argmin runs over the two rows on
    either side of it, cyclically.
    """
    pts, _ = _arc_table(p, m)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    e = float(p) / 2.0
    c, s = np.sign(Q.T) * np.abs(Q.T) ** e
    guess = np.rint(np.mod(np.arctan2(s, c), 2.0 * math.pi) * (m / (2.0 * math.pi)))
    # sorted, so that ties go to the lower row as in a full-table argmin
    window = np.sort((guess.astype(int)[:, None] + np.arange(-2, 3)) % m, axis=1)
    d = np.linalg.norm(pts[window] - Q[:, None, :], axis=2)
    return window[np.arange(len(Q)), np.argmin(d, axis=1)]


def _arc_constant_at(p: Exponent, eps: float, m: int) -> float:
    pts, s = _arc_table(p, m)
    L = s[-1]
    u = np.linspace(0.0, L, m, endpoint=False)
    a = _interp_on_curve(pts, s, u)
    b = _interp_on_curve(pts, s, u + eps)
    return float(pnorm(a - b, p, axis=1).min())


def arc_length_constant(p, eps: float, resolution: int | None = None) -> float:
    """The eps-arc-length constant of the l_p circle.

    Minimal l_p chord length between circle points at Euclidean arc
    separation eps (monotone chord-vs-arc on a convex curve reduces the
    search over separations >= eps to exactly eps).  The table resolution is
    doubled until successive values agree to 1e-6 unless `resolution` pins
    it, to at least 2 segments.  Each (p, eps, resolution) is computed once.
    """
    p = as_exponent(p)
    if not (1 < p < INF):
        raise UnsupportedExponentError("arc-length constant needs 1 < p < inf")
    if resolution is not None and not resolution >= 2:
        raise OutOfRangeError(f"resolution must be at least 2, got {resolution}")
    L = arc_length_total(p)
    if not (0.0 < eps < L / 2.0):
        raise OutOfRangeError(f"eps must lie in (0, L/2) = (0, {L / 2.0})")
    return _arc_length_constant(p, float(eps), None if resolution is None else int(resolution))


@functools.lru_cache(maxsize=32)
def _arc_length_constant(p: Exponent, eps: float, resolution: int | None) -> float:
    if resolution is not None:
        return _arc_constant_at(p, eps, resolution)
    m = 1 << 13
    prev = _arc_constant_at(p, eps, m)
    while m < (1 << 17):
        m *= 2
        cur = _arc_constant_at(p, eps, m)
        if abs(cur - prev) < 1e-6:
            return cur
        prev = cur
    return prev
