"""Finite-dimensional real l_p spaces.

Norms and duality, extreme points and the face lattice of the polyhedral
unit balls (p in {1, inf}), supporting functionals, Birkhoff-James
orthogonality, and Euclidean arc-length machinery for the 2-D l_p circle.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import (
    MixedSpacesError,
    NonFiniteError,
    OutOfRangeError,
    UnsupportedExponentError,
    UnsupportedSpaceError,
    ZeroVectorError,
)

INF = math.inf

# Decidability tolerances. The underlying mathematics is exact; these make
# every predicate computable on floats.
TAU_EQ = 1e-9      # relative tolerance for norm equalities
TAU_OPT = 1e-10    # final bracket width of the 1-D zoom search
TAU_SUPPORT_UNIT = 1e-7    # largest | ||f|| - 1 | of an f in J(x) still read as norm one
TAU_SUPPORT_ATTAIN = 1e-7  # largest |f(x) - ||x||| / max(1, ||x||) of an f in J(x)
                           # still read as attaining ||x||

# The most elements one enumeration may build: vertices or faces of a
# polyhedral ball, signed permutations of l_p^n or pairs of them.
ENUMERATION_LIMIT = 10 ** 6

Exponent = Union[Fraction, float]


def as_exponent(value) -> Exponent:
    """Coerce to an exact exponent: a Fraction >= 1 with a finite float, or inf; no bool."""
    if isinstance(value, bool):
        raise UnsupportedExponentError(f"exponent must be a number or 'inf', got {value!r}")
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    if isinstance(value, float) and value == INF:
        return INF
    try:
        p = Fraction(value)
        float(p)
    except OverflowError:  # -inf, or a finite value no float can hold
        raise UnsupportedExponentError(f"exponent out of the float range: {value!r:.24}") from None
    if p < 1:
        raise UnsupportedExponentError(f"exponent must satisfy p >= 1, got {p}")
    return p


def exponent_str(p: Exponent) -> str:
    return "inf" if p == INF else str(Fraction(p))


@dataclass(frozen=True)
class SpaceSpec:
    """A finite-dimensional l_p space: exponent p in [1, inf] and dimension n.

    ``pf`` (p as a float), the flags (from the exact p: 1 + 1e-20 has pf
    1.0) and the hash of (p, n) are set once; none is a field, so equality,
    repr and JSON see (p, n) only.
    """

    p: Exponent
    n: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_exponent(self.p))
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise UnsupportedSpaceError(f"dimension must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "pf", float(self.p))
        object.__setattr__(self, "polyhedral", self.p == 1 or self.p == INF)
        object.__setattr__(self, "strictly_convex", 1 < self.p < INF)
        object.__setattr__(self, "hilbert", self.p == 2)
        object.__setattr__(self, "_hash", hash((self.p, self.n)))

    def __hash__(self):
        return self._hash

    @functools.lru_cache(maxsize=64)
    def dual(self) -> "SpaceSpec":
        """Conjugate-exponent space: 1/p + 1/q = 1, with 1 <-> inf; built
        once per space, as each extremality verdict asks for its
        codomain's dual."""
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


# Above this p the generic norm divides each lane by its largest |v_i|
# before the power.  At or below it every |v_i| in [1e-9, 1e9] has its p-th
# power in the normal float range, so the unscaled bits cost one compare.
UNSCALED_P_MAX = 32.0


def pnorm(v, p: Exponent, axis: int = -1):
    """l_p norm along an axis; vectorized.  Pass a batch of vectors
    coordinate-major, shape (m, rows) with axis=0, so that each pass is one
    contiguous run over the rows, not one tiny loop per row of length m.

    For one vector and 1 < p <= UNSCALED_P_MAX, a norm outside
    [2^-34, 2^34] is measured again scaled by the largest entry, as
    `pnorm_into` does above UNSCALED_P_MAX: its sum of powers may have
    under- or overflowed, and the root's exponent 1/p, rounded, is off by
    a relative ulp times |ln ||v|||, about 3e-14 at 1e200.  Every other
    norm keeps its unscaled bits, and only a norm past the float range
    warns.  A batch keeps the unscaled form: the guard doubled the time
    of a 3 x 7 batch."""
    x = np.array(v, dtype=float)
    pf = float(p)
    if x.ndim != 1 or not 1.0 < pf <= UNSCALED_P_MAX:
        return pnorm_into(x, pf, axis)
    with np.errstate(over="ignore"):
        out = pnorm_into(x, pf, axis)
    if 2.0 ** -34 <= out <= 2.0 ** 34:
        return out
    return _scaled_into(np.array(v, dtype=float), pf, axis)  # x is scratch now


def _scaled_into(v: np.ndarray, pf: float, axis: int):
    """pnorm_into's norm for a finite pf > 1 with each lane divided by its
    largest entry (by 1 if that is 0 or not finite), so no power under- or
    overflows, and multiplied back; v is overwritten as scratch."""
    top = np.abs(v, out=v).max(axis=axis, keepdims=True)
    scale = np.where((top > 0.0) & (top < INF), top, 1.0)
    s = np.power(np.divide(v, scale, out=v), pf, out=v).sum(axis=axis)
    return np.multiply(np.power(s, 1.0 / pf), np.squeeze(scale, axis=axis))


def pnorm_into(v: np.ndarray, p: Exponent, axis: int) -> np.ndarray:
    """pnorm(v, p, axis) with the float array v overwritten as scratch: a
    new array, or a scalar when v is one vector.  It keeps no guard against
    under- or overflow at or below UNSCALED_P_MAX."""
    # branch on the float: p == INF on a Fraction p runs Fraction.__eq__
    pf = float(p)
    if pf == INF:
        return np.abs(v, out=v).max(axis=axis)
    if pf == 1.0:
        return np.abs(v, out=v).sum(axis=axis)
    if pf == 2.0:
        return np.sqrt(np.multiply(v, v, out=v).sum(axis=axis))
    if pf > UNSCALED_P_MAX:
        return _scaled_into(v, pf, axis)
    # `**`, not the ufunc: on a scalar sum it is libm's pow, whose last
    # bit can differ from the vectorised np.power's
    return np.power(np.abs(v, out=v), pf, out=v).sum(axis=axis) ** (1.0 / pf)


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
        # on a few coordinates, Python floats cost less than a numpy call
        if not all(map(math.isfinite, c.tolist())):
            raise NonFiniteError(f"coords must be finite, got {c.tolist()}")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def norm(self) -> float:
        return float(pnorm(self.coords, self.space.pf))

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
    conv{q_i e_i : q_i != 0}.  A value type: the kernels `face_barycentres`
    and `face_distances` compute with the patterns, and containment is
    decided on their sign codes (`sign_codes`, `code_containment`).
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

    @property
    def signs(self) -> str:
        """The sign pattern as a string such as "+0-"."""
        return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in self.pattern)

    def __repr__(self):
        return f"Face({self.space}, {self.signs})"


@functools.lru_cache(maxsize=None)
def _code_bits(n: int) -> np.ndarray:
    """2^0 .. 2^(2n-1) in the smallest unsigned dtype that holds 2n bits,
    Python ints past 64 bits."""
    dtype = np.min_scalar_type((1 << 2 * n) - 1)
    return _read_only(np.array([1 << k for k in range(2 * n)], dtype))


def sign_codes(s: SpaceSpec, rows) -> np.ndarray:
    """One integer per row q of `rows`, sign patterns or vertices in
    {-1, 0, 1}^n: bit j is set when q_j = +1 and bit n + j when q_j = -1.

    A face's code is the set of signs it fixes (cube) or spans
    (cross-polytope), so face containment is a subset test on the codes
    (`code_containment`).  A vertex is the 0-dimensional face whose
    pattern is itself.
    """
    R = np.asarray(rows).reshape(-1, s.n)
    bits = _code_bits(s.n)
    return (R > 0) @ bits[: s.n] + (R < 0) @ bits[s.n:]


def code_containment(s: SpaceSpec, big, small):
    """Whether the face with sign code `small` lies in the face with sign
    code `big`, not necessarily properly; elementwise, with numpy
    broadcasting, on codes of `sign_codes` or Python ints.

    The larger cube face fixes a subset of the smaller one's signs,
    big & ~small == 0; the larger cross-polytope face spans a superset,
    small & ~big == 0.
    """
    if s.pf == INF:
        return (big & ~small) == 0
    return (small & ~big) == 0


def face_containment(s: SpaceSpec, big, small) -> np.ndarray:
    """C[i, j]: whether the face with sign pattern small[j] is a (not
    necessarily proper) subface of the face with sign pattern big[i];
    `code_containment` on the rows' sign codes."""
    return code_containment(s, sign_codes(s, big)[:, None], sign_codes(s, small)[None, :])


def face_distances(s: SpaceSpec, patterns, X) -> np.ndarray:
    """D[f, i]: the distance in the norm of s from row i of X to the face
    with sign pattern patterns[f].

    Closed forms, one coordinate at a time for every face at once: the
    largest of 0 and |x_j - q_j| - [q_j = 0] over j (coordinate clamping)
    for a cube face; ||x||_1 - P + |P - 1| with P = sum((q_j x_j)_+) (the
    nearest point of the simplex conv{q_j e_j}) for a cross-polytope face.
    Rows of another dimension than s are refused.
    """
    if X.shape[1] != s.n:
        raise MixedSpacesError(f"rows of dimension {X.shape[1]} do not live in {s}")
    Q = np.asarray(patterns, dtype=float).reshape(len(patterns), s.n)
    out = np.zeros((len(Q), len(X)))
    tmp, pos = np.zeros((2, *out.shape))
    # where no face fixes a coordinate (or, on l_inf, none frees it), its
    # pass would only subtract or add zeros, which changes no bit
    if s.p == INF:
        for x, q, c in zip(X.T, Q.T[:, :, None], Q.T.tolist()):
            if any(c):
                np.abs(np.subtract(x, q, out=tmp), out=tmp)
            else:
                np.abs(x, out=tmp)
            if not all(c):
                np.subtract(tmp, 1.0 - abs(q), out=tmp)
            np.maximum(out, tmp, out=out)
        return out
    for x, q, c in zip(X.T, Q.T[:, :, None], Q.T.tolist()):
        np.add(out, np.abs(x, out=tmp), out=out)
        if any(c):
            # fmax, not maximum: an infinite x_j off the support adds 0, not nan
            np.add(pos, np.fmax(np.multiply(x, q, out=tmp), 0.0, out=tmp), out=pos)
    np.subtract(out, pos, out=out)
    np.add(out, np.abs(np.subtract(pos, 1.0, out=pos), out=pos), out=out)
    return out


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


def _check_int(value, name: str, lo: int) -> int:
    """value as an int; ValueError naming `name` for a bool, a non-integer or a value below lo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value}")
    return int(value)


def _check_finite(a: np.ndarray, name: str) -> None:
    """Refuse, naming `name`, a float array holding NaN or an infinity."""
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise NonFiniteError(f"{name} must be finite, got {a.tolist()}")


def _check_eps(eps, hi=2.0, lo=0, name="eps"):
    """Refuse, naming `name`, an eps that is a bool or no real number, or
    lies outside (lo, hi); NaN lies outside."""
    # a float skips the slower ABC check; True is no eps
    if not isinstance(eps, float) and (isinstance(eps, bool) or not isinstance(eps, numbers.Real)):
        raise OutOfRangeError(f"{name} must be a real number, got {eps!r}")
    if not (lo < eps < hi):
        raise OutOfRangeError(f"{name} must lie in ({lo}, {hi}), got {eps}")


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
    ``itertools.product((-1, 0, 1))`` order, one row each, and
    ``barycentres`` their barycentres; the face kernels take these rows.
    ``faces`` holds one `Face` per row, the objects
    every faces `AttainmentSet` of the space shares, and ``rows`` maps each
    face's pattern tuple to its row.  The face fields are built on first
    use.  Either raises OutOfRangeError, before
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
    def rows(self) -> dict:
        return {f.pattern: i for i, f in enumerate(self.faces)}

    @functools.cached_property
    def barycentres(self) -> np.ndarray:
        return _read_only(face_barycentres(self.space, self.patterns))


@functools.lru_cache(maxsize=32)
def polyhedral_table(s: SpaceSpec) -> PolyhedralTable:
    """The cached PolyhedralTable of a polyhedral space."""
    return PolyhedralTable(s)


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
            if abs(f.norm() - 1.0) > TAU_SUPPORT_UNIT:
                raise OutOfRangeError("supporting functional is not norm-one")
            if abs(float(f.coords @ self.point.coords) - nx) > TAU_SUPPORT_ATTAIN * max(1.0, nx):
                raise OutOfRangeError("functional does not attain the norm at x")
            if f.space != dual:
                raise MixedSpacesError("functional not in the dual space")


def _support_rows(x: Point, nx: float) -> np.ndarray:
    """J(x) as the rows of an array: the duality map on strictly convex
    spaces, else the vertices f of the dual ball with
    f(x) >= ||x|| (1 - TAU_EQ), the extreme points of J(x), in
    `PolyhedralTable.vertices` order."""
    c = x.coords
    if x.space.strictly_convex:
        pf = x.space.pf
        return (np.sign(c) * np.abs(c) ** (pf - 1.0) / nx ** (pf - 1.0))[None, :]
    V = polyhedral_table(x.space.dual()).vertices
    return V[V @ c >= nx * (1.0 - TAU_EQ)]


def support_functionals(x: Point) -> SupportSet:
    """The supporting functionals J(x) of a nonzero vector: the duality
    map on strictly convex spaces, else the supporting vertices of the
    dual ball in `PolyhedralTable.vertices` order."""
    nx = x.norm()
    if nx == 0.0:
        raise ZeroVectorError("J(x) is undefined for x = 0")
    dual = x.space.dual()
    gens = tuple(Point(f, dual) for f in _support_rows(x, nx))
    return SupportSet(x, gens, len(gens) == 1)


def is_smooth_point(x: Point) -> bool:
    """True iff J(x) is a singleton."""
    nx = x.norm()
    if nx == 0.0:
        raise ZeroVectorError("smoothness is undefined for x = 0")
    return len(_support_rows(x, nx)) == 1


def birkhoff_orthogonal(x: Point, y: Point, strong: bool = False) -> bool:
    """Birkhoff-James orthogonality x _|_B y, read off J(x).

    The one-sided derivatives of lambda -> ||x + lambda*y|| at 0 are the
    least and the greatest f(y) over f in J(x), lo and hi.  The function
    is convex, so 0 is a minimiser, x _|_B y, iff lo <= 0 <= hi (James,
    1947).  Strong orthogonality asks that 0 be the only minimiser:
    lo < 0 < hi on polyhedral spaces, where the norm is piecewise linear
    along the line, and plain orthogonality on strictly convex ones.  Both
    compare with the tolerance TAU_EQ * ||y||.
    """
    if x.space != y.space:
        raise MixedSpacesError("Birkhoff-James orthogonality needs one space")
    if not strong or x.space.strictly_convex:
        # y = 0 is orthogonal to every x, never strongly
        return bool(_orthogonal_columns(x, y.coords[:, None])[0]) and not (strong and y.norm() == 0.0)
    nx = x.norm()
    if nx == 0.0:
        raise ZeroVectorError("x must be nonzero")
    fy = _support_rows(x, nx) @ y.coords
    tol = TAU_EQ * y.norm()
    return bool(fy.min() < -tol and fy.max() > tol)


def _orthogonal_columns(x: Point, Y: np.ndarray) -> np.ndarray:
    """birkhoff_orthogonal(x, y) for every column y of Y, in x's space,
    from one product J(x) @ Y, with its rule and its tolerance
    TAU_EQ * ||y||."""
    nx = x.norm()
    if nx == 0.0:
        raise ZeroVectorError("x must be nonzero")
    fy = _support_rows(x, nx) @ Y
    tol = TAU_EQ * pnorm(Y, x.space.pf, axis=0)
    return (fy.min(axis=0) <= tol) & (fy.max(axis=0) >= -tol)


# ---------------------------------------------------------------------------
# Arc-length machinery for the l_p circle |x|^p + |y|^p = 1.
# ---------------------------------------------------------------------------


def lp_circle(p: Exponent, t) -> np.ndarray:
    """Point(s) on the l_p unit circle at parameter t.

    Parametrization x = sgn(cos t)|cos t|^(2/p), y = sgn(sin t)|sin t|^(2/p).
    """
    t = np.asarray(t, dtype=float)
    e = 2.0 / float(p)
    out = np.empty(t.shape + (2,))
    # sgn * |.| ** e, not np.copysign or np.power: on a 0-d t `**` is libm's
    # pow, whose last bit can differ from np.power's, and copysign would put
    # 1.0, not 0, at sin(0) when p = inf
    c = np.cos(t)
    out[..., 0] = np.sign(c) * np.abs(c) ** e
    c = np.sin(t)
    out[..., 1] = np.sign(c) * np.abs(c) ** e
    return out


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
    The points are Fortran-ordered, so that each coordinate column is
    contiguous and np.interp reads it without a copy.
    """
    t = np.linspace(0.0, 2.0 * math.pi, m + 1)
    pts = np.asfortranarray(lp_circle(p, t))
    pts[-1] = pts[0]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    return _read_only(pts), _read_only(s)


@functools.lru_cache(maxsize=32)
def _arc_witness_table(p: Exponent):
    """The isolation witnesses of the arc strategy on the l_p circle, for
    an integer p > 2: read-only (K = 2(16p - 9), the circle's length L,
    the K unit midpoints of the K arcs of length L / K that the arc table
    cuts it into, one row each, and r0 = arc_length_constant(p, L / 2K)).

    A witness depends only on p and the first free arc, so each p
    interpolates its K midpoints in one call and normalises each with the
    scalar pnorm, as a witness computed on its own would.
    """
    K = 2 * (16 * int(p) - 9)
    L = arc_length_total(p)
    pts, s = _arc_table(p, ARC_TABLE_SIZE)
    X = _interp_on_curve(pts, s, (np.arange(K) + 0.5) * (L / K)).T.copy()
    for x in X:
        x /= float(pnorm(x, p))
    return K, L, _read_only(X), arc_length_constant(p, L / (2.0 * K))


def _interp_on_curve(pts, s, u):
    """Linear interpolation of curve points at cumulative arc positions u,
    coordinate-major: shape (2, len(u)), one row per coordinate."""
    L = s[-1]
    u = np.mod(u, L)
    return np.stack([np.interp(u, s, pts[:, 0]), np.interp(u, s, pts[:, 1])])


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
    return float(pnorm(a - b, p, axis=0).min())


def arc_length_constant(p, eps: float) -> float:
    """The eps-arc-length constant of the l_p circle.

    Minimal l_p chord length between circle points at Euclidean arc
    separation eps (monotone chord-vs-arc on a convex curve reduces the
    search over separations >= eps to exactly eps).  The table's segment
    count is doubled from 2^13 until successive values agree to 1e-6, up
    to 2^17.  Each (p, eps) is computed once.
    """
    p = as_exponent(p)
    if not (1 < p < INF):
        raise UnsupportedExponentError("arc-length constant needs 1 < p < inf")
    _check_eps(eps, hi=INF)  # a bad eps is refused before the circle is measured
    L = arc_length_total(p)
    _check_eps(eps, hi=L / 2.0)
    return _arc_length_constant(p, float(eps))


@functools.lru_cache(maxsize=32)
def _arc_length_constant(p: Exponent, eps: float) -> float:
    m = 1 << 13
    prev = _arc_constant_at(p, eps, m)
    while m < (1 << 17):
        m *= 2
        cur = _arc_constant_at(p, eps, m)
        if abs(cur - prev) < 1e-6:
            return cur
        prev = cur
    return prev
