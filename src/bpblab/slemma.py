"""Exact far-set maxima for certificates on l_2^n, n >= 3.

For T: l_2^n -> l_2^m, Q = T^T T and an attainment set M, the unit
vectors of range(P) for an orthogonal projector P, a unit x lies
d(x, M) = sqrt(2 - 2 ||Px||) from M.  So d(x, M) >= eps iff
s = ||Px||^2 <= c = (1 - eps^2/2)^2, and no x does when eps > sqrt 2.  A
certificate needs g^2, the largest x^T Q x over unit x with s <= c; with
F(s) the largest x^T Q x over unit x at a given s, g^2 is the maximum of
F on [0, c].  For n >= 3 the S-lemma makes this exact (Polik and
Terlaky, "A survey of the S-lemma", SIAM Review 2007).

When dim M is 1 or n - 1, P or I - P is b b^T for one unit b, and a unit x
is sqrt(a) b + sqrt(1 - a) C beta, with a = s or 1 - s, C an orthonormal
basis of b's complement and beta a unit vector.  Let mu_1 >= mu_2 >= ...
be the eigenvalues of C^T Q C, t the coordinates of C^T Q b in its
eigenbasis, q = b^T Q b, S1 = sum t_i^2 / (nu - mu_i) and
S2 = sum t_i^2 / (nu - mu_i)^2.  At a fixed a the maximum over beta is a
trust-region boundary problem, and weak duality bounds it at every
nu > mu_1:

    H(a) <= a q + (1 - a) nu + a S1(nu),

with equality at the root of the secular equation a S2(nu) = 1 - a (More
and Sorensen, "Computing a trust region step", SIAM J. Sci. Stat. Comput.
1983).  When t_1 = 0 and a S2 <= 1 - a just above mu_1 (the hard case),
the bound tends to the maximum as nu falls to mu_1.  Along the roots
dH/da = q + S1 - nu, which falls as a grows, so H, and with it F, is
concave.

The maximum of F on [0, c] lies inside (F(s) = ||T||^2) when T's top
singular subspace meets {s <= c}, else at s = c.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .operators import TAU_GAP, TAU_SECULAR, OperatorMatrix, _analysis, orthogonal_complement
from .spaces import Point

SECULAR_MAX_ITER = 60  # Newton steps of one secular solve; they rise monotonically
CROSSING_MAX_ITER = 40  # chord-and-tangent steps of the worst-distance solve


class HilbertSupplier:
    """The T side of an exact certificate on l_2^n -> l_2^m, n >= 3: the
    eigendata of Q = T^T T read off T's memoised SVD, in the coordinates
    y = Vt x of its right singular vectors, where Q is diagonal."""

    def __init__(self, T: OperatorMatrix):
        s, Vt = _analysis(T).data
        s = s.tolist()
        self.space, self.n, self.Vt, self.norm = T.domain, T.domain.n, Vt, s[0]
        # the eigenvalues of Q, as Python floats: the kernels below work on
        # n and n - 1 numbers, where numpy's per-call cost dominates
        self.D = [x * x for x in s] + [0.0] * (self.n - len(s))
        # the top singular subspace, with attainment_set's gap: a wider one
        # only makes the interior case, g = ||T||, more frequent
        cut = s[0] - TAU_GAP * max(s[0], 1.0)
        self.k = sum(x >= cut for x in s)

    def profile(self, M) -> Optional[_Profile]:
        """T against the subspace attainment set M, None unless dim M is
        1, n - 1 or n."""
        k = M.subspace_dim
        if k not in (1, self.n - 1, self.n):
            return None
        return _Profile(self, M)


class _Profile:
    """The secular data of T against one attainment set M: `sense` +1
    when b spans M (a = s), -1 when it spans M's complement (a = 1 - s);
    `w` = Vt b; the eigenvalues `mu` (descending) of the compression of Q
    to w's complement, its eigenvectors U (in the y coordinates, the
    columns of `_V` after the first, reversed) and `t` = U^T Q w;
    `q` = w^T Q w; `s_top`, the least s on T's top singular subspace.
    dim M = n leaves the far set empty (`full`)."""

    def __init__(self, side: HilbertSupplier, M):
        self.side = side
        self.full = M.subspace_dim == side.n
        if self.full:
            return
        if M.subspace_dim == 1:
            b, self.sense = M.basis[:, 0], 1.0
        else:
            b, self.sense = orthogonal_complement(M.basis)[:, 0], -1.0
        n, D = side.n, side.D
        self.w = side.Vt @ b
        w = self.w.tolist()
        u = [d * x for d, x in zip(D, w)]
        q = sum(x * y for x, y in zip(w, u))
        # (I - w w^T) D (I - w w^T) - w w^T = D - w v^T - v w^T: the
        # compression, and -1 on w, below every eigenvalue of the
        # compression (Q is positive semidefinite)
        v = [y - 0.5 * (q - 1.0) * x for x, y in zip(w, u)]
        K = [[-w[i] * v[j] - v[i] * w[j] for j in range(n)] for i in range(n)]
        for i in range(n):
            K[i][i] += D[i]
        gam, self._V = np.linalg.eigh(K)
        self.q, self.mu = q, gam.tolist()[:0:-1]
        self.t = [sum(x * y for x, y in zip(u, col)) for col in self._V.T.tolist()[:0:-1]]
        self.t2 = [x * x for x in self.t]
        if self.sense > 0:
            self.s_top = w[0] * w[0] if side.k == 1 else 0.0
        else:
            self.s_top = 1.0 - sum(x * x for x in w[: side.k])
        # the least step above mu_1 taken: far enough that nu - mu_1 > 0
        self.hmin = 4.0 * math.ulp(D[0])

    def _boundary(self, a: float):
        """(H(a), dH/da, nu): the dual bound at the secular root nu of
        1-D coordinate a, reached by Newton on 1/sqrt(S2) from below, or
        at mu_1 + hmin when the root lies below that (the hard case)."""
        mu, t2, q = self.mu, self.t2, self.q
        if a <= 0.0:
            return mu[0], math.inf, mu[0]
        if a >= 1.0:
            return q, -math.inf, math.inf
        r = (1.0 - a) / a
        # S2(nu) >= t_1^2 / (nu - mu_1)^2, so this start is not past the root
        nu = mu[0] + max(math.sqrt(t2[0] / r), self.hmin)
        for _ in range(SECULAR_MAX_ITER):
            s2 = s3 = 0.0
            for m, tt in zip(mu, t2):
                d = 1.0 / (nu - m)
                s2 += tt * d * d
                s3 += tt * d * d * d
            if s2 <= r:
                break
            step = s2 * (math.sqrt(s2 / r) - 1.0) / s3
            if nu + step == nu:
                break
            nu += step
        s1 = sum(tt / (nu - m) for m, tt in zip(mu, t2))
        return a * q + (1.0 - a) * nu + a * s1, q + s1 - nu, nu

    def _coordinate(self, s: float) -> float:
        return s if self.sense > 0 else 1.0 - s

    def _far(self, eps: float):
        """(g, where): the far-set maximum before rounding and where it
        lies: (-inf, None) when no unit z is at least eps from M, (||T||,
        ()) inside, or (g, (a, nu)) on the boundary."""
        r = 1.0 - 0.5 * eps * eps
        if self.full or r < 0.0:
            return -math.inf, None
        c = r * r
        if self.s_top <= c:
            return self.side.norm, ()
        a = self._coordinate(c)
        H, _, nu = self._boundary(a)
        return math.sqrt(max(H, 0.0)), (a, nu)

    def far_maximum(self, eps: float) -> float:
        """g, sup ||Tz|| over unit z with d(z, M) >= eps, rounded up by
        TAU_SECULAR; -inf when no z is that far."""
        return self._far(eps)[0] + TAU_SECULAR

    def far_point(self, eps: float) -> Optional[Point]:
        """A maximiser of ||Tz|| over unit z with d(z, M) >= eps, interior
        or boundary; None when no z is that far."""
        where = self._far(eps)[1]
        if where is None:
            return None
        return self._boundary_point(*where) if where else self._top_point()

    def _top_point(self) -> Point:
        """A unit vector of T's top singular subspace with s <= s_top."""
        k, w = self.side.k, self.w
        y = np.zeros(self.side.n)
        if self.sense < 0:
            y[:k] = w[:k]  # most of the complement's direction
        elif k >= 2:
            y[0], y[1] = -w[1], w[0]  # a top direction orthogonal to w
        if not y.any():
            y[0] = 1.0
        return self._point(y)

    def _boundary_point(self, a: float, nu: float) -> Point:
        """The maximiser at 1-D coordinate a: beta_i proportional to
        t_i / (nu - mu_i), its first entry refilled to a unit beta, which
        is the hard case's component on mu_1's eigenvector."""
        if a >= 1.0:
            return self._point(self.w.copy())
        scale = math.sqrt(a / (1.0 - a))
        beta = [scale * t / (nu - m) for t, m in zip(self.t, self.mu)]
        rest = sum(x * x for x in beta[1:])
        beta[0] = math.copysign(math.sqrt(max(1.0 - rest, 0.0)), beta[0])
        U = self._V[:, :0:-1]
        return self._point(math.sqrt(a) * self.w + math.sqrt(1.0 - a) * (U @ beta))

    def _point(self, y: np.ndarray) -> Point:
        x = y @ self.side.Vt
        return Point(x / math.sqrt(x @ x), self.side.space)

    def worst_distance(self, level: float) -> float:
        """sup d(z, M) over unit z with ||Tz|| >= level: sqrt(2 - 2 sqrt(s))
        at the least s with F(s) >= level^2."""
        if self.full:
            return 0.0
        s = self._least_s(level * level)
        return math.sqrt(max(2.0 - 2.0 * math.sqrt(s), 0.0))

    def _least_s(self, L2: float) -> float:
        """The least s in [0, s_top] with F(s) >= L2.  F is concave and
        rises on [0, s_top], so a chord of a bracket [lo, hi] meets L2 at
        or above the root (a new hi) and a tangent at hi at or below it
        (a new lo); the chord's first step also handles the infinite slope
        that F can have at 0."""
        side = self.side
        lo, hi = 0.0, self.s_top
        f_lo = self._boundary(self._coordinate(lo))[0]
        # on the top subspace x^T Q x is at least its smallest eigenvalue
        f_hi = side.D[side.k - 1]
        if f_lo >= L2 or f_hi < L2:
            return lo if f_lo >= L2 else hi
        for _ in range(CROSSING_MAX_ITER):
            s = lo + (hi - lo) * ((L2 - f_lo) / (f_hi - f_lo))
            if not lo < s < hi:
                break
            f, slope = self._boundary(self._coordinate(s))[:2]
            if f == L2:
                return s
            if f < L2:
                lo, f_lo = s, f
                continue
            hi, f_hi = s, f
            slope *= self.sense
            s = hi - (f_hi - L2) / slope if slope > 0.0 else hi
            if lo < s < hi:
                f = self._boundary(self._coordinate(s))[0]
                if f < L2:
                    lo, f_lo = s, f
                else:
                    hi, f_hi = s, f
        return hi
