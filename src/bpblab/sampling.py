"""Deterministic unit-sphere samples: grids, and the polyhedral corner sets."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import UnsupportedSpaceError
from .spaces import INF, SpaceSpec, _check_int, _check_table_size, _read_only, pnorm


# typed: True and 2.0 are keys of their own, not the cached grids of 1 and 2
@functools.lru_cache(maxsize=64, typed=True)
def sphere_grid(space: SpaceSpec, resolution: int) -> np.ndarray:
    """A deterministic sample of S_X with roughly `resolution` points: one
    cached read-only array per (space, resolution).

    +-1 for n = 1; the cube lattice's surface for p = inf; for 1 <= p < inf
    and n <= 3, the cross-polytope lattice L = {x / k : x in Z^n,
    ||x||_1 = k} of `_l1_grid` with each row divided by its l_p norm.  l_2^n
    with n >= 4 takes a seeded random grid; other n >= 4 are refused, as
    is a resolution that is not an integer of at least 0.

    Covering radius, up to rounding: each z in S_X lies within
    h_p <= 2 s n^(1 - 1/p) in l_p of a row (h_1 <= s), s being the l_1
    covering radius of L.  For u, v != 0 in any norm, u/||u|| - v/||v|| is
    (u - v)/||v|| plus u (||v|| - ||u||)/(||u|| ||v||), each of norm at most
    ||u - v||/||v||.  Hoelder gives ||v||_p >= n^(1/p - 1) ||v||_1.  So for
    v = z/||z||_1 (z = v/||v||_p) and u in L with ||u - v||_1 <= s, the row
    u/||u||_p lies within 2 ||u - v||_p / ||v||_p <= 2 s n^(1 - 1/p) of z.
    - n = 2: an edge of L holds (a, 1 - a) with a in steps of
      1/(per_facet - 1), per_facet = max(resolution // 4, 2); each a is
      within half a step of one, and moving a by t moves the point 2t in
      l_1, so s = 1/(per_facet - 1).
    - n = 3: on a facet, k|v| = f + r with f integral, r in [0, 1)^3, and
      d = sum r in {0, 1, 2} as sum k|v| = k.  Adding 1 to the d largest
      r_i lands in kL on that facet, at l_1 distance 0, 2 (1 - r_max) with
      r_max >= 1/3, or 2 r_min with r_min <= 2/3.  So s = 4/(3k).
    """
    n, resolution = space.n, _check_int(resolution, "resolution", 0)
    if n == 1:
        grid = np.array([[1.0], [-1.0]])
    elif space.p == INF:
        grid = _linf_grid(n, resolution)
    elif space.hilbert and n >= 4:
        g = np.random.default_rng(20240000 + resolution).standard_normal((resolution, n))
        grid = g / np.linalg.norm(g, axis=1, keepdims=True)
    elif n >= 4:
        raise UnsupportedSpaceError(f"no sampling grid for {space}: n <= 3 off l_2 and l_inf")
    else:
        grid = _l1_grid(n, resolution)
        if space.p != 1:
            grid = grid / pnorm(grid.T, space.p, axis=0)[:, None]
    # one array shared by every caller: a write would corrupt them all
    grid.setflags(write=False)
    return grid


def _linf_grid(n: int, resolution: int) -> np.ndarray:
    """The points of A^n, A = linspace(-1, 1, k), with some coordinate +-1
    (the 2n facets x_j = +-1 of the cube), in lexicographic order."""
    per_facet = max(resolution // (2 * n), 2)
    k = max(int(round(per_facet ** (1.0 / (n - 1)))), 2)
    axis = np.linspace(-1.0, 1.0, k)
    head = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"), axis=-1).reshape(-1, n - 1)
    # a head on a facet takes all k last coordinates, any other head only +-1
    on_facet = (np.abs(head) == 1.0).any(axis=1)
    count = np.where(on_facet, k, 2)
    row = np.repeat(np.arange(len(head)), count)
    offset = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    j = offset * np.where(on_facet, 1, k - 1)[row]
    return np.column_stack([head[row], axis[j]])


def _l1_grid(n: int, resolution: int) -> np.ndarray:
    """The integer points x with ||x||_1 = k, scaled onto the l_1 sphere, in
    lexicographic order (n = 2, 3).  On n = 3 a row is x / k; on n = 2 it
    is +-(lam, 1 - lam), lam = linspace(0, 1, k + 1)[|x_1|], signed as x."""
    if n == 2:
        k = max(resolution // 4, 2) - 1
    else:
        k = max(int(round((2 * max(resolution // 8, 2)) ** 0.5)), 2)
    axis = np.arange(-k, k + 1)
    head = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"), axis=-1).reshape(-1, n - 1)
    rest = k - np.abs(head).sum(axis=1)
    head, rest = head[rest >= 0], rest[rest >= 0]
    # each head takes the last coordinate -rest, then +rest; once if rest = 0
    i, j = np.nonzero(np.stack([rest > 0, rest >= 0], axis=1))
    x = np.column_stack([head[i], (2 * j - 1) * rest[i]])
    if n == 3:
        return x / k
    lam = np.linspace(0.0, 1.0, k + 1)[np.abs(x[:, 0])]
    return np.column_stack([np.copysign(lam, x[:, 0]), np.copysign(1.0 - lam, x[:, 1])])


@functools.lru_cache(maxsize=64)
def corner_points(space: SpaceSpec, eps: float) -> np.ndarray:
    """A finite subset of S_X that holds, for every operator T and union M
    of faces of the ball, a maximiser of ||Tz|| over the z in S_X with
    d(z, M) >= eps: one cached read-only array per (space, eps).  eps is
    read in [2^-52, 2]: at 2 the set is the vertices, which lie at most 2
    from any face; below 2^-52, where 1 - eps/2 rounds to 1, the points
    2^-52 from the faces stand in, which moves g by rounding-size amounts.

    ||T.|| is convex, so on each polytope below it peaks at a vertex.
    - l_inf^n: {+-1, +-(1 - eps)}^n with some coordinate +-1 (56 points on
      n = 3; past ENUMERATION_LIMIT, OutOfRangeError names n).  On the facet
      z_k = s, d(z, f) for a cube face f is the largest 1 - f_j z_j over the
      j != k f fixes (or 0 or 2 from k), so {d(z, M) >= eps} is a union of
      boxes with faces at +-1 and +-(1 - eps).
    - l_1^n, n <= 3: s o t, s a sign vector and t in the simplex with
      n - 1 of the t_i in {0, eps/2, 1 - eps/2}, 78 points on n = 3.  On the
      facet of s, d(z, f) = 2 (1 - P), P the sum of the t_j whose sign f
      spans, so d(z, f) >= eps cuts t_i <= 1 - eps/2 or t_i >= eps/2, or
      nothing.  n >= 4 is refused, as in sphere_grid.
    """
    n, e = space.n, min(max(float(eps), 2.0 ** -52), 2.0)
    if space.p == INF:
        _check_table_size(n, 4 ** n, "corner candidates")
        axis = np.unique([-1.0, e - 1.0, 1.0 - e, 1.0])
        Z = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
        Z = Z[(np.abs(Z) == 1.0).any(axis=1)]
    elif n >= 4:
        raise UnsupportedSpaceError(f"no corner set for {space}: n <= 3 off l_inf")
    else:
        head = np.array(list(itertools.product((0.0, e / 2.0, 1.0 - e / 2.0), repeat=n - 1)))
        t = np.column_stack([head, 1.0 - head.sum(axis=1)])
        t = np.concatenate([np.roll(t[t[:, -1] >= 0.0], k, axis=1) for k in range(n)])
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
        # + 0.0 turns the -0.0 of a flipped zero into 0.0, so np.unique merges them
        Z = np.unique((t[:, None, :] * signs).reshape(-1, n) + 0.0, axis=0)
    return _read_only(Z)
