"""Deterministic unit-sphere sample grids for the supported spaces."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import UnsupportedSpaceError
from .spaces import INF, SpaceSpec, exponent_str, lp_circle


@functools.lru_cache(maxsize=64)
def _cached_grid(p_key, n, resolution):
    space = SpaceSpec(p_key if p_key != "inf" else INF, n)
    grid = _build_grid(space, resolution)
    # one array shared by every caller: a write would corrupt them all
    grid.setflags(write=False)
    return grid


def sphere_grid(space: SpaceSpec, resolution: int) -> np.ndarray:
    """A deterministic, read-only sample of S_X with roughly `resolution`
    points.

    Per-face grids for polyhedral spaces, the trigonometric parametrization
    for 2-D l_p spheres, a Fibonacci grid for the Euclidean 2-sphere.
    """
    pts = _cached_grid(exponent_str(space.p), space.n, int(resolution))
    return pts


def _build_grid(space: SpaceSpec, resolution: int) -> np.ndarray:
    n = space.n
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if space.polyhedral:
        if space.p == INF:
            return _linf_grid(n, resolution)
        return _l1_grid(n, resolution)
    if n == 2:
        t = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
        return lp_circle(space.p, t)
    if space.hilbert and n == 3:
        return _fibonacci_sphere(resolution)
    if space.hilbert:
        rng = np.random.default_rng(20240000 + resolution)
        g = rng.standard_normal((resolution, n))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    raise UnsupportedSpaceError(f"no sampling grid for {space}")


def _linf_grid(n: int, resolution: int) -> np.ndarray:
    """Grid over the 2n facets x_j = +/-1 of the cube: one lattice of the
    free coordinates, with the fixed one inserted per facet."""
    per_facet = max(resolution // (2 * n), 2)
    k = max(int(round(per_facet ** (1.0 / (n - 1)))), 2)
    axis = np.linspace(-1.0, 1.0, k)
    lattice = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"), axis=-1).reshape(-1, n - 1)
    facets = [np.insert(lattice, j, sgn, axis=1) for j in range(n) for sgn in (1.0, -1.0)]
    return np.unique(np.concatenate(facets), axis=0)


def _l1_grid(n: int, resolution: int) -> np.ndarray:
    """Barycentric grids over the 2^n simplex facets of the cross-polytope."""
    per_facet = max(resolution // (2 ** n), 2)
    if n == 2:
        k = per_facet
        lam = np.linspace(0.0, 1.0, k)
        bary = np.stack([lam, 1.0 - lam], axis=1)
    elif n == 3:
        k = max(int(round((2 * per_facet) ** 0.5)), 2)
        rows = []
        for i in range(k + 1):
            for j in range(k + 1 - i):
                rows.append((i / k, j / k, (k - i - j) / k))
        bary = np.array(rows)
    else:
        raise UnsupportedSpaceError("l_1 sampling implemented for n <= 3")
    out = []
    for signs in itertools.product((1.0, -1.0), repeat=n):
        out.append(bary * np.array(signs))
    return np.unique(np.concatenate(out, axis=0), axis=0)


def _fibonacci_sphere(resolution: int) -> np.ndarray:
    i = np.arange(resolution, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / resolution
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = phi * i
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
