"""Small 1-D optimisation helpers used throughout the library."""

import functools

import numpy as np

ZOOM_POINTS = 33  # samples per bracket and level; odd, so the centre is one
BISECT_TOL = 1e-12   # bisect_increasing stops once the bracket is narrower
BISECT_REL = 2.0 ** -10  # than BISECT_TOL and than BISECT_REL times its larger
                         # end's magnitude, so a root near 0 is found too
BISECT_MAX_ITER = 200  # halvings after which it stops anyway: near a large
                       # root the doubles are spaced wider than BISECT_TOL
BISECT_LEVELS = 8  # halvings a grid call of g decides, at 2^8 + 1 points
_PREDICT_POINTS = 6  # evaluated points a path call's root is predicted from


_ZOOM_U = np.linspace(-1.0, 1.0, ZOOM_POINTS)  # a bracket's samples, centre + half * u
_ZOOM_U.setflags(write=False)
_ZOOM_SHRINK = 2.0 / (ZOOM_POINTS - 1)  # bracket width ratio of one level


def zoom_max(f, centre, half, tol):
    """Maximise f on every bracket [centre - half, centre + half] at once.

    `f` maps a (k, ZOOM_POINTS) array of parameters, one row per bracket,
    to the array of its values.  Each level samples every bracket at
    ZOOM_POINTS equispaced points, the centre among them, and keeps one
    spacing on either side of each row's best sample, clipped to the
    row's first bracket; it stops once that bracket is at most `tol` wide.
    Returns the best samples x and their values f(x), shape (k,) each.
    When f is unimodal on a bracket its maximiser lies in the final
    bracket, within tol of x, and no sample beats f(x), so f(x) is never
    below f(centre).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    # columns, so that every level broadcasts against the row of u
    c = np.atleast_1d(np.asarray(centre, dtype=float))[:, None]
    h = np.empty_like(c)
    h[:, 0] = half
    lo, hi = c - h, c + h
    # flat index of each row's first sample
    first = np.arange(0, len(c) * ZOOM_POINTS, ZOOM_POINTS)[:, None]
    width = 2.0 * float(h.max(initial=0.0))
    while True:
        x = np.multiply(h, _ZOOM_U)
        x += c
        np.minimum(np.maximum(x, lo, out=x), hi, out=x)
        v = f(x)
        best = v.argmax(axis=1, keepdims=True) + first
        c = x.take(best)
        width *= _ZOOM_SHRINK
        if width <= tol:
            return c[:, 0], v.take(best[:, 0])
        h *= _ZOOM_SHRINK


_SPAN = 1 << BISECT_LEVELS  # index of hi among a call's points


@functools.lru_cache(maxsize=64)
def _halving_points(lo, hi):
    """The 2^BISECT_LEVELS + 1 points that the next BISECT_LEVELS halvings of
    [lo, hi] can reach: the ends and every mid 0.5 * (a + b) of the brackets
    [a, b] on the way, built level by level as the halving loop builds them.
    Read-only and memoised by the value of (lo, hi), so -0.0 reads 0.0's.
    """
    x = np.empty(_SPAN + 1)
    x[0], x[_SPAN] = lo, hi
    step = _SPAN
    while step > 1:
        half = step // 2
        np.multiply(0.5, x[:-1:step] + x[step::step], out=x[half::step])
        step = half
    x.setflags(write=False)
    return x


def _path(x, y, target, lo, hi, count):
    """The halving loop's mids from [lo, hi] toward the root r that Neville
    inverse interpolation predicts from the points x and their values y
    (the bracket's middle if two values tie or r leaves it): at most count,
    up to the first bracket the stop test ends."""
    r, v = x.tolist(), y.tolist()
    if len(set(v)) == len(v):  # no divisor below is 0
        for m in range(1, len(r)):
            r = [((target - b) * s + (a - target) * u) / (a - b)
                 for s, u, a, b in zip(r, r[1:], v, v[m:])]
    r = r[0] if len(r) == 1 and lo <= r[0] <= hi else 0.5 * (lo + hi)
    mids = []
    for _ in range(count):
        width = hi - lo
        if width < BISECT_TOL and width < BISECT_REL * max(abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo, hi = (mid, hi) if mid < r else (lo, mid)
    return mids


def bisect_increasing(g, target, lo, hi):
    """Solve g(x) = target for increasing continuous g on [lo, hi].

    `g` maps an array of x to the array of g(x) and must be elementwise: its
    value at x may not depend on the other points of the call.  The first
    call gives g at every point the first BISECT_LEVELS halvings can reach
    (`_halving_points`), each later one at the loop's mids on a path
    predicted from the last call (`_path`), read only where a mid is the
    loop's own; once a path call decides fewer than BISECT_LEVELS halvings,
    grid calls finish, so there is at most one call more than grid calls
    alone.  Given the same values of g the result has the bits of a loop
    calling g once per halving.  It stops once the bracket is narrower than
    BISECT_TOL and than BISECT_REL times its larger end's magnitude, or
    after BISECT_MAX_ITER halvings.
    """
    x = _halving_points(lo, hi)
    y = g(x)
    if not (y[0] <= target <= y[_SPAN]):
        raise ValueError("target not bracketed")
    i, j, k = 0, _SPAN, None  # a grid call's points lo and hi; a path call's next mid
    grid = False  # a path call fell short: grid calls from here on
    for n in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width < BISECT_TOL and width < BISECT_REL * max(abs(lo), abs(hi)):
            return mid
        if (j - i == 1) if k is None else (k == len(x) or x[k] != mid):
            grid = grid or (k is not None and k < BISECT_LEVELS)
            if grid:
                x, i, j, k = _halving_points(lo, hi), 0, _SPAN, None
            else:
                # the _PREDICT_POINTS points of the last call nearest the
                # bracket; on a grid call, its neighbours i - 2 .. i + 3
                x = np.asarray(x)
                if k is None:
                    a = min(max(i - 2, 0), _SPAN + 1 - _PREDICT_POINTS)
                    near = slice(a, a + _PREDICT_POINTS)
                else:
                    near = np.argsort(np.abs(x - mid))[:_PREDICT_POINTS]
                x, k = _path(x[near], y[near], target, lo, hi, BISECT_MAX_ITER - n), 0
            y = g(np.asarray(x))
        m, k = ((i + j) // 2, None) if k is None else (k, k + 1)
        if y[m] < target:
            lo, i = mid, m
        else:
            hi, j = mid, m
    return 0.5 * (lo + hi)
