"""Small 1-D optimisation helpers used throughout the library."""

import numpy as np

ZOOM_POINTS = 33  # samples per bracket and level; odd, so the centre is one
BISECT_TOL = 1e-12   # bisect_increasing stops once the bracket is narrower
BISECT_REL = 2.0 ** -10  # than BISECT_TOL and than BISECT_REL times its larger
                         # end's magnitude, so a root near 0 is found too
BISECT_MAX_ITER = 200  # halvings after which it stops anyway: near a large
                       # root the doubles are spaced wider than BISECT_TOL
BISECT_LEVELS = 8  # halvings decided per call of g, at 2^8 + 1 points


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


def _halving_points(lo, hi):
    """The 2^BISECT_LEVELS + 1 points that the next BISECT_LEVELS halvings of
    [lo, hi] can reach: the ends and every mid 0.5 * (a + b) of the brackets
    [a, b] on the way, built level by level as the halving loop builds them.
    """
    x = np.empty(_SPAN + 1)
    x[0], x[_SPAN] = lo, hi
    step = _SPAN
    while step > 1:
        half = step // 2
        np.multiply(0.5, x[:-1:step] + x[step::step], out=x[half::step])
        step = half
    return x


def bisect_increasing(g, target, lo, hi):
    """Solve g(x) = target for increasing continuous g on [lo, hi].

    `g` maps an array of x to the array of g(x).  One call gives g at every
    point the next BISECT_LEVELS halvings can reach (`_halving_points`), and
    the loop walks those values with the same mids, test and stops as a loop
    calling g once per halving, so given the same values of g the result
    has that loop's bits.  It
    stops once the bracket is narrower than BISECT_TOL and than BISECT_REL
    times its larger end's magnitude, or after BISECT_MAX_ITER halvings.
    """
    y = g(_halving_points(lo, hi))
    if not (y[0] <= target <= y[_SPAN]):
        raise ValueError("target not bracketed")
    i, j = 0, _SPAN  # lo and hi are the points i and j of the last call
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width < BISECT_TOL and width < BISECT_REL * max(abs(lo), abs(hi)):
            return mid
        if j - i == 1:
            y = g(_halving_points(lo, hi))
            i, j = 0, _SPAN
        k = (i + j) // 2
        if y[k] < target:
            lo, i = mid, k
        else:
            hi, j = mid, k
    return 0.5 * (lo + hi)
