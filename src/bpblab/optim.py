"""Small 1-D optimisation helpers used throughout the library."""

import numpy as np

ZOOM_POINTS = 33  # samples per bracket and level; odd, so the centre is one
BISECT_TOL = 1e-12   # bracket width at which bisect_increasing stops
BISECT_MAX_ITER = 200  # halvings after which it stops anyway: near a large
                       # root the doubles are spaced wider than BISECT_TOL


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
    c = np.atleast_1d(np.asarray(centre, dtype=float))
    h = np.broadcast_to(np.asarray(half, dtype=float), c.shape)
    lo, hi = (c - h)[:, None], (c + h)[:, None]
    u = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    rows = np.arange(len(c))
    shrink = 2.0 / (ZOOM_POINTS - 1)
    width = 2.0 * float(h.max(initial=0.0))
    while True:
        x = c[:, None] + h[:, None] * u
        np.minimum(np.maximum(x, lo, out=x), hi, out=x)
        v = f(x)
        best = np.argmax(v, axis=1)
        c, fc = x[rows, best], v[rows, best]
        h = h * shrink
        width *= shrink
        if width <= tol:
            return c, fc


def bisect_increasing(g, target, lo, hi):
    """Solve g(x) = target for increasing continuous g on [lo, hi]."""
    glo, ghi = g(lo), g(hi)
    if not (glo <= target <= ghi):
        raise ValueError("target not bracketed")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < BISECT_TOL:
            return mid
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
