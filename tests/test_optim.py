"""Unit tests of the 1-D kernels in bpblab.optim."""

import math

import numpy as np
import pytest

from bpblab.optim import ZOOM_POINTS, bisect_increasing, zoom_max
from bpblab.spaces import TAU_OPT


def recording(f, levels):
    """f, with every parameter array it is called on appended to levels."""
    def g(x):
        levels.append(np.array(x))
        return f(x)
    return g


@pytest.mark.parametrize("tol", [TAU_OPT, 1e-6, 1e-3])
def test_smooth_peaks_land_within_half_the_final_bracket(tol):
    peaks = np.array([0.3, -1.2, 2.0, 0.0])
    centres = peaks + np.array([0.01, -0.02, 0.0, 0.049])
    levels = []
    x, v = zoom_max(recording(lambda t: -(t - peaks[:, None]) ** 2, levels), centres, 0.05, tol)
    assert np.all(np.abs(x - peaks) <= tol / 2)
    assert np.allclose(v, 0.0, atol=tol ** 2)
    # one spacing on either side of the best sample is the final bracket:
    # at most tol wide at the last level, wider at the one before (row 0
    # is never clipped)
    assert all(lv.shape == (4, ZOOM_POINTS) for lv in levels)
    width = [2 * (lv[0, 1] - lv[0, 0]) for lv in levels]
    assert width[-1] <= tol < width[-2]


def test_kinks_are_found_to_the_bracket_width():
    # maxima of -|.| pieces and of a min of two lines, off the sample grid
    kinks = np.array([math.pi / 7, -math.e / 5])

    def f(t):
        return np.minimum(1.0 - 3.0 * np.abs(t - kinks[:, None]), 2.0 - 0.5 * (t - kinks[:, None]) - 1.0)

    x, v = zoom_max(f, kinks + np.array([0.013, -0.021]), 0.04, TAU_OPT)
    assert np.all(np.abs(x - kinks) <= TAU_OPT / 2)
    assert np.allclose(v, 1.0, rtol=0.0, atol=3 * TAU_OPT)


def test_plateaus_return_a_plateau_value():
    def f(t):
        return np.minimum(1.0, 2.0 - np.abs(t))

    x, v = zoom_max(f, np.array([0.2, -0.9, 1.5]), 0.8, TAU_OPT)
    assert np.all(v == 1.0)
    assert np.all(np.abs(x) <= 1.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_maximum_at_the_bracket_edge_stays_inside_the_bracket(sign):
    centre, half = 0.4, 0.1
    levels = []
    x, v = zoom_max(recording(lambda t: sign * t, levels), centre, half, TAU_OPT)
    edge = centre + sign * half
    assert abs(x[0] - edge) <= TAU_OPT / 2
    assert v[0] == sign * x[0]
    assert all(np.all((lv >= centre - half) & (lv <= centre + half)) for lv in levels)


def test_the_value_never_falls_below_the_centre():
    rng = np.random.default_rng(4)
    a, b, c = rng.standard_normal((3, 200, 1))

    def f(t):
        return a * np.sin(3 * t + b) + np.abs(np.cos(t - c))

    centres = rng.uniform(-3, 3, 200)
    _, v = zoom_max(f, centres, 0.01, TAU_OPT)
    assert np.all(v >= f(centres[:, None])[:, 0])


def test_one_row_per_bracket_with_their_own_widths():
    peaks = np.array([0.1, 0.2, 0.3])
    halves = np.array([0.5, 0.05, 1e-12])
    x, _ = zoom_max(lambda t: -np.abs(t - peaks[:, None]), peaks + halves / 3, halves, 1e-9)
    assert np.all(np.abs(x - peaks) <= 1e-9 / 2)


def test_a_bracket_already_below_tol_is_sampled_once():
    levels = []
    x, v = zoom_max(recording(lambda t: -t * t, levels), 0.5, 1e-12, 1e-10)
    assert len(levels) == 1 and abs(x[0] - 0.5) <= 1e-12 and v[0] == -x[0] ** 2


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_a_nonpositive_tol_is_refused(tol):
    with pytest.raises(ValueError):
        zoom_max(lambda t: -t * t, 0.0, 1.0, tol)


def test_bisect_increasing_solves_a_monotone_equation():
    assert bisect_increasing(lambda x: x ** 3, 8.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-11)
    with pytest.raises(ValueError):
        bisect_increasing(lambda x: x, 10.0, 0.0, 1.0)
