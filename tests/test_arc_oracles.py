"""Differential tests of the l_p circle's length against the quadrature it
replaced.

`quad_arc_length_total` is the earlier `arc_length_total`, kept verbatim in
logic: adaptive quadrature of the speed of the trigonometric
parametrization over a quarter of the circle.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from bpblab.spaces import ARC_TABLE_SIZE, _arc_table, arc_length_total, as_exponent


def quad_arc_length_total(p):
    e = 2.0 / float(p)

    def speed(t):
        c, s = math.cos(t), math.sin(t)
        dx = -e * abs(c) ** (e - 1.0) * s
        dy = e * abs(s) ** (e - 1.0) * c
        return math.hypot(dx, dy)

    val, _ = quad(speed, 0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-10, limit=400)
    return 4.0 * val


EXPONENTS = [Fraction(101, 100), Fraction(21, 20), Fraction(11, 10), Fraction(4, 3),
             Fraction(3, 2), 2, 3, 4, 10]


@pytest.mark.parametrize("p", EXPONENTS, ids=str)
def test_extrapolated_length_matches_quadrature(p):
    assert arc_length_total(p) == pytest.approx(quad_arc_length_total(p), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("p", EXPONENTS + [50, 1000], ids=str)
def test_every_table_closes_exactly(p):
    for m in (1 << 13, 1 << 14, ARC_TABLE_SIZE):
        pts, s = _arc_table(as_exponent(p), m)
        assert np.array_equal(pts[-1], pts[0]), m
        assert len(pts) == len(s) == m + 1


def test_p10_table_length_matches_quadrature():
    # lp_circle(10, 2*pi) lies 7e-4 below the start, and an open table
    # came out 1e-4 relative short
    total = _arc_table(as_exponent(10), ARC_TABLE_SIZE)[1][-1]
    assert total == pytest.approx(quad_arc_length_total(10), rel=1e-9, abs=0.0)


def test_large_exponent_length_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = arc_length_total(1000)
    # the circle tends to the square of perimeter 8
    assert 7.99 < total < 8.0
