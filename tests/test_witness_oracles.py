"""Differential tests of the l_p^2 isolation witness against the code it
replaced, and of the norm-one rule that guards it.

`full_scan_witness` is the earlier arc strategy of `property_p_witness`,
kept verbatim in logic: `require_norm_one`, then `attainment_set`, then a
Euclidean argmin over every row of the arc table for each attainment
point, and the doubling loop of `arc_length_constant` run afresh.
"""

import math

import numpy as np
import pytest

from bpblab import spaces
from bpblab.approximants import _finish
from bpblab.bpbverify import epsilon0_lp2, property_p_witness, verify_uniform_bpb
from bpblab.errors import ConstructionError, NormNotOneError, OutOfRangeError
from bpblab.operators import (
    TAU_NORM_ONE,
    attainment_set,
    op_norm,
    operator,
    require_norm_one,
)
from bpblab.spaces import (
    ARC_TABLE_SIZE,
    _arc_constant_at,
    _arc_table,
    _arc_table_rows,
    _interp_on_curve,
    arc_length_constant,
    arc_length_total,
    as_exponent,
    l1,
    l2,
    linf,
    lp,
    lp_circle,
    pnorm,
)

EXPONENTS = (3, 4, 5, 10)


def doubling_loop(p, eps):
    m = 1 << 13
    prev = _arc_constant_at(p, eps, m)
    while m < (1 << 17):
        m *= 2
        cur = _arc_constant_at(p, eps, m)
        if abs(cur - prev) < 1e-6:
            return cur
        prev = cur
    return prev


def full_scan_witness(A, resolution):
    require_norm_one(A, "A")
    MA = attainment_set(A, resolution=resolution)
    p = A.domain.p
    K = 2 * (16 * int(p) - 9)
    L = arc_length_total(p)
    tab_pts, s = _arc_table(p, ARC_TABLE_SIZE)
    occupied = set()
    for q in MA.points:
        i = int(np.argmin(np.linalg.norm(tab_pts - q, axis=1)))
        occupied.add(int(s[i] / (L / K)) % K)
    free = next(a for a in range(K) if a not in occupied)
    x = _interp_on_curve(tab_pts, s, np.array([(free + 0.5) * (L / K)]))[0]
    x = x / float(pnorm(x, p))
    return x, doubling_loop(p, L / (2.0 * K))


def norm_one(rng, space):
    M = rng.standard_normal((space.n, space.n))
    v, _ = op_norm(operator(M, space, space))
    return operator(M / v, space, space)


@pytest.mark.parametrize("resolution", (2048, 4096))
@pytest.mark.parametrize("p", EXPONENTS)
def test_witness_matches_full_table_scan(p, resolution):
    rng = np.random.default_rng(100 * p + resolution)
    space = lp(p, 2)
    for _ in range(10):
        A = norm_one(rng, space)
        w = property_p_witness(A, resolution=resolution)
        x, r0 = full_scan_witness(A, resolution)
        assert np.array_equal(w.x_A.coords, x)
        assert w.r0 == r0


def circle_points(p, m, count, rng):
    """Seeded points of the l_p circle: uniform parameters, the table rows
    themselves, the axes and parameters within rounding of them."""
    edges = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi])
    near = (edges[:, None] + np.array([-1e-12, -1e-15, 0.0, 1e-15, 1e-12])).ravel()
    rows = 2.0 * math.pi * rng.integers(0, m + 1, size=count // 8) / m
    half_rows = rows + math.pi / m
    t = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, count), rows, half_rows, near])
    return lp_circle(p, t)


def full_table_rows(p, m, Q, chunk=64):
    pts, _ = _arc_table(p, m)
    out = []
    for k in range(0, len(Q), chunk):
        d = np.linalg.norm(pts[None, :, :] - Q[k:k + chunk, None, :], axis=2)
        out.append(np.argmin(d, axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("p", EXPONENTS)
def test_window_lookup_matches_full_argmin(p):
    rng = np.random.default_rng(7 + p)
    p = as_exponent(p)
    checked = 0
    for m, count in ((1 << 10, 3500), (1 << 12, 1500), (ARC_TABLE_SIZE, 200)):
        Q = circle_points(p, m, count, rng)
        assert np.array_equal(_arc_table_rows(p, m, Q), full_table_rows(p, m, Q))
        checked += len(Q)
    assert checked >= 5000  # at least 20k points across the four exponents


@pytest.mark.parametrize("p", EXPONENTS)
def test_cached_constant_is_the_doubling_loop(p):
    L = arc_length_total(p)
    K = 2 * (16 * p - 9)
    for eps in (L / (2.0 * K), L / (2.0 * (16 * p - 9)), 0.05, 0.3):
        assert arc_length_constant(p, eps) == doubling_loop(as_exponent(p), eps)
        assert arc_length_constant(p, eps) == arc_length_constant(p, eps)
    assert arc_length_constant(p, 0.05, resolution=1 << 12) == _arc_constant_at(
        as_exponent(p), 0.05, 1 << 12
    )


def test_second_witness_on_a_space_reuses_r0(monkeypatch):
    rng = np.random.default_rng(21)
    space = lp(3, 2)
    first = property_p_witness(norm_one(rng, space))

    def fail(*args):
        raise AssertionError("the arc constant was computed again")

    monkeypatch.setattr(spaces, "_arc_constant_at", fail)
    second = property_p_witness(norm_one(rng, space))
    assert second.r0 == first.r0


@pytest.mark.parametrize("resolution", (0, 1, -4))
def test_resolution_below_two_is_refused(resolution, monkeypatch):
    with pytest.raises(OutOfRangeError, match="resolution"):
        epsilon0_lp2(3, resolution=resolution)

    def fail(*args):
        raise AssertionError("the cache was consulted")

    monkeypatch.setattr(spaces, "_arc_length_constant", fail)
    with pytest.raises(OutOfRangeError, match="resolution"):
        arc_length_constant(3, 0.1, resolution=resolution)


def test_resolution_two_is_finite():
    assert math.isfinite(epsilon0_lp2(3, resolution=2).delta1)


SPACES = (lp(3, 2), lp(4, 2), l2(2), l2(3), linf(2), l1(3))


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_witness_refuses_non_norm_one_naming_A(space):
    A = norm_one(np.random.default_rng(5), space)
    for bad in (2.0 * A, 0.0 * A):
        with pytest.raises(NormNotOneError, match="^A norm"):
            property_p_witness(bad)


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_verify_refuses_non_norm_one_A_before_the_distance(space):
    T = norm_one(np.random.default_rng(6), space)
    # ||T - 2T|| = ||T - 0|| = 1 >= eps: the distance alone would falsify
    for bad in (2.0 * T, 0.0 * T):
        with pytest.raises(NormNotOneError, match="^A norm"):
            verify_uniform_bpb(T, bad, 0.5, resolution=64)


@pytest.mark.parametrize("space", (lp(3, 2), l2(2), linf(2)), ids=str)
def test_one_norm_one_rule(space):
    T = norm_one(np.random.default_rng(8), space)
    for scale, accepted in ((1.0 + 0.5 * TAU_NORM_ONE, True), (1.0 + 2.0 * TAU_NORM_ONE, False),
                            (0.0, False)):
        A = scale * T
        if accepted:
            require_norm_one(A)
            continue
        with pytest.raises(NormNotOneError):
            require_norm_one(A)
        with pytest.raises(ConstructionError, match="approximant norm"):
            _finish(T, A, 1.5, "scaled")
