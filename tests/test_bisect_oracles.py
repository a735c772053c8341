"""Differential tests of the batched bisection against the scalar loops it
replaced.

`scalar_bisect` is the halving loop that called g once per halving and
stopped on the absolute width BISECT_TOL alone; `scalar_gap` and
`scalar_doubling` are the rank-one tilt's gap and its doubling of hi, one
scalar gap call per candidate.  `optim.bisect_increasing` now calls g once
on the first BISECT_LEVELS halvings' points and then on predicted halving
paths, and `approximants._tilt` reads every candidate hi from one call;
both must choose the same bits wherever the old width rule stopped.
`grid_bisect` is the kernel the path calls replaced, one call of g per
BISECT_LEVELS halvings, kept to count its calls; `scalar_loop` is the
halving loop with the library's stops, for brackets where the width rule
alone stops elsewhere.
"""

import math

import numpy as np
import pytest

from bpblab import approximants, enumerate_extreme_linf3_l13, functional_approx_lp2, optim
from bpblab.approximants import _TILT_ENDS, _tilt, _tilt_gap, rank_one_approx
from bpblab.classify import census_lookup
from bpblab.operators import OperatorMatrix
from bpblab.optim import (
    BISECT_LEVELS,
    BISECT_MAX_ITER,
    BISECT_REL,
    BISECT_TOL,
    _PREDICT_POINTS,
    _halving_points,
    bisect_increasing,
)
from bpblab.spaces import Point, l1, l2, linf, lp, pnorm


def scalar_bisect(g, target, lo, hi):
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


def scalar_loop(g, target, lo, hi):
    if not (g(lo) <= target <= g(hi)):
        raise ValueError("target not bracketed")
    for _ in range(optim.BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width < BISECT_TOL and width < BISECT_REL * max(abs(lo), abs(hi)):
            return mid
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_bisect(g, target, lo, hi):
    y = g(_halving_points(lo, hi))
    n = 1 << BISECT_LEVELS
    if not (y[0] <= target <= y[n]):
        raise ValueError("target not bracketed")
    i, j = 0, n
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width < BISECT_TOL and width < BISECT_REL * max(abs(lo), abs(hi)):
            return mid
        if j - i == 1:
            y = g(_halving_points(lo, hi))
            i, j = 0, n
        k = (i + j) // 2
        if y[k] < target:
            lo, i = mid, k
        else:
            hi, j = mid, k
    return 0.5 * (lo + hi)


def grid_calls(g, target, lo, hi):
    """The calls of g that grid_bisect makes."""
    calls = []
    grid_bisect(counted(g, calls), target, lo, hi)
    return len(calls)


def scalar_gap(w, v, p, t):
    u = w + t * v
    u = u / float(pnorm(u, p))
    return float(pnorm(u - w, p))


def scalar_doubling(gap, eps):
    hi = 1.0
    while gap(hi) < eps / 4.0 and hi < 1e6:
        hi *= 2.0
    return hi, min(eps / 4.0, 0.9 * gap(hi))


def scalar_tilt(w, v, p, eps):
    gap = lambda t: scalar_gap(w, v, p, t)  # noqa: E731
    hi, target = scalar_doubling(gap, eps)
    return scalar_bisect(gap, target, 0.0, hi)


def counted(f, calls):
    def g(*args):
        calls.append(args)
        return f(*args)
    return g


class Captured(Exception):
    """Raised in place of a call, carrying its arguments."""


def capture(*args):
    raise Captured(*args)


def tilt_inputs(T, eps=0.3):
    """(w, v, p) of the tilt that rank_one_approx(T, eps) runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approximants, "_tilt", capture)
        with pytest.raises(Captured) as caught:
            rank_one_approx(T, eps)
    w, v, p, _ = caught.value.args
    return w, v, p


def census_rank_one():
    return [m for m in enumerate_extreme_linf3_l13() if census_lookup(m)[0] == "rank_one"]


def seeded_rank_one(codomain, count, seed):
    """count norm-one rank-one operators l_inf^3 -> codomain, with an eps each."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        w = rng.standard_normal(codomain.n)
        f = rng.standard_normal(3)
        T = OperatorMatrix(
            np.outer(w / pnorm(w, codomain.pf), f / pnorm(f, 1.0)), linf(3), codomain
        )
        yield T, float(rng.uniform(0.02, 1.98))


# --- the bisection kernel ----------------------------------------------------

# dyadic brackets, as the tilt's [0, 2^k], non-dyadic and subnormal ones
BRACKETS = [
    (0.0, 1.0), (0.0, 2.0 ** 20), (0.25 + 2.0 ** -40, 0.25 + 2.0 ** -39), (-1.0, 0.75),
    (0.0, math.pi / 2), (0.1, 0.3), (-3.0, 7e-3), (1.0, 1.0 + 2.0 ** -44),
    (0.0, 5e-324), (-(2.0 ** -1070), 2.0 ** -1060), (2.0 ** -1066, 2.0 ** -1065),
    # odd integers near 2^44 and 2^46, where lo + (hi - lo) k / 2^8 rounds
    (1.0 - 2.0 ** 44, 2.0 ** 44 - 1.0), (1.0 - 2.0 ** 46, 2.0 ** 46 - 1.0),
]


@pytest.mark.parametrize("lo, hi", BRACKETS)
def test_halving_points_are_the_loops_mids(lo, hi):
    x = _halving_points(lo, hi)
    n = 1 << BISECT_LEVELS
    assert len(x) == n + 1 and x[0] == lo and x[n] == hi
    step = n
    while step > 1:
        half = step // 2
        for k in range(half, n, step):
            assert x[k] == 0.5 * (x[k - half] + x[k + half])
        step = half
    # on the tilt's brackets the points are equispaced
    if lo == 0.0 and math.log2(hi).is_integer() and hi > 2.0 ** -1000:
        assert np.array_equal(x, lo + (hi - lo) * np.arange(n + 1) / n)


def test_grid_neighbours_are_the_nearest_points():
    """After a grid call the bracket is [x_i, x_(i+1)], and the path is
    predicted from x_(i-2) .. x_(i+3), clipped to the grid: as near the
    bracket's middle as the points the replaced argsort over all 2^8 + 1
    points picked, on every grid of distinct points.  Where the points
    repeat ([0, 5e-324], whose mids round to 0) a tie can pick other
    points; that moves only the prediction, and the bisections on that
    bracket are the scalar loop's too."""
    n = 1 << BISECT_LEVELS
    checked = 0
    for lo, hi in BRACKETS:
        x = _halving_points(lo, hi)
        if not (np.diff(x) > 0).all():
            continue
        checked += 1
        for i in range(n):
            mid = 0.5 * (x[i] + x[i + 1])
            a = min(max(i - 2, 0), n + 1 - _PREDICT_POINTS)
            got = np.sort(np.abs(x[a : a + _PREDICT_POINTS] - mid))
            want = np.sort(np.abs(x - mid))[:_PREDICT_POINTS]
            assert np.array_equal(got, want), (lo, hi, i)
    assert checked == len(BRACKETS) - 1


@pytest.mark.parametrize(
    "f, target, lo, hi",
    [
        (lambda x: x ** 3, 8.0, 0.0, 5.0),
        (np.exp, 1.7, 0.0, math.pi / 2),
        (lambda x: x, 0.3, -1.0, 1.0),
        (lambda x: x, -0.25, -3.0, 7e-3),
        (np.sqrt, 321.5, 0.0, 2.0 ** 20),
        (np.arctan, 1e-3, 0.0, 1.0),
        # near a large root the doubles are wider than BISECT_TOL, so both
        # loops stop after BISECT_MAX_ITER halvings
        (lambda x: x, 123456.7, 0.0, 2.0 ** 20),
    ],
)
def test_bisection_is_the_scalar_loop(f, target, lo, hi):
    calls = []
    x = bisect_increasing(counted(f, calls), target, lo, hi)
    assert x == scalar_bisect(lambda s: float(f(s)), target, lo, hi)
    assert len(calls[0][0]) == (1 << BISECT_LEVELS) + 1
    assert len(calls) <= grid_calls(f, target, lo, hi) + 1


def test_one_third_takes_at_most_three_calls():
    calls = []
    x = bisect_increasing(counted(lambda t: t, calls), 1.0 / 3.0, 0.0, 1.0)
    # 40 halvings take [0, 1] below 1e-12 wide: the grid took 5 calls, the
    # first call and one predicted path take 2
    assert grid_calls(lambda t: t, 1.0 / 3.0, 0.0, 1.0) == 40 // BISECT_LEVELS == 5
    assert len(calls) <= 3
    assert abs(x - 1.0 / 3.0) < BISECT_TOL


def test_unbracketed_target_is_refused_from_the_first_call():
    calls = []
    with pytest.raises(ValueError, match="not bracketed"):
        bisect_increasing(counted(lambda t: t, calls), 10.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="not bracketed"):
        bisect_increasing(lambda t: t, -1e-300, 0.0, 1.0)
    assert len(calls) == 1


def test_a_root_near_zero_is_bracketed_relative_to_its_size():
    # the width rule alone stopped at [0, 2^-40] and returned 4.5e-13
    assert scalar_bisect(lambda t: t, 1e-13, 0.0, 1.0) > 4e-13
    x = bisect_increasing(lambda t: t, 1e-13, 0.0, 1.0)
    assert abs(x - 1e-13) <= 2.0 ** -10 * 1e-13


# --- the predicted path ------------------------------------------------------


def elementwise(h, lo, hi):
    """h on an array, one scalar call per point, refusing points outside
    [lo, hi]; with h itself the scalar loops see the same values."""
    def g(x):
        x = np.asarray(x).tolist()
        assert all(lo <= t <= hi for t in x)
        return np.array([h(t) for t in x])
    return g


def kink(t):
    return t if t < 0.3 else 0.3 + 5.0 * (t - 0.3)


def step(t):
    return 0.0 if t < 1.0 / 3.0 else 1.0


def with_nans(t):
    return math.nan if int(t * 2.0 ** 20) % 3 == 2 else t


ADVERSARIAL = {
    "kink": (kink, 0.3, 0.0, 1.0),
    "kink off its root": (kink, 0.7, 0.0, 1.0),
    # tied values in the points nearest the root, where Neville divides by 0
    "plateau": (lambda t: min(max(t, 0.25), 0.75), 0.75, 0.0, 1.0),
    "plateau at the target": (lambda t: t if t < 0.4 else max(0.4, t - 0.2), 0.4, 0.0, 1.0),
    "step": (step, 0.5, 0.0, 1.0),
    "nans": (with_nans, 0.3, 0.0, 1.0),
    "ulp wiggle": (lambda t: t + 1e-16 * math.sin(1e9 * t), 0.3, 0.0, 1.0),
    "target g(lo)": (lambda t: t ** 3, 0.1 ** 3, 0.1, 2.0),
    "target g(hi)": (lambda t: t ** 3, 8.0, 0.1, 2.0),
    "max iter": (lambda t: t, 2.0 ** 40 + 0.5, 0.0, 2.0 ** 41),
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_bisections_are_the_scalar_loop(name):
    h, target, lo, hi = ADVERSARIAL[name]
    g, calls = elementwise(h, lo, hi), []
    x = bisect_increasing(counted(g, calls), target, lo, hi)
    assert x == scalar_loop(h, target, lo, hi) == scalar_bisect(h, target, lo, hi)
    assert len(calls) <= grid_calls(g, target, lo, hi) + 1


def test_a_path_is_cut_at_the_halving_limit(monkeypatch):
    # 19 halvings end inside the first path
    monkeypatch.setattr(optim, "BISECT_MAX_ITER", 19)
    calls = []
    x = bisect_increasing(counted(lambda t: t, calls), 1.0 / 3.0, 0.0, 1.0)
    assert x == scalar_loop(lambda t: t, 1.0 / 3.0, 0.0, 1.0)
    assert [len(a) for (a,) in calls] == [(1 << BISECT_LEVELS) + 1, 19 - BISECT_LEVELS]


@pytest.mark.parametrize("lo, hi", BRACKETS)
@pytest.mark.parametrize("share", [0.0, 1.0 / 3.0, 0.7, 1.0])
def test_bisections_on_every_bracket_are_the_scalar_loop(lo, hi, share):
    target = min(max(lo + (hi - lo) * share, lo), hi)
    g, calls = elementwise(lambda t: t, lo, hi), []
    x = bisect_increasing(counted(g, calls), target, lo, hi)
    assert x == scalar_loop(lambda t: t, target, lo, hi)
    assert len(calls) <= grid_calls(g, target, lo, hi) + 1
    # the first call's points are the memoised, read-only halving points
    first = calls[0][0]
    assert not first.flags.writeable
    assert first.tobytes() == _halving_points.__wrapped__(lo, hi).tobytes()
    again = []
    bisect_increasing(counted(g, again), target, lo, hi)
    assert again[0][0] is first


def test_functional_bisections_make_at_most_one_call_more(monkeypatch):
    monkeypatch.setattr(approximants, "bisect_increasing", capture)
    rng = np.random.default_rng(5)
    for p in ("6/5", "4/3", "3/2", "3", "4", "5"):
        q_space = lp(p, 2).dual()
        for _ in range(30):
            c = rng.standard_normal(2)
            with pytest.raises(Captured) as caught:
                functional_approx_lp2(Point(c / pnorm(c, q_space.pf), q_space), rng.uniform(0.02, 1.98))
            gap, target, lo, hi = caught.value.args
            calls = []
            bisect_increasing(counted(gap, calls), target, lo, hi)
            assert len(calls) <= grid_calls(gap, target, lo, hi) + 1


# --- the rank-one tilt -------------------------------------------------------


def test_census_tilts_are_the_scalar_loops():
    members = census_rank_one()
    assert len(members) == 18
    for T in members:
        w, v, p = tilt_inputs(T)
        for eps in np.linspace(0.02, 1.98, 25):
            assert _tilt(w, v, p, eps) == scalar_tilt(w, v, p, eps)


# on l_3^2 and from n = 8 on the array gap can differ from the scalar one in
# the last bit (np.power against libm pow; another order of summation), so
# the equal t there is observed, not implied
@pytest.mark.parametrize(
    "codomain", [l1(3), linf(3), l2(3), lp(3, 2), l1(8), lp(3, 9)], ids=repr
)
def test_seeded_tilts_are_the_scalar_loops(codomain):
    for T, eps in seeded_rank_one(codomain, 60, seed=11):
        w, v, p = tilt_inputs(T, eps)
        assert _tilt(w, v, p, eps) == scalar_tilt(w, v, p, eps)


def test_a_census_tilt_makes_three_gap_calls(monkeypatch):
    new, old = [], []
    monkeypatch.setattr(approximants, "_tilt_gap", counted(_tilt_gap, new))
    for T in census_rank_one():
        for eps in (0.02, 0.3, 1.98):
            w, v, p = tilt_inputs(T, eps)
            new.clear()
            _tilt(w, v, p, eps)
            assert len(new) == 3
            old.clear()
            gap = counted(lambda t: scalar_gap(w, v, p, t), old)
            hi, target = scalar_doubling(gap, eps)
            scalar_bisect(gap, target, 0.0, hi)
            assert len(old) == 44


def tilted(p, a):
    """w within a of +v = e_0 on l_p^3, and v."""
    w = np.array([1.0, a, 0.0])
    return w / pnorm(w, p), np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 3.0])
@pytest.mark.parametrize(
    "a, share, k",
    [(1e-7, None, 20), (0.1, 0.99, 7), (0.1, 0.5, None), (0.3, 0.999, 10)],
)
def test_doubling_picks_the_loops_bracket_and_target(monkeypatch, p, a, share, k):
    w, v = tilted(p, a)
    # eps/4 a share of the largest gap, ||v - w||; past 1e6 the target is
    # 0.9 gap(2^20)
    eps = 0.3 if share is None else 4.0 * share * float(pnorm(v - w, p))
    seen = []
    monkeypatch.setattr(approximants, "bisect_increasing", counted(bisect_increasing, seen))
    t = _tilt(w, v, p, eps)
    (_, target, lo, hi), = seen
    gap = lambda s: scalar_gap(w, v, p, s)  # noqa: E731
    assert (lo, hi, target) == (0.0, *scalar_doubling(gap, eps))
    if k is not None:
        assert hi == _TILT_ENDS[k] == 2.0 ** k
    if k == 20:
        assert target == 0.9 * gap(hi) < eps / 4.0
    assert t == scalar_bisect(gap, target, 0.0, hi)


def test_functional_bisections_are_the_scalar_loops(monkeypatch):
    monkeypatch.setattr(approximants, "bisect_increasing", capture)
    rng = np.random.default_rng(5)
    for p in ("6/5", "4/3", "3/2", "3", "4", "5"):
        q_space = lp(p, 2).dual()
        for _ in range(30):
            c = rng.standard_normal(2)
            with pytest.raises(Captured) as caught:
                functional_approx_lp2(Point(c / pnorm(c, q_space.pf), q_space), rng.uniform(0.02, 1.98))
            gap, target, lo, hi = caught.value.args
            dt = bisect_increasing(gap, target, lo, hi)
            assert dt == scalar_bisect(lambda s: float(gap(s)), target, lo, hi)
