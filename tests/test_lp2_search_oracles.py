"""Differential tests of the l_p^2 maximum search and the arc witness
against the forms they replaced.

The references are the earlier kernels, kept verbatim in logic:
`stack_circle`, the l_p circle built by `np.stack`; `roll_zoom_max`, the
zoom with its parameters and brackets rebuilt per call; `roll_refined_maxima`,
the neighbour test on two `np.roll` copies; `copy_objective`, which copied
each image before taking its norm; and `per_call_witness`, the arc
witness interpolated and normalised afresh on every call.  Each new kernel
must equal its reference bit for bit.

The memo of the raw norm analysis (`operators._norm_analysis`) is checked
against its own uncached body, `_norm_analysis.__wrapped__`, through every
caller: norm, attainment set, witness, Hilbert and polyhedral constructors,
delta search and certificate give the same bits cold, warm and uncached.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from bpblab import operators
from bpblab.approximants import hilbert_rotate_approx
from bpblab.bpbverify import SWEEP_PAIRS, delta_for_epsilon, property_p_witness, verify_uniform_bpb
from bpblab.classify import enumerate_extreme_linf3_l13
from bpblab.operators import (
    _lp2_grid,
    _lp2_local_maxima,
    attainment_set,
    op_norm,
    operator,
    restricted_norm,
)
from bpblab.optim import ZOOM_POINTS, zoom_max
from bpblab.spaces import (
    ARC_TABLE_SIZE,
    TAU_OPT,
    _arc_table,
    _arc_table_rows,
    _arc_witness_table,
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

DOMAIN_P = ["6/5", "4/3", "3/2", "3", "4", "5", "6", "10", "17", "100"]
CODOMAIN_P = ["1", "6/5", "4/3", "2", "3", "40", "inf"]
CIRCLE_P = ["1", "6/5", "4/3", "3/2", "2", "3", "4", "5", "10", "17", "100", "inf"]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stack_circle(p, t):
    t = np.asarray(t, dtype=float)
    e = 2.0 / float(p)
    c, s = np.cos(t), np.sin(t)
    x = np.sign(c) * np.abs(c) ** e
    y = np.sign(s) * np.abs(s) ** e
    return np.stack([x, y], axis=-1)


def roll_zoom_max(f, centre, half, tol):
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


def roll_refined_maxima(t, h, f):
    left, right = np.roll(h, 1), np.roll(h, -1)
    keep = (h >= left) & (h >= right) & ((h - left) + (h - right) > 1e-13 * np.maximum(1.0, h))
    keep[np.argmax(h)] = True
    x, v = roll_zoom_max(f, t[keep], math.pi / len(t), TAU_OPT)
    return list(zip((x % math.pi).tolist(), v.tolist())), float(v.max())


def copy_objective(T):
    p, q = T.domain.pf, T.codomain.pf

    def f(theta):
        return pnorm(stack_circle(p, theta) @ T.entries.T, q)

    return f


def roll_lp2_local_maxima(T):
    t, _ = _lp2_grid(T.domain.p)
    h = T.image_norms(stack_circle(T.domain.p, t))
    return roll_refined_maxima(t, h, copy_objective(T))


def per_call_witness(A):
    MA = attainment_set(A)
    p = A.domain.p
    K = 2 * (16 * int(p) - 9)
    L = arc_length_total(p)
    s = _arc_table(p, ARC_TABLE_SIZE)[1]
    rows = _arc_table_rows(p, ARC_TABLE_SIZE, MA.points)
    occupied = set(((s[rows] / (L / K)).astype(int) % K).tolist())
    free = next(a for a in range(K) if a not in occupied)
    return per_call_midpoint(p, free), arc_length_constant(p, L / (2.0 * K))


def per_call_midpoint(p, arc):
    K = 2 * (16 * int(p) - 9)
    L = arc_length_total(p)
    tab_pts, s = _arc_table(p, ARC_TABLE_SIZE)
    x = _interp_on_curve(tab_pts, s, np.array([(arc + 0.5) * (L / K)]))[:, 0]
    return x / float(pnorm(x, p))


def operators_into(dom, rng):
    """Seeded operators from dom into l_q^m for every codomain q and m in
    1, 2, 3, with the Hadamard matrix and the identity into l_q^2."""
    for q in CODOMAIN_P:
        for m in (1, 2, 3):
            cod = lp(q, m)
            mats = [rng.standard_normal((m, 2)) for _ in range(2)]
            if m == 2:
                mats += [np.array([[1.0, 1.0], [1.0, -1.0]]), np.eye(2)]
            for M in mats:
                yield operator(M, dom, cod)


@pytest.mark.parametrize("p", CIRCLE_P)
def test_circle_equals_the_stacked_form(p):
    rng = np.random.default_rng(31)
    edges = np.array([0.0, -0.0, math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi, 5e-324, 1e300])
    t = np.concatenate([rng.uniform(-7.0, 7.0, 500), edges])
    for exponent in (as_exponent(p), float(as_exponent(p))):
        assert same_bits(lp_circle(exponent, t), stack_circle(exponent, t))
        grid = t[:500].reshape(4, 5, 25)
        assert same_bits(lp_circle(exponent, grid), stack_circle(exponent, grid))
        # 0-d parameters, where `**` is libm's pow
        for s in np.concatenate([t[:40], edges]):
            assert same_bits(lp_circle(exponent, float(s)), stack_circle(exponent, float(s)))
            assert same_bits(lp_circle(exponent, np.float64(s)), stack_circle(exponent, np.float64(s)))


@pytest.mark.parametrize("p", DOMAIN_P)
def test_search_equals_the_roll_search(p):
    rng = np.random.default_rng(int(float(Fraction(p)) * 100))
    dom = lp(p, 2)
    checked = 0
    for T in operators_into(dom, rng):
        got, best = _lp2_local_maxima(T)
        want, want_best = roll_lp2_local_maxima(T)
        assert same_bits(np.array(got), np.array(want)), T
        assert best == want_best
        value, witness = op_norm(T)
        tt = max(want, key=lambda c: c[1])[0]
        assert value == want_best
        assert same_bits(witness.coords, stack_circle(dom.p, tt))
        checked += 1
    assert checked == len(CODOMAIN_P) * (2 + 4 + 2)


def test_neighbour_test_equals_the_roll_test():
    # samples with ties, two-sample peaks, plateaus, rises at the noise
    # floor and maxima at either end of the cyclic grid
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, math.pi, 64, endpoint=False)

    def f(x):
        return np.cos(3.0 * x) + 0.1 * x

    samples = [rng.integers(0, 4, 64).astype(float) for _ in range(40)]
    samples += [1.0 + 1e-13 * rng.integers(0, 3, 64) for _ in range(20)]
    samples += [np.ones(64), np.r_[5.0, np.zeros(62), 5.0], np.r_[np.zeros(63), 2.0]]
    for h in samples:
        got, best = operators._refined_maxima(t, h, f)
        want, want_best = roll_refined_maxima(t, h, f)
        assert same_bits(np.array(got), np.array(want)) and best == want_best


def test_restricted_norms_equal_the_roll_search():
    rng = np.random.default_rng(8)
    for p in ("3", "inf", "1", "4/3"):
        dom = lp(p, 3)
        for q in ("2", "3", "inf"):
            T = operator(rng.standard_normal((2, 3)), dom, lp(q, 2))
            B = rng.standard_normal((3, 2))
            b1, b2 = B[:, 0], B[:, 1]

            def f(theta):
                V = np.cos(theta)[..., None] * b1 + np.sin(theta)[..., None] * b2
                return pnorm(V @ T.entries.T, T.codomain.p) / pnorm(V, dom.p)

            t = np.linspace(0.0, math.pi, 2048, endpoint=False)
            assert restricted_norm(T, B) == roll_refined_maxima(t, f(t), f)[1]


def test_zoom_equals_the_per_call_zoom():
    # the same samples at every level, and the same results, on brackets
    # of their own widths, clipped at either end
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, 6, 1))

    def f(x):
        return a * np.sin(5 * x + b) - np.abs(x - b)

    centres = rng.uniform(-2.0, 2.0, 6)
    for half in (0.3, rng.uniform(1e-11, 0.5, 6), np.float64(1e-12)):
        for tol in (TAU_OPT, 1e-6):
            seen, want_seen = [], []
            got = zoom_max(lambda x: seen.append(x.copy()) or f(x), centres, half, tol)
            want = roll_zoom_max(lambda x: want_seen.append(x.copy()) or f(x), centres, half, tol)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert len(seen) == len(want_seen)
            assert all(same_bits(x, y) for x, y in zip(seen, want_seen))
    x, v = zoom_max(lambda t: -t * t, 0.5, 1e-12, 1e-10)
    assert x.shape == v.shape == (1,)


@pytest.mark.parametrize("p", [3, 4, 5, 10])
def test_witness_table_is_the_per_call_witness_on_every_arc(p):
    p = as_exponent(p)
    K, L, mids, r0 = _arc_witness_table(p)
    assert K == 2 * (16 * int(p) - 9) and L == arc_length_total(p)
    assert mids.shape == (K, 2) and not mids.flags.writeable
    assert r0 == arc_length_constant(p, L / (2.0 * K))
    for arc in range(K):
        assert same_bits(mids[arc], per_call_midpoint(p, arc)), arc


@pytest.mark.parametrize("p", [3, 4, 5, 10])
def test_witness_is_the_per_call_witness(p):
    rng = np.random.default_rng(50 + p)
    dom = lp(p, 2)
    for _ in range(12):
        M = rng.standard_normal((2, 2))
        v, _ = op_norm(operator(M, dom, dom))
        A = operator(M / v, dom, dom)
        w = property_p_witness(A)
        x, r0 = per_call_witness(A)
        assert same_bits(w.x_A.coords, x)
        assert w.r0 == r0


# ---------------------------------------------------------------------------
# the memo of the raw norm analysis


def bits(x):
    """A hashable fingerprint of a result holding its floats' and arrays'
    exact bits."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return x


def unit_operator(M, dom):
    return operator(M / op_norm(operator(M, dom, dom))[0], dom, dom)


def poly_construct(T):
    """The constructor of T's polyhedral sweep family."""
    pairs = SWEEP_PAIRS.values()
    return next(s.construct for s in pairs if (s.domain, s.codomain) == (T.domain, T.codomain))


def memo_cases():
    """Seeded norm-one (T, A) pairs, A a normalised perturbation of T, on
    each smooth space of the benchmark, and the l_4^2 Hadamard matrix;
    then polyhedral T with A its family constructor's approximant at eps
    0.3: census members l_inf^3 -> l_1^3 of both orbits, and operators
    with one +/-1 per column on l_1^3 and per row on l_inf^2."""
    rng = np.random.default_rng(64)
    cases = []
    for p, n in (("3", 2), ("4", 2), ("4/3", 2), ("3/2", 2), ("2", 3)):
        dom = lp(p, n)
        for _ in range(3):
            M = rng.standard_normal((n, n))
            cases.append((unit_operator(M, dom), unit_operator(M + 0.02 * rng.standard_normal((n, n)), dom)))
    H = np.array([[1.0, 1.0], [1.0, -1.0]])
    cases.append((unit_operator(H, lp(4, 2)), unit_operator(H + 0.01 * np.eye(2), lp(4, 2))))
    census = enumerate_extreme_linf3_l13()
    polyhedral = [census[k] for k in (0, 17, 18, 60, 89)]
    for M in ([[1, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 0], [-1, 0, 1], [0, -1, 0]]):
        polyhedral.append(operator(M, l1(3), l1(3)))
    polyhedral += [operator(M, linf(2), linf(2)) for M in ([[1, 0], [1, 0]], [[0, -1], [0, 1]])]
    cases += [(T, poly_construct(T)(T, 0.3).approximant) for T in polyhedral]
    return cases


def chain(T, A):
    """Every result built on the memo for one (T, A) pair."""
    dom = T.domain
    out = [op_norm(T), attainment_set(T), op_norm(A), attainment_set(A)]
    if dom.polyhedral:
        out += [poly_construct(T)(T, 0.3), op_norm(T - A), delta_for_epsilon(T, 0.3)]
    elif dom.hilbert:
        out.append(hilbert_rotate_approx(T, 0.3))
    elif dom.p.denominator == 1:
        out += [property_p_witness(T), property_p_witness(A)]
    out.append(verify_uniform_bpb(T, A, 0.3, resolution=16384))
    return bits(out)


def test_memo_results_equal_the_uncached_analysis(monkeypatch):
    cases = memo_cases()
    memo = operators._norm_analysis
    cold, warm = [], []
    for T, A in cases:
        memo.cache_clear()
        cold.append(chain(T, A))
        misses = memo.cache_info().misses
        warm.append(chain(T, A))
        assert memo.cache_info().misses == misses
    monkeypatch.setattr(operators, "_norm_analysis", memo.__wrapped__)
    uncached = [chain(T, A) for T, A in cases]
    assert cold == uncached
    assert warm == uncached
    # the Hadamard matrix itself (norm 2^(1/2)), as the benchmark asks it
    H = operator([[1.0, 1.0], [1.0, -1.0]], lp(4, 2), lp(4, 2))
    want = bits([op_norm(H), attainment_set(H)])
    monkeypatch.undo()
    memo.cache_clear()
    assert bits([op_norm(H), attainment_set(H)]) == want
    assert bits([op_norm(H), attainment_set(H)]) == want


def fresh_lp2(seed, p="3"):
    M = np.random.default_rng(seed).standard_normal((2, 2))
    return unit_operator(M, lp(p, 2))


def test_one_search_serves_norm_set_and_witness():
    T = fresh_lp2(1)
    memo = operators._norm_analysis
    memo.cache_clear()
    op_norm(T)
    assert memo.cache_info()[:2] == (0, 1)
    attainment_set(T)
    property_p_witness(T)
    assert memo.cache_info()[:2] == (2, 1)


def test_the_ninth_operator_evicts_the_first():
    memo = operators._norm_analysis
    first, others = fresh_lp2(2), [fresh_lp2(10 + k) for k in range(8)]
    memo.cache_clear()
    op_norm(first)
    for T in others:
        op_norm(T)
    assert memo.cache_info()[:4] == (0, 9, 8, 8)
    op_norm(first)
    assert memo.cache_info()[:2] == (0, 10)
    # the last seven stay
    for T in others[1:]:
        op_norm(T)
    assert memo.cache_info()[:2] == (7, 10)


def test_memo_results_are_read_only():
    T = unit_operator(np.random.default_rng(3).standard_normal((3, 3)), l2(3))
    s, Vt = operators._analysis(T).data
    for a in (s, Vt):
        with pytest.raises(ValueError):
            a[0] = 0.0
    entry = operators._analysis(fresh_lp2(3))
    assert isinstance(entry.data, tuple) and isinstance(entry.value, float)
    with pytest.raises(TypeError):
        entry.data[0] = (0.0, 0.0)
    # the attainment basis is the entry's own copy, read-only like Vt
    basis = attainment_set(T).basis
    assert not np.shares_memory(basis, Vt)
    with pytest.raises(ValueError):
        basis[0, 0] = 0.5


@pytest.mark.parametrize("space", [linf(3), l1(2), l2(3), lp(3, 2)], ids=repr)
def test_memo_hits_return_the_same_witness_and_set(space):
    # a hit returns the witness and the set the first call built, and
    # their arrays refuse writes, so no caller can change another's
    M = np.random.default_rng(5).standard_normal((space.n, space.n))
    T = operator(M, space, space)
    (value, witness), M_T = op_norm(T), attainment_set(T)
    again = operator(M.copy(), space, space)
    assert op_norm(again)[1] is witness and op_norm(T)[0] == value
    assert attainment_set(again) is M_T
    arrays = [witness.coords] + [a for a in (M_T.points, M_T.basis) if a is not None]
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 0.0


def test_spaces_and_scale_are_part_of_the_key():
    M = np.random.default_rng(4).standard_normal((2, 2))
    memo = operators._norm_analysis
    memo.cache_clear()
    on3, on4 = operator(M, lp(3, 2), lp(3, 2)), operator(M, lp(4, 2), lp(4, 2))
    into4, scaled = operator(M, lp(3, 2), lp(4, 2)), operator(2.0 * M, lp(3, 2), lp(3, 2))
    norms = [op_norm(T)[0] for T in (on3, on4, into4, scaled)]
    assert memo.cache_info() == (0, 4, 8, 4)
    assert len(set(norms)) == 4 and norms[3] == pytest.approx(2.0 * norms[0], rel=1e-12)
