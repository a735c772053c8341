"""Differential tests of the closed-form polyhedral norms and the one-product
corner screen.

`operators._stacked_norms` takes ||T|| in closed form where the ball gives
one: the largest column norm on l_1^n domains (n >= 2) and the largest row
l_1 sum on l_inf^n -> l_inf^m (m >= 2).  The reference is the kernel it
replaced, the image norms at every vertex of the domain ball from one
matmul, whose bits op_norm keeps on l_inf^n domains.  The rigidity screen
`bpbverify._polyhedral_screen` blocks the corners near a candidate's
maximal attaining faces by their cached distances, `_corner_distances`;
the reference is an earlier screen, a boolean matmul of masks read from
face distances to every attaining face measured afresh.  Each must agree
bit for bit.
"""

import numpy as np
import pytest

from bpblab import bpbverify, operators
from bpblab.bpbverify import (
    DELTA_LAST,
    TRIAL_BLOCK,
    _exact_table,
    _far_from,
    _halving_search,
    _polyhedral_screen,
    _corner_distances,
    _sample,
)
from bpblab.classify import enumerate_isometries
from bpblab.operators import _attaining_faces, op_norm, op_norms, operator, require_norm_one
from bpblab.sampling import corner_points
from bpblab.spaces import face_distances, l1, l2, linf, lp, polyhedral_table


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def vertex_stacked_norms(E, dom, cod):
    """The polyhedral kernel before the closed forms: the image norms at
    every vertex of the domain ball, from one matmul, and their maximum."""
    return operators._vertex_norms(E, polyhedral_table(dom).vertices, cod).max(axis=-1)


def vertex_argmax(E, dom, cod):
    """The first maximising vertex row of the kernel before the closed forms."""
    return int(operators._vertex_norms(E, polyhedral_table(dom).vertices, cod).argmax())


def special_stack(rng, shape, m, n):
    """A seeded stack of shape (*shape, m, n) mixing Gaussian, integer,
    subnormal, 1e-300 and 1e300 scaled matrices, with some -0.0 entries."""
    E = rng.standard_normal((*shape, m, n)).reshape(-1, m, n)
    for k, M in enumerate(E):
        kind = k % 6
        if kind == 1:
            M[:] = rng.integers(-3, 4, (m, n))
        elif kind == 2:
            M *= 5e-324 * 2.0 ** rng.integers(0, 40)
        elif kind == 3:
            M *= 1e-300
        elif kind == 4:
            M *= 1e300
        M[rng.random((m, n)) < 0.25] = -0.0
    return E.reshape(*shape, m, n)


SMALL_PAIRS = [
    (dom(n), cod(m)) for dom in (linf, l1) for cod in (linf, l1)
    for n in range(1, 6) for m in range(1, 6)
]


@pytest.mark.parametrize("dom, cod", SMALL_PAIRS, ids=repr)
def test_closed_forms_equal_the_vertex_kernel(dom, cod):
    rng = np.random.default_rng(2 ** dom.n * 3 ** cod.n + (dom.p == 1) + 2 * (cod.p == 1))
    for shape in [(), (7,), (4, 6)]:
        E = special_stack(rng, shape, cod.n, dom.n)
        want = vertex_stacked_norms(E, dom, cod)
        assert bits(op_norms(E, dom, cod)) == bits(want)
        assert bits(operators._stacked_norms(E, dom, cod, "polyhedral")) == bits(want)
    # op_norm per matrix: the value and the first maximising vertex
    for M in special_stack(rng, (12,), cod.n, dom.n):
        T = operator(M, dom, cod)
        value, witness = op_norm(T)
        assert value == float(vertex_stacked_norms(M, dom, cod))
        assert operators._analysis(T).data == vertex_argmax(M, dom, cod)
        assert op_norms(M, dom, cod)[()] == value


@pytest.mark.parametrize(
    "dom, cod",
    [(linf(n), linf(m)) for n in (8, 9) for m in (1, 2, 5)]
    + [(l1(n), c) for n in (1, 2) for c in (l1(9), linf(9), l2(9), lp(3, 17), lp(40, 8))]
    + [(l1(3), l2(3)), (linf(3), l2(2)), (linf(2), lp(3, 2))],
    ids=repr,
)
def test_closed_forms_keep_the_order_of_the_vertex_sums(dom, cod):
    # past 8 terms numpy's own reductions add pairwise: the row sums of
    # l_inf^8 and l_inf^9, and the columns of l_1^1 into 9 and more
    # coordinates, must still add in the vertex matmul's order
    rng = np.random.default_rng(dom.n * 31 + cod.n)
    for shape in [(), (5,), (3, 4)]:
        size = (*shape, cod.n, dom.n)
        E = rng.standard_normal(size) * np.exp(rng.uniform(-4, 4, size))
        assert bits(op_norms(E, dom, cod)) == bits(vertex_stacked_norms(E, dom, cod))
        for M in E.reshape(-1, cod.n, dom.n)[:4]:
            assert op_norm(operator(M, dom, cod))[0] == float(vertex_stacked_norms(M, dom, cod))


def test_the_closed_forms_skip_the_vertex_matmul(monkeypatch):
    # the closed forms run where they keep the bits; l_inf^n -> l_inf^1,
    # l_1^1, l_inf^n -> l_1^m and smooth codomains of l_inf^n keep the
    # vertex matmul
    calls = []
    vertex_norms = operators._vertex_norms
    monkeypatch.setattr(operators, "_vertex_norms", lambda *a: calls.append(1) or vertex_norms(*a))
    cases = {
        (linf(3), linf(3)): False, (linf(3), linf(1)): True,
        (l1(3), l1(3)): False, (l1(3), linf(2)): False, (l1(2), l2(3)): False,
        (l1(1), l1(3)): True, (linf(3), l1(3)): True, (linf(2), lp(3, 2)): True,
    }
    for (dom, cod), vertex in cases.items():
        calls.clear()
        op_norms(np.ones((2, cod.n, dom.n)), dom, cod)
        assert calls == [1] * vertex, (dom, cod)


# ---------------------------------------------------------------------------
# The screen.
# ---------------------------------------------------------------------------


def boolean_screen(C, dom, cod, eps, sample):
    """The screen before the float32 product: the vertex kernel's norms,
    near masks from face distances measured afresh under the far rule,
    and numpy's boolean matmul."""
    values = vertex_stacked_norms(C, dom, cod)
    hit = _attaining_faces(C, values, dom, cod)
    used = np.flatnonzero(hit.any(axis=0))
    D = face_distances(dom, polyhedral_table(dom).patterns[used], sample.rows)
    near = D < _far_from(eps)
    g = np.where(hit[:, used] @ near, -np.inf, sample.norms).max(axis=1)
    return values, g <= 1.0 - DELTA_LAST


def screen_blocks(s):
    """(T, eps, candidates): poly-rigidity blocks, the candidates of
    TRIAL_BLOCK seeded directions around isometries of s, which are rigid,
    so none certifies; and lattice blocks, entries in {0, +-1/2, +-1}
    normalised, with T itself, around I and diag(1, 1/2, ...); A = I
    certifies against I at every eps, as M_I is the whole sphere."""
    isometries = enumerate_isometries(s)
    for k, T in enumerate(isometries[:: max(len(isometries) // 6, 1)]):
        for eps in (0.05, 0.5, 1.2):
            D = np.random.default_rng(1000 * s.n + k).standard_normal((TRIAL_BLOCK, s.n, s.n))
            cands, _, found = _halving_search(T, D, eps)
            yield T, eps, cands[found]
    C = np.random.default_rng(s.n).choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(TRIAL_BLOCK, s.n, s.n))
    norms = vertex_stacked_norms(C, s, s)
    C = C[norms > 0] / norms[norms > 0, None, None]
    for T in (operator(np.eye(s.n), s, s), operator(np.diag([1.0] + [0.5] * (s.n - 1)), s, s)):
        for eps in (0.25, 0.5, 1.0, 1.5):
            yield T, eps, np.concatenate([C, T.entries[None]])


@pytest.mark.parametrize("s", [linf(2), linf(3), linf(4), l1(2), l1(3)], ids=repr)
def test_screen_equals_the_boolean_screen(s):
    outcomes = set()
    for T, eps, C in screen_blocks(s):
        sample = _sample(T, require_norm_one(T)[1], 256, _exact_table(T, eps))
        values, certifies = _polyhedral_screen(C, s, s, eps, sample)
        want_values, want = boolean_screen(C, s, s, eps, sample)
        assert bits(values) == bits(want_values)
        assert certifies.tolist() == want.tolist(), (T, eps)
        outcomes.update(want.tolist())
    assert outcomes == {True, False}


@pytest.mark.parametrize("s", [linf(3), l1(3)], ids=repr)
def test_near_corners_are_the_read_distances_below_eps(s):
    # the screen drops a corner when its read distance is below eps, the
    # boolean screen when its measured distance is below _far_from(eps):
    # the far rule makes the two the same corners
    rng = np.random.default_rng(7)
    patterns = polyhedral_table(s).patterns
    outcomes = set()
    for eps in (1e-15, 0.3, 1.0, 2.0):
        Z = corner_points(s, eps)
        for _ in range(6):
            rows = np.sort(rng.choice(len(patterns), size=rng.integers(1, 9)))
            read = _corner_distances(s, eps, rows.astype(np.intp).tobytes())
            measured = face_distances(s, patterns[rows], Z).min(axis=0)
            near = measured < _far_from(eps)
            assert (read < eps).tolist() == near.tolist(), (eps, rows)
            outcomes.update(near.tolist())
    assert outcomes == {True, False}


def test_screen_on_l_inf_8_holds_no_masks(monkeypatch):
    # the corners of l_inf^8 at eps 0.2 are 65,280, with 6560 faces: no
    # face mask is held, and the screen measures the maximal faces of each
    # distinct attained-face mask of its block once
    s, eps = linf(8), 0.2
    T = operator(np.eye(8), s, s)
    D = np.random.default_rng(8).standard_normal((6, 8, 8))
    cands, _, found = _halving_search(T, D, eps)
    C = cands[found]
    sample = _sample(T, None, 0, _exact_table(T, eps))
    assert len(sample.rows) == 65280
    calls = []
    real = bpbverify.face_distances
    monkeypatch.setattr(bpbverify, "face_distances", lambda *a: calls.append(1) or real(*a))
    bpbverify._corner_distances.cache_clear()
    values, certifies = _polyhedral_screen(C, s, s, eps, sample)
    want_values, want = boolean_screen(C, s, s, eps, sample)
    assert bits(values) == bits(want_values) and certifies.tolist() == want.tolist()
    hit = _attaining_faces(C, values, s, s)
    used = np.flatnonzero(hit.any(axis=0))
    assert len(used) > 1
    assert len(calls) == len(np.unique(hit, axis=0))
