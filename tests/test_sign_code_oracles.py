"""Differential tests of the sign-code face rules against the code they replaced.

The references below are the earlier implementations, kept verbatim in
logic: the per-coordinate face containment loop, the maximal-face filter
of the polyhedral attainment set (that loop over the hit patterns, with
the diagonal cleared), and the grid certificate's witness row measured by
`AttainmentSet.distance_to`.
"""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from bpblab import attainment_set, l1, linf, op_norm, operator, operators
from bpblab.bpbverify import SWEEP_PAIRS
from bpblab.operators import _attaining_faces
from bpblab.spaces import (
    INF,
    SpaceSpec,
    as_exponent,
    code_containment,
    face_containment,
    face_distances,
    lp,
    polyhedral_table,
    sign_codes,
)

# ---------------------------------------------------------------------------
# The replaced implementations.
# ---------------------------------------------------------------------------


def loop_face_containment(s, big, small):
    """C[i, j]: whether the face with sign pattern small[j] lies in the face
    with sign pattern big[i], one coordinate at a time."""
    big, small = np.atleast_2d(big), np.atleast_2d(small)
    C = np.ones((len(big), len(small)), dtype=bool)
    for b, q in zip(big.T, small.T):
        b, q = b[:, None], q[None, :]
        free = b == 0 if s.p == INF else q == 0
        C &= free | (b == q)
    return C


def loop_maximal_faces(T, value):
    """The maximal attaining faces: the hit faces no other hit face holds,
    by the containment loop over every pair of hit patterns."""
    table = polyhedral_table(T.domain)
    hit = np.flatnonzero(_attaining_faces(T.entries, value, T.domain, T.codomain))
    H = table.patterns[hit]
    inside = loop_face_containment(T.domain, H, H)
    np.fill_diagonal(inside, False)
    return tuple(table.faces[i] for i in hit[~inside.any(axis=0)])


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

SMALL = [linf(n) for n in (1, 2, 3, 4)] + [l1(n) for n in (1, 2, 3, 4)]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("s", SMALL, ids=repr)
def test_code_rule_is_the_containment_loop(s):
    table = polyhedral_table(s)
    P, V = table.patterns, table.vertices
    for small, codes in ((P, table.codes), (V, sign_codes(s, V))):
        want = loop_face_containment(s, P, small)
        assert np.array_equal(code_containment(s, table.codes[:, None], codes[None, :]), want)
        assert np.array_equal(face_containment(s, P, small), want)
    # the codes name the patterns one to one, in the order of the faces,
    # and a vertex's code is that of its own pattern
    assert len(set(table.codes.tolist())) == len(P)
    assert [f.pattern for f in table.faces] == [tuple(q) for q in P.tolist()]
    in_faces = dict(zip((f.pattern for f in table.faces), table.codes.tolist()))
    assert [in_faces[tuple(int(x) for x in v)] for v in V] == sign_codes(s, V).tolist()


@pytest.mark.parametrize("s", SMALL, ids=repr)
def test_a_vertex_lies_0_or_2_from_a_face(s):
    # the closed form the grid certificate's witness row read off containment
    table = polyhedral_table(s)
    D = face_distances(s, table.patterns, table.vertices)
    held = loop_face_containment(s, table.patterns, table.vertices)
    assert np.array_equal(_bits(D), _bits(np.where(held, 0.0, 2.0)))


def _family_operators(eps_list=(0.05, 0.3)):
    """T and its approximant A for every member of the five polyhedral
    sweep families (8 + 168 + 8 + 168 + 90) at each eps."""
    out = []
    for key, size in (("linf2", 8), ("linf3", 168), ("l12", 8), ("l13", 168), ("linf3-l13", 90)):
        pair = SWEEP_PAIRS[key]
        members = pair.draw(size, np.random.default_rng(0))
        assert len(members) == size
        for M in members:
            T = operator(M, pair.domain, pair.codomain)
            out.append(T)
            out.extend(pair.construct(T, eps).approximant for eps in eps_list)
    return out


@pytest.fixture(scope="module")
def family_operators():
    return _family_operators()


def _seeded_operators(s, count, rng):
    """Dense Gaussian matrices, ones with a tied (equal or opposite) row,
    and sparse matrices with entries in {-1, 0, 1}, on l_1^n or l_inf^n."""
    out = []
    for k in range(count):
        M = rng.standard_normal((s.n, s.n))
        if k % 3 == 1:
            M[1] = M[0] if k % 2 else -M[0]
        elif k % 3 == 2:
            M = rng.integers(-1, 2, size=(s.n, s.n)).astype(float)
            M[0, 0] = 1.0
        out.append(operator(M, s, s))
    return out


def _assert_parent_faces(T):
    value = op_norm(T)[0]
    got = attainment_set(T)
    assert got.value == value
    assert got.faces == loop_maximal_faces(T, value), T


def test_maximal_faces_hold_one_block_of_containments():
    # T = I on l_inf^8 attains on all 6,560 faces; a hits x hits
    # containment grid peaked at 125 MB of traced memory; the loop filter
    # checks these faces and their order in
    # test_identity_on_linf8_matches_the_loop_filter
    s = linf(8)
    table = polyhedral_table(s)
    table.codes, table.faces, table.barycentres  # the space's tables, built untraced
    T = operator(np.eye(8), s, s)
    operators._norm_analysis.cache_clear()
    op_norm(T)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        M = attainment_set(T)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.faces == tuple(f for f in table.faces if f.dim == 7)
    assert len(M.faces) == 16
    assert peak < 16e6 and elapsed < 1.0, (peak, elapsed)


def test_family_attainment_matches_the_loop_filter(family_operators):
    assert len(family_operators) == 3 * 442
    for T in family_operators:
        _assert_parent_faces(T)


WIDER = [linf(n) for n in (2, 3, 4, 5)] + [l1(n) for n in (2, 3, 4, 5)]


@pytest.mark.parametrize("s", WIDER, ids=repr)
def test_seeded_attainment_matches_the_loop_filter(s):
    sizes = set()
    for T in _seeded_operators(s, 400, np.random.default_rng(41 + s.n)):
        _assert_parent_faces(T)
        sizes.add(len(attainment_set(T).faces))
    assert max(sizes) > 1


def test_identity_on_linf8_matches_the_loop_filter():
    _assert_parent_faces(operator(np.eye(8), linf(8), linf(8)))


def witness_row(M, vertex):
    """The grid certificate's distance from a vertex of the ball, its
    norming row, to a faces set M: 0.0 when the sign code of a face of M
    holds the vertex's, else 2.0."""
    codes = sign_codes(M.space, [f.pattern for f in M.faces])
    held = code_containment(M.space, codes, sign_codes(M.space, vertex[None, :])[0]).any()
    return 0.0 if held else 2.0


def test_witness_row_is_distance_to(family_operators):
    # every vertex of the ball as T's norming row, against M_T and M_A of
    # each family triple: the grid oracle's witness row is distance_to's bits
    checked = 0
    for T in family_operators:
        M = attainment_set(T)
        for v in polyhedral_table(T.domain).vertices:
            want = _bits(M.distance_to(v[None, :])).tolist()
            assert _bits(np.array([witness_row(M, v)])).tolist() == want, (T, v)
            checked += 1
    assert checked > 5000


def test_float_exponent_is_converted_once_and_is_no_field():
    # so are the three flags, from the exact exponent, and the hash
    tiny = as_exponent("1.00000000000000000001")
    for p in (1, 2, INF, "3/2", 4, tiny, SpaceSpec(tiny, 2).dual().p):
        s = lp(p, 2)
        assert s.pf == float(s.p)
        assert type(s.pf) is float
        assert s.polyhedral is (s.p == 1 or s.p == INF)
        assert s.strictly_convex is (1 < s.p < INF)
        assert s.hilbert is (s.p == 2)
        assert hash(s) == hash((s.p, s.n)) == hash(SpaceSpec(s.p, 2))
    assert lp(tiny, 2).strictly_convex and not lp(tiny, 2).polyhedral and lp(tiny, 2).pf == 1.0
    assert [f.name for f in dataclasses.fields(SpaceSpec)] == ["p", "n"]
    assert lp(4, 3) == lp(4, 3) and hash(lp(4, 3)) == hash(SpaceSpec(4, 3))
    assert repr(lp("3/2", 2)) == "l_3/2^2"


def test_code_rule_on_wide_spaces():
    # past 64 bits the codes are Python ints
    for s in (l1(40), linf(40)):
        rng = np.random.default_rng(s.n)
        P = rng.integers(-1, 2, size=(30, s.n))
        P[:, 0] = 1
        Q = np.where(rng.random(P.shape) < 0.3, 0, P)
        Q[:, 0] = 1
        R = np.concatenate([P, Q])
        assert np.array_equal(face_containment(s, R, R), loop_face_containment(s, R, R))
    assert sign_codes(l1(40), [[0] * 39 + [-1]]).tolist() == [1 << 79]
