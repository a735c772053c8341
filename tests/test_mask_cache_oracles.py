"""Differential tests of the memoised polyhedral attainment sets.

`operators._mask_faces` keeps the maximal faces of each attained-face mask,
and `bpbverify._corner_distances` each set's corner distances per (space,
eps).  The references are the forms they replaced, kept here verbatim in
logic: the per-operator `_maximal_faces` with its blocked holder count,
the descent's least entry of the corner table rows of M's faces, and a
faces `AttainmentSet` that finds its rows and patterns from `faces`.
Each must agree with the library: the same Face objects in the same
order, the same bits.
"""

import numpy as np
import pytest
from test_corner_table_oracles import certify_tasks, far_rule_table, sweep

from bpblab import bpbverify, operators
from bpblab.approximants import linf3_l13_extreme_approx, linf_extreme_approx
from bpblab.bpbverify import _corner_distances, is_only_approximation, verify_uniform_bpb
from bpblab.classify import enumerate_extreme_linf3_l13
from bpblab.operators import (
    AttainmentSet,
    _attaining_faces,
    attainment_equal,
    attainment_set,
    op_norm,
    operator,
)
from bpblab.spaces import Face, code_containment, l1, l2, linf, polyhedral_table

# ---------------------------------------------------------------------------
# The replaced implementation.
# ---------------------------------------------------------------------------


def parent_maximal_faces(T, value, block=256):
    """The maximal faces of M_T, by the holder count over the hit faces of
    T itself, `block` hit faces at a time."""
    table = polyhedral_table(T.domain)
    hit = _attaining_faces(T.entries, value, T.domain, T.codomain).nonzero()[0]
    codes = table.codes[hit]
    holders = np.zeros(len(hit), dtype=np.intp)
    for i in range(0, len(hit), block):
        holders += code_containment(T.domain, codes[i:i + block, None], codes).sum(axis=0)
    return tuple(table.faces[i] for i in hit[holders == 1].tolist())


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def clear():
    operators._norm_analysis.cache_clear()
    operators._mask_faces.cache_clear()
    bpbverify._corner_distances.cache_clear()


def assert_parent_faces(T):
    value = op_norm(T)[0]
    want = parent_maximal_faces(T, value)
    faces, rows = operators._maximal_faces(T, value)
    assert len(faces) == len(want) and all(a is b for a, b in zip(faces, want)), T
    table = polyhedral_table(T.domain)
    assert rows.tolist() == [table.rows[f.pattern] for f in want] and not rows.flags.writeable
    M = attainment_set(T)
    assert M.faces is faces and M._rows is rows
    assert M._patterns.dtype == np.int8 and not M._patterns.flags.writeable
    assert M._patterns.tolist() == table.patterns[rows].tolist()
    # a set built from its faces alone finds the same rows
    fresh = AttainmentSet("faces", value, T.domain, faces=want)
    assert np.array_equal(fresh._rows, rows) and not fresh._rows.flags.writeable
    return faces


def census_operators():
    out = []
    for T in enumerate_extreme_linf3_l13():
        out += [T, linf3_l13_extreme_approx(T, 0.3).approximant]
    for T, construct in certify_tasks():
        out += [T, construct(T, 0.3).approximant]
    return out


def tied_operators(dom, cod, count, rng):
    """Dense Gaussian matrices with a tied (equal or opposite) column, and
    sparse ones with entries in {-1, 0, 1}, from `dom` to `cod`."""
    out = []
    for k in range(count):
        M = rng.standard_normal((cod.n, dom.n))
        if k % 3 == 1:
            M[:, 1] = M[:, 0] if k % 2 else -M[:, 0]
        elif k % 3 == 2:
            M = rng.integers(-1, 2, size=(cod.n, dom.n)).astype(float)
            M[0, 0] = 1.0
        out.append(operator(M, dom, cod))
    return out


DOMAINS = [linf(n) for n in (2, 3, 4, 5)] + [l1(n) for n in (2, 3, 4)]


def seeded_operators():
    out = []
    for dom in DOMAINS:
        for cod in (l1(2), l2(2), linf(2), l1(3), l2(3), linf(3)):
            out += tied_operators(dom, cod, 12, np.random.default_rng(7 * dom.n + cod.n))
    return out


def test_census_and_certify_operators_match_the_parent_faces():
    clear()
    ops = census_operators()
    assert len(ops) == 2 * (90 + 140)
    for T in ops:
        assert_parent_faces(T)
    info = operators._mask_faces.cache_info()
    assert info.hits > info.misses > 0


def test_seeded_operators_match_the_parent_faces():
    clear()
    sizes = set()
    for T in seeded_operators():
        sizes.add(len(assert_parent_faces(T)))
    assert max(sizes) > 1


def test_identity_on_linf8_matches_the_parent_faces():
    clear()
    s = linf(8)
    T = operator(np.eye(8), s, s)
    assert int(_attaining_faces(T.entries, 1.0, s, s).sum()) == 6560
    faces = assert_parent_faces(T)
    assert len(faces) == 16 and all(f.dim == 7 for f in faces)


@pytest.mark.parametrize("block", [1, 7])
def test_holder_blocks_do_not_change_the_faces(block, monkeypatch):
    monkeypatch.setattr(operators, "_HOLDER_ROWS", block)
    clear()
    s = linf(8)
    ops = seeded_operators()[::5] + [operator(np.eye(8), s, s)]
    for T in ops:
        assert_parent_faces(T)
    clear()


def test_a_mask_hit_returns_the_entry_of_its_miss():
    # two operators attaining on the same faces share one result
    clear()
    s = linf(3)
    T = operator(np.diag([1.0, 0.5, 0.25]), s, s)
    U = operator(np.diag([1.0, -0.75, 0.5]), s, s)
    first = operators._maximal_faces(T, 1.0)
    assert operators._maximal_faces(U, 1.0) is first
    assert attainment_set(U).faces is attainment_set(T).faces is first[0]
    assert operators._mask_faces.cache_info()[:2] == (3, 1)


def test_attainment_equal_reads_faces_in_any_order():
    s = linf(3)
    M = attainment_set(operator(np.diag([1.0, 1.0, 0.5]), s, s))
    assert len(M.faces) == 4
    shuffled = AttainmentSet("faces", 1.0, s, faces=M.faces[::-1] + M.faces[:1])
    assert attainment_equal(M, shuffled) and attainment_equal(shuffled, M)
    assert not attainment_equal(M, AttainmentSet("faces", 1.0, s, faces=M.faces[1:]))
    # past the enumeration limit no table exists, and none is needed
    big = linf(13)
    a = AttainmentSet("faces", 1.0, big, faces=(Face(big, (1,) + (0,) * 12),))
    b = AttainmentSet("faces", 1.0, big, faces=(Face(big, (-1,) + (0,) * 12),))
    assert attainment_equal(a, a) and not attainment_equal(a, b)
    assert a.distance_to(np.zeros(13)).tolist() == [1.0]


def test_first_pass_hits_come_from_shared_faces():
    # one pass from cleared caches: the operators of a pass attain on few
    # distinct face sets, so nearly every call is a hit without any pass
    # repeating (the norm memo gains no hit across passes,
    # test_no_memo_hit_crosses_a_pass)
    clear()
    tasks = certify_tasks()
    sweep(tasks)
    masks = operators._mask_faces.cache_info()
    vectors = bpbverify._corner_distances.cache_info()
    assert masks.hits >= 0.9 * (masks.hits + masks.misses), masks
    assert masks.currsize < masks.maxsize and vectors.currsize < vectors.maxsize
    assert vectors.hits + vectors.misses == len(tasks)
    assert vectors.hits >= 0.8 * len(tasks), vectors


# ---------------------------------------------------------------------------
# The corner distances of a set.
# ---------------------------------------------------------------------------


def test_corner_distances_are_the_least_far_rule_row():
    rng = np.random.default_rng(5)
    for s in (linf(2), linf(3), l1(2), l1(3)):
        for eps in (1e-12, 0.05, 0.3, 1.0, 2.0):
            bpbverify._corner_distances.cache_clear()
            want = far_rule_table(s, eps)
            for _ in range(6):
                rows = np.sort(rng.choice(len(want), size=rng.integers(1, 6), replace=False))
                got = _corner_distances(s, eps, rows.astype(np.intp).tobytes())
                assert not got.flags.writeable
                assert got.tobytes() == want[rows].min(axis=0).tobytes(), (s, eps, rows)
    bpbverify._corner_distances.cache_clear()


def row_condition_triple(n):
    """T with rows e_1, e_3, e_1, e_4, .., -e_n on l_inf^n and its
    `linf_extreme_approx` at eps 0.3."""
    M = np.zeros((n, n))
    M[np.arange(n), [0, 2, 0] + list(range(3, n))] = [1.0] * (n - 1) + [-1.0]
    T = operator(M, linf(n), linf(n))
    return T, linf_extreme_approx(T, 0.3).approximant


def count_face_distances(monkeypatch):
    """The list that each later `face_distances` call of the certificates
    appends to."""
    calls = []
    real = bpbverify.face_distances
    monkeypatch.setattr(bpbverify, "face_distances", lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("n", [5, 6])
def test_a_repeated_verify_measures_no_face(n, monkeypatch):
    T, A = row_condition_triple(n)
    calls = count_face_distances(monkeypatch)
    bpbverify._corner_distances.cache_clear()
    first = verify_uniform_bpb(T, A, 0.3)
    assert first.certified and len(calls) == 1
    calls.clear()
    second = verify_uniform_bpb(T, A, 0.3)
    assert not calls
    assert second == first


def test_a_repeated_rigidity_search_measures_no_face(monkeypatch):
    # the screen reads the same cached corner distances as the
    # certificates, so only the first search measures faces
    T, _ = row_condition_triple(5)
    calls = count_face_distances(monkeypatch)
    bpbverify._corner_distances.cache_clear()
    first = is_only_approximation(T, 0.3, trials=4, seed=3)
    assert calls
    calls.clear()
    second = is_only_approximation(T, 0.3, trials=4, seed=3)
    assert not calls
    assert second == first
