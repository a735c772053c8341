"""Differential tests of the cached polyhedral certificate tables.

The exact certificate on l_1^n and l_inf^n reads each corner's distance to
M_A off one cached vector per (space, eps, faces of M_A),
`bpbverify._corner_distances`, and the norm memo
`operators._norm_analysis` holds ||T||, its maximising vertex and M_T's
maximal faces on polyhedral pairs.  The references are
the forms they replaced, kept here verbatim in logic: `face_distances`
with the far rule applied to every entry, the descent that measures every
corner by `AttainmentSet.distance_to`, the rigidity screen that builds its
own face distances, and the halving search through the public
`op_norms`.  Each must agree with the library bit for bit.
"""

import contextlib
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from bpblab import bpbverify, operators
from bpblab.approximants import l1_extreme_approx, linf3_l13_extreme_approx, linf_extreme_approx
from bpblab.bpbverify import (
    SWEEP_PAIRS,
    BpbCertificate,
    _corner_distances,
    _exact_table,
    _far_from,
    _halving_search,
    _polyhedral_screen,
    _sample,
    delta_descent,
    delta_for_epsilon,
    is_only_approximation,
    verify_uniform_bpb,
)
from bpblab.classify import enumerate_extreme_linf3_l13, enumerate_isometries
from bpblab.cli import main
from bpblab.errors import NonFiniteError, UnsupportedPairError
from bpblab.operators import (
    OperatorMatrix,
    _attaining_faces,
    attainment_set,
    check_norm_one,
    norm_one_attainment_set,
    op_norm,
    op_norms,
    operator,
)
from bpblab.sampling import corner_points
from bpblab.spaces import INF, Point, face_distances, l1, l2, linf, lp, polyhedral_table

POLYHEDRAL = [linf(2), linf(3), l1(2), l1(3)]
EPS = [2.0 ** -60, 1e-15, 1e-12, 0.05, 0.1, 0.3, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 1.2, 1.9, 2.0, 3.0]


def require_norm_one(T, what="operator"):
    """The former norm-one gate, kept as the oracle's: op_norm(T), with its
    witness, then `check_norm_one` on the value."""
    value, witness = op_norm(T)
    check_norm_one(value, what)
    return value, witness


def bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def far_rule_table(s, eps):
    """The distances from the corners to every face, measured afresh, with
    a distance in [_far_from(eps), eps) read as eps afterwards."""
    D = face_distances(s, polyhedral_table(s).patterns, corner_points(s, eps))
    D[(D < eps) & (D >= _far_from(eps))] = eps
    return D


def corner_distances(s, eps, rows):
    """`_corner_distances` of the faces of table rows `rows`."""
    return _corner_distances(s, eps, np.asarray(rows, dtype=np.intp).tobytes())


WHOLE = [l1(1), l1(2), l1(3), linf(1), linf(2), linf(3), linf(4)]


@pytest.mark.parametrize("s", WHOLE, ids=repr)
def test_corner_distances_are_face_distances_with_the_far_rule(s):
    # every face alone, all faces, and rows out of order and repeated
    faces = polyhedral_table(s).faces
    every = list(range(len(faces)))
    for eps in EPS + np.random.default_rng(83).uniform(0.0, 2.0, 6).tolist():
        want = far_rule_table(s, eps)
        assert corner_distances(s, eps, every) is corner_distances(s, eps, every)
        assert bits(corner_distances(s, eps, every)) == bits(want.min(axis=0)), eps
        # one face at a time, as a set of that face alone measures it
        Z = corner_points(s, eps)
        for k in every:
            d = face_distances(s, [faces[k].pattern], Z)[0]
            np.copyto(d, eps, where=(d < eps) & (d >= _far_from(eps)))
            assert bits(corner_distances(s, eps, [k])) == bits(d) == bits(want[k]), (eps, faces[k])
        for rows in ([1, 0, 1], every[::-1], [1, 1]):
            assert bits(corner_distances(s, eps, rows)) == bits(want[rows].min(axis=0))


def test_corner_distances_on_l_inf_8_measure_the_faces_they_read():
    # 6560 faces by 65,280 corners: only the faces read are measured
    s, eps, rng = linf(8), 0.2, np.random.default_rng(8)
    patterns = polyhedral_table(s).patterns
    Z = corner_points(s, eps)
    for _ in range(3):
        rows = rng.choice(len(patterns), size=3).tolist()
        want = face_distances(s, patterns[rows], Z)
        np.copyto(want, eps, where=(want < eps) & (want >= _far_from(eps)))
        assert bits(corner_distances(s, eps, rows)) == bits(want.min(axis=0))


@pytest.mark.parametrize("s", [linf(3), l1(3)], ids=repr)
def test_corner_distances_are_read_only(s):
    want = far_rule_table(s, 0.3)
    for rows in ([0], [2, 5], list(range(len(want)))):
        held = corner_distances(s, 0.3, rows)
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0] = -1.0
        assert bits(corner_distances(s, 0.3, rows)) == bits(want[rows].min(axis=0))


@pytest.mark.parametrize("s", [linf(3), l1(3)], ids=repr)
def test_corner_distances_past_the_cache_are_measured_again(s, monkeypatch):
    # an entry pushed out by _CORNER_VECTORS_KEPT later ones is measured
    # once more on its next read, to the same bits; a held entry is not
    eps = 0.3
    want = far_rule_table(s, eps)
    calls = []
    real = bpbverify.face_distances
    monkeypatch.setattr(bpbverify, "face_distances", lambda *a: calls.append(1) or real(*a))
    bpbverify._corner_distances.cache_clear()
    first = corner_distances(s, eps, [0])
    later = [[k] for k in range(1, len(want))] + [[0, k] for k in range(1, len(want))]
    later = later[: bpbverify._CORNER_VECTORS_KEPT]
    for rows in later:
        corner_distances(s, eps, rows)
    assert len(calls) == 1 + len(later)
    calls.clear()
    assert bits(corner_distances(s, eps, later[-1])) == bits(want[later[-1]].min(axis=0))
    assert not calls
    again = corner_distances(s, eps, [0])
    assert len(calls) == 1
    assert again is not first and bits(again) == bits(first) == bits(want[0])
    bpbverify._corner_distances.cache_clear()


@pytest.mark.parametrize("s", POLYHEDRAL, ids=repr)
def test_least_row_over_faces_is_distance_to_with_the_far_rule(s):
    # the rule commutes with the minimum over any union of faces
    rng = np.random.default_rng(89)
    table = polyhedral_table(s)
    for eps in EPS:
        Z = corner_points(s, eps)
        for k in (1, 2, 3, 5):
            rows = np.sort(rng.choice(len(table.faces), size=k, replace=False))
            M = operators.AttainmentSet("faces", 1.0, s, faces=tuple(table.faces[i] for i in rows))
            want = M.distance_to(Z)
            np.copyto(want, eps, where=(want < eps) & (want >= _far_from(eps)))
            assert bits(corner_distances(s, eps, rows)) == bits(want)


# ---------------------------------------------------------------------------
# The descent that measured every corner by distance_to.
# ---------------------------------------------------------------------------


def distance_to_descent(M, top, eps, sample):
    """The exact descent before the corner table: the corners measured by
    `distance_to`, then read from `_far_from(eps)` up as eps."""
    dists = M.distance_to(sample.rows)
    np.copyto(dists, eps, where=(dists < eps) & (dists >= _far_from(eps)))
    delta, worst, idx = delta_descent(sample.norms, dists, top, eps)
    return delta, worst, None if idx is None else Point(sample.rows[idx], M.space)


@contextlib.contextmanager
def no_memo():
    """Every norm analysis computed afresh, as before the polyhedral memo."""
    memo = operators._norm_analysis
    operators._norm_analysis = memo.__wrapped__
    try:
        yield
    finally:
        operators._norm_analysis = memo


def reference_verify(T, A, eps, resolution=4096):
    """verify_uniform_bpb with the distance_to descent, and no memo."""
    with no_memo():
        _, witness = require_norm_one(T, "T")
        MA = norm_one_attainment_set(A, "A")
        dist, _ = op_norm(T - A)
        sample = _sample(T, witness, resolution, _exact_table(T, eps))
    delta, worst, z = None, math.inf, None
    if dist < eps:
        delta, worst, z = distance_to_descent(MA, 1.0, eps, sample)
    status = "falsified" if delta is None else "certified"
    return BpbCertificate(status, eps, delta, resolution, worst, z, dist, sample.basis)


def reference_delta_search(T, eps, resolution=4096):
    """delta_for_epsilon with the distance_to descent, and no memo: (delta,
    the counterexample's coordinates or None)."""
    with no_memo():
        M = attainment_set(T)
    sample = _sample(T, None, resolution, _exact_table(T, eps))
    delta, _, z = distance_to_descent(M, M.value, eps, sample)
    return delta, None if z is None else bits(z.coords)


def delta_search(T, eps):
    got = delta_for_epsilon(T, eps)
    return got.delta, None if got.counterexample is None else bits(got.counterexample.coords)


def cert_bits(c):
    z = None if c.counterexample is None else bits(c.counterexample.coords)
    return (c.status, c.eps, bits(c.delta_found if c.delta_found is not None else np.nan),
            c.resolution, bits(c.worst_distance), z, bits(c.operator_distance), c.basis)


def one_per_row(n):
    """Every n x n matrix with one +/-1 per row that is not a signed
    permutation."""
    for cols in itertools.product(range(n), repeat=n):
        if len(set(cols)) < n:
            for signs in itertools.product((1.0, -1.0), repeat=n):
                M = np.zeros((n, n))
                M[np.arange(n), cols] = signs
                yield M


def family_triples():
    """The 1,326 triples of the five polyhedral sweep families at eps 0.05,
    0.1 and 0.3: (T, its family constructor, eps)."""
    out = []
    for name in ("linf2", "linf3", "l12", "l13", "linf3-l13"):
        pair = SWEEP_PAIRS[name]
        if name == "linf3-l13":
            ops = enumerate_extreme_linf3_l13()
        else:
            n = pair.domain.n
            mats = one_per_row(n) if pair.domain.p == INF else (M.T for M in one_per_row(n))
            ops = [OperatorMatrix(M, pair.domain, pair.codomain) for M in mats]
        out += [(T, pair.construct, eps) for T in ops for eps in (0.05, 0.1, 0.3)]
    return out


def condition_matrix(rng, n):
    """One +/-1 per row, columns not all distinct."""
    while True:
        cols = rng.integers(0, n, size=n)
        if len(set(cols.tolist())) < n:
            break
    M = np.zeros((n, n))
    M[np.arange(n), cols] = rng.choice([-1.0, 1.0], size=n)
    return M


def certify_tasks(seed=1):
    """The 140 construct-and-certify tasks of the poly-certify benchmark
    pass at `seed`, in its order: the 90 census members, then seeded
    condition matrices, 10 on each of l_inf^2, l_inf^3 and l_1^2 and 20 on
    l_1^3 (transposed on l_1).  (T, constructor) pairs at eps 0.3."""
    rng = np.random.default_rng(seed)
    tasks = [(T, linf3_l13_extreme_approx) for T in enumerate_extreme_linf3_l13()]
    for s, count in ((linf(2), 10), (linf(3), 10), (l1(2), 10), (l1(3), 20)):
        for _ in range(count):
            M = condition_matrix(rng, s.n)
            if s.p == INF:
                tasks.append((operator(M, s, s), linf_extreme_approx))
            else:
                tasks.append((operator(M.T, s, s), l1_extreme_approx))
    return tasks


def test_certificates_equal_the_distance_to_descent_on_every_family_triple():
    triples = family_triples()
    assert len(triples) == 1326
    statuses = set()
    for T, construct, eps in triples:
        A = construct(T, eps).approximant
        cert = verify_uniform_bpb(T, A, eps)
        assert cert_bits(cert) == cert_bits(reference_verify(T, A, eps)), (T, eps)
        assert delta_search(T, eps) == reference_delta_search(T, eps)
        statuses.add(cert.status)
    assert statuses == {"certified"}


def test_certificates_equal_the_distance_to_descent_on_the_certify_tasks():
    tasks = certify_tasks()
    assert len(tasks) == 140
    for T, construct in tasks:
        A = construct(T, 0.3).approximant
        want = cert_bits(reference_verify(T, A, 0.3, 16384))
        assert cert_bits(verify_uniform_bpb(T, A, 0.3, resolution=16384)) == want


def test_falsified_certificates_equal_the_distance_to_descent():
    # dense operators and near-attaining diagonals: falsified verdicts and
    # their counterexamples, and failed delta searches
    rng = np.random.default_rng(97)
    statuses, searches = set(), set()
    for dom in POLYHEDRAL:
        for cod in (linf(3), l1(3), dom):
            for k in range(3):
                M = rng.standard_normal((cod.n, dom.n))
                if k == 0 and dom == cod:
                    M = np.diag([1.0] + [1.0 - 1e-7] * (dom.n - 1))
                T = operator(M / op_norm(operator(M, dom, cod))[0], dom, cod)
                E = T.entries + 0.02 * rng.standard_normal(T.entries.shape)
                A = operator(E / op_norm(operator(E, dom, cod))[0], dom, cod)
                for eps in (0.05, 0.3, 1.0):
                    cert = verify_uniform_bpb(T, A, eps)
                    assert cert_bits(cert) == cert_bits(reference_verify(T, A, eps))
                    got = delta_search(T, eps)
                    assert got == reference_delta_search(T, eps)
                    statuses.add(cert.status)
                    searches.add(got[0] is not None)
    assert statuses == {"certified", "falsified"} and searches == {True, False}


# ---------------------------------------------------------------------------
# The rigidity screen and the halving search.
# ---------------------------------------------------------------------------


def reference_screen(C, dom, cod, eps, sample):
    """The screen before the corner table: face distances of the corners
    to the faces some candidate attains on, near below `_far_from(eps)`."""
    values = op_norms(C, dom, cod)
    hit = _attaining_faces(C, values, dom, cod)
    used = np.flatnonzero(hit.any(axis=0))
    D = face_distances(dom, polyhedral_table(dom).patterns[used], sample.rows)
    near = D < _far_from(eps)
    g = np.where(hit[:, used] @ near, -np.inf, sample.norms).max(axis=1)
    return values, g <= 1.0 - 2.0 ** -19


def reference_halving_search(T, D, eps, halvings=60):
    """The halving search through two public `op_norms` calls per halving."""
    dom, cod = T.domain, T.codomain
    cands, dists = np.empty_like(D), np.empty(len(D))
    found = np.zeros(len(D), dtype=bool)
    open_ = np.arange(len(D))
    t = eps / 2.0
    for _ in range(halvings):
        C = T.entries + t * D[open_]
        C /= op_norms(C, dom, cod)[:, None, None]
        d = op_norms(T.entries - C, dom, cod)
        hit = d < eps
        done = open_[hit]
        cands[done], dists[done], found[done] = C[hit], d[hit], True
        open_ = open_[~hit]
        if not open_.size:
            break
        t /= 2.0
    return cands, dists, found


def rigidity_operators():
    """Isometries, rounded and dense norm-one operators on the polyhedral
    spaces, and operators on l_2^2, l_2^3 and l_3^2."""
    rng = np.random.default_rng(101)
    ops = []
    for s in POLYHEDRAL + [l2(2), l2(3), lp(3, 2)]:
        if s.polyhedral:
            ops += enumerate_isometries(s)[:3]
        for M in (np.round(rng.standard_normal((s.n, s.n))), rng.standard_normal((s.n, s.n))):
            M[0, 0] = 2.0
            ops.append(operator(M / op_norm(operator(M, s, s))[0], s, s))
    return ops


@pytest.mark.parametrize("halvings", [bpbverify.HALVINGS, 2])
def test_halving_search_equals_the_op_norms_loop(halvings, monkeypatch):
    # two halvings leave some directions without a candidate
    monkeypatch.setattr(bpbverify, "HALVINGS", halvings)
    rng = np.random.default_rng(103)
    outcomes = set()
    for T in rigidity_operators():
        for eps in (0.05, 0.5):
            D = rng.standard_normal((16 if T.domain.polyhedral else 3, *T.entries.shape))
            got = _halving_search(T, D, eps)
            want = reference_halving_search(T, D, eps, halvings)
            assert got[2].tolist() == want[2].tolist()
            f = want[2]
            assert bits(got[0][f]) == bits(want[0][f]) and bits(got[1][f]) == bits(want[1][f])
            outcomes.update(f.tolist())
    assert outcomes == ({True} if halvings > 2 else {True, False})


def assert_search_is_the_reference(T, D, eps, halvings=60):
    """`_halving_search` gives the reference's outcome bit for bit; returns
    which directions found a candidate."""
    got = _halving_search(T, D, eps)
    want = reference_halving_search(T, D, eps, halvings)
    assert got[2].tolist() == want[2].tolist()
    f = want[2]
    assert bits(got[0][f]) == bits(want[0][f]) and bits(got[1][f]) == bits(want[1][f])
    return f


def first_hit_level(T, D, eps):
    """The halving (0 for t = eps/2) at which the reference search finds
    the candidate of the one direction D, None past HALVINGS."""
    for h in range(1, bpbverify.HALVINGS + 1):
        if reference_halving_search(T, D[None], eps, h)[2][0]:
            return h - 1
    return None


@pytest.mark.parametrize("halvings", [2, 5, 6])
def test_halving_search_clips_its_last_block(halvings, monkeypatch):
    # not multiples of HALVING_LEVELS, so the last block decides fewer
    # halvings; scaling a direction by 2^j moves its first hit j halvings
    # later, so some directions run out of halvings
    monkeypatch.setattr(bpbverify, "HALVINGS", halvings)
    rng = np.random.default_rng(109)
    outcomes = set()
    for T in rigidity_operators():
        if T.domain.polyhedral:
            D = rng.standard_normal((16, *T.entries.shape)) * 2.0 ** rng.integers(0, 8, (16, 1, 1))
            outcomes.update(assert_search_is_the_reference(T, D, 0.05, halvings).tolist())
    assert outcomes == {True, False}


@pytest.mark.parametrize("s", POLYHEDRAL, ids=repr)
def test_halving_search_first_hits_straddle_the_first_block(s):
    # a direction first hit at halving 7 keeps the search open past the
    # first block while the others are found at its edge
    assert bpbverify.HALVING_LEVELS == 4
    rng = np.random.default_rng(113)
    T = operator(np.eye(s.n), s, s)
    D0 = rng.standard_normal((s.n, s.n)) * 2.0 ** 8
    base = first_hit_level(T, D0, 0.05)
    assert base >= 5
    D = np.array([D0 * 2.0 ** (j - base) for j in (3, 4, 5, 0, 7)])
    assert [first_hit_level(T, d, 0.05) for d in D] == [3, 4, 5, 0, 7]
    assert assert_search_is_the_reference(T, D, 0.05).all()


def rng_direction(s, seed):
    return np.random.default_rng(seed).standard_normal((s.n, s.n))


def test_halving_search_never_reaches_a_zero_past_a_first_hit():
    # at eps 2.5 and D = -T/(eps/8), T + tD is -3T at t = eps/2, whose
    # normalisation -T lies 2 < eps from T, and 0 at t = eps/8: the search
    # stops at the first halving, as one halving a call would
    s, eps = linf(2), 2.5
    T = operator(np.eye(2), s, s)
    D = np.array([-T.entries / (eps / 8), rng_direction(s, 127)])
    assert assert_search_is_the_reference(T, D, eps).all()
    assert np.array_equal(_halving_search(T, D[:1], eps)[0][0], -np.eye(2))


def test_halving_search_refuses_a_zero_at_a_reached_halving_of_the_second_block():
    # T + tD is (1 - 2^(5-k)) T at halving k: -T, 2 >= eps from T, before
    # halving 5, where it is 0; a second direction is found in the first block
    s, eps = linf(2), 1.5
    T = operator(np.eye(2), s, s)
    D = np.array([-T.entries / (eps / 2.0 ** 6), rng_direction(s, 127) * 2.0 ** -4])
    assert first_hit_level(T, D[1], eps) < 4
    with pytest.raises(NonFiniteError, match="finite"):
        _halving_search(T, D, eps)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match="finite"):
        reference_halving_search(T, D, eps)


@pytest.mark.parametrize("s", [linf(2), l1(3), l2(2), l2(3), lp(3, 2)], ids=repr)
def test_halving_search_refuses_a_zero_or_overflowing_candidate(s):
    T = operator(np.eye(s.n), s, s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # at eps 2 the first scaling is t = 1, so T + D = 0 has norm 0
        with pytest.raises(NonFiniteError, match="finite"):
            _halving_search(T, -T.entries[None], 2.0)
        with pytest.raises(NonFiniteError, match="finite"):
            reference_halving_search(T, -T.entries[None], 2.0)
        # entries past the float range
        D = np.full((1, s.n, s.n), 3.0)
        with pytest.raises(NonFiniteError, match="finite"):
            _halving_search(T, D, 1.7e308)
        with pytest.raises(NonFiniteError, match="finite"):
            reference_halving_search(T, D, 1.7e308)


def screen_cases():
    """(T, eps, candidate stack): the halving search's candidates around
    the rigidity operators, and lattice candidates with entries in
    {0, +-1/2, +-1}, normalised, around I and diag(1, 1/2, ...), whose
    attaining faces put many corners at exactly eps."""
    rng = np.random.default_rng(107)
    for T in rigidity_operators():
        if T.domain.polyhedral:
            for eps in (0.05, 0.3, 0.5, 1.2):
                cands, _, found = _halving_search(T, rng.standard_normal((32, *T.entries.shape)), eps)
                yield T, eps, cands[found]
    for s in POLYHEDRAL:
        C = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(200, s.n, s.n))
        norms = op_norms(C, s, s)
        C = C[norms > 0] / norms[norms > 0, None, None]
        for T in (operator(np.eye(s.n), s, s), operator(np.diag([1.0] + [0.5] * (s.n - 1)), s, s)):
            for eps in (0.25, 0.5, 1.0, 1.5):
                yield T, eps, C


def test_screen_equals_the_face_distance_screen():
    outcomes = set()
    for T, eps, C in screen_cases():
        if not len(C):
            continue
        sample = _sample(T, None, 256, _exact_table(T, eps))
        values, certifies = _polyhedral_screen(C, T.domain, T.codomain, eps, sample)
        want_values, want = reference_screen(C, T.domain, T.codomain, eps, sample)
        assert bits(values) == bits(want_values)
        assert certifies.tolist() == want.tolist(), (T, eps)
        outcomes.update(want.tolist())
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# The polyhedral memo entry.
# ---------------------------------------------------------------------------


def test_constructor_and_certificate_share_the_memo_entries():
    # the certificate reads ||T||, M_A and ||T - A|| from the entries the
    # constructor made: no miss, and M_A's faces are not rebuilt
    memo = operators._norm_analysis
    for T, construct in certify_tasks()[::7]:
        memo.cache_clear()
        report = construct(T, 0.3)
        misses = memo.cache_info().misses
        verify_uniform_bpb(T, report.approximant, 0.3)
        assert memo.cache_info().misses == misses
        MA = norm_one_attainment_set(report.approximant, "A")
        assert MA.faces is report.attainment_approximant.faces


def sweep(tasks):
    """Constructor and certificate of every task; the memo hits they made."""
    memo = operators._norm_analysis
    hits = memo.cache_info().hits
    for T, construct in tasks:
        verify_uniform_bpb(T, construct(T, 0.3).approximant, 0.3, resolution=16384)
    return memo.cache_info().hits - hits


def test_no_memo_hit_crosses_a_pass():
    # a benchmark pass repeats the same tasks: the second sweep gains no
    # hit from the entries the first one left behind
    tasks = certify_tasks()
    assert len(tasks) > operators._norm_analysis.cache_info().maxsize
    operators._norm_analysis.cache_clear()
    first = sweep(tasks)
    assert first > 0
    assert sweep(tasks) == first


def test_memo_entry_holds_the_vertex_maximum_and_the_faces():
    rng = np.random.default_rng(109)
    memo = operators._norm_analysis
    for dom in POLYHEDRAL:
        for cod in (linf(3), l1(3), l2(2)):
            T = operator(rng.standard_normal((cod.n, dom.n)), dom, cod)
            norms = operators._vertex_norms(T.entries, polyhedral_table(dom).vertices, cod)
            memo.cache_clear()
            value, witness = op_norm(T)
            entry = operators._analysis(T)
            assert (entry.value, entry.data, entry.mset) == (value, int(np.argmax(norms)), None)
            assert value == float(norms.max()) and entry.witness is witness
            assert np.array_equal(witness.coords, polyhedral_table(dom).vertices[entry.data])
            M = attainment_set(T)
            assert entry.mset is M and attainment_set(T) is M
            assert memo.cache_info()[:2] == (3, 1)


# ---------------------------------------------------------------------------
# Pairs without a corner set.
# ---------------------------------------------------------------------------


def test_a_pair_without_corner_set_is_refused_before_any_norm():
    memo = operators._norm_analysis
    for n in (4, 5):
        s = l1(n)
        T = operator(np.eye(n), s, s)
        # op_norm and attainment_set stay accepted at every n
        assert op_norm(T)[0] == 1.0 and len(attainment_set(T).faces) == 2 ** n
        for M in (T, 2.0 * T):
            misses = memo.cache_info().misses
            for call in (lambda: verify_uniform_bpb(M, M, 0.2),
                         lambda: delta_for_epsilon(M, 0.2),
                         lambda: is_only_approximation(M, 0.2, trials=2, seed=0)):
                with pytest.raises(UnsupportedPairError, match=f"l_1\\^{n} -> l_1\\^{n}"):
                    call()
            assert memo.cache_info().misses == misses


def test_cli_verify_names_the_pair_without_corner_set(tmp_path, capsys):
    path = tmp_path / "l14.json"
    rows = np.eye(4).tolist()
    path.write_text(
        '{"rows": %s, "domain": {"p": 1, "n": 4}, "codomain": {"p": 1, "n": 4}}' % rows
    )
    assert main(["verify", "--T", str(path), "--A", str(path), "--eps", "0.2"]) == 2
    assert "l_1^4 -> l_1^4" in capsys.readouterr().err


@pytest.mark.parametrize("keys", [8, None], ids=["held", "evicting"])
def test_threads_reading_corner_distances_get_the_far_rule_rows(keys):
    # more threads than cores read the one cache from empty, either a few
    # face sets it holds all of or random ones that evict each other;
    # nothing in an entry changes after it is made, so no read can see
    # another's work half done
    s, eps = linf(3), 0.3
    want = far_rule_table(s, eps)
    pool = [[k, k + 1] for k in range(keys)] if keys else None
    bpbverify._corner_distances.cache_clear()
    wrong = []

    def reader(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            if pool:
                rows = pool[rng.integers(len(pool))]
            else:
                rows = rng.choice(len(want), size=rng.integers(1, 5)).tolist()
            try:
                if bits(corner_distances(s, eps, rows)) != bits(want[rows].min(axis=0)):
                    wrong.append(rows)
            except Exception as exc:
                wrong.append(exc)

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert bpbverify._corner_distances.cache_info().currsize == (keys or bpbverify._CORNER_VECTORS_KEPT)


@pytest.mark.parametrize("n, bound_mb", [(7, 16), (8, 48)])
def test_identity_on_a_large_cube_is_certified_in_bounded_memory(n, bound_mb):
    # the certificate holds the rows of M_I's 2n facets, not a row for each
    # of the 3^n - 1 faces of the ball: on l_inf^8 that table alone would
    # be 3.4 GB.  M_I is every face of the ball, and finding its maximal
    # faces compares them pairwise (125 MB on l_inf^8), so it is built
    # before tracing and the bound reads the certificates' own arrays
    s = linf(n)
    T = operator(np.eye(n), s, s)
    assert len(attainment_set(T).faces) == 2 * n
    tracemalloc.start()
    try:
        for call in (lambda: verify_uniform_bpb(T, T, 0.2).certified,
                     lambda: delta_for_epsilon(T, 0.2).succeeded,
                     lambda: not is_only_approximation(T, 0.2, trials=4, seed=0).found):
            tracemalloc.reset_peak()
            assert call()
            assert tracemalloc.get_traced_memory()[1] < bound_mb * 2 ** 20
    finally:
        tracemalloc.stop()
