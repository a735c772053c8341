"""Differential tests of the cached polyhedral certificate tables.

The exact certificate on l_1^n and l_inf^n reads each corner's distance to
M_A off one cached table per (space, eps), `bpbverify._corner_table`,
whose face rows are measured when first read,
and the norm memo `operators._norm_analysis` holds ||T||, its maximising
vertex and M_T's maximal faces on polyhedral pairs.  The references are
the forms they replaced, kept here verbatim in logic: `face_distances`
with the far rule applied after it, the descent that measures every
corner by `AttainmentSet.distance_to`, the rigidity screen that builds its
own face distances, and the halving search through the public
`op_norms`.  Each must agree with the library bit for bit.
"""

import contextlib
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bpblab import bpbverify, operators
from bpblab.approximants import l1_extreme_approx, linf3_l13_extreme_approx, linf_extreme_approx
from bpblab.bpbverify import (
    SWEEP_PAIRS,
    BpbCertificate,
    _corner_table,
    _CornerTable,
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
    norm_one_attainment_set,
    op_norm,
    op_norms,
    operator,
    require_norm_one,
)
from bpblab.sampling import corner_points
from bpblab.spaces import INF, Point, face_distances, l1, l2, linf, lp, polyhedral_table

POLYHEDRAL = [linf(2), linf(3), l1(2), l1(3)]
EPS = [2.0 ** -60, 1e-15, 1e-12, 0.05, 0.1, 0.3, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 1.2, 1.9, 2.0, 3.0]


def bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def far_rule_table(s, eps):
    """The distances from the corners to every face, measured afresh, with
    a distance in [_far_from(eps), eps) read as eps afterwards."""
    D = face_distances(s, polyhedral_table(s).patterns, corner_points(s, eps))
    D[(D < eps) & (D >= _far_from(eps))] = eps
    return D


@pytest.mark.parametrize("s", POLYHEDRAL, ids=repr)
def test_table_is_face_distances_with_the_far_rule(s):
    faces = polyhedral_table(s).faces
    every = list(range(len(faces)))
    for eps in EPS + np.random.default_rng(83).uniform(0.0, 2.0, 6).tolist():
        table = _corner_table(s, eps)
        assert _corner_table(s, eps) is table
        assert bits(table.corners) == bits(corner_points(s, eps))
        want = far_rule_table(s, eps)
        # one face at a time, as a set of that face alone measures it
        Z = corner_points(s, eps)
        for k in every:
            d = face_distances(s, [faces[k].pattern], Z)[0]
            np.copyto(d, eps, where=(d < eps) & (d >= _far_from(eps)))
            assert bits(table.rows([k])[0]) == bits(d) == bits(want[k]), (eps, faces[k])
        assert bits(table.rows(every)) == bits(want), eps
        # out of order, repeated, and kept rows mixed with new ones
        for rows in ([3, 0, 3], every[::-1], [5, 5]):
            assert bits(table.rows(rows)) == bits(want[rows])
        table.rows(every)[:] = -1.0  # the caller's copy, not the kept rows
        assert bits(table.rows(every)) == bits(want) and len(table._kept) == len(faces)


@pytest.mark.parametrize("s", [linf(3), l1(3)], ids=repr)
def test_table_keeps_the_newest_rows_within_its_budget(s, monkeypatch):
    eps, rng = 0.3, np.random.default_rng(79)
    want = far_rule_table(s, eps)
    corners = len(corner_points(s, eps))
    for kept in (0, 1, 3):
        monkeypatch.setattr(bpbverify, "_CORNER_DISTANCES_KEPT", kept * corners + corners - 1)
        table = _CornerTable(s, eps)
        for _ in range(12):
            rows = rng.choice(len(want), size=rng.integers(1, 6)).tolist()
            before = set(table._kept)
            assert bits(table.rows(rows)) == bits(want[rows])
            measured = [f for f in dict.fromkeys(rows) if f not in before]
            assert set(measured[max(len(measured) - kept, 0):]) <= set(table._kept)
            assert len(table._kept) <= kept


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
            assert bits(_corner_table(s, eps).rows(rows.tolist()).min(axis=0)) == bits(want)


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


def reference_screen(C, dom, cod, sample):
    """The screen before the corner table: face distances of the corners
    to the faces some candidate attains on, near below `_far_from(eps)`."""
    values = op_norms(C, dom, cod)
    hit = _attaining_faces(C, values, dom, cod)
    used = np.flatnonzero(hit.any(axis=0))
    D = face_distances(dom, polyhedral_table(dom).patterns[used], sample.rows)
    near = D < _far_from(sample.table.eps)
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
        values, certifies = _polyhedral_screen(C, T.domain, T.codomain, sample)
        want_values, want = reference_screen(C, T.domain, T.codomain, sample)
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


def test_threads_reading_one_table_get_the_far_rule_rows(monkeypatch):
    # more threads than cores on one table kept to one row, so reads,
    # measurements and evictions interleave: without the table's lock a
    # row is lost (KeyError) or the kept rows change under a read
    s, eps = linf(3), 0.3
    want = far_rule_table(s, eps)
    monkeypatch.setattr(bpbverify, "_CORNER_DISTANCES_KEPT", len(want[0]))
    table = _CornerTable(s, eps)
    wrong = []

    def reader(seed):
        rng = np.random.default_rng(seed)
        for _ in range(3000):
            rows = rng.choice(len(want), size=rng.integers(1, 5)).tolist()
            try:
                if bits(table.rows(rows)) != bits(want[rows]):
                    wrong.append(rows)
            except Exception as exc:  # a race shows as a lost row, e.g. KeyError
                wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong and len(table._kept) <= 1


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
