"""Differential tests of the polyhedral kernels against their loop versions.

The references below are the implementations the kernels replaced: an LP
extremality test (one HiGHS linprog per coordinate of the perturbation D),
the rank test on every polyhedral pair (all |F| |V| normals f (x) v and a
full SVD), the vertex loops of op_norm, and the face loop of the attainment
set.  The extremality test on the rows and columns pairs takes ||T|| in
closed form; its reference takes it from the vertex maximum.  The rank
route certifies "extreme" by a shifted Cholesky of the normals' exact Gram
matrix and decides the rest by fraction-free integer elimination, which
also gives the witness's direction; it runs no SVD.  It is checked against
the SVD-only kernel it replaced (status and method, with exact checks on
each witness) and, with the certificate and the elimination themselves,
against the tests' own exact integer rank by fraction-free elimination.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from bpblab import (
    attainment_set,
    enumerate_extreme_linf3_l13,
    enumerate_isometries,
    is_extreme_contraction,
    l1,
    l2,
    linf,
    lp,
    op_norm,
    operator,
)
from bpblab import classify
from bpblab.classify import RANK_TABLE_LIMIT
from bpblab.errors import NormNotOneError, OutOfRangeError
from bpblab.operators import _vertex_norms, check_norm_one
from bpblab.spaces import INF, TAU_EQ, pnorm, polyhedral_table


def _vertices(s):
    if s.p == INF:
        return np.array(list(itertools.product((1.0, -1.0), repeat=s.n)))
    return np.concatenate([np.eye(s.n), -np.eye(s.n)])


def lp_extremality(T):
    """'extreme' iff maximising each coordinate of D over
    {D : ||T + D|| <= 1, ||T - D|| <= 1} gives 0."""
    m, n = T.entries.shape
    V = _vertices(T.domain)
    F = _vertices(T.codomain.dual())  # the extreme dual functionals
    rows = np.einsum("fi,vj->fvij", F, V).reshape(len(F) * len(V), m * n)
    rhs = 1.0 - (F @ T.entries @ V.T).reshape(-1)
    rows = np.concatenate([rows, -rows])
    rhs = np.concatenate([rhs, rhs])
    for k in range(m * n):
        c = np.zeros(m * n)
        c[k] = -1.0
        res = linprog(c, A_ub=rows, b_ub=rhs, bounds=[(-2.0, 2.0)] * (m * n), method="highs")
        assert res.success, res.message
        if -res.fun > 1e-7:
            return "not_extreme"
    return "extreme"


def svd_extremality(T):
    """The rank test that decided every polyhedral pair up to 3 x 3, without
    the size cap: the normals f (x) v of all active (f, v), each facet twice,
    and a full SVD.  Returns (status, witness)."""
    value = op_norm(T)[0]
    m, n = T.entries.shape
    V = polyhedral_table(T.domain).vertices
    F = polyhedral_table(T.codomain.dual()).vertices
    vals = F @ T.entries @ V.T
    active = vals >= value * (1.0 - TAU_EQ)
    fi, vi = np.nonzero(active)
    normals = (F[fi, :, None] * V[vi, None, :]).reshape(len(fi), m * n)
    _, s, Vt = np.linalg.svd(normals)
    rank = int((s > s.max(initial=0.0) * max(normals.shape) * np.finfo(float).eps).sum())
    if rank == m * n:
        return "extreme", None
    D = Vt[rank].reshape(m, n)
    slack, reach = value - vals[~active], np.abs(F @ D @ V.T)[~active]
    with np.errstate(divide="ignore"):
        t = np.min(slack / reach, initial=1.0)
    return "not_extreme", t * D


def loop_op_norm(T):
    """The per-vertex loops: first strict maximum in loop order."""
    dom = T.domain
    best, wit = -1.0, None
    if dom.p == 1:
        for j in range(dom.n):
            for sgn in (1.0, -1.0):
                v = float(pnorm(sgn * T.entries[:, j], T.codomain.p))
                if v > best:
                    wit = np.zeros(dom.n)
                    wit[j] = sgn
                    best = v
        return best, wit
    for signs in itertools.product((1.0, -1.0), repeat=dom.n):
        x = np.array(signs)
        v = float(pnorm(T.apply(x), T.codomain.p))
        if v > best:
            best, wit = v, x
    return best, wit


def loop_face_vertices(s, pat):
    """The vertices of the face with sign pattern pat, one sign or one
    support coordinate at a time."""
    if s.p == INF:
        free = [i for i, q in enumerate(pat) if q == 0]
        out = []
        for signs in itertools.product((1.0, -1.0), repeat=len(free)):
            v = np.array(pat, dtype=float)
            v[free] = signs
            out.append(v)
        return np.array(out)
    return np.array([q * np.eye(s.n)[i] for i, q in enumerate(pat) if q])


def loop_attainment_patterns(T, value):
    """Maximal faces whose vertices and barycentre all attain, in lattice
    order; a face lies in another iff its vertices do."""
    faces = []
    for pat in itertools.product((-1, 0, 1), repeat=T.domain.n):
        if not any(pat):
            continue
        V = loop_face_vertices(T.domain, pat)
        if (T.image_norms(V) >= value * (1.0 - TAU_EQ)).all():
            mid = V.mean(axis=0)
            if float(pnorm(T.apply(mid), T.codomain.p)) >= value * (1.0 - TAU_EQ):
                faces.append((pat, set(map(tuple, V.tolist()))))
    return [
        pat
        for pat, verts in faces
        if not any(other != pat and verts <= big for other, big in faces)
    ]


POLY_PAIRS = [
    (linf(2), l1(2)),
    (linf(2), linf(2)),
    (l1(2), l1(2)),
    (l1(2), linf(2)),
    (linf(3), l1(3)),
    (linf(3), linf(3)),
    (l1(3), l1(3)),
    (l1(3), linf(3)),
]
SMOOTH_CODOMAIN_PAIRS = [
    (linf(3), l2(3)),
    (l1(3), l2(2)),
    (linf(2), lp(3, 2)),
    (l1(2), lp("4/3", 3)),
]


def _unit(M, dom, cod):
    T = operator(M, dom, cod)
    return (1.0 / op_norm(T)[0]) * T


def _seeded_operators(pairs, per_kind, seed):
    """Dense Gaussian and half-integer operators of norm one on each pair."""
    rng = np.random.default_rng(seed)
    out = []
    for dom, cod in pairs:
        shape = (cod.n, dom.n)
        for _ in range(per_kind):
            out.append(_unit(rng.standard_normal(shape), dom, cod))
        made = 0
        while made < per_kind:
            M = rng.integers(-2, 3, size=shape) / 2.0
            if np.abs(M).max() > 0:
                out.append(_unit(M, dom, cod))
                made += 1
    return out


def _isometry_operators():
    """Signed permutations: the isometry groups of the four square spaces,
    and the same matrices between the cube and the cross-polytope."""
    out = []
    for s, t in ((linf(2), l1(2)), (l1(2), linf(2)), (linf(3), l1(3)), (l1(3), linf(3))):
        for Q in enumerate_isometries(s):
            out.append(Q)
            out.append(_unit(Q.entries, s, t))
    return out


@pytest.fixture(scope="module")
def poly_operators():
    ops = _seeded_operators(POLY_PAIRS, 20, seed=2024) + _isometry_operators()
    assert len(ops) >= 480
    return list(enumerate_extreme_linf3_l13()) + ops


@pytest.fixture(scope="module")
def verdicts(poly_operators):
    return [(T, is_extreme_contraction(T), lp_extremality(T)) for T in poly_operators]


def test_rank_verdict_matches_lp(verdicts):
    census = enumerate_extreme_linf3_l13()
    assert all(v.status == "extreme" and v.method == "rank" for _, v, _ in verdicts[: len(census)])
    mismatches = [(T, v.status, ref) for T, v, ref in verdicts if v.status != ref]
    assert not mismatches, f"{len(mismatches)} of {len(verdicts)} verdicts differ: {mismatches[:3]}"
    statuses = {ref for _, _, ref in verdicts}
    assert statuses == {"extreme", "not_extreme"}


def test_scaled_census_stays_extreme():
    # inside the norm-one tolerance of check_norm_one, so a rank test with
    # an absolute activity threshold would find no active constraint
    for T in enumerate_extreme_linf3_l13():
        S = (1.0 - 5e-8) * T
        v = is_extreme_contraction(S)
        assert v.status == "extreme" == lp_extremality(S) == svd_extremality(S)[0], T


def _route(T):
    if T.codomain.p == INF:
        return "rows"
    return "columns" if T.domain.p == 1 else "rank"


def _signed_permutations():
    """The isometries of l_inf^n and l_1^n, n = 2..4, each also scaled by
    1 - 5e-8, inside the norm-one tolerance; and the same matrices of norm
    one from l_inf^4 to l_1^4."""
    out = []
    for n in (2, 3, 4):
        for s in (linf(n), l1(n)):
            for Q in enumerate_isometries(s):
                out += [Q, (1.0 - 5e-8) * Q]
    out += [_unit(Q.entries, linf(4), l1(4)) for Q in enumerate_isometries(linf(4))[::8]]
    return out


def _linf4_l14_operators():
    """Seeded dense and half-integer operators l_inf^4 -> l_1^4 of norm one,
    and the census members padded to 4 x 4."""
    out = _seeded_operators([(linf(4), l1(4))], 20, seed=404)
    for T in enumerate_extreme_linf3_l13()[::3]:
        M = np.zeros((4, 4))
        M[:3, :3] = T.entries
        out.append(operator(M, linf(4), l1(4)))
    return out


@pytest.fixture(scope="module")
def route_cases(poly_operators):
    ops = poly_operators + _signed_permutations() + _linf4_l14_operators()
    return [(T, is_extreme_contraction(T), svd_extremality(T)[0]) for T in ops]


def test_routes_match_the_svd_kernel(route_cases):
    statuses = {}
    for T, v, ref in route_cases:
        assert (v.status, v.method) == (ref, _route(T)), T
        statuses.setdefault((T.domain.n, T.codomain.n, v.method), set()).add(v.status)
    assert len(route_cases) >= 634 + 1800
    for key in ((3, 3, "rank"), (4, 4, "rank"), (3, 3, "rows"), (3, 3, "columns")):
        assert statuses[key] == {"extreme", "not_extreme"}, key


def test_every_witness_stays_in_the_ball(route_cases):
    """||T +/- D|| <= ||T|| (1 + 1e-9) by the vertex loop, D != 0, over all
    four ways a witness is made: an integer null vector (rank), slack added to
    an entry of a row of an operator on l_1^n (its rows lie in the l_inf
    ball), slack added to an entry of an l_1 line, and mass moved between
    two entries of an l_1 line of norm ||T||."""
    branches = set()
    for T, v, _ in route_cases:
        if v.status != "not_extreme":
            continue
        D = v.witness
        assert D.shape == T.entries.shape and np.abs(D).max() > 1e-9, T
        value = loop_op_norm(T)[0]
        for S in (T.entries + D, T.entries - D):
            assert loop_op_norm(operator(S, T.domain, T.codomain))[0] <= value * (1.0 + 1e-9), T
        if v.method == "rank":
            branches.add("rank")
        elif v.method == "rows" and T.domain.p == 1:
            branches.add("sign slack")
        else:
            changed = np.count_nonzero(D)
            branches.add("l1 slack" if changed == 1 else "l1 shift")
            assert changed in (1, 2) and np.count_nonzero(D.any(axis=int(v.method == "rows"))) == 1
    assert branches == {"rank", "sign slack", "l1 slack", "l1 shift"}


def count_svds(monkeypatch):
    """The list that each later np.linalg.svd call appends to."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


def refuse_every_certificate(monkeypatch):
    def refuse(_):
        raise np.linalg.LinAlgError("refused")
    monkeypatch.setattr(np.linalg, "cholesky", refuse)


def test_no_svd_on_the_rank_route(route_cases, monkeypatch):
    # no verdict of the fixtures takes an SVD, with the certificate on or
    # refused; refused, each extreme verdict is the elimination's
    calls = count_svds(monkeypatch)
    seen = set()
    for T, _, _ in route_cases:
        v = is_extreme_contraction(T)
        seen.add((v.method, v.status))
    assert {("rank", "extreme"), ("rank", "not_extreme")} <= seen
    refuse_every_certificate(monkeypatch)
    for T, v, _ in route_cases:
        if v.method == "rank":
            assert is_extreme_contraction(T).status == v.status, T
    assert not calls


def test_closed_form_pairs_have_no_size_cap():
    cases = [
        (operator(np.eye(8), linf(8), linf(8)), "rows", "extreme"),
        (operator(np.ones((4, 6)), l1(6), linf(4)), "rows", "extreme"),
        (operator(np.eye(6)[::-1], l1(6), l1(6)), "columns", "extreme"),
        (_unit(np.ones((5, 5)), l1(5), l1(5)), "columns", "not_extreme"),
    ]
    for T, method, status in cases:
        v = is_extreme_contraction(T)
        assert (v.method, v.status) == (method, status)


def test_the_rank_table_is_refused_past_its_limit():
    # 2^(m + n - 1) facet normals: 2^12 on l_inf^6 -> l_1^7, 2^13 on l_inf^7 -> l_1^7
    assert RANK_TABLE_LIMIT == 2 ** 12
    M = np.zeros((7, 6))
    M[0, 0] = 1.0
    assert is_extreme_contraction(operator(M, linf(6), l1(7))).method == "rank"
    M = np.zeros((7, 7))
    M[0, 0] = 1.0
    with pytest.raises(OutOfRangeError, match="8192 facet normals"):
        is_extreme_contraction(operator(M, linf(7), l1(7)))


def test_non_extreme_witnesses_stay_in_the_ball(verdicts):
    checked = 0
    for T, v, _ in verdicts:
        if v.status != "not_extreme":
            continue
        D = v.witness
        assert D.shape == T.entries.shape and np.abs(D).max() > 1e-9
        for S in (T.entries + D, T.entries - D):
            assert loop_op_norm(operator(S, T.domain, T.codomain))[0] <= 1.0 + 1e-7
        checked += 1
    assert checked >= 200


def test_barycentre_attainment_matches_face_loop(poly_operators):
    ops = poly_operators + _seeded_operators(SMOOTH_CODOMAIN_PAIRS, 20, seed=7)
    for T in ops:
        value = op_norm(T)[0]
        got = [f.pattern for f in attainment_set(T).faces]
        assert got == loop_attainment_patterns(T, value), T


def test_vectorised_op_norm_matches_loops(poly_operators):
    rng = np.random.default_rng(99)
    ops = poly_operators + _seeded_operators(SMOOTH_CODOMAIN_PAIRS, 40, seed=8)
    # unnormalised and tied inputs: scaled copies and repeated columns
    for dom, cod in POLY_PAIRS + SMOOTH_CODOMAIN_PAIRS:
        for _ in range(60):
            M = 3.0 * rng.standard_normal((cod.n, dom.n))
            M[:, -1] = M[:, 0]
            ops.append(operator(M, dom, cod))
    assert len(ops) >= 1600
    for T in ops:
        value, witness = op_norm(T)
        ref_value, ref_witness = loop_op_norm(T)
        if T.codomain.p in (1, 2, INF):
            assert value == ref_value, T
        else:
            # the final power runs on an array instead of a scalar, and
            # numpy's vector pow may differ from libm's in the last bits
            assert value == pytest.approx(ref_value, rel=4 * np.finfo(float).eps), T
        assert np.array_equal(witness.coords, ref_witness), T



def test_attainment_beyond_three_dimensions():
    rng = np.random.default_rng(5)
    T = _unit(rng.standard_normal((3, 8)), l1(8), l2(3))
    got = [f.pattern for f in attainment_set(T).faces]
    assert got == loop_attainment_patterns(T, op_norm(T)[0])
    # every face of the cube attains for the identity; the facets are maximal
    facets = attainment_set(operator(np.eye(8), linf(8), linf(8))).faces
    assert sorted(f.dim for f in facets) == [7] * 16


# ---------------------------------------------------------------------------
# ||T|| of the line tests, and the exact rank of the rank test.
# ---------------------------------------------------------------------------


def vertex_value_extremality(T):
    """is_extreme_contraction on a polyhedral pair with ||T|| taken from the
    vertex maximum, as the norm memo took it before the closed forms."""
    dom, cod = T.domain, T.codomain
    value = float(_vertex_norms(T.entries, polyhedral_table(dom).vertices, cod).max())
    check_norm_one(value, "operator")
    if cod.p == INF or dom.p == 1:
        return classify._line_extremality(T, value)
    return classify._rank_extremality(T, value)


def verdict_or_refusal(extremality, T):
    try:
        v = extremality(T)
    except NormNotOneError as exc:
        return "refused", str(exc)
    return v.status, v.method, None if v.witness is None else v.witness.tobytes()


def test_line_verdicts_take_the_vertex_maximum_bits(poly_operators):
    # the 634 LP-fixture operators (the census first), and scaled copies
    # past the norm-one tolerance, whose refusal prints ||T||
    seen = set()
    for T in poly_operators:
        for S in (T, (1.0 + 3e-7) * T, 1.5 * T):
            got = verdict_or_refusal(is_extreme_contraction, S)
            assert got == verdict_or_refusal(vertex_value_extremality, S), S
            seen.add((got[0], got[1] if got[0] != "refused" else None))
    assert {("extreme", "rows"), ("not_extreme", "columns"), ("refused", None)} <= seen


def svd_rank_extremality(T, value):
    """The rank route before the certificate: one SVD of the active normals
    decides every verdict, by numpy's matrix_rank tolerance, and gives the
    witness."""
    m, n = T.entries.shape
    K = classify._facet_normals(T.domain, T.codomain)
    vals = K @ T.entries.reshape(-1)
    active = vals >= value * (1.0 - TAU_EQ)
    normals = K[active]
    _, s, Vt = np.linalg.svd(normals, full_matrices=len(normals) < m * n)
    rank = int((s > s.max(initial=0.0) * max(normals.shape) * np.finfo(float).eps).sum())
    if rank == m * n:
        return classify.ExtremalityVerdict("extreme", "rank")
    slack, reach = value - vals[~active], np.abs(K[~active] @ Vt[rank])
    with np.errstate(divide="ignore"):
        t = np.min(slack / reach, initial=1.0)
    return classify.ExtremalityVerdict("not_extreme", "rank", witness=t * Vt[rank].reshape(m, n))


def bareiss_rank(A):
    """The rank of an integer matrix by fraction-free (Bareiss) elimination
    on Python ints: each update divides exactly by the previous pivot, so
    no entry is ever rounded."""
    M = np.array(A, dtype=object)
    rows, cols = M.shape
    rank, prev = 0, 1
    for j in range(cols):
        nz = np.flatnonzero(M[rank:, j] != 0)
        if not nz.size:
            continue
        k = rank + int(nz[0])
        M[[rank, k]] = M[[k, rank]]
        pivot = M[rank, j]
        below, right = M[rank + 1:, j:j + 1], M[rank, j + 1:]
        M[rank + 1:, j + 1:] = (M[rank + 1:, j + 1:] * pivot - below * right) // prev
        M[rank + 1:, j] = 0
        prev, rank = pivot, rank + 1
        if rank == rows:
            break
    return rank


def test_bareiss_rank_on_known_ranks():
    rng = np.random.default_rng(17)
    for r, m, n in ((0, 3, 4), (1, 5, 5), (3, 6, 4), (4, 4, 9), (5, 12, 7)):
        A = rng.integers(-3, 4, (m, r)) @ rng.integers(-3, 4, (r, n))
        assert bareiss_rank(A) == np.linalg.matrix_rank(A) <= r
    assert bareiss_rank(np.kron(np.ones((2, 2)), np.eye(3))) == 3


def exact_rank_cases():
    """Operators of the rank test: l_inf^4 -> l_1^4 (signed permutations,
    seeded dense and half-integer ones, padded census members) and seeded
    dense, half-integer and rank-one extreme operators on pairs up to the
    table limit."""
    out = [T for T in _signed_permutations() if T.domain == linf(4) and T.codomain == l1(4)]
    out += _linf4_l14_operators()
    rng = np.random.default_rng(4096)
    for n, m in ((2, 5), (5, 2), (3, 6), (5, 5), (6, 7)):
        assert 2 ** (m + n - 1) <= RANK_TABLE_LIMIT
        dom, cod = linf(n), l1(m)
        out += _seeded_operators([(dom, cod)], 2, seed=n * 10 + m)
        # x -> +-x_j e_i is extreme, and half the facets are active at it
        M = np.zeros((m, n))
        M[rng.integers(m), rng.integers(n)] = rng.choice([-1.0, 1.0])
        out.append(operator(M, dom, cod))
    return out


def test_rank_verdicts_equal_the_exact_integer_rank(monkeypatch):
    calls = count_svds(monkeypatch)
    statuses = set()
    for T in exact_rank_cases():
        m, n = T.entries.shape
        value = op_norm(T)[0]
        K = classify._facet_normals(T.domain, T.codomain)
        N = K[K @ T.entries.reshape(-1) >= value * (1.0 - TAU_EQ)]
        rank = bareiss_rank(N.astype(np.int64))
        # the elimination's own input: N below m*n rows, else its Gram matrix
        assert classify._integer_kernel(N if len(N) < m * n else N.T @ N)[0] == rank, T
        v = is_extreme_contraction(T)
        assert v.method == "rank"
        assert v.status == ("extreme" if rank == m * n else "not_extreme"), (T, rank)
        statuses.add((n, m, v.status))
    assert not calls
    want = {(4, 4, "extreme"), (4, 4, "not_extreme"), (6, 7, "extreme"), (6, 7, "not_extreme")}
    assert want <= statuses


def assert_exact_rank_witness(T, D, value):
    """The active normals N of T (f(T v) >= ||T|| (1 - TAU_EQ)) have
    N vec(D) exactly 0, D != 0, ||T +/- D|| <= ||T|| by op_norm, and some
    other facet is tight at T + D or T - D."""
    K = classify._facet_normals(T.domain, T.codomain)
    vals = K @ T.entries.reshape(-1)
    active = vals >= value * (1.0 - TAU_EQ)
    assert not (K[active] @ D.reshape(-1)).any() and D.any(), T
    for S in (T.entries + D, T.entries - D):
        assert op_norm(operator(S, T.domain, T.codomain))[0] <= value * (1.0 + 1e-12), T
    assert (vals + np.abs(K @ D.reshape(-1)))[~active].max() >= value * (1.0 - 1e-12), T


@pytest.mark.parametrize("certify", [True, False], ids=["certificate", "refused"])
def test_rank_route_matches_the_svd_kernel_with_exact_witnesses(route_cases, certify, monkeypatch):
    # the SVD kernel's status and method on every rank-route operator, and
    # an exact witness for each not_extreme one; with every certificate
    # refused, the extreme verdicts too come from the elimination
    if not certify:
        refuse_every_certificate(monkeypatch)
    ops = [T for T, v, _ in route_cases if v.method == "rank"] + exact_rank_cases()
    assert len(ops) >= 480
    witnesses = 0
    for T in ops:
        value = op_norm(T)[0]
        v = classify._rank_extremality(T, value)
        ref = svd_rank_extremality(T, value)
        assert (v.status, v.method) == (ref.status, ref.method), T
        if v.status == "not_extreme":
            assert_exact_rank_witness(T, v.witness, value)
            witnesses += 1
    assert witnesses >= 200


def _facet_subsets(dom, cod, count, seed):
    """Row subsets of the facet table of dom -> cod: all of them when there
    are at most `count`, else `count` seeded ones."""
    K = classify._facet_normals(dom, cod)
    if 2 ** len(K) <= count:
        masks = itertools.product((False, True), repeat=len(K))
    else:
        masks = np.random.default_rng(seed).random((count, len(K))) < 0.5
    return [K[np.array(mask, dtype=bool)] for mask in masks]


def test_the_certificate_spans_exactly_where_the_integer_rank_is_full():
    # every row subset of the facet table of l_inf^2 -> l_1^2, and seeded
    # ones on l_inf^2 -> l_1^3 and l_inf^3 -> l_1^3
    cases = _facet_subsets(linf(2), l1(2), 256, 0)
    cases += _facet_subsets(linf(2), l1(3), 600, 1) + _facet_subsets(linf(3), l1(3), 600, 2)
    spans = {True: 0, False: 0}
    for N in cases:
        full = N.shape[0] >= N.shape[1] and bareiss_rank(N.astype(np.int64)) == N.shape[1]
        assert classify._spans(N) == full, N
        spans[full] += 1
    assert min(spans.values()) >= 100


def test_the_certificate_up_to_the_table_limit():
    # seeded +-1 matrices of s columns up to s = 42 and 4,096 rows, the
    # largest table: spanned when 3s of their rows already have rank s, and
    # refused once the last column repeats an earlier one, signed
    rng = np.random.default_rng(31)
    for s in (2, 6, 9, 16, 42):
        for rows in (s, 3 * s, 4096):
            N = rng.choice([-1.0, 1.0], size=(rows, s))
            rank = bareiss_rank(N[: 3 * s].astype(np.int64))
            assert rank == s or rows <= 3 * s, (s, rows)
            assert classify._spans(N) == (rank == s), (s, rows)
            N[:, -1] = rng.choice([-1.0, 1.0]) * N[:, rng.integers(s - 1)]
            assert not classify._spans(N), (s, rows)


def test_the_deficient_square_table_reaches_the_elimination(monkeypatch):
    # six active normals of exact rank 5 on l_inf^2 -> l_1^3: the
    # certificate refuses, and the elimination on their Gram matrix gives
    # the verdict and the witness's direction, where the SVD's witness had
    # entries of about 1.3e-16
    T = operator([[-0.25, -0.25], [0.5, -0.5], [0.25, 0.25]], linf(2), l1(3))
    K = classify._facet_normals(T.domain, T.codomain)
    normals = K[K @ T.entries.reshape(-1) >= 1.0 - TAU_EQ]
    assert normals.shape == (6, 6) and bareiss_rank(normals.astype(np.int64)) == 5
    assert not classify._spans(normals)
    rank, D = classify._integer_kernel(normals.T @ normals)
    assert rank == 5 and D.tolist() == [1, 1, 0, 0, 1, 1]
    calls = count_svds(monkeypatch)
    v = is_extreme_contraction(T)
    assert (v.status, v.method, len(calls)) == ("not_extreme", "rank", 0)
    assert v.witness.tolist() == [[0.25, 0.25], [0.0, 0.0], [0.25, 0.25]]
    assert svd_rank_extremality(T, 1.0).status == "not_extreme"
    assert_exact_rank_witness(T, v.witness, 1.0)


def integer_matrices(seed):
    """Seeded integer matrices A = B C of every rank r = 0..s, s columns,
    with fewer rows than s and with at least s, and the rank r by
    construction (at most)."""
    rng = np.random.default_rng(seed)
    out = []
    for s in range(1, 8):
        for r in range(s + 1):
            for rows in {max(r, 1), s - 1, s, s + 3} - {0}:
                if r > rows:
                    continue
                for bound in (1, 3):
                    B = rng.integers(-bound, bound + 1, (rows, r))
                    C = rng.integers(-bound, bound + 1, (r, s))
                    out.append((B @ C, r))
    return out


def test_the_integer_kernel_matches_bareiss_rank():
    # rank equality, A @ D == 0 exactly and D primitive (gcd 1, D != 0),
    # on every rank from 0 to s, with fewer rows than s and with at least s
    seen = set()
    for A, r in integer_matrices(41):
        rows, s = A.shape
        rank, D = classify._integer_kernel(A)
        assert rank == bareiss_rank(A) <= r, A
        if rank == s:
            assert D is None, A
        else:
            E = D.astype(np.int64)
            assert np.array_equal(E, D) and E.any() and not (A @ E).any(), A
            assert math.gcd(*E.tolist()) == 1, (A, E)
        seen.add((rank == 0, rank == s, rows < s))
    assert seen >= {(True, False, True), (True, False, False), (False, True, False),
                    (False, False, True), (False, False, False)}


def test_the_integer_kernel_refuses_a_null_vector_past_2_53():
    # [[1, 2^60]] has the primitive null vector (-2^60, 1), which no float
    # holds exactly with its sum
    assert classify.EXACT_INT_LIMIT == 2 ** 53
    with pytest.raises(OutOfRangeError, match="1 x 2 integer matrix.*past 9007199254740992"):
        classify._integer_kernel([[1, 2 ** 60]])
    assert classify._integer_kernel([[1, 2 ** 52 - 1]])[1].tolist() == [-(2 ** 52 - 1), 1]
