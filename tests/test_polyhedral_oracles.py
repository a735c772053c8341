"""Differential tests of the polyhedral kernels against their loop versions.

The references below are the implementations the kernels replaced: an LP
extremality test (one HiGHS linprog per coordinate of the perturbation D),
the rank test on every polyhedral pair (all |F| |V| normals f (x) v and a
full SVD), the vertex loops of op_norm, and the face loop of the attainment
set.  The extremality test on the rows and columns pairs takes ||T|| in
closed form; its reference takes it from the vertex maximum.  The rank
test's SVD rank is checked against an exact integer rank of the active
normals by fraction-free elimination.
"""

import itertools

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
    # inside the norm-one tolerance of require_norm_one, so a rank test with
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
    four ways a witness is made: an SVD null vector (rank), slack added to
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


def test_one_svd_per_rank_verdict(route_cases, monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for T, _, _ in route_cases:
        calls.clear()
        v = is_extreme_contraction(T)
        assert len(calls) == (v.method == "rank"), T


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


def test_rank_verdicts_equal_the_exact_integer_rank():
    statuses = set()
    for T in exact_rank_cases():
        m, n = T.entries.shape
        value = op_norm(T)[0]
        K = classify._facet_normals(T.domain, T.codomain)
        active = K @ T.entries.reshape(-1) >= value * (1.0 - TAU_EQ)
        rank = bareiss_rank(K[active].astype(np.int64))
        v = is_extreme_contraction(T)
        assert v.method == "rank"
        assert v.status == ("extreme" if rank == m * n else "not_extreme"), (T, rank)
        statuses.add((n, m, v.status))
    want = {(4, 4, "extreme"), (4, 4, "not_extreme"), (6, 7, "extreme"), (6, 7, "not_extreme")}
    assert want <= statuses
