"""Differential tests of the attainment-set and vertex kernels against the
code they replaced.

The references below are the earlier implementations, kept verbatim in
logic: the sign loop of `Face.vertices`, the per-coordinate rules of
`support_functionals` and `is_smooth_point`, the whole-array subspace
distance of `AttainmentSet.distance_to`, `pair_count` and `is_single_pair`
branching on the kind, `is_smooth_operator` on top of them, and the point
loop of `sampling._linf_grid`.
"""

import itertools
import math

import numpy as np
import pytest

from bpblab import (
    AttainmentSet,
    attainment_set,
    enumerate_faces,
    hilbert_rotate_approx,
    is_smooth_operator,
    is_smooth_point,
    l1,
    l2,
    linf,
    lp,
    op_norm,
    support_functionals,
    verify_uniform_bpb,
)
from bpblab.errors import NotDiscreteError
from bpblab.operators import OperatorMatrix
from bpblab.sampling import _linf_grid
from bpblab.spaces import INF, TAU_EQ, Point

# ---------------------------------------------------------------------------
# The replaced implementations.
# ---------------------------------------------------------------------------


def loop_face_vertices(face):
    n = face.space.n
    if face.space.p == INF:
        free = [i for i, v in enumerate(face.pattern) if v == 0]
        base = np.array(face.pattern, dtype=float)
        out = []
        for signs in itertools.product((-1.0, 1.0), repeat=len(free)):
            v = base.copy()
            for i, sgn in zip(free, signs):
                v[i] = sgn
            out.append(v)
        return np.array(out)
    out = []
    for i in (i for i, v in enumerate(face.pattern) if v != 0):
        v = np.zeros(n)
        v[i] = face.pattern[i]
        out.append(v)
    return np.array(out)


def loop_support_generators(x):
    """The generator rows and uniqueness of J(x) on l_inf^n or l_1^n."""
    nx = x.norm()
    s, c = x.space, x.coords
    if s.p == INF:
        gens = []
        for i in range(s.n):
            if abs(abs(c[i]) - nx) <= TAU_EQ * nx:
                e = np.zeros(s.n)
                e[i] = math.copysign(1.0, c[i])
                gens.append(e)
        return gens, len(gens) == 1
    supp = [i for i in range(s.n) if abs(c[i]) > TAU_EQ * nx]
    free = [i for i in range(s.n) if i not in supp]
    base = np.zeros(s.n)
    for i in supp:
        base[i] = math.copysign(1.0, c[i])
    gens = []
    for signs in itertools.product((-1.0, 1.0), repeat=len(free)):
        f = base.copy()
        for i, sgn in zip(free, signs):
            f[i] = sgn
        gens.append(f)
    if not free:
        gens = [base]
    return gens, len(free) == 0


def loop_is_smooth_point(x):
    nx = x.norm()
    c = np.abs(x.coords)
    if x.space.p == INF:
        return int((c >= nx * (1.0 - TAU_EQ)).sum()) == 1
    return bool((c > TAU_EQ * nx).all())


def whole_array_subspace_distance(Q, X):
    proj = X @ Q @ Q.T
    pn = np.linalg.norm(proj, axis=1)
    xn = np.linalg.norm(X, axis=1)
    if Q.shape[1] == 0:
        return np.full(len(X), np.inf)
    inner = np.einsum("ij,ij->i", X, proj)
    d2 = xn ** 2 + 1.0 - 2.0 * np.where(pn > 0, inner / np.maximum(pn, 1e-300), 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


def kind_is_single_pair(M):
    if M.kind == "points":
        return len(M.points) == 2
    if M.kind == "subspace":
        return M.subspace_dim == 1
    return len(M.faces) == 2 and all(f.dim == 0 for f in M.faces)


def kind_pair_count(M):
    if M.kind == "points":
        return len(M.points) // 2
    if M.kind == "faces" and all(f.dim == 0 for f in M.faces):
        return len(M.faces) // 2
    if M.kind == "subspace" and M.subspace_dim == 1:
        return 1
    raise NotDiscreteError("attainment set is not a finite point set")


def loop_is_smooth_operator(T):
    M = attainment_set(T)
    if not kind_is_single_pair(M):
        return False
    x0 = M.representative_points()[0]
    return is_smooth_point(Point(T.apply(x0), T.codomain))


def loop_linf_grid(n, resolution):
    per_facet = max(resolution // (2 * n), 2)
    k = max(int(round(per_facet ** (1.0 / (n - 1)))), 2)
    axis = np.linspace(-1.0, 1.0, k)
    out = []
    for j in range(n):
        for sgn in (1.0, -1.0):
            for free in itertools.product(axis, repeat=n - 1):
                v = np.empty(n)
                v[j] = sgn
                idx = 0
                for i in range(n):
                    if i != j:
                        v[i] = free[idx]
                        idx += 1
                out.append(v)
    return np.unique(np.array(out), axis=0)


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

POLYHEDRAL = [linf(n) for n in (1, 2, 3, 4)] + [l1(n) for n in (1, 2, 3, 4)]


def rows(A):
    return sorted(map(tuple, np.asarray(A).tolist()))


@pytest.mark.parametrize("space", POLYHEDRAL, ids=repr)
def test_face_vertices_are_the_loop_vertices(space):
    for f in enumerate_faces(space):
        assert rows(f.vertices()) == rows(loop_face_vertices(f)), f


def seeded_points(space, count, rng):
    """Gaussian points with exact zeros, exact ties and ties perturbed by
    1e-12 or 1e-3 relative to the largest coordinate."""
    out = []
    for k in range(count):
        x = rng.standard_normal(space.n)
        if k % 4 == 1:
            x[rng.random(space.n) < 0.4] = 0.0
        if k % 3 == 2 and space.n > 1:
            i, j = rng.choice(space.n, size=2, replace=False)
            x[j] = math.copysign(abs(x[i]), rng.standard_normal())
            if k % 9 in (5, 8):
                x[j] *= 1.0 + (1e-12 if k % 9 == 5 else 1e-3) * rng.choice([-1.0, 1.0])
        if k % 5 == 3:
            x[rng.integers(space.n)] = (1e-12 if k % 10 == 3 else 1e-3) * np.abs(x).max()
        if not x.any():
            x[0] = 1.0
        out.append(Point(x, space))
    return out


def in_l1_band(x):
    """On l_1 the coordinates of size at most TAU_EQ ||x|| are free signs
    for the old rule; the relative rule allows flipping them only while
    their total size stays within TAU_EQ/2 ||x||."""
    nx = x.norm()
    c = np.abs(x.coords)
    return x.space.p == 1 and c[(c > 0) & (c <= TAU_EQ * nx)].sum() > TAU_EQ / 2 * nx


def test_support_functionals_and_smoothness_match_the_coordinate_rules():
    rng = np.random.default_rng(21)
    for space in POLYHEDRAL:
        for x in seeded_points(space, 700, rng):
            assert not in_l1_band(x)
            want, unique = loop_support_generators(x)
            J = support_functionals(x)
            assert rows([f.coords for f in J.functionals]) == rows(want), x
            assert J.is_unique == unique
            assert is_smooth_point(x) == loop_is_smooth_point(x) == unique, x


def test_support_functionals_follow_the_dual_table_order():
    J = support_functionals(Point(np.array([1.0, -1.0, 0.5]), linf(3)))
    assert [tuple(f.coords) for f in J.functionals] == [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    J = support_functionals(Point(np.array([0.0, 2.0, 0.0]), l1(3)))
    assert [tuple(f.coords) for f in J.functionals] == [
        (1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, 1.0, 1.0), (-1.0, 1.0, -1.0)]


def test_l1_band_is_where_the_rules_part():
    # a coordinate of 0.75 TAU_EQ ||x||: a free sign for the old rule,
    # a flip costing 1.5 TAU_EQ ||x|| for the relative one
    x = Point(np.array([1.0, 0.75 * TAU_EQ]), l1(2))
    assert in_l1_band(x)
    assert not loop_is_smooth_point(x) and len(loop_support_generators(x)[0]) == 2
    assert is_smooth_point(x) and support_functionals(x).is_unique


def subspace_sets(count, rng):
    sets = []
    for k in range(count):
        n = 1 + k % 5
        dim = 1 + (k // 5) % n
        Q, _ = np.linalg.qr(rng.standard_normal((n, dim)))
        sets.append(AttainmentSet("subspace", 1.0, l2(n), basis=Q))
    return sets


def test_in_place_subspace_distance_matches_the_whole_array_one():
    rng = np.random.default_rng(17)
    worst = 0.0
    for M in subspace_sets(600, rng):
        n, Q = M.space.n, M.basis
        X = rng.standard_normal((40, n))
        X[:20] /= np.linalg.norm(X[:20], axis=1, keepdims=True)
        X[20:30] = (Q @ rng.standard_normal((Q.shape[1], 10))).T
        X[20:25] /= np.linalg.norm(X[20:25], axis=1, keepdims=True)
        want = whole_array_subspace_distance(Q, X)
        out, work = np.empty(len(X)), np.empty((3, len(X)))
        assert M.distance_to(X, out=out, work=work) is out
        assert np.array_equal(M.distance_to(X), out)
        worst = max(worst, float(np.abs(out - want).max()))
    assert worst <= 1e-7
    empty = AttainmentSet("subspace", 1.0, l2(3), basis=np.zeros((3, 0)))
    assert np.isinf(empty.distance_to(np.eye(3))).all()


def _unit(M, s):
    T = OperatorMatrix(M, s, s)
    return OperatorMatrix(M / op_norm(T)[0], s, s)


def test_hilbert_certificates_keep_their_status_and_delta(monkeypatch):
    rng = np.random.default_rng(9)
    triples = []
    for n in (2, 3, 2, 3, 3):
        for _ in range(4):
            T = _unit(rng.standard_normal((n, n)), l2(n))
            triples.append((T, _unit(T.entries + 0.1 * rng.standard_normal((n, n)), l2(n))))
    H = OperatorMatrix(np.diag([1.0, 1.0, 0.5]), l2(3), l2(3))
    triples.append((H, hilbert_rotate_approx(H, 0.3).approximant))
    cases = [(T, A, eps, (256, 1024, 16384)[k % 3])
             for k, (T, A) in enumerate(triples) for eps in (0.15, 0.4, 1.2)]
    new = [verify_uniform_bpb(T, A, eps, resolution=r) for T, A, eps, r in cases]

    def old_distance_to(self, X, out=None, work=None):
        assert self.kind == "subspace"
        out[...] = whole_array_subspace_distance(self.basis, X)
        return out

    monkeypatch.setattr(AttainmentSet, "distance_to", old_distance_to)
    old = [verify_uniform_bpb(T, A, eps, resolution=r) for T, A, eps, r in cases]
    for a, b in zip(old, new):
        assert (a.status, a.delta_found) == (b.status, b.delta_found)
        assert a.worst_distance == pytest.approx(b.worst_distance, abs=1e-7)
    assert {c.status for c in new} == {"certified", "falsified"}


def attainment_sets_of_every_kind(rng):
    sets, ops = [], []
    pairs = [(linf(2), linf(2)), (linf(3), l1(3)), (l1(3), l1(3)), (l1(2), linf(3)),
             (lp(3, 2), lp(3, 2)), (lp(4, 2), linf(2)), (l2(2), l2(2)), (l2(3), l2(3))]
    for k in range(240):
        dom, cod = pairs[k % len(pairs)]
        M = rng.standard_normal((cod.n, dom.n))
        if k % 3 == 0:
            M = np.round(M)
            M[0, 0] = 2.0
        if dom.hilbert and k % 2 == 0:
            M = np.diag(rng.choice([1.0, 0.5], size=dom.n))
            M[0, 0] = 1.0
        T = OperatorMatrix(M, dom, cod)
        ops.append(T)
        sets.append(attainment_set(T))
    sets += subspace_sets(15, rng)
    return sets, ops


def test_pair_count_and_single_pair_match_the_kind_branches():
    sets, ops = attainment_sets_of_every_kind(np.random.default_rng(23))
    seen = set()
    for M in sets:
        P = M.finite_points()
        assert kind_is_single_pair(M) == (P is not None and len(P) == 2)
        try:
            want = kind_pair_count(M)
        except NotDiscreteError:
            assert P is None
            with pytest.raises(NotDiscreteError):
                M.pair_count()
            seen.add((M.kind, "continuum"))
            continue
        assert M.pair_count() == want
        assert rows(P) == rows(-P)
        # at distance 0 the subspace form is the square root of rounding
        assert np.abs(M.distance_to(P)).max() <= 1e-7
        seen.add((M.kind, "finite"))
    assert seen == {(k, v) for k in ("faces", "points", "subspace") for v in ("finite", "continuum")} - {
        ("points", "continuum")}
    for T in ops:
        assert is_smooth_operator(T) == loop_is_smooth_operator(T), T


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("resolution", [256, 4096, 16384])
def test_linf_grid_is_the_loop_grid(n, resolution):
    assert np.array_equal(_linf_grid(n, resolution), loop_linf_grid(n, resolution))
