"""Differential tests of the coordinate-major norm kernels against the
row-major forms they replaced.

Every norm over a batch of vectors is computed from images of shape
(m, rows) and reduced across the m coordinates.  The references below are
the earlier row-major forms, images of shape (rows, m) reduced along the
last axis: `pnorm(X @ E.T, p, axis=1)` for the sample and grid norms and
`pnorm(V @ E.swapaxes(-1, -2), p, axis=-1)` for the vertex and barycentre
norms; the C-ordered arc table, interpolated row by row, and l_p^2 grid;
and `pnorm` deciding on the exponent before converting it to a float.
Each new kernel must equal its reference bit for bit.
"""

import math
import re
import zlib
from fractions import Fraction

import numpy as np
import pytest

from bpblab import l1, l2, linf, lp
from bpblab.bpbverify import _exact_table, _sample
from bpblab.errors import UnsupportedPairError
from bpblab.operators import (
    LP2_SEARCH_POINTS,
    OperatorMatrix,
    _attaining_faces,
    _lp2_grid,
    _vertex_norms,
    op_norms,
)
from bpblab.sampling import sphere_grid
from bpblab.spaces import (
    ARC_TABLE_SIZE,
    INF,
    TAU_EQ,
    Point,
    _arc_constant_at,
    _arc_table,
    _interp_on_curve,
    lp_circle,
    pnorm,
    pnorm_into,
    polyhedral_table,
)

DOMAINS = [linf(2), linf(3), l1(2), l1(3), lp(3, 2), lp("4/3", 2), l2(2), l2(3)]
CODOMAIN_P = [Fraction(1), Fraction(2), Fraction(3), Fraction(4, 3), INF]
RESOLUTIONS = [256, 16384]


def row_major_norms(E, X, p):
    return pnorm(X @ E.T, p, axis=1)


def row_major_vertex_norms(E, V, p):
    return pnorm(V @ E.swapaxes(-1, -2), p, axis=-1)


def row_major_interp(pts, s, u):
    L = s[-1]
    u = np.mod(u, L)
    x = np.interp(u, s, pts[:, 0])
    y = np.interp(u, s, pts[:, 1])
    return np.stack([x, y], axis=-1)


def row_major_arc_constant(p, eps, m):
    """_arc_constant_at on the C-ordered table, interpolated row by row."""
    t = np.linspace(0.0, 2.0 * math.pi, m + 1)
    pts = lp_circle(p, t)
    pts[-1] = pts[0]
    s = _arc_table(p, m)[1]
    u = np.linspace(0.0, s[-1], m, endpoint=False)
    a, b = row_major_interp(pts, s, u), row_major_interp(pts, s, u + eps)
    return float(pnorm(a - b, p, axis=1).min())


def old_pnorm(v, p, axis=-1):
    """pnorm as it was: the sup norm decided by p == INF on the exponent
    itself (a Fraction comparison), before any float conversion."""
    v = np.asarray(v, dtype=float)
    if p == INF:
        return np.abs(v).max(axis=axis)
    pf = float(p)
    if pf == 1.0:
        return np.abs(v).sum(axis=axis)
    if pf == 2.0:
        return np.sqrt((v * v).sum(axis=axis))
    return (np.abs(v) ** pf).sum(axis=axis) ** (1.0 / pf)


def matrices(m, n, seed):
    """One Gaussian and one integer m x n matrix."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((m, n)), rng.integers(-3, 4, size=(m, n)).astype(float)]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def cases():
    for dom in DOMAINS:
        for q in CODOMAIN_P:
            for m in (2, 3):
                yield dom, lp(q, m)


def case_id(case):
    return f"{case[0]}->{case[1]}"


@pytest.mark.parametrize("case", list(cases()), ids=case_id)
def test_sample_norms_equal_the_row_major_form(case):
    # the verifier's sample: the grid with the norming vector as its last
    # row, the corner set on l_1^n and l_inf^n; no geometry covers l_2^3
    # into a non-Hilbert codomain, and l_2^3 -> l_2^m certificates are
    # exact (slemma), so no certificate samples l_2^3
    dom, cod = case
    ones = np.ones(dom.n)
    witness = Point(ones / pnorm(ones, dom.p), dom)
    for seed, E in enumerate(matrices(cod.n, dom.n, zlib.crc32(case_id(case).encode()))):
        T = OperatorMatrix(E, dom, cod)
        if dom == l2(3) and cod.p != 2:
            with pytest.raises(UnsupportedPairError, match=re.escape(f"{dom} -> {cod}")):
                _sample(T, witness, RESOLUTIONS[0], _exact_table(T, 0.1))
            continue
        if dom == l2(3):
            sample = _sample(T, witness, RESOLUTIONS[0], _exact_table(T, 0.1))
            assert (sample.rows, sample.norms, sample.basis) == (None, None, "exact")
            continue
        for resolution in RESOLUTIONS:
            X, norms = _sample(T, witness, resolution, _exact_table(T, 0.1))[:2]
            assert dom.polyhedral or same_bits(X[-1], witness.coords)
            want = row_major_norms(T.entries, np.array(X), cod.p)
            assert same_bits(norms, want), (seed, resolution)


@pytest.mark.parametrize("case", list(cases()), ids=case_id)
def test_image_norms_equal_the_row_major_form(case):
    dom, cod = case
    for E in matrices(cod.n, dom.n, 7):
        T = OperatorMatrix(E, dom, cod)
        for resolution in RESOLUTIONS:
            X = sphere_grid(dom, resolution)
            assert same_bits(T.image_norms(X), row_major_norms(T.entries, X, cod.p))
            # a C-ordered copy, a Fortran-ordered copy and a strided view
            for Y in (np.ascontiguousarray(X), np.asfortranarray(X), X[::3]):
                assert same_bits(T.image_norms(Y), row_major_norms(T.entries, Y, cod.p))


@pytest.mark.parametrize("dom", [linf(2), linf(3), l1(2), l1(3)], ids=str)
@pytest.mark.parametrize("q", CODOMAIN_P, ids=str)
def test_vertex_norms_equal_the_row_major_form(dom, q):
    table = polyhedral_table(dom)
    rng = np.random.default_rng(11)
    for m in (2, 3):
        cod = lp(q, m)
        stacks = [
            rng.standard_normal((64, m, dom.n)),
            rng.integers(-3, 4, size=(64, m, dom.n)).astype(float),
        ]
        for S in stacks:
            for V in (table.vertices, table.barycentres):
                want = row_major_vertex_norms(S, V, cod.p)
                assert same_bits(_vertex_norms(S, V, cod), want)
                assert same_bits(_vertex_norms(S[5], V, cod), want[5])
            values = row_major_vertex_norms(S, table.vertices, cod.p).max(axis=-1)
            assert same_bits(op_norms(S, dom, cod), values)
            B = row_major_vertex_norms(S, table.barycentres, cod.p)
            hit = B >= values[:, None] * (1.0 - TAU_EQ)
            assert same_bits(_attaining_faces(S, values, dom, cod), hit)


@pytest.mark.parametrize("p", [Fraction(3), Fraction(4), Fraction(3, 2), Fraction(10)], ids=str)
def test_fortran_arc_table_equals_the_c_ordered_one(p):
    m = ARC_TABLE_SIZE
    pts, s = _arc_table(p, m)
    assert pts.flags.f_contiguous and pts.shape == (m + 1, 2)
    t = np.linspace(0.0, 2.0 * math.pi, m + 1)
    old = lp_circle(p, t)
    old[-1] = old[0]
    seg = np.linalg.norm(np.diff(old, axis=0), axis=1)
    assert same_bits(pts, old)
    assert same_bits(s, np.concatenate([[0.0], np.cumsum(seg)]))
    u = np.random.default_rng(3).uniform(-1.0, 2.0 * s[-1], 257)
    assert same_bits(_interp_on_curve(pts, s, u), row_major_interp(old, s, u).T)
    for m, eps in ((1 << 13, 0.01), (1 << 15, 0.2)):
        assert _arc_constant_at(p, eps, m) == row_major_arc_constant(p, eps, m)


@pytest.mark.parametrize(
    "p", [Fraction(1), Fraction(2), Fraction(3), Fraction(4, 3), INF, 1, 2, 4, 2.5, math.inf],
    ids=str,
)
def test_pnorm_on_the_float_exponent_equals_the_old_branching(p):
    v = np.random.default_rng(5).standard_normal((40, 3))
    for axis in (0, 1, -1):
        want = old_pnorm(v, p, axis)
        assert same_bits(pnorm(v, p, axis), want)
        out = np.empty(want.shape)
        assert same_bits(pnorm_into(v.copy(), p, axis, out), want)


@pytest.mark.parametrize(
    "p", [1, 1.2, Fraction(4, 3), 1.5, 2, 3, 4, 10, 33, 100, INF], ids=str
)
def test_pnorm_copy_is_the_abs_copy(p):
    # pnorm hands pnorm_into a plain copy, which takes |v| in place on every
    # branch; the reference copies |v| first
    rng = np.random.default_rng(9)
    v = rng.standard_normal((40, 3))
    v[::7, 1] = -0.0
    inputs = [(v, 0), (v, 1), (np.asfortranarray(v), 0), (v[3], -1), (v[5].tolist(), -1)]
    inputs += [([-0.0, -0.0, 2.5], -1), ([[-1.0, 0.5], [-0.0, -3.0]], 0)]
    for x, axis in inputs:
        want = pnorm_into(np.abs(np.asarray(x, dtype=float)), p, axis, None)
        assert same_bits(pnorm(x, p, axis), want)


@pytest.mark.parametrize("p", [Fraction(3), Fraction(4, 3), Fraction(10)], ids=str)
def test_fortran_lp2_grid_equals_the_c_ordered_one(p):
    t, pts = _lp2_grid(p)
    assert pts.flags.f_contiguous
    old = lp_circle(p, np.linspace(0.0, math.pi, LP2_SEARCH_POINTS, endpoint=False))
    assert same_bits(pts, old)
    for E in matrices(3, 2, 13):
        T = OperatorMatrix(E, lp(p, 2), lp(3, 3))
        assert same_bits(T.image_norms(pts), row_major_norms(E, old, T.codomain.p))
