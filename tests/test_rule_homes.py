"""One home per rule, each pinned against the copy it replaced.

The eps rule lives in `spaces._check_eps` (it also guards
`arc_length_constant`), the top-singular cut that decides dim H_0 in
`operators.top_singular_dim`, the plain Birkhoff-James rule in
`spaces._orthogonal_columns`, and the l_p distance to a finite point list
inline in the dedup of `operators._build_attainment_set`.  The earlier
copies are kept below as oracles: the inline cut of
`slemma.HilbertSupplier` on Python floats and that of `_build_attainment_set`
on the singular-value array, and the scalar Birkhoff-James rule of
`birkhoff_orthogonal`.  Vectors, bases and numpy integers are refused or
accepted at the boundary, naming the argument.
"""

import math

import numpy as np
import pytest

from bpblab import (
    approximants,
    bpbverify,
    epsilon0_lp2,
    l1,
    l2,
    linf,
    lp,
    operator,
    point,
    slemma,
    spaces,
)
from bpblab.approximants import (
    direct_sum_shrink_approx,
    hilbert_rotate_approx,
    sbpbp_counterexample_family,
)
from bpblab.errors import (
    BadExponentError,
    BadIndexError,
    MixedSpacesError,
    NonFiniteError,
    OutOfRangeError,
    UnsupportedSpaceError,
    ZeroVectorError,
)
from bpblab.operators import TAU_GAP, attainment_set, restricted_norm, top_singular_dim
from bpblab.slemma import HilbertSupplier
from bpblab.spaces import (
    TAU_EQ,
    SpaceSpec,
    _support_rows,
    arc_length_constant,
    arc_length_total,
    birkhoff_orthogonal,
)


def slemma_cut(s):
    """The cut of HilbertSupplier.__init__, on Python floats."""
    s = np.asarray(s).tolist()
    cut = s[0] - TAU_GAP * max(s[0], 1.0)
    return sum(x >= cut for x in s)


def attainment_cut(s):
    """The cut of _build_attainment_set, on the singular-value array."""
    return int((s >= s[0] - TAU_GAP * max(s[0], 1.0)).sum())


def scalar_birkhoff_orthogonal(x, y, strong=False):
    """birkhoff_orthogonal as it was, with its own copy of the plain rule."""
    nx = x.norm()
    if nx == 0.0:
        raise ZeroVectorError("x must be nonzero")
    ny = y.norm()
    if ny == 0.0:
        return not strong
    fy = _support_rows(x, nx) @ y.coords
    lo, hi, tol = float(fy.min()), float(fy.max()), TAU_EQ * ny
    if not strong or x.space.strictly_convex:
        return lo <= tol and hi >= -tol
    return lo < -tol and hi > tol


def _spectra():
    rng = np.random.default_rng(5)
    for k in range(400):
        top = [1.0, 0.5, 3.0, 1e-3, 1e4][k % 5]
        gap = TAU_GAP * max(top, 1.0)
        rest = top - gap * rng.choice([0.0, 0.5, 1.0, 2.0, 10.0], size=rng.integers(0, 4))
        s = np.sort(np.concatenate([[top], rest, top * rng.random(rng.integers(0, 3))]))[::-1]
        yield s
        # the values next to the cut, one ulp on either side of a tie
        cut = s[0] - gap
        yield np.array([s[0], np.nextafter(cut, np.inf), cut, np.nextafter(cut, -np.inf)])


def test_the_top_singular_cut_is_both_inline_cuts():
    counts = set()
    for s in _spectra():
        k = top_singular_dim(s)
        assert k == slemma_cut(s) == attainment_cut(s), s
        counts.add(k)
    assert {1, 2, 3} <= counts


def test_the_supplier_and_the_attainment_set_read_one_dimension():
    rng = np.random.default_rng(8)
    s = l2(3)
    for k in range(30):
        # tied top singular values at every other draw, so dim H_0 varies
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sv = np.array([1.0, 1.0 if k % 2 else 0.7, 0.3 * (k % 3)])
        T = operator(U @ np.diag(sv) @ V.T, s, s)
        assert HilbertSupplier(T).k == attainment_set(T).subspace_dim


def _birkhoff_pairs():
    rng = np.random.default_rng(17)
    spaces_ = [lp(3, 2), lp("4/3", 3), l2(3), l1(3), linf(2), lp(5, 4), l1(2), linf(3)]
    for k in range(240):
        s = spaces_[(k // 4) % len(spaces_)]
        x = rng.standard_normal(s.n)
        y = rng.standard_normal(s.n)
        if k % 4 == 1:
            x = np.sign(x)  # a corner of the cube, a non-smooth point of l_inf
        if k % 4 == 2 and s.polyhedral:
            x = np.where(np.arange(s.n) < 2, np.sign(x), 0.0)  # an edge
        if k % 4 == 3:
            y = np.zeros(s.n) if k % 8 == 3 else 1e-6 * y
        yield point(x, s), point(y, s)
    for s, x, y in [
        (l2(2), [1, 0], [0, 1]),
        (l2(2), [1, 0], [1, 0]),
        (linf(2), [1.0, 1.0], [1.0, -1.0]),
        (linf(2), [1.0, 0.0], [0.0, 1.0]),
        (l1(2), [1.0, 0.0], [0.0, 1.0]),
        (l1(2), [1.0, 1.0], [1.0, -1.0]),
        (l1(2), [1.0, 0.0], [1.0, 1.0]),
        (linf(2), [1.0, 1.0], [1.0, 0.0]),
    ]:
        yield point(x, s), point(y, s)


@pytest.mark.parametrize("strong", [False, True])
def test_birkhoff_orthogonal_keeps_the_scalar_verdicts(strong):
    verdicts = set()
    for x, y in _birkhoff_pairs():
        want = scalar_birkhoff_orthogonal(x, y, strong)
        assert birkhoff_orthogonal(x, y, strong=strong) is want, (x, y)
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("space", [l2(2), linf(2)])
@pytest.mark.parametrize("strong", [False, True])
def test_birkhoff_orthogonal_refuses_x_zero_and_mixed_spaces(space, strong):
    with pytest.raises(ZeroVectorError):
        birkhoff_orthogonal(point([0, 0], space), point([0, 0], space), strong=strong)
    with pytest.raises(MixedSpacesError):
        birkhoff_orthogonal(point([1, 0], space), point([0, 1], lp(3, 2)), strong=strong)


L3 = arc_length_total(3)


def _refuse(*args):
    raise AssertionError("an arc table was built for a refused eps")


@pytest.mark.parametrize(
    "eps", [True, np.True_, "0.1", None, 1j, math.nan, 0, 0.0, -0.1, math.inf], ids=repr
)
def test_arc_length_constant_refuses_a_bad_eps_before_any_table(eps, monkeypatch):
    # True ran with eps = 1 and returned 0.811; "0.1" and None raised a
    # bare TypeError
    monkeypatch.setattr(spaces, "_arc_table", _refuse)
    monkeypatch.setattr(spaces, "_arc_length_constant", _refuse)
    with pytest.raises(OutOfRangeError, match="^eps must "):
        arc_length_constant(3, eps)


@pytest.mark.parametrize("eps", [L3 / 2.0, L3], ids=repr)
def test_arc_length_constant_refuses_half_the_circle_before_its_tables(eps, monkeypatch):
    monkeypatch.setattr(spaces, "_arc_length_constant", _refuse)
    with pytest.raises(OutOfRangeError, match=r"^eps must lie in \(0, "):
        arc_length_constant(3, eps)


def test_arc_length_constant_accepts_every_real_inside():
    assert arc_length_constant(3, np.float64(0.25)) == arc_length_constant(3, 0.25)
    assert arc_length_constant(3, 1) == arc_length_constant(3, 1.0)


def test_each_rule_has_one_home():
    assert approximants._check_eps is spaces._check_eps is bpbverify._check_eps
    assert not hasattr(spaces, "points_distance")
    assert not hasattr(slemma, "TAU_GAP")
    assert slemma.top_singular_dim is top_singular_dim
    assert bpbverify.pair_property_sweep.__defaults__ == (bpbverify.DEFAULT_RESOLUTION,)


# -- the boundaries ---------------------------------------------------------

BAD = [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]]


@pytest.mark.parametrize("coords", BAD, ids=str)
@pytest.mark.parametrize("space", [lp(3, 2), l1(2), l2(2)])
def test_a_point_refuses_non_finite_coords(coords, space):
    # a NaN point gave support_functionals a functional of NaNs and
    # is_smooth_point a verdict; an infinite one warned in birkhoff_orthogonal
    with pytest.raises(NonFiniteError, match="^coords must be finite"):
        point(coords, space)


def test_a_point_still_refuses_a_wrong_length_first():
    with pytest.raises(MixedSpacesError):
        point([math.nan, 1.0, 2.0], l2(2))


HILBERT = operator(np.diag([1.0, 0.5, 0.2]), l2(3), l2(3))


def test_a_declared_subspace_must_be_finite():
    # a NaN subspace passed the containment check and gave a report
    for Q in ([[math.nan], [0.0], [0.0]], [[1.0, 0.0, math.inf]]):
        with pytest.raises(NonFiniteError, match="^attained_subspace must be finite"):
            hilbert_rotate_approx(HILBERT, 0.2, attained_subspace=Q)
    good = hilbert_rotate_approx(HILBERT, 0.2, attained_subspace=[[1.0], [0.0], [0.0]])
    assert good.attainment_preserved


@pytest.mark.parametrize("which", ["X1_basis", "X2_basis"])
def test_the_shrink_refuses_a_non_finite_basis_by_name(which):
    # a NaN basis warned in det
    bases = {"X1_basis": [[1.0, 0.0, 0.0]], "X2_basis": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    bases[which] = np.array(bases[which])
    bases[which][0, 1] = math.nan
    with pytest.raises(NonFiniteError, match=f"^{which} must be finite"):
        direct_sum_shrink_approx(HILBERT, bases["X1_basis"], bases["X2_basis"], 0.2)


@pytest.mark.parametrize("T", [HILBERT, operator(np.eye(2), lp(3, 2), lp(3, 2))], ids=str)
def test_restricted_norm_refuses_a_non_finite_basis(T):
    # a NaN basis raised a bare LinAlgError
    B = np.zeros((T.domain.n, 1))
    B[0, 0] = math.nan
    with pytest.raises(NonFiniteError, match="^basis must be finite"):
        restricted_norm(T, B)


def test_numpy_integers_are_integers():
    # lp(3, np.int64(2)) said "dimension must be a positive integer, got 2"
    s = lp(3, np.int64(2))
    assert s == lp(3, 2) and hash(s) == hash(lp(3, 2)) and type(s.n) is int
    assert SpaceSpec(np.int64(3), np.int32(2)) == lp(3, 2)
    assert linf(np.uint8(3)) == linf(3)
    got = epsilon0_lp2(np.int64(3))
    assert got == epsilon0_lp2(3) and type(got.p) is int
    x0 = point([1.0, 0.0], l2(2))
    assert np.array_equal(
        sbpbp_counterexample_family(x0, np.int64(10)).entries,
        sbpbp_counterexample_family(x0, 10).entries,
    )


@pytest.mark.parametrize("n", [True, np.True_, 2.0, "2", 0, np.int64(0), None], ids=repr)
def test_non_integer_dimensions_keep_their_error(n):
    with pytest.raises(UnsupportedSpaceError, match="dimension must be a positive integer"):
        lp(3, n)


@pytest.mark.parametrize("p", [True, np.True_, 3.0, np.int64(2), 1, -3, None], ids=repr)
def test_epsilon0_keeps_its_error(p):
    with pytest.raises(BadExponentError, match="p must be an integer >= 3"):
        epsilon0_lp2(p)


@pytest.mark.parametrize("n", [True, np.True_, 10.0, np.int64(1)], ids=repr)
def test_the_family_index_keeps_its_error(n):
    with pytest.raises(BadIndexError):
        sbpbp_counterexample_family(point([1.0, 0.0], l2(2)), n)
