"""One reader for every subspace basis, pinned against the copies it replaced.

`operators._basis_columns` reads the basis of `restricted_norm`, the X1 and
X2 bases of `direct_sum_shrink_approx` and the declared `attained_subspace`
of `hilbert_rotate_approx`.  The earlier readers are kept below as oracles:
on every well-formed basis the new one returns their columns bit for bit.
The earlier split and subspace readers let a basis with no side of n
entries reach numpy, and the subspace reader let QR complete a dependent
basis into a subspace the caller never declared.
"""

import math

import numpy as np
import pytest

from bpblab import direct_sum_shrink_approx, hilbert_rotate_approx, l1, l2, linf, lp, operator
from bpblab.errors import (
    DegenerateBasisError,
    MixedSpacesError,
    NonFiniteError,
    NotComplementaryError,
)
from bpblab.operators import TAU_RANK, _basis_columns, restricted_norm
from bpblab.spaces import _check_finite


def restricted_norm_reader(basis, n):
    """The reader of `restricted_norm`: a vector or columns of n entries."""
    B = np.asarray(basis, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape[0] != n:
        raise MixedSpacesError("basis does not live in the domain")
    _check_finite(B, "basis")
    if B.shape[1] and np.linalg.matrix_rank(B, tol=TAU_RANK) < B.shape[1]:
        raise DegenerateBasisError("basis columns are linearly dependent")
    return B


def split_reader(basis, n, what="X1_basis"):
    """The reader of `_decomposition_projectors`, once for X1 and once for
    X2: rows or columns, with no shape or rank test of its own."""
    B = np.atleast_2d(np.asarray(basis, dtype=float))
    _check_finite(B, what)
    if B.shape[0] != n:
        B = B.T
    return B


def declared_subspace_reader(basis, n):
    """The reader of `hilbert_rotate_approx`'s `attained_subspace`, before
    its QR: the split reader's code under another name."""
    Q0 = np.atleast_2d(np.asarray(basis, dtype=float))
    _check_finite(Q0, "attained_subspace")
    if Q0.shape[0] != n:
        Q0 = Q0.T
    return Q0


def bits(B):
    return B.dtype, B.shape, B.tobytes()


def well_formed_bases(rng):
    """(n, basis) pairs of the forms the suite passes: 1-D vectors, columns
    (k = 0..n) and rows (0 < k < n), as arrays and as nested lists,
    including the axis, Gaussian and near-dependent ones."""
    for n in range(1, 6):
        I = np.eye(n)
        yield n, I[:, 0]
        yield n, list(rng.standard_normal(n))
        for k in range(n + 1):
            G = rng.standard_normal((n, k))
            yield n, I[:, :k]
            yield n, G
            yield n, G.tolist()
            if 0 < k < n:
                yield n, I[:k]
                yield n, G.T
                yield n, np.ascontiguousarray(G.T).tolist()
        if n >= 2:
            B = rng.standard_normal((n, 2))
            B[:, 1] = B[:, 0] + 1e-6 * rng.standard_normal(n)
            yield n, B
            yield n, np.array([[1.0, 1.0], [1.0, -1.0]] + [[0.0, 0.0]] * (n - 2))


def test_the_reader_returns_the_old_columns_bit_for_bit():
    columns = 0
    for n, basis in well_formed_bases(np.random.default_rng(39)):
        got = bits(_basis_columns(basis, n, "basis"))
        assert bits(split_reader(basis, n)) == got
        assert bits(declared_subspace_reader(basis, n)) == got
        if np.ndim(basis) == 1 or np.shape(basis)[0] == n:
            assert bits(restricted_norm_reader(basis, n)) == got
            columns += 1
    assert columns >= 50


@pytest.mark.parametrize("basis", [
    [[1.0, 0.0], [0.0, 1.0]],    # neither side has 3 entries
    [1.0, 0.0],                  # a vector of 2 entries
    [[[1.0, 0.0, 0.0]]],         # three axes
    1.0,                         # a scalar
])
def test_a_basis_with_no_side_of_n_entries_is_refused_by_name(basis):
    with pytest.raises(MixedSpacesError, match="^what of shape"):
        _basis_columns(basis, 3, "what")


@pytest.mark.parametrize("basis", [[[1.0, 0.0, 0.0], [0.0, 1.0]], [["a", "b", "c"]], [[1j, 0.0, 0.0]]])
def test_a_basis_that_is_no_array_of_numbers_is_refused_by_name(basis):
    # numpy's ValueError or TypeError reached the caller
    with pytest.raises(MixedSpacesError, match="^what is not an array of numbers"):
        _basis_columns(basis, 3, "what")


def test_the_reader_refuses_non_finite_and_dependent_bases_by_name():
    with pytest.raises(NonFiniteError, match="^what must be finite"):
        _basis_columns([[1.0, math.nan, 0.0]], 3, "what")
    with pytest.raises(DegenerateBasisError, match="^what columns are linearly dependent"):
        _basis_columns([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], 3, "what")
    assert _basis_columns(np.zeros((3, 0)), 3, "what").shape == (3, 0)


HILBERT = operator(np.diag([1.0, 0.5, 0.2]), l2(3), l2(3))


def test_a_declared_subspace_of_the_wrong_shape_names_the_argument():
    # numpy raised "operands could not be broadcast"
    with pytest.raises(MixedSpacesError, match="^attained_subspace of shape"):
        hilbert_rotate_approx(HILBERT, 0.2, attained_subspace=[[1.0, 0.0], [0.0, 1.0]])


def test_a_dependent_declared_subspace_is_refused():
    # QR completed it into a 2-D subspace that was never declared
    with pytest.raises(DegenerateBasisError, match="^attained_subspace columns"):
        hilbert_rotate_approx(HILBERT, 0.2, attained_subspace=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_a_split_basis_of_the_wrong_shape_names_the_argument():
    # numpy's concatenate raised a bare ValueError
    X2 = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(MixedSpacesError, match="^X1_basis of shape"):
        direct_sum_shrink_approx(HILBERT, [[1.0, 0.0]], X2, 0.2)
    with pytest.raises(MixedSpacesError, match="^X2_basis of shape"):
        direct_sum_shrink_approx(HILBERT, [[1.0, 0.0, 0.0]], [[0.0, 1.0]], 0.2)


def test_a_dependent_split_basis_is_degenerate_not_non_complementary():
    X2 = [[0.0, 0.0, 1.0]]
    with pytest.raises(DegenerateBasisError, match="^X1_basis columns"):
        direct_sum_shrink_approx(HILBERT, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], X2, 0.2)
    # independent bases that do not span the domain together stay refused
    with pytest.raises(NotComplementaryError):
        direct_sum_shrink_approx(HILBERT, [[1.0, 0.0, 0.0]], [[1.0, 1.0, 0.0]], 0.2)


@pytest.mark.parametrize("space", [l2(3), linf(3), l1(3), lp(3, 3)], ids=str)
def test_restricted_norm_takes_a_basis_given_as_rows(space):
    T = operator(np.diag([1.0, 0.5, 0.2]), space, space)
    # the earlier reader refused rows with MixedSpacesError
    rows = restricted_norm(T, [[0.0, 1.0, 0.0]])
    assert rows == restricted_norm(T, [[0.0], [1.0], [0.0]]) == pytest.approx(0.5, abs=1e-15)
