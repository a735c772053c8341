"""The geometry table: which kernels serve which space pairs.

Over p, q in {1, 4/3, 2, 3, inf} and n, m in {1, ..., 4}: every pair with
a geometry gets the attainment set of that geometry, and every other pair
is refused, naming both spaces, by each entry point before the l_p^2
search runs.
"""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from bpblab import (
    OperatorMatrix,
    attainment_set,
    delta_for_epsilon,
    l1,
    l2,
    linf,
    lp,
    op_norm,
    restricted_norm,
    verify_uniform_bpb,
)
from bpblab import operators
from bpblab.errors import UnsupportedPairError, UnsupportedSpaceError
from bpblab.operators import op_norms, pair_geometry
from bpblab.spaces import INF, SpaceSpec

EXPONENTS = [Fraction(1), Fraction(4, 3), Fraction(2), Fraction(3), INF]
DIMENSIONS = [1, 2, 3, 4]
KIND = {"polyhedral": "faces", "hilbert": "subspace", "lp2": "points"}


def expected_geometry(X: SpaceSpec, Y: SpaceSpec):
    """The table written out: None for a pair no geometry covers."""
    if X.p in (1, INF):
        return "polyhedral"
    if X.p == 2 and Y.p == 2:
        return "hilbert"
    return "lp2" if X.n == 2 else None


def pairs():
    for p, q in itertools.product(EXPONENTS, EXPONENTS):
        for n, m in itertools.product(DIMENSIONS, DIMENSIONS):
            yield SpaceSpec(p, n), SpaceSpec(q, m)


def test_every_supported_pair_gets_its_geometry_and_set_kind():
    rng = np.random.default_rng(0)
    seen = set()
    for X, Y in pairs():
        geometry = expected_geometry(X, Y)
        if geometry is None:
            continue
        assert pair_geometry(X, Y) == geometry, (X, Y)
        T = OperatorMatrix(rng.standard_normal((Y.n, X.n)), X, Y)
        assert attainment_set(T).kind == KIND[geometry], (X, Y)
        seen.add(geometry)
    assert seen == set(KIND)


def test_every_other_pair_is_refused_naming_both_spaces(monkeypatch):
    def never(T):
        raise AssertionError(f"the l_p^2 search ran on {T.domain} -> {T.codomain}")

    monkeypatch.setattr(operators, "_lp2_local_maxima", never)
    refused = []
    for X, Y in pairs():
        if expected_geometry(X, Y) is not None:
            continue
        E = np.ones((Y.n, X.n))
        T = OperatorMatrix(E, X, Y)
        calls = [
            lambda: op_norm(T),
            lambda: op_norms(E[None], X, Y),
            lambda: attainment_set(T),
            lambda: verify_uniform_bpb(T, T * 0.5, 0.1),
            lambda: delta_for_epsilon(T, 0.1),
        ]
        for call in calls:
            with pytest.raises(UnsupportedPairError, match=re.escape(f"{X} -> {Y}")):
                call()
        refused.append((X, Y))
    assert (lp(3, 3), lp(3, 3)) in refused and (l2(3), lp(3, 2)) in refused
    assert (l2(3), l1(3)) in refused and (lp(3, 1), lp(3, 1)) in refused
    assert (l2(1), l1(2)) in refused


def test_the_refusal_is_an_unsupported_space():
    assert issubclass(UnsupportedPairError, UnsupportedSpaceError)
    with pytest.raises(UnsupportedSpaceError):
        op_norm(OperatorMatrix(np.eye(3), lp(3, 3), lp(3, 3)))


@pytest.mark.parametrize("X, Y, geometry", [
    (l2(4), l2(4), "hilbert"),
    (lp(3, 2), l2(5), "lp2"),
    (linf(4), l1(2), "polyhedral"),
])
def test_edge_pairs_stay_accepted(X, Y, geometry):
    E = np.random.default_rng(1).standard_normal((Y.n, X.n))
    T = OperatorMatrix(E, X, Y)
    value, _ = op_norm(T)
    assert value > 0.0 and op_norms(E, X, Y) == value
    assert attainment_set(T).kind == KIND[geometry]


def test_restricted_norm_needs_no_geometry():
    # a line of l_3^3: ||T b|| / ||b|| for the one basis column
    T = OperatorMatrix(np.diag([1.0, 2.0, 3.0]), lp(3, 3), lp(3, 3))
    assert restricted_norm(T, np.array([0.0, 1.0, 0.0])) == 2.0
