"""Differential tests of the direct-sum split against the code it replaced.

`hilbert_rotate_approx` reads its split off the SVD the norm memo holds:
the complement of M_T is spanned by the right singular vectors Vt[k:],
where T has norm s[k], and the shrink gets the orthogonal projectors of
the two bases.  The reference is the earlier route: a QR for the
complement, `_orthonormal_norm` for the norm of T on it and
`_decomposition_projectors` (det and inverse) for the projectors.

`direct_sum_shrink_approx`, whose bases come from the caller, decides
X1 _|_B X2 with one product J(x) @ B2 per column x of B1; the reference
is the earlier loop of `birkhoff_orthogonal` over the (x, y) pairs of
Points.  The split of `hilbert_rotate_approx` is orthonormal, so the
shrink it calls runs no such check.
"""

import numpy as np
import pytest

from bpblab import (
    attainment_set,
    birkhoff_orthogonal,
    hilbert_rotate_approx,
    l1,
    l2,
    linf,
    lp,
    operator,
    point,
    support_functionals,
    verify_uniform_bpb,
)
from bpblab import approximants
from bpblab.approximants import _decomposition_projectors, direct_sum_shrink_approx
from bpblab.errors import (
    CodomainDimOneError,
    IsIsometryError,
    NotComplementaryError,
    OrthogonalityError,
    ZeroOnX2Error,
)
from bpblab.operators import TAU_VANISH, _orthonormal_norm, orthogonal_complement
from bpblab.spaces import _orthogonal_columns

SPACES = [make(n) for make in (l1, l2, lambda n: lp(3, n), linf) for n in (2, 3, 4)]


def loop_verdicts(B1, B2, space):
    """The earlier check: birkhoff_orthogonal on every (x, y) pair."""
    return np.array([
        [birkhoff_orthogonal(point(x, space), point(y, space)) for y in B2.T] for x in B1.T
    ])


def splits(space, rng):
    """Seeded (B1, B2) splits of `space`: the standard basis cut at k, a
    signed-permutation split and a Euclidean-orthogonal split (orthogonal
    on l_2 and on the standard basis of every l_p), integer splits with
    entries in {-1, 0, 1} (polyhedral x with several supporting
    functionals, and exact zeros f(y) = 0) and Gaussian splits."""
    n = space.n
    out = []
    for k in range(1, n):
        out.append((np.eye(n)[:, :k], np.eye(n)[:, k:]))
        P = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
        out.append((P[:, :k], P[:, k:]))
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        out.append((Q[:, :k], Q[:, k:]))
        for _ in range(3):
            C = rng.integers(-1, 2, (n, n)).astype(float)
            while abs(np.linalg.det(C)) < 0.5:
                C = rng.integers(-1, 2, (n, n)).astype(float)
            out.append((C[:, :k], C[:, k:]))
        C = rng.standard_normal((n, n))
        out.append((C[:, :k], C[:, k:]))
    return out


class _Reps:
    """An attainment set inside X1: the first column of B1."""

    def __init__(self, b):
        self.b = b

    def representative_points(self):
        return np.array([self.b, -self.b])


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_product_check_matches_the_pair_loop(space, monkeypatch):
    rng = np.random.default_rng(space.n)
    # M_T inside X1 and T nonzero on X2, so the orthogonality check
    # decides; past it the shrink's report is not under test
    monkeypatch.setattr(approximants, "_finish", lambda *args, **kwargs: "passed")
    monkeypatch.setattr(approximants, "restricted_norm", lambda T, B: 0.5)
    T = operator(np.eye(space.n), space, space)
    for B1, B2 in splits(space, rng):
        want = loop_verdicts(B1, B2, space)
        got = np.array([_orthogonal_columns(point(x, space), B2) for x in B1.T])
        assert np.array_equal(got, want)
        reps = _Reps(B1[:, 0])
        monkeypatch.setattr(approximants, "norm_one_attainment_set", lambda T, name: reps)
        if want.all():
            assert direct_sum_shrink_approx(T, B1, B2, 0.3) == "passed"
        else:
            with pytest.raises(OrthogonalityError):
                direct_sum_shrink_approx(T, B1, B2, 0.3)


def test_the_splits_cover_both_verdicts():
    rng = np.random.default_rng(0)
    seen, several = set(), set()
    for space in SPACES:
        for B1, B2 in splits(space, rng):
            v = loop_verdicts(B1, B2, space)
            seen.add((space.pf, bool(v.all())))
            if any(len(support_functionals(point(x, space)).functionals) > 1 for x in B1.T):
                several.add((space.pf, bool(v.all())))
    assert seen == {(pf, ok) for pf in (1.0, 2.0, 3.0, float("inf")) for ok in (True, False)}
    assert several == {(pf, ok) for pf in (1.0, float("inf")) for ok in (True, False)}


def reference_split(T):
    """The earlier split of hilbert_rotate_approx: QR complement, its norm
    by a second SVD, the projectors by det and inverse."""
    MT = attainment_set(T)
    Q0 = MT.basis
    Qc = orthogonal_complement(Q0)
    r = _orthonormal_norm(T, Qc)
    B1, B2, P1, P2 = _decomposition_projectors(Q0, Qc, T.domain.n)
    return MT, B1, B2, P1, P2, r


def hilbert_operators():
    """Seeded l_2^n -> l_2^m with n = 2..5, m in {n-1, n, n+1}, dim M_T
    1 and 2, the rest of the spectrum in (0.05, 0.95) or 0 (s[k] = 0, or
    no s[k] at all when k = min(m, n))."""
    rng = np.random.default_rng(33)
    for n in range(2, 6):
        for m in (n - 1, n, n + 1):
            for k in (1, 2):
                if k > min(m, n):
                    continue
                for rest in ("spread", "zero"):
                    q = min(m, n)
                    s = np.zeros(q)
                    s[:k] = 1.0
                    if rest == "spread":
                        s[k:] = np.sort(rng.uniform(0.05, 0.95, q - k))[::-1]
                    U = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :q]
                    V = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :q]
                    yield f"n{n}-m{m}-k{k}-{rest}", operator(U @ np.diag(s) @ V.T, l2(n), l2(m))


HILBERT = list(hilbert_operators())


@pytest.mark.parametrize("T", [T for _, T in HILBERT], ids=[name for name, _ in HILBERT])
def test_svd_split_matches_the_qr_split(T, monkeypatch):
    eps = 0.3
    MT, B1, B2, P1, P2, r = reference_split(T)
    k, n = B1.shape[1], T.domain.n
    if k == n:
        with pytest.raises(IsIsometryError):
            hilbert_rotate_approx(T, eps)
        return
    seen = []
    real = approximants._direct_sum_shrink

    def spy(T, MT, P1, P2, eps):
        seen.append(P2)
        return real(T, MT, P1, P2, eps)

    monkeypatch.setattr(approximants, "_direct_sum_shrink", spy)
    if r <= TAU_VANISH and T.codomain.n == 1:
        # the rank-one route, which needs a codomain of dimension 2
        with pytest.raises(CodomainDimOneError):
            hilbert_rotate_approx(T, eps)
        assert not seen
        return
    report = hilbert_rotate_approx(T, eps)
    if r <= TAU_VANISH:
        assert not seen
        assert report.construction == ("rank_one" if k == 1 else "hilbert_rotate")
        return
    want = real(T, MT, P1, P2, eps)
    got_P2, = seen
    assert np.abs(got_P2 - P2).max() <= 1e-15
    assert report.construction == want.construction
    assert np.abs(report.approximant.entries - want.approximant.entries).max() <= 1e-15
    got_cert = verify_uniform_bpb(T, report.approximant, eps, resolution=256)
    want_cert = verify_uniform_bpb(T, want.approximant, eps, resolution=256)
    assert got_cert.status == want_cert.status


def test_the_operators_cover_every_route():
    routes = set()
    for _, T in HILBERT:
        _, B1, _, _, _, r = reference_split(T)
        routes.add("isometry" if B1.shape[1] == T.domain.n else
                   "shrink" if r > TAU_VANISH else f"vanish-k{B1.shape[1]}")
    assert routes == {"isometry", "shrink", "vanish-k1", "vanish-k2"}


@pytest.mark.parametrize("diag, X1, want, text", [
    ([1.0, 0.0, 0.0], [[0, 1, 0], [1, 0, 1]], NotComplementaryError,
     "attainment set is not contained in X1"),
    ([1.0, 0.0, 0.0], [[1, 0, 0], [0, 1, 1]], ZeroOnX2Error,
     "T vanishes on X2; the construction is trivial"),
    ([1.0, 0.0, 0.5], [[1, 0, 0], [0, 1, 1]], OrthogonalityError,
     "X1 is not Birkhoff-James orthogonal to X2"),
])
def test_the_public_shrink_refuses_in_the_earlier_order(diag, X1, want, text):
    # M_T = {+/-e1} and X2 = span{e3}: each split fails every check from
    # the one its error names on (containment, T nonzero on X2, then
    # orthogonality), and the first failing check decides
    T = operator(np.diag(diag), l2(3), l2(3))
    with pytest.raises(want, match=f"^{text}$"):
        direct_sum_shrink_approx(T, np.array(X1, dtype=float).T, np.eye(3)[:, 2:], 0.3)


def test_a_declared_subspace_must_hold_the_attainment_set():
    # M_T = {+/-e1} is not in span{e1 + e2}, while T has norm 0.79 < 1 on
    # the complement, so the shrink route is taken and refuses the split;
    # the SVD route needs no such check, as M_T spans its X1
    T = operator(np.diag([1.0, 0.5, 0.3]), l2(3), l2(3))
    with pytest.raises(NotComplementaryError, match="^attainment set is not contained in X1$"):
        hilbert_rotate_approx(T, 0.3, attained_subspace=np.array([[1.0], [1.0], [0.0]]))
    report = hilbert_rotate_approx(T, 0.3, attained_subspace=np.eye(3)[:, :1])
    assert report.construction.startswith("direct_sum_shrink")
