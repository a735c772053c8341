"""Differential tests of the consolidated kernels against the code they replaced.

The references below are the earlier implementations, kept verbatim in
logic: scalar golden-section search, the per-point neighbour scan of the
l_p^2 maximum search, the scalar-evaluation search of `restricted_norm`
on 2-D subspaces, the golden-section Birkhoff-James test and its strong
probe, the random extremality search of `is_extreme_contraction`, the delta
descent written inline in `verify_uniform_bpb` and `delta_for_epsilon` and
its level-by-level loop, the one-trial-at-a-time search of
`is_only_approximation`, the vertex loops of `extreme_points`, the facet
loop of `property_p_witness`, the per-face closed forms of the face
distance, the certificate's descent with its faces measured one
`distance_to` pass per face and its two masked maxima, the branch-free
delta descent that wrote its masks as -inf rows into a scratch row, and
the polyhedral certificate on the sphere grid that the exact corner
certificate replaced:
cached per-face grid rows, T's norming vertex as the last row, and the
rigidity screen over the grid.  The exact delta is never above the
sampled one, as the corners' g is never below the grid's.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from bpblab import (
    attainment_set,
    birkhoff_orthogonal,
    delta_for_epsilon,
    enumerate_extreme_linf3_l13,
    enumerate_isometries,
    extreme_points,
    is_extreme_contraction,
    is_only_approximation,
    is_smooth_point,
    l1,
    l2,
    linf,
    lp,
    op_norm,
    operator,
    point,
    property_p_witness,
    restricted_norm,
    verify_uniform_bpb,
)
from bpblab import operators
from bpblab.bpbverify import (
    DELTA_LAST,
    SWEEP_PAIRS,
    BpbCertificate,
    DeltaSearch,
    _exact_table,
    _far_from,
    _halving_search,
    _inclusion_certificate,
    _polyhedral_screen,
    _sample,
    _sample_buffers,
    delta_descent,
)
from bpblab.errors import MixedSpacesError, NormNotOneError, OutOfRangeError, UnsupportedSpaceError
from bpblab.operators import (
    LP2_SEARCH_POINTS,
    TAU_CORNER,
    OperatorMatrix,
    _attaining_faces,
    _lp2_local_maxima,
    norm_one_attainment_set,
    op_norms,
    require_norm_one,
)
from bpblab.sampling import corner_points, sphere_grid
from bpblab.spaces import (
    INF,
    TAU_EQ,
    TAU_OPT,
    Point,
    code_containment,
    face_distances,
    lp_circle,
    pnorm,
    pnorm_into,
    polyhedral_table,
    sign_codes,
)


# ---------------------------------------------------------------------------
# The replaced implementations.
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section_min(f, a, b, tol=1e-10):
    """Minimise a unimodal f on [a, b] by golden-section search.

    Returns (x, f(x)) with the bracket narrowed to width <= tol.
    """
    if a > b:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = (a + b) / 2.0
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def loop_lp2_local_maxima(T, resolution):
    """Grid + golden-section refinement, one neighbour test per grid point;
    returns the candidates, the best value and the kept grid indices."""
    p = T.domain.p
    t = np.linspace(0.0, math.pi, resolution, endpoint=False)
    h = T.image_norms(lp_circle(p, t))
    n = len(t)
    step = math.pi / n

    def val(tt):
        return -float(pnorm(T.apply(lp_circle(p, tt)), T.codomain.p))

    best_val = -np.inf
    candidates = []
    kept = []
    top = int(np.argmax(h))
    for i in range(n):
        left, right = h[(i - 1) % n], h[(i + 1) % n]
        if not (h[i] >= left and h[i] >= right):
            continue
        if (h[i] - left) + (h[i] - right) <= 1e-13 * max(1.0, h[i]) and i != top:
            continue
        a, b = t[i] - step, t[i] + step
        tt, negv = golden_section_min(val, a, b, tol=TAU_OPT)
        candidates.append((tt % math.pi, -negv))
        best_val = max(best_val, -negv)
        kept.append(i)
    return candidates, best_val, kept


def loop_restricted_norm_2d(T, B):
    """sup of ||Tv||/||v|| over span(B), B of two columns: 2048 scalar
    evaluations, then golden section at every weak local maximum."""
    b1, b2 = B[:, 0], B[:, 1]

    def val(theta):
        v = math.cos(theta) * b1 + math.sin(theta) * b2
        return -float(pnorm(T.apply(v), T.codomain.p) / pnorm(v, T.domain.p))

    t = np.linspace(0.0, math.pi, 2048, endpoint=False)
    h = np.array([-val(tt) for tt in t])
    best = -np.inf
    for i in range(len(t)):
        if h[i] >= h[(i - 1) % len(t)] and h[i] >= h[(i + 1) % len(t)]:
            _, negv = golden_section_min(
                val, t[i] - math.pi / 2048, t[i] + math.pi / 2048, tol=TAU_OPT
            )
            best = max(best, -negv)
    return best


def golden_birkhoff_orthogonal(x, y):
    """Plain Birkhoff-James orthogonality by golden section on [-r, r]."""
    nx, ny = x.norm(), y.norm()
    if ny == 0.0:
        return True
    r = 2.0 * nx / ny

    def g(lam):
        return float(pnorm(x.coords + lam * y.coords, x.space.p))

    _, gmin = golden_section_min(g, -r, r, tol=TAU_OPT)
    return gmin >= nx * (1.0 - TAU_EQ)


def probe_strong_orthogonal(x, y):
    """Strong Birkhoff-James orthogonality on a polyhedral space by probing
    ||x +/- h*y|| on both sides of 0.  The probe replaced here used a fixed
    h, so its verdict changed with the scale of y; this one takes
    h = 1e-7 ||x|| / ||y|| and compares the difference quotients with
    1e-5 ||y||, so it is invariant under scaling either argument."""
    nx, ny = x.norm(), y.norm()
    h = 1e-7 * nx / ny

    def slope(lam):
        return (float(pnorm(x.coords + lam * y.coords, x.space.p)) - nx) / abs(lam)

    return slope(h) > 1e-5 * ny and slope(-h) > 1e-5 * ny


def random_extremality(T, seed, draws=200):
    """The random perturbation search: not_extreme with a witness D when
    ||T +/- tD|| <= 1 for a drawn D and a scan of t, else no verdict."""
    rng = np.random.default_rng(seed)
    m, n = T.entries.shape
    for _ in range(draws):
        D = rng.standard_normal((m, n))
        D /= np.abs(D).sum()
        for t in (0.5, 0.1, 0.02, 0.004):
            Dt = OperatorMatrix(t * D, T.domain, T.codomain)
            np1, _ = op_norm(T + Dt)
            np2, _ = op_norm(T - Dt)
            if np1 <= 1.0 + TAU_EQ and np2 <= 1.0 + TAU_EQ:
                return ("not_extreme", t * D)
    return ("necessary_condition_only", None)


def inline_verify(T, A, eps, resolution):
    """verify_uniform_bpb with its delta descent written inline; returns
    (status, eps, delta_found, resolution, worst_distance, counterexample
    coords or None, operator_distance)."""
    _, witness = require_norm_one(T, "T")
    require_norm_one(A, "A")
    dist, _ = op_norm(T - A)
    if dist >= eps:
        return ("falsified", eps, None, resolution, math.inf, None, dist)
    MA = attainment_set(A)
    X, _, norms = _sample_buffers(T.domain, resolution, T.codomain.n)
    X[-1] = witness.coords
    mask = np.empty(len(X), dtype=bool)
    # the row-major image form, in an array of the oracle's own
    images = np.empty((len(X), T.codomain.n))
    pnorm_into(np.matmul(X, T.entries.T, out=images), T.codomain.p, 1, norms)
    dists = MA.distance_to(X)
    delta = 0.5
    while delta >= DELTA_LAST:
        np.greater(norms, 1.0 - delta, out=mask)
        worst = float(dists.max(where=mask, initial=-np.inf))
        if worst < eps:
            return ("certified", eps, delta, resolution, worst, None, dist)
        delta /= 2.0
    mask = norms > 1.0 - DELTA_LAST
    idx = int(np.argmax(np.where(mask, dists, -np.inf)))
    return ("falsified", eps, None, resolution, float(dists[idx]), X[idx].copy(), dist)


def loop_delta_descent(norms, dists, top, eps):
    """delta_descent one grid level at a time: a masked max per level."""
    delta = top / 2.0
    while delta >= DELTA_LAST * top:
        mask = norms > top - delta
        worst = float(dists.max(where=mask, initial=-np.inf))
        if worst < eps:
            return delta, worst, None
        delta /= 2.0
    # the last level failed, so some row above it lies at eps or beyond
    mask = norms > top - DELTA_LAST * top
    assert mask.any()
    idx = int(np.argmax(np.where(mask, dists, -np.inf)))
    return None, float(dists[idx]), idx


def halving_delta(g, top):
    """The first delta of top/2, top/4, ... down to top*DELTA_LAST with
    g <= top - delta, None without one."""
    delta = top / 2.0
    while delta >= DELTA_LAST * top and g > top - delta:
        delta /= 2.0
    return delta if delta >= DELTA_LAST * top else None


def sequential_only_approximation(T, eps, trials, seed, resolution):
    """is_only_approximation one trial at a time: a Gaussian draw per trial,
    a scalar halving search with op_norm, and verify_uniform_bpb per
    candidate; returns (found, counterexample, certificate)."""
    require_norm_one(T, "T")
    rng = np.random.default_rng(seed)
    m, n = T.entries.shape
    for _ in range(trials):
        D = rng.standard_normal((m, n))
        t = eps / 2.0
        A = None
        for _ in range(60):
            cand = T.entries + t * D
            v, _ = op_norm(OperatorMatrix(cand, T.domain, T.codomain))
            cand = cand / v
            d, _ = op_norm(OperatorMatrix(T.entries - cand, T.domain, T.codomain))
            if d < eps:
                A = OperatorMatrix(cand, T.domain, T.codomain)
                break
            t /= 2.0
        if A is None or np.abs(A.entries - T.entries).max() < 1e-9:
            continue
        cert = verify_uniform_bpb(T, A, eps, resolution=resolution)
        if cert.certified:
            return True, A, cert
    return False, None, None


def loop_face_distance(face, X):
    """The distance to a face with its two closed forms written per face: one
    branch per coordinate on whether the face fixes it (l_inf), the
    positive part summed over the support only (l_1)."""
    out, tmp, pos = np.zeros(len(X)), np.empty(len(X)), np.zeros(len(X))
    if face.space.p == INF:
        for i, s in enumerate(face.pattern):
            if s:
                np.abs(np.subtract(X[:, i], s, out=tmp), out=tmp)
            else:
                np.subtract(np.abs(X[:, i], out=tmp), 1.0, out=tmp)
            np.maximum(out, tmp, out=out)
        return out
    for i, s in enumerate(face.pattern):
        np.add(out, np.abs(X[:, i], out=tmp), out=out)
        if s:
            np.add(pos, np.maximum(np.multiply(X[:, i], s, out=tmp), 0.0, out=tmp), out=pos)
    np.subtract(out, pos, out=out)
    return np.add(out, np.abs(np.subtract(pos, 1.0, out=pos), out=pos), out=out)


def inline_delta_search(T, eps, resolution):
    """delta_for_epsilon's own descent: (succeeded, delta)."""
    value, _ = op_norm(T)
    M = attainment_set(T)
    X = sphere_grid(T.domain, resolution)
    norms = T.image_norms(X)
    dists = M.distance_to(X)
    delta = value / 2.0
    while delta >= DELTA_LAST * value:
        mask = norms > value - delta
        if not mask.any() or dists[mask].max() < eps:
            return True, delta
        delta /= 2.0
    return False, None


@functools.lru_cache(maxsize=64)
def grid_face_row(space, resolution, pattern):
    """The distances from the rows of sphere_grid(space, resolution) to the
    face with sign pattern `pattern`, cached: they depend on neither T nor A."""
    return face_distances(space, [pattern], sphere_grid(space, resolution))[0]


def grid_sample(T, witness, resolution):
    """The certificate's sample on the sphere grid at `resolution`, (X,
    image norms): this thread's grid buffers with `witness` as the last
    row, as `_sample` builds them off l_1^n and l_inf^n."""
    X, images, norms = _sample_buffers(T.domain, resolution, T.codomain.n)
    X[-1] = witness.coords
    pnorm_into(np.matmul(T.entries, X.T, out=images), T.codomain.pf, 0, norms)
    return X, norms


def grid_descent(M, top, eps, sample, resolution):
    """The faces branch of the certificate's descent on the grid sample of
    `grid_sample`, whose last row is op_norm's vertex: the grid rows'
    distances are the least of M's cached face rows, and the vertex lies
    0.0 from a face whose sign code holds it and 2.0 from any other.
    (delta, worst distance, counterexample Point or None)."""
    X, norms = sample
    dists = np.empty(len(X))
    grid = dists[:-1]
    np.copyto(grid, grid_face_row(M.space, resolution, M.faces[0].pattern))
    for f in M.faces[1:]:
        np.minimum(grid, grid_face_row(M.space, resolution, f.pattern), out=grid)
    codes = sign_codes(M.space, [f.pattern for f in M.faces])
    held = code_containment(M.space, codes, sign_codes(M.space, X[-1:])[0]).any()
    dists[-1] = 0.0 if held else 2.0
    delta, worst, idx = branch_free_delta_descent(norms, dists, top, eps, np.empty(len(X)))
    return delta, worst, None if idx is None else Point(X[idx], M.space)


def smooth_grid_descent(M, top, eps, sample):
    """The certificate's descent on the grid sample of `grid_sample` off
    polyhedral domains: every row measured by `distance_to`."""
    X, norms = sample
    delta, worst, idx = delta_descent(norms, M.distance_to(X), top, eps)
    return delta, worst, None if idx is None else Point(X[idx], M.space)


def grid_verify(T, A, eps, resolution):
    """verify_uniform_bpb on the sphere grid at `resolution`: the grid
    descent with face rows on polyhedral domains, `distance_to` elsewhere.
    Off polyhedral domains that is the library's own sampled certificate,
    and on l_2^n (n >= 3) the one its exact certificate replaced."""
    _, witness = require_norm_one(T, "T")
    MA = norm_one_attainment_set(A, "A")
    dist, _ = op_norm(T - A)
    if dist >= eps:
        return BpbCertificate("falsified", eps, None, resolution, math.inf, None, dist)
    sample = grid_sample(T, witness, resolution)
    if T.domain.polyhedral:
        delta, worst, z = grid_descent(MA, 1.0, eps, sample, resolution)
    else:
        delta, worst, z = smooth_grid_descent(MA, 1.0, eps, sample)
    status = "falsified" if delta is None else "certified"
    return BpbCertificate(status, eps, delta, resolution, worst, z, dist)


def grid_delta_search(T, eps, resolution):
    """delta_for_epsilon on the sphere grid, as `grid_verify`: T's norming
    vertex last on polyhedral domains, else the first row of M_T, as the
    library samples off its exact pairs."""
    M = attainment_set(T)
    if T.domain.polyhedral:
        sample = grid_sample(T, op_norm(T)[1], resolution)
        delta, _, z = grid_descent(M, M.value, eps, sample, resolution)
    else:
        sample = grid_sample(T, Point(M.representative_points()[0], T.domain), resolution)
        delta, _, z = smooth_grid_descent(M, M.value, eps, sample)
    return DeltaSearch(delta is not None, delta, z, resolution)


def same_certificate(a, b):
    """Equal fields, the basis aside, and counterexamples with equal bits."""
    za, zb = (None if c.counterexample is None else c.counterexample.coords.tobytes() for c in (a, b))
    fields = ("status", "eps", "delta_found", "resolution", "worst_distance", "operator_distance")
    return za == zb and all(getattr(a, f) == getattr(b, f) for f in fields)


def exact_pair(T):
    """Whether the library's certificates on T's pair are exact: polyhedral
    domains, and l_2^n -> l_2^m with n >= 3 (every attainment set on n = 3)."""
    return T.domain.polyhedral or (T.domain.hilbert and T.domain.n == 3)


def grid_screen(C, dom, cod, sample, eps):
    """The rigidity screen on the grid sample of `grid_sample`: ||A|| of
    every candidate, and whether its grid certificate certifies."""
    X, norms = sample
    values = op_norms(C, dom, cod)
    hit = _attaining_faces(C, values, dom, cod)
    used = np.flatnonzero(hit.any(axis=0))
    near = face_distances(dom, polyhedral_table(dom).patterns[used], X) < eps
    g = np.where(hit[:, used] @ near, -np.inf, norms).max(axis=1)
    return values, g <= 1.0 - DELTA_LAST


def _delta(result):
    """The delta of a certificate or a delta search, 0 when it failed."""
    delta = result.delta_found if isinstance(result, BpbCertificate) else result.delta
    return delta or 0.0


def assert_exact_within_sampled(exact, sampled):
    """The exact delta is at most the grid's; an exact certificate says so."""
    assert _delta(exact) <= _delta(sampled), (exact, sampled)
    if isinstance(exact, BpbCertificate):
        assert (exact.basis, sampled.basis) == ("exact", "sampled")


def loop_extreme_points(s):
    if s.p == INF:
        return [np.array(signs) for signs in itertools.product((-1.0, 1.0), repeat=s.n)]
    pts = []
    for i in range(s.n):
        for sgn in (1.0, -1.0):
            e = np.zeros(s.n)
            e[i] = sgn
            pts.append(e)
    return pts


def loop_facet_witness(A):
    """The farthest facet barycentre from M_A, first one on ties, and r0."""
    dom = A.domain
    MA = attainment_set(A)
    best = None
    for f in polyhedral_table(dom).faces:
        if f.dim != dom.n - 1:
            continue
        # a cross-polytope facet is the simplex of its n vertices q_i e_i
        x = np.array(f.pattern, dtype=float)
        if dom.p == 1:
            x /= dom.n
        d = float(MA.distance_to(x[None, :])[0])
        if best is None or d > best[1]:
            best = (x, d)
    return best[0], best[1] / 2.0


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


def _unit(M, dom, cod):
    T = OperatorMatrix(M, dom, cod)
    v, _ = op_norm(T)
    return OperatorMatrix(M / v, dom, cod)


def lp2_operators(count, seed):
    """Operators on 2-D strictly convex domains (and the Euclidean plane
    into non-Euclidean codomains), Gaussian or rounded to small integers,
    whose flat stretches exercise the plateau rule; one zero operator."""
    rng = np.random.default_rng(seed)
    domains = [lp(3, 2), lp(4, 2), lp("4/3", 2), lp("3/2", 2), lp("5/2", 2), l2(2)]
    codomains = [(INF, 2), (1, 2), (3, 2), (2, 3), (INF, 3), (4, 1), ("4/3", 3)]
    ops = [OperatorMatrix(np.zeros((2, 2)), lp(3, 2), lp(3, 2))]
    while len(ops) < count:
        dom = domains[len(ops) % len(domains)]
        q, m = codomains[(len(ops) // len(domains)) % len(codomains)]
        cod = lp(q, m)
        if dom.hilbert and cod.hilbert:
            cod = linf(m)
        M = rng.standard_normal((m, 2))
        if len(ops) % 3 == 0:
            M = np.round(2.0 * M)
        ops.append(OperatorMatrix(M, dom, cod))
    return ops


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def _zoom_centres(monkeypatch):
    """Record the bracket centres of every zoom_max call the operators
    module makes."""
    calls = []

    def spy(f, centre, half, tol):
        calls.append(np.array(centre))
        return zoom_max(f, centre, half, tol)

    zoom_max = operators.zoom_max
    monkeypatch.setattr(operators, "zoom_max", spy)
    # a search memoised by an earlier test would make no zoom call
    operators._norm_analysis.cache_clear()
    return calls


def assert_refines(got, want):
    """got within TAU_EQ (relative) of the golden-section value want, and
    never below it by more than rounding."""
    assert abs(got - want) <= TAU_EQ * max(1.0, abs(want)), (got, want)
    assert got >= want - 1e-15 * max(1.0, abs(want)), (got, want)


def test_vectorised_scan_gives_the_loop_candidates(monkeypatch):
    # the kept grid indices are exactly the loop's neighbour test, one
    # zoom_max call refines them all, and each refined value is the golden
    # value up to rounding: the evaluation order differs, the bracket not
    calls = _zoom_centres(monkeypatch)
    ops = lp2_operators(520, seed=3)
    resolution = LP2_SEARCH_POINTS
    for T in ops:
        want, want_best, kept = loop_lp2_local_maxima(T, resolution)
        calls.clear()
        got, best = _lp2_local_maxima(T)
        t = np.linspace(0.0, math.pi, resolution, endpoint=False)
        assert len(calls) == 1 and np.array_equal(calls[0], t[kept]), (T, resolution)
        assert len(got) == len(want)
        h = T.image_norms(lp_circle(T.domain.p, t))
        step = math.pi / resolution
        for (tt, v), (_, w), i in zip(got, want, kept):
            assert_refines(v, w)
            assert v >= h[i] - 1e-15 * max(1.0, h[i])
            # inside its bracket t[i] +/- step, read modulo pi
            assert abs((tt - t[i] + math.pi / 2) % math.pi - math.pi / 2) <= step * (1 + 1e-9)
        assert best == max(v for _, v in got)
        assert_refines(best, want_best)


def test_restricted_norm_matches_scalar_search():
    rng = np.random.default_rng(11)
    pairs = [
        (lp(3, 3), lp(4, 2)),
        (linf(3), l1(3)),
        (l1(3), lp(3, 3)),
        (lp("3/2", 3), linf(2)),
        (lp(4, 2), lp(3, 3)),
        (l2(3), l1(2)),
    ]
    for k in range(30):
        dom, cod = pairs[k % len(pairs)]
        M = rng.standard_normal((cod.n, dom.n))
        if k % 4 == 0:
            M = np.round(M)
            M[0, 0] = 1.0
        T = OperatorMatrix(M, dom, cod)
        B = rng.standard_normal((dom.n, 2))
        want = loop_restricted_norm_2d(T, B)
        got = restricted_norm(T, B)
        assert_refines(got, want)


def _non_smooth_pairs(rng):
    """Points with several supporting functionals and directions, some with
    zeroed coordinates so that J(x) y ends at 0: vertices and edges of the
    cube and l_1 points with zero coordinates."""
    pairs = []
    for k in range(120):
        s = [linf(2), linf(3), l1(2), l1(3)][k % 4]
        c = rng.uniform(0.5, 2.0) * np.sign(rng.standard_normal(s.n))
        if s.p == INF and k % 8 == 1:
            c[rng.integers(s.n)] *= rng.uniform(0.1, 0.8)  # an edge of the cube
        if s.p == 1:
            c = c * rng.uniform(0.2, 1.0, s.n)
            c[rng.permutation(s.n)[: 1 + k % (s.n - 1)]] = 0.0  # zero coordinates
        y = rng.standard_normal(s.n)
        if k % 3 == 0:
            y[rng.integers(s.n)] = 0.0
        pairs.append((point(c, s), point(y, s)))
    pairs.append((point([1.0, 0.0], l1(2)), point([1.0, 1.0], l1(2))))  # lo = 0
    pairs.append((point([1.0, 1.0], linf(2)), point([1.0, 0.0], linf(2))))  # lo = 0
    return pairs


def test_birkhoff_orthogonal_matches_golden_section():
    rng = np.random.default_rng(17)
    spaces = [lp(3, 2), lp("4/3", 3), l2(3), l1(3), linf(2), lp(5, 4)]
    verdicts = set()
    for k in range(300):
        s = spaces[k % len(spaces)]
        x = point(rng.standard_normal(s.n), s)
        y = point(rng.standard_normal(s.n), s)
        if k % 5 == 0:
            # on the boundary: a direction J(x) annihilates, when x is smooth
            f = np.sign(x.coords) * np.abs(x.coords) ** (s.pf - 1.0) if s.strictly_convex else None
            if f is not None:
                c = y.coords - (f @ y.coords) / (f @ x.coords) * x.coords
                y = point(c, s)
        want = golden_birkhoff_orthogonal(x, y)
        assert birkhoff_orthogonal(x, y) == want, (x, y)
        verdicts.add(want)
    assert verdicts == {True, False}
    verdicts = set()
    for x, y in _non_smooth_pairs(np.random.default_rng(19)):
        assert not is_smooth_point(x)
        want = golden_birkhoff_orthogonal(x, y)
        assert birkhoff_orthogonal(x, y) == want, (x, y)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_strong_orthogonality_matches_the_scaled_probe():
    verdicts = set()
    for x, y in _non_smooth_pairs(np.random.default_rng(23)):
        want = probe_strong_orthogonal(x, y)
        for a, b in ((1.0, 1.0), (1.0, 1e-3), (1.0, 1e-6), (1.0, 1e3), (1e-4, 1.0), (50.0, 1e-6)):
            xs, ys = point(a * x.coords, x.space), point(b * y.coords, y.space)
            assert probe_strong_orthogonal(xs, ys) == want, (x, y, a, b)
            assert birkhoff_orthogonal(xs, ys, strong=True) == want, (x, y, a, b)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_closed_form_and_golden_section_differ_only_in_the_second_order_band():
    """On l_2^2 with x = (1, 0) and y = (s, 1), J(x) y = s and the minimum of
    ||x + lambda*y|| is 1/||y||.  The closed form says x _|_B y iff
    s <= TAU_EQ ||y||; golden section accepts a minimum down to
    1 - TAU_EQ, so it also says yes up to s = sqrt(2 TAU_EQ) ||y||, and
    the two differ exactly in that band (1% slack for the search)."""
    band = []
    for sv in np.logspace(-12, -2, 81):
        x, y = point([1.0, 0.0], l2(2)), point([sv, 1.0], l2(2))
        ny = y.norm()
        closed, golden = birkhoff_orthogonal(x, y), golden_birkhoff_orthogonal(x, y)
        if TAU_EQ * ny < sv <= 1.01 * math.sqrt(2.0 * TAU_EQ) * ny:
            assert not closed
            if golden:
                band.append(sv)
        else:
            assert closed == golden, sv
    assert band and min(band) < 1e-8 and max(band) > 4e-5
    x, y = point([1.0, 0.0], l2(2)), point([3e-5, 1.0], l2(2))
    assert golden_birkhoff_orthogonal(x, y) and not birkhoff_orthogonal(x, y)


def test_random_extremality_finds_no_witness_where_the_rank_test_does_not_apply():
    """Every D with ||T +/- D|| <= 1 lies in the span of the minimal face of
    T, a proper subspace, so the random search never finds one on pairs
    outside the rank test, and its status agrees with the verdict without
    it.  The draws are sized so the test runs in about 2 s."""
    rng = np.random.default_rng(31)
    c, sn = math.cos(0.4), math.sin(0.4)
    cases = [(OperatorMatrix(np.array([[c, -sn], [sn, c]]), l2(2), l2(2)), 200)]  # extreme
    for dom, cod, draws in (
        (l2(2), l2(3), 200), (l2(3), l2(2), 200), (l2(3), l2(3), 200),
        (l1(2), lp(3, 2), 200), (linf(2), lp(3, 3), 200), (linf(3), l2(2), 200),
        (lp(3, 2), lp(4, 2), 20), (lp(3, 2), linf(2), 20),
    ):
        for _ in range(2):
            cases.append((_unit(rng.standard_normal((cod.n, dom.n)), dom, cod), draws))
    for seed, (T, draws) in enumerate(cases):
        verdict = is_extreme_contraction(T)
        status, witness = random_extremality(T, seed, draws)
        assert witness is None, (T, witness)
        assert (verdict.status, verdict.method, verdict.witness) == (status, "none", None)


def _polyhedral_triples():
    rng = np.random.default_rng(5)
    census = enumerate_extreme_linf3_l13()
    triples = []
    for T in census[::6]:
        A = _unit(T.entries + 0.05 * rng.standard_normal((3, 3)), T.domain, T.codomain)
        triples.append((T, A))
    for dom, cod in [(linf(2), linf(2)), (l1(3), l1(3)), (linf(3), l1(2)), (l1(2), linf(3))]:
        for _ in range(6):
            M = rng.standard_normal((cod.n, dom.n))
            if rng.random() < 0.5:
                M = np.round(M)
                M[0, 0] = 2.0
            T = _unit(M, dom, cod)
            A = _unit(T.entries + 0.1 * rng.standard_normal(M.shape), dom, cod)
            triples.append((T, A))
    return triples


def _hilbert_triples():
    rng = np.random.default_rng(9)
    triples = []
    for n in (2, 3, 2, 3, 3):
        s = l2(n)
        for _ in range(4):
            T = _unit(rng.standard_normal((n, n)), s, s)
            A = _unit(T.entries + 0.1 * rng.standard_normal((n, n)), s, s)
            triples.append((T, A))
    return triples


@pytest.mark.parametrize("triples", [_polyhedral_triples, _hilbert_triples], ids=["polyhedral", "hilbert"])
def test_delta_descent_gives_the_inline_certificates(triples):
    statuses = set()
    for k, (T, A) in enumerate(triples()):
        for eps in (0.15, 0.4, 1.2):
            resolution = (256, 1024)[k % 2]
            want = inline_verify(T, A, eps, resolution)
            cert = grid_verify(T, A, eps, resolution)
            lib = verify_uniform_bpb(T, A, eps, resolution=resolution)
            if exact_pair(T):
                assert_exact_within_sampled(lib, cert)
            else:
                assert lib.basis == "sampled" and same_certificate(lib, cert), (T, A, eps)
            z = None if cert.counterexample is None else cert.counterexample.coords
            got = (cert.status, cert.eps, cert.delta_found, cert.resolution,
                   cert.worst_distance, z, cert.operator_distance)
            assert got[:5] == want[:5] and got[6] == want[6], (T, A, eps)
            if want[5] is None:
                assert z is None
            else:
                assert np.array_equal(z, want[5])
            statuses.add(cert.status)
            # a falsified sample names a row at least eps from M_A
            if cert.status == "falsified" and cert.operator_distance < eps:
                assert cert.worst_distance >= eps, (T, A, eps)
    assert statuses == {"certified", "falsified"}


def test_delta_for_epsilon_keeps_its_delta_and_takes_the_floor_counterexample():
    cases = [(T, eps) for T, _ in _polyhedral_triples() + _hilbert_triples() for eps in (0.05, 0.3)]
    # a second direction nearly attaining, far from M_T: no delta passes
    for s in (l2(2), l2(3), linf(2), l1(2)):
        cases.append((operator(np.diag([1.0] + [1.0 - 1e-7] * (s.n - 1)), s, s), 0.3))
    outcomes = set()
    for T, eps in cases:
        ok, delta = inline_delta_search(T, eps, 1024)
        res = grid_delta_search(T, eps, 1024)
        assert (res.succeeded, res.delta) == (ok, delta)
        outcomes.add(ok)
        M = attainment_set(T)
        exact = delta_for_epsilon(T, eps, resolution=1024)
        if exact_pair(T):
            assert_exact_within_sampled(exact, res)
        else:
            z = [None if r.counterexample is None else r.counterexample.coords.tobytes() for r in (exact, res)]
            assert (exact.succeeded, exact.delta, z[0]) == (res.succeeded, res.delta, z[1])
        # the counterexample is the farthest sample with
        # ||Tz|| > ||T||(1 - DELTA_LAST), and it lies at least eps from M_T
        floor = M.value - DELTA_LAST * M.value
        if not exact.succeeded:
            z = exact.counterexample.coords
            assert float(T.image_norms(z[None, :])[0]) > floor
            assert float(M.distance_to(z[None, :])[0]) >= eps - TAU_CORNER
        if ok:
            continue
        X = sphere_grid(T.domain, 1024)
        near = T.image_norms(X) > floor
        z = res.counterexample.coords
        assert float(T.image_norms(z[None, :])[0]) > floor
        assert float(M.distance_to(z[None, :])[0]) == M.distance_to(X[near]).max() >= eps
    assert outcomes == {True, False}


@pytest.mark.parametrize("space", [linf(1), linf(2), linf(3), linf(4), l1(1), l1(2), l1(3), l1(5)])
def test_extreme_points_are_the_loop_vertices(space):
    got = {tuple(p.coords) for p in extreme_points(space)}
    want = {tuple(v) for v in loop_extreme_points(space)}
    assert got == want and len(extreme_points(space)) == len(want)


def test_facet_witness_matches_the_facet_loop():
    rng = np.random.default_rng(21)
    ops = enumerate_extreme_linf3_l13()[::9]
    for dom, cod in [(linf(2), linf(2)), (l1(3), l1(3)), (linf(3), l1(2)), (l1(2), linf(2))]:
        for _ in range(5):
            M = rng.standard_normal((cod.n, dom.n))
            if rng.random() < 0.5:
                M = np.round(M)
                M[0, 0] = 2.0
            ops.append(_unit(M, dom, cod))
    for A in ops:
        x, r0 = loop_facet_witness(A)
        w = property_p_witness(A)
        assert np.array_equal(w.x_A.coords, x) and w.r0 == r0, A


def _descent_cases():
    """(norms, dists, top, eps): random rows plus the edges of the closed
    form: no row at or beyond eps, every row beyond it, infinite distances
    (an empty attainment basis), every level failing only on rows between
    the last level and 1e-6 below top, and rows exactly at eps or exactly
    on a grid level."""
    rng = np.random.default_rng(41)
    cases = []
    for k in range(200):
        rows = int(rng.integers(1, 300))
        top = (1.0, 0.5, 3.0)[k % 3]
        norms = top * (1.0 - rng.uniform(0.0, 1.0, rows) ** rng.uniform(1.0, 40.0))
        dists = rng.uniform(0.0, 1.0, rows) * rng.uniform(0.1, 2.0)
        if k % 5 == 0:
            norms[rng.integers(rows)] = top
        cases.append((norms, dists, top, float(rng.uniform(0.05, 1.0))))
    norms = np.linspace(0.0, 1.0, 50)
    cases.append((norms, np.full(50, 0.1), 1.0, 0.3))            # no row at or beyond eps
    cases.append((norms, np.full(50, 0.5), 1.0, 0.3))            # every row beyond eps
    cases.append((norms, np.full(50, np.inf), 1.0, 0.3))         # empty basis: infinite distances
    # every level fails on rows in the band (1 - DELTA_LAST, 1 - 1e-6],
    # and they name the counterexample
    near = np.full(50, 1.0 - 1.5e-6)
    cases.append((near, np.full(50, 0.5), 1.0, 0.3))
    cases.append((norms, np.where(norms > 0.9, 0.3, 0.0), 1.0, 0.3))  # rows exactly at eps
    levels = 1.0 - 0.5 ** np.arange(1, 25)                      # norms exactly top - delta
    cases.append((levels, np.linspace(0.0, 0.6, 24), 1.0, 0.3))
    cases.append((np.array([0.75]), np.array([0.2]), 1.0, 0.2))  # one row, at eps
    return cases


def test_closed_form_descent_matches_the_level_loop():
    outcomes = set()
    for norms, dists, top, eps in _descent_cases():
        want = loop_delta_descent(norms, dists, top, eps)
        got = delta_descent(norms, dists, top, eps)
        assert got == want, (norms, dists, top, eps)
        outcomes.add((want[0] is None, want[2] is None))
    assert outcomes == {(False, True), (True, False)}


def _rigidity_cases():
    """(T, eps, trials, seed, resolution): every isometry of l_inf^2, l_1^2,
    l_inf^3 and l_1^3 at eps 0.5; seeded norm-one operators on l_inf^2/3,
    l_1^2/3, l_2^2/3 and l_3^2 at eps 0.05, 0.3 and 0.5; 70 trials on an
    isometry, which cross a block of 64; and integer or sparse norm-one
    operators on l_inf^2/3 and l_1^2/3 domains (some into other codomains)
    at eps 0.05, 0.3 and 1.0, whose attainment sets hold many faces."""
    cases = []
    for s in (linf(2), l1(2), linf(3), l1(3)):
        for T in enumerate_isometries(s):
            cases.append((T, 0.5, 10, len(cases), 256))
    rng = np.random.default_rng(13)
    for s in (linf(2), linf(3), l1(2), l1(3), l2(2), l2(3), lp(3, 2)):
        for j in range(2):
            M = rng.standard_normal((s.n, s.n))
            if j == 0:
                M = np.round(M)
                M[0, 0] = 2.0
            T = _unit(M, s, s)
            for eps in (0.05, 0.3, 0.5):
                cases.append((T, eps, 6, len(cases), (256, 512)[j]))
    cases.append((enumerate_isometries(l1(3))[5], 0.5, 70, 99, 256))
    rng = np.random.default_rng(23)
    pairs = [(linf(2), linf(2)), (linf(3), linf(3)), (l1(2), l1(2)), (l1(3), l1(3)),
             (linf(3), l1(2)), (l1(2), linf(3)), (linf(2), lp(3, 2))]
    for dom, cod in pairs:
        for j in range(3):
            if j < 2:
                M = rng.integers(-1, 2, size=(cod.n, dom.n)).astype(float)
            else:
                M = rng.standard_normal((cod.n, dom.n)) * (rng.random((cod.n, dom.n)) < 0.5)
            M[0, 0] = 1.0 if j else 2.0
            T = _unit(M, dom, cod)
            for eps in (0.05, 0.3, 1.0):
                cases.append((T, eps, 8, len(cases), (256, 512)[j % 2]))
    return cases


def _outcome(search, *args):
    """search(*args), or the type and message of the NormNotOneError it
    raised."""
    try:
        return search(*args)
    except NormNotOneError as exc:
        return (type(exc), str(exc))


def _compare_with_the_sequential_loop():
    """Runs both searches on every rigidity case and asserts the same
    outcome byte for byte; returns the found flags seen and the number of
    cases that raised."""
    found, raised = set(), 0
    for T, eps, trials, seed, resolution in _rigidity_cases():
        want = _outcome(sequential_only_approximation, T, eps, trials, seed, resolution)
        res = _outcome(lambda: is_only_approximation(T, eps, trials=trials, seed=seed, resolution=resolution))
        if want[0] is NormNotOneError:
            assert res == want, (T, eps)
            raised += 1
            continue
        want_found, want_A, want_cert = want
        assert (res.found, res.trials) == (want_found, trials), (T, eps)
        found.add(res.found)
        if not want_found:
            assert res.counterexample is None and res.certificate is None
            continue
        assert res.counterexample.entries.tobytes() == want_A.entries.tobytes(), (T, eps)
        got, cert = res.certificate, want_cert
        assert (got.status, got.eps, got.delta_found, got.resolution) == (
            cert.status, cert.eps, cert.delta_found, cert.resolution)
        assert repr(got.worst_distance) == repr(cert.worst_distance)
        assert repr(got.operator_distance) == repr(cert.operator_distance)
        assert got.counterexample is None and cert.counterexample is None
    return found, raised


def test_lockstep_search_matches_the_sequential_loop():
    assert _compare_with_the_sequential_loop() == ({True, False}, 0)


def test_lockstep_search_raises_at_the_trial_the_sequential_loop_does(monkeypatch):
    # with no tolerance every candidate whose norm misses 1 by an ulp is
    # refused, so both searches must raise at the same trial, unless an
    # earlier trial certified
    monkeypatch.setattr(operators, "TAU_NORM_ONE", 0.0)
    found, raised = _compare_with_the_sequential_loop()
    assert found == {True, False} and raised > 0


def test_polyhedral_screen_decides_each_candidate_as_its_certificate():
    # the search builds a certificate only where the screen passes, so a
    # screen that passed too much would go unseen by the comparison above;
    # the grid screen decides as the grid certificate, and passes every
    # candidate that the corner screen passes
    outcomes = set()
    for T, eps, trials, seed, resolution in _rigidity_cases():
        if not T.domain.polyhedral:
            continue
        D = np.random.default_rng(seed).standard_normal((trials, *T.entries.shape))
        cands, dists, found = _halving_search(T, D, eps)
        witness = require_norm_one(T)[1]
        sample = _sample(T, witness, resolution, _exact_table(T, eps))
        values, certifies = _polyhedral_screen(cands[found], T.domain, T.codomain, sample)
        grid = grid_sample(T, witness, resolution)
        grid_values, grid_certifies = grid_screen(cands[found], T.domain, T.codomain, grid, eps)
        assert np.array_equal(values, grid_values)
        for C, d, value, passes, grid_passes in zip(cands[found], dists[found], values, certifies,
                                                    grid_certifies):
            A = OperatorMatrix(C, T.domain, T.codomain)
            MA = norm_one_attainment_set(A, "A")
            assert value == MA.value
            cert = _inclusion_certificate(MA, float(d), eps, resolution, sample)
            assert passes == cert.certified, (T, eps)
            assert grid_passes == (grid_descent(MA, 1.0, eps, grid, resolution)[0] is not None)
            assert grid_passes or not passes, (T, eps)
            outcomes.add(passes)
    assert outcomes == {True, False}


def test_screen_verdict_is_the_halving_rule():
    # the grid runs down to the least 2^-k >= 1e-6, and g passes some level
    # iff it passes the last one; checked at every level, one ulp to either
    # side, and at -inf
    levels, delta = [], 0.5
    while delta >= 1e-6:
        levels.append(1.0 - delta)
        delta /= 2.0
    assert DELTA_LAST == 1.0 - levels[-1] == 2.0 ** -19
    g = np.array(levels + [-np.inf, 0.0, 1.0, 2.0])
    g = np.concatenate([g, np.nextafter(g, np.inf), np.nextafter(g, -np.inf)])
    g = np.concatenate([g, np.random.default_rng(41).uniform(0.99, 1.0, 2000)])
    got = g <= 1.0 - DELTA_LAST
    want = [halving_delta(float(x), 1.0) is not None for x in g]
    assert got.tolist() == want and len(set(want)) == 2


def test_faces_sets_share_the_table_faces():
    # every faces AttainmentSet holds the cached Face objects of its table
    for dom, M in ((linf(3), [[1.0, 0.0, 0.0]]), (l1(3), [[1.0, 1.0, 0.5]]),
                   (linf(2), [[1.0, 0.0], [1.0, 0.0]])):
        MA = attainment_set(operator(M, dom, linf(len(M))))
        cached = polyhedral_table(dom).faces
        assert MA.faces and all(any(f is c for c in cached) for f in MA.faces)


def _face_samples(s):
    """Sphere grids at 256 and 16384, the corner sets at eps 0.05, 0.3 and
    1, and off-sphere points: Gaussian rows, small integers and rows with
    exact zeros."""
    rng = np.random.default_rng(31)
    G = rng.standard_normal((400, s.n)) * rng.uniform(0.0, 3.0, (400, 1))
    G[::3] = np.round(G[::3])
    G[1::5, 0] = 0.0
    corners = np.concatenate([corner_points(s, eps) for eps in (0.05, 0.3, 1.0)])
    return [sphere_grid(s, 256), sphere_grid(s, 16384), corners, G]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("s", [linf(2), linf(3), l1(2), l1(3)])
def test_face_distances_match_the_per_face_loop(s):
    patterns = polyhedral_table(s).patterns
    for X in _face_samples(s):
        D = face_distances(s, patterns, X)
        for f, row in zip(polyhedral_table(s).faces, D):
            want = _bits(loop_face_distance(f, X))
            assert np.array_equal(_bits(row), want), (s, f)
            # one face at a time, as the grid oracle's face rows call it
            assert np.array_equal(_bits(face_distances(s, [f.pattern], X)[0]), want), (s, f)
    # rows of another dimension: the per-face loop raised IndexError or
    # ignored the extra coordinates
    for cols in (s.n - 1, s.n + 1):
        with pytest.raises(MixedSpacesError):
            face_distances(s, patterns[:1], np.ones((2, cols)))


def test_every_attaining_face_gives_the_attainment_distance():
    # the rigidity screen takes the minimum over all faces whose barycentre
    # attains; attainment_set keeps the maximal ones only
    rng = np.random.default_rng(37)
    pairs = [(linf(2), linf(2)), (linf(3), linf(3)), (l1(2), l1(2)), (l1(3), l1(3)),
             (linf(3), l1(2)), (l1(2), linf(3))]
    sizes = set()
    for dom, cod in pairs:
        table = polyhedral_table(dom)
        samples = _face_samples(dom)
        for k in range(12):
            if k % 2:
                M = rng.integers(-1, 2, size=(cod.n, dom.n)).astype(float)
            else:
                M = rng.standard_normal((cod.n, dom.n)) * (rng.random((cod.n, dom.n)) < 0.4)
            if not M.any():
                M[0, 0] = 1.0
            A = _unit(M, dom, cod)
            MA = attainment_set(A)
            hit = A.image_norms(table.barycentres) >= MA.value * (1.0 - TAU_EQ)
            sizes.add(int(hit.sum()) > len(MA.faces))
            for X in samples[:3]:
                got = face_distances(dom, table.patterns[hit], X).min(axis=0)
                assert np.array_equal(_bits(got), _bits(MA.distance_to(X))), (A, len(X))
    assert sizes == {True, False}


# ---------------------------------------------------------------------------
# The certificate's descent: the grid oracle's cached face rows, the exact
# corner certificate against them, and the branch-free reductions.
# ---------------------------------------------------------------------------


def masked_delta_descent(norms, dists, top, eps, mask):
    """delta_descent with its two masked maxima, `max(where=)`."""
    np.less(dists, eps, out=mask)
    g = float(norms.max(where=np.invert(mask, out=mask), initial=-np.inf))
    floor = top - top * DELTA_LAST
    if g > floor:
        np.greater(norms, floor, out=mask)
        idx = int(np.argmax(np.where(mask, dists, -np.inf)))
        return None, float(dists[idx]), idx
    delta = top / 2.0
    while g > top - delta:
        delta /= 2.0
    np.greater(norms, top - delta, out=mask)
    return delta, float(dists.max(where=mask, initial=-np.inf)), None


def keep_where_at_least(values, keys, bound, out):
    """out[i] = values[i] where keys[i] >= bound, else -inf, for values
    without NaN, in three branch-free passes that allocate nothing.

    (keys - bound) * inf is +inf where keys > bound, -inf where
    keys < bound and NaN where they are equal (a difference of two floats
    is 0 only then), and fmin, which passes over a NaN, takes `values`
    on the NaN and +inf rows.
    """
    np.subtract(keys, bound, out=out)
    with np.errstate(invalid="ignore"):
        np.multiply(out, np.inf, out=out)
    return np.fmin(out, values, out=out)


def branch_free_delta_descent(norms, dists, top, eps, scratch):
    """delta_descent with its masks written as -inf rows by
    `keep_where_at_least` into `scratch`, one float per row, which is
    overwritten; norms > level is norms >= the next float above level."""
    g = float(keep_where_at_least(norms, dists, eps, scratch).max())
    floor = top - top * DELTA_LAST
    if g > floor:
        above = keep_where_at_least(dists, norms, np.nextafter(floor, np.inf), scratch)
        idx = int(np.argmax(above))
        return None, float(dists[idx]), idx
    delta = top / 2.0
    while g > top - delta:
        delta /= 2.0
    above = keep_where_at_least(dists, norms, np.nextafter(top - delta, np.inf), scratch)
    return delta, float(above.max()), None


def distance_to_descent(M, top, eps, sample):
    """_descent with every row measured by `AttainmentSet.distance_to`, one
    pass over the whole sample per face, and the masked-max descent:
    (delta, worst distance, counterexample coords or None)."""
    X, norms = sample
    dists = M.distance_to(X)
    delta, worst, idx = masked_delta_descent(norms, dists, top, eps,
                                             np.empty(len(X), dtype=bool))
    return delta, worst, None if idx is None else X[idx].copy()


def _one_per_row(n):
    """Every n x n matrix with one +/-1 per row that is not a signed
    permutation."""
    for cols in itertools.product(range(n), repeat=n):
        if len(set(cols)) < n:
            for signs in itertools.product((1.0, -1.0), repeat=n):
                M = np.zeros((n, n))
                M[np.arange(n), cols] = signs
                yield M


def _family(name):
    """Every member of a polyhedral sweep family, as operators."""
    pair = SWEEP_PAIRS[name]
    if name == "linf3-l13":
        return enumerate_extreme_linf3_l13()
    n = pair.domain.n
    mats = _one_per_row(n) if pair.domain.p == INF else (M.T for M in _one_per_row(n))
    return [OperatorMatrix(M, pair.domain, pair.codomain) for M in mats]


POLYHEDRAL_FAMILIES = ("linf2", "linf3", "l12", "l13", "linf3-l13")


def test_the_families_are_the_sweep_families():
    sizes = {name: len(_family(name)) for name in POLYHEDRAL_FAMILIES}
    assert sizes == {"linf2": 8, "linf3": 168, "l12": 8, "l13": 168, "linf3-l13": 90}
    for name in POLYHEDRAL_FAMILIES:
        drawn = SWEEP_PAIRS[name].draw(1000, np.random.default_rng(0))
        assert {M.tobytes() for M in drawn} == {T.entries.tobytes() for T in _family(name)}


def _assert_same_descent(got, want):
    """(delta, worst, counterexample) of the two descents, exactly."""
    assert got[0] == want[0] and got[1] == want[1]
    if want[2] is None:
        assert got[2] is None
    else:
        assert np.array_equal(got[2].coords, want[2])


def _check_certificate(name, T, eps, resolution):
    """The grid certificate of T and its family constructor's A against the
    per-face descent on the same sample, field by field, and the exact
    certificate against the grid's; the exact status."""
    A = SWEEP_PAIRS[name].construct(T, eps).approximant
    cert = grid_verify(T, A, eps, resolution)
    MA = norm_one_attainment_set(A, "A")
    assert MA.faces
    want = distance_to_descent(MA, 1.0, eps, grid_sample(T, require_norm_one(T)[1], resolution))
    assert cert.status == ("certified" if want[0] is not None else "falsified")
    _assert_same_descent((cert.delta_found, cert.worst_distance, cert.counterexample), want)
    exact = verify_uniform_bpb(T, A, eps, resolution=resolution)
    assert (exact.eps, exact.resolution) == (eps, resolution)
    assert exact.operator_distance == op_norm(T - A)[0]
    assert_exact_within_sampled(exact, cert)
    return exact.status


def _check_delta_search(T, eps, resolution):
    """The grid delta search against the per-face descent, and the exact
    one against it; whether the grid search succeeded."""
    M = attainment_set(T)
    want = distance_to_descent(M, M.value, eps, grid_sample(T, op_norm(T)[1], resolution))
    got = grid_delta_search(T, eps, resolution)
    assert got.succeeded == (want[0] is not None)
    _assert_same_descent((got.delta, None, got.counterexample), (want[0], None, want[2]))
    exact = delta_for_epsilon(T, eps, resolution=resolution)
    assert exact.resolution == resolution
    assert_exact_within_sampled(exact, got)
    return got.succeeded


@pytest.mark.parametrize("name", POLYHEDRAL_FAMILIES)
def test_cached_face_rows_give_every_family_certificate(name):
    statuses = set()
    for T in _family(name):
        for eps in (0.05, 0.3):
            statuses.add(_check_certificate(name, T, eps, 1024))
    assert statuses == {"certified"}


@pytest.mark.parametrize("name", POLYHEDRAL_FAMILIES)
def test_cached_face_rows_at_the_coarse_and_fine_grids(name):
    family = _family(name)
    rng = np.random.default_rng(53)
    outcomes = set()
    for i in rng.choice(len(family), size=min(10, len(family)), replace=False):
        for resolution in (256, 16384):
            for eps in (0.05, 0.3):
                _check_certificate(name, family[i], eps, resolution)
                outcomes.add(_check_delta_search(family[i], eps, resolution))
    assert True in outcomes


def test_face_descent_keeps_the_falsified_counterexample():
    # a second vertex nearly attains, far from M_T: every level fails and
    # the counterexample is the farthest row above the last level
    outcomes = set()
    for s in (linf(2), linf(3), l1(2), l1(3)):
        for second in (1.0 - 1e-7, 0.5):
            T = operator(np.diag([1.0] + [second] * (s.n - 1)), s, s)
            for eps in (0.05, 0.3):
                outcomes.add(_check_delta_search(T, eps, 1024))
    assert outcomes == {True, False}


def _sorted_descent_cases():
    """The cases of `_descent_cases` with their rows sorted by norm, and by
    norm against distance, so that masks come in long runs."""
    cases = []
    for norms, dists, top, eps in _descent_cases():
        order = np.argsort(norms, kind="stable")
        cases.append((norms[order], dists[order], top, eps))
        cases.append((norms[order], np.sort(dists)[::-1].copy(), top, eps))
    return cases


def _floor_cases():
    """Rows exactly at the last level, farther from the set than the row
    above it: the counterexample must skip them."""
    cases = []
    for top in (1.0, 0.5, 3.0):
        floor = top - top * DELTA_LAST
        cases.append((np.array([top, floor, floor]), np.array([0.3, 0.9, 0.1]), top, 0.2))
        cases.append((np.array([floor, top, floor]), np.array([0.9, 0.2, 0.9]), top, 0.2))
    return cases


def test_branch_free_descent_matches_the_masked_maxima():
    # the library's masked reduction against the replaced branch-free
    # kernel and the explicit mask, bit for bit
    outcomes = set()
    for norms, dists, top, eps in _descent_cases() + _sorted_descent_cases() + _floor_cases():
        want = branch_free_delta_descent(norms, dists, top, eps, np.empty(len(norms)))
        assert masked_delta_descent(norms, dists, top, eps, np.empty(len(norms), dtype=bool)) == want
        got = delta_descent(norms, dists, top, eps)
        assert np.array(got[:2], dtype=float).tobytes() == np.array(want[:2], dtype=float).tobytes()
        assert got == want, (norms, dists, top, eps)
        outcomes.add((want[0] is None, top))
    assert outcomes == {(falsified, top) for falsified in (False, True) for top in (1.0, 0.5, 3.0)}


# ---------------------------------------------------------------------------
# The exact corner certificate.
# ---------------------------------------------------------------------------


def corner_g(T, M, eps):
    """g, the largest ||Tz|| over the corners read as at least eps from M;
    -inf without one."""
    Z = corner_points(T.domain, eps)
    far = M.distance_to(Z) >= _far_from(eps)
    return float(T.image_norms(Z)[far].max(initial=-np.inf))


@pytest.mark.parametrize("s", [linf(1), linf(2), linf(3), linf(4), l1(1), l1(2), l1(3)], ids=repr)
def test_corner_sets_lie_on_the_sphere_and_hold_the_vertices(s):
    vertices = {tuple(v) for v in polyhedral_table(s).vertices.tolist()}
    for eps in (1e-12, 0.05, 1.0 / 3.0, 1.0, 1.5, 2.0):
        Z = corner_points(s, eps)
        assert corner_points(s, eps) is Z and not Z.flags.writeable
        assert np.abs(pnorm(Z.T, s.p, axis=0) - 1.0).max() <= 4.5e-16
        rows = {tuple(z) for z in Z.tolist()}
        assert len(rows) == len(Z) and vertices <= rows
    # at eps = 2 every corner is a vertex
    assert rows == vertices


def test_corner_counts_and_refusals():
    assert len(corner_points(linf(3), 0.05)) == 56 and len(corner_points(l1(3), 0.05)) == 78
    with pytest.raises(UnsupportedSpaceError):
        corner_points(l1(4), 0.05)
    # refused before anything is enumerated
    with pytest.raises(OutOfRangeError, match="n = 10"):
        corner_points(linf(10), 0.05)


def test_eps_below_an_ulp_of_one_is_not_read_as_the_vertices():
    # for eps < 2^-52, 1 - eps/2 rounds to 1; the corners 2^-52 from the
    # faces stand in, so a T with points just off M_T is still falsified
    # (delta(eps) is about eps), and an isometry still certified
    for s in (linf(2), l1(2)):
        T = operator([[1.0, 0.0], [1.0, 0.0]] if s.p == INF else [[1.0, 0.0], [0.0, 0.5]], s, s)
        iso = enumerate_isometries(s)[0]
        for eps in (1e-12, 3e-16, 2.0 ** -52, 1e-16, 1e-17, 1e-300):
            if eps < 2.0 ** -52:
                assert np.array_equal(corner_points(s, eps), corner_points(s, 2.0 ** -52))
            cert = verify_uniform_bpb(T, T, eps)
            assert cert.status == "falsified" and cert.worst_distance >= eps, (s, eps)
            assert not delta_for_epsilon(T, eps).succeeded
            assert verify_uniform_bpb(iso, iso, eps).certified


def exact_corner_distances(s, Z, eps):
    """The distances from the corners Z at eps to every face of s, in exact
    integer arithmetic times a scale c, with c and c eps.  With eps = a/b,
    each coordinate of Z is read as the nearest of its exact values, +-1
    and +-(1 - eps) on l_inf^n (c = b), +-0, +-h, +-(1 - h), +-(1 - 2h),
    +-(2h - 1) and +-1 with h = eps/2 on l_1^n (c = 2b), each an integer
    times 1/c; the distances take the closed forms of `face_distances`."""
    a, b = float(eps).as_integer_ratio()
    if s.p == INF:
        c, vals = b, [b, b - a]
    else:
        c = 2 * b
        vals = [0, a, c - a, c - 2 * a, 2 * a - c, c]
    vals = np.array(vals + [-v for v in vals], dtype=object)
    X = vals[np.abs(Z[..., None] - (vals / c).astype(float)).argmin(axis=-1)]
    Q = polyhedral_table(s).patterns.astype(object)[:, None, :]
    if s.p == INF:
        assert (np.abs(X).max(axis=1) == c).all()
        D = np.maximum(np.where(Q != 0, np.abs(X - Q * c), np.abs(X) - c).max(axis=-1), 0)
    else:
        assert (np.abs(X).sum(axis=1) == c).all()
        P = np.maximum(Q * X, 0).sum(axis=-1)
        D = np.abs(X).sum(axis=-1) - P + np.abs(P - c)
    return D, c, a * c // b


@pytest.mark.parametrize("s", [linf(2), linf(3), l1(2), l1(3)], ids=repr)
def test_corner_distances_round_within_tau_corner(s):
    # every corner whose exact distance to a face is eps computes within
    # TAU_CORNER of eps, and no distance strays further from its exact value
    epss = [1e-12, 1e-15, 1.0 / 3.0, 2.0 / 3.0, 0.05, 0.1, 0.3, 0.7, 1.0, 1.9, 2.0]
    epss += np.random.default_rng(71).uniform(0.0, 2.0, 9).tolist()
    for eps in epss:
        Z = corner_points(s, eps)
        D = face_distances(s, polyhedral_table(s).patterns, Z)
        exact, c, at = exact_corner_distances(s, Z, eps)
        assert (exact == at).any(), eps
        assert np.abs(D[exact == at] - eps).max() <= TAU_CORNER, eps
        assert np.abs(D - (exact / c).astype(float)).max() <= TAU_CORNER, eps
        # a point of a face is never read as far from it
        assert (D[exact == 0] < _far_from(eps)).all(), eps


def test_exact_delta_is_eps_on_every_family_triple():
    # on the families the exact delta(eps) is eps: 1 - g = eps, and the
    # certificate and delta_for_epsilon give the largest level 2^-k <= 1 - g
    checked = 0
    for name in POLYHEDRAL_FAMILIES:
        for T in _family(name):
            for eps in (0.05, 0.1, 0.3):
                A = SWEEP_PAIRS[name].construct(T, eps).approximant
                g = corner_g(T, norm_one_attainment_set(A, "A"), eps)
                assert abs(1.0 - g - eps) <= TAU_CORNER, (T, eps)
                cert = verify_uniform_bpb(T, A, eps)
                assert cert.delta_found == halving_delta(g, 1.0) == delta_for_epsilon(T, eps).delta
                checked += 1
    assert checked == 1326


def _dense_pairs():
    """Seeded dense norm-one T on l_inf^2/3 and l_1^2/3 into l_inf^3 and
    l_1^3, each with a norm-one A at most 0.02 away in entries."""
    rng = np.random.default_rng(61)
    for dom in (linf(2), linf(3), l1(2), l1(3)):
        for cod in (linf(3), l1(3)):
            for _ in range(4):
                T = _unit(rng.standard_normal((cod.n, dom.n)), dom, cod)
                yield T, _unit(T.entries + 0.02 * rng.standard_normal(T.entries.shape), dom, cod)


def test_grid_delta_is_never_below_the_exact_delta_on_dense_operators():
    statuses = set()
    for T, A in _dense_pairs():
        for eps in (0.05, 0.3):
            assert_exact_within_sampled(delta_for_epsilon(T, eps), grid_delta_search(T, eps, 4096))
            exact = verify_uniform_bpb(T, A, eps)
            assert_exact_within_sampled(exact, grid_verify(T, A, eps, 4096))
            statuses.add(exact.status)
    assert statuses == {"certified", "falsified"}


def test_exact_g_bounds_a_fine_grid():
    # brute force: the rows of the 262,144-point grid at least eps from M_T
    # never reach above the corners' g, and come within about a grid step
    # (2/208 on l_inf^3) of it
    rng = np.random.default_rng(67)
    gaps = []
    for dom in (linf(3), l1(3)):
        X = sphere_grid(dom, 262144)
        for cod in (linf(3), l1(3)):
            T = _unit(rng.standard_normal((3, 3)), dom, cod)
            M = attainment_set(T)
            norms, dists = T.image_norms(X), M.distance_to(X)
            for eps in (0.05, 0.3):
                g = corner_g(T, M, eps)
                sampled = float(norms[dists >= eps].max())
                assert sampled <= g, (T, eps)
                gaps.append(g - sampled)
    assert max(gaps) < 0.01, gaps
