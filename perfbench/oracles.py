"""Correctness oracles for the benchmark tasks.

Every check here recomputes the truth with its own numpy code (closed-form
polyhedral norms, a zoomed grid on the l_p circle, symmetric eigenvalues)
and never calls the bpblab function whose output it judges.  Each check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

NORM_TOL = 1e-8        # agreement of a library norm with its oracle
ATTAIN_REL = 1e-9      # relative gap at which a point still attains the norm
WITNESS_TOL = 1e-7     # slack for ||T +/- D|| <= 1 in a non-extremality witness


def vec_norm(v, p, axis=-1):
    """l_p norm along an axis for p in [1, inf]."""
    v = np.abs(np.asarray(v, dtype=float))
    if p == math.inf:
        return v.max(axis=axis)
    if p == 1:
        return v.sum(axis=axis)
    return (v ** p).sum(axis=axis) ** (1.0 / p)


def poly_norm(M, p_dom, p_cod):
    """||M|| from l_{p_dom} (1 or inf) to l_{p_cod}: a vertex maximum."""
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    if p_dom == 1:
        V = np.concatenate([np.eye(n), -np.eye(n)])
    elif p_dom == math.inf:
        V = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    else:
        raise ValueError("polyhedral domain required")
    return float(vec_norm(V @ M.T, p_cod, axis=1).max())


def face_barycentres(p_dom, n):
    """Sign patterns of all proper faces and their barycentres, as rows."""
    pats = np.array([q for q in itertools.product((-1, 0, 1), repeat=n) if any(q)], float)
    if p_dom == math.inf:
        return pats, pats
    return pats, pats / np.abs(pats).sum(axis=1, keepdims=True)


def attaining_faces(M, p_dom, p_cod):
    """Patterns of the faces on which ||M x|| equals ||M||.

    ||M .|| is convex and at most ||M|| on the ball, so it equals ||M|| on a
    whole face exactly when it does at the face's barycentre.
    """
    M = np.asarray(M, dtype=float)
    pats, bary = face_barycentres(p_dom, M.shape[1])
    value = poly_norm(M, p_dom, p_cod)
    hit = vec_norm(bary @ M.T, p_cod, axis=1) >= value * (1.0 - ATTAIN_REL)
    return frozenset(tuple(int(v) for v in q) for q in pats[hit])


def maximal_faces(faces, p_dom):
    """The faces in `faces` not contained in another one of them."""

    def contains(big, small):  # face `small` is a subface of face `big`
        if p_dom == math.inf:
            return all(small[i] == v for i, v in enumerate(big) if v)
        return all(big[i] == v for i, v in enumerate(small) if v)

    return frozenset(f for f in faces if not any(g != f and contains(g, f) for g in faces))


def circle_point(t, p):
    """Unit vector of l_p^2 in the Euclidean direction t (rows for array t)."""
    d = np.stack([np.cos(t), np.sin(t)], axis=-1)
    return d / vec_norm(d, p, axis=-1)[..., None]


def smooth_maximisers(M, p_dom, p_cod, grid=4096, zoom=12):
    """(||M||, maximisers on the half circle) for an operator on l_p^2.

    A direction grid over [0, pi) finds the local maxima; each one near the
    top is refined by repeated 8x zooms of a 33-point grid.
    """
    M = np.asarray(M, dtype=float)

    def f(t):
        return vec_norm(circle_point(t, p_dom) @ M.T, p_cod, axis=-1)

    t = np.linspace(0.0, math.pi, grid, endpoint=False)
    h = f(t)
    peaks = np.flatnonzero((h >= np.roll(h, 1)) & (h >= np.roll(h, -1)) & (h >= h.max() * (1 - 1e-6)))
    step = math.pi / grid
    found = []
    for i in peaks:
        c, w = t[i], step
        for _ in range(zoom):
            u = np.linspace(c - 2 * w, c + 2 * w, 33)
            c = u[int(np.argmax(f(u)))]
            w /= 8.0
        found.append((float(f(np.array([c]))[0]), c))
    best = max(v for v, _ in found)
    pts = [circle_point(np.array(c), p_dom) for v, c in found if v >= best * (1 - 1e-12)]
    return best, np.array(pts)


def l2_top(M):
    """(||M||_2, top right singular vector, second singular value) via eigh."""
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(M.T @ M)
    w = np.sqrt(np.maximum(w, 0.0))
    return float(w[-1]), V[:, -1], float(w[-2]) if len(w) > 1 else 0.0


def pf(space):
    """A SpaceSpec exponent as a float (math.inf for the sup norm)."""
    return float(space.p)


# ---------------------------------------------------------------------------
# Checks on task outputs.
# ---------------------------------------------------------------------------


def check_nonvacuous(bp, T, cert, resolution):
    """A certificate must rest on at least one sample with ||Tz|| > 1 - delta."""
    X = bp.sampling.sphere_grid(T.domain, resolution)
    if len(X) == 0 or not (T.image_norms(X) > 1.0 - cert.delta_found).any():
        return f"vacuous certificate: no sample above 1 - delta = {1.0 - cert.delta_found}"
    return None


def check_certificate(bp, T, cert, eps, resolution):
    if not cert.certified:
        return f"certificate status {cert.status}"
    if not (cert.delta_found is not None and cert.delta_found > 0):
        return f"certified with delta {cert.delta_found}"
    if cert.resolution != resolution:
        return f"certificate resolution {cert.resolution} != requested {resolution}"
    if not cert.operator_distance < eps:
        return f"certificate distance {cert.operator_distance} >= eps"
    return check_nonvacuous(bp, T, cert, resolution)


def check_rigidity(bp, T, result, trials):
    """Isometries of polyhedral spaces are their own only eps-approximations."""
    if result.found:
        cert = result.certificate
        why = check_nonvacuous(bp, T, cert, cert.resolution) if cert is not None else None
        return "approximation found for an isometry" + (f" ({why})" if why else "")
    if result.trials != trials:
        return f"reported {result.trials} trials, asked {trials}"
    return None


def check_poly_approximant(bp, T, report, cert, eps, resolution):
    """||A|| = 1, ||T - A|| < eps, M_A = M_T, and a sound certificate."""
    A = report.approximant
    dom, cod = pf(T.domain), pf(T.codomain)
    a_norm = poly_norm(A.entries, dom, cod)
    if abs(a_norm - 1.0) > NORM_TOL:
        return f"approximant norm {a_norm}"
    dist = poly_norm(T.entries - A.entries, dom, cod)
    if not dist < eps:
        return f"||T - A|| = {dist} >= eps"
    if abs(report.distance - dist) > NORM_TOL:
        return f"reported distance {report.distance}, oracle {dist}"
    faces_T = attaining_faces(T.entries, dom, cod)
    if attaining_faces(A.entries, dom, cod) != faces_T:
        return "attainment set of A differs from that of T"
    reported = frozenset(tuple(f.pattern) for f in report.attainment_approximant.faces)
    if not report.attainment_preserved or reported != maximal_faces(faces_T, dom):
        return "reported attainment set is wrong"
    return check_certificate(bp, T, cert, eps, resolution)


def check_extremality(T, verdict, extreme):
    """Census members are extreme; a generic dense operator is not.

    A `not_extreme` verdict must carry a witness D != 0 with ||T +/- D|| <= 1.
    """
    if verdict.status == "extreme":
        return None if extreme else "extreme verdict for a non-extreme operator"
    if extreme:
        return f"verdict {verdict.status} for a census member"
    if verdict.status != "not_extreme":
        return f"verdict {verdict.status}"
    D = verdict.witness
    if D is None or np.abs(D).max() <= 1e-9:
        return "non-extremality witness is zero"
    dom, cod = pf(T.domain), pf(T.codomain)
    for S in (T.entries + D, T.entries - D):
        v = poly_norm(S, dom, cod)
        if v > 1.0 + WITNESS_TOL:
            return f"witness leaves the unit ball: ||T +/- D|| = {v}"
    return None


def check_smooth_attainment(T, value, M):
    """Norm and attainment points of an operator on l_p^2 against the oracle."""
    dom, cod = pf(T.domain), pf(T.codomain)
    best, maximisers = smooth_maximisers(T.entries, dom, cod)
    if abs(value - best) > NORM_TOL:
        return f"norm {value}, oracle {best}"
    if M.kind != "points" or len(M.points) == 0:
        return f"attainment set of kind {M.kind}"
    pts = np.asarray(M.points)
    if np.abs(vec_norm(pts, dom, axis=1) - 1.0).max() > 1e-9:
        return "attainment point off the unit sphere"
    if vec_norm(pts @ T.entries.T, cod, axis=1).min() < best * (1.0 - NORM_TOL):
        return "attainment point does not attain the norm"
    for x in maximisers:
        if vec_norm(pts - x, dom, axis=1).min() > 1e-6 or vec_norm(pts + x, dom, axis=1).min() > 1e-6:
            return "a norming direction is missing from the attainment set"
    return None


def check_hadamard(T, value, M):
    """The Hadamard matrix on l_4^2 has norm 2^(3/4), attained at 4 points."""
    if abs(value - 2.0 ** 0.75) > NORM_TOL:
        return f"Hadamard norm {value}, expected 2^(3/4)"
    if M.kind != "points" or len(M.points) != 4:
        return "Hadamard attainment set is not 4 points"
    return check_smooth_attainment(T, value, M)


def check_witness(T, M, witness):
    """B(x_A, r0) must miss the attainment set M_A."""
    if not witness.r0 > 0:
        return f"witness radius {witness.r0}"
    dom = pf(T.domain)
    x = np.asarray(witness.x_A.coords)
    if abs(vec_norm(x, dom) - 1.0) > 1e-9:
        return "witness point off the unit sphere"
    gap = float(vec_norm(np.asarray(M.points) - x, dom, axis=1).min())
    if not gap >= witness.r0:
        return f"ball of radius {witness.r0} meets M_A at distance {gap}"
    return None


def check_hilbert(bp, T, value, M, report, cert, eps, resolution):
    """Euclidean l_2^3: norm, attainment subspace, approximant, certificate."""
    top, v, _ = l2_top(T.entries)
    if abs(value - top) > NORM_TOL:
        return f"norm {value}, oracle {top}"
    if M.kind != "subspace" or M.basis.shape[1] < 1:
        return f"attainment set of kind {M.kind}"
    if np.abs(np.linalg.norm(T.entries @ M.basis, axis=0) - top).max() > NORM_TOL:
        return "attainment subspace does not attain the norm"
    A = report.approximant.entries
    a_top, _, a_second = l2_top(A)
    if abs(a_top - 1.0) > NORM_TOL:
        return f"approximant norm {a_top}"
    dist = l2_top(T.entries - A)[0]
    if not dist < eps:
        return f"||T - A|| = {dist} >= eps"
    if abs(float(np.linalg.norm(A @ v)) - 1.0) > NORM_TOL or a_second >= 1.0 - NORM_TOL:
        return "attainment set of A differs from that of T"
    if not report.attainment_preserved:
        return "reported attainment set is wrong"
    return check_certificate(bp, T, cert, eps, resolution)
