"""Differential test of `jsonio.to_json` against the serialisers it replaced.

The references below are the per-type functions `jsonio` kept before one
field-by-field rule took their place, kept verbatim in logic.  Each seeded
result must give the same JSON text, key for key and float for float, under
both.
"""

import json
import math

import numpy as np
import pytest

from bpblab import (
    ApproximantReport,
    AttainmentSet,
    BpbCertificate,
    Epsilon0Report,
    OperatorMatrix,
    Point,
    PropertyPWitness,
    SpaceSpec,
    attainment_set,
    convex_witness_approx,
    direct_sum_shrink_approx,
    enumerate_extreme_linf3_l13,
    epsilon0_lp2,
    functional_approx_lp2,
    hilbert_nonpreserving_demo,
    hilbert_rotate_approx,
    l1,
    l1_extreme_approx,
    l2,
    linf,
    linf3_l13_extreme_approx,
    linf_extreme_approx,
    lp,
    op_norm,
    operator,
    pair_property_sweep,
    point,
    property_p_witness,
    rank_one_approx,
    verify_uniform_bpb,
)
from bpblab.bpbverify import SweepSummary
from bpblab.errors import BpbLabError
from bpblab.jsonio import to_json
from bpblab.spaces import exponent_str

# ---------------------------------------------------------------------------
# The replaced serialisers.
# ---------------------------------------------------------------------------


def space_to_json(s):
    return {"p": exponent_str(s.p), "n": s.n}


def operator_to_json(T):
    return {
        "rows": T.entries.tolist(),
        "domain": space_to_json(T.domain),
        "codomain": space_to_json(T.codomain),
    }


def point_to_json(x):
    return {"coords": x.coords.tolist(), "space": space_to_json(x.space)}


def attainment_to_json(M):
    out = {"kind": M.kind, "value": float(M.value), "space": space_to_json(M.space)}
    if M.kind == "faces":
        out["faces"] = [f.signs for f in M.faces]
    elif M.kind == "points":
        out["points"] = M.points.tolist()
    else:
        out["basis"] = M.basis.tolist()
    return out


def certificate_to_json(c):
    return {
        "status": c.status,
        "eps": c.eps,
        "delta_found": c.delta_found,
        "resolution": c.resolution,
        "worst_distance": None if c.worst_distance == float("inf") else c.worst_distance,
        "operator_distance": c.operator_distance,
        "counterexample": None
        if c.counterexample is None
        else point_to_json(c.counterexample),
        "basis": c.basis,
    }


def report_to_json(r):
    return {
        "construction": r.construction,
        "eps": r.eps,
        "distance": r.distance,
        "original": operator_to_json(r.original),
        "approximant": operator_to_json(r.approximant),
        "attainment_original": attainment_to_json(r.attainment_original),
        "attainment_approximant": attainment_to_json(r.attainment_approximant),
        "attainment_preserved": r.attainment_preserved,
    }


def witness_to_json(w):
    return {
        "x_A": point_to_json(w.x_A),
        "r0": w.r0,
        "operator": operator_to_json(w.operator),
    }


def epsilon0_to_json(e):
    return {
        "p": e.p,
        "separation": e.separation,
        "delta1": e.delta1,
        "eps0": e.eps0,
    }


def sweep_to_json(s):
    return {
        "pair": list(s.pair),
        "total": s.total,
        "certified": s.certified,
        "preserved": s.preserved,
        "failures": [
            {"eps": f.eps, "reason": f.reason, "operator": operator_to_json(f.operator)}
            for f in s.failures
        ],
    }


REFERENCE = {
    SpaceSpec: space_to_json,
    OperatorMatrix: operator_to_json,
    Point: point_to_json,
    AttainmentSet: attainment_to_json,
    BpbCertificate: certificate_to_json,
    ApproximantReport: report_to_json,
    PropertyPWitness: witness_to_json,
    Epsilon0Report: epsilon0_to_json,
    SweepSummary: sweep_to_json,
}

# ---------------------------------------------------------------------------
# Seeded results of every type.
# ---------------------------------------------------------------------------

SPACES = [linf(2), linf(3), l1(2), l1(3), l2(2), l2(3), lp(3, 2), lp(4, 2), lp("4/3", 2)]


def normalised(M, dom, cod):
    v, _ = op_norm(OperatorMatrix(M, dom, cod))
    return OperatorMatrix(M / v, dom, cod)


def random_operators(rng, count=3):
    return [
        normalised(rng.standard_normal((cod.n, dom.n)), dom, cod)
        for dom, cod in [(s, s) for s in SPACES] + [(linf(3), l1(3)), (l1(2), l2(3))]
        for _ in range(count)
    ]


def unimodular_rows(rng, s, count):
    """Non-isometric matrices with one entry of modulus one per row."""
    out = []
    while len(out) < count:
        cols = rng.integers(0, s.n, size=s.n)
        if len(set(cols.tolist())) < s.n:
            M = np.zeros((s.n, s.n))
            M[np.arange(s.n), cols] = rng.choice([-1.0, 1.0], size=s.n)
            out.append(M)
    return out


def built(build, *args):
    try:
        return [build(*args)]
    except BpbLabError:
        return []


def reports(rng):
    out = []
    for s in (linf(2), linf(3)):
        for M in unimodular_rows(rng, s, 4):
            out += built(linf_extreme_approx, OperatorMatrix(M, s, s), 0.2)
    for s in (l1(2), l1(3)):
        for M in unimodular_rows(rng, s, 4):
            out += built(l1_extreme_approx, OperatorMatrix(M.T, s, s), 0.3)
    out += [linf3_l13_extreme_approx(T, 0.4) for T in enumerate_extreme_linf3_l13()[::9]]
    for s in (linf(2), l1(3), l2(2), l2(3)):
        for _ in range(2):
            M = np.outer(rng.standard_normal(s.n), rng.standard_normal(s.n))
            out += built(rank_one_approx, normalised(M, s, s), 0.3)
    for s in (l2(2), l2(3)):
        for _ in range(3):
            out += built(hilbert_rotate_approx, normalised(rng.standard_normal((s.n, s.n)), s, s), 0.2)
    for diag in ([1.0, 1.0, 0.5], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]):
        out.append(hilbert_rotate_approx(operator(np.diag(diag), l2(3), l2(3)), 0.1))
    T1 = operator([[1.0, 0.0], [0.0, 0.5]], linf(2), linf(2))
    T2 = operator([[1.0, 0.0], [0.0, -0.5]], linf(2), linf(2))
    out.append(convex_witness_approx(0.5 * (T1 + T2), T1, T2, 0.1))
    out.append(
        direct_sum_shrink_approx(
            operator(np.diag([1.0, 0.5]), l2(2), l2(2)), [[1.0], [0.0]], [[0.0], [1.0]], 0.1
        )
    )
    out.append(hilbert_nonpreserving_demo(0.2))
    out.append(functional_approx_lp2(point([1.0, 0.0], lp("4/3", 2)), 0.3))
    return out


def certificates(rng):
    out = [verify_uniform_bpb(r.original, r.approximant, r.eps, resolution=256)
           for r in reports(rng) if r.original.domain.n == r.original.codomain.n]
    s = l2(2)
    T = operator([[1.0, 0.0], [0.0, 0.97]], s, s)
    A = operator([[0.97, 0.0], [0.0, 1.0]], s, s)
    out.append(verify_uniform_bpb(T, A, 0.5, resolution=256))  # falsified at a point
    I = operator(np.eye(2), linf(2), linf(2))
    out.append(verify_uniform_bpb(I, -1.0 * I, 0.5, resolution=256))  # ||T - A|| >= eps
    return out


def witnesses(rng):
    out = [property_p_witness(operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2)))]
    for s in (linf(3), l1(3), l2(3), lp(3, 2), lp(4, 2)):
        for _ in range(2):
            out += built(property_p_witness, normalised(rng.standard_normal((s.n, s.n)), s, s))
    return out


CASES = {
    "spaces": lambda rng: SPACES,
    "operators": random_operators,
    "points": lambda rng: [op_norm(T)[1] for T in random_operators(rng)],
    "attainment_sets": lambda rng: [attainment_set(T) for T in random_operators(rng)]
    + [attainment_set(operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2)))],
    "reports": reports,
    "certificates": certificates,
    "witnesses": witnesses,
    "epsilon0": lambda rng: [epsilon0_lp2(p) for p in (3, 4, 5)],
    "sweeps": lambda rng: [
        pair_property_sweep(linf(2), linf(2), [0.2, 2.5], trials=2, seed=1, resolution=256),
        pair_property_sweep(l1(3), l1(3), [0.2], trials=3, seed=2, resolution=256),
        pair_property_sweep(l2(2), l2(2), [0.3], trials=3, seed=3, resolution=256),
    ],
}


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_to_json_matches_the_replaced_serialisers(name):
    results = CASES[name](np.random.default_rng(20))
    assert len(results) >= 3
    for r in results:
        assert dumps(to_json(r)) == dumps(REFERENCE[type(r)](r))


def test_every_result_type_and_attainment_kind_is_covered():
    seen = {type(r) for name in CASES for r in CASES[name](np.random.default_rng(20))}
    assert seen == set(REFERENCE)
    kinds = {M.kind for M in CASES["attainment_sets"](np.random.default_rng(20))}
    assert kinds == {"faces", "points", "subspace"}
    certs = certificates(np.random.default_rng(20))
    assert {c.status for c in certs} == {"certified", "falsified"}
    assert any(math.isinf(c.worst_distance) for c in certs)
    assert any(c.counterexample is not None for c in certs)
    sweeps = CASES["sweeps"](np.random.default_rng(20))
    assert any(s.failures for s in sweeps)


def test_plain_dicts_tuples_and_infinities():
    s = linf(2)
    doc = {"space": s, "pair": (1, 2.5), "rows": np.eye(2), "gap": math.inf, "nested": {"x": [s]}}
    assert to_json(doc) == {
        "space": {"p": "inf", "n": 2},
        "pair": [1, 2.5],
        "rows": [[1.0, 0.0], [0.0, 1.0]],
        "gap": None,
        "nested": {"x": [{"p": "inf", "n": 2}]},
    }
