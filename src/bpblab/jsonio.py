"""JSON serialization for spaces, operators, and result objects.

Operator schema: {"rows": [[...]], "domain": {"p": "inf"|"1"|"4/3"...,
"n": k}, "codomain": {...}} with exponents as strings so rationals travel
exactly.  Attainment sets serialize as a tagged union; faces are sign
pattern strings like "+0-".
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MalformedInputError, UnsupportedExponentError
from .operators import AttainmentSet, OperatorMatrix
from .spaces import Point, SpaceSpec, as_exponent, exponent_str


def parse_space(d, field: str = "space") -> SpaceSpec:
    if not isinstance(d, dict):
        raise MalformedInputError(field, "expected an object with 'p' and 'n'")
    try:
        p = as_exponent(d["p"])
    except KeyError:
        raise MalformedInputError(f"{field}.p", "missing exponent")
    except (ValueError, ZeroDivisionError, UnsupportedExponentError) as exc:
        raise MalformedInputError(f"{field}.p", str(exc))
    n = d.get("n")
    if not isinstance(n, int) or n < 1:
        raise MalformedInputError(f"{field}.n", "dimension must be a positive integer")
    return SpaceSpec(p, n)


def space_to_json(s: SpaceSpec) -> dict:
    return {"p": exponent_str(s.p), "n": s.n}


def parse_operator(d, field: str = "operator") -> OperatorMatrix:
    if not isinstance(d, dict):
        raise MalformedInputError(field, "expected an object")
    rows = d.get("rows")
    if not isinstance(rows, list) or not rows:
        raise MalformedInputError(f"{field}.rows", "expected a nonempty list of rows")
    try:
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        raise MalformedInputError(f"{field}.rows", "rows must be numeric and rectangular")
    if M.ndim != 2:
        raise MalformedInputError(f"{field}.rows", "rows must form a matrix")
    if not np.isfinite(M).all():
        raise MalformedInputError(f"{field}.rows", "entries must be finite numbers")
    if "domain" not in d:
        raise MalformedInputError(f"{field}.domain", "missing domain space")
    if "codomain" not in d:
        raise MalformedInputError(f"{field}.codomain", "missing codomain space")
    dom = parse_space(d["domain"], f"{field}.domain")
    cod = parse_space(d["codomain"], f"{field}.codomain")
    if M.shape != (cod.n, dom.n):
        raise MalformedInputError(
            f"{field}.rows", f"shape {M.shape} does not match {cod.n} x {dom.n}"
        )
    return OperatorMatrix(M, dom, cod)


def operator_to_json(T: OperatorMatrix) -> dict:
    return {
        "rows": T.entries.tolist(),
        "domain": space_to_json(T.domain),
        "codomain": space_to_json(T.codomain),
    }


def load_operator(path: str, field: str = "operator") -> OperatorMatrix:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise MalformedInputError(field, f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise MalformedInputError(field, f"invalid JSON in {path}: {exc}")
    return parse_operator(data, field)


def point_to_json(x: Point) -> dict:
    return {"coords": x.coords.tolist(), "space": space_to_json(x.space)}


def attainment_to_json(M: AttainmentSet) -> dict:
    out = {"kind": M.kind, "value": float(M.value), "space": space_to_json(M.space)}
    if M.kind == "faces":
        out["faces"] = [f.signs for f in M.faces]
    elif M.kind == "points":
        out["points"] = M.points.tolist()
    else:
        out["basis"] = M.basis.tolist()
    return out


def certificate_to_json(c) -> dict:
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
    }


def report_to_json(r) -> dict:
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


def witness_to_json(w) -> dict:
    return {
        "x_A": point_to_json(w.x_A),
        "r0": w.r0,
        "operator": operator_to_json(w.operator),
    }


def epsilon0_to_json(e) -> dict:
    return {
        "p": e.p,
        "separation": e.separation,
        "delta1": e.delta1,
        "eps0": e.eps0,
    }


def sweep_to_json(s) -> dict:
    return {
        "pair": list(s.pair),
        "total": s.total,
        "certified": s.certified,
        "preserved": s.preserved,
        "skipped_isometries": s.skipped_isometries,
        "failures": [
            {"eps": f.eps, "reason": f.reason, "operator": operator_to_json(f.operator)}
            for f in s.failures
        ],
    }
