"""JSON serialization for spaces, operators, and result objects.

Operator schema: {"rows": [[...]], "domain": {"p": "inf"|"1"|"4/3"...,
"n": k}, "codomain": {...}} with exponents as strings so rationals travel
exactly.  Attainment sets serialize as a tagged union; faces are sign
pattern strings like "+0-".  Every other result serializes field by field
through `to_json`.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import MalformedInputError, UnsupportedExponentError
from .operators import AttainmentSet, OperatorMatrix
from .spaces import SpaceSpec, as_exponent, exponent_str


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
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedInputError(f"{field}.n", "dimension must be a positive integer")
    return SpaceSpec(p, n)


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
    # JSON numbers only: numpy reads "0.5" and true as numbers too
    if not (np.isfinite(M).all() and all(type(v) in (int, float) for r in rows for v in r)):
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


def load_operator(path: str, field: str = "operator") -> OperatorMatrix:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise MalformedInputError(field, f"file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(field, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise MalformedInputError(field, f"invalid JSON in {path}: {exc}")
    return parse_operator(data, field)


def to_json(obj):
    """The JSON form of a space, operator, attainment set or result.

    SpaceSpec, OperatorMatrix and AttainmentSet have the forms in the module
    docstring.  Any other dataclass maps field by field and a dict value by
    value; tuples and arrays become lists, and an infinite float becomes
    null.
    """
    if isinstance(obj, SpaceSpec):
        return {"p": exponent_str(obj.p), "n": obj.n}
    if isinstance(obj, OperatorMatrix):
        return {
            "rows": obj.entries.tolist(),
            "domain": to_json(obj.domain),
            "codomain": to_json(obj.codomain),
        }
    if isinstance(obj, AttainmentSet):
        out = {"kind": obj.kind, "value": float(obj.value), "space": to_json(obj.space)}
        if obj.kind == "faces":
            out["faces"] = [f.signs for f in obj.faces]
        elif obj.kind == "points":
            out["points"] = obj.points.tolist()
        else:
            out["basis"] = obj.basis.tolist()
        return out
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return None
    return obj
