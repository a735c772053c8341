"""Command-line front end.

Every subcommand maps onto one library capability, reads operators as JSON
files, and emits a JSON report on stdout (or to --output).  Exit codes:
0 success, 1 falsified or failed verification, 2 malformed input.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import approximants as apx
from . import bpbverify as bv
from . import classify as cf
from . import jsonio
from .errors import BpbLabError, MalformedInputError
from .operators import DEFAULT_RESOLUTION, OperatorMatrix, attainment_set, op_norm
from .spaces import INF, Point, SpaceSpec, as_exponent, l2, linf, lp, pnorm


def _positive_int(text: str) -> int:
    """The type of --resolution, --trials and BPBLAB_DEFAULT_RESOLUTION:
    an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _eps_flag(text: str) -> float:
    """The type of --eps and of each --eps-list item: a finite real > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be a finite positive real, got {text!r}")
    return value


def _eps_list_flag(text: str) -> list:
    """The --eps-list type: comma-separated finite positive reals."""
    values = [_eps_flag(e) for e in text.split(",") if e]
    if not values:
        raise argparse.ArgumentTypeError("expected comma-separated positive reals")
    return values


def _default_resolution() -> int:
    env = os.environ.get("BPBLAB_DEFAULT_RESOLUTION")
    if not env:
        return DEFAULT_RESOLUTION
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise MalformedInputError("BPBLAB_DEFAULT_RESOLUTION", str(exc))


def _emit(args, payload: dict) -> None:
    if not getattr(args, "no_timestamp", False):
        payload = dict(payload)
        payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_norm(args) -> int:
    T = jsonio.load_operator(args.operator)
    value, witness = op_norm(T)
    _emit(args, {"norm": value, "witness": jsonio.point_to_json(witness)})
    return 0


def _cmd_attain(args) -> int:
    T = jsonio.load_operator(args.operator)
    M = attainment_set(T, resolution=args.resolution)
    _emit(args, jsonio.attainment_to_json(M))
    return 0


def _cmd_classify(args) -> int:
    T = jsonio.load_operator(args.operator)
    out = {"operator": jsonio.operator_to_json(T)}
    square_same = T.domain.n == T.codomain.n and T.domain.p == T.codomain.p
    if square_same:
        out["is_isometry"] = cf.is_isometry(T)
    if T.domain.p == INF and T.codomain.p == INF and square_same:
        out["row_condition"] = cf.linf_row_condition(T)
    if T.domain.p == 1 and T.codomain.p == 1 and square_same:
        out["column_condition"] = cf.l1_column_condition(T)
    verdict = cf.is_extreme_contraction(T, seed=args.seed or 0)
    out["extremality"] = {"status": verdict.status, "method": verdict.method}
    if verdict.witness is not None:
        out["extremality"]["witness"] = verdict.witness.tolist()
    _emit(args, out)
    return 0


def _cmd_isometries(args) -> int:
    s = SpaceSpec(as_exponent(args.p), args.n)
    mats = cf.enumerate_isometries(s)
    _emit(
        args,
        {
            "space": jsonio.space_to_json(s),
            "count": len(mats),
            "matrices": [m.entries.tolist() for m in mats],
        },
    )
    return 0


def _cmd_orbit(args) -> int:
    A = jsonio.load_operator(args.operator)
    orbit = cf.equivalence_orbit(A)
    _emit(
        args,
        {
            "size": len(orbit),
            "members": [m.entries.tolist() for m in orbit],
        },
    )
    return 0


def _cmd_enumerate_ext(args) -> int:
    if args.pair != "linf3-l13":
        raise MalformedInputError("pair", f"unsupported pair {args.pair!r}")
    members = cf.enumerate_extreme_linf3_l13()
    sizes = {}
    for m in members:
        name, _, _, _ = cf.census_lookup(m)
        sizes[name] = sizes.get(name, 0) + 1
    _emit(
        args,
        {
            "pair": args.pair,
            "count": len(members),
            "orbits": [sizes["rank_one"], sizes["block"]],
            "members": [m.entries.tolist() for m in members],
        },
    )
    return 0


_CONSTRUCTIONS = {
    "rank-one": lambda T, eps: apx.rank_one_approx(T, eps),
    "linf": lambda T, eps: apx.linf_extreme_approx(T, eps),
    "l1": lambda T, eps: apx.l1_extreme_approx(T, eps),
    "linf3-l13": lambda T, eps: apx.linf3_l13_extreme_approx(T, eps),
    "hilbert": lambda T, eps: apx.hilbert_rotate_approx(T, eps),
}


def _cmd_approx(args) -> int:
    T = jsonio.load_operator(args.operator)
    builder = _CONSTRUCTIONS.get(args.construction)
    if builder is None:
        raise MalformedInputError("construction", f"unknown {args.construction!r}")
    report = builder(T, args.eps)
    _emit(args, jsonio.report_to_json(report))
    return 0


def _cmd_verify(args) -> int:
    T = jsonio.load_operator(args.T, "T")
    A = jsonio.load_operator(args.A, "A")
    cert = bv.verify_uniform_bpb(T, A, args.eps, resolution=args.resolution)
    _emit(args, jsonio.certificate_to_json(cert))
    return 0 if cert.certified else 1


def _cmd_witness_p(args) -> int:
    A = jsonio.load_operator(args.operator)
    w = bv.property_p_witness(A, resolution=args.resolution)
    _emit(args, jsonio.witness_to_json(w))
    return 0


def _cmd_epsilon0(args) -> int:
    rep = bv.epsilon0_lp2(args.p)
    _emit(args, jsonio.epsilon0_to_json(rep))
    return 0


_SWEEP_PAIRS = {
    "linf2": ("inf", 2, "inf", 2),
    "linf3": ("inf", 3, "inf", 3),
    "l12": ("1", 2, "1", 2),
    "l13": ("1", 3, "1", 3),
    "linf3-l13": ("inf", 3, "1", 3),
    "l22": ("2", 2, "2", 2),
    "l23": ("2", 3, "2", 3),
}


def _cmd_sweep(args) -> int:
    if args.pair not in _SWEEP_PAIRS:
        raise MalformedInputError(
            "pair", f"unknown pair {args.pair!r}; choose from {sorted(_SWEEP_PAIRS)}"
        )
    px, nx, py, ny = _SWEEP_PAIRS[args.pair]
    summary = bv.pair_property_sweep(
        SpaceSpec(as_exponent(px), nx),
        SpaceSpec(as_exponent(py), ny),
        args.eps_list,
        trials=args.trials,
        seed=args.seed,
        resolution=args.resolution,
    )
    _emit(args, jsonio.sweep_to_json(summary))
    return 0 if not summary.failures else 1


def _demo_checks():
    """Pass/fail checks for the library's headline constants."""
    checks = []

    members = cf.enumerate_extreme_linf3_l13()
    checks.append(("extreme census count is 90", len(members) == 90))
    sizes = {}
    for m in members:
        name, _, _, _ = cf.census_lookup(m)
        sizes[name] = sizes.get(name, 0) + 1
    checks.append(
        ("census orbit sizes are 18 and 72", sizes.get("rank_one") == 18 and sizes.get("block") == 72)
    )
    norms_ok = all(abs(op_norm(m)[0] - 1.0) < 1e-9 for m in members)
    checks.append(("every census member has norm one", norms_ok))

    s4 = lp(4, 2)
    T = OperatorMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]), s4, s4)
    v, _ = op_norm(T)
    checks.append(("Hadamard norm on l_4^2 is 2^(3/4)", abs(v - 2 ** 0.75) < 1e-8))
    P = attainment_set(T).finite_points()
    checks.append(("Hadamard attainment has four points", P is not None and len(P) == 4))

    isos = cf.enumerate_isometries(lp(3, 2))
    checks.append(("l_3^2 has eight isometries", len(isos) == 8))
    dists = set()
    for i in range(len(isos)):
        for j in range(i + 1, len(isos)):
            d, _ = op_norm(isos[i] - isos[j])
            dists.add(round(d, 6))
    expected = {round(2 ** (2.0 / 3.0), 6), round(2.0, 6)}
    checks.append(("pairwise isometry distances are 2^(2/3) or 2", dists == expected))
    eps0 = bv.epsilon0_lp2(3)
    checks.append(("rigidity constant for p=3 is positive", eps0.eps0 > 0))

    Tl = OperatorMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]), linf(2), linf(2))
    rep = apx.linf_extreme_approx(Tl, 0.2)
    checks.append(
        ("sup-norm perturbation distance is eps/2", abs(rep.distance - 0.1) < 1e-9)
    )
    checks.append(("sup-norm perturbation preserves attainment", rep.attainment_preserved))

    demo = apx.hilbert_nonpreserving_demo(0.2)
    st = 1.0 - 0.2 ** 2 / 16.0
    ct = math.sqrt(1.0 - st * st)
    checks.append(
        ("Euclidean demo distance equals cos(theta)", abs(demo.distance - ct) < 1e-10)
    )

    A10 = apx.sbpbp_counterexample_family(Point(np.array([1.0, 0.0]), l2(2)), 10)
    h0 = np.array([0.0, 1.0])
    checks.append(
        (
            "projection family image norm is 1 - 1/n",
            abs(float(pnorm(A10.apply(h0), 2)) - 0.9) < 1e-12,
        )
    )
    MA = attainment_set(A10)
    checks.append(
        (
            "orthogonal directions sit at distance sqrt(2)",
            abs(float(MA.distance_to(h0[None, :])[0]) - math.sqrt(2.0)) < 1e-9,
        )
    )
    return checks


def _cmd_demo(args) -> int:
    checks = _demo_checks()
    results = [{"check": name, "passed": bool(ok)} for name, ok in checks]
    n_failed = sum(1 for _, ok in checks if not ok)
    _emit(args, {"checks": results, "failed": n_failed})
    return 0 if n_failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpblab",
        description="Norm attainment and approximation toolkit for finite-dimensional l_p spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, resolution=False, seed=False):
        p.add_argument("--output", help="write the JSON report to a file")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp for byte-identical outputs",
        )
        if resolution:
            p.add_argument(
                "--resolution",
                type=_positive_int,
                help="sphere sampling density (env BPBLAB_DEFAULT_RESOLUTION)",
            )
        if seed:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")

    p = sub.add_parser("norm", help="operator norm with witness")
    p.add_argument("--operator", required=True)
    common(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("attain", help="norm attainment set")
    p.add_argument("--operator", required=True)
    common(p, resolution=True)
    p.set_defaults(func=_cmd_attain)

    p = sub.add_parser("classify", help="extremality and isometry classification")
    p.add_argument("--operator", required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("isometries", help="enumerate signed-permutation isometries")
    p.add_argument("--p", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_isometries)

    p = sub.add_parser("orbit", help="two-sided signed-permutation orbit")
    p.add_argument("--operator", required=True)
    common(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("enumerate-ext", help="enumerate extreme contractions")
    p.add_argument("--pair", required=True, help="currently: linf3-l13")
    common(p)
    p.set_defaults(func=_cmd_enumerate_ext)

    p = sub.add_parser("approx", help="build an attainment-aware approximant")
    p.add_argument("--operator", required=True)
    p.add_argument("--eps", type=_eps_flag, required=True)
    p.add_argument(
        "--construction",
        required=True,
        choices=sorted(_CONSTRUCTIONS),
    )
    common(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("verify", help="certify or falsify an approximation triple")
    p.add_argument("--T", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--eps", type=_eps_flag, required=True)
    common(p, resolution=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness-p", help="isolation witness for the attainment set")
    p.add_argument("--operator", required=True)
    common(p, resolution=True)
    p.set_defaults(func=_cmd_witness_p)

    p = sub.add_parser("epsilon0", help="rigidity constant for l_p^2, integer p >= 3")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_epsilon0)

    p = sub.add_parser("sweep", help="construct and verify approximants across a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--eps-list", type=_eps_list_flag, default="0.2", dest="eps_list")
    p.add_argument("--trials", type=_positive_int, default=10)
    common(p, resolution=True, seed=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("demo", help="pass/fail report over the headline constants")
    common(p)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "resolution" in vars(args) and args.resolution is None:
            args.resolution = _default_resolution()
        return args.func(args)
    except BpbLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
