"""Command-line front end.

Every subcommand maps onto one library capability, reads operators as JSON
files, and emits a JSON report on stdout (or to --output).  Exit codes:
0 success, 1 falsified or failed verification, 2 malformed input or any
other library refusal, such as a space pair that no geometry covers.
A reader that closes stdout early (`bpblab ... | head -1`) ends the run
with exit code 1 and nothing on stderr, as on EPIPE.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import approximants as apx
from . import bpbverify as bv
from . import classify as cf
from . import jsonio
from .errors import BpbLabError, MalformedInputError, UnsupportedExponentError
from .operators import OperatorMatrix, _norm_value, _not_norm_one, attainment_set, op_norm
from .spaces import INF, Point, SpaceSpec, as_exponent, l2, linf, lp, pnorm


def _int_at_least(text: str, lo: int) -> int:
    """int(text), refused with an argparse error naming the bound unless
    it is an integer >= lo.  The type, through partial, of --resolution,
    --trials and isometries --n (lo = 1), of sweep --seed (lo = 0) and of
    epsilon0 --p (lo = 3)."""
    try:
        value = int(text)
    except ValueError:
        value = lo - 1
    if value < lo:
        raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text!r}")
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


def _exponent_flag(text: str):
    """The type of isometries --p: an exponent p >= 1 ("inf" for the sup
    norm)."""
    try:
        return as_exponent(text)
    except (ValueError, ZeroDivisionError, UnsupportedExponentError):
        raise argparse.ArgumentTypeError(f"must be an exponent >= 1 or 'inf', got {text!r}")


def _eps_list_flag(text: str) -> list:
    """The --eps-list type: comma-separated finite positive reals."""
    values = [_eps_flag(e) for e in text.split(",") if e]
    if not values:
        raise argparse.ArgumentTypeError("expected comma-separated positive reals")
    return values


def _emit(args, payload) -> None:
    """Write the JSON form of `payload`, a result or a dict of results."""
    doc = jsonio.to_json(payload)
    if not getattr(args, "no_timestamp", False):
        doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise MalformedInputError("--output", f"cannot write {args.output}: {exc.strerror}") from None
    else:
        print(text)


def _cmd_norm(args) -> int:
    T = jsonio.load_operator(args.operator)
    value, witness = op_norm(T)
    _emit(args, {"norm": value, "witness": witness})
    return 0


def _cmd_attain(args) -> int:
    T = jsonio.load_operator(args.operator)
    M = attainment_set(T)
    _emit(args, M)
    return 0


def _cmd_classify(args) -> int:
    T = jsonio.load_operator(args.operator)
    out = {"operator": T}
    square_same = T.domain.n == T.codomain.n and T.domain.p == T.codomain.p
    if square_same:
        out["is_isometry"] = cf.is_isometry(T)
    if T.domain.p == INF and T.codomain.p == INF and square_same:
        out["row_condition"] = cf.linf_row_condition(T)
    if T.domain.p == 1 and T.codomain.p == 1 and square_same:
        out["column_condition"] = cf.l1_column_condition(T)
    verdict = cf.is_extreme_contraction(T)
    out["extremality"] = {"status": verdict.status, "method": verdict.method}
    if verdict.witness is not None:
        out["extremality"]["witness"] = verdict.witness
    _emit(args, out)
    return 0


def _cmd_isometries(args) -> int:
    s = SpaceSpec(args.p, args.n)
    mats = cf.enumerate_isometries(s)
    _emit(args, {"space": s, "count": len(mats), "matrices": [m.entries for m in mats]})
    return 0


def _cmd_orbit(args) -> int:
    A = jsonio.load_operator(args.operator)
    orbit = cf.equivalence_orbit(A)
    _emit(args, {"size": len(orbit), "members": [m.entries for m in orbit]})
    return 0


def _orbit_sizes(members) -> list:
    """[rank-one orbit size, block orbit size] of the l_inf^3 -> l_1^3 census."""
    names = [cf.census_lookup(m)[0] for m in members]
    return [names.count("rank_one"), names.count("block")]


def _cmd_enumerate_ext(args) -> int:
    members = cf.enumerate_extreme_linf3_l13()
    _emit(
        args,
        {
            "pair": args.pair,
            "count": len(members),
            "orbits": _orbit_sizes(members),
            "members": [m.entries for m in members],
        },
    )
    return 0


_CONSTRUCTIONS = {
    "rank-one": apx.rank_one_approx,
    "linf": apx.linf_extreme_approx,
    "l1": apx.l1_extreme_approx,
    "linf3-l13": apx.linf3_l13_extreme_approx,
    "hilbert": apx.hilbert_rotate_approx,
}


def _cmd_approx(args) -> int:
    T = jsonio.load_operator(args.operator)
    _emit(args, _CONSTRUCTIONS[args.construction](T, args.eps))
    return 0


def _cmd_verify(args) -> int:
    T = jsonio.load_operator(args.T, "T")
    A = jsonio.load_operator(args.A, "A")
    cert = bv.verify_uniform_bpb(T, A, args.eps, resolution=args.resolution)
    _emit(args, cert)
    return 0 if cert.certified else 1


def _cmd_witness_p(args) -> int:
    A = jsonio.load_operator(args.operator)
    _emit(args, bv.property_p_witness(A))
    return 0


def _cmd_epsilon0(args) -> int:
    _emit(args, bv.epsilon0_lp2(args.p))
    return 0


def _cmd_sweep(args) -> int:
    pair = bv.SWEEP_PAIRS[args.pair]
    summary = bv.pair_property_sweep(
        pair.domain,
        pair.codomain,
        args.eps_list,
        trials=args.trials,
        seed=args.seed,
        resolution=args.resolution,
    )
    _emit(args, summary)
    return 0 if not summary.failures else 1


def _demo_checks():
    """Pass/fail checks for the library's headline constants."""
    checks = []

    members = cf.enumerate_extreme_linf3_l13()
    checks.append(("extreme census count is 90", len(members) == 90))
    checks.append(("census orbit sizes are 18 and 72", _orbit_sizes(members) == [18, 72]))
    norms_ok = not any(_not_norm_one(_norm_value(m)) for m in members)
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

    def command(name, help, func, *flags, resolution=False, seed=False):
        """Subcommand `name` running `func`: the (flag, options) pairs of
        `flags`, then --output, --no-timestamp and the optional ones."""
        p = sub.add_parser(name, help=help)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--output", help="write the JSON report to a file")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp for byte-identical outputs",
        )
        if resolution:
            p.add_argument(
                "--resolution",
                type=partial(_int_at_least, lo=1),
                default=bv.DEFAULT_RESOLUTION,
                help="certificate sphere sample size",
            )
        if seed:
            p.add_argument("--seed", type=partial(_int_at_least, lo=0), required=True,
                           help="RNG seed (required)")
        p.set_defaults(func=func)

    operator = ("--operator", {"required": True})
    eps = ("--eps", {"type": _eps_flag, "required": True})
    command("norm", "operator norm with witness", _cmd_norm, operator)
    command("attain", "norm attainment set", _cmd_attain, operator)
    command("classify", "extremality and isometry classification", _cmd_classify, operator)
    command("isometries", "enumerate signed-permutation isometries", _cmd_isometries,
            ("--p", {"type": _exponent_flag, "required": True}),
            ("--n", {"type": partial(_int_at_least, lo=1), "required": True}))
    command("orbit", "two-sided signed-permutation orbit", _cmd_orbit, operator)
    command("enumerate-ext", "enumerate extreme contractions", _cmd_enumerate_ext,
            ("--pair", {"required": True, "choices": ["linf3-l13"]}))
    command("approx", "build an attainment-aware approximant", _cmd_approx, operator, eps,
            ("--construction", {"required": True, "choices": sorted(_CONSTRUCTIONS)}))
    command("verify", "certify or falsify an approximation triple", _cmd_verify,
            ("--T", {"required": True}), ("--A", {"required": True}), eps, resolution=True)
    command("witness-p", "isolation witness for the attainment set", _cmd_witness_p, operator)
    command("epsilon0", "rigidity constant for l_p^2, integer p >= 3", _cmd_epsilon0,
            ("--p", {"type": partial(_int_at_least, lo=3), "required": True}))
    command("sweep", "construct and verify approximants across a pair", _cmd_sweep,
            ("--pair", {"required": True, "choices": sorted(bv.SWEEP_PAIRS)}),
            ("--eps-list", {"type": _eps_list_flag, "default": "0.2", "dest": "eps_list"}),
            ("--trials", {"type": partial(_int_at_least, lo=1), "default": 10}),
            resolution=True, seed=True)
    command("demo", "pass/fail report over the headline constants", _cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a closed pipe raises here, not in the interpreter's final flush
        sys.stdout.flush()
        return code
    except BpbLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout now writes to os.devnull, so the final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
