"""Byte-for-byte CLI outputs under --no-timestamp.

Each `tests/golden/<name>.out` holds the stdout of one subcommand, recorded
before the kernels behind it were consolidated; `witness_p_linf2` was
recorded before the per-type serialisers became `jsonio.to_json`,
`sweep_linf2` when the sweep's pairs became one table, and the four smooth-path cases (`*_lp3_2`, `verify_l23`)
before the norm kernels became coordinate-major.  `verify_l23` was
re-recorded with the same argv when l_2^3 sampling moved from the
Fibonacci sphere to the radial cross-polytope grid of `sampling`: only
its `worst_distance` changed (0.18409904725818974 -> 0.1701325562461556).
The three `verify` cases were re-recorded with the same argv when
certificates on l_1^n and l_inf^n domains became exact, computed on the
corner set of `sampling.corner_points` in place of the sphere grid, and
gained the field `basis` ("exact" there, "sampled" on l_2^3).  The worst
distance is now taken over the corners above the level: in
`verify_certified` 0.12316715542521994 -> 0.0 (its delta stays 0.125), in
`verify_falsified` 0.9990224828934506 -> 0.2, with the counterexample
(-0.00098, -1) -> (-0.8, -1); `verify_l23` gained the field only.
`verify_linf3_exact` was recorded then: the grid at 4096 certified it with
delta 0.0625, which is false (z = (0.94, 1, 0.94) has ||Tz|| = 0.94 and
d(z, M_A) = 0.06 >= eps); the exact delta is 0.03125.
The two `approx_rank_one_*` cases (a rank-one census member l_inf^3 ->
l_1^3 and a rank-one l_inf^3 -> l_3^2 operator) were recorded before the
rank-one tilt's bisection began deciding eight halvings per call, and
`norm_lp43_2` (an l_{4/3}^2 -> l_3^2 operator, the search off integer p)
before the l_p^2 maximum search lost its per-call copies, and
`attain_lp43_2` (its points attainment set) before the norm analysis of
l_p^2 and Hilbert operators was memoised.
`verify_l23` was re-recorded with the same argv when certificates on
l_2^n (n >= 3) became exact, read off the S-lemma's secular solve in
place of the sphere grid: its delta stays 0.0078125 (the exact g is
0.99130), its `basis` went "sampled" -> "exact" and its worst distance,
now the exact supremum, 0.1701325562461556 -> 0.1894648359860743.
`verify_l23_exact` was recorded then, on an l_2^3 operator of the
smooth-2d benchmark workload (seed 1) and the approximant of
`hilbert_rotate_approx` at eps 0.3: the grid at 4096 certified it with
delta 0.03125, which is false (a far point has ||Tz|| = 0.97083 > 0.96875);
the exact delta is 0.015625.
The four smooth-path cases and the two `*_lp43_2` cases go through
`pow`, trigonometry and, for l_2^3, LAPACK, and the two rank-one cases
through LAPACK's SVD (and `pow` on l_3^2), whose last bits may vary with
the platform; they were recorded with numpy 2.4 on x86-64 Linux.  The other
cases avoid such results, and `demo` prints only check names and pass
flags.
"""

import json
from pathlib import Path

import pytest

from bpblab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv with operator files relative to GOLDEN, exit code)
CASES = {
    "norm_l13": (["norm", "--operator", "l13_mixed.json"], 0),
    "norm_census": (["norm", "--operator", "census_block.json"], 0),
    "attain_l13": (["attain", "--operator", "l13_mixed.json"], 0),
    "attain_linf2": (["attain", "--operator", "linf2_double.json"], 0),
    "classify_census": (["classify", "--operator", "census_block.json"], 0),
    "isometries_p3_n2": (["isometries", "--p", "3", "--n", "2"], 0),
    "orbit_census": (["orbit", "--operator", "census_block.json"], 0),
    "enumerate_ext": (["enumerate-ext", "--pair", "linf3-l13"], 0),
    "approx_linf": (
        ["approx", "--operator", "linf2_double.json", "--eps", "0.2", "--construction", "linf"],
        0,
    ),
    "approx_rank_one_census": (
        ["approx", "--operator", "census_rank_one.json", "--eps", "0.3", "--construction", "rank-one"],
        0,
    ),
    "approx_rank_one_l32": (
        ["approx", "--operator", "linf3_l32_rank_one.json", "--eps", "0.2", "--construction", "rank-one"],
        0,
    ),
    "verify_certified": (
        ["verify", "--T", "linf2_double.json", "--A", "linf2_double_approx.json", "--eps", "0.2"],
        0,
    ),
    "verify_falsified": (
        ["verify", "--T", "linf2_identity.json", "--A", "linf2_shrunk.json", "--eps", "0.2"],
        1,
    ),
    "demo": (["demo"], 0),
    "witness_p_linf2": (["witness-p", "--operator", "linf2_double.json"], 0),
    "norm_lp3_2": (["norm", "--operator", "lp3_2_unit.json"], 0),
    "norm_lp43_2": (["norm", "--operator", "lp43_2.json"], 0),
    "attain_lp3_2": (["attain", "--operator", "lp3_2_unit.json"], 0),
    "attain_lp43_2": (["attain", "--operator", "lp43_2.json"], 0),
    "witness_p_lp3_2": (["witness-p", "--operator", "lp3_2_unit.json"], 0),
    "verify_l23": (["verify", "--T", "l23_T.json", "--A", "l23_A.json", "--eps", "0.2"], 0),
    "verify_l23_exact": (
        ["verify", "--T", "l23_smooth_T.json", "--A", "l23_smooth_A.json", "--eps", "0.3"],
        0,
    ),
    "verify_linf3_exact": (
        ["verify", "--T", "linf3_double.json", "--A", "linf3_double_approx.json", "--eps", "0.05"],
        0,
    ),
    "sweep_linf2": (
        [
            "sweep", "--pair", "linf2", "--trials", "2", "--seed", "1",
            "--resolution", "256", "--eps-list", "0.2,2.5",
        ],
        1,
    ),
}


def golden_argv(argv):
    return [str(GOLDEN / a) if a.endswith(".json") else a for a in argv] + ["--no-timestamp"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("BPBLAB_DEFAULT_RESOLUTION", raising=False)
    argv, code = CASES[name]
    assert main(golden_argv(argv)) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_demo_passes_every_check(capsys):
    assert main(["demo", "--no-timestamp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 0
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])
