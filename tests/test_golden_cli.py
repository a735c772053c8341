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
The four `approx_rank_one_*_eps_*` cases run the same two operators at the
tilt's extremes, eps 1e-12 (where the bisection stops on the relative
width, t near 1.25e-13) and eps 3.9; they were recorded before the
bisection's later calls began evaluating g along one predicted halving path.
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
`classify_linf3_double` (an extreme l_inf^3 -> l_inf^3 operator) and
`classify_l13` (a non-extreme l_1^3 -> l_1^3 operator) were recorded
while the rank test decided both, and re-recorded with the same argv when
extremality on l_inf codomains became the rows test and on l_1 domains the
columns test: the method went "rank" -> "rows" and "rank" -> "columns",
and the witness of `classify_l13`, an SVD null vector with entries such as
5.9e-17, became the exact [[0, 0.5, 0], [0, 0.5, 0], [0, 0, 0]].
`norm_linf3_double` and `attain_linf3_double` (the l_inf^3 -> l_inf^3
operator of `classify_linf3_double`) were recorded before the stacked
polyhedral norms took closed forms (the largest row l_1 sum there).
`approx_hilbert_l23_smooth` and `approx_hilbert_l23` (the direct-sum
shrink of `hilbert_rotate_approx` on the two l_2^3 operators of the
`verify` cases) and `sweep_l23` were recorded before that constructor
read its split off the held SVD.
`verify_l13_exact` (an `l1_extreme_approx` triple on l_1^3, the first
golden certificate on an l_1^n domain) and `verify_linf5_exact` (a
`linf_extreme_approx` triple on l_inf^5, whose 242 x 992 corner table
exceeds the table's budget of 2^16 distances) were recorded before the
corner table became immutable.
`attain_linf5_double` (the l_inf^5 operator of `verify_linf5_exact`, whose
set is 8 facets) was recorded before the maximal faces of an attained-face
mask were memoised across operators.
The four sampled `verify` cases were recorded before the grid's sample
arrays stopped being kept per thread from call to call: they are the
only goldens certified on the sphere grid.  `verify_l22_sampled` and
`verify_l24_sampled` are `hilbert_rotate_approx` triples at eps 0.3 on
diag(1, 0.5) (l_2^2, delta 0.03125) and diag(1, 1, 0.6, 0.3) (l_2^4,
where dim M_A = 2 = n - 2 falls back to the grid; delta 0.015625);
`verify_l22_falsified` pairs diag(1, 0.99) with diag(0.99, 1), whose
counterexample (-1, 0) is a grid row; `verify_lp3_2_sampled` is the
l_3^2 operator of `norm_lp3_2` against itself at resolution 16384.
`classify_linf2_l13_fallback` and `classify_linf4_l14_block` were recorded
while one SVD of the active facet normals decided every rank-route verdict.
The first (l_inf^2 -> l_1^3) has 6 active normals of exact rank 5, so the
Cholesky certificate refuses it; the second is the census block member
padded to l_inf^4 -> l_1^4, an extreme verdict past 3 x 3.  The first was
re-recorded with the same argv when fraction-free integer elimination
replaced the SVD: its witness, an SVD null vector with entries such as
0.24999999999999994 and 1.3160525346802132e-16, became the exact
[[0.25, 0.25], [0, 0], [0.25, 0.25]].
The four smooth-path cases and the two `*_lp43_2` cases go through
`pow`, trigonometry and, for l_2^3, LAPACK, the two rank-one cases
through LAPACK's SVD (and `pow` on l_3^2), the three l_2^3 `approx`
and `sweep` cases through LAPACK, and the four sampled `verify` cases
through the grid's trigonometry, `pow` and LAPACK, whose last bits may vary with
the platform; they were recorded with numpy 2.4 on x86-64 Linux.  The other
cases avoid such results, and `demo` prints only check names and pass
flags.
"""

import json
from pathlib import Path

import pytest

from bpblab import bpbverify, operators
from bpblab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv with operator files relative to GOLDEN, exit code)
CASES = {
    "norm_l13": (["norm", "--operator", "l13_mixed.json"], 0),
    "norm_census": (["norm", "--operator", "census_block.json"], 0),
    "attain_l13": (["attain", "--operator", "l13_mixed.json"], 0),
    "attain_linf2": (["attain", "--operator", "linf2_double.json"], 0),
    "norm_linf3_double": (["norm", "--operator", "linf3_double.json"], 0),
    "attain_linf3_double": (["attain", "--operator", "linf3_double.json"], 0),
    "attain_linf5_double": (["attain", "--operator", "linf5_double.json"], 0),
    "classify_census": (["classify", "--operator", "census_block.json"], 0),
    "classify_linf3_double": (["classify", "--operator", "linf3_double.json"], 0),
    "classify_l13": (["classify", "--operator", "l13_mixed.json"], 0),
    "classify_linf2_l13_fallback": (["classify", "--operator", "linf2_l13_fallback.json"], 0),
    "classify_linf4_l14_block": (["classify", "--operator", "linf4_l14_block.json"], 0),
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
    "approx_rank_one_census_eps_tiny": (
        ["approx", "--operator", "census_rank_one.json", "--eps", "1e-12", "--construction", "rank-one"],
        0,
    ),
    "approx_rank_one_census_eps_large": (
        ["approx", "--operator", "census_rank_one.json", "--eps", "3.9", "--construction", "rank-one"],
        0,
    ),
    "approx_rank_one_l32_eps_tiny": (
        ["approx", "--operator", "linf3_l32_rank_one.json", "--eps", "1e-12", "--construction", "rank-one"],
        0,
    ),
    "approx_rank_one_l32_eps_large": (
        ["approx", "--operator", "linf3_l32_rank_one.json", "--eps", "3.9", "--construction", "rank-one"],
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
    "verify_l13_exact": (
        ["verify", "--T", "l13_column.json", "--A", "l13_column_approx.json", "--eps", "0.2"],
        0,
    ),
    "verify_linf5_exact": (
        ["verify", "--T", "linf5_double.json", "--A", "linf5_double_approx.json", "--eps", "0.3"],
        0,
    ),
    "verify_l22_sampled": (
        ["verify", "--T", "l22_T.json", "--A", "l22_A.json", "--eps", "0.3"],
        0,
    ),
    "verify_l22_falsified": (
        ["verify", "--T", "l22_near.json", "--A", "l22_near_swap.json", "--eps", "0.3"],
        1,
    ),
    "verify_lp3_2_sampled": (
        ["verify", "--T", "lp3_2_unit.json", "--A", "lp3_2_unit.json", "--eps", "0.3", "--resolution", "16384"],
        0,
    ),
    "verify_l24_sampled": (
        ["verify", "--T", "l24_T.json", "--A", "l24_A.json", "--eps", "0.3"],
        0,
    ),
    "sweep_linf2": (
        [
            "sweep", "--pair", "linf2", "--trials", "2", "--seed", "1",
            "--resolution", "256", "--eps-list", "0.2,2.5",
        ],
        1,
    ),
    "approx_hilbert_l23_smooth": (
        ["approx", "--operator", "l23_smooth_T.json", "--construction", "hilbert", "--eps", "0.3"],
        0,
    ),
    "approx_hilbert_l23": (
        ["approx", "--operator", "l23_T.json", "--construction", "hilbert", "--eps", "0.3"],
        0,
    ),
    "sweep_l23": (
        ["sweep", "--pair", "l23", "--trials", "6", "--seed", "1", "--eps-list", "0.1,0.3"],
        0,
    ),
}


def golden_argv(argv):
    return [str(GOLDEN / a) if a.endswith(".json") else a for a in argv] + ["--no-timestamp"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    argv, code = CASES[name]
    assert main(golden_argv(argv)) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_demo_passes_every_check(capsys):
    assert main(["demo", "--no-timestamp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 0
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])


def polyhedral(argv):
    """Whether a case runs on l_1^n or l_inf^n domains only: every operator
    file's domain, or the `--pair` of an enumeration or sweep."""
    if "--pair" in argv:
        return not argv[argv.index("--pair") + 1].startswith("l2")
    files = [json.loads((GOLDEN / a).read_text()) for a in argv if a.endswith(".json")]
    return bool(files) and all(str(f["domain"]["p"]) in ("1", "inf") for f in files)


def test_polyhedral_goldens_hold_on_warm_caches(capsys):
    # twice in one process, in reverse sorted order, from cleared caches:
    # a memoised mask or corner vector that a caller mutated, or that
    # another case left behind, would change the bytes of a later case
    names = sorted((n for n, (argv, _) in CASES.items() if polyhedral(argv)), reverse=True)
    assert len(names) >= 20 and "attain_linf5_double" in names
    operators._mask_faces.cache_clear()
    bpbverify._corner_distances.cache_clear()
    for _ in range(2):
        for name in names:
            argv, code = CASES[name]
            assert main(golden_argv(argv)) == code, name
            assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(), name
    assert operators._mask_faces.cache_info().hits > 0
    assert bpbverify._corner_distances.cache_info().hits > 0
