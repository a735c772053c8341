"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Smoke runs of every workload (a few tasks of each kind, about a second of
measuring), the output contract against BENCHMARK.json, the refusal to run
without the library sources, and one corrupted result per oracle.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchenv  # noqa: E402

benchenv.prepare()
bp = benchenv.import_bpblab()

import oracles as orc  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_meets_output_contract(workload, trace):
    out = run_bench(benchenv.ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # self times plus the unattributed remainder make up the traced wall time
        total = sum(v for k, v in values.items() if k.endswith(".self_ms"))
        assert total + values["trace.unattributed_ms"] == pytest.approx(values["trace.wall_ms"])
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, "poly-rigidity", 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# ---------------------------------------------------------------------------
# Each oracle rejects a corrupted result.
# ---------------------------------------------------------------------------


def test_smooth_oracle_rejects_norm_off_by_1e_3():
    wl = workloads.Smooth2D(bp, 5, smoke=True)
    for kind, T in wl.cases:
        if kind == "hadamard":
            value, M = bp.op_norm(T)[0], bp.attainment_set(T)
            assert orc.check_hadamard(T, value, M) is None
            assert orc.check_hadamard(T, value + 1e-3, M) is not None
        elif T.domain.hilbert:
            value, M = bp.op_norm(T)[0], bp.attainment_set(T)
            report = bp.hilbert_rotate_approx(T, 0.3)
            cert = bp.verify_uniform_bpb(T, report.approximant, 0.3, resolution=4096)
            assert orc.check_hilbert(bp, T, value, M, report, cert, 0.3, 4096) is None
            assert orc.check_hilbert(bp, T, value + 1e-3, M, report, cert, 0.3, 4096) is not None
        else:
            value, M = bp.op_norm(T)[0], bp.attainment_set(T)
            assert orc.check_smooth_attainment(T, value, M) is None
            assert "norm" in orc.check_smooth_attainment(T, value + 1e-3, M)


def test_poly_oracle_rejects_approximant_with_other_attainment_set():
    s = bp.linf(2)
    T = bp.operator([[1.0, 0.0], [-1.0, 0.0]], s, s)
    report = bp.linf_extreme_approx(T, 0.3)
    cert = bp.verify_uniform_bpb(T, report.approximant, 0.3, resolution=4096)
    assert orc.check_poly_approximant(bp, T, report, cert, 0.3, 4096) is None
    # norm one and 0.2 from T, but attaining only at four vertices
    A = bp.operator([[0.9, 0.1], [-0.9, 0.1]], s, s)
    bad = dataclasses.replace(report, approximant=A, distance=0.2)
    assert "attainment" in orc.check_poly_approximant(bp, T, bad, cert, 0.3, 4096)


def test_extremality_oracle_rejects_flipped_verdicts():
    census = bp.enumerate_extreme_linf3_l13()[0]
    verdict = bp.is_extreme_contraction(census)
    assert orc.check_extremality(census, verdict, True) is None
    flipped = dataclasses.replace(verdict, status="not_extreme", witness=0.1 * np.ones((3, 3)))
    assert orc.check_extremality(census, flipped, True) is not None
    assert orc.check_extremality(census, flipped, False) is not None  # the witness leaves the ball

    wl = workloads.CensusClassify(bp, 5, smoke=True)
    _, dense, _ = wl.cases[-1]
    verdict = bp.is_extreme_contraction(dense)
    assert orc.check_extremality(dense, verdict, False) is None
    assert orc.check_extremality(dense, dataclasses.replace(verdict, status="extreme"), False)
    assert orc.check_extremality(dense, dataclasses.replace(verdict, witness=None), False)


def test_certificate_oracle_rejects_vacuous_certificate():
    # An empty sample certifies anything: resolution 0 yields "certified"
    # for a pair that a real sample falsifies.
    s = bp.l2(2)
    T = bp.operator([[1.0, 0.0], [0.0, 0.5]], s, s)
    A = bp.operator([[0.5, 0.0], [0.0, 1.0]], s, s)
    cert = bp.verify_uniform_bpb(T, A, 0.6, resolution=0)
    if cert.certified:
        assert "vacuous" in orc.check_certificate(bp, T, cert, 0.6, 0)
    # The projection onto the diagonal attains off the four axis points of a
    # resolution-4 grid, where ||Tz|| = 0.707: delta 0.01 leaves no sample.
    T = bp.operator([[0.5, 0.5], [0.5, 0.5]], s, s)
    vacuous = bp.BpbCertificate("certified", 0.3, 0.01, 4, 0.0, None, 0.1)
    assert "vacuous" in orc.check_certificate(bp, T, vacuous, 0.3, 4)
    sound = dataclasses.replace(vacuous, delta_found=0.5)
    assert orc.check_certificate(bp, T, sound, 0.3, 4) is None


def test_rigidity_oracle_rejects_found_approximation():
    s = bp.linf(2)
    T = bp.enumerate_isometries(s)[0]
    res = bp.is_only_approximation(T, 0.5, trials=3, seed=0, resolution=256)
    assert orc.check_rigidity(bp, T, res, 3) is None
    found = dataclasses.replace(res, found=True)
    assert orc.check_rigidity(bp, T, found, 3) is not None

