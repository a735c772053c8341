"""Differential test of the table-driven sweep against the branch-driven one.

`old_pair_property_sweep` is the sweep as it was before `SWEEP_PAIRS`, kept
verbatim in logic: four candidate branches with `n <= 3` guards, a
per-operator `is_isometry` skip, and `_route` to pick the constructor.
Every pair of the table, every seed, gives the same summary under both,
field for field, except the old `skipped_isometries` count, which the
families (none holds an isometry) always left at 0.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from bpblab import approximants as apx
from bpblab.bpbverify import (
    SWEEP_PAIRS,
    SweepFailure,
    _check_int,
    _random_linf_candidates,
    pair_property_sweep,
    verify_uniform_bpb,
)
from bpblab.classify import enumerate_extreme_linf3_l13, is_isometry
from bpblab.errors import UnsupportedPairError
from bpblab.jsonio import to_json
from bpblab.operators import OperatorMatrix, op_norm
from bpblab.spaces import INF


@dataclass(frozen=True)
class OldSweepSummary:
    pair: tuple
    total: int
    certified: int
    preserved: int
    skipped_isometries: int
    failures: tuple


def _route(T, eps):
    dom, cod = T.domain, T.codomain
    if dom.p == INF and cod.p == INF:
        return apx.linf_extreme_approx(T, eps)
    if dom.p == 1 and cod.p == 1:
        return apx.l1_extreme_approx(T, eps)
    if dom.p == INF and cod.p == 1 and dom.n == 3:
        return apx.linf3_l13_extreme_approx(T, eps)
    if dom.hilbert and cod.hilbert:
        return apx.hilbert_rotate_approx(T, eps)
    raise UnsupportedPairError(f"no constructor route for {dom} -> {cod}")


def old_pair_property_sweep(spaceX, spaceY, eps_list, trials, seed, resolution=1024):
    trials = _check_int(trials, "trials", 1)
    rng = np.random.default_rng(seed)
    candidates = []
    same = spaceX.n == spaceY.n and spaceX.p == spaceY.p
    if spaceX.p == INF and spaceY.p == INF and same and spaceX.n <= 3:
        for M in _random_linf_candidates(spaceX.n, trials, rng):
            candidates.append(OperatorMatrix(M, spaceX, spaceY))
    elif spaceX.p == 1 and spaceY.p == 1 and same and spaceX.n <= 3:
        for M in _random_linf_candidates(spaceX.n, trials, rng):
            candidates.append(OperatorMatrix(M.T, spaceX, spaceY))
    elif spaceX.p == INF and spaceX.n == 3 and spaceY.p == 1 and spaceY.n == 3:
        candidates.extend(enumerate_extreme_linf3_l13()[:trials])
    elif spaceX.hilbert and spaceY.hilbert and same and spaceX.n <= 3:
        while len(candidates) < trials:
            M = rng.standard_normal((spaceX.n, spaceX.n))
            v, _ = op_norm(OperatorMatrix(M, spaceX, spaceY))
            M = M / v
            cand = OperatorMatrix(M, spaceX, spaceY)
            if np.abs(M.T @ M - np.eye(spaceX.n)).max() < 1e-3:
                continue
            candidates.append(cand)
    else:
        raise UnsupportedPairError(f"unsupported pair {spaceX} -> {spaceY}")
    total = certified = preserved = skipped = 0
    failures = []
    for T in candidates:
        if same and is_isometry(T):
            skipped += 1
            continue
        for eps in eps_list:
            total += 1
            try:
                report = _route(T, eps)
            except Exception as exc:
                failures.append(SweepFailure(T, eps, f"constructor: {exc}"))
                continue
            cert = verify_uniform_bpb(T, report.approximant, eps, resolution=resolution)
            if cert.certified:
                certified += 1
            else:
                failures.append(SweepFailure(T, eps, "verification falsified"))
            if report.attainment_preserved:
                preserved += 1
            else:
                failures.append(SweepFailure(T, eps, "attainment not preserved"))
    return OldSweepSummary(
        (str(spaceX), str(spaceY)), total, certified, preserved, skipped, tuple(failures)
    )


# every constructor refuses eps = 2.5, so each draw also yields a failure
EPS_LIST = [0.2, 2.5]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SWEEP_PAIRS))
def test_table_sweep_matches_the_branch_sweep(name, seed):
    pair = SWEEP_PAIRS[name]
    args = (pair.domain, pair.codomain, EPS_LIST)
    new = to_json(pair_property_sweep(*args, trials=3, seed=seed, resolution=256))
    old = to_json(old_pair_property_sweep(*args, trials=3, seed=seed, resolution=256))
    assert old.pop("skipped_isometries") == 0
    assert new == old
    assert new["total"] == 3 * len(EPS_LIST)
    assert sum(f["reason"].startswith("constructor: eps") for f in new["failures"]) == 3


@pytest.mark.parametrize("name", sorted(SWEEP_PAIRS))
def test_no_family_draws_an_isometry(name):
    pair = SWEEP_PAIRS[name]
    draws = pair.draw(200, np.random.default_rng(0))
    assert draws
    if pair.domain == pair.codomain:
        for M in draws:
            assert not is_isometry(OperatorMatrix(M, pair.domain, pair.codomain))
    assert all(math.isclose(op_norm(OperatorMatrix(M, pair.domain, pair.codomain))[0], 1.0)
               for M in draws)
