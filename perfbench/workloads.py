"""The four benchmark workloads: seeded inputs, tasks and their oracles.

A task is one top-level library call of the workload's kind (or the short
chain of calls a user makes to get one checked answer).  Each workload is
chosen so that one layer does most of its work:

- poly-rigidity: many tiny polyhedral calls (op_norm vertex loop, face loop).
- poly-certify: the same polyhedral layers on 16k-row sample arrays.
- census-classify: the LP extremality test, which no other workload calls.
- smooth-2d: golden-section search and arc tables; no polyhedral code.

Inputs depend only on the seed.  A pass is a fixed list of tasks; a timed
run repeats the same pass, so every run has the same task mix and every
task is timed several times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as orc


class SetupError(RuntimeError):
    """The workload inputs contradict a known result before any task runs."""


@dataclass(frozen=True)
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _isometry_count(n):
    return 2 ** n * math.factorial(n)


def _census(bp):
    """The 90 extreme contractions l_inf^3 -> l_1^3, checked against 18/72."""
    members = bp.enumerate_extreme_linf3_l13()
    if len(members) != 90:
        raise SetupError(f"census has {len(members)} members, expected 90")
    orbits = {"rank_one": 0, "block": 0}
    for T in members:
        hit = bp.classify.census_lookup(T)
        if hit is None:
            raise SetupError("census member not found by census_lookup")
        orbits[hit[0]] += 1
    if orbits != {"rank_one": 18, "block": 72}:
        raise SetupError(f"census orbits {orbits}, expected 18/72")
    return members


def _condition_matrix(rng, n):
    """One +/-1 per row, columns not all distinct (not a signed permutation)."""
    while True:
        cols = rng.integers(0, n, size=n)
        if len(set(cols.tolist())) < n:
            break
    M = np.zeros((n, n))
    M[np.arange(n), cols] = rng.choice([-1.0, 1.0], size=n)
    return M


class Workload:
    name = ""

    def __init__(self, bp, seed, smoke=False):
        self.bp = bp
        self.seed = seed
        self.smoke = smoke
        self.rng = np.random.default_rng(seed)

    def tasks(self):
        """The tasks of one pass, in order."""
        raise NotImplementedError

    def warm_up(self):
        """Run one task of each kind untimed; fills caches such as the grids."""
        seen = set()
        for task in self.tasks():
            if task.kind not in seen:
                seen.add(task.kind)
                try:
                    task.check(task.run())
                except Exception:
                    pass  # the same task fails again in the measured pass, which counts it

    def _few(self, items, k=2):
        return items[:k] if self.smoke else items


class PolyRigidity(Workload):
    """is_only_approximation on every signed-permutation isometry (112)."""

    name = "poly-rigidity"
    EPS, TRIALS, RESOLUTION = 0.5, 10, 256

    def __init__(self, bp, seed, smoke=False):
        super().__init__(bp, seed, smoke)
        self.isometries = []
        for s in (bp.linf(2), bp.l1(2), bp.linf(3), bp.l1(3)):
            isos = bp.enumerate_isometries(s)
            if len(isos) != _isometry_count(s.n) or not all(bp.is_isometry(T) for T in isos):
                raise SetupError(f"isometry group of {s} is wrong")
            self.isometries += [(str(s), T) for T in self._few(isos)]
        self.trial_seeds = self.rng.integers(0, 2 ** 31, size=len(self.isometries))

    def tasks(self):
        return [self._task(kind, T, int(s)) for (kind, T), s in zip(self.isometries, self.trial_seeds)]

    def _task(self, kind, T, seed):
        bp = self.bp

        def run():
            return bp.is_only_approximation(
                T, self.EPS, trials=self.TRIALS, seed=seed, resolution=self.RESOLUTION
            )

        return Task(kind, run, lambda out: orc.check_rigidity(bp, T, out, self.TRIALS))


class PolyCertify(Workload):
    """Construct and certify: 90 census members plus 50 condition matrices."""

    name = "poly-certify"
    EPS, RESOLUTION = 0.3, 16384
    # 20 of the slowest kind, l_1^3, keep the 90th percentile inside that group
    PLAN = (("linf", 2, 10), ("linf", 3, 10), ("l1", 2, 10), ("l1", 3, 20))

    def __init__(self, bp, seed, smoke=False):
        super().__init__(bp, seed, smoke)
        self.triples = [("census", T, bp.linf3_l13_extreme_approx) for T in self._few(_census(bp))]
        for path, n, count in self.PLAN:
            s = getattr(bp, path)(n)
            for _ in range(1 if smoke else count):
                M = _condition_matrix(self.rng, n)
                if path == "l1":
                    T, make = bp.operator(M.T, s, s), bp.l1_extreme_approx
                else:
                    T, make = bp.operator(M, s, s), bp.linf_extreme_approx
                self.triples.append((str(s), T, make))

    def tasks(self):
        return [self._task(kind, T, make) for kind, T, make in self.triples]

    def _task(self, kind, T, make):
        bp = self.bp

        def run():
            report = make(T, self.EPS)
            return report, bp.verify_uniform_bpb(T, report.approximant, self.EPS, resolution=self.RESOLUTION)

        def check(out):
            return orc.check_poly_approximant(bp, T, out[0], out[1], self.EPS, self.RESOLUTION)

        return Task(kind, run, check)


class CensusClassify(Workload):
    """Extremality verdicts: 90 census members and 60 dense operators."""

    name = "census-classify"
    PAIRS = ((("linf", 3), ("l1", 3)), (("linf", 3), ("linf", 3)),
             (("l1", 3), ("l1", 3)), (("linf", 2), ("l1", 2)))
    DENSE_PER_PAIR = 15

    def __init__(self, bp, seed, smoke=False):
        super().__init__(bp, seed, smoke)
        self.cases = [("census", T, True) for T in self._few(_census(bp))]
        for (dp, dn), (cp, cn) in self.PAIRS:
            dom, cod = getattr(bp, dp)(dn), getattr(bp, cp)(cn)
            for _ in range(1 if smoke else self.DENSE_PER_PAIR):
                M = self.rng.standard_normal((cn, dn))
                M /= orc.poly_norm(M, orc.pf(dom), orc.pf(cod))
                T = bp.operator(M, dom, cod)
                if bp.classify.census_lookup(T) is not None:
                    raise SetupError("a dense operator landed in the census")
                self.cases.append((f"{dom}->{cod}", T, False))

    def tasks(self):
        return [self._task(kind, T, extreme) for kind, T, extreme in self.cases]

    def _task(self, kind, T, extreme):
        bp = self.bp
        return Task(kind, lambda: bp.is_extreme_contraction(T),
                    lambda out: orc.check_extremality(T, out, extreme))


class Smooth2D(Workload):
    """Norm, attainment set and witness or certificate on smooth spaces."""

    name = "smooth-2d"
    EXPONENTS = ("3", "4", "4/3", "3/2")
    PER_SPACE = 20
    EPS, RESOLUTION = 0.3, 16384

    def __init__(self, bp, seed, smoke=False):
        super().__init__(bp, seed, smoke)
        count = 1 if smoke else self.PER_SPACE
        self.cases = []
        for p in self.EXPONENTS:
            s = bp.lp(p, 2)
            for _ in range(count):
                M = self.rng.standard_normal((2, 2))
                M /= orc.smooth_maximisers(M, orc.pf(s), orc.pf(s))[0]
                self.cases.append((str(s), bp.operator(M, s, s)))
        # as many fast l_2^3 tasks as slow p = 3, 4 ones, so that the median
        # sits in the middle of the p = 4/3, 3/2 group
        s = bp.l2(3)
        for _ in range(2 * count):
            M = self.rng.standard_normal((3, 3))
            M /= orc.l2_top(M)[0]
            self.cases.append((str(s), bp.operator(M, s, s)))
        s = bp.lp(4, 2)
        self.cases.append(("hadamard", bp.operator([[1.0, 1.0], [1.0, -1.0]], s, s)))

    def tasks(self):
        return [self._task(kind, T) for kind, T in self.cases]

    def _task(self, kind, T):
        bp = self.bp
        dom = T.domain
        if kind == "hadamard":
            return Task(kind, lambda: (bp.op_norm(T)[0], bp.attainment_set(T)),
                        lambda out: orc.check_hadamard(T, *out))
        if dom.hilbert:
            def run():
                value, _ = bp.op_norm(T)
                M = bp.attainment_set(T)
                report = bp.hilbert_rotate_approx(T, self.EPS)
                cert = bp.verify_uniform_bpb(T, report.approximant, self.EPS, resolution=self.RESOLUTION)
                return value, M, report, cert

            return Task(kind, run, lambda out: orc.check_hilbert(
                bp, T, *out, self.EPS, self.RESOLUTION))
        if dom.p.denominator == 1:
            def run():
                return bp.op_norm(T)[0], bp.attainment_set(T), bp.property_p_witness(T)

            return Task(kind, run, lambda out: orc.check_smooth_attainment(T, out[0], out[1])
                        or orc.check_witness(T, out[1], out[2]))
        return Task(kind, lambda: (bp.op_norm(T)[0], bp.attainment_set(T)),
                    lambda out: orc.check_smooth_attainment(T, *out))


WORKLOADS = {w.name: w for w in (PolyRigidity, PolyCertify, CensusClassify, Smooth2D)}
