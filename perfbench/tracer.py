"""Layer tracing from outside the library.

Each listed public function is wrapped, and the wrapper is bound in place
of the original under every name a `bpblab` module holds it by, so calls
between modules are seen too.  A span records name, task id, start, end,
parent and a few counters; spans stay in memory until the run ends.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) of every function traced with a span.
TRACED = (
    ("spaces", "enumerate_faces"),
    ("spaces", "arc_length_constant"),
    ("spaces", "arc_length_total"),
    ("sampling", "sphere_grid"),
    ("optim", "golden_section_min"),
    ("operators", "op_norm"),
    ("operators", "attainment_set"),
    ("classify", "is_extreme_contraction"),
    ("classify", "linprog"),
    ("classify", "is_isometry"),
    ("classify", "enumerate_isometries"),
    ("approximants", "rank_one_approx"),
    ("approximants", "linf_extreme_approx"),
    ("approximants", "l1_extreme_approx"),
    ("approximants", "linf3_l13_extreme_approx"),
    ("approximants", "hilbert_rotate_approx"),
    ("approximants", "direct_sum_shrink_approx"),
    ("bpbverify", "verify_uniform_bpb"),
    ("bpbverify", "is_only_approximation"),
    ("bpbverify", "property_p_witness"),
)
CONSTRUCTIONS = [name for mod, name in TRACED if mod == "approximants"]
GEOMS = ("l1", "linf", "l2", "lp2")
KINDS = ("faces", "points", "subspace")
RESOLUTION_BUCKETS = (256, 4096, 16384)

NAME, TASK, START, END, PARENT, ATTRS = range(6)


def _geom(space):
    if space.p == 1:
        return "l1"
    if space.p == float("inf"):
        return "linf"
    return "l2" if space.p == 2 else "lp2"


class Tracer:
    """Installs span-recording wrappers into the loaded bpblab modules."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.task = None
        self.active = False
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        rec = [name, self.task, 0.0, 0.0, self.stack[-1] if self.stack else -1, {}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def paused_span(self, name):
        """A span around benchmark code, with layer tracing off inside it."""
        rec = self._open(name)
        self.active = False
        try:
            yield
        finally:
            self.active = True
            self._close(rec)

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                if before is not None:
                    args = before(rec, args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                after(rec, out)
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, bp):
        sampling = sys.modules["bpblab.sampling"]
        cache = getattr(sampling, "_cached_grid", None)

        def hits():
            return cache.cache_info().hits if hasattr(cache, "cache_info") else 0

        def op_norm_name(rec, args, kwargs):
            rec[NAME] = f"operators.op_norm.{_geom(args[0].domain)}"
            return args

        def grid_before(rec, args, kwargs):
            rec[ATTRS]["hits"] = hits()
            return args

        def grid_after(rec, out):
            rec[ATTRS]["hits"] = hits() - rec[ATTRS]["hits"]
            rec[ATTRS]["points"] = len(out)

        def golden_before(rec, args, kwargs):
            f = args[0]

            def counted(x):
                rec[ATTRS]["f_evals"] = rec[ATTRS].get("f_evals", 0) + 1
                return f(x)

            return (counted,) + tuple(args[1:])

        def argument(name):
            """Record the value a call binds to parameter `name`."""
            def make(fn):
                sig = inspect.signature(fn)

                def before(rec, args, kwargs):
                    ba = sig.bind(*args, **kwargs)
                    ba.apply_defaults()
                    rec[ATTRS][name] = ba.arguments.get(name)
                    return args
                return before
            return make

        def attainment_after(rec, out):
            rec[NAME] = f"operators.attainment_set.{out.kind}"

        def verify_after(rec, out):
            rec[ATTRS]["certified"] = bool(out.certified)

        def faces_after(rec, out):
            rec[ATTRS]["faces"] = len(out)

        # attribute -> (factory of the before-hook given the function, after-hook)
        hooks = {
            "op_norm": (lambda fn: op_norm_name, None),
            "sphere_grid": (lambda fn: grid_before, grid_after),
            "golden_section_min": (lambda fn: golden_before, None),
            "attainment_set": (argument("resolution"), attainment_after),
            "enumerate_faces": (None, faces_after),
            "verify_uniform_bpb": (argument("resolution"), verify_after),
            "is_only_approximation": (argument("trials"), None),
        }
        for modname, attr in TRACED:
            fn = getattr(sys.modules.get(f"bpblab.{modname}"), attr, None)
            if fn is None:
                continue  # the function is gone; its metrics read 0
            make_before, after = hooks.get(attr, (None, None))
            before = make_before(fn) if make_before else None
            self._rebind(fn, self._wrap(fn, f"{modname}.{attr}", before, after))

        pnorm = getattr(sys.modules["bpblab.spaces"], "pnorm", None)
        if pnorm is not None:
            self._rebind(pnorm, self._counting(pnorm, "spaces.pnorm.calls"))

        cls = getattr(bp, "AttainmentSet", None)
        if cls is not None and hasattr(cls, "distance_to"):
            fn = cls.distance_to

            def rows(rec, args, kwargs):
                rec[ATTRS]["rows"] = len(np.atleast_2d(args[1]))
                return args

            cls.distance_to = self._wrap(fn, "operators.distance_to", rows)
            self._undo.append((cls, "distance_to", fn))
        self.active = True

    def _counting(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bpblab" or modname.startswith("bpblab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self time of every span, in seconds, in span order."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]


def layer_metrics(tracer):
    """Per-layer counts and self times; every name is present, 0 if unused."""
    spans, selfs = tracer.spans, tracer.self_times()
    calls, self_ms = Counter(), defaultdict(float)
    for rec, st in zip(spans, selfs):
        calls[rec[NAME]] += 1
        self_ms[rec[NAME]] += st * 1e3

    def attr_sum(name, key, where=lambda rec: True):
        return sum(r[ATTRS].get(key, 0) for r in spans if r[NAME] == name and where(r))

    def child_of(parent_name):
        return lambda r: r[PARENT] >= 0 and spans[r[PARENT]][NAME] == parent_name

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def layer(name):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = self_ms[name]

    for g in GEOMS:
        layer(f"operators.op_norm.{g}")
    for k in KINDS:
        layer(f"operators.attainment_set.{k}")
    attain = [r for r in spans if r[NAME].startswith("operators.attainment_set")]
    for b in RESOLUTION_BUCKETS:
        m[f"operators.attainment_set.resolution_hist.r{b}"] = sum(
            r[ATTRS].get("resolution") == b for r in attain)
    m["operators.attainment_set.resolution_hist.other"] = sum(
        r[ATTRS].get("resolution") not in RESOLUTION_BUCKETS for r in attain)

    layer("operators.distance_to")
    m["operators.distance_to.rows"] = attr_sum("operators.distance_to", "rows")

    grid = "sampling.sphere_grid"
    layer(grid)
    m[f"{grid}.points"] = attr_sum(grid, "points")
    m[f"{grid}.cache_hit_ratio"] = ratio(attr_sum(grid, "hits"), calls[grid])

    layer("spaces.enumerate_faces")
    m["spaces.enumerate_faces.faces"] = attr_sum("spaces.enumerate_faces", "faces")
    m["spaces.pnorm.calls"] = tracer.counts["spaces.pnorm.calls"]
    layer("spaces.arc_length_constant")
    layer("spaces.arc_length_total")

    layer("optim.golden_section_min")
    m["optim.golden_section_min.f_evals"] = attr_sum("optim.golden_section_min", "f_evals")

    layer("classify.is_extreme_contraction")
    layer("classify.linprog")
    m["classify.lp_per_verdict"] = ratio(calls["classify.linprog"],
                                         calls["classify.is_extreme_contraction"])
    layer("classify.is_isometry")
    layer("classify.enumerate_isometries")

    for c in CONSTRUCTIONS:
        layer(f"approximants.{c}")

    verify = "bpbverify.verify_uniform_bpb"
    layer(verify)
    m[f"{verify}.samples"] = attr_sum(grid, "points", child_of(verify))
    m[f"{verify}.certified_ratio"] = ratio(attr_sum(verify, "certified"), calls[verify])
    m[f"{verify}.ma_resolution_mismatch"] = sum(
        1 for r in attain
        if child_of(verify)(r)
        and r[ATTRS].get("resolution") != spans[r[PARENT]][ATTRS].get("resolution"))

    only = "bpbverify.is_only_approximation"
    layer(only)
    trials = attr_sum(only, "trials")
    m[f"{only}.trials"] = trials
    verifies = sum(1 for r in spans if r[NAME] == verify and child_of(only)(r))
    m[f"{only}.verify_per_trial"] = ratio(verifies, trials)

    layer("bpbverify.property_p_witness")
    layer("bench.oracle")
    return m, sum(selfs)
