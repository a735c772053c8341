"""bpblab benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the pass of tasks repeats untraced for S seconds (whole
passes) and the end-to-end metrics are reported: a task's latency is the
median over the passes of its times, scaled to the machine's fast state by
the reference in speed.py; set-up is timed separately in fresh processes.
With --trace 1 one pass runs untraced and one traced, and the per-layer
metrics are reported.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  A full record with
provenance and any failing tasks is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchenv

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
E2E_UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_per_verdict", "_per_trial", "_scale")):
        return "ratio"
    return "count"


def run_task(task, checking=contextlib.nullcontext):
    """Run one task; returns (latency in s, failure reason or None).

    The latency covers the library calls only; the oracle runs after it,
    inside the `checking()` context.
    """
    t0 = time.perf_counter()
    try:
        out = task.run()
    except Exception as exc:
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    with checking():
        try:
            return latency, task.check(out)
        except Exception as exc:
            return latency, f"oracle raised {type(exc).__name__}: {exc}"


def record_failure(failures, index, number, task, why):
    if why is not None:
        failures.append({"pass": index, "task": number, "kind": task.kind, "reason": why})


def timed_run(wl, seconds):
    """Repeat the pass until `seconds` have elapsed (whole passes, at least two).

    Returns each task's latencies, one row per pass, each pass's speed scale
    (see speed.py) and the failures.
    """
    import speed

    tasks = wl.tasks()
    meter = speed.Meter()
    rows, scales, failures = [], [], []
    gc.collect()
    start = time.perf_counter()
    while len(rows) < 2 or time.perf_counter() - start < seconds:
        row = []
        for number, task in enumerate(tasks):
            meter.tick()
            latency, why = run_task(task)
            row.append(latency)
            record_failure(failures, len(rows), number, task, why)
        rows.append(row)
        scales.append(meter.scale())
    return rows, scales, failures, time.perf_counter() - start


def fresh_process(args):
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                         timeout=170, env=benchenv.child_env(), cwd=benchenv.ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {out.stderr.strip()[-2000:]}")
    return out


def setup_seconds(workload, seed, smoke):
    """Median fresh-process set-up time: import + input generation + warm-up."""
    probe = str(Path(__file__).resolve().parent / "probe.py")
    args = [probe, workload, str(seed)] + (["--smoke"] if smoke else [])
    runs = [json.loads(fresh_process(args).stdout.strip().splitlines()[-1])
            for _ in range(1 if smoke else SETUP_REPEATS)]
    return statistics.median(r["setup_s"] * r["speed_scale"] for r in runs), runs


def import_times(smoke):
    """Median cumulative import time (ms) of bpblab and of scipy.optimize."""
    samples = {"import.bpblab_ms": [], "import.scipy_optimize_ms": []}
    for _ in range(1 if smoke else IMPORT_REPEATS):
        err = fresh_process(["-X", "importtime", "-c", "import bpblab"]).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        samples["import.bpblab_ms"].append(cumulative.get("bpblab", 0.0))
        samples["import.scipy_optimize_ms"].append(cumulative.get("scipy.optimize", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def latency_metrics(latencies, failing):
    return {
        "tasks_per_s": (len(latencies) - len(failing)) / sum(latencies),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def end_to_end(wl, args):
    """A task's latency is the median over the passes of its speed-scaled times.

    See speed.py for the scaling.  The unscaled figures go to the record.
    """
    rows, scales, failures, wall = timed_run(wl, args.seconds)
    failing = {f["task"] for f in failures}
    scaled = [[t * s for t in row] for row, s in zip(rows, scales)]
    metrics = latency_metrics([statistics.median(col) for col in zip(*scaled)], failing)
    setup, probes = setup_seconds(args.workload, args.seed, args.smoke)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unscaled = latency_metrics([statistics.median(col) for col in zip(*rows)], failing)
    unscaled["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    detail = {"passes": len(rows), "wall_s": wall, "latency_samples": len(rows[0]),
              "speed_scales": scales, "unscaled": unscaled, "setup_probes": probes}
    return metrics, E2E_UNITS, len(rows) * len(rows[0]), failures, detail


def traced(wl, bp, args):
    """One untraced and one traced pass over the same inputs, input generation included.

    Times are not scaled; trace.speed_scale gives the machine's state (see
    speed.py) for comparing self times across runs.
    """
    import speed
    import tracer as tr

    def one_pass(t):
        failures = []
        start = time.perf_counter()
        if t is not None:
            t.task = "setup"
        tasks = type(wl)(bp, wl.seed, smoke=wl.smoke).tasks()
        for number, task in enumerate(tasks):
            if t is None:
                why = run_task(task)[1]
            else:
                t.task = number
                why = run_task(task, lambda: t.paused_span("bench.oracle"))[1]
            record_failure(failures, 0, number, task, why)
        return time.perf_counter() - start, len(tasks), failures

    meter = speed.Meter(interval=0.0)
    meter.tick()
    gc.collect()
    untraced_wall, n_tasks, failures = one_pass(None)
    t = tr.Tracer()
    t.install(bp)
    try:
        gc.collect()
        wall, _, traced_failures = one_pass(t)
    finally:
        t.uninstall()
    meter.tick()
    metrics, self_total = tr.layer_metrics(t)
    metrics.update(import_times(args.smoke))
    metrics.update({
        "trace.wall_ms": wall * 1e3,
        "trace.untraced_wall_ms": untraced_wall * 1e3,
        "trace.overhead_ms": (wall - untraced_wall) * 1e3,
        "trace.unattributed_ms": (wall - self_total) * 1e3,
        "trace.tasks": n_tasks,
        "trace.spans": len(t.spans),
        "trace.speed_scale": meter.scale(),
    })
    units = {k: layer_unit(k) for k in metrics}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "task", "start", "end", "parent", "attrs"],
                                      "spans": t.spans}))
    detail = {"spans_file": str(spans_path.relative_to(benchenv.ROOT))}
    return metrics, units, 2 * n_tasks, failures + traced_failures, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="two or fewer tasks of each kind and single probes, for tests")
    args = ap.parse_args(argv)

    env_record = benchenv.prepare()
    bp = benchenv.import_bpblab()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](bp, args.seed, smoke=args.smoke)
    wl.warm_up()
    if args.trace:
        metrics, units, attempted, failures, detail = traced(wl, bp, args)
    else:
        metrics, units, attempted, failures, detail = end_to_end(wl, args)

    env = benchenv.provenance(env_record, args.workload, args.seed,
                              seconds=args.seconds, trace=args.trace, smoke=args.smoke)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, **result, "fail_ratio": len(failures) / attempted,
                                  "failures": failures, **detail}, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} tasks, {len(failures)} failed (fail_ratio {len(failures) / attempted:.4g})")
    for f in failures[:20]:
        print(f"  FAILED pass {f['pass']} task {f['task']} [{f['kind']}]: {f['reason']}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(f"  record: {record.relative_to(benchenv.ROOT)}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
