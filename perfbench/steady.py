"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--save perfbench/results/NAME.json]

Runs the command of BENCHMARK.json once per (workload, seed), one run at a
time, from the repository root.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is
the interquartile distance as a share of the median, next to the metric's
bound.  A spread above a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["env"]


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save", help="write the summary as JSON to this path")
    args = ap.parse_args(argv)

    metrics = bench["end_to_end"]
    summary = {}
    flagged = 0
    for workload in args.workloads.split(","):
        runs, envs = [], []
        for seed in seed_list(args.seeds):
            res, env = run_once(bench, workload, seed)
            runs.append(res)
            envs.append(env)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        summary[workload] = {"correct": all(r["correct"] for r in runs),
                             "attempted": [r["attempted"] for r in runs],
                             "failed": [r["failed"] for r in runs], "env": envs,
                             "metrics": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summarise(values)
            summary[workload]["metrics"][m["name"]] = s
            bound = m["bound"]
            flag = ""
            if s["spread"] is not None and s["spread"] > bound / 3:
                flag = "  <-- above bound/3"
                flagged += 1
            print(f"  {m['name']:<28} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f" bound {bound}{flag}", flush=True)
    if args.save:
        path = ROOT / args.save
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seeds": seed_list(args.seeds),
                                    "run_seconds": bench["run_seconds"], "workloads": summary},
                                   indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
