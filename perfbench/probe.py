"""Fresh-process set-up probe for one workload.

    python3 perfbench/probe.py WORKLOAD SEED [--smoke]

Times `import bpblab`, the workload's input generation and its warm-up in a
new interpreter, and prints them as one JSON object (seconds).
"""

import json
import sys
import time

import benchenv


def main(argv):
    benchenv.prepare()
    t0 = time.perf_counter()
    bp = benchenv.import_bpblab()
    t1 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[argv[0]](bp, int(argv[1]), smoke="--smoke" in argv)
    t2 = time.perf_counter()
    wl.warm_up()
    t3 = time.perf_counter()
    import speed

    meter = speed.Meter(interval=0.0)
    for _ in range(3):
        meter.tick()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2,
                      "setup_s": t3 - t0, "speed_scale": meter.scale()}))


if __name__ == "__main__":
    main(sys.argv[1:])
