"""Locate the checked-out library and fix the benchmark's process environment.

`prepare()` must run before numpy is imported: it pins the BLAS pools to one
thread (the benchmark is a single closed-loop client with no worker threads)
and clears BPBLAB_DEFAULT_RESOLUTION so every resolution is the one the
workload states.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "bpblab"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Set up the environment; returns a record of what was changed."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bpblab sources at {PACKAGE}")
    previous = os.environ.pop("BPBLAB_DEFAULT_RESOLUTION", None)
    blas = {v: os.environ.get(v) for v in BLAS_VARS}
    for v in BLAS_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(SRC))
    return {
        "BPBLAB_DEFAULT_RESOLUTION": {"cleared": True, "previous": previous},
        "blas_threads": {v: {"set": "1", "previous": blas[v]} for v in BLAS_VARS},
    }


def import_bpblab():
    """Import bpblab from the checkout, never from an installed copy."""
    import bpblab

    if Path(bpblab.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: bpblab imported from {bpblab.__file__}, not {PACKAGE}")
    return bpblab


def child_env():
    """Environment for fresh-process probes: the checkout's src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def provenance(env_record, workload, seed, **extra):
    import numpy
    import platform
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        **extra,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **env_record,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
