"""Checkout layout, pinned child environment and recorded machine facts."""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
from functools import cache
from pathlib import Path
from time import perf_counter_ns

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT_DIR = BENCH_DIR / ".out"  # run outputs; listed in .gitignore

# Knobs of the package that would change what is measured: unset them.
UNSET_VARS = ("NHQUBIT_THREADS", "NHQUBIT_FORCE_PYTHON")
PINNED_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


# Host-speed calibration.  The machine this benchmark was written on
# changes speed by up to half within a minute (another tenant's load; CPU
# time tracks wall time, so it is not scheduling).  Workers time this fixed
# mix of interpreter work and kernel-like numpy work on arrays beyond the
# L1/L2 caches between ops; run.py rescales each op time by
# CALIBRATION_REF_NS / (the calibrations around the op), giving times at
# one reference host speed.  The constant is the kernel's time on that
# machine when it ran fast, so rescaled times read as that machine's fast
# milliseconds; raw times are kept in the report.
CALIBRATION_REF_NS = 4_000_000
_CAL_X = np.linspace(0.01, 40.0, 50_000)


def calibration_ns() -> int:
    """Faster of two runs of the calibration kernel, in ns."""
    best = None
    for _ in range(2):
        start = perf_counter_ns()
        total = 0.0
        for i in range(3000):
            total += (i * 0.5) ** 0.5
        for _ in range(2):
            total += float(np.sum(_CAL_X ** 0.7 * np.exp(-_CAL_X)
                                  * np.sin(3.0 * _CAL_X) ** 2
                                  / np.tanh(0.5 * _CAL_X)))
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class MissingCheckout(RuntimeError):
    """The package sources or the test oracle are not where expected."""


def require_checkout() -> None:
    for path in (SRC / "nhqubit" / "__init__.py", ORACLES):
        if not path.is_file():
            raise MissingCheckout(f"{path.relative_to(ROOT)} not found: run "
                                  "from a checkout of the repository")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
    env.update(PINNED_VARS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@cache
def import_oracles():
    """tests/oracles.py, loaded read-only without putting tests/ on sys.path."""
    require_checkout()
    spec = importlib.util.spec_from_file_location("nhbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git_rev() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    """Facts of the orchestrating process; package facts come from a child."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "env": {**PINNED_VARS, **{k: None for k in UNSET_VARS}},
    }
