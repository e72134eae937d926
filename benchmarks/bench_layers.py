"""Per-layer timings of nhqubit, best of 7, with the machine facts.

    python benchmarks/bench_layers.py change=src --out BENCH.json
    python benchmarks/bench_layers.py parent=../parent/src change=src \
        --out BENCH.json

Times, in microseconds per call, on the caption bath (J0 = 1, beta = 0.5,
omega_c = 1, mu = -0.5) and linspace(0, 20, n):

- gamma and d gamma/dt at n = 31 and 201
- the unit-theta kernels omega_pt, omega1 and d omega1/dt at n = 201
- the PT state assembly T^-1 rho_d T^-dagger / tr at n = 201
- dynamics.evolve(p, table) calls of the caption PT and Anti-PT qubits
  at n = 201 on a filled table, so each row times the trajectory
  assembly alone: D, the phase and the eigenframe coherence (and
  Anti-PT's analytic norm), not the PT frame map, which a trajectory
  runs on the first read of its states
- pt_frame_201: that first read, traj.p1 on a fresh dataclasses.replace
  copy of the caption PT trajectory at n = 201 (T, np.linalg.inv, the
  state assembly and the physicality check); on a checkout whose
  Trajectory holds its states as fields, the row is the copy alone
- one build each of the presets fig_pt_decoherence and fig_apt_qsl:
  every timed build finds the shared kernel table
  (presets.caption_kernels) filled and its cases evolved, as all builds
  but the first of a process do, so the row is the column extraction
  alone
- one pass of all 13 preset builds from a cold kernel table, as a fresh
  process pays it: the pass evolves each caption qubit once
  (presets.caption_trajectory)
- presets.run_preset for all 13 presets from a cold kernel table, into a
  temporary directory: the builds plus the CSV and manifest writing
- scenario.write_csv on a 201 x 8 table of distinct values (a time column
  and seven sines), where no cell repeats the one above it or an earlier
  column: the bypass of the writer's run and repeated-column paths
- scenario.write_csv of the 13 preset tables, built once untimed: the
  saturated curves repeat 56% of their cells, so this row times the run
  and repeated-column paths
- qsl.qsl_series plus qsl.tau_qsl at 10 horizons, on the caption PT and
  Anti-PT qubits at n = 301 (the analysis workload's grid), each call on
  a fresh dataclasses.replace copy of the trajectory, so no call finds
  speed-limit series that an earlier one computed; the fresh copies
  derive their states too (for PT, the frame map of pt_frame_201)
- entropy.entropy_series over 12 orders on both of those trajectories
- Trajectory.dephasing_frame() of that PT trajectory: the eigenframe
  states the entropies are defined on
- cli_first_run and cli_second_run: the first and the second
  cli.main(["run", CONFIG, "--out", DIR]) of a fresh interpreter, on a
  31-point decoherence-and-phase config of the caption PT qubit, as the
  medians over PROCESSES interpreters per checkout.  Each interpreter is
  started with PYTHONPATH=SRC and PYTHONDONTWRITEBYTECODE=1, as nhbench's
  workers are, and the checkouts alternate.  These rows see what the
  in-process rows cannot: a cost paid once per process

Each LABEL=SRC argument imports the nhqubit package found in SRC, so one
copy of this script measures any checkouts side by side.  Each in-process
quantity is run once untimed, then timed in 7 samples of as many back-to-back
calls as fill 20 ms; the best sample is kept.  Sample r of every
quantity and checkout runs before sample r + 1 of any, the checkouts in
alternating order, so a spell of slow host spreads over all of them.
The result, with the machine facts, is written to --out, which is
required so that no run overwrites a committed BENCH_*.json by default.
numpy and the standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPEATS = 7
SAMPLE_S = 0.02
PROCESSES = 20

# Run by each fresh interpreter: it prints the wall times, in s, of its
# first and its second cli.main call.
FIRST_RUN = """\
import sys, time
from nhqubit import cli
config, out = sys.argv[1:]
times = []
for k in range(2):
    start = time.perf_counter()
    code = cli.main(["run", config, "--out", f"{out}/{k}"])
    times.append(time.perf_counter() - start)
    if code != 0:
        sys.exit(f"cli.main exited {code}")
print(*times)
"""

FIRST_RUN_CONFIG = """\
qubit.symmetry = PT
qubit.alpha = 1.0
qubit.theta = 0.86
qubit.xi = 0.81
qubit.delta = 0.56
bath.j0 = 1.0
bath.omega_c = 1.0
bath.mu = -0.5
bath.beta = 0.5
initial.state = plus
grid.t_max = 20.0
grid.n_points = 31
outputs = decoherence, phase
"""


def best_us(calls: dict) -> dict:
    """{key: best of REPEATS samples of the wall time per call of fn(), in
    us} for calls {key: fn}; a sample makes as many calls as the untimed
    first call says fill SAMPLE_S."""
    number = {}
    for key, fn in calls.items():
        start = time.perf_counter()
        fn()
        number[key] = max(1, int(SAMPLE_S / (time.perf_counter() - start)))
    best = dict.fromkeys(calls, float("inf"))
    keys = list(calls)
    for r in range(REPEATS):
        for key in (keys if r % 2 == 0 else keys[::-1]):
            fn = calls[key]
            start = time.perf_counter()
            for _ in range(number[key]):
                fn()
            best[key] = min(best[key],
                            (time.perf_counter() - start) / number[key])
    return {key: round(t * 1e6, 1) for key, t in best.items()}


def git_rev(src: Path) -> str | None:
    """The checkout's commit, marked -dirty with uncommitted changes."""
    try:
        out = subprocess.run(["git", "-C", str(src), "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def load(src: Path):
    """The nhqubit modules under src, imported afresh."""
    for name in [m for m in sys.modules if m.split(".")[0] == "nhqubit"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return tuple(importlib.import_module(f"nhqubit.{m}")
                     for m in ("bath", "dynamics", "scenario", "presets",
                               "qsl", "entropy"))
    finally:
        sys.path.remove(str(src))


def calls_for(src: Path, csv_path: Path) -> dict:
    """{name: fn} of the quantities, for the package in src."""
    bath, dynamics, scenario, presets, qsl, entropy = load(src)
    b = presets.CAPTION_BATH
    calls = {}
    for n in (31, 201):
        grid = np.linspace(0.0, 20.0, n)
        calls[f"gamma_{n}"] = lambda ts=grid: bath.gamma(ts, b)
        calls[f"gamma_rate_{n}"] = lambda ts=grid: bath.gamma_rate(ts, b)
    ts = np.linspace(0.0, 20.0, 201)
    for name in ("omega_pt", "omega1", "omega1_rate"):
        calls[f"{name}_unit_201"] = (
            lambda kernel=getattr(bath, name): kernel(ts, 1.0, b))

    qubit = presets.caption_pt()
    traj = dynamics.evolve_pt(qubit, b, ts)
    t_inv = np.linalg.inv(dynamics.transformation_matrix(qubit))
    rho0 = traj.rho0_diag
    coherences = rho0.c * np.exp(1j * traj.phase) * traj.decoherence
    calls["pt_assembly_201"] = (
        lambda: dynamics._physical_states(t_inv, rho0.p1, rho0.p2,
                                          coherences))

    table = bath.Kernels(ts, b)
    for label, p in (("pt", qubit), ("apt", presets.caption_apt())):
        dynamics.evolve(p, table)  # fills the table
        calls[f"evolve_{label}_201"] = lambda p=p: dynamics.evolve(p, table)
    calls["pt_frame_201"] = lambda traj=traj: dataclasses.replace(traj).p1

    for name in ("fig_pt_decoherence", "fig_apt_qsl"):
        calls[f"build_{name}"] = (
            lambda preset=presets.PRESETS[name]:
            preset.build(bath.DEFAULT_TOL))

    def presets_pass():
        presets.caption_kernels.cache_clear()
        for preset in presets.PRESETS.values():
            preset.build(bath.DEFAULT_TOL)

    calls["presets_pass_13"] = presets_pass

    def presets_run():
        presets.caption_kernels.cache_clear()
        for name in presets.PRESETS:
            presets.run_preset(name, csv_path.with_suffix("") / name)

    calls["presets_run_13"] = presets_run

    header = ["t"] + [f"col{j}" for j in range(7)]
    columns = [ts] + [np.sin((j + 1) * ts) for j in range(7)]
    calls["write_csv_201x8"] = (
        lambda: scenario.write_csv(csv_path, header, columns))
    tables = [preset.build(bath.DEFAULT_TOL)[:2]
              for preset in presets.PRESETS.values()]

    def write_presets():
        for header, columns in tables:
            scenario.write_csv(csv_path, header, columns)

    calls["write_csv_presets_13"] = write_presets

    grid = np.linspace(0.0, 20.0, 301)
    horizons = grid[30::30]
    pair = (dynamics.evolve_pt(qubit, b, grid),
            dynamics.evolve_apt(presets.caption_apt(), b, grid))
    for label, traj in zip(("pt", "apt"), pair):
        def speed_limits(traj=traj):
            fresh = dataclasses.replace(traj)
            qsl.qsl_series(fresh)
            for h in horizons:
                qsl.tau_qsl(fresh, h)
        calls[f"qsl_tau10_{label}_301"] = speed_limits
    orders = (0.0, 0.5, 0.7, 1.0, 1.4, 2.0, 2.5, 3.0, 3.6, 4.2, 5.3,
              math.inf)
    calls["entropy_12_orders_301"] = lambda: [
        entropy.entropy_series(traj, orders) for traj in pair]
    calls["dephasing_frame_pt_301"] = pair[0].dephasing_frame
    return calls


def first_runs(sources: dict, tmp: Path) -> dict:
    """{label: {"cli_first_run": us, "cli_second_run": us}}, the medians
    over PROCESSES fresh interpreters per checkout of FIRST_RUN's times."""
    config = tmp / "first_run.cfg"
    config.write_text(FIRST_RUN_CONFIG)
    samples = {label: [] for label in sources}
    labels = list(sources)
    for r in range(PROCESSES):
        for label in (labels if r % 2 == 0 else labels[::-1]):
            env = {**os.environ, "PYTHONPATH": str(sources[label]),
                   "PYTHONDONTWRITEBYTECODE": "1"}
            out = subprocess.run(
                [sys.executable, "-c", FIRST_RUN, str(config),
                 str(tmp / f"first_run_{label}_{r}")],
                env=env, capture_output=True, text=True, check=True,
                timeout=120)
            samples[label].append(
                [float(v) for v in out.stdout.splitlines()[-1].split()])
    return {label: {name: round(statistics.median(times) * 1e6, 1)
                    for name, times in zip(("cli_first_run",
                                            "cli_second_run"),
                                           zip(*pairs))}
            for label, pairs in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=SRC",
                        help="a label and the directory holding nhqubit")
    parser.add_argument("--out", type=Path, required=True,
                        help="the JSON file to write")
    args = parser.parse_args(argv)

    sources = {}
    for item in args.checkouts:
        label, sep, src = item.partition("=")
        if not (sep and label and src):
            parser.error(f"expected LABEL=SRC, got {item!r}")
        sources[label] = Path(src).resolve()

    runs, calls = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, src in sources.items():
            fns = calls_for(src, Path(tmp) / f"{label}.csv")
            calls.update({(label, name): fn for name, fn in fns.items()})
            runs[label] = {"git_rev": git_rev(src), "times": {}}
        for (label, name), value in best_us(calls).items():
            runs[label]["times"][name] = value
        for label, medians in first_runs(sources, Path(tmp)).items():
            runs[label]["first_runs"] = medians

    result = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "repeats": REPEATS,
        "unit": "us per call, best of repeats",
        "first_runs": {"processes": PROCESSES,
                       "unit": "us per call, median over processes"},
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    names = list(next(iter(runs.values()))["times"])
    print(f"{'':28s}" + "".join(f"{label:>12s}" for label in runs))
    for name in names:
        print(f"{name:28s}" + "".join(f"{run['times'][name]:12.1f}"
                                      for run in runs.values()))
    for name in ("cli_first_run", "cli_second_run"):
        print(f"{name:28s}" + "".join(f"{run['first_runs'][name]:12.1f}"
                                      for run in runs.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
