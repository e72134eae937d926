"""Figure-reproduction presets: the published parameter sets, one per figure.

Every preset uses the caption bath (J0 = 1, beta = 0.5, omega_c = 1,
mu = -0.5) and emits a single CSV with one column per plotted curve.
Reproduction is qualitative (curve shapes, orderings, constants): the
published figures do not state the exact spectral-density form.

A preset sweeps the qubit at that one bath, so each build evolves its
parameter sets in a single dynamics.evolve call: gamma(t) is evaluated once
per build, and every column is taken from the same trajectories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, bath, entropy, qsl
from .bath import BACKEND, BathParams, DEFAULT_TOL
from .dynamics import QubitParams, Symmetry, evolve
from .scenario import check_tol, write_csv

CAPTION_BATH = BathParams(j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5)

# PT sweep: theta values at fixed xi = 0.81, alpha = 1, delta = 0.56.
PT_THETAS = (0.0, 0.2, 0.4, 0.6, 0.8, 0.86, 0.9)
PT_BASE = dict(alpha=1.0, xi=0.81, delta=0.56)

# Anti-PT sweep: (xi, delta) pairs at fixed theta = 0.86, alpha = 1.
APT_PAIRS = ((0.81, 0.56), (0.8, 0.5), (0.75, 0.25), (0.65, 0.45))
APT_BASE = dict(alpha=1.0, theta=0.86)

T_MAX = 20.0
N_POINTS = 201


def caption_pt(theta: float = 0.86) -> QubitParams:
    return QubitParams(symmetry=Symmetry.PT, theta=theta, **PT_BASE)


def caption_apt(xi: float = 0.81, delta: float = 0.56) -> QubitParams:
    return QubitParams(symmetry=Symmetry.ANTI_PT, xi=xi, delta=delta, **APT_BASE)


def grid() -> np.ndarray:
    return np.linspace(0.0, T_MAX, N_POINTS)


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    parameters: dict
    build: Callable[[float], tuple[list[str], list[np.ndarray], float]]


def _sweep(symmetry: Symmetry, *quantities: str):
    """Preset builder: a column per quantity and parameter set of the
    class's sweep, grouped by quantity.  The sweep is evolved at most once,
    and every trajectory quantity's column comes from those trajectories."""
    def build(tol: float):
        ts = grid()
        if symmetry is Symmetry.PT:
            cases = [(caption_pt(theta), f"theta_{theta:g}")
                     for theta in PT_THETAS]
        else:
            cases = [(caption_apt(xi, delta), f"xi_{xi:g}_delta_{delta:g}")
                     for xi, delta in APT_PAIRS]
        qubits = [p for p, _ in cases]
        trajs = None
        header, cols = ["t"], [ts]
        max_err = 0.0
        for quantity in quantities:
            if quantity == "phase_function":
                results = [_phase_function(p, ts, tol) for p in qubits]
            else:
                trajs = trajs or evolve(qubits, CAPTION_BATH, ts, tol=tol)
                results = [(_trajectory_column(traj, quantity),
                            traj.max_quad_error) for traj in trajs]
            for (col, err), (_, label) in zip(results, cases):
                max_err = max(max_err, err)
                header.append(f"{quantity}_{label}")
                cols.append(col)
        return header, cols, max_err
    return build


def _phase_function(p: QubitParams, ts: np.ndarray, tol: float):
    if p.symmetry is Symmetry.PT:
        # The published curves plot the negative of the ramp kernel.
        res = bath.omega_pt(ts, p.theta, CAPTION_BATH, tol)
        return -res.value, float(res.abs_error.max())
    # Omega_2 - Omega_1: identical across (xi, delta) pairs.
    o1 = bath.omega1(ts, p.theta, CAPTION_BATH, tol)
    return (bath.omega2(ts, p.theta, CAPTION_BATH) - o1.value,
            float(o1.abs_error.max()))


# Renyi order of each entropy column.
_ORDERS = {"S0": 0.0, "S1": 1.0, "S2": 2.0, "Sinf": math.inf}


def _trajectory_column(traj, quantity: str) -> np.ndarray:
    if quantity == "D":
        return traj.decoherence
    if quantity == "v_qsl":
        return qsl.qsl_series(traj).v_qsl
    if quantity == "S1_closed":
        return entropy.von_neumann_closed_form(traj.decoherence)
    if quantity in _ORDERS:
        q = _ORDERS[quantity]
        return entropy.entropy_series(traj, [q])[q]
    raise ValueError(f"unknown preset quantity {quantity!r}")


def _entropy0_both(tol: float):
    ts = grid()
    traj_pt, traj_apt = evolve([caption_pt(), caption_apt()], CAPTION_BATH,
                               ts, tol=tol)
    cols = [ts, _trajectory_column(traj_pt, "S0"),
            _trajectory_column(traj_apt, "S0")]
    max_err = max(traj_pt.max_quad_error, traj_apt.max_quad_error)
    return ["t", "S0_pt", "S0_apt"], cols, max_err


def _make_presets() -> list[Preset]:
    pt_params = {"bath": "J0=1, beta=0.5, omega_c=1, mu=-0.5",
                 "qubit": "alpha=1, xi=0.81, delta=0.56, "
                          f"theta in {list(PT_THETAS)}"}
    apt_params = {"bath": "J0=1, beta=0.5, omega_c=1, mu=-0.5",
                  "qubit": "alpha=1, theta=0.86, "
                           f"(xi, delta) in {list(APT_PAIRS)}"}
    both_params = {"bath": "J0=1, beta=0.5, omega_c=1, mu=-0.5",
                   "pt": "alpha=1, xi=0.81, delta=0.56, theta=0.86",
                   "apt": "alpha=1, theta=0.86, xi=0.81, delta=0.56"}
    return [
        Preset("fig_pt_phase",
               "PT phase evolution function (negated ramp kernel) vs theta",
               pt_params, _sweep(Symmetry.PT, "phase_function")),
        Preset("fig_pt_decoherence",
               "PT decoherence function D(t) vs theta",
               pt_params, _sweep(Symmetry.PT, "D")),
        Preset("fig_apt_phase",
               "Anti-PT phase evolution function, identical across "
               "(xi, delta) pairs",
               apt_params, _sweep(Symmetry.ANTI_PT, "phase_function")),
        Preset("fig_apt_decoherence",
               "Anti-PT decoherence function D(t) vs (xi, delta)",
               apt_params, _sweep(Symmetry.ANTI_PT, "D")),
        Preset("fig_apt_vs_pt_entropy0",
               "Zero-order Renyi entropy for both classes (constant log 2)",
               both_params, _entropy0_both),
        Preset("fig_pt_qsl",
               "PT speed-limit velocity V_QSL(t) vs theta",
               pt_params, _sweep(Symmetry.PT, "v_qsl")),
        Preset("fig_apt_qsl",
               "Anti-PT speed-limit velocity V_QSL(t) vs (xi, delta)",
               apt_params, _sweep(Symmetry.ANTI_PT, "v_qsl")),
        Preset("fig_pt_entropy1",
               "PT first-order Renyi vs closed-form Von Neumann entropy",
               pt_params, _sweep(Symmetry.PT, "S1", "S1_closed")),
        Preset("fig_apt_entropy1",
               "Anti-PT first-order Renyi vs closed-form Von Neumann entropy",
               apt_params, _sweep(Symmetry.ANTI_PT, "S1", "S1_closed")),
        Preset("fig_pt_entropy2",
               "PT second-order (collision) Renyi entropy vs theta",
               pt_params, _sweep(Symmetry.PT, "S2")),
        Preset("fig_apt_entropy2",
               "Anti-PT second-order (collision) Renyi entropy vs (xi, delta)",
               apt_params, _sweep(Symmetry.ANTI_PT, "S2")),
        Preset("fig_pt_entropy_inf",
               "PT min-entropy vs theta",
               pt_params, _sweep(Symmetry.PT, "Sinf")),
        Preset("fig_apt_entropy_inf",
               "Anti-PT min-entropy vs (xi, delta)",
               apt_params, _sweep(Symmetry.ANTI_PT, "Sinf")),
    ]


PRESETS: dict[str, Preset] = {p.name: p for p in _make_presets()}


def list_presets() -> list[tuple[str, str]]:
    """Stable-ordered (name, description) pairs."""
    return [(p.name, p.description) for p in PRESETS.values()]


def run_preset(name: str, outdir, tol: float = DEFAULT_TOL) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; see list-presets")
    check_tol(tol)
    preset = PRESETS[name]
    header, cols, max_err = preset.build(tol)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_name = f"{name}.csv"
    write_csv(outdir / csv_name, header, cols)
    manifest = {
        "preset": name,
        "description": preset.description,
        "parameters": preset.parameters,
        "grid": {"t_max": T_MAX, "n_points": N_POINTS},
        "tol": tol,
        "version": __version__,
        "backend": BACKEND,
        "files": {name: csv_name},
        "max_quad_error": {name: max_err},
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
