"""Figure-reproduction presets: the published parameter sets, one per figure.

Every preset uses the caption bath (J0 = 1, beta = 0.5, omega_c = 1,
mu = -0.5) and emits a single CSV with one column per plotted curve.
Reproduction is qualitative (curve shapes, orderings, constants): the
published figures do not state the exact spectral-density form.
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
from .dynamics import QubitParams, Symmetry, evolve_apt, evolve_pt
from .scenario import write_csv

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


def _pt_label(theta: float) -> str:
    return f"theta_{theta:g}"

def _apt_label(xi: float, delta: float) -> str:
    return f"xi_{xi:g}_delta_{delta:g}"


def _pt_sweep(quantity: str, tol: float):
    ts = grid()
    header, cols = ["t"], [ts]
    max_err = 0.0
    for theta in PT_THETAS:
        p = caption_pt(theta)
        if quantity == "phase_function":
            # The published curves plot the negative of the ramp kernel.
            res = bath.omega_pt(ts, theta, CAPTION_BATH, tol)
            max_err = max(max_err, float(res.abs_error.max()))
            col = -res.value
        else:
            traj = evolve_pt(p, CAPTION_BATH, ts, tol=tol)
            max_err = max(max_err, traj.max_quad_error)
            col = _trajectory_column(traj, quantity)
        header.append(f"{quantity}_{_pt_label(theta)}")
        cols.append(col)
    return header, cols, max_err


def _apt_sweep(quantity: str, tol: float):
    ts = grid()
    header, cols = ["t"], [ts]
    max_err = 0.0
    for xi, delta in APT_PAIRS:
        p = caption_apt(xi, delta)
        if quantity == "phase_function":
            # Omega_2 - Omega_1: identical across (xi, delta) pairs.
            o1 = bath.omega1(ts, p.theta, CAPTION_BATH, tol)
            max_err = max(max_err, float(o1.abs_error.max()))
            col = bath.omega2(ts, p.theta, CAPTION_BATH) - o1.value
        else:
            traj = evolve_apt(p, CAPTION_BATH, ts, tol=tol)
            max_err = max(max_err, traj.max_quad_error)
            col = _trajectory_column(traj, quantity)
        header.append(f"{quantity}_{_apt_label(xi, delta)}")
        cols.append(col)
    return header, cols, max_err


def _trajectory_column(traj, quantity: str) -> np.ndarray:
    if quantity == "D":
        return traj.decoherence
    if quantity == "v_qsl":
        return qsl.qsl_series(traj).v_qsl
    if quantity == "S1":
        return entropy.entropy_series(traj, [1.0])[1.0]
    if quantity == "S1_closed":
        return np.array(
            [entropy.von_neumann_closed_form(d) for d in traj.decoherence]
        )
    if quantity == "S2":
        return entropy.entropy_series(traj, [2.0])[2.0]
    if quantity == "Sinf":
        return entropy.entropy_series(traj, [math.inf])[math.inf]
    raise ValueError(f"unknown preset quantity {quantity!r}")


def _entropy0_both(tol: float):
    ts = grid()
    traj_pt = evolve_pt(caption_pt(), CAPTION_BATH, ts, tol=tol)
    traj_apt = evolve_apt(caption_apt(), CAPTION_BATH, ts, tol=tol)
    cols = [ts,
            np.array([entropy.renyi0(s) for s in traj_pt.dephasing_states()]),
            np.array([entropy.renyi0(s) for s in traj_apt.dephasing_states()])]
    max_err = max(traj_pt.max_quad_error, traj_apt.max_quad_error)
    return ["t", "S0_pt", "S0_apt"], cols, max_err


def _entropy1_sweep(sweep, tol: float):
    # Solid (order-1 Renyi) and dotted (closed-form Von Neumann) curves.
    h1, c1, e1 = sweep("S1", tol)
    h2, c2, e2 = sweep("S1_closed", tol)
    return h1 + h2[1:], c1 + c2[1:], max(e1, e2)


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
               pt_params, lambda tol: _pt_sweep("phase_function", tol)),
        Preset("fig_pt_decoherence",
               "PT decoherence function D(t) vs theta",
               pt_params, lambda tol: _pt_sweep("D", tol)),
        Preset("fig_apt_phase",
               "Anti-PT phase evolution function, identical across "
               "(xi, delta) pairs",
               apt_params, lambda tol: _apt_sweep("phase_function", tol)),
        Preset("fig_apt_decoherence",
               "Anti-PT decoherence function D(t) vs (xi, delta)",
               apt_params, lambda tol: _apt_sweep("D", tol)),
        Preset("fig_apt_vs_pt_entropy0",
               "Zero-order Renyi entropy for both classes (constant log 2)",
               both_params, _entropy0_both),
        Preset("fig_pt_qsl",
               "PT speed-limit velocity V_QSL(t) vs theta",
               pt_params, lambda tol: _pt_sweep("v_qsl", tol)),
        Preset("fig_apt_qsl",
               "Anti-PT speed-limit velocity V_QSL(t) vs (xi, delta)",
               apt_params, lambda tol: _apt_sweep("v_qsl", tol)),
        Preset("fig_pt_entropy1",
               "PT first-order Renyi vs closed-form Von Neumann entropy",
               pt_params, lambda tol: _entropy1_sweep(_pt_sweep, tol)),
        Preset("fig_apt_entropy1",
               "Anti-PT first-order Renyi vs closed-form Von Neumann entropy",
               apt_params, lambda tol: _entropy1_sweep(_apt_sweep, tol)),
        Preset("fig_pt_entropy2",
               "PT second-order (collision) Renyi entropy vs theta",
               pt_params, lambda tol: _pt_sweep("S2", tol)),
        Preset("fig_apt_entropy2",
               "Anti-PT second-order (collision) Renyi entropy vs (xi, delta)",
               apt_params, lambda tol: _apt_sweep("S2", tol)),
        Preset("fig_pt_entropy_inf",
               "PT min-entropy vs theta",
               pt_params, lambda tol: _pt_sweep("Sinf", tol)),
        Preset("fig_apt_entropy_inf",
               "Anti-PT min-entropy vs (xi, delta)",
               apt_params, lambda tol: _apt_sweep("Sinf", tol)),
    ]


PRESETS: dict[str, Preset] = {p.name: p for p in _make_presets()}


def list_presets() -> list[tuple[str, str]]:
    """Stable-ordered (name, description) pairs."""
    return [(p.name, p.description) for p in PRESETS.values()]


def run_preset(name: str, outdir, tol: float = DEFAULT_TOL) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; see list-presets")
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
