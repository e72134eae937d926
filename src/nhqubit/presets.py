"""Figure-reproduction presets: the published parameter sets, one per figure.

A preset is data: labelled qubit cases times plotted quantities, all in
the caption bath (J0 = 1, beta = 0.5, omega_c = 1, mu = -0.5) on
linspace(0, 20, 201).  Its one CSV holds a column per quantity and case,
grouped by quantity, and scenario.emit writes it with its manifest, as
for a scenario run.  A build at tol reads its kernels, each evaluated
at most once per table, from the bath.Kernels table of the caption bath
and grid at that tol (caption_kernels(tol), one per tol value, made on
first use and shared by the process), and its trajectories through
caption_trajectory, which evolves each caption qubit at most once per
table and shares the (frozen) trajectory with every later build.  The
phase-function presets plot dynamics.phase_function on the same table: F
for Anti-PT and -F for PT, as the published figures do.
caption_kernels.cache_clear() drops every table with its trajectories.
Reproduction is qualitative (curve shapes, orderings, constants): the
published figures do not state the exact spectral-density form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bath, entropy, qsl
from .bath import BathParams, DEFAULT_TOL
from .dynamics import (QubitParams, Symmetry, Trajectory, evolve,
                       phase_function)
from .scenario import check_tol, emit

CAPTION_BATH = BathParams(j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5)

# PT sweep: theta values at fixed xi = 0.81, alpha = 1, delta = 0.56.
PT_THETAS = (0.0, 0.2, 0.4, 0.6, 0.8, 0.86, 0.9)
PT_BASE = dict(alpha=1.0, xi=0.81, delta=0.56)

# Anti-PT sweep: (xi, delta) pairs at fixed theta = 0.86, alpha = 1.
APT_PAIRS = ((0.81, 0.56), (0.8, 0.5), (0.75, 0.25), (0.65, 0.45))
APT_BASE = dict(alpha=1.0, theta=0.86)

T_MAX = 20.0
N_POINTS = 201


@functools.cache
def _caption(tol: float) -> tuple[bath.Kernels, dict]:
    """The caption table at tol and its {qubit: trajectory} memo, cached by
    the tol value alone, however caption_kernels was called."""
    return (bath.Kernels(np.linspace(0.0, T_MAX, N_POINTS), CAPTION_BATH,
                         tol), {})


def caption_kernels(tol: float = DEFAULT_TOL) -> bath.Kernels:
    """The kernel table of the caption bath and grid at tol, one per tol
    value, shared by the process; its grid is read-only, as every build's
    time column and trajectories share it."""
    return _caption(tol)[0]


caption_kernels.cache_clear = _caption.cache_clear


def caption_trajectory(p: QubitParams, tol: float = DEFAULT_TOL) -> Trajectory:
    """The trajectory of qubit p in the caption bath and grid at tol,
    evolved on caption_kernels(tol) at most once per table and shared by
    every build that asks for it; evolve gives a qubit the same bits on
    any table of its bath and grid, so sharing moves no output."""
    kernels, memo = _caption(tol)
    if p not in memo:
        memo[p] = evolve(p, kernels)
    return memo[p]


def caption_pt(theta: float = 0.86) -> QubitParams:
    return QubitParams(symmetry=Symmetry.PT, theta=theta, **PT_BASE)


def caption_apt(xi: float = 0.81, delta: float = 0.56) -> QubitParams:
    return QubitParams(symmetry=Symmetry.ANTI_PT, xi=xi, delta=delta, **APT_BASE)


# (label, qubit) cases: each class's sweep, and one qubit of each class.
PT_CASES = tuple((f"theta_{theta:g}", caption_pt(theta)) for theta in PT_THETAS)
APT_CASES = tuple((f"xi_{xi:g}_delta_{delta:g}", caption_apt(xi, delta))
                  for xi, delta in APT_PAIRS)
BOTH_CASES = (("pt", caption_pt()), ("apt", caption_apt()))

_BATH_TEXT = "J0=1, beta=0.5, omega_c=1, mu=-0.5"
_PT_PARAMETERS = {"bath": _BATH_TEXT,
                  "qubit": "alpha=1, xi=0.81, delta=0.56, "
                           f"theta in {list(PT_THETAS)}"}
_APT_PARAMETERS = {"bath": _BATH_TEXT,
                   "qubit": "alpha=1, theta=0.86, "
                            f"(xi, delta) in {list(APT_PAIRS)}"}
_BOTH_PARAMETERS = {"bath": _BATH_TEXT,
                    "pt": "alpha=1, xi=0.81, delta=0.56, theta=0.86",
                    "apt": "alpha=1, theta=0.86, xi=0.81, delta=0.56"}


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    parameters: dict
    cases: tuple[tuple[str, QubitParams], ...]
    quantities: tuple[str, ...]

    def build(self, tol: float) -> tuple[list[str], list[np.ndarray], float]:
        """(header, columns, max_err): t, then a column per quantity and
        case, grouped by quantity.  The trajectories are caption_trajectory's,
        shared with every other build of the process."""
        kernels = caption_kernels(tol)
        qubits = [p for _, p in self.cases]
        header, cols = ["t"], [kernels.ts]
        max_err = 0.0
        for quantity in self.quantities:
            if quantity == "phase_function":
                results = [_phase_function(p, kernels) for p in qubits]
            else:
                results = [_trajectory_column(caption_trajectory(p, tol),
                                              quantity) for p in qubits]
            for (col, err), (label, _) in zip(results, self.cases):
                max_err = max(max_err, err)
                header.append(f"{quantity}_{label}")
                cols.append(col)
        return header, cols, max_err


def _phase_function(p: QubitParams, kernels: bath.Kernels):
    f, res = phase_function(p, kernels)
    # The published PT curves plot the negative of the ramp kernel.
    return (-f if p.symmetry is Symmetry.PT else f,
            float(res.abs_error.max()))


# Renyi order of each entropy column.
_ORDERS = {"S0": 0.0, "S1": 1.0, "S2": 2.0, "Sinf": math.inf}


def _trajectory_column(traj, quantity: str) -> tuple[np.ndarray, float]:
    """The quantity on traj and the worst bound of the kernels it read."""
    if quantity == "v_qsl":
        series = qsl.qsl_series(traj)
        return series.v_qsl, series.max_quad_error
    if quantity == "D":
        return traj.decoherence, traj.max_quad_error
    if quantity == "S1_closed":
        return (entropy.von_neumann_closed_form(traj.decoherence),
                traj.max_quad_error)
    if quantity in _ORDERS:
        q = _ORDERS[quantity]
        return entropy.entropy_series(traj, [q])[q], traj.max_quad_error
    raise ValueError(f"unknown preset quantity {quantity!r}")


PRESETS: dict[str, Preset] = {p.name: p for p in (
    Preset("fig_pt_phase",
           "PT phase evolution function (negated ramp kernel) vs theta",
           _PT_PARAMETERS, PT_CASES, ("phase_function",)),
    Preset("fig_pt_decoherence",
           "PT decoherence function D(t) vs theta",
           _PT_PARAMETERS, PT_CASES, ("D",)),
    Preset("fig_apt_phase",
           "Anti-PT phase evolution function, identical across "
           "(xi, delta) pairs",
           _APT_PARAMETERS, APT_CASES, ("phase_function",)),
    Preset("fig_apt_decoherence",
           "Anti-PT decoherence function D(t) vs (xi, delta)",
           _APT_PARAMETERS, APT_CASES, ("D",)),
    Preset("fig_apt_vs_pt_entropy0",
           "Zero-order Renyi entropy for both classes (constant log 2)",
           _BOTH_PARAMETERS, BOTH_CASES, ("S0",)),
    Preset("fig_pt_qsl",
           "PT speed-limit velocity V_QSL(t) vs theta",
           _PT_PARAMETERS, PT_CASES, ("v_qsl",)),
    Preset("fig_apt_qsl",
           "Anti-PT speed-limit velocity V_QSL(t) vs (xi, delta)",
           _APT_PARAMETERS, APT_CASES, ("v_qsl",)),
    Preset("fig_pt_entropy1",
           "PT first-order Renyi vs closed-form Von Neumann entropy",
           _PT_PARAMETERS, PT_CASES, ("S1", "S1_closed")),
    Preset("fig_apt_entropy1",
           "Anti-PT first-order Renyi vs closed-form Von Neumann entropy",
           _APT_PARAMETERS, APT_CASES, ("S1", "S1_closed")),
    Preset("fig_pt_entropy2",
           "PT second-order (collision) Renyi entropy vs theta",
           _PT_PARAMETERS, PT_CASES, ("S2",)),
    Preset("fig_apt_entropy2",
           "Anti-PT second-order (collision) Renyi entropy vs (xi, delta)",
           _APT_PARAMETERS, APT_CASES, ("S2",)),
    Preset("fig_pt_entropy_inf",
           "PT min-entropy vs theta",
           _PT_PARAMETERS, PT_CASES, ("Sinf",)),
    Preset("fig_apt_entropy_inf",
           "Anti-PT min-entropy vs (xi, delta)",
           _APT_PARAMETERS, APT_CASES, ("Sinf",)),
)}


def list_presets() -> list[tuple[str, str]]:
    """Stable-ordered (name, description) pairs."""
    return [(p.name, p.description) for p in PRESETS.values()]


def run_preset(name: str, outdir, tol: float = DEFAULT_TOL) -> dict:
    """Build the named preset and write <name>.csv and manifest.json into
    outdir; returns the manifest."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; see list-presets")
    check_tol(tol)
    preset = PRESETS[name]
    return emit(outdir, {name: preset.build(tol)}, preset=name,
                description=preset.description, parameters=preset.parameters,
                grid={"t_max": T_MAX, "n_points": N_POINTS}, tol=tol)
