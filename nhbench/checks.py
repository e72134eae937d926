"""Output checks, run by the orchestrator after each worker has exited, so
that no check is inside a timed op or in the worker's peak memory.

Each check returns a list of problems; an op whose list is non-empty
counts as failed.  The checks:

* every op: unit trace and positivity of the states, D in (0, 1], Renyi
  entropies non-increasing in the order (S_0 >= S_1 >= S_2 >= S_inf), the
  requested tolerance recorded in the manifest and every reported error
  bound within it;
* a sample point per op: D(t) (or a phase kernel, for the phase presets)
  against the independent brute-force quadrature in tests/oracles.py,
  within the reported error bound plus the oracle's own;
* figure presets: the CSV against the reference snapshot taken at the seed
  commit (reference/), NaN matched to NaN.
"""

from __future__ import annotations

import csv
import json
import math
from functools import cache
from pathlib import Path

import numpy as np

from common import BENCH_DIR, import_oracles
from workloads import TOL

REFERENCE_DIR = BENCH_DIR / "reference"

TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10   # the package's own DensityMatrix tolerance
ORDER_TOL = 1e-12        # Renyi entropies of different orders, same state
# Snapshot comparison: kernel values may move within their 1e-9 bounds
# (ROADMAP item 1 replaces the quadrature); a result off by 1e-6 relative,
# or computed with a loosened tolerance, must not pass.
SNAPSHOT_RTOL = 1e-7
SNAPSHOT_ATOL = 1e-9
ORACLE_PANELS = 50_000
EPS = np.finfo(float).eps


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in row] for row in body], dtype=float)
    return header, data.reshape(len(body), len(header))


def omega0_sq(cfg: dict) -> float:
    if cfg["symmetry"] == "PT":
        return cfg["delta"] ** 2 + cfg["xi"] ** 2 - cfg["theta"] ** 2
    return cfg["alpha"] ** 2 - cfg["xi"] ** 2 - cfg["delta"] ** 2


# --- single quantities -----------------------------------------------------

def check_manifest(manifest: dict) -> list[str]:
    problems = []
    tol = manifest.get("tol", manifest.get("scenario", {}).get("tol"))
    if tol != TOL:
        problems.append(f"manifest tolerance {tol!r}, requested {TOL!r}")
    for name, err in manifest.get("max_quad_error", {}).items():
        if not (0.0 <= err <= TOL):
            problems.append(f"{name}: reported error bound {err!r} > {TOL!r}")
    return problems


def check_states(rho11, re, im, rho22) -> list[str]:
    problems = []
    trace_err = np.max(np.abs(rho11 + rho22 - 1.0))
    if not trace_err <= TRACE_TOL:
        problems.append(f"trace deviates from 1 by {trace_err:.3e}")
    det = rho11 * rho22 - (re * re + im * im)
    if not (np.all(rho11 >= -POSITIVITY_TOL) and np.all(rho22 >= -POSITIVITY_TOL)
            and np.all(det >= -POSITIVITY_TOL)):
        problems.append("state not positive semidefinite")
    return problems


def check_decoherence(d) -> list[str]:
    d = np.asarray(d)
    if not np.all((d > 0.0) & (d <= 1.0)):
        bad = d[~((d > 0.0) & (d <= 1.0))]
        return [f"D outside (0, 1]: {bad[:3].tolist()}"]
    return []


def check_entropy_order(orders, table) -> list[str]:
    """table[:, j] holds S at orders[j]; orders ascending."""
    problems = []
    if np.any(~np.isfinite(table)):
        problems.append("non-finite entropy")
    if np.any(table < -ORDER_TOL) or np.any(table > math.log(2.0) + ORDER_TOL):
        problems.append("entropy outside [0, ln 2]")
    steps = np.diff(table, axis=1)
    if np.any(steps > ORDER_TOL):
        j = int(np.argmax(np.max(steps, axis=0)))
        problems.append(f"S_{orders[j + 1]:g} > S_{orders[j]:g}")
    return problems


@cache
def oracle_kernel(kind: str, t: float, j0: float, omega_c: float, mu: float,
                  beta: float) -> tuple[float, float]:
    """(value, error bound) of one bath integral (per unit theta for the
    phase kernels), cached: figure presets share the caption bath."""
    return import_oracles().brute_bath_integral(
        kind, t, j0, omega_c, mu, beta, n_panels=ORACLE_PANELS)


def check_d_against_oracle(cfg: dict, t: float, d: float,
                           reported_err: float) -> list[str]:
    """|D - exp(-w0^2 gamma_oracle)| within both error bounds and rounding."""
    gamma, oracle_err = oracle_kernel("gamma", t, cfg["j0"], cfg["omega_c"],
                                      cfg["mu"], cfg["beta"])
    w2 = omega0_sq(cfg)
    # The oracle's panel-doubling estimate can read exactly 0; floor it at
    # the rounding of a sum of that many terms.
    oracle_err = max(oracle_err, 1e3 * EPS * abs(gamma))
    d_oracle = math.exp(-w2 * gamma)
    allowed = (max(d, d_oracle) * math.expm1(w2 * (reported_err + oracle_err))
               + 8 * EPS * max(d, d_oracle) * (1.0 + w2 * gamma))
    if not abs(d - d_oracle) <= allowed:
        return [f"D({t}) = {d!r} vs oracle {d_oracle!r}: difference "
                f"{abs(d - d_oracle):.3e} > allowed {allowed:.3e}"]
    return []


def check_phase_against_oracle(kind: str, t: float, value: float, theta: float,
                               reported_err: float) -> list[str]:
    """Phase-preset columns: -Omega_PT (PT) or Omega_2 - Omega_1 (APT) on
    the caption bath (j0 = omega_c = 1, mu = -0.5, beta = 0.5)."""
    bath = tuple(CAPTION_BATH.values())
    if kind == "pt":
        unit, unit_err = oracle_kernel("phase_ramp", t, *bath)
        ref = -theta * unit
    else:
        unit, unit_err = oracle_kernel("phase_bounded", t, *bath)
        # Omega_2 = 2 theta t^2 int J, with int J = Gamma(1.5) in closed form.
        ref = 2.0 * theta * t * t * math.gamma(1.5) - theta * unit
    err = abs(theta) * unit_err
    err = max(err, 1e3 * EPS * abs(ref))
    if not abs(value - ref) <= reported_err + err + 8 * EPS * abs(ref):
        return [f"phase({t}) = {value!r} vs oracle {ref!r}"]
    return []


# --- whole ops -------------------------------------------------------------

def check_scenario_dir(out: Path, op: dict) -> list[str]:
    """A scenarios or horizon op: whatever outputs its config asked for."""
    cfg = op["config"]
    manifest = json.loads((out / "manifest.json").read_text())
    problems = check_manifest(manifest)
    files = manifest["files"]
    if set(files) != set(op["outputs"]):
        problems.append(f"wrote {sorted(files)}, asked for {op['outputs']}")
        return problems
    times = np.linspace(0.0, cfg["t_max"], cfg["n_points"])

    _, dec = read_csv(out / files["decoherence"])
    if dec.shape[0] != cfg["n_points"] or not np.array_equal(dec[:, 0], times):
        problems.append("decoherence grid differs from the requested one")
        return problems
    problems += check_decoherence(dec[:, 1])
    i = op["check_index"]
    problems += check_d_against_oracle(
        cfg, float(times[i]), float(dec[i, 1]),
        manifest["max_quad_error"]["decoherence"])

    _, phase = read_csv(out / files["phase"])
    if not np.all(np.isfinite(phase)):
        problems.append("non-finite phase")
    if "trajectory" in files:
        _, tr = read_csv(out / files["trajectory"])
        problems += check_states(tr[:, 1], tr[:, 2], tr[:, 3], tr[:, 4])
    if "entropy" in files:
        problems += check_entropy_csv(out / files["entropy"])
    if "qsl" in files:
        problems += check_qsl_csv(out / files["qsl"])
    return problems


def _order_of(label: str) -> float:
    return math.inf if label == "S_inf" else float(label[2:])


def check_entropy_csv(path: Path) -> list[str]:
    header, data = read_csv(path)
    orders = [_order_of(h) for h in header[1:]]
    idx = np.argsort(orders)
    return check_entropy_order([orders[j] for j in idx], data[:, 1:][:, idx])


def check_qsl_csv(path: Path) -> list[str]:
    _, q = read_csv(path)
    problems = []
    angle, norm, vel = q[:, 1], q[:, 2], q[:, 3]
    if not np.all((angle >= 0.0) & (angle <= 0.5 * math.pi)):
        problems.append("Bures angle outside [0, pi/2]")
    if not np.all(np.isfinite(norm) & (norm >= 0.0)):
        problems.append("Liouvillian norm negative or non-finite")
    if not math.isnan(vel[0]):
        problems.append("V_QSL defined at t = 0, where the angle is 0")
    if np.any(np.isinf(vel)) or np.any(vel[np.isfinite(vel)] < 0.0):
        problems.append("V_QSL negative or infinite")
    return problems


def check_analysis_dir(out: Path, op: dict) -> list[str]:
    problems = []
    for k in op["horizons"]:
        problems += check_entropy_csv(out / f"entropy_{k}.csv")
        problems += check_qsl_csv(out / f"qsl_{k}.csv")
        _, tau = read_csv(out / f"tau_{k}.csv")
        if not np.all(np.isfinite(tau[:, 1]) & (tau[:, 1] > 0.0)):
            problems.append("tau_QSL not positive and finite")
    return problems


def check_trajectory_file(path: Path, cfg: dict) -> list[str]:
    """An analysis trajectory's D(t), written in set-up, and a D sample."""
    _, tr = read_csv(path)
    problems = check_decoherence(tr[:, 1])
    if not 0.0 <= tr[0, 2] <= TOL:
        problems.append(f"reported error bound {tr[0, 2]!r} > {TOL!r}")
    i = cfg["check_index"]
    problems += check_d_against_oracle(cfg, float(tr[i, 0]), float(tr[i, 1]),
                                       float(tr[0, 2]))
    return problems


def check_preset_dir(out: Path, op: dict) -> list[str]:
    name = op["preset"]
    manifest = json.loads((out / "manifest.json").read_text())
    problems = check_manifest(manifest)
    header, data = read_csv(out / f"{name}.csv")
    ref_header, ref = read_csv(REFERENCE_DIR / f"{name}.csv")
    if header != ref_header or data.shape != ref.shape:
        return problems + [f"{name}: columns or rows differ from the reference"]
    nan, ref_nan = np.isnan(data), np.isnan(ref)
    if not np.array_equal(nan, ref_nan):
        problems.append(f"{name}: NaN pattern differs from the reference")
    ok = ~ref_nan & ~nan
    dev = np.abs(data[ok] - ref[ok])
    if np.any(dev > SNAPSHOT_ATOL + SNAPSHOT_RTOL * np.abs(ref[ok])):
        problems.append(f"{name}: differs from the reference by up to "
                        f"{np.max(dev):.3e}")
    for j, col in enumerate(header):
        values = data[:, j]
        if col.startswith("D_") and not np.all((values >= 0) & (values <= 1)):
            problems.append(f"{col}: D outside [0, 1]")
        if col.startswith("S") and np.any(
                (values < -ORDER_TOL) | (values > math.log(2) + ORDER_TOL)):
            problems.append(f"{col}: entropy outside [0, ln 2]")
    problems += _preset_oracle_sample(name, header, data, op["check_index"],
                                      manifest["max_quad_error"][name])
    return problems


# Caption parameters of the presets (see nhqubit.presets).
CAPTION_BATH = {"j0": 1.0, "omega_c": 1.0, "mu": -0.5, "beta": 0.5}
PT_BASE = {"symmetry": "PT", "alpha": 1.0, "xi": 0.81, "delta": 0.56}
APT_BASE = {"symmetry": "AntiPT", "alpha": 1.0, "theta": 0.86}


def _preset_oracle_sample(name, header, data, i, reported_err) -> list[str]:
    t = float(data[i, 0])
    problems = []
    for j, col in enumerate(header[1:], start=1):
        value = float(data[i, j])
        if col.startswith("D_theta_"):
            cfg = {**CAPTION_BATH, **PT_BASE, "theta": float(col[8:])}
        elif col.startswith("D_xi_"):
            xi, delta = col[5:].split("_delta_")
            cfg = {**CAPTION_BATH, **APT_BASE, "xi": float(xi),
                   "delta": float(delta)}
        elif col.startswith("phase_function_theta_"):
            problems += check_phase_against_oracle(
                "pt", t, value, float(col[21:]), reported_err)
            continue
        elif col.startswith("phase_function_xi_"):
            problems += check_phase_against_oracle(
                "apt", t, value, APT_BASE["theta"], reported_err)
            continue
        else:
            continue
        problems += check_d_against_oracle(cfg, t, value, reported_err)
    return problems
