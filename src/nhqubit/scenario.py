"""Scenario configuration: flat key-value files, execution, CSV/JSON output.

Config grammar (one assignment per line, '#' starts a comment):

    qubit.symmetry = PT          # or AntiPT
    qubit.alpha   = 1.0
    qubit.theta   = 0.86
    qubit.xi      = 0.81
    qubit.delta   = 0.56
    bath.j0      = 1.0
    bath.omega_c = 1.0
    bath.mu      = -0.5
    bath.beta    = 0.5
    initial.state = plus         # or explicit sz / coherence:
    # initial.sz           = 0.0
    # initial.coherence_re = 0.5
    # initial.coherence_im = 0.0
    grid.t_max    = 20.0
    grid.n_points = 201
    outputs = decoherence, entropy    # subset of OUTPUT_KINDS; may be empty
    entropy.orders = 0, 1, 2, inf
    tol = 1e-9

Numeric CSV cells use repr(), the shortest round-trip decimal form, so
identical scenarios produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, entropy, qsl
from .bath import BACKEND, BathParams, DEFAULT_TOL
from .dynamics import QubitParams, Symmetry, Trajectory, evolve_apt, evolve_pt
from .errors import ConfigError, DomainError, GridMismatch, NonPhysicalState
from .linalg2 import DensityMatrix

OUTPUT_KINDS = ("trajectory", "decoherence", "phase", "qsl", "entropy")


def check_tol(tol: float) -> None:
    """Reject a tolerance no bath kernel can meet (zero, negative, NaN)."""
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")


@dataclass
class Scenario:
    qubit: QubitParams
    bath: BathParams
    initial: DensityMatrix
    t_max: float
    n_points: int
    outputs: tuple[str, ...]
    entropy_orders: tuple[float, ...] = (0.0, 1.0, 2.0, math.inf)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.n_points < 3:
            raise ConfigError("grid.n_points must be at least 3")
        if not self.t_max > 0:
            raise ConfigError("grid.t_max must be positive")
        for q in self.entropy_orders:
            if not q >= 0:
                raise ConfigError(f"entropy order must be >= 0, got {q}")
        for out in self.outputs:
            if out not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output kind {out!r}")
        check_tol(self.tol)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)

    def evolve(self) -> Trajectory:
        if self.qubit.symmetry is Symmetry.PT:
            return evolve_pt(self.qubit, self.bath, self.times,
                             rho0_diag=self.initial, tol=self.tol)
        return evolve_apt(self.qubit, self.bath, self.times,
                          rho0=self.initial, tol=self.tol)

    def describe(self) -> dict:
        return {
            "qubit": {**asdict(self.qubit),
                      "symmetry": self.qubit.symmetry.value},
            "bath": asdict(self.bath),
            "initial": {
                "sz": self.initial.sigma_z(),
                "coherence_re": self.initial.c.real,
                "coherence_im": self.initial.c.imag,
            },
            "grid": {"t_max": self.t_max, "n_points": self.n_points},
            "outputs": list(self.outputs),
            "entropy_orders": [
                "inf" if math.isinf(q) else q for q in self.entropy_orders
            ],
            "tol": self.tol,
        }


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _number(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw!r}") from exc


def _get_float(pairs: dict[str, str], key: str, default=None) -> float:
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value = _number(key, pairs.pop(key))
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


def scenario_from_pairs(pairs: dict[str, str]) -> Scenario:
    pairs = dict(pairs)

    sym_raw = pairs.pop("qubit.symmetry", None)
    if sym_raw is None:
        raise ConfigError("missing required key 'qubit.symmetry'")
    try:
        symmetry = Symmetry(sym_raw)
    except ValueError:
        raise ConfigError(
            f"qubit.symmetry must be 'PT' or 'AntiPT', got {sym_raw!r}"
        ) from None

    qubit = QubitParams(
        alpha=_get_float(pairs, "qubit.alpha"),
        theta=_get_float(pairs, "qubit.theta"),
        xi=_get_float(pairs, "qubit.xi"),
        delta=_get_float(pairs, "qubit.delta"),
        symmetry=symmetry,
    )
    try:
        bath_params = BathParams(
            j0=_get_float(pairs, "bath.j0"),
            omega_c=_get_float(pairs, "bath.omega_c"),
            mu=_get_float(pairs, "bath.mu"),
            beta=_get_float(pairs, "bath.beta"),
        )
    except DomainError as exc:
        raise ConfigError(f"bath: {exc}") from exc

    preset_name = pairs.pop("initial.state", None)
    if preset_name is not None:
        if preset_name != "plus":
            raise ConfigError(f"unknown initial state preset {preset_name!r}")
        initial = DensityMatrix.plus()
    else:
        try:
            initial = DensityMatrix.from_expectations(
                sz=_get_float(pairs, "initial.sz", 0.0),
                coherence=complex(
                    _get_float(pairs, "initial.coherence_re", 0.5),
                    _get_float(pairs, "initial.coherence_im", 0.0),
                ),
            )
        except NonPhysicalState as exc:
            raise ConfigError(f"initial state: {exc}") from exc

    outputs_raw = pairs.pop("outputs", "")
    outputs = tuple(s.strip() for s in outputs_raw.split(",") if s.strip())

    orders_raw = pairs.pop("entropy.orders", "0, 1, 2, inf")
    orders = []
    for tok in orders_raw.split(","):
        tok = tok.strip()
        if tok:
            orders.append(_number("entropy.orders", tok))

    n_points = _get_float(pairs, "grid.n_points")
    if not n_points.is_integer():
        raise ConfigError(f"grid.n_points must be an integer, got {n_points!r}")

    scenario = Scenario(
        qubit=qubit,
        bath=bath_params,
        initial=initial,
        t_max=_get_float(pairs, "grid.t_max"),
        n_points=int(n_points),
        outputs=outputs,
        entropy_orders=tuple(orders),
        tol=_get_float(pairs, "tol", DEFAULT_TOL),
    )
    if pairs:
        raise ConfigError(f"unrecognized keys: {sorted(pairs)}")
    return scenario


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return scenario_from_pairs(_parse_pairs(text))


def _cell(x) -> str:
    return repr(float(x))


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Columns written with shortest round-trip decimals; byte-deterministic."""
    rows = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_cell(col[i]) for col in columns) + "\n")


def run(scenario: Scenario, outdir, preset_name: str | None = None) -> dict:
    """Execute a scenario, writing one CSV per requested output plus a JSON
    manifest; returns the manifest dict."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    manifest: dict = {
        "scenario": scenario.describe(),
        "version": __version__,
        "backend": BACKEND,
        "files": {},
        "max_quad_error": {},
    }
    if preset_name is not None:
        manifest["preset"] = preset_name

    if scenario.outputs:
        traj = scenario.evolve()
        ts = traj.times

        def emit(kind: str, header: list[str], columns: list) -> None:
            write_csv(outdir / f"{kind}.csv", header, columns)
            manifest["files"][kind] = f"{kind}.csv"
            manifest["max_quad_error"][kind] = traj.max_quad_error

        if "trajectory" in scenario.outputs:
            emit("trajectory", ["t", "rho11", "re_rho12", "im_rho12", "rho22"],
                 [ts, traj.p1, traj.c.real, traj.c.imag, traj.p2])
        if "decoherence" in scenario.outputs:
            emit("decoherence", ["t", "D"], [ts, traj.decoherence])
        if "phase" in scenario.outputs:
            emit("phase", ["t", "phase"], [ts, traj.phase])
        if "qsl" in scenario.outputs:
            series = qsl.qsl_series(traj)
            emit("qsl", ["t", "bures_angle", "liouvillian_norm", "v_qsl"],
                 [ts, series.bures_angle, series.liouvillian_norm,
                  series.v_qsl])
            manifest["tau_qsl"] = series.tau_qsl
        if "entropy" in scenario.outputs:
            table = entropy.entropy_series(traj, scenario.entropy_orders)
            emit("entropy",
                 ["t"] + ["S_inf" if math.isinf(q) else f"S_{q:g}"
                          for q in table],
                 [ts, *table.values()])

    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def compare(a: Scenario, b: Scenario, outdir=None) -> dict:
    """Per-time decoherence comparison of two scenarios on a shared grid."""
    if a.n_points != b.n_points or a.t_max != b.t_max:
        raise GridMismatch(
            f"grids differ: ({a.t_max}, {a.n_points}) vs ({b.t_max}, {b.n_points})"
        )
    traj_a = a.evolve()
    traj_b = b.evolve()
    d_a, d_b = traj_a.decoherence, traj_b.decoherence
    ratio = d_b / d_a
    ordered = d_b >= d_a
    fraction = float(np.mean(ordered))
    report = {
        "fraction_b_ge_a": fraction,
        "scenario_a": a.describe(),
        "scenario_b": b.describe(),
    }
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(outdir / "compare.csv",
                  ["t", "D_a", "D_b", "ratio", "b_ge_a"],
                  [traj_a.times, d_a, d_b, ratio, ordered.astype(float)])
        with open(outdir / "compare.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
