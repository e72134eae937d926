"""Scenario configuration: flat key-value files, execution, and the one
writer of every CSV and JSON file the package emits.

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

run and presets.run_preset write through emit (one CSV per table plus
manifest.json); compare writes compare.json with the same write_json.
Numeric CSV cells use repr(), the shortest round-trip decimal form, and
JSON keys are sorted, so identical runs produce byte-identical files.
write_csv formats each run of equal values in a column, and each column
equal to an earlier one of the same file, once: saturated curves (D
underflowed to 0, S_q at ln 2) repeat most of their cells.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, bath, entropy, qsl
from .bath import BACKEND, BathParams, DEFAULT_TOL
from .dynamics import QubitParams, Symmetry, Trajectory, evolve
from .errors import ConfigError, DomainError, GridMismatch, NonPhysicalState
from .linalg2 import DensityMatrix

OUTPUT_KINDS = ("trajectory", "decoherence", "phase", "qsl", "entropy")
# The Renyi orders of a config without an entropy.orders key.
DEFAULT_ORDERS = (0.0, 1.0, 2.0, math.inf)


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
    entropy_orders: tuple[float, ...] = DEFAULT_ORDERS
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.n_points < 3:
            raise ConfigError("grid.n_points must be at least 3")
        if not self.t_max > 0:
            raise ConfigError("grid.t_max must be positive")
        # linspace gives i * step, then t_max, distinct iff these hold (for
        # fewer than 2^52 points; the term budget stops longer grids).
        shown = self.n_points
        try:
            step = self.t_max / (self.n_points - 1)
        except OverflowError:  # an int n_points beyond the float range,
            step = 0.0         # maybe beyond str()'s digit limit too
            shown = f"an integer of {self.n_points.bit_length()} bits"
        if not (0 < step and (self.n_points - 2) * step < self.t_max):
            raise ConfigError(
                f"grid.t_max = {self.t_max!r} is too small for grid.n_points "
                f"= {shown}: the time grid repeats a time")
        for i, q in enumerate(self.entropy_orders):
            if not q >= 0:
                raise ConfigError(f"entropy order must be >= 0, got {q}")
            if q in self.entropy_orders[:i]:
                raise ConfigError(f"entropy order {q} is repeated")
        for i, out in enumerate(self.outputs):
            if out not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output kind {out!r}")
            if out in self.outputs[:i]:
                raise ConfigError(f"output kind {out!r} is repeated")
        check_tol(self.tol)

    @property
    def times(self) -> np.ndarray:
        # linspace's last i * step may overflow; t_max then replaces it.
        with np.errstate(over="ignore"):
            return np.linspace(0.0, self.t_max, self.n_points)

    def kernels(self) -> bath.Kernels:
        """A new kernel table of the bath on the grid at the tol."""
        # gamma's own budget check, made before the grid is allocated.
        bath.check_terms("gamma", self.t_max, self.n_points)
        return bath.Kernels(self.times, self.bath, self.tol)

    def evolve(self) -> Trajectory:
        return evolve(self.qubit, self.kernels(), self.initial)

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

    orders = DEFAULT_ORDERS
    if "entropy.orders" in pairs:
        orders = tuple(_number("entropy.orders", tok.strip())
                       for tok in pairs.pop("entropy.orders").split(",")
                       if tok.strip())

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
        entropy_orders=orders,
        tol=_get_float(pairs, "tol", DEFAULT_TOL),
    )
    if pairs:
        raise ConfigError(f"unrecognized keys: {sorted(pairs)}")
    return scenario


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return scenario_from_pairs(_parse_pairs(text))


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Columns written with shortest round-trip decimals, the repr of each
    float64 cell; byte-deterministic.  Each run of equal values in a column,
    and each column equal to an earlier one, is formatted once: equal bits
    give equal text.  Columns of different lengths raise ValueError before
    the file is opened."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    if len({len(col) for col in columns}) > 1:
        raise ValueError("columns of different lengths: "
                         f"{[len(col) for col in columns]}")
    formatted: dict[bytes, list[str]] = {}
    cells = []
    for col in columns:
        key = col.tobytes()
        if key not in formatted:
            formatted[key] = _formatted(col)
        cells.append(formatted[key])
    rows = map(",".join, zip(*cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *rows, ""]))


def _formatted(col: np.ndarray) -> list[str]:
    """repr of each value of col, made once per run of equal bit patterns,
    so 0.0 and -0.0, and NaNs of different payloads, stay apart.  A column
    without a run pays one neighbour comparison and no run bookkeeping."""
    bits = col.view(np.int64)
    changed = bits[1:] != bits[:-1]
    if changed.all():
        return list(map(repr, col.tolist()))
    first = np.concatenate(([True], changed))
    text = np.array(list(map(repr, col[first].tolist())), dtype=object)
    return text[first.cumsum() - 1].tolist()


def write_json(path: Path, obj) -> None:
    """obj as JSON with sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit(outdir, tables: dict, **fields) -> dict:
    """Write <kind>.csv for each kind -> (header, columns, max_err) in
    tables, then manifest.json: fields plus version, backend, files and
    max_quad_error.  Returns the manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for kind, (header, columns, _) in tables.items():
        write_csv(outdir / f"{kind}.csv", header, columns)
    manifest = {
        **fields,
        "version": __version__,
        "backend": BACKEND,
        "files": {kind: f"{kind}.csv" for kind in tables},
        "max_quad_error": {kind: err for kind, (_, _, err) in tables.items()},
    }
    write_json(outdir / "manifest.json", manifest)
    return manifest


def run(scenario: Scenario, outdir) -> dict:
    """Execute a scenario, writing one CSV per requested output plus a JSON
    manifest; returns the manifest dict."""
    # An unwritable outdir is reported before any numerical failure.
    Path(outdir).mkdir(parents=True, exist_ok=True)
    tables: dict = {}
    fields: dict = {"scenario": scenario.describe()}
    if scenario.outputs:
        traj = scenario.evolve()
        ts, err = traj.times, traj.max_quad_error
        if "trajectory" in scenario.outputs:
            tables["trajectory"] = (
                ["t", "rho11", "re_rho12", "im_rho12", "rho22"],
                [ts, traj.p1, traj.c.real, traj.c.imag, traj.p2], err)
        if "decoherence" in scenario.outputs:
            tables["decoherence"] = (["t", "D"], [ts, traj.decoherence], err)
        if "phase" in scenario.outputs:
            tables["phase"] = (["t", "phase"], [ts, traj.phase], err)
        if "qsl" in scenario.outputs:
            series = qsl.qsl_series(traj)
            tables["qsl"] = (
                ["t", "bures_angle", "liouvillian_norm", "v_qsl"],
                [ts, series.bures_angle, series.liouvillian_norm,
                 series.v_qsl], err)
            fields["tau_qsl"] = series.tau_qsl
        if "entropy" in scenario.outputs:
            table = entropy.entropy_series(traj, scenario.entropy_orders)
            tables["entropy"] = (
                ["t"] + [f"S_{_order_name(q)}" for q in table],
                [ts, *table.values()], err)
    return emit(outdir, tables, **fields)


def _order_name(q: float) -> str:
    """q in its :g form where that reads back as q, else in full, so that
    distinct Renyi orders name distinct columns."""
    short = f"{q:g}"
    return short if float(short) == q else repr(float(q))


def _damping_exponent(s: Scenario) -> tuple[Trajectory, np.ndarray]:
    """The trajectory of s and its damping exponent omega0^2 gamma, so
    that D = exp(-exponent), with gamma read from the table it evolved on."""
    kernels = s.kernels()
    traj = evolve(s.qubit, kernels, s.initial)
    return traj, traj.omega0**2 * kernels.gamma().value


def compare(a: Scenario, b: Scenario, outdir=None) -> dict:
    """Per-time decoherence comparison of two scenarios on a shared grid."""
    if a.n_points != b.n_points or a.t_max != b.t_max:
        raise GridMismatch(
            f"grids differ: ({a.t_max}, {a.n_points}) vs ({b.t_max}, {b.n_points})"
        )
    traj_a, e_a = _damping_exponent(a)
    traj_b, e_b = _damping_exponent(b)
    d_a, d_b = traj_a.decoherence, traj_b.decoherence
    # Ordered and divided by the exponents, which stay exact where D
    # underflows to 0; a ratio beyond the float range is written as inf.
    ordered = e_b <= e_a
    with np.errstate(over="ignore"):
        ratio = np.exp(e_a - e_b)
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
        write_json(outdir / "compare.json", report)
    return report
