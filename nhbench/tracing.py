"""Spans around calls into the package's layers, recorded from outside it.

The traced run wraps the public functions of each module and rebinds every
reference the package holds to them (``from .x import f`` copies
included), so a call from one layer into another opens a span: layer,
start, end, parent span and op id.  A call within a layer opens none (it
is part of its caller's span), except the CSV writer and the config
parser, which the per-layer metrics time on their own.  Spans stay in
memory until the worker ends.  A layer's self time is its spans'
durations minus the part of each interval that the span's children
cover.

Nothing here edits the package's files; wrapping happens in the worker
process after set-up and before the first traced op.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter_ns

LAYERS = ("cli", "scenario", "presets", "dynamics", "bath", "kernels",
          "qsl", "entropy", "linalg2")


# --- per-target work counters ----------------------------------------------
# Each takes (counters, outer, args, kwargs, result) after a call returns;
# outer is true when the call crossed into its layer from another one, so
# that a layer calling itself is not counted twice.  The int returned is
# kept on the span.

def _count_csv(counters, outer, args, kwargs, result):
    counters["scenario.csv_bytes"] += os.path.getsize(args[0])
    return 0


def _count_panels(counters, outer, args, kwargs, result):
    panels = len(args[1])
    nodes = len(args[8]) + len(args[10])  # high- plus low-order Gauss rule
    counters["kernels.panels"] += panels
    counters["kernels.evals"] += panels * nodes
    return 0


def _bath_evals(counters, outer, args, kwargs, result):
    return int(getattr(result, "evaluations", 0))


def _count_points(counters, outer, args, kwargs, result):
    counters["dynamics.points"] += len(result.times)
    return 0


def _count_qsl_series(counters, outer, args, kwargs, result):
    if outer:
        counters["qsl.points"] += len(args[0].times)
    return 0


def _count_tau(counters, outer, args, kwargs, result):
    if outer:
        times, horizon = args[0].times, args[1]
        counters["qsl.points"] += int((times <= horizon * (1 + 1e-12)).sum())
    return 0


def _count_one(name):
    def count(counters, outer, args, kwargs, result):
        counters[name] += outer
        return 0
    return count


def _count_entropy(counters, outer, args, kwargs, result):
    if outer:
        counters["entropy.values"] += sum(len(v) for v in result.values())
    return 0


def _count_exit(counters, outer, args, kwargs, result):
    counters["cli.exit_nonzero"] += int(result != 0)
    return 0


# (layer, module, attribute path, work counter or None)
TARGETS = (
    ("cli", "nhqubit.cli", "main", _count_exit),
    ("scenario", "nhqubit.scenario", "load_scenario", None),
    ("scenario", "nhqubit.scenario", "scenario_from_pairs", None),
    ("scenario", "nhqubit.scenario", "run", None),
    ("scenario", "nhqubit.scenario", "compare", None),
    ("scenario", "nhqubit.scenario", "write_csv", _count_csv),
    ("presets", "nhqubit.presets", "run_preset", None),
    ("presets", "nhqubit.presets", "list_presets", None),
    ("dynamics", "nhqubit.dynamics", "evolve_pt", _count_points),
    ("dynamics", "nhqubit.dynamics", "evolve_apt", _count_points),
    ("dynamics", "nhqubit.dynamics", "decoherence_function", None),
    ("dynamics", "nhqubit.dynamics", "split", None),
    ("dynamics", "nhqubit.dynamics", "transformation_matrix", None),
    ("dynamics", "nhqubit.dynamics", "build_hamiltonian", None),
    ("dynamics", "nhqubit.dynamics", "check_symmetry", None),
    ("dynamics", "nhqubit.dynamics", "Trajectory.dephasing_states", None),
    ("bath", "nhqubit.bath", "gamma", _bath_evals),
    ("bath", "nhqubit.bath", "omega_pt", _bath_evals),
    ("bath", "nhqubit.bath", "omega1", _bath_evals),
    ("bath", "nhqubit.bath", "gamma_rate", _bath_evals),
    ("bath", "nhqubit.bath", "omega1_rate", _bath_evals),
    ("bath", "nhqubit.bath", "omega2", None),
    ("bath", "nhqubit.bath", "omega2_rate", None),
    ("bath", "nhqubit.bath", "moment0", None),
    ("bath", "nhqubit.bath", "spectral_density", None),
    # The quadrature kernel as the bath reaches it; ROADMAP item 2 may
    # remove this module, and the layer is then reported absent.
    ("kernels", "nhqubit._backend", "kernels.eval_panels", _count_panels),
    ("qsl", "nhqubit.qsl", "qsl_series", _count_qsl_series),
    ("qsl", "nhqubit.qsl", "tau_qsl", _count_tau),
    ("qsl", "nhqubit.qsl", "v_qsl", _count_one("qsl.points")),
    ("qsl", "nhqubit.qsl", "liouvillian_norm", _count_one("qsl.points")),
    ("qsl", "nhqubit.qsl", "bures_angle", _count_one("qsl.points")),
    ("entropy", "nhqubit.entropy", "entropy_series", _count_entropy),
    ("entropy", "nhqubit.entropy", "renyi", _count_one("entropy.values")),
    ("entropy", "nhqubit.entropy", "renyi0", _count_one("entropy.values")),
    ("entropy", "nhqubit.entropy", "renyi_inf", _count_one("entropy.values")),
    ("entropy", "nhqubit.entropy", "von_neumann", _count_one("entropy.values")),
    ("entropy", "nhqubit.entropy", "von_neumann_closed_form",
     _count_one("entropy.values")),
    ("linalg2", "nhqubit.linalg2", "as_matrix", None),
    ("linalg2", "nhqubit.linalg2", "frob", None),
    ("linalg2", "nhqubit.linalg2", "eig2", None),
    ("linalg2", "nhqubit.linalg2", "opnorm", None),
    ("linalg2", "nhqubit.linalg2", "fidelity", None),
    ("linalg2", "nhqubit.linalg2", "DensityMatrix.from_matrix", None),
    ("linalg2", "nhqubit.linalg2", "DensityMatrix.eigenvalues", None),
    ("linalg2", "nhqubit.linalg2", "DensityMatrix.matrix", None),
)

# Functions that get a span even when called from their own layer.
OWN_SPAN = {"write_csv", "load_scenario"}

COUNTERS = ("scenario.csv_bytes", "kernels.panels", "kernels.evals",
            "dynamics.points", "qsl.points", "entropy.values",
            "cli.exit_nonzero", "errors.raised")

# Span fields, kept as tuples for low overhead.
TARGET, START, END, PARENT, OP, WORK, ERROR = range(7)
ERR_NONE, ERR_OTHER, ERR_PACKAGE = 0, 1, 2


class Tracer:
    """Holds spans and counters for one worker process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.targets: list[tuple] = []  # installed (layer, name) pairs
        self.absent: list[str] = []
        self._package_error = None
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record layers with none."""
        from nhqubit.errors import NhQubitError

        self._package_error = NhQubitError
        swaps = {}
        for layer, module_name, path, work in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                continue
            index = len(self.targets)
            self.targets.append((layer, path))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, index, work))
            elif isinstance(raw, property):
                wrapped = property(self._wrap(raw.fget, index, work))
            else:
                wrapped = self._wrap(raw, index, work)
                swaps[id(raw)] = (raw, wrapped)
            self._rebind(owner, attr, wrapped)
        # Rebind names the package imported with `from .module import f`.
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("nhqubit"):
                continue
            for attr, value in list(vars(module).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])
        present = {layer for layer, _ in self.targets}
        self.absent = [layer for layer in LAYERS if layer not in present]

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back everything install() replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, fn, index, work):
        spans, stack, counters = self.spans, self.stack, self.counters
        layer, name = self.targets[index]
        own_span = name in OWN_SPAN
        layer_of = self.targets

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = parent < 0 or layer_of[spans[parent][TARGET]][0] != layer
            if not (outer or own_span):
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append((index, 0, 0, parent, self.op, 0, ERR_NONE))
            stack.append(slot)
            error = ERR_NONE
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                if isinstance(exc, self._package_error):
                    error = ERR_PACKAGE
                    if not getattr(exc, "_nhbench_counted", False):
                        exc._nhbench_counted = True
                        counters["errors.raised"] += 1
                else:
                    error = ERR_OTHER
                raise
            else:
                end = perf_counter_ns()
                amount = 0 if work is None else \
                    work(counters, outer, args, kwargs, result)
                spans[slot] = (index, start, end, parent, self.op, amount,
                               ERR_NONE)
                return result
            finally:
                stack.pop()
                if error != ERR_NONE:
                    spans[slot] = (index, start, end, parent, self.op, 0, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


# Units of the per-layer metrics, by the part of the name after the layer;
# every name ending in _s is seconds per op.
UNITS = {"calls": "count/op", "points": "count/op", "values": "count/op",
         "evals": "count/op", "panels": "count/op", "spans": "count/op",
         "fail_calls": "count/op", "exit_nonzero": "count/op",
         "raised": "count/op", "csv_bytes": "B/op", "hit_ratio": "ratio",
         "overhead": "ratio", "kernel_calls_per_miss": "ratio",
         "ns_per_eval": "ns", "us_per_point": "us", "us_per_value": "us",
         "mb_computed": "MB/op"}


def unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    return "s/op" if suffix.endswith("_s") else UNITS[suffix]


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span); gaps between children stay in the parent."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        lo, hi = span[START], span[END]
        covered = 0
        cursor = lo
        for a, b in sorted(kids):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append(hi - lo - covered)
    return out


def raw_totals(spans, targets, counters) -> dict:
    """Sums over one worker's spans: self time and boundary crossings per
    layer, the bath's hits and misses, and the work counters."""
    selfs = self_times(spans)
    layer_of = [layer for layer, _ in targets]
    name_of = [name for _, name in targets]
    totals = dict(counters)
    totals.update({f"{layer}.self_ns": 0 for layer in LAYERS})
    totals.update({f"{layer}.crossings": 0 for layer in LAYERS})
    totals.update({"dynamics.dephasing_ns": 0, "scenario.parse_ns": 0,
                   "scenario.csv_ns": 0, "bath.hits": 0, "bath.fails": 0,
                   "bath.miss_evals": 0, "spans": len(spans)})
    duration_keys = {"Trajectory.dephasing_states": "dynamics.dephasing_ns",
                     "load_scenario": "scenario.parse_ns",
                     "write_csv": "scenario.csv_ns"}

    reaches_kernel = [False] * len(spans)
    for span in spans:
        if layer_of[span[TARGET]] == "kernels":
            j = span[PARENT]
            while j >= 0 and not reaches_kernel[j]:
                reaches_kernel[j] = True
                j = spans[j][PARENT]

    for i, span in enumerate(spans):
        layer = layer_of[span[TARGET]]
        totals[f"{layer}.self_ns"] += selfs[i]
        key = duration_keys.get(name_of[span[TARGET]])
        if key is not None:
            totals[key] += span[END] - span[START]
        parent = span[PARENT]
        if parent >= 0 and layer_of[spans[parent][TARGET]] == layer:
            continue
        totals[f"{layer}.crossings"] += 1
        if layer == "bath":
            totals["bath.fails"] += span[ERROR] != ERR_NONE
            if reaches_kernel[i]:
                totals["bath.miss_evals"] += span[WORK]
            else:
                totals["bath.hits"] += 1
    return totals


def add_totals(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}


def layer_metrics(t: dict, n_ops: int, wall_ns: int) -> dict:
    """Per-layer metrics as means per traced op, from summed raw totals.

    wall_ns is the summed wall time of the traced ops, measured around each
    op; layer self times plus ``other.self_s`` add up to ``trace.wall_s``.
    """
    def per_op(x):
        return x / max(n_ops, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self_ns = sum(t[f"{layer}.self_ns"] for layer in LAYERS)
    bath_calls = t["bath.crossings"]
    return {
        "trace.wall_s": per_op(wall_ns) / 1e9,
        "other.self_s": per_op(wall_ns - layer_self_ns) / 1e9,
        "trace.spans": per_op(t["spans"]),
        "cli.calls": per_op(t["cli.crossings"]),
        "cli.exit_nonzero": per_op(t["cli.exit_nonzero"]),
        "cli.self_s": per_op(t["cli.self_ns"]) / 1e9,
        "scenario.calls": per_op(t["scenario.crossings"]),
        "scenario.self_s": per_op(t["scenario.self_ns"]) / 1e9,
        "scenario.parse_s": per_op(t["scenario.parse_ns"]) / 1e9,
        "scenario.csv_s": per_op(t["scenario.csv_ns"]) / 1e9,
        "scenario.csv_bytes": per_op(t["scenario.csv_bytes"]),
        "presets.calls": per_op(t["presets.crossings"]),
        "presets.self_s": per_op(t["presets.self_ns"]) / 1e9,
        "dynamics.calls": per_op(t["dynamics.crossings"]),
        "dynamics.points": per_op(t["dynamics.points"]),
        "dynamics.self_s": per_op(t["dynamics.self_ns"]) / 1e9,
        "dynamics.dephasing_s": per_op(t["dynamics.dephasing_ns"]) / 1e9,
        "bath.calls": per_op(bath_calls),
        "bath.self_s": per_op(t["bath.self_ns"]) / 1e9,
        "bath.hit_ratio": ratio(t["bath.hits"], bath_calls),
        "bath.kernel_calls_per_miss":
            ratio(t["kernels.crossings"], bath_calls - t["bath.hits"]),
        "bath.evals": per_op(t["bath.miss_evals"]),
        "bath.fail_calls": per_op(t["bath.fails"]),
        "kernels.calls": per_op(t["kernels.crossings"]),
        "kernels.panels": per_op(t["kernels.panels"]),
        "kernels.self_s": per_op(t["kernels.self_ns"]) / 1e9,
        "kernels.ns_per_eval": ratio(t["kernels.self_ns"], t["kernels.evals"]),
        # Node and integrand arrays (float64) of both Gauss rules, computed
        # from their sizes; cache traffic is not measured.
        "kernels.mb_computed": per_op(t["kernels.evals"] * 2 * 8) / 1e6,
        "qsl.calls": per_op(t["qsl.crossings"]),
        "qsl.points": per_op(t["qsl.points"]),
        "qsl.self_s": per_op(t["qsl.self_ns"]) / 1e9,
        "qsl.us_per_point": ratio(t["qsl.self_ns"], t["qsl.points"]) / 1e3,
        "entropy.calls": per_op(t["entropy.crossings"]),
        "entropy.values": per_op(t["entropy.values"]),
        "entropy.self_s": per_op(t["entropy.self_ns"]) / 1e9,
        "entropy.us_per_value":
            ratio(t["entropy.self_ns"], t["entropy.values"]) / 1e3,
        "linalg2.calls": per_op(t["linalg2.crossings"]),
        "linalg2.self_s": per_op(t["linalg2.self_ns"]) / 1e9,
        "errors.raised": per_op(t["errors.raised"]),
    }
