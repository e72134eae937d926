"""One benchmark worker process: set up, run ops closed-loop, report.

Usage: python3 worker.py SPEC.json   (started by run.py, never by hand)

The spec names the workload, its op list, the chunk of it to run (in
order) and whether to trace.  Set-up time
runs from the orchestrator's spawn timestamp (CLOCK_MONOTONIC, shared by
all processes) to the moment before the first op.  Each op is timed alone
with no tracing wrappers unless the spec asks for them; outputs go to disk
and are checked by the orchestrator after this process has exited.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import common
from tracing import Tracer, raw_totals


def _import_package():
    import nhqubit
    from nhqubit import cli, dynamics, entropy, qsl, scenario

    where = Path(nhqubit.__file__).resolve()
    if common.SRC not in where.parents:
        raise common.MissingCheckout(f"nhqubit imported from {where}, "
                                     f"not from {common.SRC}")
    return nhqubit, cli, dynamics, entropy, qsl, scenario


def _cols(*arrays):
    return [np.asarray(a, dtype=float) for a in arrays]


class Workload:
    """Builds inputs in set-up and runs one op at a time."""

    def __init__(self, spec: dict, out: Path):
        (self.nhqubit, self.cli, self.dynamics, self.entropy, self.qsl,
         self.scenario) = _import_package()
        self.spec = spec
        self.out = out
        self.name = spec["workload"]
        self.trajectories = {}
        if self.name == "analysis":
            self._evolve(spec["inputs"]["trajectories"])

    def _evolve(self, configs):
        from nhqubit import BathParams, QubitParams, Symmetry

        for k, cfg in enumerate(configs):
            qubit = QubitParams(alpha=cfg["alpha"], theta=cfg["theta"],
                                xi=cfg["xi"], delta=cfg["delta"],
                                symmetry=Symmetry(cfg["symmetry"]))
            bath = BathParams(j0=cfg["j0"], omega_c=cfg["omega_c"],
                              mu=cfg["mu"], beta=cfg["beta"])
            times = np.linspace(0.0, cfg["t_max"], cfg["n_points"])
            evolve = (self.dynamics.evolve_pt if cfg["symmetry"] == "PT"
                      else self.dynamics.evolve_apt)
            traj = evolve(qubit, bath, times)
            self.trajectories[str(k)] = traj
            self.scenario.write_csv(
                self.out / f"traj_{k}.csv", ["t", "D", "max_quad_error"],
                _cols(traj.times, traj.decoherence,
                      np.full(len(times), traj.max_quad_error)))

    def prepare(self, op: dict, op_dir: Path) -> Path | None:
        """Untimed input step: the op's directory and config file."""
        op_dir.mkdir(parents=True)
        if "text" in op:
            path = op_dir / "scenario.cfg"
            path.write_text(op["text"])
            return path
        return None

    def run(self, op: dict, op_dir: Path, cfg_path: Path | None) -> int:
        """The timed op; returns the exit code (0 for library calls)."""
        if self.name == "figures":
            return self.cli.main(["run", "--preset", op["preset"],
                                  "--out", str(op_dir)])
        if self.name == "horizon":
            return self.cli.main(["run", str(cfg_path), "--out", str(op_dir)])
        if self.name == "scenarios":
            self.scenario.run(self.scenario.load_scenario(cfg_path), op_dir)
            return 0
        self._analyse(op, op_dir)
        return 0

    def _analyse(self, op: dict, op_dir: Path):
        qsl, entropy, write_csv = self.qsl, self.entropy, self.scenario.write_csv
        for k, horizons in op["horizons"].items():
            traj = self.trajectories[k]
            series = qsl.qsl_series(traj)
            write_csv(op_dir / f"qsl_{k}.csv",
                      ["t", "bures_angle", "liouvillian_norm", "v_qsl"],
                      [traj.times, series.bures_angle,
                       series.liouvillian_norm, series.v_qsl])
            horizon_t = traj.times[horizons]
            taus = [qsl.tau_qsl(traj, h) for h in horizon_t]
            write_csv(op_dir / f"tau_{k}.csv", ["horizon", "tau_qsl"],
                      _cols(horizon_t, taus))
            table = entropy.entropy_series(traj, op["orders"])
            header = ["t"] + ["S_inf" if np.isinf(q) else f"S_{q!r}"
                              for q in table]
            write_csv(op_dir / f"entropy_{k}.csv", header,
                      [traj.times, *table.values()])


def main(spec_path: str) -> int:
    # A calibration before the set-up's real work and one after it bracket
    # the set-up as they bracket each op; the first one's own time is not
    # set-up time.
    t0 = time.monotonic_ns()
    first_calibration = common.calibration_ns()
    calibrating_ns = time.monotonic_ns() - t0
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out_dir"])
    workload = Workload(spec, out)
    ops = spec["inputs"]["ops"]
    setup_ns = time.monotonic_ns() - spec["spawn_ns"] - calibrating_ns

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    calibrations = [common.calibration_ns()]
    records = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for index in spec["chunk"]:
            op = ops[index]
            op_dir = out / f"op{index}"
            cfg_path = workload.prepare(op, op_dir)
            sink.seek(0)
            sink.truncate()
            if tracer is not None:
                tracer.op = index
            error = None
            t0 = time.perf_counter_ns()
            try:
                rc = workload.run(op, op_dir, cfg_path)
            except Exception as exc:  # a failed op; the run goes on
                t1 = time.perf_counter_ns()
                rc, error = None, f"{type(exc).__name__}: {exc}"
            else:
                t1 = time.perf_counter_ns()
            if rc not in (0, None):
                error = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
            calibrations.append(common.calibration_ns())
            records.append({"index": index, "raw_ns": t1 - t0, "rc": rc,
                            "error": error,
                            "calibration_ns": calibrations[-2:]})

    result = {
        "setup_raw_s": setup_ns / 1e9,
        "setup_calibration_ns": [first_calibration, calibrations[0]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "package": {"version": getattr(workload.nhqubit, "__version__", None),
                    "backend": getattr(workload.nhqubit, "BACKEND", None),
                    "path": str(Path(workload.nhqubit.__file__).parent)},
    }
    if tracer is not None:
        result["trace"] = raw_totals(tracer.spans, tracer.targets,
                                     tracer.counters)
        result["absent_layers"] = tracer.absent
        _write_spans(out / "spans.tsv", tracer)
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


def _write_spans(path: Path, tracer: Tracer) -> None:
    """One line per span: layer, function, start, end (ns), parent, op."""
    with open(path, "w") as fh:
        fh.write("layer\tfunction\tstart_ns\tend_ns\tparent\top\terror\n")
        for target, start, end, parent, op, _, error in tracer.spans:
            layer, name = tracer.targets[target]
            fh.write(f"{layer}\t{name}\t{start}\t{end}\t{parent}\t{op}\t{error}\n")


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1]))
    except common.MissingCheckout as exc:
        print(f"nhbench worker: {exc}", file=sys.stderr)
        sys.exit(2)
