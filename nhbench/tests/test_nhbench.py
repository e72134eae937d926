"""Tests of the benchmark itself: inputs, statistics, tracing, checks.

    python3 -m pytest -q nhbench/tests
"""

import contextlib
import io
import shutil

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from tracing import END, PARENT, START


# --- inputs ----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    first = workloads.op_list_bytes(workload, 7)
    assert workloads.op_list_bytes(workload, 7) == first
    assert workloads.op_list_bytes(workload, 8) != first


def test_generated_configs_are_unbroken_and_in_range():
    for op in workloads.scenarios_ops(3)[:50] + workloads.horizon_ops(3)[:50]:
        cfg = op["config"]
        assert checks.omega0_sq(cfg) > 0.0
        assert -0.5 <= cfg["mu"] <= 1.0  # where the oracle is valid
        assert 0.2 <= cfg["beta"] <= 5.0 and 0.5 <= cfg["omega_c"] <= 2.0


# --- statistics ------------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 25, 130, 1000])
def test_tail_leaves_ten_samples_beyond(n):
    rng = np.random.default_rng(n)
    values = list(rng.lognormal(size=n))
    value, pct, beyond = run.tail(values)
    assert beyond >= 10
    assert sum(v > value for v in values) == beyond
    assert pct == pytest.approx(100.0 * (n - beyond) / n)
    # The highest such value: the next larger sample has fewer beyond it.
    larger = [v for v in values if v > value]
    assert sum(v > min(larger) for v in values) < 10


def test_tail_with_ties_still_leaves_ten_beyond():
    values = [1.0] * 5 + [2.0] * 5 + [3.0] * 10
    value, _, beyond = run.tail(values)
    assert value == 2.0 and beyond == 10


def test_tail_of_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# --- tracing ---------------------------------------------------------------

def _span(start, end, parent):
    span = [0] * 7
    span[START], span[END], span[PARENT] = start, end, parent
    return tuple(span)


def test_self_time_subtracts_only_what_children_cover():
    spans = [_span(0, 100, -1),
             _span(10, 30, 0), _span(20, 40, 0),   # overlap: covers 10..40
             _span(60, 70, 0),                     # gap 40..60 stays
             _span(65, 68, 3),                     # grandchild
             _span(95, 120, 0)]                    # clipped to the parent
    selfs = tracing.self_times(spans)
    assert selfs[0] == 100 - (30 + 10 + 5)
    assert selfs[3] == 10 - 3
    assert selfs[4] == 3


def test_traced_layers_add_up_to_the_wall_time():
    from nhqubit import BathParams, QubitParams, Symmetry, dynamics, entropy, qsl

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traj = dynamics.evolve_pt(
            QubitParams(1.0, 0.5, 0.8, 0.5, Symmetry.PT),
            BathParams(1.0, 1.0, 0.2, 1.0), np.linspace(0.0, 2.0, 11))
        qsl.qsl_series(traj)
        entropy.entropy_series(traj, [0, 1, 2])
    finally:
        tracer.uninstall()
    assert not hasattr(dynamics.evolve_pt, "__wrapped__")
    totals = tracing.raw_totals(tracer.spans, tracer.targets, tracer.counters)
    wall = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    metrics = tracing.layer_metrics(totals, 1, wall)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_sum + metrics["other.self_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-12)
    assert metrics["other.self_s"] == pytest.approx(0.0, abs=1e-12)
    assert metrics["dynamics.points"] == 11 and metrics["qsl.points"] == 11
    assert metrics["entropy.values"] == 33
    assert metrics["bath.calls"] == 22 and metrics["kernels.calls"] > 0
    assert tracer.absent == []


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tuple(
        (layer, "nhqubit._no_such_module" if layer == "kernels" else module,
         path, work) for layer, module, path, work in tracing.TARGETS))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["kernels"]


# --- checks and failure accounting -----------------------------------------

def _scenario_op(tmp_path, text=None):
    from nhqubit import scenario

    op = workloads.scenarios_ops(5)[0]
    out = tmp_path / "w" / "op0"
    out.mkdir(parents=True)
    cfg = out / "scenario.cfg"
    cfg.write_text(text or op["text"])
    scenario.run(scenario.load_scenario(cfg), out)
    return op, out


def _runner(tmp_path, workload, ops):
    return run.Runner(workload, {"ops": ops}, tmp_path / "runs")


def test_correct_scenario_passes_and_scaled_d_fails(tmp_path):
    op, out = _scenario_op(tmp_path)
    runner = _runner(tmp_path, "scenarios", [op])
    records = [{"index": 0, "raw_ns": 1, "wall_ns": 1, "rc": 0, "error": None,
                "calibration_ns": [1, 1]}]
    runner._check(out.parent, records)
    assert records[0]["error"] is None and runner.problems == []

    header, data = checks.read_csv(out / "decoherence.csv")
    data[:, 1] *= 1.0 + 1e-6
    (out / "decoherence.csv").write_text(
        ",".join(header) + "\n"
        + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in data))
    runner._check(out.parent, records)
    assert records[0]["error"].startswith("output check")
    assert len(runner.problems) == 1
    metrics, detail = run.end_to_end([{"setup_s": 1.0, "setup_raw_s": 1.0,
                                       "peak_rss_mb": 1.0, "ops": records}])
    assert detail["failed"] == 1 and metrics["ok_frac"] == 0.0


def test_scenario_with_loosened_tolerance_fails(tmp_path):
    op = workloads.scenarios_ops(5)[0]
    _, out = _scenario_op(tmp_path, op["text"].replace("tol = 1e-09",
                                                       "tol = 1e-06"))
    assert checks.check_scenario_dir(out, op)


def test_preset_matches_reference_unless_tolerance_loosened(tmp_path):
    from nhqubit import cli

    op = workloads.figures_ops(2)[1]  # fig_pt_decoherence
    for tol, expect_ok in ((None, True), ("1e-6", False)):
        out = tmp_path / str(tol)
        argv = ["run", "--preset", op["preset"], "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + (["--tol", tol] if tol else [])) == 0
        assert (checks.check_preset_dir(out, op) == []) is expect_ok


@pytest.mark.parametrize("workload,text,expect", [
    # A config the package rejects: the op raises ConfigError.
    ("scenarios", "qubit.symmetry = PT\n", "ConfigError"),
    # Caption bath at t = 300: gamma's quadrature gives up, exit code 4.
    ("horizon", None, "exit 4"),
])
def test_raise_and_exit_4_count_as_failures(tmp_path, workload, text, expect):
    if text is None:
        cfg = {"symmetry": "PT", "alpha": 1.0, "theta": 0.86, "xi": 0.81,
               "delta": 0.56, "j0": 1.0, "omega_c": 1.0, "mu": -0.5,
               "beta": 0.5, "t_max": 300.0, "n_points": 21}
        text = workloads.config_text(cfg, ["decoherence", "phase"])
    ops = [{"id": 0, "text": text, "outputs": [], "config": {},
            "check_index": 1}]
    runner = _runner(tmp_path, workload, ops)
    result = runner.worker([0], False)
    (record,) = result["ops"]
    assert record["error"].startswith(expect)
    _, detail = run.end_to_end([result])
    assert detail["failed"] == 1
    shutil.rmtree(tmp_path / "runs", ignore_errors=True)
