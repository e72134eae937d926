import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhqubit import bath, cli, dynamics, scenario
from nhqubit.errors import ConfigError, GridMismatch
from nhqubit.presets import PRESETS
from nhqubit.scenario import (
    Scenario,
    load_scenario,
    scenario_from_pairs,
    _parse_pairs,
)

PT_CONFIG = """\
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
grid.t_max = 5.0
grid.n_points = 26
outputs = decoherence, entropy, qsl
"""


@pytest.fixture
def pt_config(tmp_path):
    path = tmp_path / "pt.cfg"
    path.write_text(PT_CONFIG)
    return path


@pytest.fixture
def apt_config(tmp_path):
    path = tmp_path / "apt.cfg"
    path.write_text(PT_CONFIG.replace("= PT", "= AntiPT"))
    return path


class TestConfigParsing:
    def test_full_roundtrip(self, pt_config):
        sc = load_scenario(pt_config)
        assert sc.qubit.theta == 0.86
        assert sc.n_points == 26
        assert sc.outputs == ("decoherence", "entropy", "qsl")
        assert sc.entropy_orders == (0.0, 1.0, 2.0, math.inf)

    def test_comments_and_blank_lines(self):
        pairs = _parse_pairs("# top\n\n a = 1 # trailing\n")
        assert pairs == {"a": "1"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            _parse_pairs("a = 1\na = 2\n")

    def test_missing_assignment(self):
        with pytest.raises(ConfigError, match="expected"):
            _parse_pairs("just words\n")

    def test_unknown_key_rejected(self):
        pairs = _parse_pairs(PT_CONFIG + "qubit.typo = 3\n")
        with pytest.raises(ConfigError, match="unrecognized"):
            scenario_from_pairs(pairs)

    def test_bad_number(self):
        pairs = _parse_pairs(PT_CONFIG.replace("0.86", "eighty-six"))
        with pytest.raises(ConfigError, match="not a number"):
            scenario_from_pairs(pairs)

    def test_unknown_output(self):
        pairs = _parse_pairs(PT_CONFIG.replace(
            "decoherence, entropy, qsl", "decoherence, spectra"))
        with pytest.raises(ConfigError, match="output"):
            scenario_from_pairs(pairs)

    def test_explicit_initial_state(self):
        text = PT_CONFIG.replace(
            "initial.state = plus",
            "initial.sz = 0.2\ninitial.coherence_re = 0.3\n"
            "initial.coherence_im = -0.1",
        )
        sc = scenario_from_pairs(_parse_pairs(text))
        assert sc.initial.sigma_z() == pytest.approx(0.2)
        assert sc.initial.c == pytest.approx(0.3 - 0.1j)

    def test_grid_validation(self):
        pairs = _parse_pairs(PT_CONFIG.replace("grid.n_points = 26",
                                               "grid.n_points = 2"))
        with pytest.raises(ConfigError, match="n_points"):
            scenario_from_pairs(pairs)
        # A library caller's int n_points, in and beyond the float range.
        sc = scenario_from_pairs(_parse_pairs(PT_CONFIG))
        for n_points in (10**300, 10**400, 10**5000):
            with pytest.raises(ConfigError, match="repeats a time"):
                Scenario(qubit=sc.qubit, bath=sc.bath, initial=sc.initial,
                         t_max=5.0, n_points=n_points, outputs=())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(t_max=st.one_of(st.integers(1, 5000).map(lambda k: k * 5e-324),
                           st.floats(5e-324, 1e-300),
                           st.floats(5e-324, allow_infinity=False)),
           n_points=st.integers(3, 2000))
    def test_grid_rejected_iff_linspace_repeats_a_time(self, t_max,
                                                        n_points):
        """A scenario grid is a ConfigError, naming t_max and n_points,
        exactly where linspace(0, t_max, n_points) is not strictly
        increasing."""
        sc = scenario_from_pairs(_parse_pairs(PT_CONFIG))
        increasing = bool(np.all(np.diff(np.linspace(0.0, t_max,
                                                     n_points)) > 0))
        try:
            Scenario(qubit=sc.qubit, bath=sc.bath, initial=sc.initial,
                     t_max=t_max, n_points=n_points, outputs=())
        except ConfigError as exc:
            assert not increasing
            assert f"grid.t_max = {t_max!r}" in str(exc)
            assert f"grid.n_points = {n_points}" in str(exc)
        else:
            assert increasing


class TestRun:
    def test_writes_requested_outputs(self, pt_config, tmp_path):
        out = tmp_path / "out"
        sc = load_scenario(pt_config)
        manifest = scenario.run(sc, out)
        assert set(manifest["files"]) == {"decoherence", "entropy", "qsl"}
        for name in manifest["files"].values():
            assert (out / name).exists()
        assert (out / "manifest.json").exists()
        assert manifest["tau_qsl"] <= sc.t_max
        assert all(v <= sc.tol for v in manifest["max_quad_error"].values())

    @pytest.mark.parametrize("outputs, extra_keys", [
        ("trajectory, decoherence, phase, qsl, entropy", {"tau_qsl"}),
        ("trajectory, decoherence, phase, entropy", set()),
        ("", set()),
    ])
    def test_manifest_keys(self, tmp_path, outputs, extra_keys):
        text = PT_CONFIG.replace("decoherence, entropy, qsl", outputs)
        out = tmp_path / "out"
        manifest = scenario.run(scenario_from_pairs(_parse_pairs(text)), out)
        assert json.loads((out / "manifest.json").read_text()) == manifest
        assert set(manifest) == {"scenario", "version", "backend", "files",
                                 "max_quad_error", *extra_keys}
        kinds = [k.strip() for k in outputs.split(",") if k.strip()]
        assert manifest["files"] == {k: f"{k}.csv" for k in kinds}

    def test_empty_outputs_manifest_only(self, tmp_path):
        text = PT_CONFIG.replace("outputs = decoherence, entropy, qsl",
                                 "outputs =")
        sc = scenario_from_pairs(_parse_pairs(text))
        out = tmp_path / "out"
        manifest = scenario.run(sc, out)
        assert manifest["files"] == {}
        assert list(out.iterdir()) == [out / "manifest.json"]

    def test_entropy_headers_name_distinct_orders(self, tmp_path):
        """Orders that :g rounds together get their full repr; the rest
        keep their :g names."""
        text = PT_CONFIG.replace(
            "outputs = decoherence, entropy, qsl",
            "outputs = entropy\n"
            "entropy.orders = 0, 0.5, 1, 1.0000001, 2.0000004, 2, 3, inf")
        scenario.run(scenario_from_pairs(_parse_pairs(text)), tmp_path)
        header = (tmp_path / "entropy.csv").read_text().splitlines()[0]
        assert header == ("t,S_0,S_0.5,S_1,S_1.0000001,S_2.0000004,S_2,S_3,"
                          "S_inf")

    def test_csv_is_byte_deterministic(self, pt_config, tmp_path):
        sc = load_scenario(pt_config)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            scenario.run(sc, out)
            blobs.append((out / "decoherence.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_deterministic_across_repeats(self, pt_config, tmp_path):
        sc = load_scenario(pt_config)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            scenario.run(sc, out)
            blobs.append((out / "qsl.csv").read_bytes())
        assert blobs[0] == blobs[1]


def _nans(*payloads):
    """Quiet NaNs with the given payloads, distinct bit patterns."""
    return list(np.array([0x7FF8000000000000 + k for k in payloads],
                         dtype=np.int64).view(float))


def _reference_csv(header, columns) -> bytes:
    """The CSV as the repr of each cell, row by row."""
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row)
                                  for row in zip(*columns, strict=True)]
    return ("\n".join(lines) + "\n").encode()


# Values that make runs of equal cells, and runs whose cells are equal as
# floats but not as bits.
RUN_POOL = [0.0, -0.0, math.nan, *_nans(1), math.inf, -math.inf, 5e-324,
            0.5, math.log(2), 1e16]


class TestWriteCsv:
    VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 0.1,
              5e-324]

    def test_golden_bytes(self, tmp_path):
        ints = np.arange(len(self.VALUES))
        floats = np.array(self.VALUES)
        listed = list(reversed(self.VALUES))
        path = tmp_path / "g.csv"
        scenario.write_csv(path, ["i", "x", "y"], [ints, floats, listed])
        assert path.read_bytes() == _reference_csv(["i", "x", "y"],
                                                   [ints, floats, listed])

        # Runs: 0.0 beside -0.0, NaNs of two payloads, inf and -inf.
        runs = np.array([0.0, 0.0, -0.0, -0.0, 0.0, *_nans(0, 0, 5, 5, 0),
                         math.inf, math.inf, -math.inf, -math.inf, math.inf])
        ramp = np.linspace(0.0, 1.0, len(runs))
        columns = [ramp, runs, runs, runs.copy(), -runs, ramp]
        header = ["t", "a", "same", "copy", "neg", "t2"]
        scenario.write_csv(path, header, columns)
        assert path.read_bytes() == _reference_csv(header, columns)

        empty = [np.zeros(0), np.zeros(0)]
        scenario.write_csv(path, ["a", "b"], empty)
        assert path.read_bytes() == b"a,b\n"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n_rows=st.integers(0, 50),
           n_columns=st.integers(1, 6))
    def test_runs_and_repeats_match_repr(self, tmp_path_factory, data,
                                         n_rows, n_columns):
        """Whatever runs and repeated columns a table has, its bytes are
        the repr of every cell."""
        value = st.one_of(st.sampled_from(RUN_POOL), st.floats())
        columns = []
        for _ in range(n_columns):
            if columns and data.draw(st.booleans()):
                columns.append(data.draw(st.sampled_from(columns)))
            else:
                columns.append(np.array(data.draw(
                    st.lists(value, min_size=n_rows, max_size=n_rows))))
        header = [f"c{j}" for j in range(n_columns)]
        path = tmp_path_factory.getbasetemp() / "runs.csv"
        scenario.write_csv(path, header, columns)
        assert path.read_bytes() == _reference_csv(header, columns)

    def test_short_column_raises(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError):
            scenario.write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(2)])
        assert not path.exists()


class TestCompare:
    def test_apt_upper_bounds_pt(self, pt_config, apt_config, tmp_path):
        report = scenario.compare(load_scenario(pt_config),
                                  load_scenario(apt_config),
                                  tmp_path / "cmp")
        assert report["fraction_b_ge_a"] == 1.0
        assert (tmp_path / "cmp" / "compare.csv").exists()
        written = json.loads((tmp_path / "cmp" / "compare.json").read_text())
        assert written == report
        assert set(report) == {"fraction_b_ge_a", "scenario_a", "scenario_b"}

    @pytest.mark.parametrize("xi_b, fraction, ratio", [
        pytest.param(200.0, 1 / 21, 0.0, id="b-decays-faster"),
        pytest.param(0.81, 1.0, math.inf, id="b-decays-slower"),
    ])
    def test_ordered_where_decoherence_underflows(self, tmp_path, xi_b,
                                                  fraction, ratio):
        """PT qubits with xi = 100 and xi_b: D underflows to 0 after t = 0,
        but the exponents omega0^2 gamma still order them, and the ratio
        leaves the float range without a warning."""
        def config(xi):
            text = (PT_CONFIG.replace("qubit.theta = 0.86", "qubit.theta = 0.5")
                    .replace("qubit.xi = 0.81", f"qubit.xi = {xi}")
                    .replace("grid.t_max = 5.0", "grid.t_max = 20.0")
                    .replace("grid.n_points = 26", "grid.n_points = 21"))
            return scenario_from_pairs(_parse_pairs(text))

        report = scenario.compare(config(100.0), config(xi_b),
                                  tmp_path / "cmp")
        assert report["fraction_b_ge_a"] == fraction
        data = np.genfromtxt(tmp_path / "cmp" / "compare.csv",
                             delimiter=",", names=True)
        assert np.all(data["D_a"][1:] == 0.0)
        assert data["ratio"][0] == 1.0 and data["b_ge_a"][0] == 1.0
        assert np.all(data["ratio"][1:] == ratio)
        assert np.all(data["b_ge_a"][1:] == float(ratio > 1.0))

    def test_grid_mismatch(self, pt_config, apt_config, tmp_path):
        other = scenario.load_scenario(apt_config)
        other = Scenario(
            qubit=other.qubit, bath=other.bath, initial=other.initial,
            t_max=other.t_max, n_points=11, outputs=other.outputs,
        )
        with pytest.raises(GridMismatch):
            scenario.compare(load_scenario(pt_config), other)


class TestFrameOnFirstRead:
    """A PT trajectory maps its states to the physical frame on their
    first read, so a run that writes no state never maps them."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "a.cfg", "--out", "o"], id="run"),
        pytest.param(["compare", "a.cfg", "b.cfg", "--out", "o"],
                     id="compare"),
        pytest.param(["run", "--preset", "fig_pt_decoherence", "--out", "o"],
                     id="fig_pt_decoherence"),
    ])
    def test_no_state_written_no_frame_mapped(self, tmp_path, monkeypatch,
                                              frame_maps, argv,
                                              fresh_caption_kernels):
        text = PT_CONFIG.replace(
            "outputs = decoherence, entropy, qsl",
            "outputs = decoherence, phase, entropy\n"
            "entropy.orders = 0.5, 1, 3, inf")
        (tmp_path / "a.cfg").write_text(text)
        (tmp_path / "b.cfg").write_text(
            text.replace("qubit.theta = 0.86", "qubit.theta = 0.5"))
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 0
        assert frame_maps() == {"inv": 0, "_physical_states": 0}

    @pytest.mark.parametrize("outputs", ["trajectory", "qsl",
                                         "trajectory, qsl, decoherence"])
    def test_each_state_output_run_maps_once(self, tmp_path, frame_maps,
                                            outputs):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(PT_CONFIG.replace("decoherence, entropy, qsl",
                                         outputs))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert frame_maps() == {"inv": 1, "_physical_states": 1}

    def test_frame_error_only_where_a_state_is_written(self, tmp_path,
                                                       monkeypatch, capsys):
        """A frame map that leaves the float range fails the run that
        writes the states, with evolve's message, and no other run."""
        monkeypatch.setattr(dynamics, "transformation_matrix",
                            lambda p: np.diag([1.0, 1e-300]).astype(complex))
        cfg = tmp_path / "a.cfg"
        for outputs, code in (("decoherence, phase, entropy", 0),
                              ("trajectory", 2), ("qsl", 2)):
            cfg.write_text(PT_CONFIG.replace("decoherence, entropy, qsl",
                                             outputs))
            out = tmp_path / outputs.replace(", ", "_")
            assert cli.main(["run", str(cfg), "--out", str(out)]) == code
            err = capsys.readouterr().err.splitlines()
            if code:
                assert len(err) == 1 and err[0].startswith(
                    "error: PT trajectory: ")
                assert err[0].endswith("outside the floating-point range "
                                       "(alpha=1.0, theta=0.86, xi=0.81, "
                                       "delta=0.56)")
                assert list(out.iterdir()) == []
            else:
                assert err == []


class TestCliVerbs:
    def test_list_presets(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_list_presets_order(self, capsys):
        assert cli.main(["list-presets"]) == 0
        names = [line.split()[0]
                 for line in capsys.readouterr().out.splitlines()]
        assert names == [
            "fig_pt_phase", "fig_pt_decoherence", "fig_apt_phase",
            "fig_apt_decoherence", "fig_apt_vs_pt_entropy0", "fig_pt_qsl",
            "fig_apt_qsl", "fig_pt_entropy1", "fig_apt_entropy1",
            "fig_pt_entropy2", "fig_apt_entropy2", "fig_pt_entropy_inf",
            "fig_apt_entropy_inf",
        ]

    def test_run_config(self, pt_config, tmp_path, capsys):
        assert cli.main(["run", str(pt_config),
                         "--out", str(tmp_path / "o")]) == 0
        assert "decoherence" in capsys.readouterr().out

    def test_run_preset(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert cli.main(["run", "--preset", "fig_apt_vs_pt_entropy0",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["preset"] == "fig_apt_vs_pt_entropy0"
        data = np.genfromtxt(out / "fig_apt_vs_pt_entropy0.csv",
                             delimiter=",", names=True)
        assert np.allclose(data["S0_pt"][1:], math.log(2.0), atol=1e-9)

    def test_compare_verb(self, pt_config, apt_config, capsys):
        assert cli.main(["compare", str(pt_config), str(apt_config)]) == 0
        assert "1.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"],
                                      ["compare", "a.cfg", "--help"]])
    def test_help(self, capsys, argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for line in ("nhqubit run CONFIG [--out DIR] [--tol TOL]",
                     "nhqubit run --preset NAME [--out DIR] [--tol TOL]",
                     "nhqubit list-presets",
                     "nhqubit compare CONFIG_A CONFIG_B [--out DIR]"):
            assert line in captured.out

    def test_option_value_after_equals_sign(self, pt_config, tmp_path,
                                            capsys):
        """--out=DIR writes the same files, byte for byte, as --out DIR."""
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert cli.main(["run", str(pt_config), "--out", str(spaced)]) == 0
        assert cli.main(["run", str(pt_config), f"--out={joined}"]) == 0
        names = sorted(path.name for path in spaced.iterdir())
        assert names == sorted(path.name for path in joined.iterdir())
        for name in names:
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()


class TestExitCodes:
    def test_missing_config(self, capsys):
        assert cli.main(["run", "/no/such/file.cfg"]) == 2

    def test_unknown_preset(self, capsys):
        assert cli.main(["run", "--preset", "nope"]) == 2

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="no-verb"),
        pytest.param(["frobnicate"], id="unknown-verb"),
        pytest.param(["run", "a.cfg", "--frob", "1"], id="unknown-option"),
        pytest.param(["run", "a.cfg", "--out"], id="out-without-value"),
        pytest.param(["run", "a.cfg", "--tol", "abc"], id="tol-not-a-number"),
        pytest.param(["run", "a.cfg", "b.cfg"], id="two-configs"),
        pytest.param(["compare", "a.cfg"], id="compare-one-config"),
        pytest.param(["list-presets", "extra"], id="list-presets-extra"),
        pytest.param(["run", "--pre", "fig_pt_phase"], id="option-prefix"),
    ])
    def test_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        """A malformed command line exits 2 with one error line; an option
        name must be given in full."""
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_config_and_preset_together(self, pt_config, capsys):
        assert cli.main(["run", str(pt_config), "--preset",
                         "fig_pt_phase"]) == 2

    def test_broken_phase(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(PT_CONFIG.replace("qubit.theta = 0.86",
                                         "qubit.theta = 2.0"))
        assert cli.main(["run", str(cfg)]) == 3

    def test_quadrature_failure(self, pt_config, tmp_path, monkeypatch,
                                capsys):
        # 1e308 times pass the grid check at t_max = 3, and their term
        # count leaves the float range.
        cfg = tmp_path / "long.cfg"
        cfg.write_text(PT_CONFIG.replace(
            "grid.t_max = 5.0\ngrid.n_points = 26",
            "grid.t_max = 3.0\ngrid.n_points = 1e308"))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "l")]) == 4
        assert capsys.readouterr().err == (
            "error: gamma up to t=3.0: inf series terms exceed the budget "
            "of 10000000\n")
        # 26 times need 26 x 38 series terms, more than the patched budget.
        monkeypatch.setattr(bath, "TERM_BUDGET", 50)
        code = cli.main(["run", str(pt_config),
                         "--out", str(tmp_path / "q"),
                         "--tol", "1e-13"])
        assert code == 4
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("bath.j0 = 1.0", "bath.j0 = -1"),
        ("outputs = decoherence, entropy, qsl",
         "outputs = entropy\nentropy.orders = 1, two"),
        ("grid.n_points = 26", "grid.n_points = 3.9"),
        ("outputs = decoherence, entropy, qsl",
         "outputs = entropy\nentropy.orders = -1"),
        ("initial.state = plus", "initial.sz = 2"),
        ("grid.t_max = 5.0", "grid.t_max = inf"),
        pytest.param("grid.t_max = 5.0", "grid.t_max = 5.0\ntol = -1",
                     id="tol-negative"),
        pytest.param("grid.t_max = 5.0", "grid.t_max = 5.0\ntol = 0",
                     id="tol-zero"),
        pytest.param("outputs = decoherence, entropy, qsl",
                     "outputs = entropy\nentropy.orders = 1, 2, 1.0",
                     id="repeated-order"),
        pytest.param("outputs = decoherence, entropy, qsl",
                     "outputs = entropy, decoherence, entropy",
                     id="repeated-output"),
        pytest.param("grid.t_max = 5.0\ngrid.n_points = 26",
                     "grid.t_max = 5e-324\ngrid.n_points = 3",
                     id="grid-repeats-a-time-3"),
        pytest.param("grid.t_max = 5.0\ngrid.n_points = 26",
                     "grid.t_max = 5e-324\ngrid.n_points = 21",
                     id="grid-repeats-a-time-21"),
    ])
    def test_bad_config_value(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(PT_CONFIG.replace(old, new))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("source", ["config", "preset"])
    def test_bad_tol_option(self, pt_config, tmp_path, capsys, tol, source):
        target = ([str(pt_config)] if source == "config"
                  else ["--preset", "fig_pt_phase"])
        code = cli.main(["run", *target, "--out", str(tmp_path / "o"),
                         "--tol", tol])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("edits", [
        pytest.param([("= PT", "= AntiPT"),
                      ("initial.state = plus",
                       "initial.sz = 1\ninitial.coherence_re = 0"),
                      ("outputs = decoherence, entropy, qsl", "outputs = qsl")],
                     id="degenerate-trajectory-apt"),
        pytest.param([("initial.state = plus",
                       "initial.sz = 1\ninitial.coherence_re = 0")],
                     id="degenerate-trajectory-pt"),
    ])
    def test_domain_error_from_config(self, tmp_path, capsys, edits):
        """A domain error a config reaches exits 2, not with a traceback."""
        text = PT_CONFIG
        for old, new in edits:
            text = text.replace(old, new)
        cfg = tmp_path / "domain.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("symmetry, alpha, theta, xi, delta", [
        pytest.param("PT", 1.0, 0.86, 1e200, 0.5, id="pt-xi-1e200"),
        pytest.param("AntiPT", 1e200, 0.86, 1e200, 0.5, id="apt-1e200"),
        pytest.param("PT", 1.0, 0.5, 1e154, 1e154, id="pt-1e154"),
        pytest.param("AntiPT", 1.3e154, 0.86, 1e154, 0.5, id="apt-1.3e154"),
    ])
    def test_qubit_outside_the_float_range(self, tmp_path, capsys, symmetry,
                                           alpha, theta, xi, delta):
        """A splitting or trajectory outside the float range exits 2 with
        one error line that names the parameters."""
        text = PT_CONFIG
        for key, value in (("symmetry", symmetry), ("alpha", alpha),
                           ("theta", theta), ("xi", xi), ("delta", delta)):
            text = "".join(line if not line.startswith(f"qubit.{key} =")
                           else f"qubit.{key} = {value}\n"
                           for line in text.splitlines(keepends=True))
        text = text.replace("grid.n_points = 26", "grid.n_points = 21")
        text = text.replace("outputs = decoherence, entropy, qsl",
                            "outputs = trajectory, decoherence, phase, "
                            "qsl, entropy")
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"alpha={alpha}, theta={theta}, xi={xi}, delta={delta}" \
            in err[0]

    @pytest.mark.parametrize("t_max, n_points", [("1e-310", 21),
                                                 ("1e-300", 3)])
    def test_qsl_on_a_grid_the_stencil_cannot_resolve(
            self, tmp_path, capsys, t_max, n_points):
        """PT speed limits exit 2 where the stencil's denominators round
        to 0; Anti-PT's analytic norm stays finite on the same grid."""
        text = (PT_CONFIG.replace("grid.t_max = 5.0", f"grid.t_max = {t_max}")
                .replace("grid.n_points = 26", f"grid.n_points = {n_points}")
                .replace("outputs = decoherence, entropy, qsl",
                         "outputs = qsl"))
        cfg = tmp_path / "fine.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "pt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: second-order "
                                                   "stencil")
        cfg.write_text(text.replace("= PT", "= AntiPT"))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "apt")]) \
            == 0

        def reject(constant):
            raise ValueError(f"{constant} in the manifest")

        manifest = json.loads((tmp_path / "apt" / "manifest.json").read_text(),
                              parse_constant=reject)
        assert manifest["tau_qsl"] == 0.0

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe" + PT_CONFIG.encode())
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("verb, outputs, code", [
        ("run", "decoherence", 4),
        ("compare", "decoherence", 4),
        ("run", "", 0),
    ])
    def test_grid_over_term_budget(self, tmp_path, capsys, verb, outputs,
                                   code):
        """A grid longer than the term budget fails before it is built; a
        run without outputs builds none and succeeds."""
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(PT_CONFIG.replace("grid.n_points = 26",
                                         "grid.n_points = 1e15")
                       .replace("decoherence, entropy, qsl", outputs))
        configs = [str(cfg)] * (2 if verb == "compare" else 1)
        assert cli.main([verb, *configs, "--out", str(tmp_path / "o")]) == code
        if code:
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("t_max, n_points, code", [
        (20.0, 100_000, 0),
        (1.0, 300_000, 4),
    ])
    def test_grid_limit_independent_of_horizon(self, tmp_path, capsys,
                                               monkeypatch, t_max, n_points,
                                               code):
        """The longest grid is 10^7 / 38 = 263,157 points at any t_max; a
        longer one fails before the trajectory is evolved."""
        if code:
            def refuse(*args, **kwargs):
                raise AssertionError("evolved a grid over the term budget")
            monkeypatch.setattr(scenario, "evolve", refuse)
        cfg = tmp_path / "long.cfg"
        cfg.write_text(PT_CONFIG
                       .replace("grid.t_max = 5.0", f"grid.t_max = {t_max}")
                       .replace("grid.n_points = 26",
                                f"grid.n_points = {n_points}")
                       .replace("decoherence, entropy, qsl", "decoherence"))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == code
        if code:
            assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("edits", [
        pytest.param([("bath.mu = -0.5", "bath.mu = 172"),
                      ("bath.beta = 0.5", "bath.beta = 1000")],
                     id="gamma-overflow"),
        pytest.param([("bath.omega_c = 1.0", "bath.omega_c = 1e-200"),
                      ("bath.beta = 0.5", "bath.beta = 1e300"),
                      ("bath.mu = -0.5", "bath.mu = 2")],
                     id="omega_c-power-overflow"),
        pytest.param([("bath.omega_c = 1.0", "bath.omega_c = 1e200"),
                      ("bath.mu = -0.5", "bath.mu = 2")],
                     id="omega_c-prefactor-underflow"),
    ])
    def test_extreme_bath_prefactor(self, tmp_path, capsys, edits):
        """A bath whose prefactor 4 j0 omega_c^-mu Gamma(mu+1) overflows, or
        underflows where a^-mu overflows, exits 4, not with a traceback."""
        text = PT_CONFIG.replace("decoherence, entropy, qsl", "decoherence")
        for old, new in edits:
            text = text.replace(old, new)
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "floating-point range" in err

    @pytest.mark.parametrize("tol", [None, "1e300"])
    def test_theta_outside_the_float_range(self, tmp_path, capsys, tol):
        """An Anti-PT theta (not in the splitting) that scales Omega_1 out
        of the float range exits 4 with one error line naming the kernel,
        the time and theta, not a numpy warning or a bound claim."""
        text = (PT_CONFIG.replace("= PT", "= AntiPT")
                .replace("qubit.theta = 0.86", "qubit.theta = 1e308")
                .replace("grid.t_max = 5.0", "grid.t_max = 20.0")
                .replace("grid.n_points = 26", "grid.n_points = 21")
                .replace("decoherence, entropy, qsl",
                         ", ".join(scenario.OUTPUT_KINDS)))
        cfg = tmp_path / "huge_theta.cfg"
        cfg.write_text(text)
        argv = ["run", str(cfg), "--out", str(tmp_path / "o")]
        if tol is not None:
            argv += ["--tol", tol]
        assert cli.main(argv) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith(
            "error: omega1 at t=2.0: theta=1e+308 ")
        assert "floating-point range" in err[0]

    def test_splitting_near_the_float_limit_runs(self, tmp_path, capsys):
        """A PT qubit with omega0 near 1e154, where T's entries are huge but
        the states exist, writes physical states for every output."""
        text = (PT_CONFIG.replace("qubit.theta = 0.86", "qubit.theta = 0.5")
                .replace("qubit.xi = 0.81", "qubit.xi = 1e154")
                .replace("qubit.delta = 0.56", "qubit.delta = 0.5")
                .replace("grid.t_max = 5.0", "grid.t_max = 1e-5")
                .replace("grid.n_points = 26", "grid.n_points = 21")
                .replace("decoherence, entropy, qsl",
                         ", ".join(scenario.OUTPUT_KINDS)))
        cfg = tmp_path / "large_splitting.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        data = np.genfromtxt(tmp_path / "o" / "trajectory.csv",
                             delimiter=",", names=True)
        assert np.all(np.abs(data["rho11"] + data["rho22"] - 1.0) <= 1e-12)
        for column in ("rho11", "rho22"):
            assert np.all((data[column] >= 0.0) & (data[column] <= 1.0))

    def test_io_failure(self, pt_config, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = cli.main(["run", str(pt_config),
                         "--out", str(blocker / "sub")])
        assert code == 5

    def test_grid_mismatch_exit(self, pt_config, tmp_path, capsys):
        other = tmp_path / "other.cfg"
        other.write_text(PT_CONFIG.replace("grid.n_points = 26",
                                           "grid.n_points = 11"))
        assert cli.main(["compare", str(pt_config), str(other)]) == 2


def test_large_renyi_order_writes_finite_entropies(tmp_path):
    """An order past the underflow of lo^q + hi^q writes finite entropies
    and no warning."""
    cfg = tmp_path / "large_order.cfg"
    cfg.write_text(PT_CONFIG.replace(
        "outputs = decoherence, entropy, qsl",
        "outputs = entropy\nentropy.orders = 1, 2000"))
    code = ("import sys; from nhqubit.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, "run", str(cfg),
                          "--out", str(tmp_path / "o")], cwd=src,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert out.stderr == ""
    data = np.genfromtxt(tmp_path / "o" / "entropy.csv", delimiter=",",
                         skip_header=1)
    assert data.shape == (26, 3) and np.isfinite(data).all()


def test_import_loads_no_argparse():
    """Importing the CLI loads neither argparse nor the gettext and locale
    modules it pulls in: building its parsers cost every fresh process
    about 4 ms before its first run."""
    code = ("import sys, nhqubit.cli; "
            "print([m for m in ('argparse', 'gettext', 'locale') "
            "if m in sys.modules])")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy():
    """The package and its CLI import numpy only: scipy.special alone took
    about two thirds of every process's start-up."""
    code = ("import sys, nhqubit, nhqubit.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


# The draw space of the CLI contract property.  Each config line holds an
# ordinary value, except on up to three keys, which hold a float-range
# extreme, a malformed token or no line at all; outputs and entropy.orders
# hold a valid list, in any order, except where drawn as odd keys too, when
# their lists may repeat an entry or hold a bad one.
ORDINARY = {
    "qubit.symmetry": ("PT", "AntiPT"),
    "qubit.alpha": ("1.5", "1.2", "-2.0"),
    "qubit.theta": ("0.86", "0.5", "0", "-0.3"),
    "qubit.xi": ("0.81", "1.0"),
    "qubit.delta": ("0.56", "0.2"),
    "bath.j0": ("1.0", "0.1"),
    "bath.omega_c": ("1.0", "5.0"),
    "bath.mu": ("-0.5", "0", "1", "2.5"),
    "bath.beta": ("0.5", "10"),
    "initial.state": ("plus",),
    "initial.sz": ("0", "0.2", "-0.5"),
    "initial.coherence_re": ("0.3", "0.2", "0"),
    "initial.coherence_im": ("0", "-0.1"),
    "grid.t_max": ("5.0", "20", "0.3"),
    # The term budget is patched to BUDGET_POINTS points, so that grids on
    # both sides of it run in milliseconds.
    "grid.n_points": ("3", "11", "26", "39", "40", "41"),
    "tol": ("1e-9", "1e-6", "1e-13"),
}
BUDGET_POINTS = 40
EXTREMES = ("5e-324", "1e-320", "1e154", "1e308", "1.7976931348623157e308",
            "inf", "nan", "-0.0")
MALFORMED = ("", "two", "1e", "0.5.1", "--")
ORDERS = ("0", "0.5", "1", "1.0000001", "2", "3", "2000", "inf")


@st.composite
def _configs(draw, grid=None):
    """A config text from the draw space; grid, when given, replaces its
    grid lines (compare draws its second config on the first's grid)."""
    initial = draw(st.sampled_from([
        ("initial.state",),
        ("initial.sz", "initial.coherence_re", "initial.coherence_im")]))
    keys = [key for key in ORDINARY
            if not key.startswith("initial.") or key in initial]
    odd = draw(st.sets(st.sampled_from(keys + ["outputs", "entropy.orders"]),
                       max_size=3))
    lines = {}
    for key in keys:
        if key in odd:
            value = draw(st.one_of(st.sampled_from(EXTREMES),
                                   st.sampled_from(MALFORMED), st.none()))
        else:
            value = draw(st.sampled_from(ORDINARY[key]))
        if value is not None:
            lines[key] = value
    if grid is not None:
        lines.pop("grid.t_max", None)
        lines.pop("grid.n_points", None)
        lines.update(grid)
    kinds = scenario.OUTPUT_KINDS
    lines["outputs"] = ", ".join(draw(
        st.lists(st.sampled_from(kinds + ("spectra",)), max_size=6)
        if "outputs" in odd else st.lists(st.sampled_from(kinds), unique=True)))
    if "entropy.orders" in odd:
        lines["entropy.orders"] = ", ".join(draw(st.lists(
            st.sampled_from(ORDERS + ("-1", "two", *EXTREMES)), max_size=5)))
    elif draw(st.booleans()):
        lines["entropy.orders"] = ", ".join(draw(st.lists(
            st.sampled_from(ORDERS), unique=True, max_size=5)))
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def _grid_lines(text):
    """The grid keys of a config text and their values."""
    return {key: value for key, _, value in (
        line.partition(" = ") for line in text.splitlines())
        if key in ("grid.t_max", "grid.n_points")}


@st.composite
def _command_lines(draw):
    """(verb, config texts, run's --tol token or None) from the draw
    space."""
    texts = [draw(_configs())]
    if draw(st.booleans()):
        # Three in four share the grid, so most get past GridMismatch.
        shared = draw(st.sampled_from([True, True, True, False]))
        texts.append(draw(_configs(_grid_lines(texts[0]) if shared
                                   else None)))
        return "compare", texts, None
    return "run", texts, draw(st.one_of(st.none(), st.sampled_from(
        ORDINARY["tol"] + EXTREMES + MALFORMED)))


def _reject_constant(constant):
    raise ValueError(f"{constant} in the JSON")


class TestContract:
    """Every config keeps the documented CLI contract."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_command_lines())
    @example(case=("run", [PT_CONFIG.replace("bath.mu = -0.5",
                                             "bath.mu = 1e308")], None))
    @example(case=("run", [PT_CONFIG.replace(
        "grid.t_max = 5.0\ngrid.n_points = 26",
        "grid.t_max = 5e-324\ngrid.n_points = 3")], None))
    @example(case=("compare", [PT_CONFIG.replace(
        "grid.t_max = 5.0\ngrid.n_points = 26",
        "grid.t_max = 5e-324\ngrid.n_points = 21")] * 2, None))
    @example(case=("run", [PT_CONFIG.replace(
        "grid.t_max = 5.0\ngrid.n_points = 26",
        "grid.t_max = 1.7976931348623157e308\ngrid.n_points = 39")], None))
    def test_every_config_exits_with_a_documented_code(self,
                                                        tmp_path_factory,
                                                        case):
        """The exit code is in {0, 2, 3, 4, 5}; a failure prints one
        error: line and nothing on stdout; a success writes JSON without
        NaN or infinities and exactly the files it lists."""
        verb, texts, tol = case
        with tempfile.TemporaryDirectory(
                dir=tmp_path_factory.getbasetemp()) as work:
            work = Path(work)
            argv = [verb]
            for i, text in enumerate(texts):
                (work / f"{i}.cfg").write_text(text)
                argv.append(str(work / f"{i}.cfg"))
            out = work / "out"
            argv += ["--out", str(out)]
            if tol is not None:
                argv += ["--tol", tol]
            stdout, stderr = io.StringIO(), io.StringIO()
            with pytest.MonkeyPatch.context() as mp, \
                    contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                mp.setattr(bath, "TERM_BUDGET", BUDGET_POINTS * bath._TERMS)
                code = cli.main(argv)
            assert code in (0, 2, 3, 4, 5)
            if code:
                err = stderr.getvalue().splitlines()
                assert len(err) == 1 and err[0].startswith("error: "), err
                assert stdout.getvalue() == ""
                return
            assert stderr.getvalue() == ""
            assert len(stdout.getvalue().splitlines()) == 1
            written = {path.name for path in out.iterdir()}
            if verb == "compare":
                json.loads((out / "compare.json").read_text(),
                           parse_constant=_reject_constant)
                assert written == {"compare.csv", "compare.json"}
                return
            manifest = json.loads((out / "manifest.json").read_text(),
                                  parse_constant=_reject_constant)
            assert written == {"manifest.json", *manifest["files"].values()}
