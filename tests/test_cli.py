import json
import math

import numpy as np
import pytest

from nhqubit import bath, cli, scenario
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

    def test_empty_outputs_manifest_only(self, tmp_path):
        text = PT_CONFIG.replace("outputs = decoherence, entropy, qsl",
                                 "outputs =")
        sc = scenario_from_pairs(_parse_pairs(text))
        out = tmp_path / "out"
        manifest = scenario.run(sc, out)
        assert manifest["files"] == {}
        assert list(out.iterdir()) == [out / "manifest.json"]

    def test_csv_is_byte_deterministic(self, pt_config, tmp_path):
        sc = load_scenario(pt_config)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            scenario.run(sc, out)
            blobs.append((out / "decoherence.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_deterministic_across_thread_counts(self, pt_config, tmp_path,
                                                monkeypatch):
        sc = load_scenario(pt_config)
        blobs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("NHQUBIT_THREADS", threads)
            out = tmp_path / f"t{threads}"
            scenario.run(sc, out)
            blobs.append((out / "qsl.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestCompare:
    def test_apt_upper_bounds_pt(self, pt_config, apt_config, tmp_path):
        report = scenario.compare(load_scenario(pt_config),
                                  load_scenario(apt_config),
                                  tmp_path / "cmp")
        assert report["fraction_b_ge_a"] == 1.0
        assert (tmp_path / "cmp" / "compare.csv").exists()

    def test_grid_mismatch(self, pt_config, apt_config, tmp_path):
        other = scenario.load_scenario(apt_config)
        other = Scenario(
            qubit=other.qubit, bath=other.bath, initial=other.initial,
            t_max=other.t_max, n_points=11, outputs=other.outputs,
        )
        with pytest.raises(GridMismatch):
            scenario.compare(load_scenario(pt_config), other)


class TestCliVerbs:
    def test_list_presets(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

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


class TestExitCodes:
    def test_missing_config(self, capsys):
        assert cli.main(["run", "/no/such/file.cfg"]) == 2

    def test_unknown_preset(self, capsys):
        assert cli.main(["run", "--preset", "nope"]) == 2

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
        monkeypatch.setattr(bath, "TERM_BUDGET", 50)
        code = cli.main(["run", str(pt_config),
                         "--out", str(tmp_path / "q"),
                         "--tol", "1e-13"])
        assert code == 4

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
