"""Figure presets: the bath is evaluated once per process, each caption
qubit is evolved once per process, and the written CSVs stay on the
committed snapshot."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls, count_evaluations
from nhqubit import cli, dynamics, presets
from nhqubit.bath import DEFAULT_TOL
from nhqubit.dynamics import Symmetry
from nhqubit.presets import (APT_CASES, APT_PAIRS, CAPTION_BATH, PRESETS,
                             PT_CASES, PT_THETAS, run_preset)

PT, APT = Symmetry.PT, Symmetry.ANTI_PT

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "nhbench" / "reference"
# The benchmark's snapshot rule (nhbench/checks.py).
SNAPSHOT_ATOL = 1e-9
SNAPSHOT_RTOL = 1e-7


def _assemblies(name: str) -> dict[Symmetry, int]:
    """Trajectories each preset builds, per class: one per parameter set,
    none for the phase kernels."""
    if name.endswith("_phase"):
        return {PT: 0, APT: 0}
    if name == "fig_apt_vs_pt_entropy0":
        return {PT: 1, APT: 1}
    if name.startswith("fig_pt_"):
        return {PT: len(PT_THETAS), APT: 0}
    return {PT: 0, APT: len(APT_PAIRS)}


def count_assemblies(monkeypatch) -> dict[Symmetry, int]:
    """Wrap the presets' evolve so that assemblies are counted per
    symmetry class; returns the live counts."""
    calls = {PT: 0, APT: 0}
    assemble = presets.evolve

    def counted(p, *args, **kwargs):
        calls[p.symmetry] += 1
        return assemble(p, *args, **kwargs)

    monkeypatch.setattr(presets, "evolve", counted)
    return calls


def _evaluations(name: str) -> dict[str, int]:
    """Kernels a preset evaluates in a fresh table, once each: gamma for
    any trajectory, d gamma/dt and omega1_rate for Anti-PT ones, and the
    phase kernel of each class it has."""
    trajectories = _assemblies(name)
    apt_trajectories = trajectories[APT] > 0
    needed = {
        "gamma": not name.endswith("_phase"),
        "gamma_rate": apt_trajectories,
        "omega_pt": (trajectories[PT] > 0
                     or name == "fig_pt_phase"),
        "omega1": apt_trajectories or name == "fig_apt_phase",
        "omega1_rate": apt_trajectories,
    }
    return {kernel: 1 for kernel, need in needed.items() if need}


@pytest.mark.parametrize("name", PRESETS)
def test_build_evaluates_the_bath_once(name, tmp_path, monkeypatch,
                                       fresh_caption_kernels):
    kernels = count_evaluations(monkeypatch)
    evolves = count_calls(monkeypatch, dynamics, "evolve_pt", "evolve_apt")
    assemblies = count_assemblies(monkeypatch)
    run_preset(name, tmp_path)
    assert kernels == _evaluations(name)
    assert evolves == {"evolve_pt": 0, "evolve_apt": 0}
    assert assemblies == _assemblies(name)
    # A second build reads the filled table and the shared trajectories.
    run_preset(name, tmp_path / "again")
    assert kernels == _evaluations(name)
    assert evolves == {"evolve_pt": 0, "evolve_apt": 0}
    assert assemblies == _assemblies(name)


def test_pass_evolves_each_caption_qubit_once(tmp_path, monkeypatch,
                                              fresh_caption_kernels):
    """A pass of all 13 presets from a fresh table evolves each of the 7 PT
    and 4 Anti-PT caption qubits once (36 and 21 times with a sweep per
    build); fig_apt_vs_pt_entropy0 reuses theta = 0.86 and (0.81, 0.56)."""
    evolves = count_assemblies(monkeypatch)
    for name in PRESETS:
        run_preset(name, tmp_path / name)
    assert evolves == {PT: len(PT_THETAS), APT: len(APT_PAIRS)}
    # A fresh table starts with no trajectories.
    presets.caption_kernels.cache_clear()
    run_preset("fig_apt_vs_pt_entropy0", tmp_path / "fresh")
    assert evolves == {PT: len(PT_THETAS) + 1, APT: len(APT_PAIRS) + 1}


@pytest.mark.parametrize("preset, cases, sign",
                         [("fig_pt_phase", PT_CASES, -1.0),
                          ("fig_apt_phase", APT_CASES, 1.0)])
def test_one_phase_function(preset, cases, sign, fresh_caption_kernels):
    """Each caption trajectory's phase is 2 omega0 t - omega0 F, and the
    phase preset plots F (Anti-PT) or -F (PT), bit for bit, with F from
    dynamics.phase_function.  The build and the test read one table,
    however its tol is passed."""
    kernels = presets.caption_kernels()
    assert presets.caption_kernels(DEFAULT_TOL) is kernels
    assert presets.caption_kernels(tol=DEFAULT_TOL) is kernels
    ts = kernels.ts
    _, columns, _ = PRESETS[preset].build(DEFAULT_TOL)
    for (label, p), column in zip(cases, columns[1:], strict=True):
        f, _ = dynamics.phase_function(p, kernels)
        traj = presets.caption_trajectory(p)
        assert np.array_equal(traj.phase,
                              2.0 * traj.omega0 * ts - traj.omega0 * f), label
        assert np.array_equal(column, sign * f), label


def test_csv_is_the_same_from_a_fresh_or_shared_trajectory(
        tmp_path, fresh_caption_kernels):
    """Every preset's CSV from a fresh table equals, byte for byte, the
    one written after the other 12 presets, run in reverse order, filled
    the table and its trajectories."""
    fresh = {}
    for name in PRESETS:
        presets.caption_kernels.cache_clear()
        run_preset(name, tmp_path / "fresh" / name)
        fresh[name] = (tmp_path / "fresh" / name / f"{name}.csv").read_bytes()
    for name in PRESETS:
        presets.caption_kernels.cache_clear()
        for other in reversed(PRESETS):
            if other != name:
                run_preset(other, tmp_path / "others")
        run_preset(name, tmp_path / "filled")
        assert (tmp_path / "filled" / f"{name}.csv").read_bytes() \
            == fresh[name], name


def test_failed_tol_leaves_no_trajectory(tmp_path, capsys,
                                         fresh_caption_kernels):
    """A tol the kernels cannot meet exits 4 with the kernel's message, and
    caches nothing that a later run at the default tol would read."""
    out = str(tmp_path / "out")
    for _ in range(2):
        assert cli.main(["run", "--preset", "fig_pt_decoherence",
                         "--tol", "1e-30", "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.err == ("error: gamma at t=0.1: error bound "
                                "2.505e-15 > tol 1.000e-30 after 7638 "
                                "series terms\n")
        assert captured.out == ""
    assert cli.main(["run", "--preset", "fig_pt_decoherence",
                     "--out", out]) == 0
    assert capsys.readouterr().out == "wrote fig_pt_decoherence.csv to " \
        f"{out}\n"


@pytest.mark.parametrize("name", PRESETS)
def test_build_is_the_same_from_a_fresh_or_filled_table(
        name, fresh_caption_kernels):
    for other in PRESETS:
        if other != name:
            PRESETS[other].build(DEFAULT_TOL)
    filled = PRESETS[name].build(DEFAULT_TOL)
    presets.caption_kernels.cache_clear()
    fresh = PRESETS[name].build(DEFAULT_TOL)
    assert filled[0] == fresh[0] and filled[2] == fresh[2]
    for col, again in zip(filled[1], fresh[1], strict=True):
        assert np.array_equal(col, again, equal_nan=True)


def _read(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("name", PRESETS)
def test_csv_matches_snapshot(name, tmp_path):
    run_preset(name, tmp_path)
    header, data = _read(tmp_path / f"{name}.csv")
    ref_header, ref = _read(REFERENCE_DIR / f"{name}.csv")
    assert header == ref_header
    assert data.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(data), nan)
    dev = np.abs(data[~nan] - ref[~nan])
    bound = SNAPSHOT_ATOL + SNAPSHOT_RTOL * np.abs(ref[~nan])
    assert np.all(dev <= bound), f"worst {np.max(dev / bound):.3g} of bound"


@pytest.mark.parametrize("name", PRESETS)
def test_manifest_keys_and_header(name, tmp_path):
    """A preset's CSV has a column per quantity and case, grouped by
    quantity, and its manifest has exactly the documented keys."""
    preset = PRESETS[name]
    manifest = run_preset(name, tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
    assert set(manifest) == {"preset", "description", "parameters", "grid",
                             "tol", "version", "backend", "files",
                             "max_quad_error"}
    header, _ = _read(tmp_path / f"{name}.csv")
    assert header == ["t"] + [f"{q}_{label}" for q in preset.quantities
                              for label, _ in preset.cases]
