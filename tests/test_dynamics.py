import math

import numpy as np
import pytest

import oracles
from conftest import CAPTION_APT, CAPTION_PT
from nhqubit import bath
from nhqubit.dynamics import (
    QubitParams,
    Symmetry,
    build_hamiltonian,
    check_symmetry,
    decoherence_function,
    evolve_apt,
    evolve_pt,
    split,
    transformation_matrix,
)
from nhqubit.errors import BrokenPhase
from nhqubit.linalg2 import DensityMatrix

GAMMA_T1 = 13.606317734925256  # frozen oracle value, caption bath

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


class TestHamiltonian:
    def test_pt_symmetry_holds(self):
        h = build_hamiltonian(CAPTION_PT)
        assert check_symmetry(h, Symmetry.PT)
        assert not check_symmetry(h, Symmetry.ANTI_PT)

    def test_apt_symmetry_holds(self):
        h = build_hamiltonian(CAPTION_APT)
        assert check_symmetry(h, Symmetry.ANTI_PT)
        assert not check_symmetry(h, Symmetry.PT)

    def test_sigma_z_fails_pt(self):
        # sigma_x conj(sigma_z) sigma_x = -sigma_z
        assert not check_symmetry(SIGMA_Z, Symmetry.PT)
        assert check_symmetry(SIGMA_Z, Symmetry.ANTI_PT)


class TestSplit:
    def test_pt_caption_values(self):
        s = split(CAPTION_PT)
        assert s.omega0**2 == pytest.approx(0.2301, abs=1e-12)
        assert abs(s.omega0 - 0.479687) < 1e-6
        assert s.eigenvalues[0] == pytest.approx(1.0 - s.omega0)
        assert s.eigenvalues[1] == pytest.approx(1.0 + s.omega0)

    def test_apt_caption_values(self):
        s = split(CAPTION_APT)
        assert s.omega0**2 == pytest.approx(0.0303, abs=1e-12)
        assert abs(s.omega0 - 0.174069) < 1e-6
        assert s.eigenvalues[0] == pytest.approx(1j * 0.86 - s.omega0)
        assert s.eigenvalues[1] == pytest.approx(1j * 0.86 + s.omega0)

    @pytest.mark.parametrize("params", [CAPTION_PT, CAPTION_APT])
    def test_matches_eigenvalue_oracle(self, params):
        s = split(params)
        ref, _ = oracles.brute_eig(build_hamiltonian(params))
        got = sorted(s.eigenvalues, key=lambda z: z.real)
        ref = sorted(ref, key=lambda z: z.real)
        assert got[0] == pytest.approx(ref[0], abs=1e-12)
        assert got[1] == pytest.approx(ref[1], abs=1e-12)

    def test_broken_regime_rejected(self):
        with pytest.raises(BrokenPhase):
            QubitParams(alpha=1.0, theta=2.0, xi=0.1, delta=0.1,
                        symmetry=Symmetry.PT)
        with pytest.raises(BrokenPhase):
            QubitParams(alpha=0.1, theta=0.86, xi=0.8, delta=0.5,
                        symmetry=Symmetry.ANTI_PT)


class TestTransformation:
    @pytest.mark.parametrize("params", [CAPTION_PT, CAPTION_APT])
    def test_diagonalizes(self, params):
        h = build_hamiltonian(params)
        t = transformation_matrix(params)
        d = t @ h @ np.linalg.inv(t)
        s = split(params)
        expect = np.diag([s.eigenvalues[0], s.eigenvalues[1]])
        assert np.allclose(d, expect, atol=1e-12)


class TestEvolvePT:
    @pytest.fixture
    def traj(self, caption_bath):
        ts = np.linspace(0.0, 20.0, 101)
        return evolve_pt(CAPTION_PT, caption_bath, ts)

    def test_decoherence_matches_gamma_oracle(self, traj):
        omega0_sq = CAPTION_PT.splitting_squared()
        idx = np.where(traj.times == 1.0)[0]
        if len(idx) == 0:
            idx = [np.argmin(np.abs(traj.times - 1.0))]
        # grid step 0.2 -> t=1 is a grid point
        assert traj.times[idx[0]] == 1.0
        assert traj.decoherence[idx[0]] == pytest.approx(
            math.exp(-omega0_sq * GAMMA_T1), rel=1e-9
        )

    def test_decoherence_decreasing_from_one(self, traj):
        assert traj.decoherence[0] == 1.0
        assert np.all(np.diff(traj.decoherence) < 0)

    def test_states_physical(self, traj):
        for s in traj.states:
            assert abs(s.p1 + s.p2 - 1.0) <= 1e-12
            lo, hi = s.eigenvalues(clamp=False)
            assert lo >= -1e-10 and hi <= 1.0 + 1e-10

    def test_initial_state_matches_diag_frame_map(self, traj):
        # t = 0: physical state is T^-1 rho_D(0) (T^-1)^dagger, normalized.
        t_inv = np.linalg.inv(transformation_matrix(CAPTION_PT))
        raw = t_inv @ DensityMatrix.plus().matrix @ t_inv.conj().T
        raw /= np.trace(raw).real
        assert np.allclose(traj.states[0].matrix, raw, atol=1e-12)

    def test_phase_starts_at_zero(self, traj):
        assert traj.phase[0] == 0.0

    def test_wrong_class_rejected(self, caption_bath):
        with pytest.raises(ValueError):
            evolve_pt(CAPTION_APT, caption_bath, [0.0, 1.0, 2.0])

    def test_time_grid_validation(self, caption_bath):
        with pytest.raises(ValueError):
            evolve_pt(CAPTION_PT, caption_bath, [1.0, 2.0])
        with pytest.raises(ValueError):
            evolve_pt(CAPTION_PT, caption_bath, [0.0, 2.0, 1.0])

    def test_exceptional_point_rejected(self, caption_bath):
        p = QubitParams(alpha=1.0, theta=5.0, xi=3.0, delta=4.0,
                        symmetry=Symmetry.PT)
        assert split(p).omega0 == 0.0
        with pytest.raises(BrokenPhase):
            evolve_pt(p, caption_bath, [0.0, 1.0])


class TestEvolveAPT:
    @pytest.fixture
    def traj(self, caption_bath):
        ts = np.linspace(0.0, 20.0, 101)
        return evolve_apt(CAPTION_APT, caption_bath, ts)

    def test_populations_frozen_exactly(self, traj):
        for s in traj.states:
            assert s.p1 == 0.5 and s.p2 == 0.5

    def test_sigma_z_constant(self, caption_bath):
        rho0 = DensityMatrix.from_expectations(sz=0.3, coherence=0.2 + 0.1j)
        traj = evolve_apt(CAPTION_APT, caption_bath,
                          np.linspace(0.0, 5.0, 21), rho0=rho0)
        for s in traj.states:
            assert s.sigma_z() == pytest.approx(0.3, abs=1e-15)

    def test_coherence_closed_form(self, traj, caption_bath):
        omega0 = traj.omega0
        t = 5.0
        i = int(np.where(traj.times == t)[0][0])
        g = bath.gamma(t, caption_bath).value
        o1 = bath.omega1(t, 0.86, caption_bath).value
        o2 = bath.omega2(t, 0.86, caption_bath)
        phi = 2 * omega0 * t - omega0 * (o2 - o1)
        expect = 0.5 * np.exp(1j * phi) * math.exp(-omega0**2 * g)
        assert traj.states[i].c == pytest.approx(expect, abs=1e-12)

    def test_analytic_lnorm_present(self, traj):
        assert traj.lnorm_analytic is not None
        assert np.all(traj.lnorm_analytic >= 0.0)

    def test_slower_than_pt(self, traj, caption_bath):
        pt = evolve_pt(CAPTION_PT, caption_bath, traj.times)
        assert np.all(traj.decoherence[1:] > pt.decoherence[1:])

    def test_wrong_class_rejected(self, caption_bath):
        with pytest.raises(ValueError):
            evolve_apt(CAPTION_PT, caption_bath, [0.0, 1.0])


class TestDecoherenceFunction:
    def test_matches_trajectory(self, caption_bath):
        d = decoherence_function(CAPTION_PT, caption_bath, 1.0)
        assert d == pytest.approx(
            math.exp(-CAPTION_PT.splitting_squared() * GAMMA_T1), rel=1e-9
        )

    def test_threading_determinism(self, caption_bath, monkeypatch):
        ts = np.linspace(0.0, 10.0, 51)
        results = []
        for threads in ("1", "8"):
            monkeypatch.setenv("NHQUBIT_THREADS", threads)
            traj = evolve_apt(CAPTION_APT, caption_bath, ts)
            results.append((traj.decoherence.copy(), traj.phase.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])
