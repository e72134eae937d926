import dataclasses
import math

import numpy as np
import pytest

import oracles
from conftest import CAPTION_APT, CAPTION_BATH, CAPTION_PT, count_evaluations
from nhqubit import bath, dynamics, entropy, presets, qsl
from nhqubit.bath import BathParams
from nhqubit.dynamics import (
    QubitParams,
    Symmetry,
    build_hamiltonian,
    check_symmetry,
    evolve,
    evolve_apt,
    evolve_pt,
    phase_function,
    split,
    transformation_matrix,
)
from nhqubit.errors import (BrokenPhase, DomainError, NonPhysicalState,
                             QuadratureDivergence)
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
                          np.linspace(0.0, 5.0, 21), initial=rho0)
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


class TestEvolveSweep:
    FIELDS = ("p1", "p2", "c", "decoherence", "phase", "c_diag",
              "lnorm_analytic")

    def _assert_same(self, one, other):
        assert other.symmetry is one.symmetry
        assert other.max_quad_error == one.max_quad_error
        for field in self.FIELDS:
            a, b = getattr(one, field), getattr(other, field)
            assert (a is None and b is None) or np.array_equal(a, b)

    def test_matches_single_calls_bitwise(self, caption_bath, monkeypatch):
        pt2 = QubitParams(alpha=1.0, theta=0.4, xi=0.81, delta=0.56,
                          symmetry=Symmetry.PT)
        ts = np.linspace(0.0, 20.0, 201)
        singles = [evolve_pt(CAPTION_PT, caption_bath, ts),
                   evolve_apt(CAPTION_APT, caption_bath, ts),
                   evolve_pt(pt2, caption_bath, ts)]
        calls = count_evaluations(monkeypatch)
        table = bath.Kernels(ts, caption_bath)
        sweep = [evolve(p, table) for p in (CAPTION_PT, CAPTION_APT, pt2)]
        assert calls == {"gamma": 1, "gamma_rate": 1, "omega_pt": 1,
                         "omega1": 1, "omega1_rate": 1}
        for one, many in zip(singles, sweep, strict=True):
            self._assert_same(one, many)

    def test_shared_table_matches_own_table_bitwise(self, caption_bath):
        ts = np.linspace(0.0, 20.0, 201)
        qubits = [CAPTION_PT, CAPTION_APT]
        table = bath.Kernels(ts, caption_bath)
        shared = [[evolve(p, table) for p in qubits] for _ in range(2)]
        for many in shared:
            for p, traj in zip(qubits, many, strict=True):
                self._assert_same(
                    evolve(p, bath.Kernels(ts, caption_bath)), traj)

    def test_errors_in_order(self, caption_bath):
        """The exceptional point is rejected before the grid, then a valid
        qubit's grid is."""
        exceptional = QubitParams(alpha=1.0, theta=5.0, xi=3.0, delta=4.0,
                                  symmetry=Symmetry.PT)
        table = bath.Kernels([1.0, 2.0], caption_bath)
        with pytest.raises(BrokenPhase):
            evolve(exceptional, table)
        with pytest.raises(ValueError):
            evolve(CAPTION_PT, table)

    @pytest.mark.parametrize("grid", [[1.0, 2.0], [0.0, 2.0, 1.0], 0.0],
                             ids=["late-start", "not-increasing", "scalar"])
    def test_grid_check_reads_the_tables_grid(self, caption_bath,
                                              monkeypatch, grid):
        """evolve checks the grid the table was built on, after the
        exceptional point and before any kernel is evaluated."""
        exceptional = QubitParams(alpha=1.0, theta=5.0, xi=3.0, delta=4.0,
                                  symmetry=Symmetry.PT)
        table = bath.Kernels(grid, caption_bath)
        calls = count_evaluations(monkeypatch)
        with pytest.raises(BrokenPhase):
            evolve(exceptional, table)
        for p in (CAPTION_PT, CAPTION_APT):
            with pytest.raises(ValueError):
                evolve(p, table)
        assert calls == {}

    @pytest.mark.parametrize("p", [CAPTION_PT, CAPTION_APT],
                             ids=["pt", "apt"])
    def test_table_keeps_its_own_grid(self, caption_bath, p):
        """Changing the caller's grid array after the table is built
        changes neither the table's grid nor the trajectories it gives."""
        ts = np.linspace(0.0, 20.0, 201)
        table = bath.Kernels(ts, caption_bath)
        before = evolve(p, table)
        ts *= 2
        after = evolve(p, table)
        assert np.array_equal(after.times, np.linspace(0.0, 20.0, 201))
        self._assert_same(before, after)
        assert not table.ts.flags.writeable


class TestEigenframeRecord:
    """Every trajectory keeps the eigenframe state it was assembled from,
    and its dephasing frame reads it."""

    @pytest.fixture(params=[CAPTION_PT, CAPTION_APT], ids=["pt", "apt"])
    def traj(self, request, fresh_caption_kernels):
        return presets.caption_trajectory(request.param)

    def test_dephasing_frame_is_the_closed_form(self, traj):
        """Frozen populations and c0 exp(i phase) D, bit for bit."""
        rho0, n = traj.rho0_diag, len(traj)
        assert rho0 == DensityMatrix.plus()
        p1, p2, c = traj.dephasing_frame()
        assert np.array_equal(p1, np.full(n, rho0.p1))
        assert np.array_equal(p2, np.full(n, rho0.p2))
        assert np.array_equal(
            c, rho0.c * np.exp(1j * traj.phase) * traj.decoherence)

    def test_coherence_is_the_read_only_field(self, traj):
        c = traj.dephasing_frame()[2]
        assert np.shares_memory(c, traj.c_diag)
        with pytest.raises(ValueError):
            c[0] = 0.0
        # Anti-PT states are their own eigenframe states.
        assert np.shares_memory(traj.c_diag, traj.c) == (
            traj.symmetry is Symmetry.ANTI_PT)

    def test_rho0_diag_is_the_initial_state(self, caption_bath):
        rho0 = DensityMatrix.from_expectations(sz=0.3, coherence=0.2 - 0.1j)
        for p in (CAPTION_PT, CAPTION_APT):
            traj = evolve(p, bath.Kernels(np.linspace(0.0, 5.0, 11),
                                          caption_bath), initial=rho0)
            assert traj.rho0_diag is rho0

    def test_class_entry_points_take_initial(self, caption_bath):
        rho0 = DensityMatrix.from_expectations(sz=-0.4, coherence=0.1 + 0.2j)
        ts = np.linspace(0.0, 5.0, 11)
        table = bath.Kernels(ts, caption_bath)
        for p, entry in ((CAPTION_PT, evolve_pt), (CAPTION_APT, evolve_apt)):
            traj = entry(p, caption_bath, ts, initial=rho0)
            assert traj.rho0_diag is rho0
            assert np.array_equal(traj.c, evolve(p, table, rho0).c)

    def test_phase_function_reads_the_tables_bath(self):
        other = BathParams(j0=0.7, omega_c=2.0, mu=0.3, beta=1.5)
        ts = np.linspace(0.0, 20.0, 201)
        theta = CAPTION_APT.theta
        f_pt, _ = phase_function(CAPTION_PT, bath.Kernels(ts, other))
        assert np.array_equal(f_pt, bath.omega_pt(ts, theta, other).value)
        f_apt, _ = phase_function(CAPTION_APT, bath.Kernels(ts, other))
        assert np.array_equal(f_apt, bath.omega2(ts, theta, other)
                              - bath.omega1(ts, theta, other).value)
        caption, _ = phase_function(CAPTION_APT,
                                    bath.Kernels(ts, CAPTION_BATH))
        assert not np.allclose(f_apt, caption)


class TestStatesOnFirstRead:
    """p1, p2 and c are derived from the eigenframe state on their first
    read and kept, so what reads only D, the phase or the entropies never
    maps a PT frame, and what reads the states maps it once."""

    GRID = np.linspace(0.0, 20.0, 201)
    NO_MAP = {"inv": 0, "_physical_states": 0}
    ONE_MAP = {"inv": 1, "_physical_states": 1}

    def test_first_read_maps_once(self, caption_bath, frame_maps):
        traj = evolve(CAPTION_PT, bath.Kernels(self.GRID, caption_bath))
        entropy.entropy_series(traj, [0.0, 1.0, 2.0, math.inf])
        traj.dephasing_states()
        assert frame_maps() == self.NO_MAP
        p1 = traj.p1
        assert frame_maps() == self.ONE_MAP
        traj.p2, traj.c, traj.states, qsl.qsl_series(traj)
        assert traj.p1 is p1
        assert frame_maps() == self.ONE_MAP

    def test_presets_map_each_pt_qubit_once(self, frame_maps,
                                            fresh_caption_kernels):
        presets.PRESETS["fig_pt_decoherence"].build(bath.DEFAULT_TOL)
        assert frame_maps() == self.NO_MAP
        seven = {"inv": 7, "_physical_states": 7}
        presets.PRESETS["fig_pt_qsl"].build(bath.DEFAULT_TOL)
        assert frame_maps() == seven
        presets.PRESETS["fig_pt_qsl"].build(bath.DEFAULT_TOL)
        presets.caption_trajectory(presets.caption_pt()).states
        assert frame_maps() == seven

    @pytest.mark.parametrize("p", [CAPTION_PT, CAPTION_APT],
                             ids=["pt", "apt"])
    def test_states_match_the_frame_map_bitwise(self, caption_bath, p):
        """T^-1 rho_d T^-dagger / tr with T scaled by a power of two for
        PT, the eigenframe state itself for Anti-PT."""
        rho0 = DensityMatrix.from_expectations(sz=0.3, coherence=0.2 - 0.1j)
        traj = evolve(p, bath.Kernels(self.GRID, caption_bath), rho0)
        n = len(traj)
        want = (np.full(n, rho0.p1), np.full(n, rho0.p2),
                rho0.c * np.exp(1j * traj.phase) * traj.decoherence)
        if p.symmetry is Symmetry.PT:
            t = transformation_matrix(p)
            scale = np.ldexp(1.0, -np.frexp(np.abs(t).max())[1])
            phys = dynamics._physical_states(np.linalg.inv(t * scale), *want)
            want = phys[:, 0, 0].real, phys[:, 1, 1].real, phys[:, 0, 1]
        else:
            assert traj.c is traj.c_diag
        for got, ref in zip((traj.p1, traj.p2, traj.c), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [CAPTION_PT, CAPTION_APT],
                             ids=["pt", "apt"])
    def test_read_only_and_derived_afresh_by_replace(self, caption_bath,
                                                      frame_maps, p):
        traj = evolve(p, bath.Kernels(self.GRID, caption_bath))
        states = traj.p1, traj.p2, traj.c
        for array in states:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        copy = dataclasses.replace(traj)
        for got, first in zip((copy.p1, copy.p2, copy.c), states):
            assert got is not first and np.array_equal(got, first)
            assert not got.flags.writeable
        maps = 2 if p.symmetry is Symmetry.PT else 0
        assert frame_maps() == {"inv": maps, "_physical_states": maps}

    def test_frame_needs_a_qubit_of_the_class(self, caption_bath):
        traj = evolve(CAPTION_APT, bath.Kernels(self.GRID, caption_bath))
        # Anti-PT states are eigenframe states, which need no qubit.
        copy = dataclasses.replace(traj, qubit=None)
        assert copy.c is copy.c_diag
        with pytest.raises(ValueError, match="PT trajectory needs its qubit"):
            dataclasses.replace(traj, symmetry=Symmetry.PT, qubit=None)
        with pytest.raises(ValueError, match="symmetry PT differs from its "
                           "qubit's, AntiPT"):
            dataclasses.replace(traj, symmetry=Symmetry.PT)

    def test_frame_errors_are_raised_by_every_read(self, caption_bath,
                                                   monkeypatch):
        """The frame's DomainError and NonPhysicalState keep their types
        and messages; evolve, D, the phase and the entropies raise
        neither."""
        table = bath.Kernels(self.GRID, caption_bath)
        monkeypatch.setattr(dynamics, "transformation_matrix",
                            lambda p: np.diag([1.0, 1e-300]).astype(complex))
        traj = evolve(CAPTION_PT, table)
        entropy.entropy_series(traj, [1.0])
        for read in (lambda: traj.p1, lambda: traj.states,
                     lambda: qsl.qsl_series(traj)):
            with pytest.raises(DomainError, match=(
                    r"^PT trajectory: overflow .*, outside the floating-point "
                    r"range \(alpha=1\.0, theta=0\.86, xi=0\.81, "
                    r"delta=0\.56\)$")):
                read()
        monkeypatch.undo()
        physical = dynamics._physical_states
        monkeypatch.setattr(dynamics, "_physical_states",
                            lambda *args: 2.0 * physical(*args))
        traj = evolve(CAPTION_PT, table)
        for _ in range(2):
            with pytest.raises(NonPhysicalState, match=r"^trace 2\.0 != 1"):
                traj.c


class TestFloatRange:
    """Qubit parameters whose splitting or trajectory leaves the float
    range raise DomainError, not OverflowError or numpy warnings."""

    @pytest.mark.parametrize("params", [
        pytest.param(dict(symmetry=Symmetry.PT, alpha=1.0, theta=0.86,
                          xi=1e200, delta=0.5), id="pt-overflow"),
        pytest.param(dict(symmetry=Symmetry.ANTI_PT, alpha=1e200, theta=0.86,
                          xi=1e200, delta=0.5), id="apt-overflow"),
        pytest.param(dict(symmetry=Symmetry.PT, alpha=1.0, theta=0.5,
                          xi=1e154, delta=1e154), id="pt-infinite-sum"),
    ])
    def test_splitting_outside_the_range(self, params):
        with pytest.raises(DomainError, match=r"floating-point range: "
                           r"alpha=.*, theta=.*, xi=.*, delta="):
            QubitParams(**params)

    def test_broken_beyond_the_range_stays_broken(self):
        # alpha^2 - xi^2 - delta^2 is -inf: broken, as before.
        with pytest.raises(BrokenPhase):
            QubitParams(alpha=1e154, theta=0.86, xi=1.3e154, delta=1.3e154,
                        symmetry=Symmetry.ANTI_PT)

    def test_large_splitting_keeps_its_bits(self):
        p = QubitParams(alpha=1.0, theta=0.86, xi=1e150, delta=0.5,
                        symmetry=Symmetry.PT)
        assert split(p).omega0 == math.sqrt(0.5**2 + 1e150**2 - 0.86**2)

    def test_trajectory_outside_the_range(self, caption_bath):
        p = QubitParams(alpha=1.3e154, theta=0.86, xi=1e154, delta=0.5,
                        symmetry=Symmetry.ANTI_PT)
        ts = np.linspace(0.0, 5.0, 21)
        with pytest.raises(DomainError, match=r"AntiPT trajectory: overflow"
                           r".*alpha=1\.3e\+154"):
            evolve_apt(p, caption_bath, ts)
        # A kernel that fails its tol is still reported first.
        with pytest.raises(QuadratureDivergence):
            evolve_apt(p, caption_bath, ts, tol=1e-30)


class TestThetaKernelTable:
    def test_once_per_preset_build(self, tmp_path, monkeypatch,
                                   fresh_caption_kernels):
        """The presets share one table, so a pass of all 13 from a fresh
        one evaluates each kernel once (gamma 11, d gamma/dt 6, omega_pt 7,
        omega1 7 and omega1_rate 6 times with a table per build)."""
        from nhqubit.presets import PRESETS, run_preset
        calls = count_evaluations(monkeypatch)
        for name in PRESETS:
            run_preset(name, tmp_path / name)
        assert calls == {"gamma": 1, "gamma_rate": 1, "omega_pt": 1,
                         "omega1": 1, "omega1_rate": 1}


class TestPTAssembly:
    @pytest.mark.parametrize("n", [3, 4, 201, 2999])
    def test_matches_per_time_loop(self, caption_bath, n):
        """The grid-wide assembly against plain 2x2 T^-1 rho_d T^-dagger / tr,
        one time at a time, for random unbroken PT parameters: every entry
        within 4 ulp of the state's largest entry, the scale at which a
        2x2 product rounds."""
        rng = np.random.default_rng(n)
        ts = np.linspace(0.0, 10.0, n)
        for _ in range(5):
            theta = rng.uniform(-1.0, 1.0)
            xi, delta = rng.uniform(-1.5, 1.5, 2)
            if xi**2 + delta**2 - theta**2 < 1e-2:
                continue
            p = QubitParams(alpha=rng.uniform(-2.0, 2.0), theta=theta, xi=xi,
                            delta=delta, symmetry=Symmetry.PT)
            rho0 = DensityMatrix.from_expectations(
                sz=rng.uniform(-0.5, 0.5), coherence=0.3 * np.exp(
                    2j * np.pi * rng.uniform()))
            traj = evolve_pt(p, caption_bath, ts, initial=rho0)
            t_inv = np.linalg.inv(transformation_matrix(p))
            coherences = rho0.c * np.exp(1j * traj.phase) * traj.decoherence
            for i, c in enumerate(coherences):
                rho_d = np.array([[rho0.p1, c], [np.conj(c), rho0.p2]])
                m = t_inv @ rho_d @ t_inv.conj().T
                m /= (m[0, 0] + m[1, 1]).real
                ulp = np.spacing(np.abs(m).max())
                assert abs(traj.p1[i] - m[0, 0].real) <= 4 * ulp
                assert abs(traj.p2[i] - m[1, 1].real) <= 4 * ulp
                assert abs(traj.c[i] - m[0, 1]) <= 4 * ulp


class TestDecoherenceFunction:
    def test_matches_trajectory(self, caption_bath):
        d = evolve_pt(CAPTION_PT, caption_bath, [0.0, 1.0]).decoherence[1]
        assert d == pytest.approx(
            math.exp(-CAPTION_PT.splitting_squared() * GAMMA_T1), rel=1e-9
        )

    def test_repeat_determinism(self, caption_bath):
        ts = np.linspace(0.0, 10.0, 51)
        results = []
        for _ in range(2):
            traj = evolve_apt(CAPTION_APT, caption_bath, ts)
            results.append((traj.decoherence.copy(), traj.phase.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])
