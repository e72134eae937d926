import dataclasses
import math

import numpy as np
import pytest

import oracles
from conftest import CAPTION_APT, CAPTION_PT, count_calls
from nhqubit import bath, qsl
from nhqubit.dynamics import (Symmetry, Trajectory, evolve, evolve_apt,
                              evolve_pt)
from nhqubit.errors import (AngleSingularity, DegenerateTrajectory,
                             GridTooCoarse)
from nhqubit.linalg2 import DensityMatrix


@pytest.fixture
def pt_traj(caption_bath):
    return evolve_pt(CAPTION_PT, caption_bath, np.linspace(0.0, 10.0, 101))


@pytest.fixture
def apt_traj(caption_bath):
    return evolve_apt(CAPTION_APT, caption_bath, np.linspace(0.0, 10.0, 101))


def _synthetic_rotation(n=401, t_max=2.0, rate=1.3, amplitude=0.4):
    """Pure phase wobble: |c| constant, gamma identically zero.  The states
    are the eigenframe ones, populations 0.5 and coherence c_diag."""
    ts = np.linspace(0.0, t_max, n)
    return Trajectory(
        symmetry=Symmetry.ANTI_PT,
        omega0=1.0,
        times=ts,
        decoherence=np.ones(n),
        phase=rate * ts,
        max_quad_error=0.0,
        rho0_diag=DensityMatrix(p1=0.5, p2=0.5, c=complex(amplitude)),
        c_diag=amplitude * np.exp(1j * rate * ts),
    )


class TestBuresAngle:
    def test_self_angle_zero(self):
        rho = DensityMatrix.plus()
        assert qsl.bures_angle(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        up = DensityMatrix(p1=1.0, p2=0.0, c=0.0j)
        down = DensityMatrix(p1=0.0, p2=1.0, c=0.0j)
        assert qsl.bures_angle(up, down) == pytest.approx(math.pi / 2)

    def test_monotone_early_growth(self, apt_traj):
        angles = [qsl.bures_angle(apt_traj.states[0], s)
                  for s in apt_traj.states[:10]]
        assert all(b > a for a, b in zip(angles, angles[1:]))


class TestLiouvillianNorm:
    def test_apt_analytic_vs_numeric(self, caption_bath):
        # Fine grid so the second-order stencil resolves the closed form.
        traj = evolve_apt(CAPTION_APT, caption_bath,
                          np.linspace(0.0, 2.0, 2001))
        for i in (1, 500, 1000, 1500, 1999):
            analytic = qsl.liouvillian_norm(traj, i)
            numeric = qsl.liouvillian_norm(traj, i, force_numeric=True)
            assert numeric == pytest.approx(analytic, abs=1e-6)

    def test_pure_rotation_product_rule(self):
        # Hand-differentiated: |d rho/dt|_op = |c| * |phase rate|.
        traj = _synthetic_rotation(rate=1.3, amplitude=0.4)
        for i in (0, 100, 200, 400):
            got = qsl.liouvillian_norm(traj, i)
            assert got == pytest.approx(0.4 * 1.3, abs=1e-4)

    def test_grid_too_coarse(self):
        traj = _synthetic_rotation(n=2)
        with pytest.raises(GridTooCoarse):
            qsl.liouvillian_norm(traj, 0)

    @pytest.mark.parametrize("t_max, n", [(1e-310, 21), (1e-300, 3)])
    def test_grid_spacing_below_the_float_range(self, caption_bath, t_max,
                                                n):
        """The stencil's denominators round to 0: GridTooCoarse, not NaN."""
        ts = np.linspace(0.0, t_max, n)
        traj = evolve_pt(CAPTION_PT, caption_bath, ts)
        with pytest.raises(GridTooCoarse, match="cannot resolve the grid"):
            qsl.qsl_series(traj)
        with pytest.raises(GridTooCoarse):
            qsl.liouvillian_norm(evolve_apt(CAPTION_APT, caption_bath, ts), 0,
                                 force_numeric=True)

    def test_grid_spacing_above_the_float_range(self):
        """Spacings of 2.5e199 overflow the denominators: GridTooCoarse,
        with no numpy warning."""
        wide = bath.BathParams(j0=1.0, omega_c=1e-200, mu=0.0, beta=1.0)
        traj = evolve_pt(CAPTION_PT, wide, np.linspace(0.0, 1e200, 5),
                         tol=1e300)
        with pytest.raises(GridTooCoarse, match="cannot resolve the grid"):
            qsl.qsl_series(traj)

    def test_index_bounds(self, pt_traj, apt_traj):
        for traj in (pt_traj, apt_traj):
            n = len(traj)
            for index in (n, -n):
                with pytest.raises(IndexError, match=f"index {index} outside "
                                   f"grid of length {n}"):
                    qsl.liouvillian_norm(traj, index)


class TestVQsl:
    def test_index_bounds(self, pt_traj, apt_traj):
        # -n would wrap to t = 0 and n is past the grid's end: both are
        # rejected before the angle is read, as liouvillian_norm does.
        for traj in (pt_traj, apt_traj):
            n = len(traj)
            for index in (n, -n):
                with pytest.raises(IndexError, match=f"index {index} outside "
                                   f"grid of length {n}"):
                    qsl.v_qsl(traj, index)

    def test_singular_at_t0(self, apt_traj):
        with pytest.raises(AngleSingularity):
            qsl.v_qsl(apt_traj, 0)

    def test_finite_mid_trajectory(self, apt_traj):
        v = qsl.v_qsl(apt_traj, 50)
        assert math.isfinite(v) and v > 0

    def test_matches_from_scratch_recomputation(self, caption_bath):
        traj = evolve_apt(CAPTION_APT, caption_bath,
                          np.linspace(0.0, 2.0, 2001))
        i = 1000
        f = oracles.brute_fidelity(traj.states[0].matrix,
                                   traj.states[i].matrix)
        angle = math.acos(math.sqrt(f))
        h = traj.times[1] - traj.times[0]
        drho = (traj.states[i + 1].matrix
                - traj.states[i - 1].matrix) / (2 * h)
        norm = oracles.brute_opnorm(drho)
        assert qsl.v_qsl(traj, i) == pytest.approx(
            norm / math.sin(2 * angle), rel=1e-6
        )


class TestTauQsl:
    def test_upper_bounds_physical_time(self, pt_traj, apt_traj):
        for traj in (pt_traj, apt_traj):
            for tau in (1.0, 5.0, 10.0):
                assert qsl.tau_qsl(traj, tau) <= tau

    def test_matches_grid_refinement_oracle(self, caption_bath):
        traj = evolve_apt(CAPTION_APT, caption_bath,
                          np.linspace(0.0, 10.0, 2001))
        omega0 = traj.omega0

        def lnorm(t):
            # from-scratch closed form, bypassing the trajectory
            g = bath.gamma(t, caption_bath)
            o1 = bath.omega1(t, 0.86, caption_bath)
            dg = bath.gamma_rate(t, caption_bath)
            do1 = bath.omega1_rate(t, 0.86, caption_bath)
            damp = math.exp(-omega0**2 * g.value)
            dphi = 2 * omega0 - omega0 * (
                bath.omega2_rate(t, 0.86, caption_bath) - do1.value
            )
            return 0.5 * damp * math.hypot(dphi, omega0**2 * dg.value)

        avg = oracles.brute_time_average(lnorm, 10.0, tol=1e-8)
        angle = qsl.bures_angle(traj.states[0], traj.states[-1])
        ref = math.sin(angle) ** 2 / avg
        assert qsl.tau_qsl(traj, 10.0) == pytest.approx(ref, rel=1e-5)

    def test_nan_norms_are_no_motion(self, apt_traj):
        norms = np.full(len(apt_traj), np.nan)
        with pytest.raises(DegenerateTrajectory):
            qsl._tau(apt_traj, qsl._start_angles(apt_traj), norms, 10.0)

    def test_horizon_must_be_grid_point(self, apt_traj):
        with pytest.raises(ValueError):
            qsl.tau_qsl(apt_traj, 3.1415)
        with pytest.raises(ValueError):
            qsl.tau_qsl(apt_traj, 0.0)


class TestSeries:
    def test_shapes_and_nan_at_origin(self, apt_traj):
        series = qsl.qsl_series(apt_traj)
        n = len(apt_traj)
        assert len(series.bures_angle) == n
        assert len(series.liouvillian_norm) == n
        assert math.isnan(series.v_qsl[0])
        assert np.isfinite(series.v_qsl[1:50]).all()
        assert series.tau_qsl <= apt_traj.times[-1]

    def test_pt_series_finite(self, pt_traj):
        series = qsl.qsl_series(pt_traj)
        finite = np.isfinite(series.v_qsl)
        assert finite[1:20].all()


CASES = {"pt": CAPTION_PT, "apt": CAPTION_APT}
GRID = np.linspace(0.0, 20.0, 301)
HORIZONS = GRID[[3, 30, 57, 100, 150, 151, 200, 250, 299, 300]]


def _all_calls(traj):
    """Every speed-limit result the record feeds, in one tuple."""
    series = qsl.qsl_series(traj)
    return (series.bures_angle, series.liouvillian_norm, series.v_qsl,
            series.tau_qsl, [qsl.tau_qsl(traj, h) for h in HORIZONS],
            [qsl.v_qsl(traj, i) for i in (1, 150, 300)],
            [qsl.liouvillian_norm(traj, i) for i in (0, 150, 300)])


def _assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestRecord:
    """Angles and norms are computed once per trajectory and shared."""

    @pytest.mark.parametrize("case", CASES)
    def test_one_evaluation_per_trajectory(self, caption_bath, monkeypatch,
                                           case):
        traj = evolve(CASES[case], bath.Kernels(GRID, caption_bath))
        calls = count_calls(monkeypatch, qsl, "_angles", "_norms")
        qsl.qsl_series(traj)
        for h in HORIZONS:
            qsl.tau_qsl(traj, h)
        qsl.v_qsl(traj, 150)
        qsl.liouvillian_norm(traj, 150)
        assert calls == {"_angles": 1, "_norms": 1}
        # A copy made by dataclasses.replace starts a fresh record.
        copy = dataclasses.replace(traj)
        qsl.tau_qsl(copy, HORIZONS[-1])
        qsl.v_qsl(copy, 150)
        assert calls == {"_angles": 2, "_norms": 2}

    @pytest.mark.parametrize("case", CASES)
    def test_reuse_matches_fresh_trajectory_bitwise(self, caption_bath, case):
        reused = evolve(CASES[case], bath.Kernels(GRID, caption_bath))
        qsl.liouvillian_norm(reused, 7)  # fill the norms before the angles
        first = _all_calls(reused)
        again = _all_calls(reused)
        fresh = _all_calls(evolve(CASES[case], bath.Kernels(GRID, caption_bath)))
        _assert_bitwise(first, fresh)
        _assert_bitwise(again, fresh)

    def test_force_numeric_bypasses_the_record(self, caption_bath,
                                               monkeypatch):
        traj = evolve_apt(CAPTION_APT, caption_bath, GRID)
        qsl.qsl_series(traj)
        calls = count_calls(monkeypatch, qsl, "_norms")
        stencil = qsl._norms(dataclasses.replace(traj, lnorm_analytic=None))
        for i in (0, 150, 300):
            numeric = qsl.liouvillian_norm(traj, i, force_numeric=True)
            assert numeric == stencil[i]
            assert numeric != traj.lnorm_analytic[i]
            assert qsl.liouvillian_norm(traj, i) == traj.lnorm_analytic[i]
        assert calls == {"_norms": 4}  # the stencil above, then one per call
        assert qsl.qsl_series(traj).liouvillian_norm is traj.lnorm_analytic

    @pytest.mark.parametrize("case", CASES)
    def test_arrays_are_read_only(self, caption_bath, case):
        grid = GRID.copy()
        traj = evolve(CASES[case], bath.Kernels(grid, caption_bath))
        series = qsl.qsl_series(traj)
        for array in (traj.times, traj.p1, traj.p2, traj.c,
                      traj.decoherence, traj.phase, series.bures_angle,
                      series.liouvillian_norm):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        # The views leave the caller's own grid writable.
        grid[0] = 0.0

    @pytest.mark.parametrize("case", CASES)
    def test_fields_cannot_be_reassigned(self, caption_bath, case):
        """A trajectory may be shared (the presets share theirs), so no
        field can be rebound; the record is still filled in place."""
        traj = evolve(CASES[case], bath.Kernels(GRID, caption_bath))
        for f in dataclasses.fields(traj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(traj, f.name, getattr(traj, f.name))
        series = qsl.qsl_series(traj)
        assert qsl.qsl_series(traj).bures_angle is series.bures_angle
