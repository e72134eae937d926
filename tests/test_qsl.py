import math

import numpy as np
import pytest

import oracles
from conftest import CAPTION_APT, CAPTION_PT
from nhqubit import bath, qsl
from nhqubit.dynamics import Symmetry, Trajectory, evolve_apt, evolve_pt
from nhqubit.errors import AngleSingularity, GridTooCoarse
from nhqubit.linalg2 import DensityMatrix


@pytest.fixture
def pt_traj(caption_bath):
    return evolve_pt(CAPTION_PT, caption_bath, np.linspace(0.0, 10.0, 101))


@pytest.fixture
def apt_traj(caption_bath):
    return evolve_apt(CAPTION_APT, caption_bath, np.linspace(0.0, 10.0, 101))


def _synthetic_rotation(n=401, t_max=2.0, rate=1.3, amplitude=0.4):
    """Pure phase wobble: |c| constant, gamma identically zero."""
    ts = np.linspace(0.0, t_max, n)
    return Trajectory(
        symmetry=Symmetry.ANTI_PT,
        omega0=1.0,
        times=ts,
        p1=np.full(n, 0.5),
        p2=np.full(n, 0.5),
        c=amplitude * np.exp(1j * rate * ts),
        decoherence=np.ones(n),
        phase=rate * ts,
        max_quad_error=0.0,
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

    def test_index_bounds(self, apt_traj):
        with pytest.raises(IndexError):
            qsl.liouvillian_norm(apt_traj, len(apt_traj))


class TestVQsl:
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
