"""Property tests over the unbroken parameter region: physical states,
D in (0, 1], the Renyi hierarchy, and the grid functions agreeing with the
same quantities computed state by state."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nhqubit import entropy, qsl
from nhqubit.bath import BathParams
from nhqubit.dynamics import QubitParams, Symmetry, evolve_apt, evolve_pt
from nhqubit.errors import AngleSingularity
from nhqubit.linalg2 import DensityMatrix

ORDERS = (0, 1, 2, math.inf)
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None,
                             derandomize=True)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def pt_params(draw):
    # Unbroken: theta^2 < xi^2 + delta^2, kept away from the exceptional point.
    xi, delta = draw(_finite(0.1, 0.7)), draw(_finite(0.0, 0.7))
    theta = draw(_finite(0.0, 0.9)) * math.hypot(xi, delta)
    return QubitParams(alpha=draw(_finite(-2.0, 2.0)), theta=theta, xi=xi,
                       delta=delta, symmetry=Symmetry.PT)


@st.composite
def apt_params(draw):
    # Unbroken: alpha^2 > xi^2 + delta^2.
    xi, delta = draw(_finite(0.0, 0.7)), draw(_finite(0.0, 0.7))
    alpha = math.hypot(xi, delta) + draw(_finite(0.05, 1.0))
    return QubitParams(alpha=alpha, theta=draw(_finite(-1.0, 1.0)), xi=xi,
                       delta=delta, symmetry=Symmetry.ANTI_PT)


baths = st.builds(BathParams, j0=_finite(0.05, 0.5), omega_c=_finite(0.5, 2.0),
                  mu=_finite(-0.5, 1.0), beta=_finite(1.0, 5.0))


@st.composite
def initial_states(draw):
    # Coherent, so every trajectory moves and tau_QSL is defined.
    sz = draw(_finite(-0.9, 0.9))
    radius = draw(_finite(0.1, 1.0)) * 0.5 * math.sqrt(1.0 - sz * sz)
    arg = draw(_finite(0.0, 2.0 * math.pi))
    return DensityMatrix.from_expectations(sz, radius * complex(
        math.cos(arg), math.sin(arg)))


@st.composite
def trajectories(draw):
    times = np.linspace(0.0, draw(_finite(0.5, 3.0)),
                        draw(st.integers(3, 25)))
    rho0 = draw(initial_states())
    b = draw(baths)
    if draw(st.booleans()):
        return evolve_pt(draw(pt_params()), b, times, rho0_diag=rho0)
    return evolve_apt(draw(apt_params()), b, times, rho0=rho0)


@PROPERTY_SETTINGS
@given(trajectories())
def test_states_physical_and_damping_in_unit_interval(traj):
    assert np.all(np.abs(traj.p1 + traj.p2 - 1.0) <= 1e-12)
    for p1, p2, c in (traj.dephasing_frame(), (traj.p1, traj.p2, traj.c)):
        det = p1 * p2 - np.abs(c) ** 2
        assert np.all(p1 >= -1e-10) and np.all(p2 >= -1e-10)
        assert np.all(det >= -1e-10)
    assert np.all((traj.decoherence > 0.0) & (traj.decoherence <= 1.0))


@PROPERTY_SETTINGS
@given(trajectories())
def test_renyi_hierarchy(traj):
    for dephasing in (True, False):
        table = entropy.entropy_series(traj, ORDERS, dephasing=dephasing)
        vals = np.array([table[q] for q in ORDERS])
        assert np.all(np.diff(vals, axis=0) <= 1e-12)


@PROPERTY_SETTINGS
@given(trajectories())
def test_grid_functions_match_per_state_path(traj):
    states = traj.states
    physical = entropy.entropy_series(traj, ORDERS, dephasing=False)
    dephased = entropy.entropy_series(traj, ORDERS)
    for frame, table in ((states, physical),
                         (traj.dephasing_states(), dephased)):
        for q in ORDERS:
            one_by_one = [entropy.renyi0(s) if q == 0 else entropy.renyi(s, q)
                          for s in frame]
            np.testing.assert_allclose(table[q], one_by_one, rtol=0,
                                       atol=1e-12)

    series = qsl.qsl_series(traj)
    angles = [qsl.bures_angle(states[0], s) for s in states]
    np.testing.assert_allclose(series.bures_angle, angles, rtol=0, atol=1e-12)
    for i in range(len(traj)):
        try:
            v = qsl.v_qsl(traj, i)
        except AngleSingularity:
            assert math.isnan(series.v_qsl[i])
        else:
            assert math.isclose(series.v_qsl[i], v, rel_tol=1e-12)
