"""Property tests over the unbroken parameter region: physical states,
D in (0, 1], the Renyi hierarchy, the grid functions agreeing with the
same quantities computed state by state, and the robustness ordering of
the two classes.  Over every region, float-range extremes included, the
public entry points raise only the errors they document."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nhqubit import bath, entropy, qsl
from nhqubit.bath import BathParams
from nhqubit.dynamics import (QubitParams, Symmetry, evolve, evolve_apt,
                              evolve_pt, split)
from nhqubit.errors import AngleSingularity, NhQubitError
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
        return evolve_pt(draw(pt_params()), b, times, initial=rho0)
    return evolve_apt(draw(apt_params()), b, times, initial=rho0)


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
    """S_0 >= S_1 >= S_2 >= S_inf on the dephasing frame and, state by
    state, on the trajectory's own (for PT, physical-frame) states."""
    table = entropy.entropy_series(traj, ORDERS)
    physical = [[entropy.renyi(s, q) for s in traj.states] for q in ORDERS]
    for vals in (np.array([table[q] for q in ORDERS]), np.array(physical)):
        assert np.all(np.diff(vals, axis=0) <= 1e-12)


@PROPERTY_SETTINGS
@given(trajectories())
def test_grid_functions_match_per_state_path(traj):
    states = traj.states
    table = entropy.entropy_series(traj, ORDERS)
    for q in ORDERS:
        one_by_one = [entropy.renyi(s, q) for s in traj.dephasing_states()]
        np.testing.assert_allclose(table[q], one_by_one, rtol=0, atol=1e-12)

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


@PROPERTY_SETTINGS
@given(pt_params(), apt_params(), baths, _finite(0.5, 3.0),
       st.integers(2, 25))
def test_anti_pt_more_robust_iff_smaller_splitting(pt, apt, b, t_max, n):
    """In one bath both classes damp by D = exp(-omega0^2 gamma) with the
    same gamma >= 0, so D_APT(t) >= D_PT(t) at every grid time if and only
    if omega0_APT <= omega0_PT."""
    w_apt, w_pt = split(apt).omega0, split(pt).omega0
    # Apart by more than rounding, so the ordering is decided.
    assume(abs(w_apt - w_pt) > 1e-6 * max(w_apt, w_pt))
    table = bath.Kernels(np.linspace(0.0, t_max, n), b)
    traj_apt, traj_pt = [evolve(p, table) for p in (apt, pt)]
    robust = bool(np.all(traj_apt.decoherence >= traj_pt.decoherence))
    assert robust == (w_apt <= w_pt)


# The draw space of the library contract property: ordinary parameters,
# except on up to three, which take a float-range extreme.
EXTREMES = (5e-324, 1e-320, 1e154, 1e308, 1.7976931348623157e308, math.inf,
            math.nan, -0.0)
ORDINARY = {
    "j0": (1.0, 0.1), "omega_c": (1.0, 5.0), "mu": (-0.5, 0.0, 1.0, 2.5),
    "beta": (0.5, 10.0), "alpha": (1.5, 1.2, -2.0),
    "theta": (0.86, 0.5, 0.0, -0.3), "xi": (0.81, 1.0), "delta": (0.56, 0.2),
    "t_max": (5.0, 20.0, 0.3), "horizon": (5.0, 0.3), "tol": (1e-9, 1e-13),
}
CAPTION_CASE = {"j0": 1.0, "omega_c": 1.0, "mu": -0.5, "beta": 0.5,
                "alpha": 1.0, "theta": 0.86, "xi": 0.81, "delta": 0.56,
                "t_max": 5.0, "horizon": 5.0, "tol": 1e-9,
                "symmetry": Symmetry.PT, "grid": "linspace", "n": 26,
                "index": 3, "initial": DensityMatrix.plus(),
                "orders": [0.0, 1.0, 2.0, math.inf]}


@st.composite
def library_cases(draw):
    odd = draw(st.sets(st.sampled_from(list(ORDINARY)), max_size=3))
    case = {key: draw(st.sampled_from(EXTREMES if key in odd else values))
            for key, values in ORDINARY.items()}
    case["symmetry"] = draw(st.sampled_from(Symmetry))
    case["grid"] = draw(st.sampled_from(
        ["linspace", "scalar", "late-start", "decreasing", "2-D"]))
    case["n"] = draw(st.sampled_from([1, 2, 3, 11, 26]))
    case["index"] = draw(st.sampled_from([0, 3, -1, 26]))
    case["initial"] = draw(st.sampled_from([
        DensityMatrix.plus(), DensityMatrix.from_expectations(0.2, 0.3 - 0.1j),
        DensityMatrix.from_expectations(1.0, 0.0)]))
    case["orders"] = draw(st.lists(st.sampled_from(
        (0.0, 0.5, 1.0, 2.0, 2000.0, math.inf, -1.0, *EXTREMES)), max_size=4))
    return case


def _times(case):
    t_max = case["t_max"]
    grids = {"linspace": lambda: np.linspace(0.0, t_max, case["n"]),
             "scalar": lambda: t_max,
             "late-start": lambda: np.array([0.5 * t_max, t_max]),
             "decreasing": lambda: np.array([0.0, t_max, 0.5 * t_max]),
             "2-D": lambda: np.zeros((2, 2))}
    # linspace to an infinite t_max holds NaN, and says so; to the largest
    # float its last step may overflow before t_max replaces it.
    with np.errstate(over="ignore", invalid="ignore"):
        return grids[case["grid"]]()


def _call(documented, fn, *args):
    """fn(*args), or None where it raises a package error or one of the
    documented exception types; any other exception fails the test."""
    try:
        return fn(*args)
    except (NhQubitError, *documented):
        return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=library_cases())
@example(c={**CAPTION_CASE, "mu": 1e308})
def test_public_entry_points_raise_only_package_errors(c):
    """The kernels, evolve and the measures raise an NhQubitError, or the
    ValueError (a grid or a horizon) or IndexError (a grid index) they
    document, and nothing else: no OverflowError, FloatingPointError or
    numpy warning."""
    ts, theta, tol = _times(c), c["theta"], c["tol"]
    b = _call((), BathParams, c["j0"], c["omega_c"], c["mu"], c["beta"])
    if b is not None:
        for kernel in (bath.gamma, bath.gamma_rate):
            _call((), kernel, ts, b, tol)
        for kernel in (bath.omega_pt, bath.omega1, bath.omega1_rate):
            _call((), kernel, ts, theta, b, tol)
        for kernel in (bath.omega2, bath.omega2_rate):
            _call((), kernel, ts, theta, b)
        _call((), bath.moment0, b)
    p = _call((), QubitParams, c["alpha"], theta, c["xi"], c["delta"],
              c["symmetry"])
    table = None if b is None else _call((), bath.Kernels, ts, b, tol)
    if p is None or table is None:
        return
    for evolve_class in (evolve_pt, evolve_apt):
        _call((ValueError,), evolve_class, p, b, ts, c["initial"], tol)
    traj = _call((ValueError,), evolve, p, table, c["initial"])
    if traj is None:
        return
    _call((ValueError,), qsl.qsl_series, traj)
    for horizon in (traj.times[-1], c["horizon"]):
        _call((ValueError,), qsl.tau_qsl, traj, horizon)
    _call((IndexError,), qsl.v_qsl, traj, c["index"])
    _call((IndexError,), qsl.liouvillian_norm, traj, c["index"])
    _call((), entropy.entropy_series, traj, c["orders"])
