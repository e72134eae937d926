"""Bures angle, Liouvillian operator norm and quantum speed limits.

V_QSL(t) = |L(rho(t))|_op / (2 sin A cos A) with A the Bures angle between
rho(0) and rho(t); tau_QSL(tau) = sin^2 A(tau) / time-average of |L|_op.
V_QSL is genuinely singular at A in {0, pi/2}; those points are reported
as errors (or NaN in series form), never clamped.  Angles and norms are
computed over the whole grid from the trajectory's (p1, p2, c) arrays,
which the trajectory derives on their first read, once per trajectory:
the Bures angles from state 0 and the Liouvillian norms (the stencil, or
Anti-PT's lnorm_analytic) are each evaluated on first use and kept,
read-only, in the trajectory's private record.  qsl_series, tau_qsl at
every horizon, v_qsl and liouvillian_norm read them from there;
liouvillian_norm(force_numeric=True) alone computes the stencil afresh,
and never reads or writes these two series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import AngleSingularity, DegenerateTrajectory, GridTooCoarse
from .linalg2 import DensityMatrix, state_fidelity

ANGLE_TOL = 1e-9


@dataclass
class QslSeries:
    times: np.ndarray
    bures_angle: np.ndarray
    liouvillian_norm: np.ndarray
    v_qsl: np.ndarray  # NaN where the angle is singular
    tau_qsl: float


def _angles(p1, p2, c, q1, q2, d):
    """arccos sqrt(fidelity) between the states (p1, p2, c) and (q1, q2, d),
    elementwise; exactly 0 between identical states."""
    same = (p1 == q1) & (p2 == q2) & (c == d)
    root = np.sqrt(state_fidelity(p1, p2, c, q1, q2, d))
    return np.where(same, 0.0, np.arccos(root))


def bures_angle(rho0: DensityMatrix, rhot: DensityMatrix) -> float:
    """arccos sqrt(fidelity), in [0, pi/2]."""
    return float(_angles(rho0.p1, rho0.p2, rho0.c, rhot.p1, rhot.p2, rhot.c))


def _angles_from_start(traj: Trajectory) -> np.ndarray:
    """Bures angle between state 0 and each state of the trajectory."""
    return _angles(traj.p1[0], traj.p2[0], traj.c[0], traj.p1, traj.p2, traj.c)


def _norms(traj: Trajectory, force_numeric: bool = False) -> np.ndarray:
    """|d rho/dt|_op at every grid point: the differentiated closed form
    when the trajectory carries it (Anti-PT), else a second-order finite-
    difference stencil (central inside, one-sided at the ends).  d rho/dt
    is Hermitian, so its operator norm is |mean of the diagonal| +
    hypot(half the diagonal difference, |off-diagonal|)."""
    if traj.lnorm_analytic is not None and not force_numeric:
        return traj.lnorm_analytic
    n = len(traj)
    if n < 3:
        raise GridTooCoarse("second-order stencil needs at least 3 grid points")
    lo = np.clip(np.arange(n) - 1, 0, n - 3)
    t = traj.times
    t0, t1, t2 = t[lo], t[lo + 1], t[lo + 2]
    with np.errstate(over="ignore"):
        d0, d1, d2 = ((t0 - t1) * (t0 - t2), (t1 - t0) * (t1 - t2),
                      (t2 - t0) * (t2 - t1))
    if not all(np.isfinite(d).all() and d.all() for d in (d0, d1, d2)):
        raise GridTooCoarse(
            f"second-order stencil cannot resolve the grid up to t={t[-1]}: "
            "a product of grid spacings rounds to 0 or overflows")
    # Derivative of the Lagrange interpolant through the 3 nodes, at t.
    w0 = (2 * t - t1 - t2) / d0
    w1 = (2 * t - t0 - t2) / d1
    w2 = (2 * t - t0 - t1) / d2

    def deriv(x):
        return w0 * x[lo] + w1 * x[lo + 1] + w2 * x[lo + 2]

    dp1, dp2, dc = deriv(traj.p1), deriv(traj.p2), deriv(traj.c)
    return np.abs(0.5 * (dp1 + dp2)) + np.hypot(
        0.5 * (dp1 - dp2), np.hypot(dc.real, dc.imag))


def _recorded(traj: Trajectory, name: str, compute) -> np.ndarray:
    """The series `name` of the trajectory's record, computed by
    compute(traj) and made read-only on first use."""
    series = traj._record.get(name)
    if series is None:
        series = compute(traj)
        series.flags.writeable = False
        traj._record[name] = series
    return series


def _start_angles(traj: Trajectory) -> np.ndarray:
    return _recorded(traj, "angles", _angles_from_start)


def _grid_norms(traj: Trajectory) -> np.ndarray:
    return _recorded(traj, "norms", _norms)


def _check_index(traj: Trajectory, index: int) -> None:
    n = len(traj)
    if not 0 <= index < n:
        raise IndexError(f"index {index} outside grid of length {n}")


def liouvillian_norm(traj: Trajectory, index: int,
                     force_numeric: bool = False) -> float:
    """|d rho/dt|_op at grid point `index` (see _norms)."""
    _check_index(traj, index)
    if force_numeric:
        return float(_norms(traj, force_numeric=True)[index])
    return float(_grid_norms(traj)[index])


def _singular(angle):
    return (angle < ANGLE_TOL) | (angle > 0.5 * math.pi - ANGLE_TOL)


def _velocity(norm, angle):
    """|L|_op / sin 2A, NaN where the angle is singular."""
    singular = _singular(angle)
    return np.where(singular, np.nan,
                    norm / np.sin(2.0 * np.where(singular, 1.0, angle)))


def v_qsl(traj: Trajectory, index: int) -> float:
    """Speed-limit velocity at a grid point; singular at angle 0 or pi/2."""
    _check_index(traj, index)
    angle = float(_start_angles(traj)[index])
    if _singular(angle):
        raise AngleSingularity(
            f"Bures angle {angle:.3e} at t={traj.times[index]} makes "
            "V_QSL undefined"
        )
    return float(_velocity(liouvillian_norm(traj, index), angle))


def _tau(traj: Trajectory, angles, norms, horizon: float) -> float:
    """tau_QSL over [0, horizon]; horizon must be a positive grid point."""
    idx = int(np.argmin(np.abs(traj.times - horizon)))
    if not math.isclose(traj.times[idx], horizon, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(f"horizon {horizon} is not a grid point")
    if idx == 0:
        raise ValueError("horizon must be positive")
    avg = np.trapezoid(norms[:idx + 1], traj.times[:idx + 1]) / traj.times[idx]
    if not avg >= 1e-15:  # NaN too
        raise DegenerateTrajectory(
            f"trajectory shows no motion on [0, {horizon}]")
    return math.sin(angles[idx]) ** 2 / avg


def tau_qsl(traj: Trajectory, horizon: float) -> float:
    """Speed-limit time over [0, horizon]; horizon must be a grid point."""
    return _tau(traj, _start_angles(traj), _grid_norms(traj), horizon)


def qsl_series(traj: Trajectory) -> QslSeries:
    """Per-time angle/norm/velocity plus tau_QSL at the grid end.  Velocity
    is NaN wherever the angle singularity applies.  The angle and norm
    arrays are the trajectory's read-only record."""
    angles = _start_angles(traj)
    norms = _grid_norms(traj)
    return QslSeries(
        times=traj.times,
        bures_angle=angles,
        liouvillian_norm=norms,
        v_qsl=_velocity(norms, angles),
        tau_qsl=_tau(traj, angles, norms, traj.times[-1]),
    )
