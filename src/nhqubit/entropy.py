"""Renyi entropy family S_q for qubit states, in nats.

S_q = (1/(1-q)) log(l1^q + l2^q) over the (clamped) eigenvalues, with the
distinguished orders S_0 = log rank, S_1 = Von Neumann, S_inf = -log l_max.
The closed-form Von Neumann entropy in terms of the decoherence function
D(t) covers the equal-population dephasing trajectories exactly.
renyi(rho, q) and entropy_series(traj, orders), on the dephasing frame,
take every order q >= 0; a negative or NaN order raises DomainError.
Each order is one numpy expression over eigenvalue arrays, evaluated once
per trajectory by entropy_series and on one state by renyi.
Orders with 0 < |q - 1| < NEAR_ONE take S_q = -log1p(sum l expm1(eps
log l)) / eps with eps = q - 1 over the renormalised eigenvalues, which
keeps its digits as q tends to 1; the other orders take
(q log l_max + log1p((l_min/l_max)^q)) / (1 - q), which divides a
numerator of size |1 - q| rounded to absolute precision by 1 - q.
entropy_series computes the spectrum once per call and shares it across
the orders.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Trajectory
from .errors import DomainError
from .linalg2 import DensityMatrix, eigenvalue_pair

# Eigenvalues above this count toward the rank in S_0.
RANK_TOL = 1e-12

# Orders with 0 < |q - 1| < NEAR_ONE take the expm1 form.  At large q that
# form's sum tends to -1, where log1p loses it, so the band stays narrow;
# 0.5 and 2 (scenario and preset orders) stay on the general form.
NEAR_ONE = 0.5


def _xlogx(x):
    """x log x with 0 log 0 := 0, for x >= 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _check_order(q) -> None:
    if not q >= 0:  # NaN fails too
        raise DomainError(f"Renyi order must be non-negative, got {q}")


def _spectral_entropy(lo, hi, q: float):
    """S_q, q >= 0, of the states with eigenvalues lo <= hi, elementwise."""
    if q == 0:
        rank = (hi > RANK_TOL).astype(int) + (lo > RANK_TOL)
        return np.log(np.maximum(rank, 1))
    if q == 1:
        return np.maximum(-_xlogx(lo) - _xlogx(hi), 0.0)
    if math.isinf(q):
        return np.maximum(-np.log(hi), 0.0)
    if abs(q - 1.0) < NEAR_ONE:
        # sum l^q = 1 + sum l expm1(eps log l) once lo + hi = 1, and then
        # log hi = log1p(-lo) keeps the digits that hi near 1 rounds away.
        eps = q - 1.0
        total = lo + hi
        lo, hi = lo / total, hi / total
        log_lo = np.log(np.where(lo > 0.0, lo, 1.0))  # the lo = 0 term is 0
        return np.maximum(-np.log1p(hi * np.expm1(eps * np.log1p(-lo))
                                    + lo * np.expm1(eps * log_lo)) / eps,
                          0.0)
    # log(hi^q + lo^q) as q log hi + log1p((lo/hi)^q): hi >= 1/2 for a
    # unit-trace state, so no power underflows to log 0 at large q.
    return np.maximum((q * np.log(hi) + np.log1p((lo / hi) ** q)) / (1.0 - q),
                      0.0)


def renyi(rho: DensityMatrix, q: float) -> float:
    """Renyi entropy of order q >= 0 (S_0, S_1, S_inf at q = 0, 1, inf)."""
    _check_order(q)
    return float(_spectral_entropy(*eigenvalue_pair(rho.p1, rho.p2, rho.c),
                                   q))


def von_neumann_closed_form(d):
    """Von Neumann entropy of the equal-population state with coherence d/2,
    elementwise over a float or an array:

        ln 2 - (1/2)(1 + d) ln(1 + d) - (1/2)(1 - d) ln(1 - d)
    """
    d = np.asarray(d, dtype=float)
    if not np.all((0.0 <= d) & (d <= 1.0)):
        bad = d[~((0.0 <= d) & (d <= 1.0))].flat[0]
        raise DomainError(f"decoherence value must be in [0, 1], got {bad}")
    return np.maximum(
        math.log(2.0) - 0.5 * _xlogx(1.0 + d) - 0.5 * _xlogx(1.0 - d), 0.0
    )


def entropy_series(traj: Trajectory, orders) -> dict[float, np.ndarray]:
    """Evaluate each requested order along the trajectory.

    Keys are the orders as given (math.inf allowed); values are per-time
    arrays in nats, taken on the dephasing-frame states, whose spectrum is
    governed by D(t) (for Anti-PT they are the trajectory's own states).
    """
    orders = list(orders)
    for q in orders:
        _check_order(q)
    lo, hi = eigenvalue_pair(*traj.dephasing_frame())
    return {q: _spectral_entropy(lo, hi, q) for q in orders}
