"""Renyi entropy family S_q for qubit states, in nats.

S_q = (1/(1-q)) log(l1^q + l2^q) over the (clamped) eigenvalues, with the
distinguished orders S_0 = log rank, S_1 = Von Neumann, S_inf = -log l_max.
The closed-form Von Neumann entropy in terms of the decoherence function
D(t) covers the equal-population dephasing trajectories exactly.
Each order is one numpy expression over eigenvalue arrays, evaluated once
per trajectory by entropy_series and on one state by renyi and the rest.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Trajectory
from .errors import DomainError
from .linalg2 import DensityMatrix, eigenvalue_pair

# Eigenvalues above this count toward the rank in S_0.
RANK_TOL = 1e-12


def _xlogx(x):
    """x log x with 0 log 0 := 0, for x >= 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _entropy(p1, p2, c, q: float):
    """S_q, q >= 0, of the states (p1, p2, c), elementwise."""
    lo, hi = eigenvalue_pair(p1, p2, c)
    if q == 0:
        rank = (hi > RANK_TOL).astype(int) + (lo > RANK_TOL)
        return np.log(np.maximum(rank, 1))
    if q == 1:
        return np.maximum(-_xlogx(lo) - _xlogx(hi), 0.0)
    if math.isinf(q):
        return np.maximum(-np.log(hi), 0.0)
    return np.maximum(np.log(hi**q + lo**q) / (1.0 - q), 0.0)


def renyi(rho: DensityMatrix, q: float) -> float:
    """Renyi entropy of order q > 0; q = 1 gives the Von Neumann entropy."""
    if q <= 0.0:
        raise DomainError(f"Renyi order must be positive, got {q}")
    return float(_entropy(rho.p1, rho.p2, rho.c, q))


def renyi0(rho: DensityMatrix) -> float:
    """Max-entropy: log of the number of eigenvalues above RANK_TOL."""
    return float(_entropy(rho.p1, rho.p2, rho.c, 0.0))


def von_neumann(rho: DensityMatrix) -> float:
    """S_1 = -sum l_i log l_i with 0 log 0 := 0."""
    return float(_entropy(rho.p1, rho.p2, rho.c, 1.0))


def renyi_inf(rho: DensityMatrix) -> float:
    """Min-entropy: -log of the largest eigenvalue."""
    return float(_entropy(rho.p1, rho.p2, rho.c, math.inf))


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


def entropy_series(traj: Trajectory, orders,
                   dephasing: bool = True) -> dict[float, np.ndarray]:
    """Evaluate each requested order along the trajectory.

    Keys are the orders as given (math.inf allowed); values are per-time
    arrays in nats.  By default the entropies are taken on the dephasing-
    frame states, whose spectrum is governed by D(t); pass dephasing=False
    for the physical-frame states (they differ only for the PT class).
    """
    frame = (traj.dephasing_frame() if dephasing
             else (traj.p1, traj.p2, traj.c))
    out: dict[float, np.ndarray] = {}
    for q in orders:
        if not q >= 0:
            raise DomainError(f"Renyi order must be non-negative, got {q}")
        out[q] = _entropy(*frame, q)
    return out
