"""PT / Anti-PT Hamiltonians and closed-form dephasing trajectories.

Both symmetry classes evolve under pure dephasing: populations are frozen
in the appropriate frame while the coherence picks up a phase and the
multiplicative damping D(t) = exp(-omega0^2 gamma(t)).

A Trajectory holds the states as arrays over the time grid; DensityMatrix
objects are built only on request (Trajectory.states).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import bath
from .bath import BathParams, DEFAULT_TOL
from .errors import BrokenPhase
from .linalg2 import DensityMatrix, as_matrix, check_physical, opnorm

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

SYMMETRY_TOL = 1e-12


class Symmetry(enum.Enum):
    PT = "PT"
    ANTI_PT = "AntiPT"


@dataclass(frozen=True)
class QubitParams:
    """Hamiltonian parameters; construction rejects the broken regime.

    PT requires delta^2 + xi^2 >= theta^2, Anti-PT requires
    alpha^2 >= xi^2 + delta^2, so the eigenvalue splitting stays real.
    """

    alpha: float
    theta: float
    xi: float
    delta: float
    symmetry: Symmetry

    def __post_init__(self):
        if self.splitting_squared() < 0.0:
            raise BrokenPhase(
                f"{self.symmetry.value} parameters lie in the broken regime: "
                f"alpha={self.alpha}, theta={self.theta}, "
                f"xi={self.xi}, delta={self.delta}"
            )

    def splitting_squared(self) -> float:
        if self.symmetry is Symmetry.PT:
            return self.delta**2 + self.xi**2 - self.theta**2
        return self.alpha**2 - self.xi**2 - self.delta**2


@dataclass(frozen=True)
class SpectralSplit:
    """Real eigenvalue splitting omega0 and the eigenvalue pair (E-, E+)."""

    omega0: float
    eigenvalues: tuple[complex, complex]


@dataclass
class Trajectory:
    """Time grid with per-time states, damping and accumulated phase.

    p1[i], p2[i] and c[i] are the populations and upper coherence of the
    physical-frame state at times[i], checked physical on construction.
    phase[i] is the coherence phase accumulated since t = 0 (the initial
    coherence's own argument is not included).  For Anti-PT trajectories
    lnorm_analytic holds |d rho/dt|_op from the differentiated closed form.
    """

    symmetry: Symmetry
    omega0: float
    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    c: np.ndarray
    decoherence: np.ndarray
    phase: np.ndarray
    max_quad_error: float
    rho0_diag: DensityMatrix | None = None
    lnorm_analytic: np.ndarray | None = None

    def __post_init__(self):
        check_physical(self.p1, self.p2, self.c)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def states(self) -> list[DensityMatrix]:
        """Physical-frame states as DensityMatrix objects, built on demand."""
        return _states(self.p1, self.p2, self.c)

    def dephasing_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p1, p2, c) in the frame where dephasing is diagonal: populations
        frozen, coherence c0 exp(i phase) D.  The entropies are defined on
        these states; for Anti-PT they are the physical states."""
        if self.symmetry is Symmetry.ANTI_PT:
            return self.p1, self.p2, self.c
        base = self.rho0_diag
        n = len(self)
        return (np.full(n, base.p1), np.full(n, base.p2),
                base.c * np.exp(1j * self.phase) * self.decoherence)

    def dephasing_states(self) -> list[DensityMatrix]:
        """The dephasing-frame states as DensityMatrix objects."""
        return _states(*self.dephasing_frame())


def _states(p1, p2, c) -> list[DensityMatrix]:
    return [DensityMatrix(p1=float(a), p2=float(b), c=complex(z))
            for a, b, z in zip(p1, p2, c)]


def build_hamiltonian(p: QubitParams) -> np.ndarray:
    a, th, xi, d = p.alpha, p.theta, p.xi, p.delta
    off = xi + 1j * d
    if p.symmetry is Symmetry.PT:
        return np.array(
            [[a + 1j * th, off], [xi - 1j * d, a - 1j * th]], dtype=complex
        )
    return np.array(
        [[a + 1j * th, off], [-xi + 1j * d, -a + 1j * th]], dtype=complex
    )


def check_symmetry(m, symmetry: Symmetry) -> bool:
    """Commutation (PT) or anti-commutation (Anti-PT) with sigma_x followed
    by entrywise conjugation."""
    a = as_matrix(m)
    transformed = _SIGMA_X @ a.conj() @ _SIGMA_X
    if symmetry is Symmetry.PT:
        return opnorm(transformed - a) <= SYMMETRY_TOL
    return opnorm(transformed + a) <= SYMMETRY_TOL


def split(p: QubitParams) -> SpectralSplit:
    """Eigenvalue splitting; real by the unbroken-regime invariant."""
    omega0 = math.sqrt(p.splitting_squared())
    if p.symmetry is Symmetry.PT:
        pair = (p.alpha - omega0 + 0.0j, p.alpha + omega0 + 0.0j)
    else:
        pair = (1j * p.theta - omega0, 1j * p.theta + omega0)
    return SpectralSplit(omega0=omega0, eigenvalues=pair)


def transformation_matrix(p: QubitParams) -> np.ndarray:
    """Similarity transformation T with T H T^-1 = diag(E-, E+)."""
    omega0 = split(p).omega0
    off = p.xi + 1j * p.delta
    if p.symmetry is Symmetry.PT:
        # The Anti-PT form with alpha replaced by i*theta diagonalizes the
        # PT Hamiltonian (direct check: rows are left eigenvectors).
        lead = 1j * p.theta
    else:
        lead = p.alpha
    return np.array(
        [[omega0 - lead, -off], [omega0 + lead, off]], dtype=complex
    )


def _validate_times(times) -> np.ndarray:
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if ts[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return ts


def _require_positive_split(p: QubitParams) -> float:
    omega0 = split(p).omega0
    if omega0 <= 0.0:
        raise BrokenPhase(
            f"{p.symmetry.value} splitting is zero (exceptional point); "
            "closed-form evolution requires omega0 > 0"
        )
    return omega0


def decoherence_function(p: QubitParams, b: BathParams, t: float,
                         tol: float = DEFAULT_TOL) -> float:
    """D(t) = exp(-omega0^2 gamma(t)) with the class-appropriate omega0."""
    omega0 = split(p).omega0
    if omega0 == 0.0:
        return 1.0
    return math.exp(-(omega0**2) * bath.gamma(t, b, tol).value)


def evolve_pt(p: QubitParams, b: BathParams, times,
              rho0_diag: DensityMatrix | None = None,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """PT trajectory: the diagonal-frame state dephases in closed form and
    is mapped back through T^-1, renormalized to unit trace at each time."""
    if p.symmetry is not Symmetry.PT:
        raise ValueError("evolve_pt requires PT-class parameters")
    omega0 = _require_positive_split(p)
    ts = _validate_times(times)
    if rho0_diag is None:
        rho0_diag = DensityMatrix.plus()

    t_inv = np.linalg.inv(transformation_matrix(p))

    g = bath.gamma(ts, b, tol)
    om = bath.omega_pt(ts, p.theta, b, tol)
    damping = np.exp(-(omega0**2) * g.value)
    phases = 2.0 * omega0 * ts - omega0 * om.value
    coherences = rho0_diag.c * np.exp(1j * phases) * damping
    max_err = float(max(g.abs_error.max(), om.abs_error.max()))

    rho_d = np.empty((len(ts), 2, 2), dtype=complex)
    rho_d[:, 0, 0] = rho0_diag.p1
    rho_d[:, 0, 1] = coherences
    rho_d[:, 1, 0] = coherences.conj()
    rho_d[:, 1, 1] = rho0_diag.p2
    phys = t_inv @ rho_d @ t_inv.conj().T
    phys = 0.5 * (phys + phys.conj().swapaxes(-1, -2))  # scrub rounding drift
    phys /= (phys[:, 0, 0].real + phys[:, 1, 1].real)[:, None, None]

    return Trajectory(
        symmetry=Symmetry.PT,
        omega0=omega0,
        times=ts,
        p1=phys[:, 0, 0].real,
        p2=phys[:, 1, 1].real,
        c=phys[:, 0, 1],
        decoherence=damping,
        phase=phases,
        max_quad_error=max_err,
        rho0_diag=rho0_diag,
    )


def evolve_apt(p: QubitParams, b: BathParams, times,
               rho0: DensityMatrix | None = None,
               tol: float = DEFAULT_TOL) -> Trajectory:
    """Anti-PT trajectory: populations frozen, coherence damped by D(t)
    with phase 2 omega0 t - omega0 [Omega_2(t) - Omega_1(t)]."""
    if p.symmetry is not Symmetry.ANTI_PT:
        raise ValueError("evolve_apt requires Anti-PT-class parameters")
    omega0 = _require_positive_split(p)
    ts = _validate_times(times)
    if rho0 is None:
        rho0 = DensityMatrix.plus()

    g = bath.gamma(ts, b, tol)
    o1 = bath.omega1(ts, p.theta, b, tol)
    dg = bath.gamma_rate(ts, b, tol)
    do1 = bath.omega1_rate(ts, p.theta, b, tol)
    max_err = float(max(r.abs_error.max() for r in (g, o1, dg, do1)))

    damping = np.exp(-(omega0**2) * g.value)
    phases = 2.0 * omega0 * ts - omega0 * (bath.omega2(ts, p.theta, b)
                                           - o1.value)
    coherences = rho0.c * np.exp(1j * phases) * damping
    # Only the coherence moves, so |d rho/dt|_op = |dc/dt|.
    dphi = 2.0 * omega0 - omega0 * (bath.omega2_rate(ts, p.theta, b)
                                    - do1.value)
    lnorm = np.abs(coherences) * np.hypot(dphi, omega0**2 * dg.value)

    return Trajectory(
        symmetry=Symmetry.ANTI_PT,
        omega0=omega0,
        times=ts,
        p1=np.full(len(ts), rho0.p1),
        p2=np.full(len(ts), rho0.p2),
        c=coherences,
        decoherence=damping,
        phase=phases,
        max_quad_error=max_err,
        lnorm_analytic=lnorm,
    )
