"""PT / Anti-PT Hamiltonians and closed-form dephasing trajectories.

Both symmetry classes evolve under pure dephasing: populations are frozen
in the appropriate frame while the coherence picks up a phase and the
multiplicative damping D(t) = exp(-omega0^2 gamma(t)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import bath
from .bath import BathParams, DEFAULT_TOL
from .errors import BrokenPhase
from .linalg2 import DensityMatrix, as_matrix, opnorm

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

    phase[i] is the coherence phase accumulated since t = 0 (the initial
    coherence's own argument is not included).  For Anti-PT trajectories
    lnorm_analytic holds |d rho/dt|_op from the differentiated closed form.
    """

    symmetry: Symmetry
    omega0: float
    times: np.ndarray
    states: list[DensityMatrix]
    decoherence: np.ndarray
    phase: np.ndarray
    initial_state: DensityMatrix
    max_quad_error: float
    rho0_diag: DensityMatrix | None = None
    lnorm_analytic: np.ndarray | None = None
    raw_states: list[np.ndarray] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.times)

    def dephasing_states(self) -> list[DensityMatrix]:
        """States in the frame where dephasing is diagonal: populations
        frozen, coherence c0 * exp(i phase) * D.  Spectral quantities
        (entropies) of the model are defined on these states; for Anti-PT
        they coincide with the physical states."""
        if self.symmetry is Symmetry.ANTI_PT:
            return self.states
        base = self.rho0_diag
        return [
            DensityMatrix(
                p1=base.p1, p2=base.p2,
                c=base.c * complex(math.cos(phi), math.sin(phi)) * d,
            )
            for phi, d in zip(self.phase, self.decoherence)
        ]


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
              tol: float = DEFAULT_TOL,
              paper_normalization: bool = False) -> Trajectory:
    """PT trajectory: the diagonal-frame state dephases in closed form and
    is mapped back through T^-1, renormalized to unit trace at each time.

    With paper_normalization=True the raw physical-frame matrices divided
    by the t = 0 trace (which drifts away from unit trace) are additionally
    stored in raw_states for comparison.
    """
    if p.symmetry is not Symmetry.PT:
        raise ValueError("evolve_pt requires PT-class parameters")
    omega0 = _require_positive_split(p)
    ts = _validate_times(times)
    if rho0_diag is None:
        rho0_diag = DensityMatrix.plus()

    t_inv = np.linalg.inv(transformation_matrix(p))
    p1d, p2d, c0 = rho0_diag.p1, rho0_diag.p2, rho0_diag.c

    g = bath.gamma(ts, b, tol)
    om = bath.omega_pt(ts, p.theta, b, tol)
    damping = np.exp(-(omega0**2) * g.value)
    phases = 2.0 * omega0 * ts - omega0 * om.value
    coherences = c0 * np.exp(1j * phases) * damping
    max_err = float(max(g.abs_error.max(), om.abs_error.max()))

    states: list[DensityMatrix] = []
    raw_states: list[np.ndarray] = []
    trace0 = None
    for c_t in coherences:
        rho_d = np.array([[p1d, c_t], [np.conj(c_t), p2d]], dtype=complex)
        phys = t_inv @ rho_d @ t_inv.conj().T
        phys = 0.5 * (phys + phys.conj().T)  # scrub rounding drift
        tr = phys[0, 0].real + phys[1, 1].real
        if trace0 is None:
            trace0 = tr
        states.append(DensityMatrix.from_matrix(phys / tr))
        if paper_normalization:
            raw_states.append(phys / trace0)

    return Trajectory(
        symmetry=Symmetry.PT,
        omega0=omega0,
        times=ts,
        states=states,
        decoherence=damping,
        phase=phases,
        initial_state=states[0],
        max_quad_error=max_err,
        rho0_diag=rho0_diag,
        raw_states=raw_states if paper_normalization else None,
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
    states = [DensityMatrix(p1=rho0.p1, p2=rho0.p2, c=complex(c_t))
              for c_t in coherences]
    # Only the coherence moves, so |d rho/dt|_op = |dc/dt|.
    dphi = 2.0 * omega0 - omega0 * (bath.omega2_rate(ts, p.theta, b)
                                    - do1.value)
    lnorm = np.abs(coherences) * np.hypot(dphi, omega0**2 * dg.value)

    return Trajectory(
        symmetry=Symmetry.ANTI_PT,
        omega0=omega0,
        times=ts,
        states=states,
        decoherence=damping,
        phase=phases,
        initial_state=rho0,
        max_quad_error=max_err,
        lnorm_analytic=lnorm,
    )
