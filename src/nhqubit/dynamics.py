"""PT / Anti-PT Hamiltonians and closed-form dephasing trajectories.

Both symmetry classes evolve the same way.  A similarity transformation T
(the Dyson map) takes the qubit to the eigenframe of H, where it
dephases in closed form: populations frozen, coherence c0 exp(i phase)
D(t) with damping D(t) = exp(-omega0^2 gamma(t)) and phase 2 omega0 t -
omega0 F(t), F being the class's phase function (phase_function).
evolve computes D, the phase and that eigenframe state
(Trajectory.dephasing_frame), on which the entropies are defined.

The frame of the states is the only difference, and a trajectory derives
its states on their first read: PT states are mapped back to the
physical frame through T^-1; Anti-PT states stay in the eigenframe of H,
where they evolve under diag(exp(-i E t)).  A run that reads no state
(D, the phase, the entropies) never pays the PT map.  A Trajectory keeps
the qubit it was evolved from (its class, omega0 and frame), the table
it was evolved on (its grid, and the rates of its speed limit), and what
it derives (the states, and the speed-limit series of nhqubit.qsl) in
its own private record.  It holds the states as arrays over the time
grid; DensityMatrix objects are built only on request (Trajectory.states).

evolve(p, table) evolves one qubit on one bath.Kernels table, as
whole-array passes over the grid.  gamma(t), d gamma/dt and Omega,
Omega_1 and d Omega_1/dt per unit theta depend only on the bath and the
grid, so the table evaluates each at most once and alone supplies the
bath, the grid and the tol every read is checked against.  evolve reads
gamma and its class's phase kernel, scaled by the qubit's theta; only
the speed limit reads the rates.  Calls share kernels by sharing a
table, as the presets do.
evolve_pt and evolve_apt, the only entry points here that take a bath
and a grid, are evolve on a new table of them, after a class check.
All three take the eigenframe state at t = 0 as initial (rho0_diag).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import bath
from .bath import BathParams, DEFAULT_TOL
from .errors import BrokenPhase, DomainError, float_range
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
    A splitting outside the float range (a parameter near 1e154 or
    beyond) raises DomainError.
    """

    alpha: float
    theta: float
    xi: float
    delta: float
    symmetry: Symmetry

    def __post_init__(self):
        try:
            squared = self.splitting_squared()
        except OverflowError:
            squared = math.nan
        if squared < 0.0:
            raise BrokenPhase(f"{self.symmetry.value} parameters lie in the "
                              f"broken regime: {self._values()}")
        if not math.isfinite(squared):
            raise DomainError(
                f"{self.symmetry.value} parameters give a splitting outside "
                f"the floating-point range: {self._values()}")

    def _values(self) -> str:
        return (f"alpha={self.alpha}, theta={self.theta}, xi={self.xi}, "
                f"delta={self.delta}")

    def float_range(self):
        """errors.float_range, raising DomainError naming this qubit."""
        return float_range(DomainError, f"{self.symmetry.value} trajectory",
                           f" ({self._values()})")

    def splitting_squared(self) -> float:
        if self.symmetry is Symmetry.PT:
            return self.delta**2 + self.xi**2 - self.theta**2
        return self.alpha**2 - self.xi**2 - self.delta**2


@dataclass(frozen=True)
class SpectralSplit:
    """Real eigenvalue splitting omega0 and the eigenvalue pair (E-, E+)."""

    omega0: float
    eigenvalues: tuple[complex, complex]


@dataclass(frozen=True)
class Trajectory:
    """Time grid with damping, accumulated phase and the states they give.

    qubit is the qubit the trajectory was evolved from; its symmetry class
    and its splitting omega0 (split(qubit).omega0, as evolve computes it)
    are read from it, and the PT frame map is built from it.  kernels is
    the table it was evolved on: times is its grid, and the Anti-PT speed
    limit reads its rates from it.  max_quad_error bounds the two kernels
    evolve read.  phase[i] is the coherence phase accumulated since t = 0
    (the initial coherence's own argument is not included).  Both classes
    keep the eigenframe state: rho0_diag at t = 0 and the coherence
    c_diag = rho0_diag.c exp(i phase) decoherence.

    p1[i], p2[i] and c[i] are the populations and upper coherence of the
    state at times[i]: the physical-frame state T^-1 rho_d T^-dagger / tr
    for PT, the eigenframe state for Anti-PT (c is c_diag itself).  They
    are derived from rho0_diag and c_diag on their first read and checked
    physical there, so that read raises the frame's DomainError (naming
    the qubit) or NonPhysicalState; what reads only D, the phase or the
    entropies never derives them.

    The trajectory is frozen and its arrays are read-only views, so what
    is derived from them cannot go stale and a trajectory can be shared
    (the presets share theirs across builds): the states, and the Bures
    angles from state 0 and the Liouvillian norms that nhqubit.qsl
    computes, are each derived once per trajectory, on first use, through
    _derived, and kept read-only in the trajectory's private record, which
    only this class reads or writes.  dataclasses.replace starts a fresh
    record.
    """

    qubit: QubitParams
    kernels: bath.Kernels
    decoherence: np.ndarray
    phase: np.ndarray
    max_quad_error: float
    rho0_diag: DensityMatrix
    c_diag: np.ndarray
    # Derived name -> read-only array(s): "states" here, "angles" and
    # "norms" for nhqubit.qsl.
    _record: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        for name in ("decoherence", "phase", "c_diag"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def times(self) -> np.ndarray:
        return self.kernels.ts

    def __len__(self) -> int:
        return len(self.times)

    @property
    def symmetry(self) -> Symmetry:
        return self.qubit.symmetry

    @property
    def omega0(self) -> float:
        return split(self.qubit).omega0

    def _derived(self, name: str, compute):
        """The record's value `name`: compute(self) on first use, its array
        (or each array of a tuple) made read-only and kept.  Nothing is
        kept when compute raises, so every read raises until one succeeds."""
        value = self._record.get(name)
        if value is None:
            value = compute(self)
            for array in value if isinstance(value, tuple) else (value,):
                array.flags.writeable = False
            self._record[name] = value
        return value

    @property
    def p1(self) -> np.ndarray:
        return self._derived("states", _frame_states)[0]

    @property
    def p2(self) -> np.ndarray:
        return self._derived("states", _frame_states)[1]

    @property
    def c(self) -> np.ndarray:
        return self._derived("states", _frame_states)[2]

    @property
    def states(self) -> list[DensityMatrix]:
        """The states (p1, p2, c) as DensityMatrix objects, built on
        demand."""
        return _states(self.p1, self.p2, self.c)

    def dephasing_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p1, p2, c) in the frame where dephasing is diagonal: populations
        frozen at rho0_diag's, coherence c_diag (the stored array itself).
        The entropies are defined on these states; for Anti-PT they are the
        trajectory's own states."""
        n = len(self)
        return (np.full(n, self.rho0_diag.p1), np.full(n, self.rho0_diag.p2),
                self.c_diag)

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


def _validate_times(times) -> None:
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if ts[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("time grid must be strictly increasing")


def _physical_states(t_inv, p1, p2, coherences) -> np.ndarray:
    """T^-1 rho_d T^-dagger / tr at every time, as an (n, 2, 2) array, for
    the eigenframe states with populations p1, p2 and the coherences given.

    T^-1 rho_d stays one small product per time; the product with
    T^-dagger is one (2n, 2) @ (2, 2) product over the whole grid, which
    rounds as the per-time products do.  The (2, 2) @ (2, 2n) form of the
    first product rounds differently, and the finite-difference Liouvillian
    norm of the QSL amplifies those last-bit changes."""
    n = len(coherences)
    rho_d = np.empty((n, 2, 2), dtype=complex)
    rho_d[:, 0, 0] = p1
    rho_d[:, 0, 1] = coherences
    rho_d[:, 1, 0] = coherences.conj()
    rho_d[:, 1, 1] = p2
    phys = ((t_inv @ rho_d).reshape(2 * n, 2)
            @ t_inv.conj().T).reshape(n, 2, 2)
    phys = 0.5 * (phys + phys.conj().swapaxes(-1, -2))  # scrub rounding drift
    phys /= (phys[:, 0, 0].real + phys[:, 1, 1].real)[:, None, None]
    return phys


def _frame_states(traj: Trajectory):
    """(p1, p2, c) of the trajectory's states, from its dephasing frame
    (through _physical_frame for PT), checked physical."""
    states = traj.dephasing_frame()
    if traj.symmetry is Symmetry.PT:
        states = _physical_frame(traj.qubit, *states)
    check_physical(*states)
    return states


def _physical_frame(p: QubitParams, p1, p2, coherences):
    """(p1, p2, c) of the PT qubit p's physical-frame states, mapped
    through T^-1 from the eigenframe states (p1, p2, coherences); raises
    DomainError naming the qubit where the map leaves the floating-point
    range (errors.float_range)."""
    with p.float_range():
        # T's entries scale as omega0: T / 2^e, with e the exponent of its
        # largest entry, keeps T^-1 rho_d T^-dagger in range, and the scale
        # is exact and cancels in the trace division.
        t = transformation_matrix(p)
        scale = np.ldexp(1.0, -np.frexp(np.abs(t).max())[1])
        phys = _physical_states(np.linalg.inv(t * scale), p1, p2, coherences)
    return phys[:, 0, 0].real, phys[:, 1, 1].real, phys[:, 0, 1]


def phase_function(p: QubitParams, kernels: bath.Kernels):
    """(F, result): the phase function on the table kernels, and the
    kernel result it read, with F's error bound.
    The coherence phase is 2 omega0 t - omega0 F: F is Omega for PT, and
    Omega_2 - Omega_1, the same for every (xi, delta), for Anti-PT."""
    if p.symmetry is Symmetry.PT:
        res = kernels("omega_pt", p.theta)
        return res.value, res
    res = kernels("omega1", p.theta)
    return bath.omega2(kernels.ts, p.theta, kernels.p) - res.value, res


def evolve(p: QubitParams, kernels: bath.Kernels,
           initial: DensityMatrix | None = None) -> Trajectory:
    """The trajectory of qubit p in the bath, on the grid and at the tol of
    the bath.Kernels table kernels, which the trajectory keeps.

    initial is the eigenframe state at t = 0 (|+> by default).  It dephases
    in closed form, and the trajectory keeps it as rho0_diag and c_diag.
    The states (p1, p2, c: the physical frame through T^-1 for PT, the
    eigenframe for Anti-PT) are derived on their first read, not here.

    The qubit scales the theta-linear kernels by its theta before the tol
    check, so its trajectory is the same bit for bit on every table of its
    bath and grid whose tol its reads meet, and qubits share kernels by
    sharing one table: [evolve(p, table) for p in sweep].  BrokenPhase at
    the exceptional point comes first, then ValueError unless the table's
    grid is a non-empty 1-D grid starting at 0 and strictly increasing,
    then the reads of gamma and the phase kernel, before the arithmetic,
    which raises DomainError naming the qubit where it leaves the
    floating-point range (errors.float_range).  The PT frame's DomainError
    and either class's NonPhysicalState keep their types and messages but
    are raised by the first read of the states, and the Anti-PT rates and
    norm are checked by the first read of the norms (nhqubit.qsl).
    """
    omega0 = split(p).omega0
    if omega0 <= 0.0:
        raise BrokenPhase(
            f"{p.symmetry.value} splitting is zero (exceptional point); "
            "closed-form evolution requires omega0 > 0"
        )
    _validate_times(kernels.t)
    if initial is None:
        initial = DensityMatrix.plus()
    g = kernels.gamma()
    f, phase_kernel = phase_function(p, kernels)

    # Both kernels are read, so a kernel error keeps precedence.
    with p.float_range():
        damping = np.exp(-(omega0**2) * g.value)
        phases = 2.0 * omega0 * kernels.ts - omega0 * f
        coherences = initial.c * np.exp(1j * phases) * damping

    bound = max(r.abs_error.max() for r in (g, phase_kernel))
    return Trajectory(
        qubit=p, kernels=kernels, decoherence=damping, phase=phases,
        max_quad_error=float(bound), rho0_diag=initial, c_diag=coherences)


def evolve_pt(p: QubitParams, b: BathParams, times,
              initial: DensityMatrix | None = None,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """PT trajectory of p in the bath b on the grid times from the
    eigenframe state initial: evolve on a new table of them, after the
    class check (ValueError).  The table rejects a grid that is not
    finite, non-negative and at most 1-D (DomainError) before evolve's
    checks.  The diagonal-frame state dephases in closed form; its states,
    mapped back through T^-1 and renormalized to unit trace at each time,
    are derived on their first read."""
    if p.symmetry is not Symmetry.PT:
        raise ValueError("evolve_pt requires PT-class parameters")
    return evolve(p, bath.Kernels(times, b, tol), initial)


def evolve_apt(p: QubitParams, b: BathParams, times,
               initial: DensityMatrix | None = None,
               tol: float = DEFAULT_TOL) -> Trajectory:
    """Anti-PT trajectory of p in the bath b on the grid times from the
    eigenframe state initial: evolve on a new table of them, after the
    class check (ValueError), with the same grid checks as evolve_pt.  In
    the eigenframe the populations stay frozen and the coherence is damped
    by D(t) with phase 2 omega0 t - omega0 [Omega_2(t) - Omega_1(t)]."""
    if p.symmetry is not Symmetry.ANTI_PT:
        raise ValueError("evolve_apt requires Anti-PT-class parameters")
    return evolve(p, bath.Kernels(times, b, tol), initial)
