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
(D, the phase, the entropies) never pays the PT map.  A Trajectory holds
the states as arrays over the time grid; DensityMatrix objects are built
only on request (Trajectory.states).

evolve(p, table) evolves one qubit on one bath.Kernels table, as
whole-array passes over the grid.  gamma(t), d gamma/dt and Omega,
Omega_1 and d Omega_1/dt per unit theta depend only on the bath and the
grid, so the table evaluates each at most once and alone supplies the
bath, the grid and the tol every read is checked against.  The qubit
reads the kernels its class needs, scaling the theta-linear ones by its
theta.  Calls share kernels by sharing a table, as the presets do.
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

    phase[i] is the coherence phase accumulated since t = 0 (the initial
    coherence's own argument is not included).  Both classes keep the
    eigenframe state: rho0_diag at t = 0 and the coherence c_diag =
    rho0_diag.c exp(i phase) decoherence.  For Anti-PT lnorm_analytic
    holds |d rho/dt|_op from the closed form.  qubit is the qubit the
    trajectory was evolved from, of its symmetry class (ValueError
    otherwise); a PT trajectory needs it for its frame.

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
    computes, are each derived once per trajectory, on first use, and
    kept read-only in a private record that every later read uses.
    dataclasses.replace starts a fresh record.
    """

    symmetry: Symmetry
    omega0: float
    times: np.ndarray
    decoherence: np.ndarray
    phase: np.ndarray
    max_quad_error: float
    rho0_diag: DensityMatrix
    c_diag: np.ndarray
    lnorm_analytic: np.ndarray | None = None
    qubit: QubitParams | None = None
    # Derived name -> read-only array(s): "states" here, the speed-limit
    # series in nhqubit.qsl.
    _record: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.qubit is None:
            if self.symmetry is Symmetry.PT:
                raise ValueError("a PT trajectory needs its qubit for the "
                                 "frame map")
        elif self.qubit.symmetry is not self.symmetry:
            raise ValueError(f"trajectory symmetry {self.symmetry.value} "
                             "differs from its qubit's, "
                             f"{self.qubit.symmetry.value}")
        for name in _ARRAYS:
            value = getattr(self, name)
            if value is not None:
                view = np.asarray(value).view()
                view.flags.writeable = False
                object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def p1(self) -> np.ndarray:
        return self._frame()[0]

    @property
    def p2(self) -> np.ndarray:
        return self._frame()[1]

    @property
    def c(self) -> np.ndarray:
        return self._frame()[2]

    def _frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p1, p2, c), derived from the dephasing frame on first read and
        kept, read-only, in the record."""
        states = self._record.get("states")
        if states is None:
            states = self.dephasing_frame()
            if self.symmetry is Symmetry.PT:
                states = _physical_frame(self.qubit, *states)
            check_physical(*states)
            for array in states:
                array.flags.writeable = False
            self._record["states"] = states
        return states

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


_ARRAYS = ("times", "decoherence", "phase", "c_diag", "lnorm_analytic")


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


def _physical_frame(p: QubitParams, p1, p2, coherences):
    """(p1, p2, c) of the PT qubit p's physical-frame states, mapped
    through T^-1 from the eigenframe states (p1, p2, coherences); raises
    DomainError naming the qubit where the map leaves the floating-point
    range (errors.float_range)."""
    with float_range(DomainError, f"{p.symmetry.value} trajectory",
                     f" ({p._values()})"):
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
    the bath.Kernels table kernels.

    initial is the eigenframe state at t = 0 (|+> by default).  It dephases
    in closed form, and the trajectory keeps it as rho0_diag and c_diag;
    Anti-PT trajectories also carry their analytic Liouvillian norm.  The
    states (p1, p2, c: the physical frame through T^-1 for PT, the
    eigenframe for Anti-PT) are derived on their first read, not here.
    The trajectory's times are the table's grid.

    The qubit scales the theta-linear kernels by its theta before the tol
    check, so its trajectory is the same bit for bit on every table of its
    bath and grid whose tol its reads meet, and qubits share kernels by
    sharing one table: [evolve(p, table) for p in sweep].  BrokenPhase at
    the exceptional point comes first, then ValueError unless the table's
    grid is a non-empty 1-D grid starting at 0 and strictly increasing,
    then the kernel reads (gamma, d gamma/dt for Anti-PT, the phase
    kernels), all before the arithmetic, which raises DomainError naming
    the qubit where it leaves the floating-point range
    (errors.float_range).  The PT frame's DomainError and either class's
    NonPhysicalState keep their types and messages but are raised by the
    first read of the states.
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
    anti = p.symmetry is Symmetry.ANTI_PT
    ts = kernels.ts
    g = kernels.gamma()
    dg = kernels.gamma_rate() if anti else None
    f, phase_kernel = phase_function(p, kernels)
    reads = [g, phase_kernel]
    if anti:
        do1 = kernels("omega1_rate", p.theta)
        do2 = bath.omega2_rate(ts, p.theta, kernels.p)
        reads += [dg, do1]

    # Every kernel is read, so a kernel error keeps precedence.
    with float_range(DomainError, f"{p.symmetry.value} trajectory",
                     f" ({p._values()})"):
        damping = np.exp(-(omega0**2) * g.value)
        phases = 2.0 * omega0 * ts - omega0 * f
        coherences = initial.c * np.exp(1j * phases) * damping
        lnorm = None
        if anti:
            # Only the coherence moves, so |d rho/dt|_op = |dc/dt|.
            dphi = 2.0 * omega0 - omega0 * (do2 - do1.value)
            lnorm = np.abs(coherences) * np.hypot(dphi, omega0**2 * dg.value)

    return Trajectory(
        symmetry=p.symmetry, omega0=omega0, times=ts, decoherence=damping,
        phase=phases,
        max_quad_error=float(max(r.abs_error.max() for r in reads)),
        rho0_diag=initial, c_diag=coherences, lnorm_analytic=lnorm, qubit=p)


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
