"""Exact complex 2x2 linear algebra: eigenpairs, operator norm, fidelity.

Everything here uses closed forms (quadratic characteristic polynomial,
explicit singular values) instead of general LAPACK routines, so results
are fast, allocation-light and reproducible to the last bit.  The state
formulas take the entries (p1, p2, c) of [[p1, c], [conj(c), p2]] as
broadcastable arrays; DensityMatrix calls them with scalars.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNonDiagonalizable, NonPhysicalState

# Defectiveness thresholds: near-coincident eigenvalues whose eigenvectors
# also coalesce signal an exceptional point of a non-Hermitian matrix.
_GAP_TOL = 1e-9
_OVERLAP_TOL = 1e-6

_TRACE_TOL = 1e-12
_POSITIVITY_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce input to a (2, 2) complex ndarray, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    return a


def frob(m) -> float:
    a = np.asarray(m)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def eig2(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a complex 2x2 matrix via the quadratic formula.

    Returns (eigenvalues, eigenvectors) where eigenvectors[:, i] is the
    unit-norm eigenvector for eigenvalues[i].  Hermitian input gets real
    eigenvalues in descending order and an exactly orthonormal pair.

    Raises DegenerateNonDiagonalizable when the matrix is defective within
    tolerance (a single Jordan block, i.e. an exceptional point).
    """
    a = as_matrix(m)
    scale = frob(a)
    herm = frob(a - a.conj().T) <= 1e-14 * max(scale, 1.0)

    half_tr = 0.5 * (a[0, 0] + a[1, 1])
    s = 0.5 * (a[0, 0] - a[1, 1])
    disc = cmath.sqrt(s * s + a[0, 1] * a[1, 0])
    lam1, lam2 = half_tr + disc, half_tr - disc

    off = max(abs(a[0, 1]), abs(a[1, 0]))
    if off <= 1e-15 * max(scale, 1.0):
        # Already diagonal; degenerate diagonal matrices are not defective.
        vals = np.array([a[0, 0], a[1, 1]])
        vecs = np.eye(2, dtype=complex)
        if herm:
            vals = vals.real.astype(complex)
            if vals[0].real < vals[1].real:
                vals = vals[::-1]
                vecs = vecs[:, ::-1]
        return vals, vecs

    def vector_for(lam: complex) -> np.ndarray:
        # (a - lam) v = 0; pick the better-conditioned row.
        v1 = np.array([a[0, 1], lam - a[0, 0]])
        v2 = np.array([lam - a[1, 1], a[1, 0]])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        return v / np.linalg.norm(v)

    if herm:
        lam1, lam2 = lam1.real, lam2.real
        if lam1 < lam2:
            lam1, lam2 = lam2, lam1
        v1 = vector_for(lam1)
        # Orthogonal complement in C^2: exact orthogonality by construction.
        v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])])
        return (
            np.array([lam1, lam2], dtype=complex),
            np.column_stack([v1, v2]),
        )

    v1 = vector_for(lam1)
    v2 = vector_for(lam2)
    if abs(lam1 - lam2) < _GAP_TOL * max(scale, 1.0):
        if abs(np.vdot(v1, v2)) > 1.0 - _OVERLAP_TOL:
            raise DegenerateNonDiagonalizable(
                "eigenvalues and eigenvectors coalesce (exceptional point)"
            )
    return np.array([lam1, lam2]), np.column_stack([v1, v2])


def opnorm(m) -> float:
    """Largest singular value of a 2x2 matrix, in closed form.

    Computed from the eigenvalues of m^dagger m:
    s_max^2 = g/2 + sqrt(g^2/4 - det(m^dagger m)) with g = tr(m^dagger m).
    """
    a = as_matrix(m)
    g = float(np.sum(np.abs(a) ** 2))
    d = abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) ** 2
    rad = max(0.25 * g * g - d, 0.0)
    return math.sqrt(max(0.5 * g + math.sqrt(rad), 0.0))


def eigenvalue_pair(p1, p2, c, clamp: bool = True):
    """Eigenvalues (lo, hi) of [[p1, c], [conj(c), p2]], elementwise;
    clamp maps them into [0, 1]."""
    mean = 0.5 * (p1 + p2)
    abs_c = np.hypot(np.real(c), np.imag(c))
    rad = np.sqrt(0.25 * (p1 - p2) ** 2 + abs_c**2)
    lo, hi = mean - rad, mean + rad
    if clamp:
        lo, hi = np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
    return lo, hi


def check_physical(p1, p2, c) -> None:
    """Raise NonPhysicalState unless every state has unit trace and its
    eigenvalues lie in [0, 1], within tolerance."""
    tr = np.atleast_1d(p1 + p2)
    bad = ~(np.abs(tr - 1.0) <= _TRACE_TOL)
    if bad.any():
        raise NonPhysicalState(
            f"trace {float(tr[bad][0])!r} != 1 beyond tolerance")
    with np.errstate(over="ignore"):  # |c| beyond 1e154: an eigenvalue inf
        lo, hi = map(np.atleast_1d, eigenvalue_pair(p1, p2, c, clamp=False))
    bad = (lo < -_POSITIVITY_TOL) | (hi > 1.0 + _POSITIVITY_TOL)
    if bad.any():
        raise NonPhysicalState(f"eigenvalues ({float(lo[bad][0])}, "
                               f"{float(hi[bad][0])}) outside [0, 1]")


def state_fidelity(p1, p2, c, q1, q2, d):
    """Uhlmann fidelity between the states (p1, p2, c) and (q1, q2, d),
    elementwise: for qubits Tr(rho sigma) + 2 sqrt(det rho det sigma)."""
    # Re(c conj(d)) in real arithmetic: numpy's vectorised complex product
    # may fuse multiply-adds, so one state and a grid would round apart.
    re_cd = np.real(c) * np.real(d) + np.imag(c) * np.imag(d)
    tr_prod = p1 * q1 + p2 * q2 + 2.0 * re_cd
    det_r = np.maximum(p1 * p2 - np.hypot(np.real(c), np.imag(c)) ** 2, 0.0)
    det_s = np.maximum(q1 * q2 - np.hypot(np.real(d), np.imag(d)) ** 2, 0.0)
    return np.clip(tr_prod + 2.0 * np.sqrt(det_r * det_s), 0.0, 1.0)


@dataclass(frozen=True)
class DensityMatrix:
    """A physical qubit state: Hermitian by construction, unit trace.

    Stored as populations p1, p2 (real) and the upper coherence c; the
    lower coherence is conj(c) exactly, so Hermiticity can never drift.
    """

    p1: float
    p2: float
    c: complex

    def __post_init__(self):
        check_physical(self.p1, self.p2, self.c)

    @classmethod
    def from_matrix(cls, m) -> "DensityMatrix":
        a = as_matrix(m)
        if frob(a - a.conj().T) > 1e-12 * max(frob(a), 1.0):
            raise NonPhysicalState("matrix is not Hermitian within tolerance")
        return cls(p1=a[0, 0].real, p2=a[1, 1].real, c=complex(a[0, 1]))

    @classmethod
    def from_expectations(cls, sz: float, coherence: complex) -> "DensityMatrix":
        """State with populations (1 +/- <sigma_z>)/2 and rho_12 = coherence."""
        return cls(p1=0.5 * (1.0 + sz), p2=0.5 * (1.0 - sz), c=complex(coherence))

    @classmethod
    def plus(cls) -> "DensityMatrix":
        """Projector onto (|0> + |1>)/sqrt(2)."""
        return cls(p1=0.5, p2=0.5, c=0.5 + 0.0j)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.p1, self.c], [np.conj(self.c), self.p2]], dtype=complex
        )

    def eigenvalues(self, clamp: bool = True) -> tuple[float, float]:
        """Eigenvalue pair (lo, hi); clamp maps tiny negatives to 0."""
        lo, hi = eigenvalue_pair(self.p1, self.p2, self.c, clamp)
        return float(lo), float(hi)

    def sigma_z(self) -> float:
        return self.p1 - self.p2


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2."""
    if not isinstance(rho, DensityMatrix) or not isinstance(sigma, DensityMatrix):
        raise NonPhysicalState("fidelity requires DensityMatrix arguments")
    return float(state_fidelity(rho.p1, rho.p2, rho.c,
                                sigma.p1, sigma.p2, sigma.c))
