"""Exception hierarchy shared across the package, and float_range, the one
guard that turns arithmetic leaving the floating-point range into a package
error: QuadratureDivergence in a bath kernel, DomainError in a trajectory.
"""

import contextlib

import numpy as np


class NhQubitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NhQubitError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateNonDiagonalizable(NhQubitError):
    """Matrix is defective within tolerance (exceptional point)."""


class NonPhysicalState(NhQubitError):
    """Density matrix violates trace/Hermiticity/positivity invariants."""


class QuadratureDivergence(NhQubitError):
    """A bath kernel's error bound exceeds the requested tolerance, or its
    series would exceed the term budget."""


class BrokenPhase(NhQubitError):
    """Parameters lie in the broken-symmetry regime (complex splitting)."""


class GridTooCoarse(NhQubitError):
    """Finite-difference stencil unavailable on the given time grid."""


class AngleSingularity(NhQubitError):
    """Speed-limit velocity undefined where the Bures angle is 0 or pi/2."""


class DegenerateTrajectory(NhQubitError):
    """Trajectory shows no motion over the requested horizon."""


class GridMismatch(NhQubitError):
    """Two scenarios do not share the same time grid."""


class ConfigError(NhQubitError):
    """Scenario configuration could not be parsed or validated."""


class UsageError(ConfigError):
    """Command line outside the grammar of the command-line verbs."""


@contextlib.contextmanager
def float_range(error: type[NhQubitError], prefix: str, suffix: str = ""):
    """Numpy overflow or invalid in the block, or a math OverflowError, as
    error(f"{prefix}: {exc}, outside the floating-point range{suffix}")."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise error(f"{prefix}: {exc}, outside the floating-point "
                    f"range{suffix}") from None
