"""Open-system dynamics and information measures for PT and Anti-PT qubits."""

from .bath import BACKEND, BathParams, QuadratureResult
from .dynamics import QubitParams, SpectralSplit, Symmetry, Trajectory
from .linalg2 import DensityMatrix

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BathParams",
    "DensityMatrix",
    "QuadratureResult",
    "QubitParams",
    "SpectralSplit",
    "Symmetry",
    "Trajectory",
    "__version__",
]
