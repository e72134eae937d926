import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `import oracles`

import oracles
from nhqubit import bath, dynamics, presets
from nhqubit.bath import BathParams
from nhqubit.dynamics import QubitParams, Symmetry
from nhqubit.linalg2 import DensityMatrix

CAPTION_BATH = BathParams(j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5)
CAPTION_PT = QubitParams(alpha=1.0, theta=0.86, xi=0.81, delta=0.56,
                         symmetry=Symmetry.PT)
CAPTION_APT = QubitParams(alpha=1.0, theta=0.86, xi=0.81, delta=0.56,
                          symmetry=Symmetry.ANTI_PT)


@pytest.fixture(scope="session")
def caption_bath():
    return CAPTION_BATH


def random_matrix(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))


def random_state(rng):
    a = random_matrix(rng)
    m = a @ a.conj().T + 1e-12 * np.eye(2)
    m /= np.trace(m).real
    return DensityMatrix.from_matrix(m)


def count_calls(monkeypatch, module, *names) -> dict[str, int]:
    """Wrap module.<name> for each name so that calls are counted; returns
    the live counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


@pytest.fixture
def frame_maps(monkeypatch):
    """The live counts of the PT frame map's np.linalg.inv and
    dynamics._physical_states calls, as a function of no arguments."""
    inv = count_calls(monkeypatch, np.linalg, "inv")
    states = count_calls(monkeypatch, dynamics, "_physical_states")
    return lambda: {**inv, **states}


def count_evaluations(monkeypatch) -> dict[str, int]:
    """Wrap bath._thermal and bath._single so that kernel evaluations are
    counted by kernel name, whatever table or public call asks for them;
    returns the live counts."""
    calls = {}

    def counting(fn):
        def counted(name, *args):
            calls[name] = calls.get(name, 0) + 1
            return fn(name, *args)
        return counted

    for attr in ("_thermal", "_single"):
        monkeypatch.setattr(bath, attr, counting(getattr(bath, attr)))
    return calls


@pytest.fixture
def fresh_caption_kernels():
    """A preset table that no earlier build filled, and none left behind."""
    presets.caption_kernels.cache_clear()
    yield
    presets.caption_kernels.cache_clear()


@pytest.fixture(autouse=True)
def shared_oracle_panels():
    """The oracle integrals of one test share their panel arrays; none
    outlive the test."""
    with oracles.shared_panels():
        yield
