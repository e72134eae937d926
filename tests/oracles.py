"""Independent brute-force reference implementations for the test suite.

Nothing here shares code with the package internals: the quadrature oracle
is a fixed-panel composite Gauss-Legendre rule with Richardson-style panel
doubling, the eigensolver goes through the characteristic polynomial via
numpy.roots, fidelity takes the eigendecomposition square-root route, and
the operator norm comes from repeated squaring of m^dagger m, and the
states of a qubit come from its Hamiltonian, written out here, through
scipy's matrix exponential or its numpy eigenvalues.  Every frozen
reference value in the tests was produced by these functions.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

# ---------------------------------------------------------------------------
# quadrature oracle

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(3)


def _spectral_density(w, j0, omega_c, mu):
    return j0 * omega_c * (w / omega_c) ** (1.0 + mu) * np.exp(-w / omega_c)


def _one_minus_cos(u):
    # 1 - cos u without cancellation at small u.
    return 2.0 * np.sin(0.5 * u) ** 2


def _ramp(u):
    # u - sin u; series below 1e-3 where direct subtraction cancels.
    direct = u - np.sin(u)
    series = u**3 / 6.0 * (1.0 - u**2 / 20.0 * (1.0 - u**2 / 42.0))
    return np.where(u < 1e-3, series, direct)


def _kernel(kind, w, t, tanh):
    """Integrand divided by J(omega), with tanh = tanh(beta omega/2) for the
    thermal kinds.  kind: 'gamma', 'phase_ramp', 'phase_bounded',
    'gamma_t0' (coth replaced by 1), and the time derivatives 'dgamma' and
    'dphase_bounded'."""
    if kind == "gamma":
        return 4.0 * _one_minus_cos(w * t) / w**2 / tanh
    if kind == "dgamma":
        return 4.0 * np.sin(w * t) / w / tanh
    if kind == "dphase_bounded":
        return 4.0 * np.sin(w * t) / w
    if kind == "gamma_t0":
        return 4.0 * _one_minus_cos(w * t) / w**2
    if kind == "phase_ramp":
        return 4.0 * _ramp(w * t) / w**2
    if kind == "phase_bounded":
        return 4.0 * _one_minus_cos(w * t) / w**2
    raise ValueError(kind)


# {key: array} while shared_panels() is active, else None.
_shared = None


@contextlib.contextmanager
def shared_panels():
    """Share the panel arrays of every integral run inside: the nodes, 2x
    J(omega) and tanh(beta omega/2), per resolution, bath and temperature.
    Outside it each integral computes its own and keeps nothing, so a
    caller that loads this module for one integral holds no memory after
    it."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def _kept(key, compute):
    """compute(), kept under key while panels are shared."""
    if _shared is None:
        return compute()
    if key not in _shared:
        _shared[key] = compute()
    return _shared[key]


def _halves(n_panels, w_max):
    edges = np.linspace(0.0, math.sqrt(w_max), n_panels + 1)
    return 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])


def _composite_gl(kind, t, j0, omega_c, mu, beta, n_panels, w_max):
    # Integrate in x = sqrt(omega): d omega = 2x dx turns the omega^mu
    # spectral edge into x^(2 mu + 1), regular for mu >= -1/2, so the
    # fixed-panel rule converges at full order.
    half, mid = _kept(("halves", n_panels, w_max),
                      lambda: _halves(n_panels, w_max))
    total = 0.0
    chunk = 200_000
    for lo in range(0, n_panels, chunk):
        h = half[lo:lo + chunk, None]
        at = (n_panels, w_max, lo)
        x = _kept(("x", *at),
                  lambda: mid[lo:lo + chunk, None] + h * _GL_NODES[None, :])
        w = x**2
        measure = _kept(("2xJ", *at, j0, omega_c, mu),
                        lambda: 2.0 * x * _spectral_density(w, j0, omega_c,
                                                            mu))
        tanh = (_kept(("tanh", *at, beta), lambda: np.tanh(0.5 * beta * w))
                if kind in ("gamma", "dgamma") else None)
        vals = measure * _kernel(kind, w, t, tanh)
        total += float(np.sum(h * vals * _GL_WEIGHTS[None, :]))
    return total


def brute_bath_integral(kind, t, j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5,
                        n_panels=1_000_000):
    """(value, error_bound) via panel doubling: the returned value uses
    n_panels, the error bound is its distance to the half-resolution run."""
    w_max = 50.0 * omega_c
    coarse = _composite_gl(kind, t, j0, omega_c, mu, beta, n_panels // 2, w_max)
    fine = _composite_gl(kind, t, j0, omega_c, mu, beta, n_panels, w_max)
    return fine, abs(fine - coarse)


def brute_gamma(t, j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5, **kw):
    return brute_bath_integral("gamma", t, j0, omega_c, mu, beta, **kw)


def brute_omega_pt(t, theta, j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5, **kw):
    v, e = brute_bath_integral("phase_ramp", t, j0, omega_c, mu, beta, **kw)
    return theta * v, abs(theta) * e


def brute_omega1(t, theta, j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5, **kw):
    v, e = brute_bath_integral("phase_bounded", t, j0, omega_c, mu, beta, **kw)
    return theta * v, abs(theta) * e


# ---------------------------------------------------------------------------
# linear-algebra oracles

def brute_eig(m):
    """Eigenvalues via the characteristic polynomial and numpy.roots,
    eigenvectors via the smallest singular vector of (m - lam I)."""
    m = np.asarray(m, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    lams = np.roots([1.0, -tr, det])
    vecs = []
    for lam in lams:
        _, _, vh = np.linalg.svd(m - lam * np.eye(2))
        vecs.append(vh[-1].conj())
    return lams, vecs


def brute_fidelity(rho, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 via
    Hermitian eigendecompositions."""
    def psd_sqrt(a):
        lam, u = np.linalg.eigh(a)
        lam = np.clip(lam, 0.0, None)
        return (u * np.sqrt(lam)) @ u.conj().T

    root = psd_sqrt(np.asarray(rho, dtype=complex))
    inner = root @ np.asarray(sigma, dtype=complex) @ root
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(lam)) ** 2)


def brute_opnorm(m, iters=500):
    """Largest singular value by repeated squaring of m^dagger m.  m is one
    2x2 matrix (returns a float) or a stack of shape (..., 2, 2) (returns
    an array).

    After k squarings a = (m^dagger m)^(2^k) up to scale, so its columns
    lean to the top right singular vector v as (s_min/s_max)^(2^(k+1)):
    near-degenerate pairs converge in a few dozen squarings where power
    iteration needs millions of steps.  The squaring stops once every a
    is rank one to 1e-12 (det a <= 1e-12 tr(a)^2) or after iters
    squarings; a column of a of largest norm then gives |m v| / |v|,
    whose error is second order in a's remaining rank-two part.
    """
    m = np.asarray(m, dtype=complex)
    # Scaling by a power of two is exact and keeps every power of
    # m^dagger m in range; a zero matrix has exponent 0.
    e = np.frexp(np.abs(m).max(axis=(-2, -1)))[1]
    m = (np.ldexp(m.real, -e[..., None, None])
         + 1j * np.ldexp(m.imag, -e[..., None, None]))
    a = np.swapaxes(m, -1, -2).conj() @ m
    for _ in range(iters):
        det = (a[..., 0, 0] * a[..., 1, 1]).real - np.abs(a[..., 0, 1]) ** 2
        trace = (a[..., 0, 0] + a[..., 1, 1]).real
        if np.all(det <= 1e-12 * trace**2):
            break
        a = a @ a
        top = np.abs(a).max(axis=(-2, -1), keepdims=True)
        a = a / np.where(top == 0.0, 1.0, top)
    lengths = np.linalg.norm(a, axis=-2)
    pick = np.argmax(lengths, axis=-1)[..., None, None]
    v = np.take_along_axis(a, pick, axis=-1)
    longest = np.take_along_axis(lengths, pick[..., 0], axis=-1)[..., 0]
    norm = np.ldexp(np.linalg.norm(m @ v, axis=(-2, -1))
                    / np.where(longest == 0.0, 1.0, longest), e)
    return float(norm) if norm.ndim == 0 else norm


# ---------------------------------------------------------------------------
# direct-evolution oracles

def hamiltonian(alpha, theta, xi, delta, pt):
    """The paper's PT Hamiltonian (pt true) or Anti-PT Hamiltonian."""
    if pt:
        return np.array([[alpha + 1j * theta, xi + 1j * delta],
                         [xi - 1j * delta, alpha - 1j * theta]])
    return np.array([[alpha + 1j * theta, xi + 1j * delta],
                     [-xi + 1j * delta, -alpha + 1j * theta]])


def _normalized(states):
    trace = (states[:, 0, 0] + states[:, 1, 1]).real
    return states / trace[:, None, None]


def direct_states(h, rho0, ts):
    """exp(-i H t) rho0 exp(i H^dagger t) / tr at each t, as an (n, 2, 2)
    array."""
    from scipy.linalg import expm
    u = np.array([expm(-1j * h * t) for t in ts])
    return _normalized(u @ rho0 @ u.conj().swapaxes(-1, -2))


def eigenframe_states(h, rho0, ts):
    """diag(exp(-i E t)) rho0 diag(exp(-i E t))^dagger / tr at each t, with
    E the eigenvalues of h sorted by real part, as an (n, 2, 2) array."""
    energies = sorted(np.linalg.eigvals(h), key=lambda e: e.real)
    u = np.exp(-1j * np.outer(ts, energies))
    return _normalized(u[:, :, None] * rho0 * u[:, None, :].conj())


# ---------------------------------------------------------------------------
# time-integral oracle

def brute_time_average(f, t_end, tol=1e-8, n0=64, max_doublings=20):
    """(1/t_end) * integral of f on [0, t_end] by trapezoid refinement
    until the change between successive grids is below tol."""
    n = n0
    ts = np.linspace(0.0, t_end, n + 1)
    prev = np.trapezoid([f(t) for t in ts], ts) / t_end
    for _ in range(max_doublings):
        n *= 2
        ts = np.linspace(0.0, t_end, n + 1)
        cur = np.trapezoid([f(t) for t in ts], ts) / t_end
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise RuntimeError("time-average oracle did not converge")
