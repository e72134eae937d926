"""Bath spectral density and the dephasing kernels in closed form.

The spectral density is an Ohmic family with exponential cutoff,

    J(w) = J0 * omega_c * (w/omega_c)^(1+mu) * exp(-w/omega_c),

so mu = 0 is Ohmic and mu = -0.5 sub-Ohmic.  The kernels are

    gamma(t)       = 4 int_0^inf dw J(w) (1 - cos wt)/w^2 coth(beta w/2)
    omega_pt(t)    = 4 theta int_0^inf dw J(w) (wt - sin wt)/w^2
    omega1(t)      = 4 theta int_0^inf dw J(w) (1 - cos wt)/w^2
    omega2(t)      = 2 theta t^2 int_0^inf dw J(w)

plus the time derivatives of gamma and omega1 needed for analytic
Liouvillian norms.  With c = 4 J0 omega_c^-mu, a = 1/omega_c and
z = a - i t they are Gamma-function integrals (Haikka, Johnson and
Maniscalco, PRA 87, 010103(R) (2013)):

    omega1 / theta        = c Gamma(mu) [a^-mu - Re z^-mu]
    omega_pt / theta      = c [t Gamma(mu+1) a^(-mu-1) - Gamma(mu) Im z^-mu]
    d omega1/dt / theta   = c Gamma(mu+1) Im z^(-mu-1)

and coth(beta w/2) = 1 + 2 sum_k exp(-k beta w) turns gamma into the
same bracket summed over a_k = a + k beta, weight 2 - delta_k0.  Terms
with a_k < 2 t_max (a little more for mu > 1, or mu > 0 in the rate)
are summed directly; the rest is a binomial series in t/a_k whose k-sum
is a Hurwitz zeta,

    -2 c sum_m>=1 (-1)^m Gamma(mu+2m)/(2m)! t^2m beta^(-mu-2m)
         * zeta(mu+2m, a/beta + K),

with consecutive terms shrinking by at least 4.  d gamma/dt is the
term-by-term derivative.  The removable pole of Gamma(mu) at mu = 0 is
avoided by writing Gamma(mu)(a^-mu - z^-mu) as
-Gamma(mu+1) a^-mu expm1(-mu log(z/a))/mu in real arithmetic.

Only numpy is imported.  exprel(x) = expm1(x)/x is numpy's expm1 divided
out, exactly 1 at x = 0; the Hurwitz zeta is a scalar port of the Cephes
zeta(x, q) that scipy.special uses (direct sum, then Euler-Maclaurin,
DLMF 25.11), bitwise equal to it on the arguments reached here.

Every kernel takes a float or a 1-D array of times and returns a
QuadratureResult whose abs_error is the series-truncation bound plus a
floating-point rounding bound built from the magnitudes of the terms.
A kernel whose bound exceeds tol, or whose series would need more than
TERM_BUDGET terms, raises QuadratureDivergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureDivergence

# The numeric path, as recorded in run manifests.
BACKEND = "numpy"
DEFAULT_TOL = 1e-9
# Series terms (one per time and k or m) a single kernel call may sum.
TERM_BUDGET = 10_000_000

# (k, t) pairs evaluated per block of the direct sum; bounds peak memory.
_BLOCK = 1 << 16
_EPS = float(np.finfo(float).eps)
# Sums run in extended precision where the platform has it.
_SUM_DTYPE = np.longdouble
_SUM_EPS = float(np.finfo(_SUM_DTYPE).eps)
# Rounding of one term, in units of eps of its magnitude: about ten
# correctly rounded operations.  The magnitudes carry the condition
# numbers: an argument y with relative error d moves exp(y) by |y| d
# relatively and cos y, sin y by |y| d absolutely.
_TERM_ULPS = 16.0

# Bernoulli-number coefficients (2k)!/B_2k of the Euler-Maclaurin
# remainder in Cephes zeta.c, and its stopping threshold.
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def _exprel(x):
    """(exp(x) - 1)/x over an array, exactly 1 at x = 0."""
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)


def _zeta(x: float, q: float) -> float:
    """Hurwitz zeta(x, q) for x > 1 and q > 0: a line-for-line port of
    Cephes zeta.c.  Division by zero raises where q^-x underflows, so
    callers keep q^-x normal."""
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * math.pow(q, 1.0 - x)
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


@dataclass(frozen=True)
class BathParams:
    """Spectral density and temperature parameters.

    j0: coupling amplitude, omega_c: cutoff frequency, mu: spectral
    exponent (> -1 or the gamma integrand diverges at w -> 0), beta:
    inverse temperature.
    """

    j0: float
    omega_c: float
    mu: float
    beta: float

    def __post_init__(self):
        if not (self.j0 > 0):
            raise DomainError(f"j0 must be positive, got {self.j0}")
        if not (self.omega_c > 0):
            raise DomainError(f"omega_c must be positive, got {self.omega_c}")
        if not (self.beta > 0):
            raise DomainError(f"beta must be positive, got {self.beta}")
        if not (self.mu > -1.0):
            raise DomainError(f"mu must exceed -1, got {self.mu}")


@dataclass(frozen=True)
class QuadratureResult:
    """A kernel's value with its absolute error bound, per time for an
    array of times; evaluations counts the series terms summed."""

    value: float | np.ndarray
    abs_error: float | np.ndarray
    converged: bool
    evaluations: int


def spectral_density(omega: float, p: BathParams) -> float:
    """J(omega) for the exponential-cutoff Ohmic family."""
    if omega < 0:
        raise DomainError(f"omega must be non-negative, got {omega}")
    if omega == 0.0:
        return 0.0
    x = omega / p.omega_c
    return p.j0 * p.omega_c * x ** (1.0 + p.mu) * math.exp(-x)


def _prefactor(name: str, p: BathParams, factor: float, power: float,
               shift: float) -> float:
    """factor j0 omega_c^power Gamma(mu + shift), or QuadratureDivergence
    where it leaves the floating-point range."""
    try:
        value = factor * p.j0 * p.omega_c**power * math.gamma(p.mu + shift)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise QuadratureDivergence(
            f"{name}: the prefactor {factor:g} j0 omega_c^{power:.4g} "
            f"Gamma({p.mu + shift:.4g}) leaves the floating-point range "
            f"(j0 = {p.j0:.4g}, omega_c = {p.omega_c:.4g})")
    return value


def moment0(p: BathParams) -> float:
    """int_0^inf J(w) dw = j0 * omega_c^2 * Gamma(2 + mu), in closed form."""
    return _prefactor("moment0", p, 1.0, 2.0, 2.0)


def _times(t) -> np.ndarray:
    """The times as a 1-D array, validated."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DomainError("t must be a float or a 1-D array of times")
    ok = np.isfinite(ts) & (ts >= 0.0)
    if not ok.all():
        raise DomainError(
            f"t must be finite and non-negative, got {ts[~ok].flat[0]}")
    return np.atleast_1d(ts)


def _log_and_angle(x):
    """log|1 - i x| and -arg(1 - i x), accurate for small x."""
    return 0.5 * np.log1p(x * x), np.arctan(x)


def _bounded_term(x, mu):
    """Gamma(mu)(1 - Re (1 - i x)^-mu) / Gamma(mu+1) and its rounding
    magnitude: the (1 - cos wt) kernels at a = 1, t = x."""
    rho, phi = _log_and_angle(x)
    e, y = mu * rho, mu * phi
    u = rho * _exprel(-e)
    v = 0.5 * mu * (phi * np.sinc(y / (2.0 * np.pi))) ** 2
    mag = (u * (1.0 + np.abs(e)) + 0.5 * abs(mu) * phi * phi) \
        * (1.0 + np.abs(y))
    return u * np.cos(y) + v, mag


def _rate_term(x, mu):
    """Im (1 - i x)^(-mu-1) and its rounding magnitude: the sin(wt)
    kernels."""
    rho, phi = _log_and_angle(x)
    e, y = (mu + 1.0) * rho, (mu + 1.0) * phi
    r = np.exp(-e)
    return r * np.sin(y), r * (1.0 + e) * (np.abs(np.sin(y)) + np.abs(y))


def _ramp_term(x, mu):
    """x + Gamma(mu) Im (1 - i x)^-mu / Gamma(mu+1) and its rounding
    magnitude: the (wt - sin wt) kernel."""
    rho, phi = _log_and_angle(x)
    e, y = mu * rho, mu * phi
    s = np.exp(-e) * phi
    return x - s * np.sinc(y / np.pi), \
        x + s * (1.0 + np.abs(e)) * (1.0 + np.abs(y))


def _bound(value, magnitude, n_terms):
    """Rounding bound of a sum of n_terms terms of the given total
    magnitude, evaluated in double and summed in _SUM_DTYPE."""
    return ((_TERM_ULPS * _EPS + n_terms * _SUM_EPS) * magnitude
            + 0.5 * _EPS * np.abs(value))


def _single(name: str, term, power: float, ts, p: BathParams):
    """c Gamma(mu+1) a^power term(t/a): one Gamma-function integral."""
    a = 1.0 / p.omega_c
    scale = _prefactor(name, p, 4.0, -p.mu, 1.0) * a**power
    value, mag = term(ts / a, p.mu)
    value = scale * value
    # a carries one rounding, which a^power amplifies by |power|.
    return value, _bound(value, scale * (1.0 + abs(power)) * mag, 1), ts.size


def _over_budget(name: str, t_max: float, terms: float):
    return QuadratureDivergence(
        f"{name} up to t={t_max}: {terms:.4g} series terms exceed the "
        f"budget of {TERM_BUDGET}")


def _thermal(name: str, ts, p: BathParams, rate: bool):
    """gamma(t) (rate=False) or d gamma/dt (rate=True) on the times ts."""
    scale = _prefactor(name, p, 4.0, -p.mu, 1.0)
    mu, a, beta = p.mu, 1.0 / p.omega_c, p.beta
    t_max = float(ts.max()) if ts.size else 0.0
    # Each tail term is at most sup_coef (t/a_K)^2 times the one before it.
    # The coefficient ratios are monotone in m, so their sup is the first
    # one or the limit 1.
    sup_coef = max(1.0, (mu + 2.0) * (mu + 3.0) / (6.0 if rate else 12.0))
    # Direct terms while a_k < 2 t_max sqrt(sup_coef), so that the tail's
    # term ratio stays below 1/4; the float is checked before ceil and
    # before any allocation.
    k_split = max(1.0, (2.0 * t_max * math.sqrt(sup_coef) - a) / beta)
    if not k_split * ts.size <= TERM_BUDGET:
        raise _over_budget(name, t_max, k_split * ts.size)
    n_direct = math.ceil(k_split)
    a_tail = a + n_direct * beta
    q = a_tail / beta
    ratio_max = sup_coef * (t_max / a_tail) ** 2  # <= 1/4
    # Enough tail terms that the remainder is below eps/2 of the first.
    n_tail = 1 if ratio_max < _EPS else max(1, math.ceil(
        math.log(0.5 * _EPS * (1.0 - ratio_max)) / math.log(ratio_max)))
    n_terms = n_direct + n_tail
    if n_terms * ts.size > TERM_BUDGET:
        raise _over_budget(name, t_max, n_terms * ts.size)
    # q^(mu+2m-1) must stay finite and zeta(mu+2m, q) ~ q^(1-mu-2m) normal;
    # _zeta divides by q^-(mu+2m) and raises if it underflows, so this check
    # stays ahead of the tail.
    if (mu + 2 * n_tail - 1.0) * math.log(q) > 690.0:
        raise QuadratureDivergence(
            f"{name} up to t={t_max}: the zeta tail at a/beta + K = {q:.4g} "
            "leaves the floating-point range")

    term = _rate_term if rate else _bounded_term
    power = -mu - 1.0 if rate else -mu
    total = np.zeros(ts.size, dtype=_SUM_DTYPE)
    mag = np.zeros(ts.size, dtype=_SUM_DTYPE)
    rows = max(1, _BLOCK // max(ts.size, 1))
    for k0 in range(0, n_direct, rows):
        k = np.arange(k0, min(k0 + rows, n_direct))
        a_k = a + k * beta
        weight = np.where(k == 0, 1.0, 2.0) * a_k**power
        f, m = term(ts[:, None] / a_k, mu)
        total += np.sum(f * weight, axis=1, dtype=_SUM_DTYPE)
        mag += np.sum(m * weight, axis=1, dtype=_SUM_DTYPE)

    # Tail, scaled by 1/Gamma(mu+1) like the direct terms: with x = t/a_K,
    # g_m = Gamma(mu+2m)/((2m)! Gamma(mu+1)) and qz_m = q^(mu+2m-1)
    # zeta(mu+2m, q), term m is 2 (-1)^(m+1) g_m a_K^-mu q qz_m x^2m; the
    # rate's carries an extra factor 2m/(x a_K).
    x = ts / a_tail
    x2 = x * x
    xp = x if rate else x2
    g = (mu + 1.0) / 2.0
    tail_scale = 2.0 * a_tail**-mu * q / (a_tail if rate else 1.0)
    for m in range(1, n_tail + 1):
        s = mu + 2 * m
        last = (tail_scale * g * q ** (s - 1.0) * _zeta(s, q)
                * (2 * m if rate else 1)) * xp
        total += last if m % 2 else -last
        mag += np.abs(last)
        xp = xp * x2
        g *= s * (s + 1.0) / ((2 * m + 1.0) * (2 * m + 2.0))
    ratio = sup_coef * x2
    trunc = np.abs(last) * ratio / (1.0 - ratio)

    value = scale * total.astype(float)
    # a_k carries two roundings, which a_k^power amplifies by |power|.
    err = scale * trunc + _bound(
        value, scale * (1.0 + abs(power)) * mag.astype(float), n_terms)
    return value, err, n_terms * ts.size


def _unwrap(t, out):
    """A float for a scalar time t, else the array."""
    return float(out[0]) if np.ndim(t) == 0 else out


def _result(name: str, t, ts, value, err, terms: int, tol: float,
            theta: float = 1.0) -> QuadratureResult:
    """Scale by theta, enforce tol, and unwrap a scalar time."""
    value = value * theta
    err = err * abs(theta)
    bad = ~(np.isfinite(value) & (err <= tol))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureDivergence(
            f"{name} at t={ts[i]}: error bound {err[i]:.3e} > tol {tol:.3e} "
            f"after {terms} series terms")
    return QuadratureResult(_unwrap(t, value), _unwrap(t, err), True, terms)


def gamma(t, p: BathParams, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Decoherence kernel gamma(t); non-negative, gamma(0) = 0."""
    ts = _times(t)
    return _result("gamma", t, ts, *_thermal("gamma", ts, p, False), tol)


def gamma_rate(t, p: BathParams, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """d gamma / dt, by differentiating the series term by term."""
    ts = _times(t)
    return _result("gamma_rate", t, ts,
                   *_thermal("gamma_rate", ts, p, True), tol)


def _per_theta(name: str, term, power: float, t, theta: float,
               p: BathParams, tol: float) -> QuadratureResult:
    # The kernels are exactly linear in theta: evaluate per unit theta and
    # scale, so a theta sweep sees identical per-unit values.
    ts = _times(t)
    return _result(name, t, ts, *_single(name, term, power, ts, p), tol,
                   theta)


def omega_pt(t, theta: float, p: BathParams,
             tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Unbounded phase kernel Omega(t); sign(theta) for t > 0, linear in theta."""
    return _per_theta("omega_pt", _ramp_term, -p.mu, t, theta, p, tol)


def omega1(t, theta: float, p: BathParams,
           tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Bounded phase kernel Omega_1(t); linear in theta."""
    return _per_theta("omega1", _bounded_term, -p.mu, t, theta, p, tol)


def omega1_rate(t, theta: float, p: BathParams,
                tol: float = DEFAULT_TOL) -> QuadratureResult:
    """d Omega_1 / dt, linear in theta."""
    return _per_theta("omega1_rate", _rate_term, -p.mu - 1.0, t, theta, p,
                      tol)


def omega2(t, theta: float, p: BathParams):
    """Quadratic phase kernel Omega_2(t) = 2 theta t^2 * int J, closed form."""
    ts = _times(t)
    return _unwrap(t, 2.0 * theta * ts * ts * moment0(p))


def omega2_rate(t, theta: float, p: BathParams):
    """d Omega_2 / dt = 4 theta t * int J."""
    ts = _times(t)
    return _unwrap(t, 4.0 * theta * ts * moment0(p))
