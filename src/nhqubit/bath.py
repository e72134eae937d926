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

The removable pole of Gamma(mu) at mu = 0 is avoided by writing
Gamma(mu)(a^-mu - z^-mu) as -Gamma(mu+1) a^-mu expm1(-mu log(z/a))/mu in
real arithmetic; exprel(x) = expm1(x)/x is exactly 1 at x = 0.

coth(beta w/2) = 1 + 2 sum_k exp(-k beta w) turns gamma into the same
bracket summed over a_k = a + k beta with weight 2 - delta_k0; d gamma/dt
is the term-by-term derivative.  Each summand is f(k) = a_k^p term(t/a_k,
mu), and f^(n)(k) = (-1)^n (mu+1)_n beta^n a_k^(p-n) term(t/a_k, mu+n).
Terms k < N = 24 are summed directly and the rest by Euler-Maclaurin
(DLMF 2.10.1; Johansson, Numer. Algorithms 69, 253 (2015)): f(N)/2, the
integral from N in closed form without poles at mu = 0 or 1, and 12
Bernoulli corrections, with the remainder bounded through |z_k| >= a_k.
Every time thus costs 38 terms, whatever the horizon.

Every kernel takes a float or a 1-D array of times and returns a
QuadratureResult whose abs_error is the series-truncation bound plus a
floating-point rounding bound built from the magnitudes of the terms.
A kernel whose bound exceeds tol, a grid over TERM_BUDGET series terms, or
out-of-range arithmetic (errors.float_range) raises QuadratureDivergence.

A Kernels table holds gamma, d gamma/dt and the three theta-linear kernels
of one bath on one grid at one tol, each evaluated at most once per table,
and checks that tol on every read.  Each public kernel is a one-shot table,
so a shared table and a public call give the same result bit for bit.

The k-sums run in np.longdouble, so values and bounds depend on the
platform: where longdouble is double (Windows, macOS on ARM), float64 sums
move the caption values by at most 2.5e-16 relative and make their bound
3.4 times larger (4.69e-11 to 1.57e-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureDivergence, float_range

# The numeric path, as recorded in run manifests.
BACKEND = "numpy"
DEFAULT_TOL = 1e-9
# Series terms (38 per time) a single kernel call may sum.
TERM_BUDGET = 10_000_000

_EPS = float(np.finfo(float).eps)
_FLOAT_MAX = float(np.finfo(float).max)
_LOG_MAX = math.log(_FLOAT_MAX)
_SUM_DTYPE = np.longdouble
_SUM_EPS = float(np.finfo(_SUM_DTYPE).eps)
# Rounding of one term, in units of eps of its magnitude: about ten
# correctly rounded operations.  The magnitudes carry the condition
# numbers: an argument y with relative error d moves exp(y) by |y| d
# relatively and cos y, sin y by |y| d absolutely.
_TERM_ULPS = 16.0

# The thermal k-sum: direct terms k < _N_DIRECT, then Euler-Maclaurin with
# one correction per coefficient (2j)!/B_2j, j = 1..12.
_N_DIRECT = 24
_EM_COEF = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
# Per time: the direct terms, f(N)/2, the integral and the corrections.
_TERMS = _N_DIRECT + 2 + len(_EM_COEF)
# (term, t) pairs evaluated per block of the sum; bounds peak memory.
_BLOCK = 1 << 16


def _exprel(x):
    """(exp(x) - 1)/x over an array, exactly 1 at x = 0."""
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)


@dataclass(frozen=True)
class BathParams:
    """Spectral density and temperature parameters.

    j0: coupling amplitude, omega_c: cutoff frequency, mu: spectral
    exponent (> -1 or the gamma integrand diverges at w -> 0), beta:
    inverse temperature; all finite.
    """

    j0: float
    omega_c: float
    mu: float
    beta: float

    def __post_init__(self):
        for name, low in (("j0", 0), ("omega_c", 0), ("beta", 0), ("mu", -1)):
            if not low < (value := getattr(self, name)) < math.inf:
                raise DomainError(
                    f"{name} must exceed {low} and be finite, got {value}")


@dataclass(frozen=True)
class QuadratureResult:
    """A kernel's value with its absolute error bound, per time for an
    array of times; evaluations counts the series terms summed."""

    value: float | np.ndarray
    abs_error: float | np.ndarray
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
               shift: float, *log_factors: float) -> float:
    """factor j0 omega_c^power Gamma(mu + shift), or QuadratureDivergence
    where it, a series factor exp(l) for l in log_factors, or their product
    leaves the floating-point range; checked in logs before any array is
    built, since the prefactor underflows where a factor overflows."""
    try:
        value = factor * p.j0 * p.omega_c**power * math.gamma(p.mu + shift)
    except OverflowError:
        value = math.inf
    log_value = (math.log(factor * p.j0) + power * math.log(p.omega_c)
                 + math.lgamma(p.mu + shift))
    # A nan (0 times an infinite log) fails too.
    if not (math.isfinite(value) and all(
            log_f <= _LOG_MAX and log_value + log_f <= _LOG_MAX
            for log_f in log_factors)):
        raise QuadratureDivergence(
            f"{name}: the prefactor {factor:g} j0 omega_c^{power:.4g} "
            f"Gamma({p.mu + shift:.4g}), or its product with a series "
            f"factor, leaves the floating-point range (j0 = {p.j0:.4g}, "
            f"omega_c = {p.omega_c:.4g}, beta = {p.beta:.4g})")
    return value


def moment0(p: BathParams) -> float:
    """int_0^inf J(w) dw = j0 * omega_c^2 * Gamma(2 + mu), in closed form."""
    with float_range(QuadratureDivergence, "moment0"):
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
    """log|1 - i x| and -arg(1 - i x), accurate for small x: the polar
    argument of the term functions, passed where the caller has it."""
    return 0.5 * np.log1p(x * x), np.arctan(x)


def _bounded_term(x, mu, polar=None):
    """Gamma(mu)(1 - Re (1 - i x)^-mu) / Gamma(mu+1) and its rounding
    magnitude: the (1 - cos wt) kernels at a = 1, t = x."""
    rho, phi = _log_and_angle(x) if polar is None else polar
    e, y = mu * rho, mu * phi
    u = rho * _exprel(-e)
    v = 0.5 * mu * (phi * np.sinc(y / (2.0 * np.pi))) ** 2
    c = np.cos(y)
    # An error d in y moves cos y by |y sin y| d <= min(|y|, y^2) d.
    mag = (u * ((1.0 + np.abs(e)) * np.abs(c) + np.minimum(np.abs(y), y * y))
           + 0.5 * np.abs(mu) * phi * phi)
    return u * c + v, mag


def _rate_term(x, mu, polar=None):
    """Im (1 - i x)^(-mu-1) and its rounding magnitude: the sin(wt)
    kernels."""
    rho, phi = _log_and_angle(x) if polar is None else polar
    e, y = (mu + 1.0) * rho, (mu + 1.0) * phi
    r = np.exp(-e)
    sin = np.sin(y)
    return r * sin, r * ((1.0 + e) * np.abs(sin) + np.abs(y))


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


def _in_range(kernel):
    """kernel(name, ...) under float_range, as for t/a beyond 1e154 or
    lgamma(mu + 1) at mu = 1e308."""
    def checked(name, *args):
        with float_range(QuadratureDivergence, name):
            return kernel(name, *args)
    return checked


@_in_range
def _single(name: str, term, power: float, ts, p: BathParams):
    """c Gamma(mu+1) a^power term(t/a): one Gamma-function integral."""
    a = 1.0 / p.omega_c
    scale = _prefactor(name, p, 4.0, -p.mu, 1.0,
                       power * math.log(a)) * a**power
    value, mag = term(ts / a, p.mu)
    value = scale * value
    # a carries one rounding, which a^power amplifies by |power|.
    return value, _bound(value, scale * (1.0 + abs(power)) * mag, 1), ts.size


def check_terms(name: str, t_max: float, n_points: int) -> None:
    """QuadratureDivergence where gamma on n_points times up to t_max would
    sum more than TERM_BUDGET series terms, checked before allocating."""
    terms = _TERMS * n_points
    if terms > TERM_BUDGET:
        count = terms if terms <= _FLOAT_MAX else math.inf
        raise QuadratureDivergence(
            f"{name} up to t={t_max}: {count:.4g} series terms exceed the "
            f"budget of {TERM_BUDGET}")


def _integral_term(x, mu, rate: bool, polar=None):
    """int_1^inf s^p term(x/s, mu) ds, the Euler-Maclaurin integral at
    a_N = 1 (p = -mu, or -mu-1 for the rate), and its rounding magnitude.
    gamma's is (Re (1 - i x)^(1-mu) - 1)/(mu (1-mu)), written without the
    pole at mu = 0 for mu >= 1/2 and without the one at mu = 1 below."""
    if polar is None:
        polar = _log_and_angle(x)
    if not rate and mu >= 0.5:
        f, m = _bounded_term(x, mu - 1.0, polar)
        return f / mu, m / mu
    # Im (1 - i x)^-mu / mu, as in _ramp_term.
    rho, phi = polar
    e, y = mu * rho, mu * phi
    s = np.exp(-e) * phi
    sinc = np.sinc(y / np.pi)
    im = s * sinc
    # A relative error d in y moves sinc by |cos y - sinc| d.
    im_mag = (1.0 + np.abs(e)) * np.abs(im) + s * np.abs(np.cos(y) - sinc)
    if rate:
        return im, im_mag
    f, m = _bounded_term(x, mu, polar)
    return (x * im - f) / (1.0 - mu), (x * im_mag + m) / (1.0 - mu)


@_in_range
def _thermal(name: str, ts, p: BathParams, rate: bool):
    """gamma(t) (rate=False) or d gamma/dt (rate=True) on the times ts."""
    check_terms(name, float(ts.max()) if ts.size else 0.0, ts.size)
    mu, a, beta = p.mu, 1.0 / p.omega_c, p.beta
    term = _rate_term if rate else _bounded_term
    power = -mu - 1.0 if rate else -mu
    a_n = a + _N_DIRECT * beta
    # a_k^power is monotone in k, so its extremes are at k = 0 and k = N.
    scale = _prefactor(name, p, 4.0, -p.mu, 1.0, power * math.log(a),
                       power * math.log(a_n),
                       power * math.log(a_n) + math.log(a_n / beta))

    # Direct terms k <= N with weights 1, 2, ..., 2, 1: k = N is the
    # Euler-Maclaurin f(N)/2, doubled like every k > 0.
    k = np.arange(_N_DIRECT + 1)
    a_k = a + k * beta
    weight = np.where((k == 0) | (k == _N_DIRECT), 1.0, 2.0) * a_k**power
    # The integral int_N^inf f(k) dk, doubled.
    integral = 2.0 * a_n**power * (a_n / beta)
    # Correction j, doubled: (mu+1)_n (beta/a_N)^n a_N^power/coef_j times
    # term(t/a_N, mu+n), n = 2j - 1.
    r = beta / a_n
    f_n = 2.0 * a_n**power * (mu + 1.0) * r
    factor = np.empty(len(_EM_COEF))
    for j, coef in enumerate(_EM_COEF, start=1):
        factor[j - 1] = f_n / coef
        f_n *= (mu + 2 * j) * (mu + 2 * j + 1.0) * r * r
    n = np.arange(1, 2 * len(_EM_COEF), 2)
    # Remainder: |term(x, mu+2P)| <= 2 and int_N^inf a_k^(power-2P) dk, with
    # the last correction's factor carrying (mu+1)_(2P-1) (beta/a_N)^(2P-1).
    n_last = 2 * len(_EM_COEF)
    remainder = (2.0 * abs(factor[-1]) * (mu + n_last)
                 / (n_last - 1.0 - power))

    # One column per direct term and per correction: term(t/a_col, mu_col)
    # weighted in value and in rounding magnitude.  The corrections and the
    # integral share x = t/a_N with k = N, so the log and angle of x are
    # evaluated on the distinct columns k <= N only.  a_k carries two
    # roundings, which a_k^power amplifies by |power|; (mu+1)_n (beta/a_N)^n
    # adds n more.
    col = np.concatenate([k, np.full(n.size, _N_DIRECT)])
    mu_col = np.concatenate([np.full(k.size, mu), mu + n])
    w_val = np.concatenate([weight, factor])
    w_mag = np.concatenate([(1.0 + abs(power)) * weight,
                            (1.0 + abs(power) + n) * np.abs(factor)])

    value = np.empty(ts.size)
    err = np.empty(ts.size)
    rows = _BLOCK // col.size
    for i in range(0, ts.size, rows):
        t = ts[i:i + rows]
        x = t[:, None] / a_k
        rho, phi = _log_and_angle(x)
        # take keeps the rows contiguous (x[:, col] would not), which the
        # row sums below need to round as a direct evaluation does.
        x_c, rho_c, phi_c = (np.take(q, col, axis=1) for q in (x, rho, phi))
        f, m = term(x_c, mu_col, (rho_c, phi_c))
        total = np.sum(f * w_val, axis=1, dtype=_SUM_DTYPE)
        mag = np.sum(m * w_mag, axis=1, dtype=_SUM_DTYPE)
        f, m = _integral_term(x[:, -1], mu, rate, (rho[:, -1], phi[:, -1]))
        total += integral * f
        # a_N^power (a_N/beta) amplifies a_N's roundings by |power + 1|.
        mag += (1.0 + abs(power + 1.0)) * integral * m
        v = scale * total.astype(float)
        err[i:i + rows] = scale * remainder * (t > 0) + _bound(
            v, scale * mag.astype(float), _TERMS)
        value[i:i + rows] = v
    return value, err, _TERMS * ts.size


def _unwrap(t, out):
    """A float for a scalar time t, else the array."""
    return float(out[0]) if np.ndim(t) == 0 else out


def _result(name: str, t, ts, value, err, terms: int, tol: float,
            theta: float = 1.0) -> QuadratureResult:
    """Scale by theta, enforce tol, and unwrap a scalar time.
    QuadratureDivergence where the scaled value or bound would leave the
    floating-point range; the peak decides, so in range nothing else is
    checked."""
    if abs(theta) > 1.0 and value.size:
        scale = abs(theta)
        if not (math.isfinite(float(np.abs(value).max()) * scale)
                and math.isfinite(float(err.max()) * scale)):
            with np.errstate(over="ignore", invalid="ignore"):
                out = ~(np.isfinite(value * scale) & np.isfinite(err * scale))
            i = int(np.argmax(out))
            raise QuadratureDivergence(
                f"{name} at t={ts[i]}: theta={theta:g} times the unit-theta "
                f"value {value[i]:.3e} (error bound {err[i]:.3e}) leaves "
                f"the floating-point range")
    value = value * theta
    err = err * abs(theta)
    bad = ~(np.isfinite(value) & (err <= tol))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureDivergence(
            f"{name} at t={ts[i]}: error bound {err[i]:.3e} > tol {tol:.3e} "
            f"after {terms} series terms")
    return QuadratureResult(_unwrap(t, value), _unwrap(t, err), terms)


# The theta-linear kernels: their series term, and the power of a as an
# offset from -mu.
_THETA_LINEAR = {
    "omega_pt": (_ramp_term, 0.0),
    "omega1": (_bounded_term, 0.0),
    "omega1_rate": (_rate_term, -1.0),
}


class Kernels:
    """gamma, d gamma/dt, omega_pt, omega1 and omega1_rate of one bath on
    one time grid, each evaluated on first use, at most once per table.

    The table keeps each kernel's raw value, bound and series terms, and
    every read checks the table's tol afresh.  The theta-linear kernels,
    read through table(name, theta), are held per unit theta and each read
    scales the value by theta and the bound by |theta| before the check.
    Each result is the public kernel's at the same tol, bit for bit.  The
    table keeps its own read-only copy of the grid, so a caller that
    changes its array later changes no kernel, time or grid check.
    """

    def __init__(self, t, p: BathParams, tol: float = DEFAULT_TOL):
        self.ts = _times(t).copy()
        self.ts.flags.writeable = False
        # A scalar t stays a scalar, whose results unwrap to floats.
        self.t = self.ts if np.ndim(t) else float(self.ts[0])
        self.p, self.tol = p, tol
        self._raw = {}

    def _read(self, name: str, theta: float = 1.0) -> QuadratureResult:
        if name not in self._raw:
            if name in _THETA_LINEAR:
                term, shift = _THETA_LINEAR[name]
                raw = _single(name, term, shift - self.p.mu, self.ts, self.p)
            else:
                raw = _thermal(name, self.ts, self.p, name == "gamma_rate")
            self._raw[name] = raw
        return _result(name, self.t, self.ts, *self._raw[name], self.tol,
                       theta)

    def gamma(self) -> QuadratureResult:
        return self._read("gamma")

    def gamma_rate(self) -> QuadratureResult:
        return self._read("gamma_rate")

    def __call__(self, name: str, theta: float) -> QuadratureResult:
        if name not in _THETA_LINEAR:
            raise KeyError(f"{name!r} is not a theta-linear kernel")
        return self._read(name, theta)


def gamma(t, p: BathParams, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Decoherence kernel gamma(t); non-negative, gamma(0) = 0."""
    return Kernels(t, p, tol).gamma()


def gamma_rate(t, p: BathParams, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """d gamma / dt, by differentiating the series term by term."""
    return Kernels(t, p, tol).gamma_rate()


def omega_pt(t, theta: float, p: BathParams,
             tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Unbounded phase kernel Omega(t); sign(theta) for t > 0, linear in theta."""
    return Kernels(t, p, tol)("omega_pt", theta)


def omega1(t, theta: float, p: BathParams,
           tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Bounded phase kernel Omega_1(t); linear in theta."""
    return Kernels(t, p, tol)("omega1", theta)


def omega1_rate(t, theta: float, p: BathParams,
                tol: float = DEFAULT_TOL) -> QuadratureResult:
    """d Omega_1 / dt, linear in theta."""
    return Kernels(t, p, tol)("omega1_rate", theta)


@_in_range
def _omega2(name: str, ts, theta: float, p: BathParams, rate: bool):
    """Omega_2 (rate=False) or d Omega_2/dt (rate=True) on the times ts."""
    if rate:
        return 4.0 * theta * ts * moment0(p)
    return 2.0 * theta * ts * ts * moment0(p)


def omega2(t, theta: float, p: BathParams):
    """Quadratic phase kernel Omega_2(t) = 2 theta t^2 * int J, closed form."""
    return _unwrap(t, _omega2("omega2", _times(t), theta, p, False))


def omega2_rate(t, theta: float, p: BathParams):
    """d Omega_2 / dt = 4 theta t * int J."""
    return _unwrap(t, _omega2("omega2_rate", _times(t), theta, p, True))
