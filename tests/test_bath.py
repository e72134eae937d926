import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import oracles
from conftest import CAPTION_BATH, count_evaluations
from nhqubit import bath
from nhqubit.bath import BathParams
from nhqubit.errors import DomainError, QuadratureDivergence

# Reference values frozen from the brute-force quadrature oracle
# (tests/oracles.py, 10^6 panels, panel-doubling error bounds < 2e-13).
GAMMA_T1 = 13.606317734925256
GAMMA_T5 = 242.83076658994509
OMEGA_PT_T2 = 2.607773280352296   # theta = 0.86
OMEGA1_T5 = 9.100553975756144     # theta = 0.86
GAMMA_COLD_T1 = 1.3993042955137338  # coth replaced by 1


class TestGamma:
    def test_frozen_oracle_values(self, caption_bath):
        for t, ref in ((1.0, GAMMA_T1), (5.0, GAMMA_T5)):
            res = bath.gamma(t, caption_bath)
            assert abs(res.value - ref) <= res.abs_error + 1e-12

    def test_zero_at_t0(self, caption_bath):
        res = bath.gamma(0.0, caption_bath)
        assert res.value == 0.0 and res.abs_error == 0.0

    def test_monotone_nonnegative(self, caption_bath):
        vals = [bath.gamma(t, caption_bath).value
                for t in np.linspace(0.0, 10.0, 41)]
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_zero_temperature_limit(self):
        # As beta grows, gamma approaches the coth -> 1 oracle value.
        ref = GAMMA_COLD_T1
        diffs = []
        for beta in (1e2, 1e3, 1e4):
            p = BathParams(j0=1.0, omega_c=1.0, mu=-0.5, beta=beta)
            diffs.append(abs(bath.gamma(1.0, p, tol=1e-6).value - ref))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-4

    def test_scaling_invariance(self, caption_bath):
        # omega_c -> s omega_c, beta -> beta/s, t -> t/s leaves gamma fixed.
        s = 3.7
        scaled = BathParams(j0=1.0, omega_c=s, mu=-0.5, beta=0.5 / s)
        for t in (0.5, 2.0, 7.0):
            a = bath.gamma(t, caption_bath)
            b = bath.gamma(t / s, scaled)
            assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-12

    def test_tolerance_halving(self, caption_bath):
        loose = bath.gamma(3.0, caption_bath, tol=1e-6)
        tight = bath.gamma(3.0, caption_bath, tol=5e-7)
        assert tight.abs_error <= 5e-7
        assert abs(loose.value - tight.value) <= (
            loose.abs_error + tight.abs_error
        )

    def test_rate_matches_finite_difference(self, caption_bath):
        h = 1e-4
        for t in (0.5, 2.0, 5.0):
            fd = (bath.gamma(t + h, caption_bath).value
                  - bath.gamma(t - h, caption_bath).value) / (2 * h)
            assert bath.gamma_rate(t, caption_bath).value == pytest.approx(
                fd, abs=1e-6 * max(abs(fd), 1.0)
            )

    def test_negative_time_rejected(self, caption_bath):
        with pytest.raises(DomainError):
            bath.gamma(-1.0, caption_bath)

    def test_budget_exhaustion_raises(self, caption_bath, monkeypatch):
        # Two times need more terms than the patched budget; tol = inf
        # leaves the budget as the only way to fail.
        monkeypatch.setattr(bath, "TERM_BUDGET", 50)
        bath.gamma(13.77, caption_bath, tol=np.inf)
        with pytest.raises(QuadratureDivergence, match="budget"):
            bath.gamma([1.0, 13.77], caption_bath, tol=np.inf)

    def test_term_budget_caps_the_grid(self):
        bath.check_terms("gamma", 1.0, 263_157)
        for n_points, terms in ((263_158, "1e+07"), (10**300, "3.8e+301"),
                                (10**400, "inf")):
            with pytest.raises(QuadratureDivergence) as exc:
                bath.check_terms("gamma", 1.0, n_points)
            assert str(exc.value) == (
                f"gamma up to t=1.0: {terms} series terms exceed the budget "
                "of 10000000")

    def test_terms_independent_of_horizon(self, caption_bath):
        short, long = (bath.gamma(np.linspace(0.0, t_max, 201), caption_bath,
                                  tol=np.inf) for t_max in (20.0, 1e6))
        assert short.evaluations == long.evaluations


class TestPhaseKernels:
    def test_omega_pt_frozen_value(self, caption_bath):
        res = bath.omega_pt(2.0, 0.86, caption_bath)
        assert abs(res.value - OMEGA_PT_T2) <= res.abs_error + 1e-12

    def test_omega1_frozen_value(self, caption_bath):
        res = bath.omega1(5.0, 0.86, caption_bath)
        assert abs(res.value - OMEGA1_T5) <= res.abs_error + 1e-12

    def test_theta_linearity_exact(self, caption_bath):
        for t in (0.5, 2.0, 10.0):
            one = bath.omega_pt(t, 0.43, caption_bath).value
            two = bath.omega_pt(t, 0.86, caption_bath).value
            assert two == 2.0 * one
            assert bath.omega_pt(t, 0.0, caption_bath).value == 0.0

    def test_omega_pt_positive_increasing(self, caption_bath):
        vals = [bath.omega_pt(t, 0.5, caption_bath).value
                for t in np.linspace(0.0, 8.0, 33)]
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals[1:])

    def test_omega_pt_negative_theta(self, caption_bath):
        assert bath.omega_pt(2.0, -0.86, caption_bath).value == -OMEGA_PT_T2 \
            or abs(bath.omega_pt(2.0, -0.86, caption_bath).value
                   + OMEGA_PT_T2) < 1e-8

    def test_omega1_rate_matches_finite_difference(self, caption_bath):
        h = 1e-4
        for t in (0.5, 3.0):
            fd = (bath.omega1(t + h, 0.86, caption_bath).value
                  - bath.omega1(t - h, 0.86, caption_bath).value) / (2 * h)
            got = bath.omega1_rate(t, 0.86, caption_bath).value
            assert got == pytest.approx(fd, abs=1e-6)


class TestKernels:
    THETAS = (0.0, 0.3, -0.86, 2.5)
    PUBLIC = {"omega_pt": bath.omega_pt, "omega1": bath.omega1,
              "omega1_rate": bath.omega1_rate}
    THERMAL = {"gamma": bath.gamma, "gamma_rate": bath.gamma_rate}

    @staticmethod
    def _assert_same(got, ref):
        assert np.array_equal(got.value, ref.value)
        assert np.array_equal(got.abs_error, ref.abs_error)
        assert got.evaluations == ref.evaluations

    def test_table_matches_public_kernels_bitwise(self, caption_bath):
        ts = np.linspace(0.0, 20.0, 201)
        table = bath.Kernels(ts, caption_bath)
        for name, public in self.PUBLIC.items():
            for theta in self.THETAS:
                self._assert_same(table(name, theta),
                                  public(ts, theta, caption_bath))
        for name, public in self.THERMAL.items():
            for _ in range(2):
                self._assert_same(getattr(table, name)(),
                                  public(ts, caption_bath))

    def test_each_kernel_evaluated_once(self, caption_bath, monkeypatch):
        calls = count_evaluations(monkeypatch)
        table = bath.Kernels(np.linspace(0.0, 20.0, 201), caption_bath)
        for _ in range(3):
            table.gamma(), table.gamma_rate()
            for name in self.PUBLIC:
                table(name, 0.86)
        assert calls == dict.fromkeys([*self.THERMAL, *self.PUBLIC], 1)

    def test_gamma_is_not_theta_scaled(self, caption_bath):
        table = bath.Kernels(np.linspace(0.0, 20.0, 11), caption_bath)
        for name in self.THERMAL:
            with pytest.raises(KeyError):
                table(name, 2.0)

    def test_gamma_tol_checked_per_read(self, caption_bath):
        # Every read checks the table's tol against the one evaluation.
        ts = np.linspace(0.0, 20.0, 201)
        loose = bath.Kernels(ts, caption_bath, np.inf)
        for name, public in self.THERMAL.items():
            tol = 0.5 * float(getattr(loose, name)().abs_error.max())
            read = getattr(bath.Kernels(ts, caption_bath, tol), name)
            for _ in range(2):
                with pytest.raises(QuadratureDivergence) as got:
                    read()
                with pytest.raises(QuadratureDivergence) as ref:
                    public(ts, caption_bath, tol)
                assert str(got.value) == str(ref.value)
                assert str(got.value).startswith(f"{name} at t=")
            self._assert_same(getattr(loose, name)(),
                              public(ts, caption_bath))

    def test_tighter_table_same_bits_or_the_public_error(self, caption_bath):
        # Reads whose bound meets the tighter tol give the default table's
        # bits; the others raise as the public kernel does at that tol.
        ts = np.linspace(0.0, 20.0, 201)
        default = bath.Kernels(ts, caption_bath, 1e-9)
        reads = [(name, ()) for name in self.THERMAL] + [
            (name, (theta,)) for name in self.PUBLIC for theta in self.THETAS]

        def read(table, name, args):
            return (getattr(table, name)() if name in self.THERMAL
                    else table(name, *args))

        bounds = sorted(float(read(default, name, args).abs_error.max())
                        for name, args in reads)
        tol = bounds[len(bounds) // 2]
        assert tol < 1e-9
        tight = bath.Kernels(ts, caption_bath, tol)
        passed = failed = 0
        for name, args in reads:
            public = {**self.THERMAL, **self.PUBLIC}[name]
            try:
                got = read(tight, name, args)
            except QuadratureDivergence as exc:
                with pytest.raises(QuadratureDivergence) as ref:
                    public(ts, *args, caption_bath, tol)
                assert str(exc) == str(ref.value)
                failed += 1
            else:
                self._assert_same(got, read(default, name, args))
                passed += 1
        assert passed and failed

    def test_tol_checked_after_theta_scaling(self, caption_bath):
        # A tol the unit-theta bound meets but 2.5 times it does not.
        ts = np.linspace(0.0, 20.0, 201)
        loose = bath.Kernels(ts, caption_bath, np.inf)
        for name, public in self.PUBLIC.items():
            unit = float(loose(name, 1.0).abs_error.max())
            tol = 1.5 * unit
            table = bath.Kernels(ts, caption_bath, tol)
            table(name, 1.0)
            with pytest.raises(QuadratureDivergence) as got:
                table(name, 2.5)
            with pytest.raises(QuadratureDivergence) as ref:
                public(ts, 2.5, caption_bath, tol)
            assert str(got.value) == str(ref.value)
            assert str(got.value).startswith(f"{name} at t=")
            assert f"> tol {tol:.3e}" in str(got.value)

    @pytest.mark.parametrize("name", ["omega_pt", "omega1", "omega1_rate"])
    def test_theta_beyond_float_range_raises(self, caption_bath, name):
        """A theta that scales a kernel out of the float range raises,
        naming the kernel, the time and theta, with no numpy warning and
        whatever the tol; in range the scaling keeps its bits."""
        ts = np.linspace(0.0, 20.0, 21)
        public = self.PUBLIC[name]
        for tol in (bath.DEFAULT_TOL, 1e300, np.inf):
            with pytest.raises(QuadratureDivergence) as got:
                public(ts, 1e308, caption_bath, tol)
            message = str(got.value)
            assert message.startswith(f"{name} at t=")
            assert "theta=1e+308" in message
            assert "floating-point range" in message
        unit = public(ts, 1.0, caption_bath, np.inf)
        big = public(ts, -1e300, caption_bath, np.inf)
        assert np.array_equal(big.value, unit.value * -1e300)
        assert np.array_equal(big.abs_error, unit.abs_error * 1e300)
        empty = public(np.array([]), 1e308, caption_bath)
        assert empty.value.shape == empty.abs_error.shape == (0,)


class TestOmega2:
    def test_closed_form_ohmic(self):
        # mu = 0: moment0 = Gamma(2) = 1, so Omega_2 = 2 theta t^2.
        p = BathParams(j0=1.0, omega_c=1.0, mu=0.0, beta=1.0)
        assert bath.moment0(p) == pytest.approx(1.0, abs=1e-15)
        assert bath.omega2(3.0, 0.5, p) == pytest.approx(9.0, abs=1e-12)

    def test_matches_quadrature_moment(self, caption_bath):
        # moment0 against a direct quadrature of J.
        from scipy.integrate import quad
        val, _ = quad(lambda w: bath.spectral_density(w, caption_bath),
                      0.0, 60.0, limit=200)
        assert bath.moment0(caption_bath) == pytest.approx(val, rel=1e-7)

    def test_rate(self, caption_bath):
        h = 1e-6
        t = 2.0
        fd = (bath.omega2(t + h, 0.86, caption_bath)
              - bath.omega2(t - h, 0.86, caption_bath)) / (2 * h)
        assert bath.omega2_rate(t, 0.86, caption_bath) == pytest.approx(
            fd, rel=1e-8
        )


KERNELS = [
    lambda p, t=1.0: bath.gamma(t, p),
    lambda p, t=1.0: bath.gamma_rate(t, p),
    lambda p, t=1.0: bath.omega_pt(t, 0.86, p),
    lambda p, t=1.0: bath.omega1(t, 0.86, p),
    lambda p, t=1.0: bath.omega1_rate(t, 0.86, p),
    lambda p, t=1.0: bath.omega2(t, 0.86, p),
    lambda p, t=1.0: bath.omega2_rate(t, 0.86, p),
]
KERNEL_IDS = ["gamma", "gamma_rate", "omega_pt", "omega1", "omega1_rate",
              "omega2", "omega2_rate"]


class TestSpecialFunctions:
    """The in-package exprel, and the prefactor's range checks."""

    def test_exprel(self):
        assert bath._exprel(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.uniform(-700.0, 700.0, 2000),
                            rng.uniform(-1e-3, 1e-3, 2000),
                            [1e-300, -1e-300, 5e-324]])
        ref = np.array([math.expm1(v) / v for v in x])
        assert np.all(np.abs(bath._exprel(x) - ref) <= 2 * np.spacing(ref))

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_prefactor_overflow_raises(self, kernel):
        with pytest.raises(QuadratureDivergence):
            kernel(BathParams(j0=1.0, omega_c=1.0, mu=172.0, beta=1000.0))

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_prefactor_underflow_raises(self, kernel):
        # 4 j0 omega_c^-mu Gamma(mu+1) underflows to 0 where a^-mu = 1e400
        # overflows; their product 8 is in range, yet cannot be formed.
        with pytest.raises(QuadratureDivergence, match="floating-point range"):
            kernel(BathParams(j0=1.0, omega_c=1e200, mu=2.0, beta=0.5))

    @pytest.mark.parametrize("kernel, t",
                             zip(KERNELS, [1e160] * 6 + [1e308]),
                             ids=KERNEL_IDS)
    def test_time_beyond_float_range_raises(self, kernel, t):
        # (t/a)^2 overflows for t/a > 1.3e154, and so does Omega_2's t^2;
        # its rate, linear in t, only near the largest float: an error,
        # not a warning.
        p = BathParams(j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5)
        with pytest.raises(QuadratureDivergence, match="floating-point range"):
            kernel(p, t)


    @pytest.mark.parametrize("kernel, name",
                             [*zip(KERNELS, KERNEL_IDS[:5]),
                              *zip(KERNELS[5:], ["moment0"] * 2),
                              (lambda p: bath.moment0(p), "moment0")],
                             ids=[*KERNEL_IDS, "moment0"])
    def test_lgamma_overflow_raises(self, kernel, name):
        """lgamma(mu + 1) overflows at mu = 1e308: every kernel, and
        moment0 under Omega_2, raises through the one float-range guard
        rather than leaking math's OverflowError."""
        p = BathParams(j0=1.0, omega_c=1.0, mu=1e308, beta=0.5)
        with pytest.raises(QuadratureDivergence) as info:
            kernel(p)
        assert str(info.value) == (f"{name}: math range error, outside the "
                                   "floating-point range")


def test_one_float_range_guard():
    """errors.float_range is the one place where numpy overflow raises."""
    package = Path(bath.__file__).parent
    hits = [path.name for path in sorted(package.glob("*.py"))
            for line in path.read_text().splitlines()
            if 'errstate(over="raise"' in line]
    assert hits == ["errors.py"]


class TestParams:
    @pytest.mark.parametrize("kw", [
        dict(j0=0.0), dict(j0=-1.0), dict(omega_c=0.0),
        dict(beta=0.0), dict(mu=-1.0), dict(mu=-1.5),
        dict(j0=math.inf), dict(omega_c=math.inf), dict(beta=math.inf),
        dict(mu=math.inf), dict(j0=math.nan), dict(mu=math.nan),
    ])
    def test_invalid_params(self, kw):
        base = dict(j0=1.0, omega_c=1.0, mu=-0.5, beta=0.5)
        base.update(kw)
        with pytest.raises(DomainError):
            BathParams(**base)

    def test_spectral_density_edges(self, caption_bath):
        assert bath.spectral_density(0.0, caption_bath) == 0.0
        with pytest.raises(DomainError):
            bath.spectral_density(-1.0, caption_bath)


@pytest.mark.parametrize("beta", [0.2, 0.5, 3.0, 1e4])
@pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5, 0.9])
def test_closed_forms_match_oracle_within_both_bounds(mu, beta):
    p = BathParams(j0=1.0, omega_c=1.0, mu=mu, beta=beta)
    ts = np.array([0.01, 1.0, 20.0, 300.0])
    # Each kernel per unit theta, keyed by the oracle integrand it matches;
    # tol = inf accepts any bound, which the oracle then checks.
    results = {
        "gamma": bath.gamma(ts, p, tol=np.inf),
        "phase_ramp": bath.omega_pt(ts, 1.0, p, tol=np.inf),
        "phase_bounded": bath.omega1(ts, 1.0, p, tol=np.inf),
        "dgamma": bath.gamma_rate(ts, p, tol=np.inf),
        "dphase_bounded": bath.omega1_rate(ts, 1.0, p, tol=np.inf),
    }
    for kind, res in results.items():
        for t, value, err in zip(ts, res.value, res.abs_error):
            # The oracle's panel-doubling estimate covers its rounding only
            # when the panels resolve sin(wt) well; at t = 300 that takes
            # its default 10^6 panels.
            ref, ref_err = oracles.brute_bath_integral(
                kind, float(t), mu=mu, beta=beta,
                n_panels=1_000_000 if t > 100 else 200_000)
            assert abs(value - ref) <= err + ref_err, (kind, t)


def _thermal_loop(ts, p, rate):
    """gamma (or d gamma/dt) value, bound and rounding magnitude on ts, one
    time and one Euler-Maclaurin correction at a time, summed in
    bath._SUM_DTYPE: the reference for the array passes of bath._thermal."""
    mu, a, beta = p.mu, 1.0 / p.omega_c, p.beta
    term = bath._rate_term if rate else bath._bounded_term
    power = -mu - 1.0 if rate else -mu
    n_direct, coefs = bath._N_DIRECT, bath._EM_COEF
    a_n = a + n_direct * beta
    scale = bath._prefactor("ref", p, 4.0, -mu, 1.0)
    integral = 2.0 * a_n**power * (a_n / beta)
    r = beta / a_n
    factors, f_n = [], 2.0 * a_n**power * (mu + 1.0) * r
    for j, coef in enumerate(coefs, start=1):
        factors.append((f_n / coef, 2 * j - 1))
        f_n *= (mu + 2 * j) * (mu + 2 * j + 1.0) * r * r
    n_last = 2 * len(coefs)
    remainder = (2.0 * abs(factors[-1][0]) * (mu + n_last)
                 / (n_last - 1.0 - power))
    values, errors, mags = [], [], []
    for t in ts:
        total = mag = bath._SUM_DTYPE(0.0)
        for k in range(n_direct + 1):
            a_k = a + k * beta
            w = (1.0 if k in (0, n_direct) else 2.0) * a_k**power
            f, m = term(np.array([t / a_k]), mu)
            total += w * f[0]
            mag += (1.0 + abs(power)) * w * m[0]
        x = np.array([t / a_n])
        f, m = bath._integral_term(x, mu, rate)
        total += integral * f[0]
        mag += (1.0 + abs(power + 1.0)) * integral * m[0]
        for factor, n in factors:
            f, m = term(x, mu + n)
            total += factor * f[0]
            mag += (1.0 + abs(power) + n) * abs(factor) * m[0]
        v = scale * float(total)
        values.append(v)
        mags.append(scale * float(mag))
        errors.append(scale * remainder * (t > 0)
                      + bath._bound(v, scale * float(mag), bath._TERMS))
    return np.array(values), np.array(errors), np.array(mags)


@pytest.mark.parametrize("beta", [0.05, 0.5, 1e4])
@pytest.mark.parametrize("mu", [-0.9, 0.0, 0.5, 1.0, 2.5])
def test_thermal_matches_per_correction_loop(mu, beta):
    p = BathParams(j0=1.0, omega_c=1.0, mu=mu, beta=beta)
    # More times than one block of the array pass holds, and long times.
    ts = np.concatenate([np.linspace(0.0, 40.0, 1801), [300.0, 1e4]])
    for rate, kernel in ((False, bath.gamma), (True, bath.gamma_rate)):
        res = kernel(ts, p, tol=np.inf)
        idx = np.r_[0:40, 1760:1803]
        value, err, mag = _thermal_loop(ts[idx], p, rate)
        # The two sums add the same terms in different orders in
        # bath._SUM_DTYPE, so they may differ by that rounding of the terms'
        # magnitude, and their rounding to double by one unit more.
        order = 2 * bath._TERMS * bath._SUM_EPS * mag + np.spacing(abs(value))
        assert np.all(np.abs(res.value[idx] - value)
                      <= 1e-3 * res.abs_error[idx] + order), rate
        assert np.allclose(res.abs_error[idx], err, rtol=1e-12, atol=0.0)


def _hurwitz_reference(t, mu, beta, rate):
    """gamma(t) (or d gamma/dt) at j0 = omega_c = 1 from mpmath's Hurwitz
    zeta with a complex shift, z = 1 - i t, at 60 digits:

        4 Gamma(mu+1)/mu {2 beta^-mu [zeta(mu, 1/beta) - Re zeta(mu, z/beta)]
                          - (1 - Re z^-mu)}

    and its t-derivative 4 Gamma(mu+1) {2 beta^(-mu-1) Im zeta(mu+1, z/beta)
    - Im z^(-mu-1)}.  Both are analytic in mu; at the removable
    singularities mu = 0 and 1 they are taken 1e-30 away."""
    with mpmath.workdps(60):
        m = mpmath.mpf(mu) + (mpmath.mpf("1e-30") if mu in (0.0, 1.0) else 0)
        b, z = mpmath.mpf(beta), 1 - 1j * mpmath.mpf(t)
        c = 4 * mpmath.gamma(m + 1)
        if rate:
            return float(c * (2 * b ** (-m - 1)
                              * mpmath.im(mpmath.zeta(m + 1, z / b))
                              - mpmath.im(z ** (-m - 1))))
        return float(c / m * (2 * b**-m * (mpmath.zeta(m, 1 / b)
                                           - mpmath.re(mpmath.zeta(m, z / b)))
                              - (1 - mpmath.re(z**-m))))


def _assert_matches_hurwitz(p, ts):
    for rate, kernel in ((False, bath.gamma), (True, bath.gamma_rate)):
        res = kernel(ts, p, tol=np.inf)
        for t, value, err in zip(ts, res.value, res.abs_error):
            ref = _hurwitz_reference(t, p.mu, p.beta, rate)
            assert abs(value - ref) <= err, (rate, t, value, ref, err)


@pytest.mark.parametrize("beta", [0.05, 0.2])
@pytest.mark.parametrize("mu", [-0.5, 0.5, 0.9])
def test_long_times_match_hurwitz_zeta(mu, beta):
    _assert_matches_hurwitz(BathParams(j0=1.0, omega_c=1.0, mu=mu, beta=beta),
                            np.array([300.0, 1e3, 1e4]))


@pytest.mark.parametrize("mu", [0.0, 1e-12, -1e-12, 1e-6, 0.4999, 0.5,
                                1.0 - 1e-6, 1.0, 1.0 + 1e-6])
def test_removable_poles_match_hurwitz_zeta(mu):
    """The Euler-Maclaurin integral switches form at mu = 1/2 to avoid the
    poles of (Re z^(1-mu) - a^(1-mu))/(mu (1-mu)) at mu = 0 and 1."""
    _assert_matches_hurwitz(BathParams(j0=1.0, omega_c=1.0, mu=mu, beta=0.5),
                            np.array([0.5, 20.0, 300.0]))


class TestOracleSelfConsistency:
    def test_probe_grid_agreement(self, caption_bath):
        for t in np.linspace(0.5, 10.0, 5):
            ref, err = oracles.brute_gamma(float(t), n_panels=200_000)
            res = bath.gamma(float(t), caption_bath)
            assert abs(res.value - ref) <= res.abs_error + err + 1e-13

    def test_small_t_expansion(self):
        # mu = 0, beta large, small t: gamma ~ 2 t^2 * int J = 2 t^2.
        ref, _ = oracles.brute_gamma(0.01, mu=0.0, beta=50.0,
                                     n_panels=100_000)
        assert ref == pytest.approx(2.0 * 0.01**2, rel=0.01)
