import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CAPTION_APT, CAPTION_PT, count_calls, random_state
from nhqubit import bath, entropy
from nhqubit.dynamics import evolve, evolve_apt
from nhqubit.errors import DomainError
from nhqubit.linalg2 import DensityMatrix, eigenvalue_pair


def state_with_eigenvalues(lo, hi):
    return DensityMatrix(p1=hi, p2=lo, c=0.0j)


class TestRenyi:
    def test_collision_entropy_frozen_value(self):
        # lambda = (0.9, 0.1), q = 2: -log(0.81 + 0.01) = -log 0.82
        rho = state_with_eigenvalues(0.1, 0.9)
        assert entropy.renyi(rho, 2.0) == pytest.approx(
            -math.log(0.82), abs=1e-12
        )
        assert abs(entropy.renyi(rho, 2.0) - 0.198451) < 1e-6

    def test_q_one_dispatches_to_von_neumann(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_state(rng)
            lo, hi = eigenvalue_pair(rho.p1, rho.p2, rho.c)
            assert entropy.renyi(rho, 1.0) == max(
                -entropy._xlogx(lo) - entropy._xlogx(hi), 0.0)

    def test_continuity_at_q_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rho = random_state(rng)
            s1 = entropy.renyi(rho, 1.0)
            below = entropy.renyi(rho, 1.0 - 1e-6)
            above = entropy.renyi(rho, 1.0 + 1e-6)
            assert abs(below - s1) < 1e-4
            assert abs(above - s1) < 1e-4
            assert above <= s1 + 1e-12 <= below + 2e-12

    def test_nonpositive_order_rejected(self):
        rho = DensityMatrix.plus()
        for q in (-1.0, math.nan):
            with pytest.raises(DomainError, match="non-negative"):
                entropy.renyi(rho, q)

    def test_zero_order_matches_series(self, caption_bath):
        traj = evolve_apt(CAPTION_APT, caption_bath,
                          np.linspace(0.0, 5.0, 21))
        table = entropy.entropy_series(traj, [0.0])
        for s, s0 in zip(traj.dephasing_states(), table[0.0]):
            assert entropy.renyi(s, 0) == s0

    def test_pure_state_all_orders_zero(self):
        rho = DensityMatrix.plus()
        for q in (0.5, 1.0, 2.0, 7.0, math.inf):
            assert entropy.renyi(rho, q) == 0.0

    def test_maximally_mixed(self):
        rho = state_with_eigenvalues(0.5, 0.5)
        for q in (0.5, 1.0, 2.0, math.inf):
            assert entropy.renyi(rho, q) == pytest.approx(math.log(2.0))

    def test_decreasing_in_q(self):
        rng = np.random.default_rng(13)
        orders = (0.5, 1.0, 2.0, 5.0, math.inf)
        for _ in range(200):
            rho = random_state(rng)
            vals = [entropy.renyi(rho, q) for q in orders]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestRenyiLargeOrder:
    """hi^q + lo^q underflows to 0 from q of about 1075 at hi = 1/2; the
    entropies stay finite and fall towards S_inf."""

    LARGE = (1100.0, 5000.0, 1e6)

    @pytest.mark.parametrize("q", LARGE)
    def test_maximally_mixed_is_log_2(self, q):
        rho = DensityMatrix(p1=0.5, p2=0.5, c=0.0)
        assert entropy.renyi(rho, q) == pytest.approx(math.log(2.0),
                                                      abs=1e-15)

    def test_finite_decreasing_towards_min_entropy(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            rho = random_state(rng)
            s_inf = entropy.renyi(rho, math.inf)
            previous = entropy.renyi(rho, 2.0)
            for q in self.LARGE:
                s_q = entropy.renyi(rho, q)
                assert math.isfinite(s_q)
                assert s_q <= previous + 1e-12
                # S_q - S_inf = (log hi + log1p((lo/hi)^q))/(1 - q), and
                # both logs lie in [-log 2, log 2].
                assert abs(s_q - s_inf) <= math.log(2.0) / (q - 1.0) + 1e-12
                previous = s_q


class TestRenyiNearOrderOne:
    """Orders with 0 < |q - 1| < NEAR_ONE take the expm1 form, which keeps
    its digits as q tends to 1; the general form divided an error of about
    one ulp by |1 - q|, up to 6.2e-8 on this grid."""

    ORDERS = (1 + 2e-5, 1 - 2e-5, 1 + 3e-6, 1 - 3e-6, 1 + 1e-9, 1.001,
              0.999, 1.1, 2.0, 0.5)
    LOWS = (0.5, 0.3, 0.1, 1e-3, 1e-8, 0.0)

    @staticmethod
    def reference(q: float, lo: float, hi: float):
        """S_q of the eigenvalues (lo, hi) renormalised to unit sum, in
        50-digit arithmetic."""
        with mpmath.workdps(50):
            lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            total = lo + hi
            lo, hi = lo / total, hi / total
            return mpmath.log(hi**q + (lo**q if lo else 0)) / (1 - q)

    @pytest.mark.parametrize("q", ORDERS)
    def test_against_mpmath(self, q):
        lo = np.array(self.LOWS)
        got = entropy._spectral_entropy(lo, 1.0 - lo, q)
        eps = np.finfo(float).eps
        for value, low in zip(got, self.LOWS):
            want = self.reference(q, low, 1.0 - low)
            # A few ulp of ln 2, the largest S_q; relative to S_q itself
            # on the expm1 form, down to S_q of about 1e-8 at lo = 1e-8.
            assert abs(value - want) <= 4 * eps
            if abs(q - 1.0) < entropy.NEAR_ONE:
                assert abs(value - want) <= 4 * eps * abs(want)

    def test_maximally_mixed_is_log_2(self):
        half = np.array([0.5])
        for q in self.ORDERS:
            assert entropy._spectral_entropy(half, half, q)[0] == math.log(2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lo=st.floats(0.0, 0.5), q=st.floats(0.25, 1.75),
           r=st.floats(0.25, 1.75))
    @example(lo=0.5, q=1.0, r=1.00002)  # S_1.00002 was ln 2 + 1.45e-12
    @example(lo=1e-3, q=1.5 - 1e-12, r=1.5)
    @example(lo=1e-3, q=0.5, r=0.5 + 1e-12)
    def test_non_increasing_and_lipschitz_across_the_switch(self, lo, q, r):
        """S_q is non-increasing in q, to rounding, across q = 1 and the
        band edges 0.5 and 1.5, and |S_q - S_1| <= |q - 1| / 2 (the
        largest |dS_q/dq| over q in [0.25, 1.75] is 0.43)."""
        low, high = np.array([lo]), np.array([1.0 - lo])
        q, r = min(q, r), max(q, r)
        s_q, s_r, s_1 = (entropy._spectral_entropy(low, high, order)[0]
                         for order in (q, r, 1.0))
        slack = 4 * np.finfo(float).eps
        assert s_r <= s_q + slack
        assert abs(s_q - s_1) <= 0.5 * abs(q - 1.0) + slack


class TestRenyi0:
    def test_rank_counting(self):
        assert entropy.renyi(DensityMatrix.plus(), 0) == 0.0
        assert entropy.renyi(state_with_eigenvalues(0.3, 0.7),
                             0) == math.log(2)

    def test_rank_tolerance_edge(self):
        eps = 1e-13  # below RANK_TOL: does not count toward the rank
        rho = state_with_eigenvalues(eps, 1.0 - eps)
        assert entropy.renyi(rho, 0) == 0.0
        rho = state_with_eigenvalues(1e-11, 1.0 - 1e-11)
        assert entropy.renyi(rho, 0) == math.log(2)


class TestVonNeumann:
    def test_closed_form_frozen_value(self):
        # D = 0.5: log 2 - 0.5*1.5*log 1.5 - 0.5*0.5*log 0.5
        ref = (math.log(2.0) - 0.75 * math.log(1.5)
               - 0.25 * math.log(0.5))
        assert entropy.von_neumann_closed_form(0.5) == pytest.approx(
            ref, abs=1e-15
        )
        # same thing through the eigenvalue route: -0.75 ln 0.75 - 0.25 ln 0.25
        assert abs(ref - 0.5623351446188083) < 1e-15

    def test_closed_form_equals_eigen_route(self):
        for d in (0.0, 0.1, 0.5, 0.9, 1.0):
            rho = DensityMatrix(p1=0.5, p2=0.5, c=0.5 * d + 0.0j)
            assert entropy.renyi(rho, 1) == pytest.approx(
                entropy.von_neumann_closed_form(d), abs=1e-12
            )

    def test_closed_form_domain(self):
        for d in (-0.1, 1.1):
            with pytest.raises(DomainError):
                entropy.von_neumann_closed_form(d)

    def test_closed_form_limits(self):
        assert entropy.von_neumann_closed_form(1.0) == 0.0
        assert entropy.von_neumann_closed_form(0.0) == pytest.approx(
            math.log(2.0)
        )


class TestRenyiInf:
    def test_frozen_value(self):
        rho = state_with_eigenvalues(0.25, 0.75)
        assert entropy.renyi(rho, math.inf) == pytest.approx(
            -math.log(0.75), abs=1e-12
        )
        assert abs(entropy.renyi(rho, math.inf) - 0.287682) < 1e-6


class TestHierarchy:
    def test_random_states(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            rho = random_state(rng)
            s0, s1, s2, sinf = (entropy.renyi(rho, q)
                                for q in (0, 1, 2, math.inf))
            assert s0 >= s1 - 1e-10
            assert s1 >= s2 - 1e-10
            assert s2 >= sinf - 1e-10


class TestSeries:
    def test_orders_and_shapes(self, caption_bath):
        traj = evolve_apt(CAPTION_APT, caption_bath,
                          np.linspace(0.0, 5.0, 21))
        table = entropy.entropy_series(traj, (0, 1, 2, math.inf))
        assert set(table) == {0, 1, 2, math.inf}
        for vals in table.values():
            assert vals.shape == (21,)
        # dephasing only ever mixes the state further
        assert np.all(np.diff(table[1]) > 0)
        assert table[0][0] == 0.0
        assert np.all(table[0][1:] == math.log(2.0))

    def test_one_spectrum_per_call(self, caption_bath, monkeypatch):
        orders = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 5.5, 6.0,
                  math.inf]
        table = bath.Kernels(np.linspace(0.0, 20.0, 301), caption_bath)
        trajs = [evolve(p, table) for p in (CAPTION_PT, CAPTION_APT)]
        expected = [{q: entropy._spectral_entropy(
                        *eigenvalue_pair(*traj.dephasing_frame()), q)
                     for q in orders} for traj in trajs]
        calls = count_calls(monkeypatch, entropy, "eigenvalue_pair")
        for traj, want in zip(trajs, expected):
            table = entropy.entropy_series(traj, iter(orders))
            assert list(table) == orders
            for q in orders:
                assert np.array_equal(table[q], want[q])
        assert calls == {"eigenvalue_pair": 2}

    def test_bad_order_raises_before_the_spectrum(self, caption_bath,
                                                  monkeypatch):
        traj = evolve_apt(CAPTION_APT, caption_bath,
                          np.linspace(0.0, 5.0, 21))
        calls = count_calls(monkeypatch, entropy, "eigenvalue_pair")
        with pytest.raises(DomainError, match="non-negative, got -1"):
            entropy.entropy_series(traj, [0.0, 1.0, -1.0])
        assert calls == {"eigenvalue_pair": 0}
