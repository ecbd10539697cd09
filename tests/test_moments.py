"""Closed-form prefix and straggler moments against direct pmf summation."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from codedelay.kernel import build_kernel
from codedelay.moments import _power_sums, prefix_moments, straggler_moments, straggler_pmf
from codedelay.params import derive_channel, derive_coding

from .helpers import prefix_mgf, prefix_pmf


def direct_prefix_moment(epsilon, k, first_round, power):
    top = k if first_round else k - 1
    return sum(s ** power * prefix_pmf(epsilon, k, first_round, s)
               for s in range(top + 1))


def close_to(got, want, rel=1e-14):
    """|got - want| <= rel * |want|, with want exact (Fraction or Decimal)."""
    return abs(type(want)(got) - want) <= type(want)(rel) * abs(want)


class TestPowerSums:
    @given(d=st.one_of(st.just(1.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)),
           n=st.integers(1, 300))
    @example(d=1.0, n=1)
    @example(d=1.0, n=300)
    @example(d=0.3, n=1)
    @example(d=1e-12, n=300)
    @settings(max_examples=150, deadline=None)
    def test_match_exact_sums(self, d, n):
        # with rho = 1 - d = p/q, sum_s s^i rho^s = sum_s s^i p^s q^(n-1-s) / q^(n-1),
        # summed in integers by Horner's rule from s = n-1 down
        num, q = d.as_integer_ratio()
        p = q - num
        acc = [(n - 1) ** i for i in range(4)]
        q_power = 1
        for s in range(n - 2, -1, -1):
            q_power *= q
            acc = [a * p + s ** i * q_power for i, a in enumerate(acc)]
        want = [Fraction(a, q_power) for a in acc]
        got = _power_sums(d, n)
        assert all(close_to(g, w) for g, w in zip(got, want))

    def test_long_sum_with_small_decay(self):
        # n*d = 0.041: the regime where the textbook closed forms cancel
        n, d = 100_003, 4.1e-7
        with localcontext() as ctx:
            ctx.prec = 40
            rho = 1 - Decimal(d)
            want = [Decimal(0)] * 4
            term = Decimal(1)
            for s in range(n):
                sd = Decimal(s)
                want[0] += term
                want[1] += sd * term
                want[2] += sd * sd * term
                want[3] += sd * sd * sd * term
                term *= rho
            got = _power_sums(d, n)
            assert all(close_to(g, w) for g, w in zip(got, want))

    def test_empty_range(self):
        assert _power_sums(0.3, 0) == (0.0, 0.0, 0.0, 0.0)


class TestPrefixMoments:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64])
    def test_closed_forms_match_direct_sums(self, eps, k):
        pm = prefix_moments(eps, k)
        for power, one, multi in [(1, pm.s1_1, pm.s2_1),
                                  (2, pm.s1_2, pm.s2_2),
                                  (3, pm.s1_3, pm.s2_3)]:
            assert one == pytest.approx(
                direct_prefix_moment(eps, k, True, power), rel=1e-9)
            assert multi == pytest.approx(
                direct_prefix_moment(eps, k, False, power), rel=1e-9)

    def test_spot_value(self):
        assert prefix_moments(0.1, 4).s1_1 == pytest.approx(3.0951, abs=5e-5)

    def test_lossless_degenerates_to_full_prefix(self):
        pm = prefix_moments(0.0, 8)
        assert pm.lossless
        assert (pm.s1_1, pm.s1_2, pm.s1_3) == (8.0, 64.0, 512.0)
        assert pm.s2_1 is None and pm.s2_2 is None and pm.s2_3 is None

    def test_validation(self):
        with pytest.raises(ValueError):
            prefix_moments(1.0, 4)
        with pytest.raises(ValueError):
            prefix_moments(0.1, 0)


class TestPrefixPmf:
    @given(st.floats(min_value=1e-6, max_value=0.9), st.integers(1, 50))
    @settings(max_examples=80, deadline=None)
    def test_normalization(self, eps, k):
        one = sum(prefix_pmf(eps, k, True, s) for s in range(k + 1))
        multi = sum(prefix_pmf(eps, k, False, s) for s in range(k))
        assert one == pytest.approx(1.0, abs=1e-9)
        assert multi == pytest.approx(1.0, abs=1e-9)

    def test_full_prefix_only_in_first_round_case(self):
        assert prefix_pmf(0.1, 4, False, 4) == 0.0
        assert prefix_pmf(0.1, 4, True, 4) == pytest.approx(0.9 ** 4)

    def test_lossless_multi_round_rejected(self):
        with pytest.raises(ValueError):
            prefix_pmf(0.0, 4, False, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            prefix_pmf(0.1, 4, True, 5)
        with pytest.raises(ValueError):
            prefix_pmf(0.1, 4, True, -1)


class TestPrefixMgf:
    def test_at_zero(self):
        assert prefix_mgf(0.2, 8, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_transform(self):
        eps, k, t = 0.15, 10, 0.3
        want = sum(math.exp(t * s) * prefix_pmf(eps, k, True, s)
                   for s in range(k + 1))
        assert prefix_mgf(eps, k, t) == pytest.approx(want, rel=1e-12)

    def test_derivative_recovers_mean(self):
        eps, k, h = 0.2, 6, 1e-6
        slope = (prefix_mgf(eps, k, h) - prefix_mgf(eps, k, -h)) / (2 * h)
        assert slope == pytest.approx(prefix_moments(eps, k).s1_1, rel=1e-7)


def make_kernel(epsilon, k, R):
    ch = derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=0.1)
    return build_kernel(ch, derive_coding(ch, k, R=R))


class TestStraggler:
    @pytest.mark.parametrize("eps,k,R", [(0.1, 4, 1.25), (0.3, 6, 1.5)])
    def test_pmf_normalizes(self, eps, k, R):
        kern = make_kernel(eps, k, R)
        for N in (2, 5):
            for z in range(1, 5):
                if kern.p_z(N, z) <= 0.0:
                    continue
                total = sum(straggler_pmf(kern, N, z, v) for v in range(N))
                assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps,k,R", [(0.1, 4, 1.25), (0.3, 6, 1.5)])
    def test_moments_match_direct_sums(self, eps, k, R):
        kern = make_kernel(eps, k, R)
        for N in (2, 3, 8):
            for z in range(1, 5):
                if kern.p_z(N, z) <= 0.0:
                    continue
                sm = straggler_moments(kern, N, z)
                v1 = sum(v * straggler_pmf(kern, N, z, v) for v in range(N))
                v2 = sum(v * v * straggler_pmf(kern, N, z, v) for v in range(N))
                assert sm.v1 == pytest.approx(v1, rel=1e-10, abs=1e-10)
                assert sm.v2 == pytest.approx(v2, rel=1e-10, abs=1e-10)

    def test_single_generation_sits_at_the_end(self):
        kern = make_kernel(0.2, 6, 1.25)
        sm = straggler_moments(kern, 1, 2)
        assert sm.v1 == 0.0
        assert sm.v2 == 0.0

    def test_earlier_rounds_below_double_resolution(self):
        # Finishing in one round is ~1e-24 likely against ~2e-8 for two, so
        # p_y(2) / cdf(2) rounds to exactly 1 and nobody sits behind.
        kern = make_kernel(0.375, 117, 1.0)
        assert kern.p_y(2) / kern.absorption_cdf(2) == 1.0
        sm = straggler_moments(kern, 3, 2)
        v1 = sum(v * straggler_pmf(kern, 3, 2, v) for v in range(3))
        assert sm.v1 == pytest.approx(v1, abs=1e-15)
        assert sm.v2 == pytest.approx(v1, abs=1e-15)

    def test_zero_probability_conditioning_rejected(self):
        kern = make_kernel(0.0, 4, 1.25)
        with pytest.raises(ValueError):
            straggler_pmf(kern, 3, 2, 0)

    def test_validation(self):
        kern = make_kernel(0.2, 4, 1.25)
        with pytest.raises(ValueError):
            straggler_pmf(kern, 0, 1, 0)
        with pytest.raises(ValueError):
            straggler_pmf(kern, 3, 0, 0)
        with pytest.raises(ValueError):
            straggler_pmf(kern, 3, 1, 3)
        with pytest.raises(ValueError):
            straggler_moments(kern, 0, 1)
