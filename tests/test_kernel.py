"""Transition kernel against exhaustive loss-pattern enumeration and exact binomials."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedelay.kernel import _binomial_rows, build_kernel
from codedelay.params import derive_channel, derive_coding

from .helpers import brute_force_absorbed_received, brute_force_row, kernel_row, mixture_row


def make_pair(epsilon, k, R):
    ch = derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=0.1)
    return ch, derive_coding(ch, k, R=R)


class TestPureRow:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("i", [1, 2, 4, 6])
    def test_matches_enumeration(self, i, eps):
        for n in range(i, 13):
            got, absorbed_received = kernel_row(i, n, 1.0 - eps)
            want = brute_force_row(i, n, eps)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
            assert absorbed_received == pytest.approx(
                brute_force_absorbed_received(i, n, eps), rel=0, abs=1e-13)

    def test_lossless_absorbs_immediately(self):
        row, _ = kernel_row(4, 5, 1.0)
        assert row[0] == 1.0
        assert row[1:].sum() == 0.0

    @given(st.integers(1, 8), st.integers(0, 8),
           st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_row_is_stochastic(self, i, extra, eps):
        row, _ = kernel_row(i, i + extra, 1.0 - eps)
        assert row.min() >= 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def exact_binomial(n, p_success):
    """pmf and upper tail P(X >= m), m = 0..n, of Binomial(n, p_success), rounded once.

    p_success is taken exactly as the float it is and q = 1 - p_success exactly
    (as the recurrence does for p >= 1/2), so the law sums to exactly 1.
    """
    p = Fraction(p_success)
    den, a, b = p.denominator ** n, p.numerator, (1 - p).numerator
    num = [math.comb(n, m) * a ** m * b ** (n - m) for m in range(n + 1)]
    tail = list(itertools.accumulate(reversed(num)))[::-1]
    # int / int rounds the exact quotient once
    return np.array([x / den for x in num]), np.array([t / den for t in tail])


class TestBinomialRecurrence:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_matches_exact_values(self, eps):
        laws = list(_binomial_rows(600, 601, 1.0 - eps))
        for n in [*range(12), 50, 100, 200, 300, 400, 500, 600]:
            pmf, tail = exact_binomial(n, 1.0 - eps)
            np.testing.assert_allclose(laws[n][0, :n + 1], pmf, rtol=0, atol=1e-15)
            # tails sit near 1, where the recurrence's ~sqrt(n) ulp relative
            # error reads as a few 1e-15 absolute by n = 600
            np.testing.assert_allclose(laws[n][1, :n + 1], tail, rtol=0, atol=1e-14)
            assert not laws[n][:, n + 1:].any()

    def test_entries_do_not_depend_on_width(self):
        wide = list(_binomial_rows(80, 81, 0.8))
        narrow = list(_binomial_rows(80, 9, 0.8))
        for w, nr in zip(wide, narrow):
            np.testing.assert_array_equal(w[:, :9], nr)


class TestBuildKernel:
    def test_rows_match_mixture_enumeration(self):
        for eps, k, R in [(0.1, 4, 1.25), (0.3, 6, 1.5), (0.05, 5, 1.1 / 0.9)]:
            kern = build_kernel(*make_pair(eps, k, R))
            for i in range(1, k + 1):
                want = mixture_row(i, R, eps)
                np.testing.assert_allclose(kern.matrix[i, : i + 1], want,
                                           rtol=0, atol=1e-13)
                assert kern.matrix[i, i + 1:].sum() == 0.0

    def test_absorbing_state_row(self):
        kern = build_kernel(*make_pair(0.1, 4, 1.25))
        row0 = np.zeros(5)
        row0[0] = 1.0
        np.testing.assert_array_equal(kern.matrix[0], row0)

    def test_absorption_cdf_properties(self):
        kern = build_kernel(*make_pair(0.2, 8, 1.25))
        assert kern.absorption_cdf(0) == 0.0
        vals = [kern.absorption_cdf(r) for r in range(kern.horizon + 1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0
        assert kern.absorption_cdf(kern.horizon + 5) == 1.0
        with pytest.raises(ValueError):
            kern.absorption_cdf(-1)

    def test_round_count_pmf_sums_to_one(self):
        kern = build_kernel(*make_pair(0.3, 8, 1.1))
        total = sum(kern.p_y(y) for y in range(1, kern.horizon + 2))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert kern.p_y(0) == 0.0

    def test_worst_of_one_is_single(self):
        kern = build_kernel(*make_pair(0.2, 6, 1.25))
        for z in range(1, 6):
            assert kern.p_z(1, z) == pytest.approx(kern.p_y(z), abs=1e-15)

    def test_worst_of_many_sums_to_one(self):
        kern = build_kernel(*make_pair(0.2, 6, 1.25))
        for i in (2, 5):
            total = sum(kern.p_z(i, z) for z in range(1, kern.horizon + 2))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_worst_of_validation(self):
        kern = build_kernel(*make_pair(0.2, 6, 1.25))
        with pytest.raises(ValueError):
            kern.p_z(0, 1)
        assert kern.p_z(3, 0) == 0.0

    def test_lossless_decodes_in_one_round(self):
        kern = build_kernel(*make_pair(0.0, 8, 1.25))
        assert kern.absorption_cdf(1) == 1.0
        assert kern.p_y(1) == 1.0
        assert kern.horizon >= 1

    def test_generation_size_cap(self):
        ch = derive_channel(0.1, rate=1e9, packet_size=1e3, rtt=0.1)
        with pytest.raises(ValueError):
            build_kernel(ch, derive_coding(ch, 5000, R=1.25))
