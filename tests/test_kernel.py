"""Transition kernel against exhaustive loss-pattern enumeration and exact binomials."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from codedelay.kernel import (_ABSORPTION_BLOCK, _FILL_STEPS, _HISTORY_BYTES,
                              Chain, TransitionKernel, _absorption,
                              _transition_rows, build_kernel)
from codedelay.params import MAX_ROUND_PACKETS, InputError, derive_channel, derive_coding

from .helpers import (DESIGN_CHANNELS, DESIGN_GRID, _binomial_rows, assert_same_absorption,
                      assert_same_kernel, brute_force_row, growth_stages, kernel_row, mixture_row,
                      reference_absorption, reference_transition_rows)


def make_pair(epsilon, k, R):
    ch = derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=0.1)
    return ch, derive_coding(ch, k, R=R)


class TestPureRow:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("i", [1, 2, 4, 6])
    def test_matches_enumeration(self, i, eps):
        for n in range(i, 13):
            got = kernel_row(i, n, 1.0 - eps)
            want = brute_force_row(i, n, eps)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_lossless_absorbs_immediately(self):
        row = kernel_row(4, 5, 1.0)
        assert row[0] == 1.0
        assert row[1:].sum() == 0.0

    @given(st.integers(1, 8), st.integers(0, 8),
           st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_row_is_stochastic(self, i, extra, eps):
        row = kernel_row(i, i + extra, 1.0 - eps)
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
    """The binomial laws behind the kernel: the reference recurrence against
    exact values, and the same laws read back from the rows production builds.

    TestRowFill pins production's rows bit-equal to the reference's, so the
    reference's accuracy here is production's too. In production's rows,
    state n sending n packets shows law n's pmf at m = 0..n-1 in entries
    n..1, and state m's entry 0 is the tail P(X >= m) of the law it sends.
    """

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

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_kernel_rows_match_exact_values(self, eps):
        for n in [*range(1, 12), 50, 100, 200, 300, 400, 500, 600]:
            pmf, tail = exact_binomial(n, 1.0 - eps)
            row = kernel_row(n, n, 1.0 - eps)
            np.testing.assert_allclose(row[:0:-1], pmf[:n], rtol=0, atol=1e-15)
            # every m for small n; near 0, the mean, and n for the rest
            mean = round(n * (1.0 - eps))
            ms = sorted({m for m in (*range(1, 12), n // 4, mean - 1, mean, mean + 1,
                                     n // 2, 3 * n // 4, n - 1, n) if 1 <= m <= n})
            tails = [kernel_row(m, n, 1.0 - eps)[0] for m in ms]
            np.testing.assert_allclose(tails, tail[ms], rtol=0, atol=1e-14)

    def test_entries_do_not_depend_on_width(self):
        wide = list(_binomial_rows(80, 81, 0.8))
        narrow = list(_binomial_rows(80, 9, 0.8))
        for w, nr in zip(wide, narrow):
            np.testing.assert_array_equal(w[:, :9], nr)

    def test_kernel_of_k_is_leading_block(self):
        # whatever passes over the laws either fill makes
        for R in (1.0, 1.3, 7.5):
            wide = _transition_rows(R, 2 * _FILL_STEPS + 3, 0.8)
            for k in (1, 8, _FILL_STEPS - 2, _FILL_STEPS - 1, _FILL_STEPS, _FILL_STEPS + 1):
                mat = _transition_rows(R, k, 0.8)
                np.testing.assert_array_equal(wide[:k + 1, :k + 1], mat)


def _r_values():
    """R in [1, 64]: 1, integers, ratios that make R*i integral for some i, and any float."""
    return st.one_of(st.just(1.0), st.integers(2, 64).map(float),
                     st.sampled_from([1.25, 1.5, 2.5, 1.125, 33.75]),
                     st.floats(1.0, 64.0))


def _p_values():
    """p_success in (0, 1]: 1, below 1/2 where q + p need not round to 1, and any."""
    return st.one_of(st.just(1.0), st.floats(1e-3, 0.5), st.floats(0.0, 1.0, exclude_min=True))


class TestRowFill:
    """The production row fill against the per-state reference fill, bit for bit."""

    @given(R=_r_values(), p=_p_values(), k=st.integers(1, 300))
    @example(R=1.0, p=0.9, k=_FILL_STEPS - 2)
    @example(R=1.0, p=0.9, k=_FILL_STEPS - 1)
    @example(R=1.0, p=0.45, k=_FILL_STEPS)
    @example(R=1.0, p=0.9, k=_FILL_STEPS + 1)
    @example(R=1.3, p=0.7, k=_FILL_STEPS - 1)
    @example(R=1.3, p=0.7, k=_FILL_STEPS)
    @example(R=1.3, p=0.7, k=_FILL_STEPS + 1)
    @example(R=1.3, p=0.7, k=2 * _FILL_STEPS)
    @example(R=64.0, p=0.3, k=2 * _FILL_STEPS)
    @example(R=1.5, p=1.0, k=300)
    @example(R=DESIGN_CHANNELS[0][0], p=DESIGN_CHANNELS[0][1], k=1024)
    @example(R=DESIGN_CHANNELS[1][0], p=DESIGN_CHANNELS[1][1], k=1024)
    @example(R=DESIGN_CHANNELS[2][0], p=DESIGN_CHANNELS[2][1], k=1024)
    @example(R=DESIGN_CHANNELS[3][0], p=DESIGN_CHANNELS[3][1], k=1024)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_bit_for_bit(self, R, p, k):
        mat = _transition_rows(R, k, p)
        ref_mat, _ = reference_transition_rows(R, k, p)
        assert mat.flags.c_contiguous
        assert np.array_equal(mat, ref_mat)

    def test_memory_does_not_grow_with_r(self):
        # R*k at the largest first round accepted: the fill holds a fixed
        # number of laws, not one per packet sent
        k = 1024
        R = MAX_ROUND_PACKETS / k
        tracemalloc.start()
        try:
            mat = _transition_rows(R, k, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mat.nbytes + 4 * 2 ** 20


def _design_examples(test):
    """The four design channels at k 1024 over DESIGN_GRID."""
    for R, p in DESIGN_CHANNELS:
        test = example(R=R, p=p, k=1024, grid=DESIGN_GRID)(test)
    return test


class TestAbsorption:
    """The in-place absorption pass against the full-block reference."""

    @given(R=_r_values(), p=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           k=st.integers(1, 300), grid=st.lists(st.integers(1, 300), max_size=8))
    @example(R=1.2, p=0.7, k=_ABSORPTION_BLOCK - 1, grid=[1, 5])
    @example(R=1.2, p=0.7, k=_ABSORPTION_BLOCK, grid=[2, 64])
    @example(R=1.2, p=0.7, k=_ABSORPTION_BLOCK + 1, grid=[_ABSORPTION_BLOCK])
    @example(R=1.2, p=0.7, k=2 * _ABSORPTION_BLOCK - 1, grid=[3])
    @example(R=1.2, p=0.7, k=2 * _ABSORPTION_BLOCK, grid=[_ABSORPTION_BLOCK + 1])
    @example(R=1.2, p=0.7, k=2 * _ABSORPTION_BLOCK + 1, grid=[1, 2 * _ABSORPTION_BLOCK])
    @example(R=DESIGN_CHANNELS[1][0], p=DESIGN_CHANNELS[1][1], k=1024, grid=[])
    @example(R=DESIGN_CHANNELS[1][0], p=DESIGN_CHANNELS[1][1], k=1024, grid=[2, 30, 300])
    @example(R=1.0, p=0.3, k=700, grid=[10, 300])   # R*p < 1: rows with leading zeros
    @example(R=1.5, p=0.5, k=300, grid=[1, 2])
    @example(R=1.0, p=1.0, k=300, grid=[1, 2, 150])
    @example(R=64.0, p=1.0, k=200, grid=[1])
    @example(R=1.0, p=1e-3, k=40, grid=[1, 20])     # never converges: all three fail
    @example(R=64.0, p=1e-3, k=30, grid=[2])
    @_design_examples
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_bit_for_bit(self, R, p, k, grid):
        ks = sorted({k, *(g for g in grid if g <= k)})
        mat = _transition_rows(R, k, p)
        assert_same_absorption(_absorption(mat, ks), reference_absorption(mat, ks), ks)


class TestGrowth:
    """Kernels grown from one Chain against kernels built in one go."""

    @given(eps=st.floats(0.0, 0.95), R=st.floats(1.0, 8.0), stages=growth_stages(),
           room=st.sampled_from([_HISTORY_BYTES, 4096, 0]))
    @example(eps=0.1187, R=DESIGN_CHANNELS[0][0], stages=[[2, 30, 64], [79, 128], [158, 250]],
             room=_HISTORY_BYTES)
    @example(eps=0.3, R=1.5, stages=[[10], [11], [12, 40], [40], [5, 20]], room=_HISTORY_BYTES)
    @example(eps=0.95, R=1.0, stages=[[250], [251, 300]], room=_HISTORY_BYTES)
    @example(eps=0.999, R=1.0, stages=[[3], [4, 6]], room=_HISTORY_BYTES)   # never converges
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_equals_a_fresh_build_at_every_stage(self, eps, R, stages, room):
        # one fresh build over every stage's sizes serves each stage: a size's
        # rows and cdf do not depend on the other sizes built with it
        ch = derive_channel(eps, rate=1e7, packet_size=1e4, rtt=10.0)
        top = max(max(s) for s in stages)
        fresh = build_kernel(ch, derive_coding(ch, top, R=R), [g for s in stages for g in s])
        chain = Chain(room)
        for sizes in stages:
            cd = derive_coding(ch, sizes[-1], R=R)
            assert_same_kernel(build_kernel(ch, cd, sizes, chain), fresh, ch, sizes)
        assert chain.k == top

    def test_rounds_past_the_budget_are_summed_again(self):
        ch = derive_channel(0.95, rate=1e7, packet_size=1e4, rtt=10.0)
        cd = derive_coding(ch, 250, R=1.0)
        chain = Chain()
        kern = build_kernel(ch, cd, [], chain)
        assert 0 < len(chain.rounds) < kern.horizon     # the budget ran out
        assert chain.room < 8 * 251
        assert [len(u) for u in chain.rounds] == [251] * len(chain.rounds)
        cd = derive_coding(ch, 300, R=1.0)
        assert_same_kernel(build_kernel(ch, cd, [280], chain), build_kernel(ch, cd, [280]),
                           ch, [280, 300])

    def test_a_kernel_built_alone_keeps_no_rounds(self):
        kern = build_kernel(*make_pair(0.1, 64, 1.25))
        assert kern.chain.rounds == [] and kern.chain.k == 64

    def test_rejects_another_channel_or_redundancy(self):
        chain = Chain()
        build_kernel(*make_pair(0.1, 8, 1.25), None, chain)
        for other in (make_pair(0.1, 16, 1.5), make_pair(0.2, 16, 1.25)):
            with pytest.raises(ValueError, match="chain is of"):
                build_kernel(*other, None, chain)


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

    # a = cdf(z) in [0.5, 1], near 1 or not; b = cdf(z-1) = a * ratio with
    # ratio near 1, uniform, exactly 0, or below a's resolution (2^-53)
    @given(a=st.one_of(st.floats(-16.0, -0.31).map(lambda e: 1.0 - 10.0 ** e),
                       st.floats(0.5, 1.0)),
           ratio=st.one_of(st.floats(-17.0, 0.0).map(lambda e: 1.0 - 10.0 ** e),
                           st.floats(0.0, 1.0),
                           st.floats(53.0, 200.0).map(lambda e: 2.0 ** -e)),
           i=st.integers(1, 300))
    @example(a=1.0, ratio=0.0, i=1)
    @example(a=0.75, ratio=0.0, i=300)
    @example(a=0.999999999999, ratio=2.0 ** -60, i=7)
    @example(a=1.0, ratio=1.0 - 2.0 ** -52, i=300)
    @settings(max_examples=300, deadline=None)
    def test_worst_of_matches_exact_difference(self, a, ratio, i):
        b = a * ratio
        kern = TransitionKernel(None, SimpleNamespace(k=1), None, {1: [0.0, b, a]})
        got = kern.p_z(i, 2)
        want = Fraction(a) ** i - Fraction(b) ** i
        assert abs(Fraction(got) - want) <= Fraction(1e-14) * want

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

    def test_redundancy_below_one_rejected(self):
        # a CodingParams not made by derive_coding still meets the R >= 1 check
        ch, coding = make_pair(0.1, 8, 1.25)
        with pytest.raises(InputError, match="R must be >= 1"):
            build_kernel(ch, dataclasses.replace(coding, R=0.9))
