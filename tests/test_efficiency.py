"""Efficiency recursion against direct Monte-Carlo packet counting and exact rationals."""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from codedelay.efficiency import efficiency
from codedelay.kernel import Chain, build_kernel
from codedelay.params import derive_channel, derive_coding

from .helpers import (DESIGN_CHANNELS, assert_same_efficiency, exact_received_by_state,
                      growth_stages, reference_received_by_state)


def make_kernel(epsilon, k, R):
    ch = derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=0.1)
    return build_kernel(ch, derive_coding(ch, k, R=R))


def mc_received(epsilon, k, R, trials, seed):
    """Count packets received until decode, including the decoding round."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    need = np.full(trials, k, dtype=np.int64)
    total = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    while active.size:
        ri = R * need[active]
        rounded = np.round(ri)
        snap = np.abs(ri - rounded) < 1e-9
        base = np.where(snap, rounded, np.floor(ri)).astype(np.int64)
        frac = np.where(snap, 0.0, ri - base)
        n = base + (rng.random(active.size) < frac)
        got = rng.binomial(n, 1.0 - epsilon)
        total[active] += got
        need[active] = np.maximum(need[active] - got, 0)
        active = active[need[active] > 0]
    return total


class TestExpectedReceived:
    @pytest.mark.parametrize("eps,k,R", [(0.1, 4, 1.25), (0.3, 6, 1.5)])
    def test_matches_monte_carlo(self, eps, k, R):
        kern = make_kernel(eps, k, R)
        m = efficiency(kern).expected_received
        counts = mc_received(eps, k, R, trials=200_000, seed=hash((k, R)) % 2**32)
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - m) <= 3.0 * se

    def test_at_least_generation_size(self):
        for eps, k, R in [(0.05, 2, 1.0), (0.1, 8, 1.25), (0.3, 16, 1.5)]:
            kern = make_kernel(eps, k, R)
            assert efficiency(kern).expected_received >= k


class TestReceivedByState:
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.6])
    def test_matches_exact_rationals(self, eps):
        for R in (1.0, 1.25, 1.1 / 0.9):
            exact = exact_received_by_state(R, 12, 1.0 - eps)
            for k in range(1, 13):
                res = efficiency(make_kernel(eps, k, R))
                for got, want in zip(res.by_state[1:], exact[1:]):
                    assert abs(Fraction(got) - want) <= 1e-14 * want, (R, k)
                for j in range(1, k + 1):
                    assert res.at(j).eta == min(j / res.by_state[j], 1.0)


class TestEfficiency:
    def test_single_packet_no_redundancy_is_lossless_efficient(self):
        kern = make_kernel(0.1, 1, 1.0)
        assert efficiency(kern).eta == 1.0

    def test_lossless_overhead_is_pure_redundancy(self):
        kern = make_kernel(0.0, 4, 1.25)
        assert efficiency(kern).eta == 0.8

    def test_bounds(self):
        for eps, k, R in [(0.05, 2, 1.0), (0.1, 8, 1.25), (0.3, 16, 1.5)]:
            res = efficiency(make_kernel(eps, k, R))
            assert 0.0 < res.eta <= 1.0
            assert res.eta == pytest.approx(k / res.expected_received)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
    def test_no_redundancy_never_prints_above_one(self, eps):
        """At R = 1 every received packet is innovative, so eta is 1 up to rounding.

        The pass lands a few ulp either side of k at some sizes; eta is
        clamped, so it never exceeds 1.
        """
        ch = derive_channel(eps, rate=1e7, packet_size=1e4, rtt=1.0)
        ks = list(range(1, 201))
        res = efficiency(build_kernel(ch, derive_coding(ch, 200, R=1.0), ks))
        assert any(k / res.by_state[k] > 1.0 for k in ks)
        for k in ks:
            assert 1.0 - 1e-14 <= res.at(k).eta <= 1.0
            assert res.at(k).eta == min(k / res.by_state[k], 1.0)

    def test_more_redundancy_costs_efficiency(self):
        etas = [efficiency(make_kernel(0.1, 8, R)).eta for R in (1.0, 1.25, 1.5, 2.0)]
        assert all(b < a for a, b in zip(etas, etas[1:]))


class TestNeededStates:
    """The pass over every state against the reference pass, at every grid size."""

    @given(eps=st.one_of(st.floats(0.005, 0.05), st.floats(0.0, 0.5)),
           R=st.floats(1.0, 2.0), k=st.integers(1, 400),
           grid=st.one_of(st.none(), st.lists(st.integers(1, 400), max_size=6)))
    @example(eps=0.01, R=1.2, k=400, grid=[2, 30, 200])     # pmf underflows in the top rows
    @example(eps=0.005, R=1.0, k=150, grid=None)
    @example(eps=0.3, R=1.5, k=64, grid=None)
    @settings(max_examples=60, deadline=None)
    def test_eta_bit_equal_at_every_grid_size(self, eps, R, k, grid):
        ch = derive_channel(eps, rate=1e7, packet_size=1e4, rtt=1.0)
        cd = derive_coding(ch, k, R=R)
        ks = sorted({k, *(g for g in grid or () if g <= k)})
        kern = build_kernel(ch, cd, ks if grid is not None else None)
        assert_same_efficiency(efficiency(kern), reference_received_by_state(kern), ks)


class TestGrowth:
    """The pass over a kernel grown from one Chain against the reference pass over a fresh one."""

    @given(eps=st.floats(0.0, 0.95), R=st.floats(1.0, 8.0), stages=growth_stages())
    @example(eps=0.1187, R=DESIGN_CHANNELS[0][0], stages=[[2, 30, 64], [79, 128], [158, 250]])
    @example(eps=0.3, R=1.5, stages=[[10], [11], [12, 40], [40], [5, 20]])
    @example(eps=0.95, R=1.0, stages=[[250], [251, 300]])
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_every_state_bit_equal_at_every_stage(self, eps, R, stages):
        # one fresh build over every stage's sizes, with one reference pass,
        # serves each stage: state i's value reads only rows 1..i, and a row
        # does not depend on the other sizes built with it
        ch = derive_channel(eps, rate=1e7, packet_size=1e4, rtt=10.0)
        top = max(max(s) for s in stages)
        fresh = build_kernel(ch, derive_coding(ch, top, R=R), [g for s in stages for g in s])
        ref = reference_received_by_state(fresh)
        want = efficiency(fresh)
        chain = Chain()
        for sizes in stages:
            cd = derive_coding(ch, sizes[-1], R=R)
            res = efficiency(build_kernel(ch, cd, sizes, chain))
            assert np.array_equal(res.by_state, ref[:sizes[-1] + 1])
            for g in sizes:
                assert repr(res.at(g)) == repr(want.at(g))


class TestBlocks:
    """The pass over each block of one grid kernel against the reference pass over the block."""

    @pytest.mark.parametrize("eps,R", [(0.1187, DESIGN_CHANNELS[0][0]), (0.3, 1.5), (0.01, 1.2)])
    def test_bit_equal_largest_first_then_smallest_first(self, eps, R):
        ch = derive_channel(eps, rate=1e7, packet_size=1e4, rtt=1.0)
        ks = [1, 2, 30, 64, 200, 400]
        kern = build_kernel(ch, derive_coding(ch, ks[-1], R=R), ks)
        matrix, cdfs = kern.matrix.copy(), copy.deepcopy(kern._cdfs)
        for k in [*reversed(ks), *ks]:
            block = kern.block(derive_coding(ch, k, R=R))
            assert_same_efficiency(efficiency(block), reference_received_by_state(block), [k])
        assert np.array_equal(kern.matrix, matrix)
        assert kern._cdfs == cdfs


class TestAt:
    @pytest.fixture(scope="class")
    def result(self):
        ch = derive_channel(0.01, rate=1e7, packet_size=1e4, rtt=1.0)
        return efficiency(build_kernel(ch, derive_coding(ch, 400, R=1.2), [2, 30, 200]))

    @pytest.mark.parametrize("k", [-1, 0, 401])
    def test_size_outside_the_kernel_is_rejected(self, result, k):
        with pytest.raises(ValueError, match=r"outside 1\.\.400"):
            result.at(k)

    def test_visited_sizes_answer(self, result):
        # every state, grid size or not
        for k in range(1, 401):
            assert result.at(k).eta == k / result.by_state[k]
