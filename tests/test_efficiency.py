"""Efficiency recursion against direct Monte-Carlo packet counting."""

import numpy as np
import pytest

from codedelay.efficiency import efficiency
from codedelay.kernel import build_kernel
from codedelay.params import derive_channel, derive_coding

from .helpers import received_on_transition


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


class TestReceivedOnTransition:
    def test_unabsorbed_is_deterministic(self):
        kern = make_kernel(0.3, 6, 1.25)
        for i in range(1, 7):
            for j in range(1, i + 1):
                if kern.matrix[i, j] <= 0.0:
                    continue
                assert received_on_transition(kern, i, j) == float(i - j)

    def test_absorbing_mean_is_at_least_i(self):
        kern = make_kernel(0.3, 6, 1.25)
        for i in range(1, 7):
            assert received_on_transition(kern, i, 0) >= i

    def test_validation(self):
        kern = make_kernel(0.1, 4, 1.25)
        with pytest.raises(ValueError):
            received_on_transition(kern, 0, 0)
        with pytest.raises(ValueError):
            received_on_transition(kern, 2, 3)
        with pytest.raises(ValueError):
            received_on_transition(kern, 2, -1)


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


def loop_received(kern):
    """Reference: the bottom-up recursion as a plain double loop over states."""
    mat = kern.matrix
    em = [0.0] * (kern.k + 1)
    for i in range(1, kern.k + 1):
        total = kern.absorbed_received[i]
        denom = mat[i, 0]
        for j in range(1, i):
            total += (float(i - j) + em[j]) * mat[i, j]
            denom += mat[i, j]
        em[i] = total / denom
    return em


class TestReceivedByState:
    @pytest.mark.parametrize("eps,k,R", [(0.01, 40, 1.05), (0.1, 64, 1.25), (0.3, 200, 1.5)])
    def test_matches_the_loop(self, eps, k, R):
        kern = make_kernel(eps, k, R)
        res = efficiency(kern)
        np.testing.assert_allclose(res.by_state, loop_received(kern), rtol=1e-13, atol=0)
        for j in (1, k // 2, k):
            assert res.at(j).eta == j / res.by_state[j]


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

    def test_more_redundancy_costs_efficiency(self):
        etas = [efficiency(make_kernel(0.1, 8, R)).eta for R in (1.0, 1.25, 1.5, 2.0)]
        assert all(b < a for a, b in zip(etas, etas[1:]))
