"""Throughput efficiency: information packets per packet received at the sink.

A round from state i receives p*n_i packets on average, where n_i is the mean
transmit count R*i as split_count realizes it and p = 1 - epsilon; the rest
comes from the kernel's rows. No pmf is evaluated here.

One bottom-up pass over states 1..k of a kernel's rows yields the expected
received count from every state, and writes nothing but its result. Row i
does not depend on the generation size, so the pass over a kernel built for
the largest size of a grid serves every size in it (`at`).
"""

from dataclasses import dataclass, field

import numpy as np

from .params import split_count

_add_reduce = np.add.reduce   # row.sum() without its Python wrapper


@dataclass(frozen=True)
class EfficiencyResult:
    expected_received: float
    eta: float                  # k / expected_received, clamped to at most 1
    # expected packets received from state i until absorption, i = 0..k
    by_state: np.ndarray = field(repr=False, compare=False)

    def at(self, k):
        """The result for generation size k; ValueError outside 1..K, K the kernel's size."""
        K = len(self.by_state) - 1
        if not 1 <= k <= K:
            raise ValueError(f"k = {k} is outside 1..{K}")
        return _result(self.by_state, k)


def _received_by_state(kern):
    """Expected packets received from each state until absorption.

    Bottom-up over states: the expected count for a path from state i to
    absorption is the mean received in its first round plus the expected
    count from wherever that round leaves it.
    """
    k = kern.k
    mat = kern.matrix
    lo, frac = split_count(kern.coding.R, np.arange(1, k + 1))
    received = (lo + frac) * (1.0 - kern.channel.epsilon)
    em = np.zeros(k + 1)
    # Python floats: the same double arithmetic as numpy scalars, with less overhead
    for i, absorbed, mean in zip(range(1, k + 1), mat[1:, 0].tolist(), received.tolist()):
        row = mat[i, 1:i]
        # denom is 1 - a_ii summed from the entries that leave state i,
        # which keeps its digits where a_ii is near 1 and 1 - a_ii cancels.
        denom = absorbed + float(_add_reduce(row))
        if denom <= 0.0:
            raise ValueError(f"state {i} cannot progress (self-transition probability 1)")
        em[i] = (mean + float(row @ em[1:i])) / denom
    return em


def _result(em, k):
    m = float(em[k])
    # A generation needs at least k packets, so eta <= 1; the float pass can
    # land a few ulp below k where every received packet counts (R = 1)
    return EfficiencyResult(expected_received=m, eta=min(k / m, 1.0), by_state=em[:k + 1])


def efficiency(kern):
    """Efficiency eta = k / expected packets received, in (0, 1]."""
    return _result(_received_by_state(kern), kern.k)
