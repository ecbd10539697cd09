"""Throughput efficiency: information packets per packet received at the sink.

A round from state i receives p*n_i packets on average, where n_i is the mean
transmit count R*i as split_count realizes it and p = 1 - epsilon; the rest
comes from the kernel's rows. No pmf is evaluated here.

One bottom-up pass yields the expected received count from every state, and
row i does not depend on the generation size, so the pass over a kernel
built for the largest size of a grid serves every size in it (`at`). The
pass visits only the states the kernel's grid needs
(`TransitionKernel.needed_states`): every other state's column is an exact
zero in each visited row, so skipping it changes no bit of a visited state.
"""

from dataclasses import dataclass, field

import numpy as np

from .params import split_count


@dataclass(frozen=True)
class EfficiencyResult:
    expected_received: float
    eta: float                  # k / expected_received, clamped to at most 1
    # expected packets received from state i until absorption, i = 0..k; NaN
    # at the states the pass did not visit (outside the kernel's needed states)
    by_state: np.ndarray = field(repr=False, compare=False)

    def at(self, k):
        """The result for generation size k, one of the states the pass visited.

        Raises ValueError for k outside 1..K, K the kernel's own size, or a
        state the pass skipped.
        """
        K = len(self.by_state) - 1
        if not 1 <= k <= K:
            raise ValueError(f"k = {k} is outside 1..{K}")
        if np.isnan(self.by_state[k]):
            raise ValueError(f"k = {k} is not among the sizes this kernel's grid needs")
        return _result(self.by_state, k)


def _received_by_state(kern):
    """Expected packets received from each needed state until absorption.

    Bottom-up over states: the expected count for a path from state i to
    absorption is the mean received in its first round plus the expected
    count from wherever that round leaves it. States the pass skips hold 0.0
    while it runs, which each visited row multiplies by an exact zero, and
    NaN once it is done.
    """
    k = kern.k
    mat = kern.matrix
    lo, frac = split_count(kern.coding.R, np.arange(k + 1))
    received = (lo + frac) * (1.0 - kern.channel.epsilon)
    em = np.zeros(k + 1)
    states = kern.needed_states()
    for i in states:
        row = mat[i, 1:i]
        # denom is 1 - a_ii summed from the entries that leave state i,
        # which keeps its digits where a_ii is near 1 and 1 - a_ii cancels.
        denom = mat[i, 0] + row.sum()
        if denom <= 0.0:
            raise ValueError(f"state {i} cannot progress (self-transition probability 1)")
        em[i] = (received[i] + row @ em[1:i]) / denom
    if len(states) < k:
        visited = em[states]
        em[1:] = np.nan
        em[states] = visited
    return em


def _result(em, k):
    m = float(em[k])
    # A generation needs at least k packets, so eta <= 1; the float pass can
    # land a few ulp below k where every received packet counts (R = 1)
    return EfficiencyResult(expected_received=m, eta=min(k / m, 1.0), by_state=em[:k + 1])


def efficiency(kern):
    """Efficiency eta = k / expected packets received, in (0, 1]."""
    return _result(_received_by_state(kern), kern.k)
