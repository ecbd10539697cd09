"""Throughput efficiency: information packets per packet received at the sink.

Everything here reads the transition kernel: the non-absorbing entries of
each row give deterministic received counts, and the absorbing transition's
received-count-weighted mass comes from `TransitionKernel.absorbed_received`,
computed from the same binomial law as the row. No pmf is evaluated here.

One bottom-up pass yields the expected received count from every state, and
row i does not depend on the generation size, so the pass over a kernel
built for the largest size of a grid serves every size in it (`at`).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EfficiencyResult:
    expected_received: float
    eta: float
    # expected packets received from state i until absorption, i = 0..k
    by_state: np.ndarray = field(repr=False, compare=False)

    def at(self, k):
        """The result for generation size k, up to the kernel's own."""
        return _result(self.by_state, k)


def _received_by_state(kern):
    """Expected packets received from each state until absorption.

    Bottom-up over states: the expected count for a path from state i to
    absorption decomposes over the first transition.
    """
    k = kern.k
    mat = kern.matrix
    steps = np.arange(k, 0, -1, dtype=float)  # steps[k - i + j] = i - j
    em = np.zeros(k + 1)
    for i in range(1, k + 1):
        row = mat[i, 1:i]
        # denom is 1 - a_ii assembled from the same entries as the weighted
        # sum, so the conditional mean is exact even when the row carries a
        # few ulps of rounding.
        denom = mat[i, 0] + row.sum()
        if denom <= 0.0:
            raise ValueError(f"state {i} cannot progress (self-transition probability 1)")
        total = kern.absorbed_received[i] + row @ (em[1:i] + steps[k - i + 1:])
        em[i] = total / denom
    return em


def _result(em, k):
    m = float(em[k])
    return EfficiencyResult(expected_received=m, eta=k / m, by_state=em[:k + 1])


def efficiency(kern):
    """Efficiency eta = k / expected packets received."""
    return _result(_received_by_state(kern), kern.k)
