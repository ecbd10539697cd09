"""Throughput efficiency: information packets per packet received at the sink.

Everything here reads the transition kernel: the non-absorbing entries of
each row give deterministic received counts, and the absorbing transition's
received-count-weighted mass comes from `TransitionKernel.absorbed_received`,
computed from the same pmf evaluation as the row. No pmf is evaluated here.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EfficiencyResult:
    expected_received: float
    eta: float


def received_on_transition(kern, i, j):
    """Expected packets received at the sink on a single transition i -> j.

    Deterministic (i - j) while the chain stays unabsorbed; conditioned on
    absorbing, at least i of the n_i transmissions got through and the mean
    over that truncated binomial applies.
    """
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    if not (0 <= j <= i):
        raise ValueError(f"j must be in [0, {i}], got {j}")
    if kern.matrix[i, j] <= 0.0:
        raise ValueError(f"transition {i} -> {j} has zero probability")
    if j >= 1:
        return float(i - j)
    return float(kern.absorbed_received[i] / kern.matrix[i, 0])


def expected_received(kern):
    """Expected packets received at the sink per generation of size k.

    Bottom-up over states: the expected count for a path from state i to
    absorption decomposes over the first transition.
    """
    k = kern.k
    mat = kern.matrix
    em = np.zeros(k + 1)
    for i in range(1, k + 1):
        total = kern.absorbed_received[i]  # E[count | absorb] * a_i0, with E[M_0] = 0
        denom = mat[i, 0]
        for j in range(1, i):
            a_ij = mat[i, j]
            if a_ij > 0.0:
                total += (float(i - j) + em[j]) * a_ij
                denom += a_ij
        if denom <= 0.0:
            raise ValueError(f"state {i} cannot progress (self-transition probability 1)")
        # denom is 1 - a_ii assembled from the same pmf evaluations as the
        # weighted sum, so the conditional mean is exact even when the pmf
        # row carries a few ulps of rounding.
        em[i] = total / denom
    return float(em[k])


def efficiency(kern):
    """Efficiency eta = k / expected packets received."""
    m = expected_received(kern)
    return EfficiencyResult(expected_received=m, eta=kern.k / m)
