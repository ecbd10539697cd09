"""Markov chain over the degrees of freedom still needed to decode a generation.

State i of the chain is the number of dofs the receiver still needs; one
transition is one transmission round. State 0 (decoded) is absorbing. Row i
follows from sending n_i packets over an erasure channel with loss rate
epsilon, where n_i mixes floor(R*i) and ceil(R*i) to realize the fractional
redundancy.

The binomial pmf of each (i, n_i) pair is evaluated once, here. Besides the
row, that one evaluation yields the received-count-weighted mass of the
absorbing transition, which the kernel stores per state so that the
efficiency module can read packets-received expectations without touching the
pmf again. This is the only module that imports scipy.
"""

import numpy as np
from scipy import stats

from .params import coded_count_distribution

MAX_K = 4096
ABSORPTION_TAIL = 1e-12
MAX_ROUNDS = 10_000


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge within its configured bounds."""


class TransitionKernel:
    """Transition matrix plus precomputed absorption probabilities.

    The matrix is (k+1) x (k+1), row-stochastic, lower-triangular apart from
    the diagonal (dofs needed never increase). The absorption vector holds
    [P^r]_{k0} for r = 0, 1, ..., horizon, extended eagerly at build time until
    the tail 1 - [P^r]_{k0} drops below ABSORPTION_TAIL, so the object is
    immutable afterwards and safe to share between threads.

    absorbed_received[i] is the sum, over the outcomes of one round from state
    i that absorb, of packets received times probability, averaged over the
    randomized transmit count like the row itself; matrix[i, 0] is the matching
    total probability, so their ratio is the mean received count given
    absorption.
    """

    def __init__(self, channel, coding, matrix, absorption, absorbed_received):
        self.channel = channel
        self.coding = coding
        self.k = coding.k
        self.matrix = matrix
        self.absorbed_received = absorbed_received
        self._absorption = absorption

    @property
    def horizon(self):
        """Largest round index with a stored absorption probability."""
        return len(self._absorption) - 1

    def absorption_cdf(self, r):
        """Probability that a generation decodes in at most r rounds.

        r = 0 returns 0 (the chain has not moved yet). Beyond the stored
        horizon the remaining tail is below ABSORPTION_TAIL and the value is
        reported as 1.
        """
        if r < 0:
            raise ValueError(f"round count must be >= 0, got {r}")
        if r > self.horizon:
            return 1.0
        return self._absorption[r]

    def p_y(self, y):
        """Probability that a single generation needs exactly y rounds."""
        if y < 1:
            return 0.0
        return self.absorption_cdf(y) - self.absorption_cdf(y - 1)

    def p_z(self, i, z):
        """Probability that the slowest of i independent generations needs exactly z rounds."""
        if i < 1:
            raise ValueError(f"generation count must be >= 1, got {i}")
        if z < 1:
            return 0.0
        a = self.absorption_cdf(z)
        b = self.absorption_cdf(z - 1)
        # a^i - b^i factored as (a - b) * sum of a^t * b^(i-1-t): the direct
        # difference loses all significance in the tail where both cdf values
        # sit within 1e-12 of 1.
        s = 1.0
        ap = 1.0
        for _ in range(i - 1):
            ap *= a
            s = s * b + ap
        return (a - b) * s


def _pure_row(i, n, p_success):
    """Transition row for state i when exactly n packets are sent.

    Entry j (0 < j <= i) of the row is the probability of receiving i-j
    packets; entry 0 collects every outcome with at least i received. Returns
    (row, absorbed_received), the second being the sum of received count times
    probability over those absorbing outcomes.
    """
    pm = stats.binom.pmf(np.arange(0, n + 1), n, p_success)
    row = np.zeros(i + 1)
    row[1:] = pm[:i][::-1]   # receiving m < i packets leaves state i - m
    row[0] = pm[i:].sum()
    return row, float(np.arange(i, n + 1) @ pm[i:])


def build_kernel(channel, coding):
    """Build the TransitionKernel for a channel/coding pair.

    Raises NumericalError if absorption has not reached 1 - ABSORPTION_TAIL
    within MAX_ROUNDS rounds.
    """
    k = coding.k
    if k > MAX_K:
        raise ValueError(f"k = {k} exceeds the supported maximum {MAX_K}")
    p_success = 1.0 - channel.epsilon
    mat = np.zeros((k + 1, k + 1))
    mat[0, 0] = 1.0
    absorbed_received = np.zeros(k + 1)
    for i in range(1, k + 1):
        for n, w in coded_count_distribution(coding.R, i).items():
            row, received = _pure_row(i, n, p_success)
            mat[i, :i + 1] += w * row
            absorbed_received[i] += w * received
    # Row sums are 1 up to binomial pmf roundoff; keep them as computed.

    absorption = [0.0]
    v = np.zeros(k + 1)
    v[k] = 1.0
    for _ in range(MAX_ROUNDS):
        v = v @ mat
        absorption.append(float(v[0]))
        if 1.0 - v[0] < ABSORPTION_TAIL:
            break
    else:
        raise NumericalError(
            f"absorption tail still {1.0 - v[0]:.3e} after {MAX_ROUNDS} rounds "
            f"(epsilon={channel.epsilon}, k={k}, R={coding.R})")
    return TransitionKernel(channel, coding, mat, np.array(absorption), absorbed_received)
