"""Markov chain over the degrees of freedom still needed to decode a generation.

State i of the chain is the number of dofs the receiver still needs; one
transition is one transmission round. State 0 (decoded) is absorbing. Row i
follows from sending n_i packets over an erasure channel with loss rate
epsilon, where n_i mixes floor(R*i) and ceil(R*i) to realize the fractional
redundancy.

Row i depends only on (i, R, epsilon), never on the generation size k, so
the kernel of any k is the leading (k+1) x (k+1) block of the kernel of a
larger k. build_kernel therefore serves a whole grid of generation sizes
with one matrix: binomial rows come from the Pascal recurrence as n sweeps
0..ceil(R*k), and absorption cdfs for every start state come from one pass
of u_r = P u_{r-1}. Besides the rows, the recurrence yields the
received-count-weighted mass of the absorbing transition, which the kernel
stores per state so that the efficiency module can read packets-received
expectations without evaluating a pmf.
"""

import numpy as np

from .params import coded_count_distribution

MAX_K = 4096
ABSORPTION_TAIL = 1e-12
MAX_ROUNDS = 10_000
_ABSORPTION_BLOCK = 128   # states per reduction block in the absorption pass


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge within its configured bounds."""


def check_generation_size(k):
    """Reject a generation size the kernel does not support."""
    if k > MAX_K:
        raise ValueError(f"k = {k} exceeds the supported maximum {MAX_K}")


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

    A kernel built for a grid of generation sizes also holds the absorption
    cdf of every size in the grid; `block` cuts out the kernel of one of them.
    """

    def __init__(self, channel, coding, matrix, absorbed_received, cdfs, failures):
        self.channel = channel
        self.coding = coding
        self.k = coding.k
        self.matrix = matrix
        self.absorbed_received = absorbed_received
        self._cdfs = cdfs            # size -> absorption cdf (partial where it failed)
        self._failures = failures    # size -> why its absorption did not converge
        self._absorption = cdfs[self.k]

    def block(self, coding):
        """Kernel for coding.k, one of the sizes this kernel was built for.

        Its matrix is the leading (k+1) x (k+1) block of this one (a view) and
        its absorption cdf is that size's own. Raises NumericalError if that
        size's absorption did not converge.
        """
        k = coding.k
        if k not in self._cdfs or coding.R != self.coding.R:
            raise ValueError(f"k = {k}, R = {coding.R} is not among the sizes this "
                             f"kernel was built for")
        if k in self._failures:
            raise NumericalError(self._failures[k])
        return TransitionKernel(self.channel, coding, self.matrix[:k + 1, :k + 1],
                                self.absorbed_received[:k + 1], {k: self._cdfs[k]}, {})

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


def _binomial_rows(n_max, width, p_success):
    """Binomial(n, p_success) laws for n = 0..n_max, by the Pascal recurrence.

    Yields one fresh (2, width) array per n: row 0 is the pmf P(X = m) and
    row 1 the tail P(X >= m), for m = 0..width-1. Both obey
    B(n, m) = q*B(n-1, m) + p*B(n-1, m-1), so every entry depends only on
    (n, m, p), not on width, and no entry is a sum or difference over m.
    """
    q = 1.0 - p_success
    cur = np.zeros((2, width))
    cur[:, 0] = 1.0
    yield cur
    for _ in range(n_max):
        nxt = q * cur
        nxt[:, 1:] += p_success * cur[:, :-1]
        nxt[1, 0] = 1.0   # P(X >= 0)
        cur = nxt
        yield cur


def _pure_row(i, n, p_success, law, prev_law):
    """Transition row for state i when exactly n >= i packets are sent.

    law and prev_law are the _binomial_rows entries of n and n - 1. Entry j
    (0 < j <= i) of the row is the probability of receiving i-j packets;
    entry 0 collects every outcome with at least i received. Returns
    (row, absorbed_received), the second being the sum of received count times
    probability over those absorbing outcomes, n*p*P(Bin(n-1, p) >= i-1).
    """
    row = np.empty(i + 1)
    row[1:] = law[0, i - 1::-1]   # receiving m < i packets leaves state i - m
    row[0] = law[1, i]
    return row, n * p_success * float(prev_law[1, i - 1])


def _transition_rows(R, k, p_success):
    """Matrix rows and absorbed_received of states 0..k, filled as n sweeps up."""
    users = {}  # transmit count n -> [(state, weight)]
    for i in range(1, k + 1):
        for n, w in coded_count_distribution(R, i).items():
            users.setdefault(n, []).append((i, w))
    mat = np.zeros((k + 1, k + 1))
    mat[0, 0] = 1.0
    absorbed_received = np.zeros(k + 1)
    prev = None
    for n, law in enumerate(_binomial_rows(max(users), k + 1, p_success)):
        for i, w in users.get(n, ()):
            row, received = _pure_row(i, n, p_success, law, prev)
            mat[i, :i + 1] += w * row
            absorbed_received[i] += w * received
        prev = law
    # Row sums are 1 up to recurrence roundoff; keep them as computed.
    return mat, absorbed_received


def _absorption(mat, ks):
    """Absorption cdf [u_0[k], ..., u_h[k]] of each k in ks, from u_r = P u_{r-1}, u_0 = e_0.

    u_r[i] = [P^r]_{i0} for every start state i at once; k's horizon h is the
    first r with 1 - u_r[k] < ABSORPTION_TAIL. Row i of the product is summed
    in column order 0..i (a numpy reduction over the outer axis of a block at
    least two columns wide adds its rows in order), so u_r[i] does not depend
    on how far the matrix extends past i. Each round touches only the states
    up to the largest size still open, in blocks of rows that skip the zero
    upper triangle. Returns the cdfs and the sizes left open after MAX_ROUNDS
    rounds.
    """
    cols = np.ascontiguousarray(mat.T)
    terms = np.empty((len(mat), 2 * _ABSORPTION_BLOCK))
    u = np.zeros(len(mat))
    u[0] = 1.0
    cdfs = {k: [0.0] for k in ks}
    open_ks = sorted(ks)
    for _ in range(MAX_ROUNDS):
        a = open_ks[-1] + 1
        new = np.empty(a)
        lo = 0
        while lo < a:
            # the last block takes the remainder, so none is one column wide
            hi = a if a - lo < 2 * _ABSORPTION_BLOCK else lo + _ABSORPTION_BLOCK
            block = np.multiply(cols[:hi, lo:hi], u[:hi, None], out=terms[:hi, :hi - lo])
            new[lo:hi] = block.sum(axis=0)
            lo = hi
        u[:a] = new
        for k in open_ks:
            cdfs[k].append(float(u[k]))
        open_ks = [k for k in open_ks if 1.0 - u[k] >= ABSORPTION_TAIL]
        if not open_ks:
            break
    return {k: np.array(c) for k, c in cdfs.items()}, {k: 1.0 - u[k] for k in open_ks}


def build_kernel(channel, coding, ks=None):
    """Build the TransitionKernel for a channel/coding pair.

    ks lists further generation sizes up to coding.k whose kernels will be
    cut from this one with `block`; their absorption cdfs come from the same
    pass as coding.k's own. Without ks, raises NumericalError if absorption
    has not reached 1 - ABSORPTION_TAIL within MAX_ROUNDS rounds; with ks,
    `block` raises it for each size that did not converge.
    """
    k = coding.k
    check_generation_size(k)
    grid = sorted({k, *(ks or ())})
    if grid[0] < 1 or grid[-1] > k:
        raise ValueError(f"grid sizes must lie in [1, {k}], got {grid[0]}..{grid[-1]}")
    mat, absorbed_received = _transition_rows(coding.R, k, 1.0 - channel.epsilon)
    cdfs, tails = _absorption(mat, grid)
    failures = {
        g: (f"absorption tail still {tail:.3e} after {MAX_ROUNDS} rounds "
            f"(epsilon={channel.epsilon}, k={g}, R={coding.R})")
        for g, tail in tails.items()}
    kern = TransitionKernel(channel, coding, mat, absorbed_received, cdfs, failures)
    return kern if ks is not None else kern.block(coding)
