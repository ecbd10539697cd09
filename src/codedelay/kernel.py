"""Markov chain over the degrees of freedom still needed to decode a generation.

State i of the chain is the number of dofs the receiver still needs; one
transition is one transmission round. State 0 (decoded) is absorbing. Row i
follows from sending n_i packets over an erasure channel with loss rate
epsilon, where n_i mixes floor(R*i) and ceil(R*i) to realize the fractional
redundancy.

Row i depends only on (i, R, epsilon), never on the generation size k, so
the kernel of any k is the leading (k+1) x (k+1) block of the kernel of a
larger k. build_kernel therefore serves a whole grid of generation sizes
with one matrix, and absorption cdfs for every start state come from one
pass of u_r = P u_{r-1}.

The rows are built from the Binomial(n, 1 - epsilon) laws of n = 0..
ceil(R*k) + 1, taken by the Pascal recurrence in one sweep over n. Each law
is written reversed into a table that holds a fixed number of consecutive
laws, so that a row's pmf entries are one contiguous slice of it. Whenever
the table is full, every state whose laws it holds gets its row from one
gather over a strided window view; no Python code runs per state.

The absorption pass reads the rows in place, a block of rows at a time.
The matrix is lower-triangular, so a block's rows read u only up to the
block's own last row; taken last block first, each block writes its sums
straight into u, where no block still to come reads them.

A kernel can grow. Rows, binomial laws, absorption values u_r[i] and the
efficiency pass's values depend only on (state, epsilon, R), so a Chain
keeps them for one (epsilon, R), and a larger kernel built from it
computes only what the chain lacks: the fill starts from the law n = k of
the last kernel, the absorption pass sums only the states above those the
chain keeps for each round, and the efficiency pass starts above the
states it has. What the chain keeps of the absorption is a per-round
history, u_r at states 0..t_r, within a byte budget (_HISTORY_BYTES, or
none for a kernel built alone); a round past the budget is summed again by
the same pass. A grown kernel equals, bit for bit, one built in one go.
"""

import math

import numpy as np

from .params import InputError, split_count

MAX_K = 4096
ABSORPTION_TAIL = 1e-12
MAX_ROUNDS = 10_000
_ABSORPTION_BLOCK = 128   # states per reduction block in the absorption pass
_FILL_STEPS = 32          # binomial laws the row fill holds at once
_HISTORY_BYTES = 1 << 20  # absorption rounds a Chain keeps for the kernels that continue it
_NONE = np.empty(0)
_add_reduce = np.add.reduce   # ndarray.sum(axis, out) without its Python wrapper


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge within its configured bounds."""


def check_generation_size(k):
    """Reject a generation size the kernel does not support."""
    if k > MAX_K:
        raise InputError(f"k = {k} exceeds the supported maximum {MAX_K}")


class Chain:
    """The chain of one (epsilon, R), as far as the kernels built from it reach.

    Everything it holds depends only on (epsilon, R) and on the state, law
    or round it belongs to, never on a kernel's size, so a larger kernel
    continues it where the last one stopped, bit for bit:
    - `matrix`, the rows of states 0..k of the largest kernel built;
    - `law`, the tail and pmf of the binomial law n = k at m = k..0;
    - `rounds`, u_r at states 0..t_r for absorption rounds r = 1, 2, ...,
      up to round_bytes in all; a state past them is summed again;
    - `em`, the efficiency pass's expected received count of states 0..j.
    build_kernel, and efficiency for the kernels it returns, extend it.
    They replace `matrix`, `law` and `em` rather than change them in place,
    so a kernel built earlier still reads the rows it was built from.
    """

    key = None                          # (epsilon, R), once a kernel is built
    matrix = np.ones((1, 1))            # state 0 is absorbing
    law = np.ones((2, 1))               # law 0: tail and pmf 1 at m = 0
    em = np.zeros(1)

    def __init__(self, round_bytes=_HISTORY_BYTES):
        self.rounds = []
        self.room = round_bytes         # bytes of rounds it may still keep

    @property
    def k(self):
        """Largest state whose row the chain holds."""
        return len(self.matrix) - 1


class TransitionKernel:
    """Transition matrix plus precomputed absorption probabilities.

    The matrix is (k+1) x (k+1), row-stochastic, lower-triangular apart from
    the diagonal (dofs needed never increase). The absorption vector holds
    [P^r]_{k0} for r = 0, 1, ..., horizon, extended eagerly at build time until
    the tail 1 - [P^r]_{k0} drops below ABSORPTION_TAIL, so the object is
    immutable afterwards. Its `chain` is not: efficiency leaves its values
    there, replacing the chain's em array by a longer one with the same
    leading entries, so sharing the kernel between threads can at worst
    repeat that pass.

    A kernel built for a grid of generation sizes also holds the absorption
    cdf of every size in the grid; `block` cuts out the kernel of one of them.
    """

    def __init__(self, channel, coding, matrix, cdfs, failures, chain=None):
        self.channel = channel
        self.coding = coding
        self.k = coding.k
        self.matrix = matrix
        self._cdfs = cdfs            # size -> absorption cdf (partial where it failed)
        self._failures = failures    # size -> why its absorption did not converge
        self._absorption = cdfs[self.k]
        self.chain = Chain(0) if chain is None else chain   # what efficiency continues

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
                                {k: self._cdfs[k]}, {}, self.chain)

    @property
    def horizon(self):
        """Largest round index with a stored absorption probability."""
        return len(self._absorption) - 1

    def absorption_list(self):
        """The stored absorption cdf, [P(Y <= r) for r = 0..horizon], as a list."""
        return self._absorption.tolist()

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
        """Probability that the slowest of i independent generations needs exactly z rounds.

        That is a^i - b^i for the cdf a at z and b at z-1, evaluated as
        a^i * -expm1(i * log1p(-(a-b)/a)), which keeps every digit in the tail
        where both sit within 1e-12 of 1 and the direct difference cancels.
        """
        if i < 1:
            raise ValueError(f"generation count must be >= 1, got {i}")
        if z < 1:
            return 0.0
        return slowest_pmf(i, self.absorption_cdf(z), self.absorption_cdf(z - 1))


def slowest_pmf(i, a, b):
    """a^i - b^i, the law of the slowest of i generations at z, for the cdf a at z and b at z-1.

    Evaluated as a^i * -expm1(i * log1p(-(a-b)/a)); see TransitionKernel.p_z.
    """
    if a - b == a:
        # b is 0 or below a's resolution, where (a-b)/a is exactly 1
        return a ** i
    return a ** i * -math.expm1(i * math.log1p(-(a - b) / a))


def _transition_rows(R, k, p_success, chain=None):
    """Matrix rows of states 0..k, filled as n sweeps up; continues `chain`.

    State i sends n = lo or lo + 1 packets (split_count), with weights w_lo
    and w_hi, and its row is w_lo*row(lo) + w_hi*row(lo + 1). In row(n),
    entry j > 0 is the Binomial(n, p_success) pmf at i - j and entry 0 the
    tail P(X >= i). Pmf and tail both follow the Pascal recurrence
    B(n, m) = q*B(n-1, m) + p*B(n-1, m-1), so every entry depends only on
    (n, m, p_success), never on k, and none is a sum over m.

    The chain holds the rows of states 0..k0 and the law n = k0, whose
    entries past m = k0 are zero, so the fill takes up the recurrence from
    there: states above k0 send at least k0 + 1 packets. Laws k0 + 1 up to
    the last one the chain's fill reached are taken again at the new width,
    since they lack their entries m > k0. A fresh chain has k0 = 0.

    The recurrence writes each law reversed into one table slot: the tail
    at index k - m, then the pmf at 2k + 1 - m, then zeros. Row i's pmf
    entries are thus one slice ending at the pmf's m = 0, and the zeros after
    it pad every row of a pass to the same length. The table holds
    _FILL_STEPS consecutive laws whatever R is. Once it is full, every state
    whose laws lo and lo + 1 both lie in it gets its row from one gather
    over a strided window view into columns 1..end, for the pass's largest
    state end, and the last law carries over to the next pass. Raises
    InputError for R < 1.
    """
    if not R >= 1.0:
        raise InputError(f"R must be >= 1, got {R}")
    chain = Chain(0) if chain is None else chain
    k0 = chain.k
    if k <= k0:
        return chain.matrix[:k + 1, :k + 1]
    q, p = np.array(1.0 - p_success), np.array(p_success)   # 0-d: cheaper ufunc operands
    states = np.arange(k0 + 1, k + 1)
    lo, frac = split_count(R, states)
    weights = np.empty((2, k - k0))     # of lo and lo + 1 packets
    np.subtract(1.0, frac, out=weights[0])
    weights[1] = frac
    n_top = int(lo[-1]) + 1             # the last law any state reads
    steps = min(_FILL_STEPS, n_top - k0 + 1)
    laws = 2 * (k + 1)                  # tail and pmf; the zeros past them stay 0
    table = np.zeros((steps, laws + steps))
    # law k0: its tail and pmf, reversed, end at m = 0 as at width k0
    table[0, :laws].reshape(2, k + 1)[:, k - k0:] = chain.law
    rows = list(table)
    # p * law n - 1, shifted down one index by reading it from carry[1:]; this
    # carries the pmf at m = k into the tail at m = 0, which is then reset
    carry = np.zeros(laws + steps + 1)
    scaled, shifted = carry[:-1], carry[1:]
    start = 2 * k + 2 - states          # the pmf at m = i - 1
    at_i = k - states                   # the tail at m = i
    tails = np.empty((2, k - k0))       # P(X >= i) under lo and lo + 1
    mat = np.zeros((k + 1, k + 1))
    mat[:k0 + 1, :k0 + 1] = chain.matrix
    base, first, done = k0, 1, 0        # slot s holds law base + s; done states above k0 are filled
    while True:
        top = min(steps - 1, n_top - base)
        for s in range(first, top + 1):
            np.multiply(rows[s - 1], q, out=rows[s])
            np.multiply(rows[s - 1], p, out=scaled)
            np.add(rows[s], shifted, out=rows[s])
            rows[s][k] = 1.0            # P(X >= 0)
        if base < k <= base + top:
            law = rows[k - base][:laws].reshape(2, k + 1).copy()
        end = int(np.searchsorted(lo, base + top - 1, side="right"))
        if end > done:
            sl = slice(done, end)       # states k0 + done + 1..k0 + end
            s = lo[sl] - base
            last = k0 + end             # the pass's largest state
            # win[s, start] is law base + s's pmf at i - 1, i - 2, ..., 0, then zeros
            win = np.ndarray((steps, laws + steps - last + 1, last), buffer=table,
                             strides=(table.strides[0], table.itemsize, table.itemsize))
            block = mat[k0 + done + 1:last + 1, 1:last + 1]
            np.multiply(win[s, start[sl]], weights[0, sl, None], out=block)
            high = win[s + 1, start[sl]]
            high *= weights[1, sl, None]
            block += high
            tails[:, sl] = table[[s, s + 1], at_i[sl]]
            done = end
        if base + top == n_top:
            break
        table[:1] = table[top:top + 1]
        base, first = base + top, 1
    mat[k0 + 1:, 0] = weights[0] * tails[0] + weights[1] * tails[1]
    # Row sums are 1 up to recurrence roundoff; keep them as computed.
    chain.matrix, chain.law = mat, law
    return mat


def _blocks(lo, n):
    """(lo, hi) runs of _ABSORPTION_BLOCK covering lo..n-1, for n >= 2; the last
    takes the remainder, and a run of one state starts a state lower, so none
    is one wide."""
    lo, runs = min(lo, n - 2), []
    while lo < n:
        hi = n if n - lo < 2 * _ABSORPTION_BLOCK else lo + _ABSORPTION_BLOCK
        runs.append((lo, hi))
        lo = hi
    return runs


def _absorption(mat, ks, chain=None):
    """Absorption cdf [u_0[k], ..., u_h[k]] of each k in ks, from u_r = P u_{r-1}, u_0 = e_0.

    u_r[i] = [P^r]_{i0}; k's horizon h is the first r with
    1 - u_r[k] < ABSORPTION_TAIL. Each round needs the states up to the
    largest size still open. Those the chain holds for the round (its
    `rounds`, u_r at states 0..t_r from earlier kernels) are read from it;
    the rest are summed from the rows, in blocks read in place as views of
    the matrix, last block first: block rows lo..hi-1 read u only up to
    hi - 1, so each block writes its sums straight into u before the held
    states are copied in. Row i of the product is summed in column order
    0..i (a numpy reduction over the outer axis of a block at least two
    columns wide adds its rows in order), so u_r[i] does not depend on how
    the blocks are cut, or on which kernel summed it. Each round's u, where
    it reaches past what the chain holds, goes to the chain while its
    budget (`room`) lasts. Returns the cdfs and the sizes left open after
    MAX_ROUNDS rounds.
    """
    chain = Chain(0) if chain is None else chain
    held = chain.rounds
    terms = np.empty((len(mat), 2 * _ABSORPTION_BLOCK))
    u = np.zeros(len(mat))
    u[0] = 1.0
    open_ks = sorted(ks)
    phases = []                         # each open set, with u at its sizes per round
    rounds = 0
    while open_ks and rounds < MAX_ROUNDS:
        top = open_ks[-1]
        plans = {}                      # by the first state to sum
        at = np.array(open_ks)
        kept = u[:top + 1]
        per_round = []
        phases.append((open_ks, per_round))
        while rounds < MAX_ROUNDS:
            known = held[rounds] if rounds < len(held) else _NONE
            rounds += 1
            have = len(known)
            if have > top:
                u[:top + 1] = known[:top + 1]
            else:
                plan = plans.get(have)
                if plan is None:
                    plan = plans[have] = [
                        (mat[lo:hi, :hi].T, u[:hi, None], terms[:hi, :hi - lo], u[lo:hi])
                        for lo, hi in reversed(_blocks(have, top + 1))]
                for rows, ucol, block, out in plan:
                    np.multiply(rows, ucol, out=block)
                    _add_reduce(block, 0, None, out)
                if have:
                    u[:have] = known
                # keep u_r, which reaches past what the chain holds, if there is room
                grown = 8 * (top + 1 - have)
                if grown <= chain.room and rounds <= len(held) + 1:
                    if rounds > len(held):
                        held.append(kept.copy())
                    else:
                        held[rounds - 1] = kept.copy()
                    chain.room -= grown
            vals = u[at].tolist()
            per_round.append(vals)
            if 1.0 - max(vals) < ABSORPTION_TAIL:
                open_ks = [k for k, v in zip(open_ks, vals) if 1.0 - v >= ABSORPTION_TAIL]
                break
    cdfs = {k: [0.0] for k in ks}
    for sizes, per_round in phases:
        for k, col in zip(sizes, zip(*per_round)):
            cdfs[k].extend(col)
    return {k: np.array(c) for k, c in cdfs.items()}, {k: 1.0 - u[k] for k in open_ks}


def build_kernel(channel, coding, ks=None, chain=None):
    """Build the TransitionKernel for a channel/coding pair.

    ks lists further generation sizes up to coding.k whose kernels will be
    cut from this one with `block`; their absorption cdfs come from the same
    pass as coding.k's own. Without ks, raises NumericalError if absorption
    has not reached 1 - ABSORPTION_TAIL within MAX_ROUNDS rounds; with ks,
    `block` raises it for each size that did not converge.

    chain is a Chain of this epsilon and R to continue, say the one earlier
    kernels of a k* search were built from; the kernel then computes only
    the rows, absorption rounds and efficiency values the chain lacks, and
    equals, bit for bit, a kernel built without it.
    """
    k = coding.k
    check_generation_size(k)
    grid = sorted({k, *(ks or ())})
    if grid[0] < 1 or grid[-1] > k:
        raise ValueError(f"grid sizes must lie in [1, {k}], got {grid[0]}..{grid[-1]}")
    # a kernel built alone is continued by none, so its chain keeps no rounds
    chain = Chain(0) if chain is None else chain
    key = (channel.epsilon, coding.R)
    if chain.key not in (None, key):
        raise ValueError(f"the chain is of (epsilon, R) = {chain.key}, not {key}")
    mat = _transition_rows(coding.R, k, 1.0 - channel.epsilon, chain)
    chain.key = key
    cdfs, tails = _absorption(mat, grid, chain)
    failures = {
        g: (f"absorption tail still {tail:.3e} after {MAX_ROUNDS} rounds "
            f"(epsilon={channel.epsilon}, k={g}, R={coding.R})")
        for g, tail in tails.items()}
    if ks is None and failures:
        raise NumericalError(failures[k])
    return TransitionKernel(channel, coding, mat, cdfs, failures, chain)
