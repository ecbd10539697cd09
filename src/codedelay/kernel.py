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

Far from its mean a binomial pmf underflows to exact zeros, so the entries
of row i past some column last[i] are 0 (at k = 1024 only 25-69% of the
lower triangle is nonzero). The fill records that band and skips those
columns; the absorption pass reads each row in place only up to its band,
and only the rows the still-open sizes' cdfs depend on. Every skipped term
is an exact 0.0 * u that an in-order sum of non-negative terms would add,
so the cdfs are the same to the bit as those of full rows.

A grid's outputs read the rows of only some states: every state up to J,
the largest last[g] over the grid, and the grid sizes above J, whose rows
read no column past J. The kernel records those states as (J, sizes above
J), which `needed_states` lists, so that a pass over states (efficiency)
can skip the rest.
"""

import math

import numpy as np

from .params import InputError, split_count

MAX_K = 4096
ABSORPTION_TAIL = 1e-12
MAX_ROUNDS = 10_000
_ABSORPTION_BLOCK = 128   # states per reduction block in the absorption pass
_FILL_STEPS = 32          # binomial laws the row fill holds at once


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge within its configured bounds."""


def check_generation_size(k):
    """Reject a generation size the kernel does not support."""
    if k > MAX_K:
        raise InputError(f"k = {k} exceeds the supported maximum {MAX_K}")


class TransitionKernel:
    """Transition matrix plus precomputed absorption probabilities.

    The matrix is (k+1) x (k+1), row-stochastic, lower-triangular apart from
    the diagonal (dofs needed never increase). The absorption vector holds
    [P^r]_{k0} for r = 0, 1, ..., horizon, extended eagerly at build time until
    the tail 1 - [P^r]_{k0} drops below ABSORPTION_TAIL, so the object is
    immutable afterwards and safe to share between threads.

    A kernel built for a grid of generation sizes also holds the absorption
    cdf of every size in the grid; `block` cuts out the kernel of one of them.
    `needed` is (J, sizes above J) of the grid it was built for (see the
    module docstring); without it every state counts as needed.
    """

    def __init__(self, channel, coding, matrix, cdfs, failures, needed=None):
        self.channel = channel
        self.coding = coding
        self.k = coding.k
        self.matrix = matrix
        self._cdfs = cdfs            # size -> absorption cdf (partial where it failed)
        self._failures = failures    # size -> why its absorption did not converge
        self._absorption = cdfs[self.k]
        self._needed = needed if needed is not None else (self.k, ())

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
                                {k: self._cdfs[k]}, {}, self._needed)

    def needed_states(self):
        """The states 1..k whose rows an output of this kernel's grid reads, as an ascending list.

        These are 1..J and the grid sizes above J, for J the largest band
        over the grid: their rows have no nonzero entry in a column outside
        this set, so a bottom-up pass over states (efficiency) may skip the
        others. A block lists those up to its own size.
        """
        J, above = self._needed
        return [*range(1, min(J, self.k) + 1), *(g for g in above if g <= self.k)]

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


def _transition_rows(R, k, p_success):
    """Matrix rows of states 0..k, filled as n sweeps up, and each row's band.

    State i sends n = lo or lo + 1 packets (split_count), with weights w_lo
    and w_hi, and its row is w_lo*row(lo) + w_hi*row(lo + 1). In row(n),
    entry j > 0 is the Binomial(n, p_success) pmf at i - j and entry 0 the
    tail P(X >= i). Pmf and tail both follow the Pascal recurrence
    B(n, m) = q*B(n-1, m) + p*B(n-1, m-1), so every entry depends only on
    (n, m, p_success), never on k, and none is a sum over m.

    The recurrence writes each law reversed into one table slot: the tail
    at index k - m, then the pmf at 2k + 1 - m, then zeros. Row i's pmf
    entries are thus one slice ending at the pmf's m = 0, and the zeros after
    it pad every row of a pass to the same length. The table holds
    _FILL_STEPS consecutive laws whatever R is. Once it is full, every state
    whose laws lo and lo + 1 both lie in it gets its row from one gather
    over a strided window view, and the last law carries over to the next
    pass.

    Far below its mean a law's pmf underflows to exact zeros. Where law
    n - 1 is 0 at every m below some m0, both terms of the recurrence are 0
    there for law n too, so m_min, the smallest m with a nonzero pmf, never
    falls as n grows. A pass takes m_min of the first law it reads (0 if its
    pmf at m = 0 is nonzero, else one argmax), which bounds every later law
    of the pass; its gather writes only columns 1..end - m_min, for its
    largest state end, and the other entries keep np.zeros' zeros. Returns
    (mat, last): last[i] = max(i - m_min, 0) bounds the last nonzero column
    >= 1 of row i. Raises InputError for R < 1.
    """
    if not R >= 1.0:
        raise InputError(f"R must be >= 1, got {R}")
    q, p = np.array(1.0 - p_success), np.array(p_success)   # 0-d: cheaper ufunc operands
    states = np.arange(1, k + 1)
    lo, frac = split_count(R, states)
    weights = np.empty((2, k))          # of lo and lo + 1 packets
    np.subtract(1.0, frac, out=weights[0])
    weights[1] = frac
    n_top = int(lo[-1]) + 1             # the last law any state reads
    steps = min(_FILL_STEPS, n_top + 1)
    laws = 2 * (k + 1)                  # tail and pmf; the zeros past them stay 0
    table = np.zeros((steps, laws + steps))
    table[0, k] = table[0, laws - 1] = 1.0      # n = 0
    rows = list(table)
    pmf_up = slice(laws - 1, k, -1)     # a slot's pmf at m = 0, 1, ..., k
    # p * law n - 1, shifted down one index by reading it from carry[1:]; this
    # carries the pmf at m = k into the tail at m = 0, which is then reset
    carry = np.zeros(laws + steps + 1)
    scaled, shifted = carry[:-1], carry[1:]
    start = 2 * k + 2 - states          # the pmf at m = i - 1
    at_i = k - states                   # the tail at m = i
    tails = np.empty((2, k))            # P(X >= i) under lo and lo + 1
    mat = np.zeros((k + 1, k + 1))
    mat[0, 0] = 1.0
    m_mins, counts = [0], [1]           # m_min of each pass and its state count
    base, first, done = 0, 1, 0         # slot s holds law base + s
    while True:
        top = min(steps - 1, n_top - base)
        for s in range(first, top + 1):
            np.multiply(rows[s - 1], q, out=rows[s])
            np.multiply(rows[s - 1], p, out=scaled)
            np.add(rows[s], shifted, out=rows[s])
            rows[s][k] = 1.0            # P(X >= 0)
        end = int(np.searchsorted(lo, base + top - 1, side="right"))
        if end > done:
            sl = slice(done, end)       # states done + 1..end
            s = lo[sl] - base
            law = rows[s[0]]
            # q^n at m = 0 underflows only for large n; a pmf with no nonzero
            # m <= k gives 0, a valid if loose bound
            m_min = 0 if law[laws - 1] else int(np.argmax(law[pmf_up] > 0.0))
            span = end - m_min          # columns 1..span hold every nonzero pmf entry
            if span > 0:
                # win[s, start] is law base + s's pmf at i - 1, i - 2, ..., 0, then zeros
                win = np.ndarray((steps, laws + steps - span + 1, span), buffer=table,
                                 strides=(table.strides[0], table.itemsize, table.itemsize))
                block = mat[done + 1:end + 1, 1:span + 1]
                np.multiply(win[s, start[sl]], weights[0, sl, None], out=block)
                high = win[s + 1, start[sl]]
                high *= weights[1, sl, None]
                block += high
            tails[:, sl] = table[[s, s + 1], at_i[sl]]
            m_mins.append(m_min)
            counts.append(end - done)
            done = end
        if base + top == n_top:
            break
        table[:1] = table[top:top + 1]
        base, first = base + top, 1
    mat[1:, 0] = weights[0] * tails[0] + weights[1] * tails[1]
    last = np.arange(k + 1)
    if m_mins[-1]:                      # m_min never falls, so this is the largest
        last -= np.repeat(m_mins, counts)
        np.maximum(last, 0, out=last)
    # Row sums are 1 up to recurrence roundoff; keep them as computed.
    return mat, last


def _blocks(n):
    """(lo, hi) runs of _ABSORPTION_BLOCK covering 0..n-1; the last takes the
    remainder, so none is one wide unless n is 1."""
    lo, runs = 0, []
    while lo < n:
        hi = n if n - lo < 2 * _ABSORPTION_BLOCK else lo + _ABSORPTION_BLOCK
        runs.append((lo, hi))
        lo = hi
    return runs


def _round_plan(mat, u, terms, last, reach, open_ks):
    """The (rows, u, terms, out) blocks one round of _absorption computes while open_ks stay open.

    J, the largest last[k] over the open sizes, bounds every column their
    rows read, and row j <= J reads only columns up to j, so rows 0..J and
    the open sizes above J are all a round needs. Rows 0..J come as views of
    the matrix, last block first, each writing into u through `out`: a block
    reads u only up to its own last row, never the rows of a block after it.
    The open sizes above J read only u[:J + 1]; their rows are gathered once
    here (a lone one twice, so that no block is one column wide) and come
    first, their sums written back by index. Row 0 is e_0, so u[0] stays 1
    and rows 0..J are left out when J is 0.
    """
    J = max(last[k] for k in open_ks)
    above = [k for k in open_ks if k > J]
    plan = []
    for lo, hi in _blocks(len(above)):
        idx = above[lo:hi] * (2 if hi - lo == 1 else 1)
        jh = max(last[k] for k in idx) + 1
        plan.append((mat[idx, :jh].T, u[:jh, None], terms[:jh, :len(idx)], idx))
    for lo, hi in reversed(_blocks(J + 1 if J else 0)):
        jh = reach[hi - 1] + 1
        plan.append((mat[lo:hi, :jh].T, u[:jh, None], terms[:jh, :hi - lo], u[lo:hi]))
    return plan


def _absorption(mat, ks, last):
    """Absorption cdf [u_0[k], ..., u_h[k]] of each k in ks, from u_r = P u_{r-1}, u_0 = e_0.

    u_r[i] = [P^r]_{i0}; k's horizon h is the first r with
    1 - u_r[k] < ABSORPTION_TAIL. last[i] bounds the last nonzero column
    >= 1 of row i, as _transition_rows returns it. Row i of the product is
    summed in column order 0..last[i] and no further: a numpy reduction over
    the outer axis of a block at least two columns wide adds its rows in
    order, and each term past last[i] would be an exact 0.0 * u[j] added to
    a sum of non-negative terms. So u_r[i] does not depend on how far a block
    reaches past it. Each round reads the rows in place, only the ones the
    open sizes' cdfs depend on (_round_plan), and the plan changes only when
    a size closes. Returns the cdfs and the sizes left open after MAX_ROUNDS
    rounds.
    """
    terms = np.empty((len(mat), 2 * _ABSORPTION_BLOCK))
    u = np.zeros(len(mat))
    u[0] = 1.0
    reach = np.maximum.accumulate(last).tolist()   # largest last of rows 0..i
    last = last.tolist()
    open_ks = sorted(ks)
    plan = _round_plan(mat, u, terms, last, reach, open_ks)
    at = np.array(open_ks)
    phases = [(open_ks, [])]            # each open set, with u at its sizes per round
    for _ in range(MAX_ROUNDS):
        for rows, ucol, block, out in plan:
            np.multiply(rows, ucol, out=block)
            if isinstance(out, list):
                u[out] = block.sum(axis=0)
            else:
                block.sum(axis=0, out=out)
        vals = u[at].tolist()
        phases[-1][1].append(vals)
        if 1.0 - max(vals) < ABSORPTION_TAIL:
            open_ks = [k for k, v in zip(open_ks, vals) if 1.0 - v >= ABSORPTION_TAIL]
            if not open_ks:
                break
            plan = _round_plan(mat, u, terms, last, reach, open_ks)
            at = np.array(open_ks)
            phases.append((open_ks, []))
    cdfs = {k: [0.0] for k in ks}
    for sizes, rounds in phases:
        for k, col in zip(sizes, zip(*rounds)):
            cdfs[k].extend(col)
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
    mat, last = _transition_rows(coding.R, k, 1.0 - channel.epsilon)
    cdfs, tails = _absorption(mat, grid, last)
    failures = {
        g: (f"absorption tail still {tail:.3e} after {MAX_ROUNDS} rounds "
            f"(epsilon={channel.epsilon}, k={g}, R={coding.R})")
        for g, tail in tails.items()}
    J = int(last[grid].max())
    needed = (J, tuple(g for g in grid if g > J))
    kern = TransitionKernel(channel, coding, mat, cdfs, failures, needed)
    return kern if ks is not None else kern.block(coding)
