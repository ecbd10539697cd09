"""Shared oracles for the test suite.

The oracles here are implemented independently of the module under test:
transition rows by exhaustive loss-pattern enumeration, and conditional delay
moments by direct Monte-Carlo of the timing model bucketed on (y, z), the
simulator's rounds by a scalar replay, generation by generation, of the
uniforms (and real-codec coefficient blocks) they drew, with the real-codec
rank taken by feeding every packet to the reference payload decoder (an
echelon list with systematic payloads kept apart, and a Gauss-Jordan pass
at decode), the relaxed link schedule by a float event heap, the in-order
delivery by a per-packet comparison over (generations, k) arrays, the
replications by one run per spawned seed, one after the other, the trace file
by a writer that calls repr on both float columns of every row, the delay
sums by the cell loop that reads p_Y from the kernel for every (z, y) cell
and evaluates each cell's case formula whole, the power-sum doubling by a
join of per-step tuples, the prefix-length moments by the pmf and mgf of
the prefix, the efficiency pass by exact rational arithmetic over each
round's whole law of arrivals and by the float pass over every state 1..k,
the kernel's row fill by a loop over the (n, state) pairs that fresh
binomial laws from a generator serve one by one, the absorption pass by
whole column blocks of a transposed copy of the matrix, the bounded k*
search by the selection over the whole grid's sweep, and the straggler
moments by sums of the straggler pmf.
`kernel_row` is not an oracle: it reads the kernel's own row for one (i, n).
Nor is `invoke_cli`, which runs one CLI command in-process, or
`growth_stages`, which draws the stages of a kernel grown from one Chain.
The `assert_*` functions are the comparisons with these oracles that the
tests and the full-size checks of `tests.checks` share.
"""

import contextlib
import heapq
import io
import json
import math
import statistics
import warnings
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from codedelay.cli import main
from codedelay.codec import CodedPacket
from codedelay.delay import WEIGHT_THRESHOLD, DelayMoments, expected_delay
from codedelay.gf256 import INV, MUL
from codedelay.kernel import (_ABSORPTION_BLOCK, ABSORPTION_TAIL, MAX_ROUNDS, NumericalError,
                              _transition_rows, build_kernel, check_generation_size)
from codedelay.moments import prefix_moments, straggler_moments
from codedelay.optimizer import (_TIE_REL, _warn_at_edge, _warn_dropped, default_k_range,
                                 smooth_local_maxima, sweep)
from codedelay.params import (AssumptionWarning, InputError, derive_channel, derive_coding,
                              redundancy_from_margin, split_count)
from codedelay.simulator import (SimStats, _Delivery, _link_slots, _PairStats, _Trajectories,
                                 run_coded)


# (R, p_success) of the four Latin-square cells of the `design` benchmark
# workload at their centres: epsilon 0.1187, 0.2637, 0.0462, 0.1913 with
# margins 0.195, 0.055, 0.265, 0.125, R = (1 + margin) / (1 - epsilon)
DESIGN_CHANNELS = [(redundancy_from_margin(m, e), 1.0 - e)
                   for e, m in ((0.1187, 0.195), (0.2637, 0.055), (0.0462, 0.265),
                                (0.1913, 0.125))]
# the default k grid at BDP 5 000: 37 sizes from 2 to 1024
DESIGN_GRID = default_k_range(derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=5.0))


def coded_count_distribution(R, i):
    """Distribution of the per-round transmit count for a state needing i dofs.

    R*i packets are sent on average; the fractional part is realized by
    randomizing between floor(R*i) and ceil(R*i). Returns a dict mapping count
    to probability (a single point mass when R*i is integral).
    """
    if R < 1:
        raise InputError(f"R must be >= 1, got {R}")
    if i < 1:
        raise InputError(f"i must be >= 1, got {i}")
    lo, frac = split_count(R, i)
    if frac == 0.0:
        return {lo: 1.0}
    return {lo: 1.0 - frac, lo + 1: frac}


def straggler_pmf(kern, N, z, v):
    """Probability that the last finisher of N generations sits v positions from the end.

    Conditions on the slowest of the N needing exactly z rounds; that event
    must have positive probability. The closed-form straggler moments are
    checked against sums of this pmf.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    if not (0 <= v <= N - 1):
        raise ValueError(f"v must be in [0, {N - 1}], got {v}")
    pz = kern.p_z(N, z)
    if pz <= 0.0:
        raise ValueError(f"conditioning event has zero probability (N={N}, z={z})")
    a = kern.absorption_cdf(z)
    b = kern.absorption_cdf(z - 1)
    return a ** (N - v - 1) * b ** v * kern.p_y(z) / pz


def kernel_row(i, n, p_success):
    """The row the kernel builds for state i when n >= i packets are sent.

    A kernel of size i at R = n/i, which split_count snaps to exactly n
    packets for state i, so its last row is the pure row of n.
    """
    return _transition_rows(n / i, i, p_success)[i]


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


def reference_transition_rows(R, k, p_success):
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


def reference_absorption(mat, ks):
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


def assert_same_absorption(cdfs, reference, ks):
    """kernel._absorption's cdfs of the sizes ks against reference_absorption's (its cdfs
    and failures), bit for bit: the failed sizes are those whose cdf ends ABSORPTION_TAIL
    or more below 1."""
    ref_cdfs, ref_failures = reference
    assert cdfs.keys() == ref_cdfs.keys()
    for g in ks:
        assert type(cdfs[g]) is list and np.array_equal(cdfs[g], ref_cdfs[g])
    tails = {g: 1.0 - cdf[-1] for g, cdf in cdfs.items()}
    assert {g: t for g, t in tails.items() if t >= ABSORPTION_TAIL} == ref_failures


def block_outcome(kern, ch, g):
    """Size g's absorption cdf as `block` cuts it from kern, or its NumericalError text."""
    try:
        return kern.block(derive_coding(ch, g, R=kern.coding.R)).absorption_list()
    except NumericalError as exc:
        return str(exc)


def assert_same_kernel(got, want, ch, sizes):
    """got's matrix against the leading block of want's, got's horizon, and each
    size's absorption cdf and failure message, bit for bit."""
    top = got.k
    assert np.array_equal(got.matrix, want.matrix[:top + 1, :top + 1])
    assert got.horizon == len(want._cdfs[top]) - 1
    assert got._cdfs.keys() == set(sizes)
    for g in sizes:
        assert got._cdfs[g] == want._cdfs[g]
        assert block_outcome(got, ch, g) == block_outcome(want, ch, g)


class ScriptedCoefficients:
    """Stands in for a generator's integers(): hands out prepared uint8 coefficient blocks."""

    def __init__(self, blocks):
        self._blocks = iter(blocks)

    def integers(self, low, high, size, dtype):
        block = next(self._blocks)
        assert (low, high, dtype, block.shape) == (0, 256, np.uint8, tuple(size))
        return block.copy()


class ReferenceDecoder:
    """Incremental Gaussian elimination for one generation.

    `codec.DecoderState` as it was before it kept one matrix in reduced
    row-echelon form, with no check of the packet's shape. Systematic
    arrivals are stored directly (no unit coefficient row, O(L) ingest);
    coded rows live in an echelon list and are reduced against current
    knowledge when they arrive. rank reaching k makes the generation
    decodable.
    """

    def __init__(self, generation_id, k, payload_len):
        self.generation_id = generation_id
        self.k = k
        self.payload_len = payload_len
        self.sys = {}                 # index -> payload, stored systematic values
        self.rows = []                # (coeffs, payload) echelon rows, pivot normalized to 1
        self.pivots = []              # pivot column of each row, insertion order
        self.seen_systematic = set()  # indices that arrived in systematic form
        self._decoded = None

    @property
    def rank(self):
        return len(self.sys) + len(self.rows)

    def _reduce(self, coeffs, payload):
        # Eliminate against echelon rows first (insertion order reaches a
        # fixpoint in one sweep), then against stored systematic values whose
        # columns no row can reintroduce.
        for (rc, rp), piv in zip(self.rows, self.pivots):
            c = coeffs[piv]
            if c:
                coeffs ^= MUL[c][rc]
                payload = payload ^ MUL[c][rp]
        for idx, val in self.sys.items():
            c = coeffs[idx]
            if c:
                coeffs[idx] = 0
                payload = payload ^ MUL[c][val]
        return coeffs, payload

    def ingest(self, pkt):
        """Feed one packet in; returns True when it increased the rank."""
        if pkt.generation_id != self.generation_id:
            raise ValueError(
                f"packet belongs to generation {pkt.generation_id}, "
                f"decoder handles {self.generation_id}")
        if self.rank >= self.k:
            if pkt.is_systematic:
                self.seen_systematic.add(pkt.sys_index)
            return False
        if pkt.is_systematic:
            i = pkt.sys_index
            self.seen_systematic.add(i)
            if i in self.sys:
                return False
            if i not in self.pivots:
                self.sys[i] = pkt.payload.astype(np.uint8, copy=True)
                self._decoded = None
                return True
            coeffs = np.zeros(self.k, dtype=np.uint8)
            coeffs[i] = 1
            payload = pkt.payload.astype(np.uint8, copy=True)
        else:
            coeffs = pkt.coeffs.astype(np.uint8, copy=True)
            payload = pkt.payload.astype(np.uint8, copy=True)
        coeffs, payload = self._reduce(coeffs, payload)
        if not coeffs.any():
            return False
        piv = int(np.flatnonzero(coeffs)[0])
        inv = INV[coeffs[piv]]
        self.rows.append((MUL[inv][coeffs], MUL[inv][payload]))
        self.pivots.append(piv)
        self._decoded = None
        return True

    def deliverable_prefix(self):
        """Packets deliverable before decoding: the systematic run 1..s, or k once decodable."""
        if self.rank >= self.k:
            return self.k
        s = 0
        while s in self.seen_systematic:
            s += 1
        return s

    def decode(self):
        """Recover all k payloads; requires rank == k."""
        if self.rank < self.k:
            raise ValueError(f"rank {self.rank} of {self.k}, not yet decodable")
        if self._decoded is not None:
            return self._decoded
        k, L = self.k, self.payload_len
        aug = np.zeros((k, k + L), dtype=np.uint8)
        r = 0
        for idx, val in self.sys.items():
            aug[r, idx] = 1
            aug[r, k:] = val
            r += 1
        for rc, rp in self.rows:
            aug[r, :k] = rc
            aug[r, k:] = rp
            r += 1
        # full reduction to the identity
        for col in range(k):
            piv_rows = np.flatnonzero(aug[col:, col]) + col
            if len(piv_rows) == 0:
                raise AssertionError("rank bookkeeping disagrees with the matrix")
            p = piv_rows[0]
            if p != col:
                aug[[col, p]] = aug[[p, col]]
            inv = INV[aug[col, col]]
            aug[col] = MUL[inv][aug[col]]
            for rr in range(k):
                if rr != col and aug[rr, col]:
                    aug[rr] ^= MUL[aug[rr, col]][aug[col]]
        self._decoded = aug[:, k:].copy()
        return self._decoded


class ReferenceTracker:
    """A generation's rank over GF(2^8), one `ReferenceDecoder.ingest` per packet.

    The simulator's real-codec round before it tracked ranks itself: `round`
    draws one (coded slots, k) coefficient block from rng, feeds the received
    packets in slot order (the zero combination is not fed) and returns the
    slot at which the rank reached k, or -1; `non_innovative` counts coded
    packets fed before decode that did not raise the rank.
    """

    def __init__(self, k):
        self.k = k
        self.dec = ReferenceDecoder(0, k, 0)
        self.non_innovative = 0

    @property
    def rank(self):
        return self.dec.rank

    def round(self, rng, flags, n_sys):
        k = self.k
        coeffs = rng.integers(0, 256, size=(flags.shape[0] - n_sys, k), dtype=np.uint8)
        empty = np.zeros(0, dtype=np.uint8)
        for c in np.flatnonzero(flags).tolist():
            if c < n_sys:
                self.dec.ingest(CodedPacket(0, c, None, empty))
            elif coeffs[c - n_sys].any():  # the zero combination carries nothing
                if not self.dec.ingest(CodedPacket(0, None, coeffs[c - n_sys], empty)):
                    self.non_innovative += 1
            if self.dec.rank >= k:
                return c
        return -1


class RecordingRng:
    """Passes random() and integers() through to a numpy generator and keeps every array they return.

    coefficients, when given, maps each integers() block before it is
    returned and kept, so a test can hand the simulator sparse or zero rows.
    """

    def __init__(self, rng, coefficients=None):
        self.rng = rng
        self.coefficients = coefficients
        self.draws = []

    def random(self, size=None):
        out = self.rng.random(size)
        self.draws.append(out)
        return out

    def integers(self, low, high, size=None, dtype=np.int64):
        out = self.rng.integers(low, high, size=size, dtype=dtype)
        if self.coefficients is not None:
            out = self.coefficients(out)
        self.draws.append(out)
        return out


def reference_trajectories(draws, coding, eps, g, real_codec=False):
    """(round sizes, hit, received, s, codec) of each of g generations, from recorded draws.

    Replays the draws the simulator's rounds made for one block, generation
    by generation: the round-1 extra-slot uniforms (when R*k is fractional)
    and slot matrix, then per retransmission round one extra-slot uniform
    and one row of slot uniforms per generation still short of k dofs, in
    generation order. Round 1 slots arrive when their uniform is at least
    eps, retransmitted slots when it is below 1 - eps, as the engine
    compares them. hit is the slot of the k-th dof within the generation's
    last round.

    With real_codec, every round's slot uniforms are followed by one
    coefficient block (round 1: rows for slots k..n_k_high-1), and each
    generation's dofs are its rank in a ReferenceTracker fed its own rows of
    each block; codec then holds per generation its non-innovative count and
    its rank after each round. Otherwise every arrival is a dof, and codec is
    None.
    """
    k = coding.k
    draws = iter(draws)
    n = [coding.n_k_low] * g
    if coding.frac > 0.0:
        n = [coding.n_k_low + int(f < coding.frac) for f in next(draws)]
    u = next(draws)
    rounds = [[n_j] for n_j in n]
    flags = [[bool(x >= eps) for x in u[j, :n[j]]] for j in range(g)]
    s = [(f[:k] + [False]).index(False) for f in flags]
    received = [sum(f) for f in flags]
    hit = [0] * g
    dofs = [0] * g
    if real_codec:
        trackers = [ReferenceTracker(k) for _ in range(g)]
        history = [[] for _ in range(g)]

    def feed(j, f, n_sys, block, row):
        """Generation j's round with receive flags f; block[row] holds its coefficient rows."""
        if real_codec:
            coeffs = ScriptedCoefficients([block[row, :len(f) - n_sys]])
            got = trackers[j].round(coeffs, np.array(f, dtype=bool), n_sys)
            dofs[j] = trackers[j].rank
            history[j].append(dofs[j])
        else:
            arrivals = [i for i, x in enumerate(f) if x]
            got = arrivals[k - dofs[j] - 1] if dofs[j] + len(arrivals) >= k else -1
            dofs[j] = min(dofs[j] + len(arrivals), k)
        if got >= 0:
            hit[j] = got

    block = next(draws) if real_codec else None
    for j in range(g):
        feed(j, flags[j], k, block, j)
    while min(dofs) < k:
        active = [j for j in range(g) if dofs[j] < k]
        extra, slots = next(draws), next(draws)
        block = next(draws) if real_codec else None
        for row, j in enumerate(active):
            lo, frac = split_count(coding.R, k - dofs[j])
            size = lo + int(extra[row] < frac)
            f = [bool(x < 1.0 - eps) for x in slots[row, :size]]
            rounds[j].append(size)
            received[j] += sum(f)
            feed(j, f, 0, block, row)
    codec = [(t.non_innovative, h) for t, h in zip(trackers, history)] if real_codec else None
    return rounds, hit, received, s, codec


def replayed_block(rounds, hit, received, s, codec):
    """The _Trajectories block that a reference_trajectories replay describes."""
    def col(values):
        return np.array(values, dtype=np.int64)

    return _Trajectories(
        n=col([r[0] for r in rounds]), s=col(s), y=col([len(r) for r in rounds]), hit=col(hit),
        received=col(received), retx=col([size for r in rounds for size in r[1:]]),
        non_innovative=None if codec is None else col([w for w, _ in codec]))


def assert_same_block(got, want):
    """Two _Trajectories blocks, field by field; a field is None in both or equal in both."""
    for name, a, b in zip(want._fields, got, want):
        assert (a is None and b is None) or np.array_equal(a, b), name


def reference_relaxed_slots(rounds, hits, t_s, t_p):
    """Start and decode slot of each generation on the relaxed mode's shared link.

    The relaxed engine's scheduler before it became an integer FIFO: a float
    heap of retransmissions keyed by the instant their feedback is back,
    (end slot)*t_s + 2*t_p, compared with the cursor's instant under a
    1e-9*t_s tolerance. rounds[j] lists generation j's round sizes, hits[j]
    the slot of its k-th dof within its last round. A retransmission that is
    available goes before the next new generation; when none is and no new
    generation is left, the cursor jumps to the first slot at or after the
    earliest availability.
    """
    n_gens = len(rounds)
    start, dec = [0] * n_gens, [0] * n_gens
    heap = []
    seq = 0
    cursor = 0
    nxt = 0
    tol = 1e-9 * t_s

    def send_round(j, r):
        nonlocal cursor, seq
        n = rounds[j][r]
        if r == len(rounds[j]) - 1:
            dec[j] = cursor + hits[j] + 1
        else:
            heapq.heappush(heap, ((cursor + n) * t_s + 2.0 * t_p, seq, j, r + 1))
            seq += 1
        cursor += n

    while nxt < n_gens or heap:
        if heap and (heap[0][0] <= cursor * t_s + tol or nxt >= n_gens):
            avail, _, j, r = heapq.heappop(heap)
            if avail > cursor * t_s + tol:
                cursor = int(math.ceil(avail / t_s - 1e-9))
            send_round(j, r)
        else:
            start[nxt] = cursor
            send_round(nxt, 0)
            nxt += 1
    return start, dec


def lane_rounds(blocks, lanes):
    """Each lane's (rounds, hits), as reference_relaxed_slots takes them, from lane-major blocks.

    blocks are _Trajectories of lanes lanes side by side; rounds[j] lists
    lane generation j's round sizes, hits[j] its hit.
    """
    out = [([], []) for _ in range(lanes)]
    for tr in blocks:
        g = tr.n.size // lanes
        retx = iter(tr.retx.tolist())
        for i, (n, y, hit) in enumerate(zip(tr.n.tolist(), tr.y.tolist(), tr.hit.tolist())):
            rounds, hits = out[i // g]
            rounds.append([n] + [next(retx) for _ in range(y - 1)])
            hits.append(hit)
    return out


def link_schedule(blocks, lanes, channel):
    """Each lane's (start, dec) slot lists from _link_slots over lane-major blocks, and the
    blocks it yielded.

    The slots are read as each block is yielded, so a block yielded before
    every lane has decoded it shows in the comparison.
    """
    slots, yielded = [([], []) for _ in range(lanes)], []
    for tr, start, dec in _link_slots(iter(blocks), lanes, channel.t_s, channel.t_p):
        yielded.append(tr)
        for (lane_start, lane_dec), s, d in zip(slots, start.reshape(lanes, -1).tolist(),
                                                dec.reshape(lanes, -1).tolist()):
            lane_start += s
            lane_dec += d
    return slots, yielded


def assert_schedule_is_the_reference(blocks, schedule, channel):
    """link_schedule's output: each block yielded once, in order, and each lane's slots as
    reference_relaxed_slots gives them."""
    slots, yielded = schedule
    assert all(tr is block for tr, block in zip(yielded, blocks, strict=True))
    for (rounds, hits), lane in zip(lane_rounds(blocks, len(slots)), slots):
        assert lane == reference_relaxed_slots(rounds, hits, channel.t_s, channel.t_p)


class ReferenceDelivery(_Delivery):
    """simulator._Delivery as it was before it took its sums per generation.

    add compares every packet's own instant with its blocker's in floats, in
    (generations, k) arrays, and feeds the resulting per-packet (slot, hop)
    delays to _PairStats.add.
    """

    def add(self, block, start, dec_slot, dec_hops, blk_slot, blk_hops):
        g = start.size
        t_s, t_p = self.t_s, self.t_p
        cols = np.arange(self.k)
        prefix = cols[None, :] < block.s[:, None]
        dec_rel = (dec_slot - start)[:, None]
        dec_hops = np.broadcast_to(dec_hops, (g,))[:, None]
        own_f = np.where(prefix, (cols[None, :] + 1) * t_s + t_p, dec_rel * t_s + dec_hops * t_p)
        own_slot = np.where(prefix, cols[None, :] + 1, dec_rel)
        own_hops = np.where(prefix, 1, dec_hops)
        blk_rel = (blk_slot - start)[:, None]
        blk_hops = np.broadcast_to(blk_hops, (g,))[:, None]
        blocked = blk_rel * t_s + blk_hops * t_p > own_f
        d_slot = np.where(blocked, blk_rel, own_slot) - cols[None, :]
        d_hops = np.where(blocked, blk_hops, own_hops)

        ids = np.arange(self.done, self.done + g)
        window = (ids >= self.warm) & (ids < self.n_gens - self.warm)
        if window.any():
            self.accs[0].add(d_slot[window], d_hops[window])
            self.received += int(block.received[window].sum())
            if block.non_innovative is not None:
                self.non_innovative += int(block.non_innovative[window].sum())
            self.gens += int(window.sum())
            counts = np.bincount(block.y[window])
            if counts.size > self.rounds.size:
                self.rounds = np.pad(self.rounds, (0, counts.size - self.rounds.size))
            self.rounds[:counts.size] += counts
        if self.trace_parts is not None:
            self.trace_parts.append((start[:, None] + cols[None, :], d_slot * t_s + d_hops * t_p))
        self.done += g


def reference_replicate(config, reps):
    """simulator.replicate as it was before its replications became lanes of one engine call.

    One run_coded per spawned child seed, without records, one after the
    other; then their integer delay sums merged, their counts and rounds
    histograms added and se_mean taken across their means.
    """
    if reps == 1:
        return run_coded(config)
    children = np.random.SeedSequence(config.seed).spawn(reps)
    stats = [run_coded(replace(config, seed=int(ss.generate_state(1)[0]), collect_records=False))
             for ss in children]
    acc = _PairStats(config.channel.t_s, config.channel.t_p)
    for one in stats:
        acc.merge(one.delay_sums)
    info = sum(one.info_packets for one in stats)
    recv = sum(one.received_packets for one in stats)
    hist = sum((Counter(one.rounds_hist or {}) for one in stats), Counter())
    return SimStats(mean_delay=acc.mean(), std_delay=acc.std(), mean_efficiency=info / recv,
                    n_delays=acc.n, replications=reps,
                    se_mean=statistics.stdev(one.mean_delay for one in stats) / math.sqrt(reps),
                    rounds_hist=dict(sorted(hist.items())) or None, info_packets=info,
                    received_packets=recv,
                    non_innovative=sum(one.non_innovative for one in stats), delay_sums=acc)


def delay_sums(stats):
    """The count and five integer sums of a SimStats' delays, as a tuple."""
    acc = stats.delay_sums
    return acc.n, acc.sa, acc.sb, acc.saa, acc.sab, acc.sbb


def assert_same_stats(got, want):
    """Two SimStats, every field, the delay sums and each trace column equal."""
    assert replace(got, trace=None) == replace(want, trace=None)
    assert delay_sums(got) == delay_sums(want)
    if want.trace is None:
        assert got.trace is None
    else:
        for field in fields(want.trace):
            assert np.array_equal(getattr(got.trace, field.name), getattr(want.trace, field.name))


def reference_trace_csv(stats, config, out):
    """simulator.trace_csv as it was before it formatted each distinct float once."""
    cfg = {
        "epsilon": config.channel.epsilon,
        "rate_bps": config.channel.rate,
        "packet_size_bits": config.channel.packet_size,
        "t_p_s": config.channel.t_p,
        "k": config.coding.k,
        "R": config.coding.R,
        "b": config.coding.b,
        "mode": config.mode,
        "n_packets": config.n_packets,
        "seed": config.seed,
    }
    out.write("# " + json.dumps(cfg, sort_keys=True) + "\n")
    out.write("packet_id,generation_id,first_tx_slot,delivered_slot,delay_s\n")
    t = stats.trace
    columns = (t.packet_id, t.generation_id, t.first_tx_slot, t.delivered_slot, t.delay)
    out.writelines(map("{},{},{},{!r},{!r}\n".format, *(c.tolist() for c in columns)))


def assert_trace_is_the_reference(text, stats, config):
    """A trace file's text against reference_trace_csv's; a mismatch names its first line.

    (A plain assert on two traces makes pytest diff them, which takes minutes.)
    """
    expected = io.StringIO()
    reference_trace_csv(stats, config, expected)
    if text != expected.getvalue():
        got, want = text.splitlines(True), expected.getvalue().splitlines(True)
        line = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                    min(len(got), len(want)))
        raise AssertionError(f"line {line}: {got[line:line + 1]} != {want[line:line + 1]}")


def reference_power_sums(d, n):
    """moments._power_sums as it was before it updated the sums in place: a join of tuples."""
    if n <= 0:
        return 0.0, 0.0, 0.0, 0.0
    ld = math.log1p(-d) if d < 1.0 else -math.inf

    def join(lo, hi, m):
        # sums of lo over [0, m) followed by those of hi shifted to start at m
        r, mf = math.exp(m * ld), float(m)
        h0, h1, h2, h3 = hi
        return (lo[0] + r * h0,
                lo[1] + r * (h1 + mf * h0),
                lo[2] + r * (h2 + mf * (2.0 * h1 + mf * h0)),
                lo[3] + r * (h3 + mf * (3.0 * h2 + mf * (3.0 * h1 + mf * h0))))

    one = (1.0, 0.0, 0.0, 0.0)   # the sums over [0, 1), for the leading bit of n
    g, m = one, 1
    for bit in bin(n)[3:]:
        g, m = join(g, g, m), 2 * m
        if bit == "1":
            g, m = join(g, one, m), m + 1
    return g


def _case_mean(y, z, k, n_k, t_s, t_p, pm, vm):
    """Mean delay conditioned on (Y=y, Z=z). vm is needed only when z > 1."""
    if z == 1:
        if y == 1:
            return (t_s / (2.0 * k)) * (pm.s1_2 - (2.0 * k + 1.0) * pm.s1_1
                                        + k * (k + 3.0)) + t_p
        return (((1.0 / (2.0 * k)) * pm.s2_2
                 - ((2.0 * n_k - 1.0) / (2.0 * k)) * pm.s2_1
                 + n_k - 0.5 * k + 0.5) * t_s
                - ((2.0 / k) * (y - 1.0) * pm.s2_1 - 2.0 * y + 1.0) * t_p)
    if z > y:
        return (2.0 * z - 1.0) * t_p - (vm.v1 * n_k + (k - 1.0) / 2.0) * t_s
    return (((2.0 * (z - y) / k) * pm.s2_1 + 2.0 * y - 1.0) * t_p
            - ((n_k / k) * (vm.v1 + 1.0) * pm.s2_1 - n_k + 0.5 * k - 0.5) * t_s)


def _case_second(y, z, k, n_k, t_s, t_p, pm, vm):
    """Second moment of the delay conditioned on (Y=y, Z=z)."""
    if z == 1:
        if y == 1:
            return (t_p ** 2 + (k + 3.0) * t_p * t_s
                    + (2.0 * k * k + 9.0 * k + 13.0) / 6.0 * t_s ** 2
                    - ((k + 3.0 + 7.0 / (6.0 * k)) * t_s ** 2
                       + ((2.0 * k + 1.0) / k) * t_p * t_s) * pm.s1_1
                    + (((2.0 * k + 3.0) / (2.0 * k)) * t_s ** 2
                       + (1.0 / k) * t_p * t_s) * pm.s1_2
                    - t_s ** 2 / (3.0 * k) * pm.s1_3)
        return ((n_k * (n_k - k + 1.0)
                 + (2.0 * k ** 3 - 3.0 * k * k + k + 6.0) / (6.0 * k)) * t_s ** 2
                + (2.0 * n_k * (2.0 * y - 1.0) - 2.0 * y * (k - 1.0)
                   + k - 1.0 + 2.0 / k) * t_p * t_s
                + (1.0 / (2.0 * k)) * ((2.0 * n_k + 1.0) * t_s ** 2
                                       + 2.0 * (2.0 * y - 1.0) * t_p * t_s) * pm.s2_2
                - t_s ** 2 / (3.0 * k) * pm.s2_3
                - (1.0 / k) * ((n_k * n_k + n_k + 1.0 / 6.0) * t_s ** 2
                               + (2.0 * y - 1.0) * (2.0 * n_k + 1.0) * t_p * t_s
                               + (2.0 * y - 1.0) ** 2 * t_p ** 2) * pm.s2_1
                + ((2.0 * y - 1.0) ** 2 + 1.0 / k) * t_p ** 2)
    if z > y:
        return ((n_k * n_k * vm.v2
                 + (k - 1.0) * (n_k * vm.v1 + k / 3.0 - 1.0 / 6.0)) * t_s ** 2
                - (2.0 * z - 1.0) * (2.0 * n_k * vm.v1 + k - 1.0) * t_p * t_s
                + (2.0 * z - 1.0) ** 2 * t_p ** 2)
    return ((2.0 * y - 1.0) * ((2.0 * n_k - k + 1.0) * t_s * t_p
                               + (2.0 * y - 1.0) * t_p ** 2)
            + (n_k * (n_k - k + 1.0)
               + (2.0 * k * k - 3.0 * k + 1.0) / 6.0) * t_s ** 2
            + (1.0 / k) * (n_k * (vm.v1 + 1.0) * t_s ** 2
                           + 2.0 * (y - z) * t_p * t_s) * pm.s2_2
            + (1.0 / k) * (n_k * (n_k * (vm.v2 - 1.0) - vm.v1 - 1.0) * t_s ** 2
                           - 2.0 * (n_k * (vm.v1 * (2.0 * z - 1.0)
                                           + (2.0 * y - 1.0)) + y - z) * t_p * t_s
                           - 4.0 * (y - z) * (y + z - 1.0) * t_p ** 2) * pm.s2_1)



def reference_delay_cells(channel, coding, kern, weight_threshold=WEIGHT_THRESHOLD):
    """(y, z, weight, mean, second moment) of each cell the delay sums evaluate, in order.

    The mean and second moment are the delay's, conditioned on (Y=y, Z=z).
    """
    k = coding.k
    n_k = coding.R * k
    t_s, t_p = channel.t_s, channel.t_p
    pm = prefix_moments(channel.epsilon, k)
    blockers = coding.b - 1
    horizon = kern.horizon
    for z in range(1, horizon + 1):
        if blockers == 0:
            if z > 1:
                break
            wz = 1.0
        else:
            wz = kern.p_z(blockers, z)
            if wz <= 0.0:
                continue
        vm = straggler_moments(kern, blockers, z) if z > 1 else None
        for y in range(1, horizon + 1):
            w = kern.p_y(y) * wz
            if w < weight_threshold:
                continue
            yield (y, z, w, _case_mean(y, z, k, n_k, t_s, t_p, pm, vm),
                   _case_second(y, z, k, n_k, t_s, t_p, pm, vm))


def reference_expected_delay(channel, coding, kern, weight_threshold=WEIGHT_THRESHOLD):
    """delay.expected_delay as it was before it took p_Y once and skipped whole z rows."""
    mean_terms = []
    second_terms = []
    weight_total = 0.0
    evaluated = 0
    for _, _, w, d1, d2 in reference_delay_cells(channel, coding, kern, weight_threshold):
        mean_terms.append(w * d1)
        second_terms.append(w * d2)
        weight_total += w
        evaluated += 1
    mean = math.fsum(mean_terms)
    second = math.fsum(second_terms)
    return DelayMoments(mean=mean, second_moment=second,
                        variance=max(second - mean * mean, 0.0),
                        truncated_mass=float(1.0 - weight_total),
                        terms_evaluated=evaluated)


def grid_blocks(channel, R):
    """(channel, coding, kernel) at each size of channel's default grid, each kernel a block
    of one shared kernel, as a sweep evaluates them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        codings = [derive_coding(channel, k, R=R) for k in default_k_range(channel)]
    shared = build_kernel(channel, codings[-1], [cd.k for cd in codings])
    return [(channel, cd, shared.block(cd)) for cd in codings]


def reference_k_star(channel, R, k_range=None):
    """optimizer.k_star as it was before it stopped early: the selection over the whole sweep,
    with k_star's warnings about the sizes derive_coding rejects and about where k* lies."""
    records = smooth_local_maxima(sweep(channel, R, k_range))
    accepted, dropped = [], {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        for rec in records:
            try:
                check_generation_size(derive_coding(channel, rec.k, R=R).k)
                accepted.append(rec.k)
            except InputError as exc:
                dropped[rec.k] = str(exc)
    if dropped:
        _warn_dropped(len(records), list(dropped), next(iter(dropped.values())))
    valid = [r for r in records if r.error is None]
    if not valid:
        raise ValueError("every sweep point failed; no k* exists")
    best = min(r.smoothed_mean for r in valid)
    tol = _TIE_REL * abs(best)
    winner = min((r for r in valid if r.smoothed_mean <= best + tol),
                 key=lambda r: r.k)
    _warn_at_edge(channel, R, accepted[-1], winner.k)
    return winner.k, winner


def counting_delay(seen, full=expected_delay):
    """optimizer.expected_delay, adding the size of each point it evaluates to `seen`."""
    def counting(channel, coding, *args, **kwargs):
        seen.append(coding.k)
        return full(channel, coding, *args, **kwargs)
    return counting


@st.composite
def growth_stages(draw, k_max=700):
    """2-5 stages of generation sizes for kernels grown from one Chain.

    A stage is its top size and up to four sizes below it. Most tops pass
    the largest size built so far, and then the sizes lie above it, as a
    k* stage's do; a step of 0 asks again for a size already built. A stage
    of a top alone is common.
    """
    stages, built = [], 0
    for step in draw(st.lists(st.integers(0, k_max // 2), min_size=2, max_size=5)):
        top = min(max(built + step, 1), k_max)
        lo = built + 1 if top > built else 1
        stages.append(sorted({top, *draw(st.lists(st.integers(lo, top), max_size=4))}))
        built = max(built, top)
    return stages


def reference_received_by_state(kern):
    """The bottom-up pass over every state 1..k, kept as the reference that any
    faster efficiency._received_by_state must match bit for bit."""
    k = kern.k
    mat = kern.matrix
    lo, frac = split_count(kern.coding.R, np.arange(k + 1))
    received = (lo + frac) * (1.0 - kern.channel.epsilon)
    em = np.zeros(k + 1)
    for i in range(1, k + 1):
        row = mat[i, 1:i]
        denom = mat[i, 0] + row.sum()
        if denom <= 0.0:
            raise ValueError(f"state {i} cannot progress (self-transition probability 1)")
        em[i] = (received[i] + row @ em[1:i]) / denom
    return em


def assert_same_efficiency(res, ref, ks):
    """An EfficiencyResult against reference_received_by_state's values ref: every state,
    and the expected count and eta at each size in ks, bit for bit."""
    for g in ks:
        assert res.at(g).expected_received == ref[g]
        assert res.at(g).eta == min(g / ref[g], 1.0)
    assert np.isfinite(res.by_state).all()
    assert np.array_equal(res.by_state, ref)
    assert res.by_state[0] == 0.0


def exact_received_by_state(R, k, p_success):
    """Expected packets received from each state 0..k until decode, as Fractions.

    A round from state i sends n = lo or lo + 1 packets with the weights of
    split_count's float fraction, and receives m of them with the exact
    Binomial(n, p) probability of the float p_success. The round's mean
    received count sums m over that whole law, and the expectation from i
    follows from the first round: em[i] = (mean + sum_j a_ij em[j]) / (1 - a_ii).
    """
    p = Fraction(p_success)
    em = [Fraction(0)]
    for i in range(1, k + 1):
        lo, frac = split_count(R, i)
        mean, stay = Fraction(0), [Fraction(0)] * (i + 1)   # stay[j]: j dofs left, j >= 1
        for n, w in ((lo, 1 - Fraction(frac)), (lo + 1, Fraction(frac))):
            for m in range(n + 1):
                prob = w * math.comb(n, m) * p ** m * (1 - p) ** (n - m)
                mean += m * prob
                if m < i:
                    stay[i - m] += prob
        em.append((mean + sum(stay[j] * em[j] for j in range(1, i))) / (1 - stay[i]))
    return em


def _q_k(epsilon, k):
    # (1 - epsilon)^k computed in log space; exact for epsilon = 0 and
    # accurate for small epsilon or large k.
    if epsilon == 0.0:
        return 1.0
    return math.exp(k * math.log1p(-epsilon))


def prefix_pmf(epsilon, k, first_round, s):
    """Probability that the pre-loss prefix has length s.

    Parameters
    ----------
    epsilon : float
        Packet erasure probability.
    k : int
        Generation size; s ranges over [0, k].
    first_round : bool
        Whether the generation decodes within its first round. s = k (no
        systematic loss at all) is only possible in that case; otherwise the
        distribution is renormalized over s in [0, k-1].
    """
    if not (0 <= s <= k):
        raise ValueError(f"s must be in [0, {k}], got {s}")
    if first_round:
        if s == k:
            return _q_k(epsilon, k)
        return epsilon * _q_k(epsilon, s)
    if epsilon == 0.0:
        raise ValueError("the multi-round case has probability zero on a lossless channel")
    if s == k:
        return 0.0
    return epsilon * _q_k(epsilon, s) / (1.0 - _q_k(epsilon, k))


def prefix_mgf(epsilon, k, t):
    """Moment generating function of the prefix length in the first-round case."""
    q = _q_k(epsilon, k)
    ekt = math.exp(k * t)
    return epsilon * (1.0 - ekt * q) / (1.0 - math.exp(t) * (1.0 - epsilon)) + ekt * q


def _loss_patterns(n, eps):
    """(arrival count, probability) of each of the 2^n erasure patterns of n packets."""
    patterns = np.arange(1 << n, dtype=np.uint32)
    bits = (patterns[:, None] >> np.arange(n)[None, :]) & 1
    arrivals = bits.sum(axis=1)
    return arrivals, (1.0 - eps) ** arrivals * eps ** (n - arrivals)


def brute_force_row(i, n, eps):
    """Transition pmf from `i` dofs needed after one round of n packets.

    Enumerates all 2^n erasure patterns. Entry j is the probability that
    j dofs are still needed (j=0 collects every pattern with >= i arrivals).
    """
    arrivals, prob = _loss_patterns(n, eps)
    row = np.zeros(i + 1)
    left = np.maximum(i - arrivals, 0)
    np.add.at(row, left, prob)
    out = np.zeros(row.shape[0])
    out[: i + 1] = row
    return out


def mixture_row(i, R, eps):
    """Brute-force row averaged over the fractional transmit-count mixture."""
    dist = coded_count_distribution(R, i)
    row = np.zeros(i + 1)
    for n, p in dist.items():
        row += p * brute_force_row(i, n, eps)
    return row


def sample_rounds(rng, trials, coding, eps):
    """Sample (n, s, y, dec_col) for independent generations.

    Round 1 sends the R*k slot mixture; every slot is erased independently;
    while dofs are missing, each retransmission round sends the R*l mixture.
    dec_col is the slot index (within round 1) where the k-th dof arrives,
    meaningful only when y == 1.
    """
    k = coding.k
    lo, hi, frac = coding.n_k_low, coding.n_k_high, coding.frac
    n = np.full(trials, lo, dtype=np.int64)
    if frac > 0.0:
        n = n + (rng.random(trials) < frac)
    u = rng.random((trials, hi))
    recv = (u >= eps) & (np.arange(hi)[None, :] < n[:, None])
    fails = ~recv[:, :k]
    s = np.where(fails.any(axis=1), fails.argmax(axis=1), k)
    cum = np.cumsum(recv, axis=1)
    dec_col = np.argmax(cum >= k, axis=1)
    need = np.maximum(k - recv.sum(axis=1), 0)
    y = np.ones(trials, dtype=np.int64)
    active = np.flatnonzero(need)
    while active.size:
        ri = coding.R * need[active]
        rounded = np.round(ri)
        snap = np.abs(ri - rounded) < 1e-9
        base = np.where(snap, rounded, np.floor(ri))
        fr = np.where(snap, 0.0, ri - base)
        nl = base.astype(np.int64) + (rng.random(active.size) < fr)
        u2 = rng.random((active.size, int(nl.max())))
        got = ((u2 >= eps) & (np.arange(u2.shape[1])[None, :] < nl[:, None])).sum(axis=1)
        need[active] = np.maximum(need[active] - got, 0)
        y[active] += 1
        active = active[need[active] > 0]
    return n, s, y, dec_col


def _decode_offset(n, y, dec_col, t_s, t_p):
    """Decode instant relative to the generation's first slot (idealized)."""
    return np.where(y == 1, (dec_col + 1) * t_s + t_p,
                    n * t_s + t_p + (y - 1) * 2.0 * t_p)


def conditional_delay_mc(channel, coding, trials, seed):
    """Tagged-generation delay moments bucketed by the (y, z) cell.

    One tagged generation plus its b-1 immediate predecessors are sampled per
    trial; the idealized timing rules produce the tagged packets' delays, and
    z is the worst predecessor round count. Returns
    {(y, z): (samples, mean, second_moment)} with samples counted in packets.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    k, eps = coding.k, channel.epsilon
    t_s, t_p = channel.t_s, channel.t_p
    blockers = coding.b - 1
    n_t, s_t, y_t, dcol_t = sample_rounds(rng, trials, coding, eps)
    dec_tag = _decode_offset(n_t, y_t, dcol_t, t_s, t_p)
    w = np.full(trials, -np.inf)
    z = np.ones(trials, dtype=np.int64)
    offset = np.zeros(trials, dtype=np.int64)
    for _ in range(blockers):
        n_p, _, y_p, dcol_p = sample_rounds(rng, trials, coding, eps)
        offset = offset + n_p
        dec_p = _decode_offset(n_p, y_p, dcol_p, t_s, t_p) - offset * t_s
        w = np.maximum(w, dec_p)
        z = np.maximum(z, y_p)

    cols = np.arange(k)
    arrival = (cols[None, :] + 1) * t_s + t_p
    own = np.where(cols[None, :] < s_t[:, None], arrival, dec_tag[:, None])
    delivered = np.maximum(own, w[:, None])
    delays = delivered - cols[None, :] * t_s

    out = {}
    for key in np.unique(y_t * 1000 + z):
        yy, zz = int(key) // 1000, int(key) % 1000
        mask = (y_t == yy) & (z == zz)
        cell = delays[mask]
        out[(yy, zz)] = (cell.size, float(cell.mean()), float((cell ** 2).mean()))
    return out


@dataclass
class CliResult:
    """Exit code and captured streams of one in-process CLI call."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        """stdout, then stderr."""
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self):
        return self.stdout.encode()


def invoke_cli(argv):
    """Run `codedelay argv` in-process, as perfbench does; SystemExit becomes the exit code.

    Any other exception propagates, so a crash fails the calling test with its traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return CliResult(code, out.getvalue(), err.getvalue())
