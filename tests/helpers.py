"""Shared oracles for the test suite.

The oracles here are implemented independently of the module under test:
transition rows by exhaustive loss-pattern enumeration, and conditional delay
moments by direct Monte-Carlo of the timing model bucketed on (y, z), the
simulator's rounds by a scalar replay, generation by generation, of the
uniforms (and real-codec coefficient blocks) they drew, with the real-codec
rank taken by feeding every packet to the payload decoder, and the relaxed
link schedule by a float event heap.
`kernel_row` is not an oracle: it reads the kernel's own row for one (i, n).
"""

import heapq
import math

import numpy as np

from codedelay.codec import CodedPacket, DecoderState
from codedelay.kernel import _binomial_rows, _pure_row
from codedelay.params import coded_count_distribution, split_count


def kernel_row(i, n, p_success):
    """(row, absorbed_received) the kernel builds for state i when n >= i packets are sent."""
    laws = list(_binomial_rows(n, n + 1, p_success))
    return _pure_row(i, n, p_success, laws[n], laws[n - 1])


class ScriptedCoefficients:
    """Stands in for a generator's integers(): hands out prepared uint8 coefficient blocks."""

    def __init__(self, blocks):
        self._blocks = iter(blocks)

    def integers(self, low, high, size, dtype):
        block = next(self._blocks)
        assert (low, high, dtype, block.shape) == (0, 256, np.uint8, tuple(size))
        return block.copy()


class ReferenceTracker:
    """A generation's rank over GF(2^8), one `DecoderState.ingest` per packet.

    The simulator's real-codec round before it tracked ranks itself: `round`
    draws one (coded slots, k) coefficient block from rng, feeds the received
    packets in slot order (the zero combination is not fed) and returns the
    slot at which the rank reached k, or -1; `non_innovative` counts coded
    packets fed before decode that did not raise the rank.
    """

    def __init__(self, k):
        self.k = k
        self.dec = DecoderState(0, k, 0)
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


def brute_force_absorbed_received(i, n, eps):
    """Sum of arrivals times probability over the 2^n patterns with >= i arrivals."""
    arrivals, prob = _loss_patterns(n, eps)
    absorbed = arrivals >= i
    return float((arrivals[absorbed] * prob[absorbed]).sum())


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
