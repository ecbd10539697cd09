"""Monte-Carlo simulation of the coded transport and an idealized SR-ARQ baseline.

Two coded modes share one timing convention: the packet in slot t finishes
arriving at (t+1)*t_s + t_p, and a packet's delay runs from the start of its
first transmission slot to its in-order delivery instant.

idealized mode mirrors the delay model's assumptions: retransmissions follow
feedback immediately and their transmission time is free (each extra round
costs exactly 2*t_p), and head-of-line blocking is limited to the previous
b-1 generations' decode times.

relaxed mode drops both: retransmissions occupy real slots on the shared link
(with priority over new generations) and delivery chains through every
earlier generation.

Losses are i.i.d. per slot, so a generation's rounds depend only on its own
draws, never on when they are sent. One trajectory stream, _trajectories,
draws them in generation order, and the same seed gives the same rounds in
both modes; the modes differ only in their timing map. It holds each round's
receive flags slot-major, one row per slot and one column per generation, so
every count over a generation's slots runs along rows, across all the
generations of a block at once, not along one generation's few slots: one
scan of whole-row adds, _running_counts, gives each round's running arrival
counts, and the prefix, received count, decode slot and codec width are all
read from them. The idealized map adds 2*t_p per extra round. The relaxed
map, _link_slots, is an integer schedule: a round ending at slot e frees its
retransmission from slot e + ceil(2*t_p/t_s), and waiting retransmissions
form a FIFO queue. It streams: each block of generations is handed on once
it and every earlier block have decoded, so a run holds only the blocks with
generations in flight.

Replications run as lanes of one engine call, each lane with its own
generator, from which it draws exactly what a lone run of it would, in the
same order and shapes. Everything after the draws runs once for all the
lanes of a batch: their flags sit side by side as columns, the dofs are
counted over all of them together, and the delivery pass sums along each
lane. A batch holds at most two blocks' worth of generation columns, in no
more bytes than one block may take, so it takes as many lanes as fit. The
relaxed link schedule is one _link_slots pass over all the lanes of each
block: its numpy set-up runs once for the block, and each lane's Python
loop, with that lane's own queue, visits only the lane's retransmissions.
run_coded is the one-lane case.

Every event time is alpha*t_s + beta*t_p with integer alpha and beta, so
times are integer pairs converted to floats only for comparisons and
reporting; the lossless case stays exact and a run spanning millions of
slots loses nothing to cancellation. Both maps feed one delivery pass,
_Delivery, block by block, which owns the warm-up margins. It takes each
lane's statistics from integer delay sums per generation, in closed form: each
generation's delays are three runs of columns, and it sums over each run at
once. Per-packet delays are built, from the same runs, only for a trace.
The idealized blocker is the latest decode among a window of previous
generations; in relaxed mode every decode is a slot count plus one hop, so
the blocker is the running maximum of the integer decode slots. Both are
kept per lane.

With the real codec, the same rounds count dofs as ranks over GF(2^8)
instead of arrivals: each lane draws one coefficient block per block of
generations and round, right after its receive flags, and _CodecRanks
eliminates the received rows of all the batch's generations together,
sorted by width into sub-batches of bounded size, with no payloads; it
counts the non-innovative packets that SimStats reports.

The RNG is numpy's Philox counter generator seeded through SeedSequence, and
all variate generation is inverse-transform from its uniforms, so a fixed
seed reproduces traces bit for bit; tests/test_golden.py pins the bytes of a
set of seeded CLI runs. trace_csv prints each float with repr and each
integer as str would, one block of _CHUNK rows at a time. A block is one
fixed-width uint8 character matrix with a boolean keep-mask of the same
shape: the integer fields are right-aligned digit columns whose leading zeros
the mask drops, each float field is a row gather from a padded table of the
reprs of its column's distinct values (by bit pattern, with repr called once
per value), and the separators are constant columns. The kept characters,
read row by row, are the block's text.

A run is bounded: n_packets, and reps * n_packets across replications, may
not exceed MAX_PACKETS.
"""

import json
import math
from bisect import bisect_left
from collections import deque, namedtuple
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import diagnostics
from .gf256 import INV, gf_mul
from .kernel import MAX_ROUNDS, NumericalError
from .params import InputError, split_count

_CHUNK = 4096
_CHUNK_BYTES = 1 << 25      # cap on one block's uniforms and codec coefficients (32 MiB)
_ELIM_CELLS = 1 << 16       # cap on one real-codec elimination sub-batch, in uint8 cells
_WARMUP_FACTOR = 5
_NO_BLOCKER = -(1 << 60)    # blocker slot of a generation that nothing can block
_ARQ_WARMUP_BDP = 10

# Largest run accepted, in source packets: n_packets, or reps * n_packets
# across replications. At the engines' rates with the default head-of-line
# window (0.7-8 M packets/s) that is seconds to a few minutes of simulation.
# Only a trace grows with the run, by 40 bytes per packet. The largest run in
# the tests and benchmark has about 4 M packets.
MAX_PACKETS = 100_000_000


@dataclass(frozen=True)
class SimConfig:
    channel: object
    coding: object
    mode: str = "idealized"
    n_packets: int = 100_000
    seed: int = 0
    use_real_codec: bool = False
    hol_cap: Optional[int] = None
    collect_records: bool = False

    def __post_init__(self):
        if self.mode not in ("idealized", "relaxed"):
            raise InputError(f"mode must be 'idealized' or 'relaxed', got {self.mode!r}")
        if self.n_packets > MAX_PACKETS:
            raise InputError(f"n_packets must be at most {MAX_PACKETS}, got {self.n_packets}")
        if self.n_packets < self.coding.k:
            raise InputError("n_packets must cover at least one generation")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")
        if self.hol_cap is not None and self.hol_cap < 0:
            raise InputError(f"hol_cap must be nonnegative, got {self.hol_cap}")
        if self.hol_cap is not None and self.mode == "relaxed":
            raise InputError("hol_cap applies to idealized mode only; relaxed mode delivers "
                             "in order through every earlier generation")


@dataclass(frozen=True, eq=False)
class PacketTrace:
    """Per-packet trace columns of one run, in packet order.

    first_tx_slot is the packet's first transmission slot, delivered_slot its
    in-order delivery instant in slot units, delay the difference in seconds.
    """

    packet_id: np.ndarray
    generation_id: np.ndarray
    first_tx_slot: np.ndarray
    delivered_slot: np.ndarray
    delay: np.ndarray

    @classmethod
    def build(cls, first_tx_slot, delay, t_s, k):
        """Trace of packets 0..n-1, packet p in generation p // k."""
        ids = np.arange(delay.size)
        return cls(packet_id=ids, generation_id=ids // k, first_tx_slot=first_tx_slot,
                   delivered_slot=first_tx_slot + delay / t_s, delay=delay)


@dataclass
class SimStats:
    mean_delay: float
    std_delay: float
    mean_efficiency: float
    n_delays: int
    replications: int = 1
    se_mean: Optional[float] = None
    rounds_hist: Optional[dict] = None
    trace: Optional[PacketTrace] = None
    info_packets: int = 0
    received_packets: int = 0
    non_innovative: int = 0   # real codec: received coded packets that did not raise the rank
    # the exact integer sums behind mean_delay and std_delay, which the reference
    # comparisons of the tests check
    delay_sums: Optional["_PairStats"] = field(default=None, repr=False, compare=False)


def _rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class _PairStats:
    """Streaming mean/std over delays held as integer (slot, hop) pairs.

    The sums stay in exact integer arithmetic until the final conversion,
    so a lossless run reports a mean equal to every sample and literally
    zero variance instead of accumulated float rounding.
    """

    def __init__(self, t_s, t_p):
        self.t_s = t_s
        self.t_p = t_p
        self.n = 0
        self.sa = 0
        self.sb = 0
        self.saa = 0
        self.sab = 0
        self.sbb = 0

    def add(self, alpha, beta):
        a = np.asarray(alpha, dtype=np.int64)
        b = np.asarray(beta, dtype=np.int64)
        self.add_sums(a.size, a.sum(), b.sum(), (a * a).sum(), (a * b).sum(), (b * b).sum())

    def add_sums(self, n, sa, sb, saa, sab, sbb):
        """Add the count and the five sums of further delays."""
        self.n += int(n)
        self.sa += int(sa)
        self.sb += int(sb)
        self.saa += int(saa)
        self.sab += int(sab)
        self.sbb += int(sbb)

    def merge(self, other):
        self.add_sums(other.n, other.sa, other.sb, other.saa, other.sab, other.sbb)

    def mean(self):
        if not self.n:
            return float("nan")
        return (self.sa / self.n) * self.t_s + (self.sb / self.n) * self.t_p

    def std(self):
        if not self.n:
            return float("nan")
        va = self.n * self.saa - self.sa * self.sa
        vb = self.n * self.sbb - self.sb * self.sb
        vab = self.n * self.sab - self.sa * self.sb
        var = (float(va) * self.t_s * self.t_s
               + 2.0 * float(vab) * self.t_s * self.t_p
               + float(vb) * self.t_p * self.t_p) / float(self.n) ** 2
        return math.sqrt(max(var, 0.0))


class _Arrivals:
    """Dofs of a block's generations under rank counting: every arrival is one.

    need holds the dofs each generation still lacks. round takes one round of
    the generations in active (ascending, each still short), slot-major:
    flags[t, j] tells whether slot t of active[j] arrived, and counts[t, j]
    is the running count of arrivals down that column through slot t
    (_running_counts, in an unsigned type that holds both the slot count and
    k). It returns which of them decoded and, for those, the slot within the
    round where the k-th dof arrived: the number of slots whose running count
    is still short of the need. _CodecRanks has the same interface; coeffs,
    its coefficient blocks, is None here, and the flags go unread.
    """

    non_innovative = None

    def __init__(self, k, g):
        self.k = k
        self.need = np.full(g, k, dtype=np.int64)

    def round(self, active, flags, counts, coeffs):
        need, got = self.need[active], counts[-1]
        self.need[active] = np.maximum(need - got, 0)
        short = counts < need.astype(counts.dtype)
        return got >= need, np.add.reduce(short, axis=0, dtype=counts.dtype)


def _running_counts(flags, dtype):
    """The running counts of slot-major flags down the slots: np.cumsum(flags, axis=0, dtype).

    An inclusive scan by doubling (Hillis and Steele 1986): after the step of
    shift d each row holds the sum of itself and the 2d - 1 rows above it, so
    ceil(log2(rows)) steps finish. Each step is one add over whole rows,
    between two buffers, which runs along memory, where a cumsum down axis 0
    walks each column apart. dtype must hold the slot count.
    """
    out = flags.astype(dtype)
    buf = np.empty_like(out)
    shift = 1
    while shift < out.shape[0]:
        buf[:shift] = out[:shift]
        np.add(out[shift:], out[:-shift], out=buf[shift:])
        out, buf = buf, out
        shift *= 2
    return out


class _CodecRanks:
    """Ranks over GF(2^8) of a block's generations, fed one round of every active one at a time.

    round takes the slot-major flags and counts that _Arrivals.round does,
    reads round 1's width from the counts and works on the flags' transpose,
    one generation's rows at a time, with one uint8 coefficient row for every
    coded slot of every generation in active, received or not: coeffs[j, t]
    for slot t of active[j] (round 1: slot k + t). _trajectories draws them
    right after the receive flags, as the sender draws coefficients before
    the channel acts. Systematic packets
    fill only the first k slots of round 1, so they leave each generation
    the set M of its missing columns, and a coded row counts only through
    its projection onto M. The received rows are eliminated column by
    column, pivoting on the earliest free row, under the basis kept from
    earlier rounds. The basis is stored by pivot column; its rows stand
    before the round's and never change, so a column that has one pivots
    there. A row only ever gets earlier rows added to it, so the rank after
    row t is the number of pivots at or before t, and when the rank reaches k
    the latest new pivot is the decode slot. non_innovative counts received
    rows fed before decode that left the rank as it was; the zero
    combination carries nothing and is not fed.
    """

    def __init__(self, k, g):
        self.k = k
        self.need = np.full(g, k, dtype=np.int64)
        self.non_innovative = np.zeros(g, dtype=np.int64)
        self.width = None   # |M| of each generation, set by round 1

    def round(self, active, flags, counts, coeffs):
        k = self.k
        n_sys = k if self.width is None else 0
        flags = flags.T   # generation-major: the elimination works one generation's rows at a time
        if n_sys:   # round 1 sends every generation of the block
            sys_flags, flags = flags[:, :k], flags[:, k:]
            self.width = k - counts[k - 1].astype(np.int64)
            self.need = self.width.copy()
            w = int(self.width.max())
            self.missing = np.argsort(sys_flags, axis=1, kind="stable")[:, :w]
            self.basis = np.zeros((active.size, w, w), dtype=np.uint8)
            self.pivot = np.zeros((active.size, w), dtype=bool)
        hit = np.full(active.size, k - 1)   # all k systematic packets: the k-th arrival
        live = np.flatnonzero(self.need[active])
        if live.size and flags.shape[1]:
            gens = active[live]
            fed = (flags & coeffs.any(axis=2))[live]   # the zero combination carries nothing
            gain, last = self._eliminate(gens, live, coeffs, fed)
            self.need[gens] -= gain
            upto = np.where(self.need[gens] == 0, last, -1)   # decoded: rows up to the decode slot
            self.non_innovative[gens] += np.cumsum(fed, axis=1)[np.arange(live.size), upto] - gain
            hit[live] = last + n_sys
        return self.need[active] == 0, hit

    def _eliminate(self, gens, live, coeffs, fed):
        """(rank gained, latest new pivot's slot or -1) of gens, whose coded rows are coeffs[live].

        Only fed rows are eliminated, in slot order and in slabs of as many
        rows as the neediest generation of a sub-batch lacks: the first slab
        decodes nearly every generation that can, and later ones go only to
        those still short with rows left. Generations run sorted by width, in
        sub-batches that hold at most _ELIM_CELLS cells of slab and basis at
        the widest one's width (one generation at least).
        """
        order = np.argsort(self.width[gens], kind="stable")
        width, need = self.width[gens][order], self.need[gens][order]
        gens, live, fed = gens[order], live[order], fed[order]
        n_fed = np.count_nonzero(fed, axis=1)
        fed_slots = np.argsort(~fed, axis=1, kind="stable")   # fed slots first, in slot order
        slots = fed.shape[1]
        gain = np.zeros(gens.size, dtype=np.int64)
        last = np.full(gens.size, -1, dtype=np.int64)
        lo = 0
        while lo < gens.size:
            # rows of a slab times columns, plus the basis, at each candidate end
            take = np.maximum.accumulate(need[lo:])
            cells = np.arange(1, gens.size - lo + 1) * (take + width[lo:]) * width[lo:]
            hi = lo + max(1, int(np.count_nonzero(cells <= _ELIM_CELLS)))
            at = np.arange(lo, hi)
            first, take = 0, int(take[hi - lo - 1])
            while at.size:
                top = int(width[at[-1]])
                sub, slot = gens[at], fed_slots[at, first:first + take]
                base = (live[at, None] * slots + slot) * self.k   # flat index of each row's column 0
                rows = coeffs.take(base[:, :, None] + self.missing[sub, None, :top])
                rows *= (np.arange(first, first + slot.shape[1]) < n_fed[at, None])[:, :, None]
                basis, pivot = self.basis[sub, :top, :top], self.pivot[sub, :top]
                g_at, p_at = _reduce(rows, basis, pivot, width[at])
                self.basis[sub, :top, :top], self.pivot[sub, :top] = basis, pivot
                gain[at] += g_at
                new = p_at >= 0
                last[at[new]] = slot[new, p_at[new]]   # a later slab's pivots come later
                first += take
                at = at[(gain[at] < need[at]) & (n_fed[at] > first)]
            lo = hi
        out_gain, out_last = np.empty_like(gain), np.empty_like(last)
        out_gain[order], out_last[order] = gain, last
        return out_gain, out_last


def _reduce(rows, basis, pivot, width):
    """Eliminate rows (g, slots, w) in place under basis (g, w, w); width ascends along g.

    pivot[j, c] tells whether basis[j, c] holds a row led by column c.
    Returns each generation's new pivot count and its latest new pivot's
    slot (-1 when none). A generation's columns past its own width are
    padding: written, never read.
    """
    g, _, w = rows.shape
    gain = np.zeros(g, dtype=np.int64)
    last = np.full(g, -1, dtype=np.int64)
    wider = np.searchsorted(width, np.arange(w), side="right")   # first generation wider than c
    for c in range(w):
        j0 = wider[c]
        column = rows[j0:, :, c]
        nz = column != 0
        free = nz.any(axis=1)
        if not free.any():
            continue
        fresh = np.flatnonzero(free & ~pivot[j0:, c])
        if fresh.size:
            p = nz[fresh].argmax(axis=1)
            j = j0 + fresh
            basis[j, c, c:] = rows[j, p, c:]
            pivot[j, c] = True
            gain[j] += 1
            last[j] = np.maximum(last[j], p)
        # Earlier pivot columns are already zero in every row; clearing this
        # one from every row zeroes a fresh pivot row too, taking it out of
        # the free rows.
        prow = basis[j0:, c, c:]
        scale = gf_mul(INV[prow[:, 0]][:, None], column)
        rows[j0:, :, c:] ^= gf_mul(scale[:, :, None], prow[:, None, :])
    return gain, last


def _chunk_rows(n_k_high, k=0, blocks=1):
    """Generations per block: _CHUNK, fewer when one block would pass _CHUNK_BYTES.

    A generation holds n_k_high 8-byte round-1 uniforms and, with the real
    codec (k > 0), coefficient blocks of at most n_k_high rows and a basis of
    at most k rows, k bytes a row. blocks counts the generations of that many
    blocks instead, still under _CHUNK_BYTES.
    """
    return max(1, min(blocks * _CHUNK, _CHUNK_BYTES // (8 * n_k_high + (n_k_high + k) * k)))


def _warmup_window(cfg):
    """(generations, warm-up margin in generations) of one run of cfg.

    Raises InputError when the run is no longer than its warm-up and
    cool-down margins together.
    """
    n_gens = -(-cfg.n_packets // cfg.coding.k)
    warm = _WARMUP_FACTOR * cfg.coding.b
    if n_gens <= 2 * warm:
        raise InputError(f"need more than {2 * warm} generations for warm-up and cool-down "
                         f"at b={cfg.coding.b}; got {n_gens}")
    return n_gens, warm


class _Delivery:
    """In-order delivery of a batch of coded runs (lanes), fed blocks of generations in order.

    A _Trajectories block gives each generation's systematic prefix s, round
    count and received count; the engine gives its start slot, decode instant
    and the instant of the earlier generation that can block it (_NO_BLOCKER
    when none can), each an absolute slot and a hop count. Packet c < s
    arrives (c+1)*t_s + t_p after the start, the rest are ready at decode, and
    a packet whose own instant is earlier than the blocker's waits for it. Its
    delay is the instant it is delivered at less c slots, an integer (slot,
    hop) pair. The comparison is in floats in the generation's own frame.

    The prefix instants rise with c, so the blocked prefix columns are a
    leading run, of length m: the count of prefix instants below the blocker,
    by one searchsorted over the same floats. A generation's delays are then
    three runs: (blocker - c, blocker hops) for c < m, (1, 1) for m <= c < s,
    and for c >= s one instant, decode or a later blocker, less c. So the
    statistics take _PairStats' count and five integer sums per generation
    from sums of c and c**2 over each run, read from tables of k + 1 entries
    built once per batch, with no per-packet array, and sum them along each
    lane's generations into that lane's own _PairStats. The per-packet delays
    are built, from the same runs, only for a trace, which only a run of one
    lane collects (replicate turns records off). Generations inside each
    lane's warm-up and cool-down margins count only in the trace. The rounds
    histogram and the received and non-innovative counts are pooled over the
    lanes.
    """

    def __init__(self, cfg, lanes=1):
        k = cfg.coding.k
        self.n_gens, self.warm = _warmup_window(cfg)
        self.k, self.t_s, self.t_p = k, cfg.channel.t_s, cfg.channel.t_p
        self.prefix_f = (np.arange(k) + 1) * self.t_s + self.t_p   # arrival of prefix packet c
        # sums of c and of c**2 over c < n, and over n <= c < k, for n = 0..k
        n = np.arange(k + 1)
        self.below = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6
        self.after = tuple(col[k] - col for col in self.below)
        self.accs = [_PairStats(self.t_s, self.t_p) for _ in range(lanes)]
        self.rounds = np.zeros(0, dtype=np.int64)
        self.received = 0
        self.non_innovative = 0
        self.gens = 0
        self.done = 0
        self.trace_parts = [] if cfg.collect_records else None

    def add(self, block, start, dec_slot, dec_hops, blk_slot, blk_hops):
        """Deliver the generations of one _Trajectories block, lane-major; hop counts may be scalars.

        The block gives the systematic prefixes, round counts, received counts
        and, in real-codec runs, the non-innovative counts.
        """
        lanes, s = len(self.accs), block.s
        g = s.size // lanes
        t_s, t_p = self.t_s, self.t_p
        dec_rel, blk_rel = dec_slot - start, blk_slot - start
        blk_f = blk_rel * t_s + blk_hops * t_p
        m = np.minimum(np.searchsorted(self.prefix_f, blk_f, side="left"), s)
        late = blk_f > dec_rel * t_s + dec_hops * t_p
        tail, tail_hops = np.where(late, blk_rel, dec_rel), np.where(late, blk_hops, dec_hops)

        w = slice(max(self.warm - self.done, 0), min(self.n_gens - self.warm - self.done, g))
        if w.start < w.stop:
            def kept(col):
                """Each lane's generations inside the margins, one row a lane."""
                return col.reshape(lanes, g)[:, w] if np.ndim(col) else col

            sums = self._sums(*map(kept, (m, s, blk_rel, blk_hops, tail, tail_hops)))
            for acc, lane in zip(self.accs, np.array(sums).T.tolist()):
                acc.add_sums(*lane)
            self.received += int(kept(block.received).sum())
            if block.non_innovative is not None:
                self.non_innovative += int(kept(block.non_innovative).sum())
            self.gens += lanes * (w.stop - w.start)
            self._count_rounds(np.bincount(kept(block.y).ravel()))
        if self.trace_parts is not None:
            cols = np.arange(self.k)
            blocked, prefix = cols < m[:, None], cols < s[:, None]
            d_slot = np.where(blocked, blk_rel[:, None],
                              np.where(prefix, cols + 1, tail[:, None])) - cols
            d_hops = np.where(blocked, np.reshape(blk_hops, (-1, 1)),
                              np.where(prefix, 1, tail_hops[:, None]))
            self.trace_parts.append((start[:, None] + cols, d_slot * t_s + d_hops * t_p))
        self.done += g

    def _count_rounds(self, counts):
        if counts.size > self.rounds.size:   # keep the longer histogram, add the other in
            self.rounds, counts = counts, self.rounds
        self.rounds[:counts.size] += counts

    def _sums(self, m, s, blk, blk_hops, tail, tail_hops):
        """Count and sums a, b, a*a, a*b, b*b over the delays (a, b) of each row's generations."""
        below, after = self.below, self.after
        blk = np.where(m > 0, blk, 0)   # read by no column when m = 0; _NO_BLOCKER**2 overflows
        free = s.sum(axis=1) - m.sum(axis=1)   # columns m..s-1, at (1, 1)
        rest = self.k - s
        c1, t1 = below[0][m], after[0][s]
        a_blk, a_tail = m * blk - c1, rest * tail - t1
        hb, ht = m * blk_hops, rest * tail_hops

        def dot(x, z):
            return (x * z).sum(axis=1)

        return (np.full(m.shape[0], m.shape[1] * self.k),
                a_blk.sum(axis=1) + free + a_tail.sum(axis=1),
                hb.sum(axis=1) + free + ht.sum(axis=1),
                (dot(blk, a_blk - c1) + dot(tail, a_tail - t1) + below[1][m].sum(axis=1)
                 + after[1][s].sum(axis=1) + free),
                dot(blk_hops, a_blk) + free + dot(tail_hops, a_tail),
                dot(hb, blk_hops) + free + dot(ht, tail_hops))

    def merge(self, other):
        """Take in the lanes of another batch of the same configuration."""
        self.accs += other.accs
        self.received += other.received
        self.non_innovative += other.non_innovative
        self.gens += other.gens
        self._count_rounds(other.rounds)

    def stats(self):
        """Pooled statistics of every lane; se_mean, from the lanes' own means, needs two."""
        trace = None
        if self.trace_parts is not None:
            first, delay = (np.concatenate([a.ravel() for a in col]) for col in zip(*self.trace_parts))
            trace = PacketTrace.build(first, delay, self.t_s, self.k)
        acc = _PairStats(self.t_s, self.t_p)
        for lane in self.accs:
            acc.merge(lane)
        lanes = len(self.accs)
        se = None
        if lanes > 1:
            import statistics   # here, not at import: it takes fractions and decimal along
            se = statistics.stdev(lane.mean() for lane in self.accs) / math.sqrt(lanes)
        return SimStats(mean_delay=acc.mean(), std_delay=acc.std(),
                        mean_efficiency=self.k * self.gens / self.received,
                        n_delays=acc.n, replications=lanes, se_mean=se,
                        rounds_hist={int(y): int(c) for y, c in enumerate(self.rounds) if c},
                        trace=trace, info_packets=self.k * self.gens,
                        received_packets=self.received, non_innovative=self.non_innovative,
                        delay_sums=acc)


_Trajectories = namedtuple("_Trajectories", "n s y hit received non_innovative retx")


def _trajectories(cfg, rngs, n_gens):
    """Draw the rounds of generations 0..n_gens-1 of each lane, one generator per lane.

    Yields one _Trajectories per block of _chunk_rows generations, the
    lanes' blocks side by side: each field has one entry per generation,
    lane-major (lane i's generations are entries i*g..(i+1)*g-1 of a block
    of g per lane). n is the round-1 size, s the systematic prefix
    received, y the round count, hit the slot within the last round where
    the k-th dof arrived, received every arrival, and non_innovative (real
    codec only, else None) the received coded packets that did not raise
    the rank before decode. retx lists the sizes of rounds 2..y, one
    generation after the other.

    Each lane draws exactly what a lone run of it would, in the same order
    and shapes. Round 1 draws one (generations, slots) matrix of uniforms
    per block, and each retransmission round is drawn at once for the
    lane's generations still short of k dofs: one uniform each for its
    size, then a (generations, slots) matrix of slot uniforms. Everything
    after the draws runs once for all the lanes. The receive flags are the
    transpose of those draws: (slots, generations), slot-major, one column
    per generation of every lane; a lane whose retransmission matrix is
    narrower than the widest one's gets not-received rows below it. Round
    1's size mask touches only row n_k_low, as n is n_k_low or n_k_low + 1.
    Each round's running counts down the columns are taken once
    (_running_counts), in the smallest unsigned type that holds the round's
    slot count and k: s is the number of rows t < k whose count is t + 1,
    every slot up to t received, and the last row is the round's received
    count. The dofs are arrivals under rank counting (_Arrivals) or ranks
    over GF(2^8) with the real codec (_CodecRanks), for which each lane
    draws its round's coefficients right after its slot uniforms; both read
    the counts.
    """
    ch, cd = cfg.channel, cfg.coding
    k, eps = cd.k, ch.epsilon
    lo, hi, frac = cd.n_k_low, cd.n_k_high, cd.frac
    count_lo, count_frac = split_count(cd.R, np.arange(k + 1))   # (floor, fraction) per dofs needed
    codec = cfg.use_real_codec
    dofs_of = _CodecRanks if codec else _Arrivals
    rows = _chunk_rows(hi, k if codec else 0)
    lanes = len(rngs)
    small = np.min_scalar_type(hi)   # round 1's counts: hi >= k slots
    prefix = np.arange(1, k + 1, dtype=small)[:, None]   # slot t's count when all up to it arrived
    for done in range(0, n_gens, rows):
        g = min(rows, n_gens - done)
        n = np.full(lanes * g, lo, dtype=np.int64)
        flags, coeffs = [], []
        for lane, rng in enumerate(rngs):
            if frac > 0.0:
                n[lane * g:(lane + 1) * g] += rng.random(g) < frac
            flags.append((rng.random((g, hi)) >= eps).T)
            if codec:
                coeffs.append(rng.integers(0, 256, size=(g, hi - k, k), dtype=np.uint8))
        recv = _side_by_side(flags, 1)
        del flags   # the lanes' own flags, now copied side by side
        if hi > lo:   # n is lo or hi = lo + 1, so only slot lo can lie past n
            recv[lo] &= n > lo
        cum = _running_counts(recv, small)
        s = np.add.reduce(cum[:k] == prefix, axis=0, dtype=small).astype(np.int64)
        received = cum[-1].astype(np.int64)
        y = np.ones(lanes * g, dtype=np.int64)
        bounds = np.arange(lanes + 1) * g   # each lane's first generation, and the block's end
        dofs = dofs_of(k, lanes * g)
        active = np.arange(lanes * g)
        fin, hit = dofs.round(active, recv, cum, _side_by_side(coeffs, 0) if codec else None)
        hit = hit.astype(np.int64)
        del coeffs, cum
        active = active[~fin]
        sent = [(np.zeros(0, dtype=np.int64),) * 2]   # (generations, sizes) per round
        r = 1
        while active.size:
            r += 1
            if r > MAX_ROUNDS:
                raise NumericalError("retransmission loop did not terminate")
            # each lane's active generations are one run of active: (its generator, first, end)
            cuts = [0, active.size] if lanes == 1 else np.searchsorted(active, bounds).tolist()
            runs = [(rng, a, b) for rng, a, b in zip(rngs, cuts, cuts[1:]) if a < b]
            extra = np.concatenate([rng.random(b - a) for rng, a, b in runs])
            need = dofs.need[active]
            nl = count_lo[need] + (extra < count_frac[need])
            flags, coeffs = [], []
            widths = np.maximum.reduceat(nl, [a for _, a, _ in runs]).tolist()
            for (rng, a, b), w in zip(runs, widths):
                flags.append((rng.random((b - a, w)) < 1.0 - eps).T)
                if codec:
                    coeffs.append(rng.integers(0, 256, size=(b - a, w, k), dtype=np.uint8))
            flags = _side_by_side(flags, 1)
            flags &= np.arange(flags.shape[0])[:, None] < nl
            cum = _running_counts(flags, np.min_scalar_type(max(flags.shape[0], k)))
            received[active] += cum[-1]
            fin, last = dofs.round(active, flags, cum,
                                   _side_by_side(coeffs, 0) if codec else None)
            del coeffs   # before the next round draws its own: _chunk_rows counts one block's
            hit[active[fin]] = last[fin]
            y[active] = r
            sent.append((active, nl))
            active = active[~fin]
        gens, sizes = (np.concatenate(col) for col in zip(*sent))
        retx = sizes[np.argsort(gens, kind="stable")]
        yield _Trajectories(n, s, y, hit, received, dofs.non_innovative, retx)


def _side_by_side(parts, axis):
    """The lanes' arrays joined along axis, contiguous; a lone one is only made contiguous.

    Each is padded with zeros along the other of the first two axes to the
    longest: the not-received slots below a lane's slot-major flags
    (axis 1), or the zero combinations after a lane's coefficient rows
    (axis 0).
    """
    if len(parts) == 1:
        return np.ascontiguousarray(parts[0])
    pad = 1 - axis
    shape = list(parts[0].shape)
    shape[axis] = sum(part.shape[axis] for part in parts)
    shape[pad] = max(part.shape[pad] for part in parts)
    out = np.zeros(shape, parts[0].dtype)
    at = 0
    for part in parts:
        into = [None, None]
        into[axis], into[pad] = slice(at, at + part.shape[axis]), slice(part.shape[pad])
        out[tuple(into)] = part
        at += part.shape[axis]
    return out


def _batches(cfg, rngs):
    """The lanes in batches of at most two blocks' worth of generation columns, one lane at least.

    A lane's blocks hold _chunk_rows generations (fewer when its run is
    shorter), as a lone run's do, since block boundaries fix the order of its
    draws; a batch then holds as many lanes' blocks as fit in twice _CHUNK
    columns, kept under _CHUNK_BYTES as one block is. So a batch of lanes
    whose blocks are full, or capped by _CHUNK_BYTES, holds two lanes or one.
    """
    cd = cfg.coding
    k = cd.k if cfg.use_real_codec else 0
    rows = _chunk_rows(cd.n_k_high, k)
    per = max(1, _chunk_rows(cd.n_k_high, k, 2) // min(rows, -(-cfg.n_packets // cd.k)))
    return [rngs[i:i + per] for i in range(0, len(rngs), per)]


def _pooled(run_batch, cfg, rngs):
    """run_batch(cfg, lanes) over each batch of the lanes; the pooled SimStats of all of them."""
    out, *rest = (run_batch(cfg, batch) for batch in _batches(cfg, rngs))
    for part in rest:
        out.merge(part)
    return out.stats()


def _run_idealized(cfg, rngs):
    return _pooled(_idealized_batch, cfg, rngs)


def _idealized_batch(cfg, rngs):
    ch, cd = cfg.channel, cfg.coding
    t_s, t_p = ch.t_s, ch.t_p
    lanes = len(rngs)
    out = _Delivery(cfg, lanes)
    n_gens = out.n_gens
    # no generation has more than n_gens - 1 earlier ones, so a larger cap
    # changes nothing but the size of the carry and the window loop
    blockers = min(cd.b - 1 if cfg.hol_cap is None else cfg.hol_cap, n_gens - 1)

    # carry: absolute decode slot and propagation-hop count per window
    # generation, one row a lane, as are all the arrays below
    carry_slot = np.full((lanes, blockers), _NO_BLOCKER, dtype=np.int64)
    carry_beta = np.ones((lanes, blockers), dtype=np.int64)
    slot_offset = np.zeros((lanes, 1), dtype=np.int64)
    for tr in _trajectories(cfg, rngs, n_gens):
        n, y, hit = (col.reshape(lanes, -1) for col in (tr.n, tr.y, tr.hit))
        g = n.shape[1]
        end = slot_offset + np.cumsum(n, axis=1)
        start = end - n
        # y = 1 decodes at the k-th dof's arrival, later rounds land as bursts
        # costing 2*t_p each (retransmission slots are free in this mode).
        dec_slot = start + np.where(y == 1, hit + 1, n)
        dec_beta = 2 * y - 1

        # head-of-line bound: the latest decode of the previous `blockers`
        # generations, compared in each generation's own frame; only the
        # winning column offset is carried, and its slot and hops are
        # gathered once
        if blockers > 0:
            all_slot = np.concatenate((carry_slot, dec_slot), axis=1)
            all_beta = np.concatenate((carry_beta, dec_beta), axis=1)
            all_hops = all_beta * t_p
            wf = np.full((lanes, g), -np.inf)
            win = np.zeros((lanes, g), dtype=np.intp)
            for t in range(1, blockers + 1):
                at = blockers - t
                cf = (all_slot[:, at:at + g] - start) * t_s + all_hops[:, at:at + g]
                upd = cf > wf
                np.copyto(wf, cf, where=upd)
                np.copyto(win, at, where=upd)
            win += np.arange(g)
            wa = np.take_along_axis(all_slot, win, axis=1)
            wb = np.take_along_axis(all_beta, win, axis=1)
            carry_slot = all_slot[:, -blockers:]
            carry_beta = all_beta[:, -blockers:]
        else:
            wa = np.full((lanes, g), _NO_BLOCKER, dtype=np.int64)
            wb = np.zeros((lanes, g), dtype=np.int64)

        out.add(tr, start.ravel(), dec_slot.ravel(), dec_beta.ravel(), wa.ravel(), wb.ravel())
        slot_offset = end[:, -1:]
    return out


def _link_slots(blocks, lanes, t_s, t_p):
    """Schedule relaxed mode's shared link of each lane, yielding (block, start, dec_slot) per block.

    blocks yields the lanes' lane-major _Trajectories in order; start and
    dec_slot hold each generation's start and decode slot, lane-major too.
    Each lane has a link of its own. A block is yielded once it and every
    earlier block have decoded in every lane, so only the blocks with
    generations in flight are held, each with a count of those. Feedback on
    a round ending at slot e is back 2*t_p later, so the next round may
    start from slot e + hold, hold = ceil(2*t_p/t_s - 1e-9). Each new
    generation waits for every retransmission ready by its turn; once none
    is left the link idles up to the next ready one. Ready slots rise in
    queueing order (a later end slot plus the same hold), so each lane's
    queue is a FIFO.

    Between two stops for retransmissions a lane's cursor only adds round-1
    sizes, so a lane steps from event to event: with a retransmission
    queued, to the first new generation whose round-1 prefix sum reaches the
    head's ready slot (a bisect), and with none, to just past the next
    generation that retransmits. It queues the multi-round generations it
    passes and, at each stop, sends every ready retransmission. A block's
    start slots are then its prefix sums plus the running sum of the slots
    inserted at the stops.
    """
    hold = math.ceil(2.0 * t_p / t_s - 1e-9)
    # each lane's FIFO of (first slot it may start, (held entry, index in it, position of the
    # round's size in the block's retx list, position of its last size, hit))
    queues = [deque() for _ in range(lanes)]
    cursors = [0] * lanes   # each lane's slot after the last round 1 sent
    held = deque()          # entries [block, start, dec_slot, generations still retransmitting, retx]

    def retransmit(queue, cursor):
        _, (entry, j, r, last, hit) = queue.popleft()
        size = entry[4][r]
        if r == last:
            entry[2][j] = cursor + hit + 1
            entry[3] -= 1
        else:
            queue.append((cursor + size + hold, (entry, j, r + 1, last, hit)))
        return cursor + size

    for tr in blocks:
        g = tr.n.size // lanes
        prefix = np.zeros((lanes, g + 1), dtype=np.int64)   # each lane's round-1 prefix sums
        np.cumsum(tr.n.reshape(lanes, g), axis=1, out=prefix[:, 1:])
        multi = np.flatnonzero(tr.y > 1)
        extra = tr.y[multi] - 1   # each one's retransmission rounds
        ends = np.cumsum(extra)   # one past each one's last size in retx
        cuts = np.searchsorted(multi, np.arange(lanes + 1) * g).tolist()
        entry = [tr, None, np.zeros(tr.n.size, dtype=np.int64), multi.size, tr.retx.tolist()]
        held.append(entry)
        # each multi-round generation's index in its lane, the slot its first retransmission
        # is ready at less its lane's offset, and the rest of its queue item
        local = (multi % g).tolist()
        ready = (prefix.ravel()[multi + multi // g + 1] + hold).tolist()
        rest = [(entry, *item) for item in zip(multi.tolist(), (ends - extra).tolist(),
                                               (ends - 1).tolist(), tr.hit[multi].tolist())]
        base = np.array(cursors, dtype=np.int64)
        stops, inserted = [], []   # flat index of each stop, and the slots sent there
        for lane, (queue, sums) in enumerate(zip(queues, prefix.tolist())):
            offset = cursors[lane]   # the lane's cursor less the prefix sum of its new generations
            j, i, i_end = 0, cuts[lane], cuts[lane + 1]   # i: the next multi-round one to queue
            while True:
                if not queue:   # round 1s only, through the next multi-round generation
                    if i == i_end:
                        break
                    queue.append((offset + ready[i], rest[i]))
                    j = local[i] + 1
                    i += 1
                # the first new generation, from j on, that the head is ready by
                x = bisect_left(sums, queue[0][0] - offset, j, g)
                while i < i_end and local[i] < x:
                    queue.append((offset + ready[i], rest[i]))
                    i += 1
                if x == g:
                    break
                cursor = begin = offset + sums[x]
                while queue and queue[0][0] <= cursor:
                    cursor = retransmit(queue, cursor)
                stops.append(lane * g + x)
                inserted.append(cursor - begin)
                offset += cursor - begin
                j = x
            cursors[lane] = offset + sums[g]
        shift = np.zeros(tr.n.size, dtype=np.int64)
        shift[stops] = inserted
        start = base[:, None] + prefix[:, :g] + np.cumsum(shift.reshape(lanes, g), axis=1)
        entry[1] = start = start.ravel()
        one = tr.y == 1
        entry[2][one] = start[one] + tr.hit[one] + 1
        while held and not held[0][3]:
            yield tuple(held.popleft()[:3])
    for queue, cursor in zip(queues, cursors):
        while queue:
            cursor = retransmit(queue, max(cursor, queue[0][0]))
    while held:
        yield tuple(held.popleft()[:3])


def _run_relaxed(cfg, rngs):
    return _pooled(_relaxed_batch, cfg, rngs)


def _relaxed_batch(cfg, rngs):
    lanes = len(rngs)
    out = _Delivery(cfg, lanes)
    # Every decode and first arrival is a slot count plus one hop, so the
    # latest of all earlier decodes, the instant that blocks a generation,
    # is the running maximum of the integer decode slots: one per lane.
    blocker = np.full((lanes, 1), _NO_BLOCKER, dtype=np.int64)
    for tr, start, dec_slot in _link_slots(_trajectories(cfg, rngs, out.n_gens), lanes,
                                           cfg.channel.t_s, cfg.channel.t_p):
        dec = dec_slot.reshape(lanes, -1)
        blk_slot = np.maximum.accumulate(np.concatenate((blocker, dec[:, :-1]), axis=1), axis=1)
        blocker = np.maximum(blk_slot[:, -1:], dec[:, -1:])
        out.add(tr, start, dec_slot, 1, blk_slot.ravel(), 1)
    return out


def _run(config, rngs):
    """Simulate the configured mode once per generator, each a lane of one engine call, and
    add the call to the diagnostics report if one records."""
    run = _run_idealized if config.mode == "idealized" else _run_relaxed
    stats = run(config, rngs)
    if diagnostics.active is not None:
        diagnostics.active.simulation(config, stats)
    return stats


def run_coded(config):
    """Simulate the coded transport per the configured mode."""
    return _run(config, [_rng_for(config.seed)])


def run_arq(config):
    """Idealized selective-repeat baseline on the same channel.

    Per-packet feedback one RTT after each attempt, lossless instant NACKs,
    infinite buffers, retransmission transmission time not charged. Attempt
    counts are geometric via inverse transform. coding fields of the config
    only matter through the channel.
    """
    ch = config.channel
    eps, t_s, t_p = ch.epsilon, ch.t_s, ch.t_p
    n = config.n_packets
    warm_packets = _ARQ_WARMUP_BDP * ch.bdp
    if n <= warm_packets:
        raise InputError(f"need more than {warm_packets} packets at bdp={ch.bdp}")
    rng = _rng_for(config.seed)
    u = rng.random(n)
    if eps == 0.0:
        attempts = np.ones(n, dtype=np.int64)
    else:
        attempts = 1 + np.floor(np.log(1.0 - u) / math.log(eps)).astype(np.int64)
    idx = np.arange(n, dtype=np.int64)
    # completion of packet p: (p + a) slots plus (2a - 1) propagation hops
    comp_alpha = idx + attempts
    comp_beta = 2 * attempts - 1
    comp_f = comp_alpha * t_s + comp_beta * t_p
    run_max = np.maximum.accumulate(comp_f)
    latest = np.maximum.accumulate(np.where(comp_f >= run_max, idx, -1))
    del_alpha = comp_alpha[latest] - idx   # delay in slots
    del_beta = comp_beta[latest]

    trace = None
    if config.collect_records:
        trace = PacketTrace.build(idx, del_alpha * t_s + del_beta * t_p, t_s, 1)
    acc = _PairStats(t_s, t_p)
    acc.add(del_alpha[warm_packets:], del_beta[warm_packets:])
    stats = SimStats(mean_delay=acc.mean(), std_delay=acc.std(),
                     mean_efficiency=1.0, n_delays=acc.n, trace=trace,
                     info_packets=acc.n, received_packets=acc.n, delay_sums=acc)
    if diagnostics.active is not None:
        diagnostics.active.simulation(config, stats, arq=True)
    return stats


def replicate(config, reps):
    """Aggregate independent replications on spawned RNG streams.

    The replications run as lanes of one engine call, each drawing from its
    own child stream exactly as a lone run of it would. Reports the pooled
    mean/std over all packets, from the lanes' merged integer delay sums, so
    the pool is exact: equal delays give their own value and zero std.
    Efficiency is over pooled counts, and the standard error of the mean is
    estimated across replications (needs reps >= 2). No replication of
    several collects a trace.
    """
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}")
    if reps * config.n_packets > MAX_PACKETS:
        raise InputError(f"reps * n_packets must be at most {MAX_PACKETS}, got "
                         f"{reps} * {config.n_packets}")
    _warmup_window(config)   # before any generator is built for a run that cannot start
    if reps == 1:
        return run_coded(config)
    children = np.random.SeedSequence(config.seed).spawn(reps)
    return _run(replace(config, collect_records=False),
                [_rng_for(int(ss.generate_state(1)[0])) for ss in children])


def trace_csv(stats, config, out):
    """Write the per-packet trace as CSV with a config echo comment line.

    Raises ValueError without records, or when an integer column holds a
    negative value, which no simulator trace does.
    """
    if stats.trace is None:
        raise ValueError("run with collect_records=True to produce a trace")
    t = stats.trace
    ints = (t.packet_id, t.generation_id, t.first_tx_slot)
    if any(col.size and col.min() < 0 for col in ints):
        raise ValueError("trace integer columns must be nonnegative")
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
    floats = [_repr_table(t.delivered_slot), _repr_table(t.delay)]
    for lo in range(0, t.delay.size, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        block = [col[rows] for col in ints]
        widths = [len(str(int(col.max()))) for col in block] + [f[1].shape[1] for f in floats]
        ends = (np.cumsum(widths) + np.arange(len(widths))).tolist()   # each field's separator
        chars = np.empty((block[0].size, ends[-1] + 1), np.uint8)
        keep = np.ones(chars.shape, bool)
        for col, end, width in zip(block, ends, widths):
            _decimal_digits(col, chars[:, end - width:end], keep[:, end - width:end])
        for (where, text, fits), end, width in zip(floats, ends[3:], widths[3:]):
            codes = where[rows]   # in range; mode="clip" lets take write the views unbuffered
            np.take(text, codes, axis=0, out=chars[:, end - width:end], mode="clip")
            np.take(fits, codes, axis=0, out=keep[:, end - width:end], mode="clip")
        for end in ends:
            chars[:, end] = ord(",")
        chars[:, -1] = ord("\n")
        out.write(chars[keep].tobytes().decode("ascii"))


def _decimal_digits(col, chars, keep):
    """Write nonnegative integers right-aligned as ASCII digits; clear keep on leading zeros.

    The last digit is always kept, so a zero prints as 0.
    """
    last = chars.shape[1] - 1
    for j in range(last, -1, -1):
        if j < last:
            np.greater(col, 0, out=keep[:, j])
        quotient = col // 10
        tens = quotient * 10
        tens -= ord("0")
        np.subtract(col, tens, out=chars[:, j], casting="unsafe")   # digit + ord("0")
        col = quotient


def _repr_table(col):
    """(where, text, fits): the reprs of a float64 column's distinct values, padded.

    text[where[i]] is row i's repr in ASCII codes, padded to a common width,
    and fits[where[i]] marks its characters. Values are told apart by bit
    pattern, not float equality, so 0.0 and -0.0 keep their own text.
    """
    bits, where = np.unique(col.view(np.int64), return_inverse=True)
    joined = np.frombuffer(",".join(map(repr, bits.view(np.float64).tolist())).encode("ascii"),
                           np.uint8)
    comma = joined == ord(",")
    lengths = np.diff(np.flatnonzero(np.concatenate(([True], comma, [True])))) - 1
    fits = np.arange(lengths.max()) < lengths[:, None]
    text = np.zeros(fits.shape, np.uint8)
    text[fits] = joined[~comma]
    return where, text, fits
