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
both modes; the modes differ only in their timing map. The idealized map
adds 2*t_p per extra round. The relaxed map, _link_slots, is an integer
schedule: a round ending at slot e frees its retransmission from slot
e + ceil(2*t_p/t_s), and waiting retransmissions form a FIFO queue.

Every event time is alpha*t_s + beta*t_p with integer alpha and beta, so
times are integer pairs converted to floats only for comparisons and
reporting; the lossless case stays exact and a run spanning millions of
slots loses nothing to cancellation. Both maps feed one delivery pass,
_Delivery, which turns decode and blocker instants into per-packet delays,
statistics and the trace, and owns the warm-up margins. The idealized
blocker is the latest decode among a window of previous generations; in
relaxed mode every decode is a slot count plus one hop, so the blocker is
the running maximum of the integer decode slots.

With the real codec, every round of a generation goes through its
_RankTracker, which draws the round's coefficient block and finds the rank
over GF(2^8) by one elimination per round, with no payloads, counting the
non-innovative packets that SimStats reports.

The RNG is numpy's Philox counter generator seeded through SeedSequence, and
all variate generation is inverse-transform from its uniforms, so a fixed
seed reproduces traces bit for bit; tests/test_golden.py pins the bytes of a
set of seeded CLI runs.
"""

import json
import math
import statistics
from collections import Counter, deque, namedtuple
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .gf256 import INV, MUL
from .kernel import MAX_ROUNDS, NumericalError
from .params import split_count

_CHUNK = 4096
_CHUNK_ELEMENTS = 1 << 22   # cap on one round-1 block of uniforms (32 MiB)
_WARMUP_FACTOR = 5
_NO_BLOCKER = -(1 << 60)    # blocker slot of a generation that nothing can block
_ARQ_WARMUP_BDP = 10


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
            raise ValueError(f"mode must be 'idealized' or 'relaxed', got {self.mode!r}")
        if self.n_packets < self.coding.k:
            raise ValueError("n_packets must cover at least one generation")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.hol_cap is not None and self.hol_cap < 0:
            raise ValueError(f"hol_cap must be nonnegative, got {self.hol_cap}")


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
    # the integer sums behind mean_delay and std_delay, which replicate pools
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
        self.n += a.size
        self.sa += int(a.sum())
        self.sb += int(b.sum())
        self.saa += int((a * a).sum())
        self.sab += int((a * b).sum())
        self.sbb += int((b * b).sum())

    def merge(self, other):
        for name in ("n", "sa", "sb", "saa", "sab", "sbb"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

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


class _RankTracker:
    """Rank over GF(2^8) of the packets one generation has received, a round at a time.

    Systematic packets appear only in the first k slots of round 1, so they
    set the rank to the number received and leave the set M of missing
    columns; a coded row counts only through its projection onto M. Each
    round stacks its received coded rows under the stored basis and
    eliminates column by column, pivoting on the earliest row still free. A
    row only ever gets earlier rows added to it, so the rank after row t is
    the number of pivots at or before t, and the pivot that brings the rank
    to k is the decode slot. The pivot rows are the next round's basis.
    """

    def __init__(self, k):
        self.k = k
        self.rank = 0
        self.non_innovative = 0   # coded rows fed before decode that left the rank as it was
        self._missing = None
        self._basis = None

    def round(self, rng, flags, n_sys):
        """Feed one round's receive flags; returns the slot where the rank reached k, or -1.

        Slots below n_sys (k in round 1, 0 after) carry systematic packets
        0..n_sys-1, the rest random combinations. Coefficients are drawn for
        every coded slot, received or not, because the sender draws them
        before the channel acts; the zero combination carries nothing.
        """
        k = self.k
        coeffs = rng.integers(0, 256, size=(flags.shape[0] - n_sys, k), dtype=np.uint8)
        if n_sys:
            sys_flags = flags[:n_sys]
            self.rank = int(np.count_nonzero(sys_flags))
            if self.rank == k:
                return k - 1   # the k-th systematic arrival
            self._missing = np.flatnonzero(~sys_flags)
            self._basis = np.zeros((0, self._missing.size), dtype=np.uint8)
        slots = flags[n_sys:].nonzero()[0]
        rows = coeffs[slots]
        fed = rows.any(axis=1)
        if not fed.all():
            slots, rows = slots[fed], rows[fed]
        if not slots.size:
            return -1
        held = self._basis.shape[0]
        a = np.concatenate((self._basis, rows[:, self._missing]))
        n_rows, width = a.shape
        basis = np.zeros((min(n_rows, width), width), dtype=np.uint8)
        pivots = []
        for col in range(width):
            column = a[:, col]
            nz = column.nonzero()[0]
            if not nz.size:
                continue
            p = nz[0]
            prow = basis[len(pivots), col:]
            prow[:] = a[p, col:]
            pivots.append(p)
            if len(pivots) == n_rows:
                break
            # Rows above p that are still free are zero in this column, and
            # earlier pivot rows were zeroed when chosen, so clearing the
            # column from every row adds p only to later rows and zeroes p
            # itself, which takes it out of the free rows.
            a[:, col:] ^= MUL[MUL[INV[prow[0]], column][:, None], prow]
        self.rank = k - width + len(pivots)
        if self.rank == k:
            last = max(pivots)
            self.non_innovative += last + 1 - width
            return int(slots[last - held]) + n_sys
        self.non_innovative += n_rows - len(pivots)
        self._basis = basis[:len(pivots)]
        return -1


def _chunk_rows(n_k_high):
    """Generations per round-1 block: _CHUNK, fewer when R*k is large."""
    return max(1, min(_CHUNK, _CHUNK_ELEMENTS // n_k_high))


class _Delivery:
    """In-order delivery of one coded run, fed blocks of generations in order.

    For each generation a block gives its start slot, systematic prefix s,
    decode instant, the instant of the earlier generation that can block it
    (_NO_BLOCKER when none can), its round count and its received count;
    instants are an absolute slot and a hop count. Packet i < s arrives
    (i+1)*t_s + t_p after the start, the rest are ready at decode, and a
    packet whose own instant is earlier than the blocker's waits for it. The
    comparison is in floats in the generation's own frame; delays stay
    integer (slot, hop) pairs. Generations inside the warm-up and cool-down
    margins count only in the trace.
    """

    def __init__(self, cfg):
        k, b = cfg.coding.k, cfg.coding.b
        self.n_gens = -(-cfg.n_packets // k)
        self.warm = _WARMUP_FACTOR * b
        if self.n_gens <= 2 * self.warm:
            raise ValueError(
                f"need more than {2 * self.warm} generations for warm-up and cool-down "
                f"at b={b}; got {self.n_gens}")
        self.k, self.t_s, self.t_p = k, cfg.channel.t_s, cfg.channel.t_p
        self.acc = _PairStats(self.t_s, self.t_p)
        self.rounds = np.zeros(0, dtype=np.int64)
        self.received = 0
        self.non_innovative = 0
        self.gens = 0
        self.done = 0
        self.trace_parts = [] if cfg.collect_records else None

    def add(self, start, s, dec_slot, dec_hops, blk_slot, blk_hops, rounds, received,
            non_innovative=None):
        """Deliver the next start.size generations; hop counts may be scalars.

        non_innovative, given only by real-codec runs, holds each generation's
        received coded packets that did not raise its rank before decode.
        """
        g = start.size
        t_s, t_p = self.t_s, self.t_p
        cols = np.arange(self.k)
        prefix = cols[None, :] < s[:, None]
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
            self.acc.add(d_slot[window], d_hops[window])
            self.received += int(received[window].sum())
            if non_innovative is not None:
                self.non_innovative += int(non_innovative[window].sum())
            self.gens += int(window.sum())
            counts = np.bincount(rounds[window])
            if counts.size > self.rounds.size:
                self.rounds = np.pad(self.rounds, (0, counts.size - self.rounds.size))
            self.rounds[:counts.size] += counts
        if self.trace_parts is not None:
            self.trace_parts.append((start[:, None] + cols[None, :], d_slot * t_s + d_hops * t_p))
        self.done += g

    def stats(self):
        trace = None
        if self.trace_parts is not None:
            first, delay = (np.concatenate([a.ravel() for a in col]) for col in zip(*self.trace_parts))
            trace = PacketTrace.build(first, delay, self.t_s, self.k)
        return SimStats(mean_delay=self.acc.mean(), std_delay=self.acc.std(),
                        mean_efficiency=self.k * self.gens / self.received,
                        n_delays=self.acc.n,
                        rounds_hist={int(y): int(c) for y, c in enumerate(self.rounds) if c},
                        trace=trace, info_packets=self.k * self.gens,
                        received_packets=self.received, non_innovative=self.non_innovative,
                        delay_sums=self.acc)


_Trajectories = namedtuple("_Trajectories", "n s y hit received non_innovative retx")


def _trajectories(cfg, rng, n_gens):
    """Draw the rounds of generations 0..n_gens-1, yielding _Trajectories of _chunk_rows of them.

    Each field has one entry per generation of the block: n is the round-1
    size, s the systematic prefix received, y the round count, hit the slot
    within the last round where the k-th dof arrived, received every arrival,
    and non_innovative (real codec only, else None) the received coded
    packets that did not raise the rank before decode. retx lists the sizes
    of rounds 2..y, one generation after the other. Round 1 is one matrix of
    uniforms per block; rank counting draws each retransmission round for
    all generations still short of k dofs at once.
    """
    ch, cd = cfg.channel, cfg.coding
    k, eps = cd.k, ch.epsilon
    lo, hi, frac = cd.n_k_low, cd.n_k_high, cd.frac
    counts = [split_count(cd.R, i) for i in range(k + 1)]   # (floor, fraction) per dofs needed
    count_lo, count_frac = (np.array(col) for col in zip(*counts))
    rows = _chunk_rows(hi)
    for done in range(0, n_gens, rows):
        g = min(rows, n_gens - done)
        if frac > 0.0:
            n = lo + (rng.random(g) < frac).astype(np.int64)
        else:
            n = np.full(g, lo, dtype=np.int64)
        u = rng.random((g, hi))
        recv = (u >= eps) & (np.arange(hi)[None, :] < n[:, None])
        fails = ~recv[:, :k]
        s = np.where(fails.any(axis=1), fails.argmax(axis=1), k)
        received = recv.sum(axis=1)
        y = np.ones(g, dtype=np.int64)
        wasted = None
        if cfg.use_real_codec:
            hit = np.zeros(g, dtype=np.int64)
            wasted = np.zeros(g, dtype=np.int64)
            retx = []
            for i in range(g):
                tracker = _RankTracker(k)
                hit[i] = tracker.round(rng, recv[i, :n[i]], k)
                while tracker.rank < k:
                    y[i] += 1
                    if y[i] > MAX_ROUNDS:
                        raise NumericalError("retransmission loop did not terminate")
                    need = k - tracker.rank
                    size = count_lo[need]
                    if count_frac[need] > 0.0:   # a uniform only when R*need is fractional
                        size += rng.random() < count_frac[need]
                    flags = rng.random(size) >= eps
                    received[i] += int(flags.sum())
                    hit[i] = tracker.round(rng, flags, 0)
                    retx.append(size)
                wasted[i] = tracker.non_innovative
            retx = np.array(retx, dtype=np.int64)
        else:
            hit = np.argmax(np.cumsum(recv, axis=1) >= k, axis=1)
            l = np.maximum(k - received, 0)
            active = np.flatnonzero(l)
            sent = [(np.zeros(0, dtype=np.int64),) * 2]   # (generations, sizes) per round
            r = 1
            while active.size:
                r += 1
                if r > MAX_ROUNDS:
                    raise NumericalError("retransmission loop did not terminate")
                need = l[active]
                nl = count_lo[need] + (rng.random(active.size) < count_frac[need])
                u2 = rng.random((active.size, int(nl.max())))
                cum = np.cumsum((u2 < 1.0 - eps) & (np.arange(u2.shape[1])[None, :] < nl[:, None]),
                                axis=1)
                got = cum[:, -1]
                fin = got >= need
                hit[active[fin]] = np.argmax(cum[fin] >= need[fin, None], axis=1)
                received[active] += got
                l[active] = np.maximum(need - got, 0)
                y[active] = r
                sent.append((active, nl))
                active = active[~fin]
            gens, sizes = (np.concatenate(col) for col in zip(*sent))
            retx = sizes[np.argsort(gens, kind="stable")]
        yield _Trajectories(n, s, y, hit, received, wasted, retx)


def _run_idealized(cfg, rng):
    ch, cd = cfg.channel, cfg.coding
    t_s, t_p = ch.t_s, ch.t_p
    out = _Delivery(cfg)
    n_gens = out.n_gens
    # no generation has more than n_gens - 1 earlier ones, so a larger cap
    # changes nothing but the size of the carry and the window loop
    blockers = min(cd.b - 1 if cfg.hol_cap is None else cfg.hol_cap, n_gens - 1)

    # carry: absolute decode slot and propagation-hop count per window generation
    carry_slot = np.full(blockers, _NO_BLOCKER, dtype=np.int64)
    carry_beta = np.ones(blockers, dtype=np.int64)
    slot_offset = 0
    for n, s, y, hit, received, wasted, _ in _trajectories(cfg, rng, n_gens):
        g = n.size
        start = slot_offset + np.concatenate(([0], np.cumsum(n[:-1])))
        # y = 1 decodes at the k-th dof's arrival, later rounds land as bursts
        # costing 2*t_p each (retransmission slots are free in this mode).
        dec_slot = start + np.where(y == 1, hit + 1, n)
        dec_beta = 2 * y - 1

        # head-of-line bound: the latest decode of the previous `blockers`
        # generations, compared in each generation's own frame
        wf = np.full(g, -np.inf)
        wa = np.full(g, _NO_BLOCKER, dtype=np.int64)
        wb = np.zeros(g, dtype=np.int64)
        if blockers > 0:
            all_slot = np.concatenate((carry_slot, dec_slot))
            all_beta = np.concatenate((carry_beta, dec_beta))
            for t in range(1, blockers + 1):
                ca = all_slot[blockers - t:blockers - t + g]
                cb = all_beta[blockers - t:blockers - t + g]
                cf = (ca - start) * t_s + cb * t_p
                upd = cf > wf
                wf = np.where(upd, cf, wf)
                wa = np.where(upd, ca, wa)
                wb = np.where(upd, cb, wb)
            carry_slot = all_slot[-blockers:]
            carry_beta = all_beta[-blockers:]

        out.add(start, s, dec_slot, dec_beta, wa, wb, y, received, wasted)
        slot_offset += int(n.sum())
    return out.stats()


def _link_slots(blocks, n_gens, t_s, t_p):
    """Start and decode slot of every generation on relaxed mode's shared link.

    blocks yields the generations' _Trajectories in order. Feedback on a
    round ending at slot e is back 2*t_p later, so the next round may start
    from slot e + hold, hold = ceil(2*t_p/t_s - 1e-9). Each new generation
    waits for every retransmission ready by its turn; once none is left the
    link idles up to the next ready one. Ready slots rise in queueing order
    (a later end slot plus the same hold), so the queue is a FIFO.
    """
    hold = math.ceil(2.0 * t_p / t_s - 1e-9)
    start = np.zeros(n_gens, dtype=np.int64)
    dec_slot = np.zeros(n_gens, dtype=np.int64)
    queue = deque()   # (first slot it may start, generation, its rounds 2..y, next round, hit)

    def retransmit(cursor):
        _, j, sizes, r, hit = queue.popleft()
        if r + 1 == len(sizes):
            dec_slot[j] = cursor + hit + 1
        else:
            queue.append((cursor + sizes[r] + hold, j, sizes, r + 1, hit))
        return cursor + sizes[r]

    cursor = lo = 0
    for tr in blocks:
        part = slice(lo, lo + tr.n.size)
        retx = tr.retx.tolist()
        first = []
        prev = 0
        for j, size, last, hit in zip(range(lo, part.stop), tr.n.tolist(),
                                      np.cumsum(tr.y - 1).tolist(), tr.hit.tolist()):
            while queue and queue[0][0] <= cursor:
                cursor = retransmit(cursor)
            first.append(cursor)
            cursor += size
            if last > prev:
                queue.append((cursor + hold, j, retx[prev:last], 0, hit))
                prev = last
        start[part] = first
        one = tr.y == 1
        dec_slot[part][one] = start[part][one] + tr.hit[one] + 1
        lo = part.stop
    while queue:
        cursor = retransmit(max(cursor, queue[0][0]))
    return start, dec_slot


def _run_relaxed(cfg, rng):
    out = _Delivery(cfg)
    kept = []   # what delivery needs of each block; the rest goes once it is scheduled

    def blocks():
        for tr in _trajectories(cfg, rng, out.n_gens):
            kept.append((tr.s, tr.y, tr.received, tr.non_innovative))
            yield tr

    start, dec_slot = _link_slots(blocks(), out.n_gens, cfg.channel.t_s, cfg.channel.t_p)
    # Every decode and first arrival is a slot count plus one hop, so the
    # latest of all earlier decodes, the instant that blocks a generation,
    # is the running maximum of the integer decode slots.
    blk_slot = np.maximum.accumulate(np.concatenate(([_NO_BLOCKER], dec_slot[:-1])))
    for s, y, received, wasted in kept:
        part = slice(out.done, out.done + s.size)
        out.add(start[part], s, dec_slot[part], 1, blk_slot[part], 1, y, received, wasted)
    return out.stats()


def run_coded(config):
    """Simulate the coded transport per the configured mode."""
    rng = _rng_for(config.seed)
    if config.mode == "idealized":
        return _run_idealized(config, rng)
    return _run_relaxed(config, rng)


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
    del_alpha = comp_alpha[latest]
    del_beta = comp_beta[latest]
    delays = (del_alpha - idx) * t_s + del_beta * t_p

    warm_packets = _ARQ_WARMUP_BDP * ch.bdp
    if n <= warm_packets:
        raise ValueError(f"need more than {warm_packets} packets at bdp={ch.bdp}")
    trace = PacketTrace.build(idx, delays, t_s, 1) if config.collect_records else None
    acc = _PairStats(t_s, t_p)
    acc.add((del_alpha - idx)[warm_packets:], del_beta[warm_packets:])
    return SimStats(mean_delay=acc.mean(), std_delay=acc.std(),
                    mean_efficiency=1.0, n_delays=acc.n, trace=trace,
                    info_packets=acc.n, received_packets=acc.n, delay_sums=acc)


def replicate(config, reps, engine=run_coded):
    """Aggregate independent replications on spawned RNG streams.

    Reports the pooled mean/std over all packets, from the replications'
    merged integer delay sums, so the pool is exact: equal delays give their
    own value and zero std. Efficiency is over pooled counts, and the standard
    error of the mean is estimated across replications (needs reps >= 2).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if reps == 1:
        return engine(config)
    children = np.random.SeedSequence(config.seed).spawn(reps)
    stats = []
    for ss in children:
        sub = replace(config, seed=int(ss.generate_state(1)[0]), collect_records=False)
        stats.append(engine(sub))
    acc = _PairStats(config.channel.t_s, config.channel.t_p)
    for st in stats:
        acc.merge(st.delay_sums)
    info = sum(st.info_packets for st in stats)
    recv = sum(st.received_packets for st in stats)
    wasted = sum(st.non_innovative for st in stats)
    hist = sum((Counter(st.rounds_hist or {}) for st in stats), Counter())
    se = statistics.stdev(st.mean_delay for st in stats) / math.sqrt(reps)
    return SimStats(mean_delay=acc.mean(), std_delay=acc.std(),
                    mean_efficiency=info / recv, n_delays=acc.n,
                    replications=reps, se_mean=se,
                    rounds_hist=dict(sorted(hist.items())) or None,
                    info_packets=info, received_packets=recv, non_innovative=wasted,
                    delay_sums=acc)


def trace_csv(stats, config, out):
    """Write the per-packet trace as CSV with a config echo comment line."""
    if stats.trace is None:
        raise ValueError("run with collect_records=True to produce a trace")
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
