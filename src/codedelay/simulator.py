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

Every event time in either mode is alpha*t_s + beta*t_p with integer alpha
and beta, so times are tracked as integer pairs and only converted to floats
for comparisons and reporting. That keeps the lossless case exact and avoids
cancellation when a run spans millions of slots.

Each quantity has one implementation. Transmit counts come from a per-run
table of params.split_count(R, i) for i = 0..k; the vectorized site draws one
uniform per active generation, the scalar sites draw only when the fraction
is nonzero. With the real codec, every round, first or retransmission, goes
through _codec_round. Per-packet traces are a columnar PacketTrace of numpy
arrays built from the engines' own delay arrays.

The RNG is numpy's Philox counter generator seeded through SeedSequence, and
all variate generation is inverse-transform from its uniforms, so a fixed
seed reproduces traces bit for bit; tests/test_golden.py pins the bytes of a
set of seeded CLI runs.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import DecoderState, CodedPacket
from .kernel import MAX_ROUNDS, NumericalError
from .params import split_count

_CHUNK = 4096
_WARMUP_FACTOR = 5
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


def _rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _count_table(R, k):
    """split_count(R, i) for i = 0..k: the (floor, fraction) transmit count per dofs needed."""
    return [split_count(R, i) for i in range(k + 1)]


def _draw_count(rng, counts, need):
    """Transmit count for `need` dofs; draws a uniform only when R*need is fractional."""
    n, frac = counts[need]
    return n + (rng.random() < frac) if frac > 0.0 else n


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


def _codec_round(rng, dec, flags, n_sys, k):
    """Feed one round into a decoder with true GF(2^8) innovation checks.

    Slots below n_sys carry systematic packets 0..n_sys-1, the rest random
    combinations. Coefficients are drawn for every coded slot, received or
    not, because the sender draws them before the channel acts. Returns the
    slot at which the rank reached k, or -1.
    """
    coeffs = rng.integers(0, 256, size=(flags.shape[0] - n_sys, k), dtype=np.uint8)
    empty = np.zeros(0, dtype=np.uint8)
    for c in np.flatnonzero(flags).tolist():
        if c < n_sys:
            dec.ingest(CodedPacket(0, c, None, empty))
        elif coeffs[c - n_sys].any():  # the zero combination carries nothing
            dec.ingest(CodedPacket(0, None, coeffs[c - n_sys], empty))
        if dec.rank >= k:
            return c
    return -1


def _run_idealized(cfg, rng):
    ch, cd = cfg.channel, cfg.coding
    k, eps = cd.k, ch.epsilon
    t_s, t_p = ch.t_s, ch.t_p
    lo, hi, frac = cd.n_k_low, cd.n_k_high, cd.frac
    counts = _count_table(cd.R, k)
    count_lo, count_frac = (np.array(col) for col in zip(*counts))
    blockers = cd.b - 1 if cfg.hol_cap is None else cfg.hol_cap
    n_gens = -(-cfg.n_packets // k)
    warm = _WARMUP_FACTOR * cd.b
    if n_gens <= 2 * warm:
        raise ValueError(
            f"need more than {2 * warm} generations for warm-up and cool-down "
            f"at b={cd.b}; got {n_gens}")

    acc = _PairStats(t_s, t_p)
    rounds = np.zeros(64, dtype=np.int64)
    received_counted = 0
    gens_counted = 0
    trace_parts = [] if cfg.collect_records else None

    # carry: absolute decode slot and propagation-hop count per window generation
    carry_slot = np.full(blockers, -(1 << 60), dtype=np.int64)
    carry_beta = np.ones(blockers, dtype=np.int64)
    slot_offset = 0
    done = 0
    cols_k = np.arange(k)
    while done < n_gens:
        g = min(_CHUNK, n_gens - done)
        if frac > 0.0:
            n = lo + (rng.random(g) < frac).astype(np.int64)
        else:
            n = np.full(g, lo, dtype=np.int64)
        u = rng.random((g, hi))
        recv = (u >= eps) & (np.arange(hi)[None, :] < n[:, None])
        sys_part = recv[:, :k]
        fails = ~sys_part
        any_fail = fails.any(axis=1)
        s = np.where(any_fail, fails.argmax(axis=1), k)

        got1 = recv.sum(axis=1)
        received = got1.copy()
        y = np.ones(g, dtype=np.int64)
        if cfg.use_real_codec:
            dec_col = np.zeros(g, dtype=np.int64)
            for i in range(g):
                dec = DecoderState(0, k, 0)
                dec_col[i] = _codec_round(rng, dec, recv[i, :n[i]], k, k)
                while dec.rank < k:
                    y[i] += 1
                    if y[i] > MAX_ROUNDS:
                        raise NumericalError("retransmission loop did not terminate")
                    flags = rng.random(_draw_count(rng, counts, k - dec.rank)) >= eps
                    received[i] += int(flags.sum())
                    _codec_round(rng, dec, flags, 0, k)
        else:
            cum = np.cumsum(recv, axis=1)
            dec_col = np.argmax(cum >= k, axis=1)
            l = np.maximum(k - got1, 0)
            active = np.flatnonzero(l)
            r = 1
            while active.size:
                r += 1
                if r > MAX_ROUNDS:
                    raise NumericalError("retransmission loop did not terminate")
                need = l[active]
                nl = count_lo[need] + (rng.random(active.size) < count_frac[need])
                u2 = rng.random((active.size, int(nl.max())))
                got = ((u2 < 1.0 - eps) & (np.arange(u2.shape[1])[None, :] < nl[:, None])).sum(axis=1)
                received[active] += got
                l[active] = np.maximum(l[active] - got, 0)
                y[active] = r
                active = active[l[active] > 0]

        start = slot_offset + np.concatenate(([0], np.cumsum(n[:-1])))
        # decode instant relative to the generation's first slot:
        # y = 1 decodes at the k-th dof's arrival, later rounds land as bursts
        # costing 2*t_p each (retransmission slots are free in this mode).
        dec_alpha = np.where(y == 1, dec_col + 1, n)
        dec_beta = 2 * y - 1
        dec_slot_abs = start + dec_alpha

        # head-of-line bound from the previous `blockers` generations
        wf = np.full(g, -np.inf)
        wa = np.full(g, -(1 << 60), dtype=np.int64)
        wb = np.zeros(g, dtype=np.int64)
        if blockers > 0:
            all_slot = np.concatenate((carry_slot, dec_slot_abs))
            all_beta = np.concatenate((carry_beta, dec_beta))
            base = np.arange(blockers, blockers + g)
            for t in range(1, blockers + 1):
                ca = all_slot[base - t]
                cb = all_beta[base - t]
                cf = (ca - start) * t_s + cb * t_p
                upd = cf > wf
                wf = np.where(upd, cf, wf)
                wa = np.where(upd, ca, wa)
                wb = np.where(upd, cb, wb)
            carry_slot = all_slot[-blockers:]
            carry_beta = all_beta[-blockers:]

        # per-packet delivery, everything relative to each generation's start
        prefix_mask = cols_k[None, :] < s[:, None]
        arr_f = (cols_k[None, :] + 1) * t_s + t_p
        own_f = np.where(prefix_mask,
                         arr_f,
                         (dec_alpha[:, None]) * t_s + dec_beta[:, None] * t_p)
        own_alpha = np.where(prefix_mask, cols_k[None, :] + 1, dec_alpha[:, None])
        own_beta = np.where(prefix_mask, 1, dec_beta[:, None])
        blocked = (wf[:, None] > own_f)
        del_alpha = np.where(blocked, (wa - start)[:, None], own_alpha)
        del_beta = np.where(blocked, wb[:, None], own_beta)

        gen_ids = np.arange(done, done + g)
        window = (gen_ids >= warm) & (gen_ids < n_gens - warm)
        if window.any():
            acc.add((del_alpha - cols_k[None, :])[window], del_beta[window])
            received_counted += int(received[window].sum())
            gens_counted += int(window.sum())
            yw = y[window]
            if yw.max() >= rounds.size:
                rounds = np.concatenate((rounds, np.zeros(int(yw.max()) + 1 - rounds.size, dtype=np.int64)))
            rounds += np.bincount(yw, minlength=rounds.size)

        if trace_parts is not None:
            trace_parts.append((start[:, None] + cols_k[None, :],
                                (del_alpha - cols_k[None, :]) * t_s + del_beta * t_p))

        slot_offset += int(n.sum())
        done += g

    hist = {int(yy): int(c) for yy, c in enumerate(rounds) if c}
    trace = None
    if trace_parts is not None:
        first, delay = (np.concatenate([a.ravel() for a in col]) for col in zip(*trace_parts))
        trace = PacketTrace.build(first, delay, t_s, k)
    return SimStats(mean_delay=acc.mean(), std_delay=acc.std(),
                    mean_efficiency=k * gens_counted / received_counted,
                    n_delays=acc.n, rounds_hist=hist, trace=trace,
                    info_packets=k * gens_counted,
                    received_packets=received_counted)


def _run_relaxed(cfg, rng):
    import heapq

    ch, cd = cfg.channel, cfg.coding
    k, eps = cd.k, ch.epsilon
    t_s, t_p = ch.t_s, ch.t_p
    counts = _count_table(cd.R, k)
    n_gens = -(-cfg.n_packets // k)
    warm = _WARMUP_FACTOR * cd.b
    if n_gens <= 2 * warm:
        raise ValueError(
            f"need more than {2 * warm} generations for warm-up and cool-down "
            f"at b={cd.b}; got {n_gens}")

    start = np.zeros(n_gens, dtype=np.int64)
    s_arr = np.zeros(n_gens, dtype=np.int64)
    dec_alpha_abs = np.zeros(n_gens, dtype=np.int64)   # absolute decode slot
    dec_beta = np.zeros(n_gens, dtype=np.int64)
    y_arr = np.zeros(n_gens, dtype=np.int64)
    received = np.zeros(n_gens, dtype=np.int64)

    # pending retransmissions: (available time, sequence, generation, dofs needed)
    heap = []
    seq = 0
    decoders = {}
    cursor = 0
    nxt = 0
    tol = 1e-9 * t_s

    def send_round(j, need):
        """Send generation j's next round at `cursor`; returns its receive flags."""
        nonlocal cursor, seq
        n = _draw_count(rng, counts, need)
        flags = rng.random(n) >= eps
        received[j] += int(flags.sum())
        y_arr[j] += 1
        if y_arr[j] > MAX_ROUNDS:
            raise NumericalError("retransmission loop did not terminate")
        if cfg.use_real_codec:
            first = y_arr[j] == 1
            dec = DecoderState(0, k, 0) if first else decoders.pop(j)
            hit = _codec_round(rng, dec, flags, k if first else 0, k)
            remaining = k - dec.rank
            if remaining:
                decoders[j] = dec
        else:
            cum = np.cumsum(flags)
            remaining = max(need - int(cum[-1]), 0)
            hit = -1 if remaining else int(np.searchsorted(cum, need))
        if remaining == 0:
            dec_alpha_abs[j] = cursor + hit + 1
            dec_beta[j] = 1
        else:
            heapq.heappush(heap, ((cursor + n) * t_s + 2.0 * t_p, seq, j, remaining))
            seq += 1
        cursor += n
        return flags

    while nxt < n_gens or heap:
        if heap and (heap[0][0] <= cursor * t_s + tol or nxt >= n_gens):
            avail, _, j, need = heapq.heappop(heap)
            if avail > cursor * t_s + tol:
                cursor = int(math.ceil(avail / t_s - 1e-9))
            send_round(j, need)
        else:
            start[nxt] = cursor
            sys_flags = send_round(nxt, k)[:k]
            s_arr[nxt] = int(np.argmin(sys_flags)) if not sys_flags.all() else k
            nxt += 1

    # in-order delivery chained through every generation
    acc = _PairStats(t_s, t_p)
    rounds = {}
    received_counted = 0
    gens_counted = 0
    cols_k = np.arange(k)
    if cfg.collect_records:
        trace_alpha = np.zeros((n_gens, k), dtype=np.int64)
        trace_beta = np.zeros((n_gens, k), dtype=np.int64)
    chain_f = -np.inf
    chain_alpha = 0
    chain_beta = 0
    for j in range(n_gens):
        rel_dec = dec_alpha_abs[j] - start[j]
        dec_f = rel_dec * t_s + dec_beta[j] * t_p
        arr_f = (cols_k + 1) * t_s + t_p
        chain_rel_f = (chain_alpha - start[j]) * t_s + chain_beta * t_p if chain_f > -np.inf else -np.inf
        own_f = np.where(cols_k < s_arr[j], arr_f, dec_f)
        own_alpha = np.where(cols_k < s_arr[j], cols_k + 1, rel_dec)
        own_beta = np.where(cols_k < s_arr[j], 1, dec_beta[j])
        blocked = chain_rel_f > own_f
        d_alpha = np.where(blocked, chain_alpha - start[j], own_alpha) - cols_k
        d_beta = np.where(blocked, chain_beta, own_beta)
        if dec_f >= chain_rel_f:
            chain_f = dec_f
            chain_alpha = dec_alpha_abs[j]
            chain_beta = dec_beta[j]
        if warm <= j < n_gens - warm:
            acc.add(d_alpha, d_beta)
            received_counted += int(received[j])
            gens_counted += 1
            rounds[int(y_arr[j])] = rounds.get(int(y_arr[j]), 0) + 1
        if cfg.collect_records:
            trace_alpha[j] = d_alpha
            trace_beta[j] = d_beta
    trace = None
    if cfg.collect_records:
        trace = PacketTrace.build((start[:, None] + cols_k).ravel(),
                                  (trace_alpha * t_s + trace_beta * t_p).ravel(), t_s, k)
    return SimStats(mean_delay=acc.mean(), std_delay=acc.std(),
                    mean_efficiency=k * gens_counted / received_counted,
                    n_delays=acc.n, rounds_hist=dict(sorted(rounds.items())),
                    trace=trace, info_packets=k * gens_counted,
                    received_packets=received_counted)


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
                    info_packets=acc.n, received_packets=acc.n)


def replicate(config, reps, engine=run_coded):
    """Aggregate independent replications on spawned RNG streams.

    Reports the pooled mean/std over all packets, efficiency over pooled
    counts, and the standard error of the mean estimated across replications
    (needs reps >= 2).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if reps == 1:
        return engine(config)
    children = np.random.SeedSequence(config.seed).spawn(reps)
    stats = []
    for ss in children:
        sub_seed = ss.generate_state(1)[0]
        sub = SimConfig(channel=config.channel, coding=config.coding,
                        mode=config.mode, n_packets=config.n_packets,
                        seed=int(sub_seed), use_real_codec=config.use_real_codec,
                        hol_cap=config.hol_cap, collect_records=False)
        stats.append(engine(sub))
    n_total = sum(st.n_delays for st in stats)
    mean = sum(st.mean_delay * st.n_delays for st in stats) / n_total
    m2 = sum((st.std_delay ** 2 + st.mean_delay ** 2) * st.n_delays
             for st in stats) / n_total
    info = sum(st.info_packets for st in stats)
    recv = sum(st.received_packets for st in stats)
    hist = {}
    for st in stats:
        for yy, c in (st.rounds_hist or {}).items():
            hist[yy] = hist.get(yy, 0) + c
    se = None
    if reps >= 2:
        means = np.array([st.mean_delay for st in stats])
        se = float(means.std(ddof=1) / math.sqrt(reps))
    return SimStats(mean_delay=mean, std_delay=math.sqrt(max(m2 - mean * mean, 0.0)),
                    mean_efficiency=info / recv, n_delays=n_total,
                    replications=reps, se_mean=se,
                    rounds_hist=dict(sorted(hist.items())) or None,
                    info_packets=info, received_packets=recv)


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
    out.writelines("%d,%d,%d,%r,%r\n" % row for row in zip(*(c.tolist() for c in columns)))
