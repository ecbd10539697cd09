"""Simulator engines: exact lossless closure, determinism, ordering, baselines."""

import dataclasses
import io
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import codedelay.simulator as simulator
from codedelay.delay import expected_delay
from codedelay.gf256 import MUL
from codedelay.params import MAX_ROUND_PACKETS, derive_channel, derive_coding
from codedelay.simulator import (
    SimConfig,
    replicate,
    run_arq,
    run_coded,
    trace_csv,
)

from .helpers import (
    RecordingRng,
    ReferenceTracker,
    ScriptedCoefficients,
    reference_relaxed_slots,
    reference_trajectories,
)


def std_channel(epsilon=0.1):
    return derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=0.1)


def make_config(epsilon=0.1, k=16, margin=0.1, **kw):
    ch = std_channel(epsilon)
    cd = derive_coding(ch, k, margin=margin)
    return SimConfig(channel=ch, coding=cd, **kw)


class TestConfigValidation:
    def test_bad_mode(self):
        ch = std_channel()
        cd = derive_coding(ch, 8, margin=0.1)
        with pytest.raises(ValueError):
            SimConfig(channel=ch, coding=cd, mode="exact")

    def test_too_few_packets_for_one_generation(self):
        ch = std_channel()
        cd = derive_coding(ch, 8, margin=0.1)
        with pytest.raises(ValueError):
            SimConfig(channel=ch, coding=cd, n_packets=4)

    @pytest.mark.parametrize("field, value", [("hol_cap", -3), ("seed", -1)])
    def test_negative_value_rejected(self, field, value):
        ch = std_channel()
        cd = derive_coding(ch, 8, margin=0.1)
        with pytest.raises(ValueError, match=field):
            SimConfig(channel=ch, coding=cd, **{field: value})

    def test_warmup_guard(self):
        # k=16 at margin 0.1 gives b=6, so 60 generations are not enough
        cfg = make_config(n_packets=16 * 60, seed=1)
        with pytest.raises(ValueError):
            run_coded(cfg)
        cfg = make_config(n_packets=16 * 60, seed=1, mode="relaxed")
        with pytest.raises(ValueError):
            run_coded(cfg)

    def test_arq_warmup_guard(self):
        cfg = make_config(n_packets=1000, seed=1)  # needs > 10 * bdp
        with pytest.raises(ValueError):
            run_arq(cfg)


class TestLosslessClosure:
    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    def test_every_delay_is_one_slot_one_hop(self, mode):
        ch = std_channel(0.0)
        cd = derive_coding(ch, 4, R=1.25)
        cfg = SimConfig(channel=ch, coding=cd, mode=mode, n_packets=2000,
                        seed=3, collect_records=True)
        st = run_coded(cfg)
        want = ch.t_s + ch.t_p
        assert st.mean_delay == want
        assert st.std_delay == 0.0
        assert (st.trace.delay == want).all()
        assert st.mean_efficiency == 0.8  # 4 info packets of 5 sent
        assert set(st.rounds_hist) == {1}

    def test_arq_lossless(self):
        ch = std_channel(0.0)
        cd = derive_coding(ch, 4, R=1.25)
        cfg = SimConfig(channel=ch, coding=cd, n_packets=2000, seed=3,
                        collect_records=True)
        st = run_arq(cfg)
        want = ch.t_s + ch.t_p
        assert st.mean_delay == want
        assert st.std_delay == 0.0
        assert (st.trace.delay == want).all()
        assert st.mean_efficiency == 1.0


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    def test_same_seed_same_trace(self, mode):
        cfg = make_config(k=8, n_packets=3000, seed=42, mode=mode,
                          collect_records=True)
        a = run_coded(cfg)
        b = run_coded(cfg)
        assert a.mean_delay == b.mean_delay
        for f in dataclasses.fields(a.trace):
            np.testing.assert_array_equal(getattr(a.trace, f.name), getattr(b.trace, f.name))

    def test_different_seed_different_outcome(self):
        a = run_coded(make_config(k=8, n_packets=3000, seed=1))
        b = run_coded(make_config(k=8, n_packets=3000, seed=2))
        assert a.mean_delay != b.mean_delay


class TestAgainstAnalysis:
    def test_idealized_tracks_the_closed_form(self):
        cfg = make_config(k=16, margin=0.1, n_packets=100_000, seed=11)
        st = run_coded(cfg)
        dm = expected_delay(cfg.channel, cfg.coding)
        assert st.mean_delay == pytest.approx(dm.mean, rel=0.10)

    def test_relaxed_sits_above_the_lower_bound(self):
        cfg = make_config(k=16, margin=0.1, n_packets=20_000, seed=12,
                          mode="relaxed")
        st = run_coded(cfg)
        dm = expected_delay(cfg.channel, cfg.coding)
        assert st.mean_delay >= dm.mean

    def test_unblocked_cap_lowers_the_mean(self):
        base = run_coded(make_config(k=8, n_packets=20_000, seed=13))
        free = run_coded(make_config(k=8, n_packets=20_000, seed=13, hol_cap=0))
        assert free.mean_delay < base.mean_delay


class TestChunking:
    def test_small_chunks_agree_statistically(self, monkeypatch):
        cfg = make_config(k=8, n_packets=40_000, seed=21)
        big = run_coded(cfg)
        monkeypatch.setattr(simulator, "_CHUNK", 16)
        small = run_coded(cfg)
        assert small.n_delays == big.n_delays
        assert small.mean_delay == pytest.approx(big.mean_delay, rel=0.03)

    def test_round1_block_stays_under_the_element_budget(self):
        # the seeded golden cases send at most ~20 packets in round 1
        assert simulator._chunk_rows(64) == simulator._CHUNK
        big = MAX_ROUND_PACKETS + 1
        assert simulator._chunk_rows(big) * 8 * big <= simulator._CHUNK_BYTES
        assert simulator._chunk_rows(10 ** 9) == 1
        # with the real codec, a retransmission round's coefficient block
        # (up to R*k rows of k bytes per generation) and the basis count too
        hi, k = 1902, 1024
        assert simulator._chunk_rows(hi, k) * (hi + k) * k <= simulator._CHUNK_BYTES

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    def test_large_redundancy_runs_in_smaller_blocks(self):
        ch = std_channel()
        cd = derive_coding(ch, 4, R=3000.0)  # 12000 packets per round 1
        assert simulator._chunk_rows(cd.n_k_high) < simulator._CHUNK
        st = run_coded(SimConfig(channel=ch, coding=cd, n_packets=4000, seed=3))
        assert st.n_delays > 0 and math.isfinite(st.mean_delay)


    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    def test_real_codec_at_large_k_stays_in_bounded_memory(self, monkeypatch):
        # k = 1024 at margin 0.3 sends 1902 slots in round 1, 878 of them
        # coded: a generation's coefficient block is 0.9 MB and its basis
        # width about 310 columns. With a 4 MiB block cap every block holds
        # one generation, so the peak is one generation's arrays plus one
        # elimination sub-batch's temporaries.
        ch = std_channel(0.3)
        cd = derive_coding(ch, 1024, margin=0.3)
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", 4 << 20)
        assert simulator._chunk_rows(cd.n_k_high, cd.k) == 1
        cfg = SimConfig(channel=ch, coding=cd, n_packets=11 * 1024, seed=2, use_real_codec=True)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            st_ = run_coded(cfg)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st_.n_delays == 1024   # one generation past warm-up and cool-down
        assert peak < 8 << 20
        assert elapsed < 20.0


class TestInOrderDelivery:
    def test_relaxed_delivery_is_monotone(self):
        cfg = make_config(k=8, n_packets=16_000, seed=31, mode="relaxed",
                          collect_records=True)
        st = run_coded(cfg)
        slots = st.trace.delivered_slot
        assert np.all(np.diff(slots) >= -1e-6)

    def test_idealized_full_window_is_monotone(self):
        cfg = make_config(k=8, n_packets=8_000, seed=32, hol_cap=1000,
                          collect_records=True)
        st = run_coded(cfg)
        slots = st.trace.delivered_slot
        assert np.all(np.diff(slots) >= -1e-6)

    def test_relaxed_blocker_is_the_running_max_of_decode_slots(self):
        # reference: the per-generation float chain the relaxed engine kept
        # before its blocker became a running max, on decodes far apart
        k, n_gens = 4, 400
        cfg = make_config(k=k, n_packets=k * n_gens, seed=0, mode="relaxed",
                          collect_records=True)
        t_s, t_p = cfg.channel.t_s, cfg.channel.t_p
        rng = np.random.default_rng(5)
        start = np.cumsum(rng.integers(4, 9, n_gens))
        dec_slot = start + rng.integers(1, 200, n_gens)
        s = rng.integers(0, k + 1, n_gens)
        out = simulator._Delivery(cfg)
        blk = np.maximum.accumulate(np.concatenate(([simulator._NO_BLOCKER], dec_slot[:-1])))
        out.add(start, s, dec_slot, 1, blk, 1, rng.integers(1, 4, n_gens),
                rng.integers(k, 9, n_gens))

        want = []
        chain = None
        for j in range(n_gens):
            for i in range(k):
                own = i + 1 if i < s[j] else dec_slot[j] - start[j]
                if chain is not None and (chain - start[j]) * t_s + t_p > own * t_s + t_p:
                    own = chain - start[j]
                want.append((own - i) * t_s + t_p)
            dec_f = (dec_slot[j] - start[j]) * t_s + t_p
            if chain is None or dec_f >= (chain - start[j]) * t_s + t_p:
                chain = dec_slot[j]
        assert out.stats().trace.delay.tolist() == want

    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    def test_delivery_after_first_transmission(self, mode):
        cfg = make_config(k=8, n_packets=8_000, seed=33, mode=mode,
                          collect_records=True)
        st = run_coded(cfg)
        assert (st.trace.delivered_slot > st.trace.first_tx_slot).all()
        assert (st.trace.delay > 0).all()


def _sparse_bytes(level):
    """Coefficient map keeping only bytes below level: sparse rows, many zero or dependent."""
    return lambda block: np.where(block < level, block, 0).astype(np.uint8)


def _zero_rows(level):
    """Coefficient map zeroing every row whose first byte is below level."""
    return lambda block: block * (block[..., :1] >= level)


def _codec_config(epsilon, k, R, seed):
    ch = std_channel(epsilon)
    return SimConfig(channel=ch, coding=derive_coding(ch, k, R=R), n_packets=k * 50, seed=seed,
                     use_real_codec=True)


@st.composite
def _codec_blocks(draw):
    """(config, generations, coefficient map or None, elimination cell cap or None) of one block."""
    cfg = _codec_config(draw(st.floats(0.0, 0.45)), draw(st.integers(1, 64)),
                        draw(st.floats(1.0, 2.0)), draw(st.integers(0, 2 ** 32 - 1)))
    g = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["as drawn", "sparse", "zero rows"]))
    level = draw(st.integers(8, 96))
    coefficients = {"as drawn": None, "sparse": _sparse_bytes(level),
                    "zero rows": _zero_rows(level)}[kind]
    return cfg, g, coefficients, draw(st.sampled_from([None, 1, 64, 1024]))


def _codec_replay(cfg, g, coefficients=None):
    """Draw one block of g real-codec generations, replay its draws through the decoder
    reference and compare; returns the draws and the replay's per-generation codec record."""
    rng = RecordingRng(simulator._rng_for(cfg.seed), coefficients)
    (tr,) = simulator._trajectories(cfg, rng, g)
    rounds, hit, received, s, codec = reference_trajectories(
        rng.draws, cfg.coding, cfg.channel.epsilon, g, real_codec=True)
    assert tr.n.tolist() == [r[0] for r in rounds]
    assert tr.y.tolist() == [len(r) for r in rounds]
    assert tr.retx.tolist() == [size for r in rounds for size in r[1:]]
    assert tr.hit.tolist() == hit
    assert tr.received.tolist() == received
    assert tr.s.tolist() == s
    assert tr.non_innovative.tolist() == [wasted for wasted, _ in codec]
    return rng.draws, codec


class TestTrajectories:
    @pytest.mark.parametrize("epsilon, k, R", [(0.1, 8, 1.25), (0.3, 1, 1.5), (0.2, 16, 1.0),
                                               (0.35, 5, 1.1), (0.0, 4, 1.0)])
    def test_rank_counting_matches_a_scalar_replay(self, epsilon, k, R):
        ch = std_channel(epsilon)
        cd = derive_coding(ch, k, R=R)
        g = 600   # one block
        rng = RecordingRng(simulator._rng_for(81))
        cfg = SimConfig(channel=ch, coding=cd, n_packets=k * g, seed=81)
        (tr,) = simulator._trajectories(cfg, rng, g)
        rounds, hit, received, s, codec = reference_trajectories(rng.draws, cd, epsilon, g)
        assert codec is None
        assert tr.n.tolist() == [r[0] for r in rounds]
        assert tr.y.tolist() == [len(r) for r in rounds]
        assert tr.retx.tolist() == [size for r in rounds for size in r[1:]]
        assert tr.hit.tolist() == hit
        assert tr.received.tolist() == received
        assert tr.s.tolist() == s
        assert tr.non_innovative is None

    @pytest.mark.parametrize("use_real_codec", [False, True])
    def test_hit_lies_in_the_last_round(self, use_real_codec):
        cfg = make_config(epsilon=0.3, k=8, margin=0.0, n_packets=8 * 800, seed=82,
                          use_real_codec=use_real_codec)
        (tr,) = simulator._trajectories(cfg, simulator._rng_for(82), 800)
        assert (tr.y > 1).sum() > 100
        ends = np.cumsum(tr.y - 1)
        last = np.where(tr.y == 1, tr.n, tr.retx[np.maximum(ends - 1, 0)])
        assert np.all((tr.hit >= 0) & (tr.hit < last))
        assert tr.retx.size == ends[-1]

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_codec_blocks())
    def test_real_codec_matches_a_decoder_replay(self, case):
        cfg, g, coefficients, cells = case
        with pytest.MonkeyPatch.context() as mp:
            if cells is not None:
                mp.setattr(simulator, "_ELIM_CELLS", cells)
            _codec_replay(cfg, g, coefficients)

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    @pytest.mark.parametrize("edge", ["widths 0 to k", "zero rows", "basis over 3 rounds",
                                      "sub-batches"])
    def test_decoder_replay_reaches_the_edges(self, monkeypatch, edge):
        # each case is replayed like the drawn ones, and shows its edge
        calls = []
        if edge == "widths 0 to k":
            cfg, g, coefficients = _codec_config(0.45, 2, 1.0, seed=91), 40, None
        elif edge == "zero rows":
            cfg, g, coefficients = _codec_config(0.3, 16, 1.2, seed=92), 40, _zero_rows(96)
        elif edge == "basis over 3 rounds":
            cfg, g, coefficients = _codec_config(0.45, 8, 1.5, seed=93), 40, _sparse_bytes(24)
        else:
            cfg, g, coefficients = _codec_config(0.3, 32, 1.5, seed=94), 30, None
            reduce = simulator._reduce
            monkeypatch.setattr(simulator, "_ELIM_CELLS", 2000)
            monkeypatch.setattr(simulator, "_reduce",
                                lambda rows, *a: calls.append(rows.shape[0]) or reduce(rows, *a))
        draws, codec = _codec_replay(cfg, g, coefficients)
        k, eps = cfg.coding.k, cfg.channel.epsilon
        width = [int((row[:k] < eps).sum()) for row in draws[1 if cfg.coding.frac else 0]]
        if edge == "widths 0 to k":
            assert 0 in width and k in width
        elif edge == "zero rows":
            blocks = [d for d in draws if d.dtype == np.uint8]
            assert any((b == 0).all(axis=-1).any() for b in blocks)
        elif edge == "basis over 3 rounds":
            # a coded row of round 1 entered the basis, which then went
            # through rounds 2, 3 and 4
            assert any(ranks[0] > k - w and len(ranks) >= 4
                       for w, (_, ranks) in zip(width, codec))
        else:
            assert 1 < len(calls) and max(calls) < sum(w > 0 for w in width)


@st.composite
def _link_runs(draw):
    """(channel, [generation round sizes], [hit offsets], chunk sizes) for one relaxed schedule.

    2*t_p/t_s lands on or near an integer: t_p comes from an rtt or a t_p
    that puts it on a grid of quarter slots, or is drawn freely.
    """
    rate = draw(st.sampled_from([1e6, 1e7, 3e7, 1e8]))
    packet = draw(st.sampled_from([1e3, 1e4, 12000.0]))
    t_s = packet / rate
    hold = draw(st.integers(0, 300)) / 4.0   # the intended 2*t_p/t_s
    how = draw(st.sampled_from(["rtt", "t_p", "free"]))
    if how == "rtt":
        ch = derive_channel(0.1, rate, packet, rtt=t_s + hold * t_s)
    elif how == "t_p":
        ch = derive_channel(0.1, rate, packet, t_p=hold * t_s / 2.0)
    else:
        ch = derive_channel(0.1, rate, packet, t_p=draw(st.floats(0.0, 37.5 * t_s)))
    n_gens = draw(st.integers(1, 60))
    rounds, hits = [], []
    for _ in range(n_gens):
        y = draw(st.sampled_from([1, 1, 1, 2, 2, 3, 5]))
        sizes = draw(st.lists(st.integers(1, 12), min_size=y, max_size=y))
        rounds.append(sizes)
        hits.append(draw(st.integers(0, sizes[-1] - 1)))
    chunks = draw(st.lists(st.integers(1, 20), min_size=1, max_size=8))
    return ch, rounds, hits, chunks


def _schedule_blocks(rounds, hits, chunks):
    """_Trajectories blocks of the given generations, their sizes cycling through chunks."""
    def col(values):
        return np.array(values, dtype=np.int64)

    blocks = []
    lo, sizes = 0, itertools.cycle(chunks)
    while lo < len(rounds):
        part = slice(lo, min(lo + next(sizes), len(rounds)))
        gens = rounds[part]
        blocks.append(simulator._Trajectories(
            n=col([r[0] for r in gens]), s=None, y=col([len(r) for r in gens]),
            hit=col(hits[part]), received=None, non_innovative=None,
            retx=col([n for r in gens for n in r[1:]])))
        lo = part.stop
    return blocks


class TestRelaxedSchedule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_link_runs())
    def test_matches_the_float_heap_reference(self, case):
        # cursors stay below 60 * 5 * (12 + 75) slots, where the heap's float
        # instants are exact enough for its tolerance to decide every tie
        ch, rounds, hits, chunks = case
        start, dec_slot = simulator._link_slots(_schedule_blocks(rounds, hits, chunks),
                                                len(rounds), ch.t_s, ch.t_p)
        want_start, want_dec = reference_relaxed_slots(rounds, hits, ch.t_s, ch.t_p)
        assert start.tolist() == want_start
        assert dec_slot.tolist() == want_dec


def _paired_config(epsilon, k, mode, use_real_codec, seed, R=None, margin=None):
    ch = std_channel(epsilon)
    cd = derive_coding(ch, k, R=R, margin=margin)
    n_packets = k * (10 * cd.b + 40)   # 40 generations past the warm-up margins
    return SimConfig(channel=ch, coding=cd, mode=mode, n_packets=n_packets, seed=seed,
                     use_real_codec=use_real_codec, collect_records=True)


def _assert_same_rounds_relaxed_later(**point):
    ideal = run_coded(_paired_config(mode="idealized", **point))
    relaxed = run_coded(_paired_config(mode="relaxed", **point))
    for name in ("rounds_hist", "received_packets", "non_innovative", "mean_efficiency"):
        assert getattr(relaxed, name) == getattr(ideal, name), name
    assert np.all(relaxed.trace.delivered_slot >= ideal.trace.delivered_slot - 1e-6)


class TestSeedPairedModes:
    """Both modes draw the same trajectories from a seed; only their timing differs."""

    @pytest.mark.parametrize("use_real_codec", [False, True])
    @pytest.mark.parametrize("point", [
        dict(epsilon=0.1, k=8, margin=0.1),
        dict(epsilon=0.0, k=4, R=1.25),
        dict(epsilon=0.3, k=1, margin=0.1),
        dict(epsilon=0.2, k=8, R=1.0),
        dict(epsilon=0.05, k=32, margin=0.02),
    ])
    def test_fixed_points(self, point, use_real_codec):
        _assert_same_rounds_relaxed_later(use_real_codec=use_real_codec, seed=71, **point)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(epsilon=st.sampled_from([0.0, 0.01, 0.1, 0.2, 0.35]), k=st.integers(1, 24),
           R=st.sampled_from([1.0, 1.1, 1.25, 1.5]), use_real_codec=st.booleans(),
           seed=st.integers(0, 2 ** 32))
    def test_drawn_points(self, epsilon, k, R, use_real_codec, seed):
        _assert_same_rounds_relaxed_later(epsilon=epsilon, k=k, R=R,
                                          use_real_codec=use_real_codec, seed=seed)


def _coefficient_row(draw, k, earlier):
    """One coded row: random, zero, sparse, or a scaled copy or combination of earlier rows."""
    kinds = ["random", "zero", "sparse"] + (["copy", "combination"] if earlier else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return np.array(draw(st.lists(st.integers(0, 255), min_size=k, max_size=k)), dtype=np.uint8)
    if kind == "zero":
        return np.zeros(k, dtype=np.uint8)
    if kind == "sparse":
        return np.array(draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 255]),
                                      min_size=k, max_size=k)), dtype=np.uint8)
    picks = range(1 if kind == "copy" else draw(st.integers(2, 3)))
    row = np.zeros(k, dtype=np.uint8)
    for _ in picks:
        row ^= MUL[draw(st.integers(1, 255))][earlier[draw(st.integers(0, len(earlier) - 1))]]
    return row


@st.composite
def _generation_rounds(draw, k):
    """[(receive flags, systematic slots, coded coefficient rows)] of one generation, by round."""
    systematic = draw(st.sampled_from(["all", "none", "some"]))
    if systematic == "some":
        sys_flags = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    else:
        sys_flags = [systematic == "all"] * k
    earlier = []
    rounds = []
    for r in range(draw(st.integers(1, 6))):
        n_sys = k if r == 0 else 0
        n_coded = draw(st.integers(0, k + 2))
        rows = [_coefficient_row(draw, k, earlier) for _ in range(n_coded)]
        earlier += rows
        received = draw(st.sampled_from(["mixed", "all", "none"]))
        if received == "mixed":
            coded_flags = draw(st.lists(st.booleans(), min_size=n_coded, max_size=n_coded))
        else:
            coded_flags = [received == "all"] * n_coded
        flags = np.array((sys_flags if n_sys else []) + coded_flags, dtype=bool)
        rounds.append((flags, n_sys, np.array(rows, dtype=np.uint8).reshape(n_coded, k)))
    return rounds


@st.composite
def _generation_batches(draw):
    """(k, one _generation_rounds list per generation) for a batch of up to three."""
    k = draw(st.integers(1, 10))
    return k, draw(st.lists(_generation_rounds(k), min_size=1, max_size=3))


def _feed_both(k, gens):
    """Feed the generations' rounds to one _CodecRanks and each to its decoder reference.

    A round goes to every generation in round 1, then to those still short
    of k that have one, stacked and padded with lost slots whose rows are
    junk. Compares after each round; returns the rounds each generation was
    fed and the _CodecRanks.
    """
    g = len(gens)
    ranks, refs = simulator._CodecRanks(k, g), [ReferenceTracker(k) for _ in gens]
    fed = [0] * g
    for r in range(max(len(rounds) for rounds in gens)):
        active = [j for j in range(g) if r == 0 or (refs[j].rank < k and r < len(gens[j]))]
        if not active:
            break
        n_sys = k if r == 0 else 0
        slots = max(gens[j][r][0].size for j in active)
        flags = np.zeros((len(active), slots), dtype=bool)
        coeffs = np.full((len(active), slots - n_sys, k), 0xA5, dtype=np.uint8)
        for row, j in enumerate(active):
            f, _, mat = gens[j][r]
            flags[row, :f.size] = f
            coeffs[row, :mat.shape[0]] = mat
        fin, hit = ranks.round(ScriptedCoefficients([coeffs]), np.array(active), flags)
        for row, j in enumerate(active):
            f, _, mat = gens[j][r]
            want = refs[j].round(ScriptedCoefficients([mat]), f, n_sys)
            assert fin[row] == (want >= 0)
            if want >= 0:
                assert hit[row] == want
            assert (k - ranks.need[j], ranks.non_innovative[j]) == (refs[j].rank,
                                                                    refs[j].non_innovative)
            fed[j] += 1
    return fed, ranks


class TestRankTracker:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_generation_batches())
    def test_matches_the_payload_decoder(self, case):
        _feed_both(*case)

    def test_basis_carried_over_many_rounds(self):
        # no systematic packet arrives; two coded rows a round, the second of
        # each round a scaled copy of the first, so the basis grows one row a
        # round and the seventh round decodes
        rng = np.random.default_rng(3)
        k = 6
        rounds = [(np.zeros(k, dtype=bool), k, np.zeros((0, k), dtype=np.uint8))]
        for _ in range(7):
            row = rng.integers(1, 256, size=k, dtype=np.uint8)
            rounds.append((np.ones(2, dtype=bool), 0, np.stack([row, MUL[7][row]])))
        fed, ranks = _feed_both(k, [rounds])
        assert fed == [7]
        assert ranks.need[0] == 0
        assert ranks.non_innovative[0] == 5

    def test_every_systematic_packet_decodes_at_the_kth(self):
        k = 5
        flags = np.ones((1, k + 3), dtype=bool)
        coeffs = np.ones((1, 3, k), dtype=np.uint8)
        ranks = simulator._CodecRanks(k, 1)
        fin, hit = ranks.round(ScriptedCoefficients([coeffs]), np.arange(1), flags)
        assert fin.tolist() == [True] and hit.tolist() == [k - 1]
        assert (ranks.need[0], ranks.non_innovative[0]) == (0, 0)

    def test_rows_outside_the_missing_columns_carry_nothing(self):
        # packet 1 is missing; the first coded row touches only received
        # columns, the second is the zero combination and is not fed
        k = 3
        flags = np.array([True, False, True, True, True, True])
        coeffs = np.array([[5, 0, 9], [0, 0, 0], [1, 1, 1]], dtype=np.uint8)
        _, ranks = _feed_both(k, [[(flags, k, coeffs)]])
        assert (k - ranks.need[0], ranks.non_innovative[0]) == (k, 1)


_draw_trajectories = simulator._trajectories


def _replayed_trajectories(cfg, rng, n_gens):
    """_trajectories with every block's rounds and counts taken from the decoder replay of its draws."""
    rec = RecordingRng(rng)
    for tr in _draw_trajectories(cfg, rec, n_gens):
        rounds, hit, received, s, codec = reference_trajectories(
            rec.draws, cfg.coding, cfg.channel.epsilon, tr.n.size, real_codec=True)
        rec.draws.clear()

        def col(values):
            return np.array(values, dtype=np.int64)

        yield simulator._Trajectories(
            n=col([r[0] for r in rounds]), s=col(s), y=col([len(r) for r in rounds]),
            hit=col(hit), received=col(received), non_innovative=col([w for w, _ in codec]),
            retx=col([size for r in rounds for size in r[1:]]))


class TestRealCodec:
    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    def test_tracks_rank_counting(self, mode):
        # The codec run consumes extra draws for coefficients, so the two
        # estimates are statistically independent; 64k packets put the
        # standard error of the difference well inside the 3% band.
        kw = dict(k=8, n_packets=64_000, mode=mode)
        ideal = run_coded(make_config(seed=41, **kw))
        real = run_coded(make_config(seed=41, use_real_codec=True, **kw))
        assert real.mean_delay == pytest.approx(ideal.mean_delay, rel=0.03)
        assert real.mean_efficiency == pytest.approx(ideal.mean_efficiency, rel=0.02)

    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    @pytest.mark.parametrize("epsilon, k, margin", [(0.45, 1, 0.1), (0.3, 8, 0.0),
                                                    (0.2, 16, 0.05)])
    def test_engine_matches_the_decoder_reference(self, monkeypatch, mode, epsilon, k, margin):
        cfg = make_config(epsilon=epsilon, k=k, margin=margin, mode=mode, n_packets=3000,
                          seed=43, use_real_codec=True, collect_records=True)
        got = run_coded(cfg)
        monkeypatch.setattr(simulator, "_trajectories", _replayed_trajectories)
        want = run_coded(cfg)
        assert dataclasses.replace(got, trace=None) == dataclasses.replace(want, trace=None)
        for field in dataclasses.fields(got.trace):
            name = field.name
            assert np.array_equal(getattr(got.trace, name), getattr(want.trace, name)), name

    def test_non_innovative_counts_dependent_rows(self):
        # at R = 1 a round sends exactly the dofs missing, so every received
        # packet is fed before decode and either adds a dof or is counted;
        # over 2000 generations of k = 8 some coded rows are dependent
        ch = std_channel(0.3)
        cfg = SimConfig(channel=ch, coding=derive_coding(ch, 8, R=1.0), n_packets=16_000,
                        seed=44, use_real_codec=True)
        st_ = run_coded(cfg)
        assert st_.non_innovative > 0
        assert st_.received_packets == st_.info_packets + st_.non_innovative

    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    def test_lossless_run_has_no_non_innovative_packets(self, mode):
        cfg = make_config(epsilon=0.0, k=8, mode=mode, n_packets=3000, seed=45,
                          use_real_codec=True)
        assert run_coded(cfg).non_innovative == 0

    def test_rank_counting_reports_none(self):
        assert run_coded(make_config(k=8, n_packets=3000, seed=46)).non_innovative == 0


class TestReplicate:
    def test_single_replication_is_a_plain_run(self):
        cfg = make_config(k=8, n_packets=3000, seed=5)
        assert replicate(cfg, 1) == run_coded(cfg)

    def test_error_shrinks_with_more_replications(self):
        cfg = make_config(k=8, n_packets=2000, seed=6)
        se4 = replicate(cfg, 4).se_mean
        se64 = replicate(cfg, 64).se_mean
        assert se4 > 0 and se64 > 0
        assert se64 < se4

    def test_pooling(self):
        cfg = make_config(k=8, n_packets=2000, seed=7)
        single = run_coded(cfg)
        st = replicate(cfg, 4)
        assert st.replications == 4
        assert st.n_delays == 4 * single.n_delays
        assert st.mean_delay == pytest.approx(single.mean_delay, rel=0.1)
        assert 0.0 < st.mean_efficiency <= 1.0

    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    @pytest.mark.parametrize("rtt, k, reps", [(0.013, 3, 5), (0.0731, 3, 7),
                                              (0.1, 8, 3), (0.37, 8, 7)])
    def test_lossless_pool_is_exact(self, mode, rtt, k, reps):
        # every delay is one slot plus one hop, so pooling must not round
        ch = derive_channel(0.0, rate=1e7, packet_size=1e4, rtt=rtt)
        cd = derive_coding(ch, k, margin=0.1)
        cfg = SimConfig(channel=ch, coding=cd, mode=mode, n_packets=12 * cd.b * k, seed=1)
        pooled = replicate(cfg, reps)
        assert pooled.mean_delay == replicate(cfg, 1).mean_delay == ch.t_s + ch.t_p
        assert pooled.std_delay == 0.0
        assert pooled.se_mean == 0.0

    def test_validation(self):
        cfg = make_config(k=8, n_packets=2000, seed=7)
        with pytest.raises(ValueError):
            replicate(cfg, 0)

    def test_replications_keep_every_field_but_the_seed(self):
        cfg = make_config(k=4, margin=0.2, n_packets=2000, seed=9, hol_cap=2,
                          use_real_codec=True, collect_records=True)
        subs = []

        def engine(sub):
            subs.append(sub)
            return run_coded(sub)

        replicate(cfg, 3, engine=engine)
        assert len({sub.seed for sub in subs}) == 3
        for sub in subs:
            assert sub == dataclasses.replace(cfg, seed=sub.seed, collect_records=False)

    def test_non_innovative_is_summed(self):
        cfg = make_config(epsilon=0.3, k=8, margin=0.0, n_packets=4000, seed=8,
                          use_real_codec=True)
        runs = []

        def engine(sub):
            runs.append(run_coded(sub))
            return runs[-1]

        pooled = replicate(cfg, 3, engine=engine)
        assert pooled.non_innovative == sum(r.non_innovative for r in runs)


class TestArq:
    def test_matches_reference_event_loop(self):
        cfg = make_config(epsilon=0.2, k=8, n_packets=3000, seed=51,
                          collect_records=True)
        st = run_arq(cfg)
        ch = cfg.channel
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(51)))
        u = rng.random(3000)
        attempts = 1 + np.floor(np.log(1.0 - u) / math.log(0.2)).astype(np.int64)
        best_key = -math.inf
        best = (0, 0)
        for p in range(3000):
            a = int(attempts[p])
            alpha, beta = p + a, 2 * a - 1
            key = alpha * ch.t_s + beta * ch.t_p
            if key >= best_key:
                best_key = key
                best = (alpha, beta)
            want = (best[0] - p) * ch.t_s + best[1] * ch.t_p
            assert st.trace.delay[p] == want

    def test_mean_grows_with_loss(self):
        means = [run_arq(make_config(epsilon=e, k=8, n_packets=20_000, seed=52)).mean_delay
                 for e in (0.01, 0.1, 0.3)]
        assert means[0] < means[1] < means[2]

    def test_efficiency_is_unity(self):
        st = run_arq(make_config(epsilon=0.1, k=8, n_packets=3000, seed=53))
        assert st.mean_efficiency == 1.0


class TestTraceCsv:
    def test_layout_and_consistency(self):
        cfg = make_config(k=8, n_packets=2000, seed=61, collect_records=True)
        st = run_coded(cfg)
        buf = io.StringIO()
        trace_csv(st, cfg, buf)
        lines = buf.getvalue().splitlines()
        header = json.loads(lines[0][2:])
        assert header["k"] == 8
        assert header["seed"] == 61
        assert lines[1] == "packet_id,generation_id,first_tx_slot,delivered_slot,delay_s"
        assert len(lines) == 2 + len(st.trace.delay)
        ch = cfg.channel
        for row in lines[2:5]:
            pid, gid, fts, dslot, delay = row.split(",")
            assert float(dslot) == int(fts) + float(delay) / ch.t_s

    def test_requires_records(self):
        cfg = make_config(k=8, n_packets=2000, seed=61)
        st = run_coded(cfg)
        with pytest.raises(ValueError):
            trace_csv(st, cfg, io.StringIO())
