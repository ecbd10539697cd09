"""Simulator engines: exact lossless closure, determinism, ordering, baselines."""

import collections
import dataclasses
import io
import itertools
import json
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import codedelay.simulator as simulator
from codedelay.delay import expected_delay
from codedelay.gf256 import MUL
from codedelay.params import MAX_ROUND_PACKETS, InputError, derive_channel, derive_coding
from codedelay.simulator import (
    MAX_PACKETS,
    PacketTrace,
    SimConfig,
    replicate,
    run_arq,
    run_coded,
    trace_csv,
)

from .helpers import (
    RecordingRng,
    ReferenceDelivery,
    ReferenceTracker,
    ScriptedCoefficients,
    assert_same_block,
    assert_same_stats,
    assert_schedule_is_the_reference,
    assert_trace_is_the_reference,
    delay_sums,
    lane_rounds,
    link_schedule,
    reference_relaxed_slots,
    reference_replicate,
    reference_trace_csv,
    reference_trajectories,
    replayed_block,
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

    def test_run_length_is_bounded(self):
        ch = std_channel()
        cd = derive_coding(ch, 8, margin=0.1)
        assert SimConfig(channel=ch, coding=cd, n_packets=MAX_PACKETS).n_packets == MAX_PACKETS
        for n in (MAX_PACKETS + 1, 10**400):
            with pytest.raises(InputError, match=f"n_packets must be at most {MAX_PACKETS}"):
                SimConfig(channel=ch, coding=cd, n_packets=n)

    @pytest.mark.parametrize("field, value", [("hol_cap", -3), ("seed", -1)])
    def test_negative_value_rejected(self, field, value):
        ch = std_channel()
        cd = derive_coding(ch, 8, margin=0.1)
        with pytest.raises(ValueError, match=field):
            SimConfig(channel=ch, coding=cd, **{field: value})

    def test_hol_cap_rejected_in_relaxed_mode(self):
        ch = std_channel()
        cd = derive_coding(ch, 8, margin=0.1)
        for cap in (0, 3):
            with pytest.raises(InputError, match="idealized mode only"):
                SimConfig(channel=ch, coding=cd, mode="relaxed", hol_cap=cap)

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

    def test_arq_warmup_guard_draws_nothing(self, monkeypatch):
        # at BDP 10^5, 10^6 packets are all warm-up; drawing them first took
        # 97 MB, and a BDP-10^7 channel at MAX_PACKETS would take 100x that
        def no_draws(seed):
            raise AssertionError("run_arq drew its uniforms before its warm-up check")

        monkeypatch.setattr(simulator, "_rng_for", no_draws)
        ch = derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=100.0)
        cfg = SimConfig(channel=ch, coding=derive_coding(ch, 8, margin=0.1),
                        n_packets=10**6, seed=1)
        with pytest.raises(InputError, match="need more than 1000000 packets"):
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
        cfg = make_config(k=k, n_packets=k * n_gens, seed=0, mode="relaxed")
        t_s, t_p = cfg.channel.t_s, cfg.channel.t_p
        rng = np.random.default_rng(5)
        start = np.cumsum(rng.integers(4, 9, n_gens))
        dec_slot = start + rng.integers(1, 200, n_gens)
        s = rng.integers(0, k + 1, n_gens)
        blk = np.maximum.accumulate(np.concatenate(([simulator._NO_BLOCKER], dec_slot[:-1])))
        block = simulator._Trajectories(
            n=None, s=s, y=rng.integers(1, 4, n_gens), hit=None,
            received=rng.integers(k, 9, n_gens), non_innovative=None, retx=None)

        want = []   # (slots, hops) of every packet's delay
        chain = None
        for j in range(n_gens):
            for i in range(k):
                own = i + 1 if i < s[j] else dec_slot[j] - start[j]
                if chain is not None and (chain - start[j]) * t_s + t_p > own * t_s + t_p:
                    own = chain - start[j]
                want.append((int(own) - i, 1))
            dec_f = (dec_slot[j] - start[j]) * t_s + t_p
            if chain is None or dec_f >= (chain - start[j]) * t_s + t_p:
                chain = dec_slot[j]
        warm = simulator._WARMUP_FACTOR * cfg.coding.b
        counted = want[k * warm:k * (n_gens - warm)]
        sums = (len(counted), sum(a for a, _ in counted), sum(b for _, b in counted),
                sum(a * a for a, _ in counted), sum(a * b for a, b in counted),
                sum(b * b for _, b in counted))
        for collect_records in (True, False):
            out = simulator._Delivery(dataclasses.replace(cfg, collect_records=collect_records))
            out.add(block, start, dec_slot, 1, blk, 1)
            stats = out.stats()
            assert delay_sums(stats) == sums
            if collect_records:
                assert stats.trace.delay.tolist() == [a * t_s + b * t_p for a, b in want]
            else:
                assert stats.trace is None

    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    def test_delivery_after_first_transmission(self, mode):
        cfg = make_config(k=8, n_packets=8_000, seed=33, mode=mode,
                          collect_records=True)
        st = run_coded(cfg)
        assert (st.trace.delivered_slot > st.trace.first_tx_slot).all()
        assert (st.trace.delay > 0).all()


@st.composite
def _delivery_run(draw):
    """(config, blocks) of a _Delivery run of hand-drawn generations cut into blocks.

    Blockers are drawn as none (_NO_BLOCKER), an exact tie with a prefix
    packet's arrival or with the decode, one to three slots either side of a
    prefix arrival, or any slot up to past the decode. Relaxed runs pass
    scalar hop counts, idealized ones per-generation arrays; an idealized
    run may have no blocker at all, with zero hops, as hol_cap=0 gives. The
    blocks are cut anywhere, so the warm-up and cool-down margins fall inside
    them as often as between them.
    """
    k, b = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    warm = simulator._WARMUP_FACTOR * b
    n_gens = 2 * warm + draw(st.integers(1, 24))
    t_s, t_p = draw(st.sampled_from([(1.0, 0.5), (1e-3, 0.05), (0.1, 1 / 3), (0.008, 0.0125)]))
    relaxed = draw(st.booleans())
    capped = not relaxed and draw(st.booleans())   # hol_cap=0: nothing blocks
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    s = rng.integers(0, k + 1, n_gens)
    s[rng.integers(0, n_gens, 2)] = (0, k)
    start = np.cumsum(rng.integers(1, 2 * k + 3, n_gens)) + draw(st.integers(0, 10**9))
    y = rng.integers(1, 5, n_gens)
    dec_hops = np.ones(n_gens, dtype=np.int64) if relaxed else 2 * y - 1
    dec_rel = rng.integers(1, 3 * k + 20, n_gens)
    col = rng.integers(0, k, n_gens)
    kind = rng.integers(0, 5, n_gens)
    blk_hops = np.ones(n_gens, dtype=np.int64) if relaxed else 2 * rng.integers(1, 4, n_gens) - 1
    blk_rel = np.select(
        [kind == 1, kind == 2, kind == 3],
        [col + 1, dec_rel, col + 1 + rng.integers(-3, 4, n_gens)],
        rng.integers(-5, dec_rel + 6))
    blk_hops[kind == 1] = 1
    blk_hops[kind == 2] = dec_hops[kind == 2]
    blk_slot = start + blk_rel
    none = (kind == 0) | capped
    blk_slot[none] = simulator._NO_BLOCKER
    if not relaxed:
        blk_hops[none] = 0 if capped else rng.integers(0, 2, int(none.sum()))

    with_codec = draw(st.booleans())
    cuts = sorted(set(draw(st.lists(st.integers(1, n_gens - 1), max_size=6))))
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [n_gens]):
        g = slice(lo, hi)
        block = simulator._Trajectories(
            n=None, s=s[g], y=y[g], hit=None, received=k + rng.integers(0, 2 * k, hi - lo),
            non_innovative=rng.integers(0, 3, hi - lo) if with_codec else None, retx=None)
        hops = (1, 1) if relaxed else (dec_hops[g], blk_hops[g])
        blocks.append((block, start[g], start[g] + dec_rel[g], hops[0], blk_slot[g], hops[1]))
    cfg = SimpleNamespace(coding=SimpleNamespace(k=k, b=b), n_packets=n_gens * k,
                          channel=SimpleNamespace(t_s=t_s, t_p=t_p), collect_records=True)
    return cfg, blocks


def _delivered(cls, cfg, blocks):
    out = cls(cfg)
    for args in blocks:
        out.add(*args)
    return out.stats()


class TestDeliverySums:
    @settings(max_examples=300, deadline=None)
    @given(run=_delivery_run())
    def test_match_the_per_packet_reference(self, run):
        cfg, blocks = run
        ref = _delivered(ReferenceDelivery, cfg, blocks)
        assert_same_stats(_delivered(simulator._Delivery, cfg, blocks), ref)
        untraced = _delivered(simulator._Delivery, SimpleNamespace(**{**vars(cfg),
                                                                  "collect_records": False}),
                              blocks)
        assert delay_sums(untraced) == delay_sums(ref) and untraced.trace is None

    def test_unblockable_generation_sums_exactly(self):
        # the sums must not read _NO_BLOCKER, whose square is past int64
        cfg = SimpleNamespace(coding=SimpleNamespace(k=4, b=1), n_packets=44,
                              channel=SimpleNamespace(t_s=1e-3, t_p=0.05), collect_records=False)
        n_gens = 11
        block = simulator._Trajectories(n=None, s=np.full(n_gens, 2), y=np.ones(n_gens, int),
                                        hit=None, received=np.full(n_gens, 4),
                                        non_innovative=None, retx=None)
        start = 10 * np.arange(n_gens)
        stats = _delivered(simulator._Delivery, cfg, [
            (block, start, start + 6, 1, np.full(n_gens, simulator._NO_BLOCKER), 0)])
        # window generation 5 only: columns 0, 1 at (1, 1), columns 2, 3 at (6 - c, 1)
        assert delay_sums(stats) == (4, 1 + 1 + 4 + 3, 4, 1 + 1 + 16 + 9, 9, 4)

    @pytest.mark.parametrize("mode, k, hol_cap, real_codec", [
        ("idealized", 1, None, False), ("relaxed", 1, None, False),
        ("idealized", 8, None, False), ("relaxed", 8, None, True),
        ("idealized", 16, 0, False), ("idealized", 4, 10**12, False),
        ("relaxed", 64, None, False), ("idealized", 16, None, True)])
    def test_engine_runs_match_the_reference(self, monkeypatch, mode, k, hol_cap, real_codec):
        cfg = make_config(k=k, n_packets=max(6_000, 200 * k), seed=k, mode=mode,
                          hol_cap=hol_cap, use_real_codec=real_codec, collect_records=True)
        got = run_coded(cfg)
        monkeypatch.setattr(simulator, "_Delivery", ReferenceDelivery)
        assert_same_stats(got, run_coded(cfg))


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


def _replay(cfg, g, coefficients=None):
    """Draw one block of g generations, replay its draws through the scalar reference (the
    decoder reference with the real codec) and compare; returns the draws and the replay's
    per-generation codec record."""
    rng = RecordingRng(simulator._rng_for(cfg.seed), coefficients)
    (tr,) = simulator._trajectories(cfg, [rng], g)
    replay = reference_trajectories(rng.draws, cfg.coding, cfg.channel.epsilon, g,
                                    real_codec=cfg.use_real_codec)
    assert_same_block(tr, replayed_block(*replay))
    return rng.draws, replay[-1]


@st.composite
def _counting_blocks(draw):
    """(config, generations) of one rank-counting block. R is m/k in about half the draws,
    so R*k is an integer and every round-1 size is n_k_low."""
    eps, k = draw(st.floats(0.0, 0.45)), draw(st.integers(1, 64))
    if draw(st.booleans()):
        R = draw(st.integers(k, 2 * k)) / k
    else:
        R = draw(st.floats(1.0, 2.0))
    ch = std_channel(eps)
    cfg = SimConfig(channel=ch, coding=derive_coding(ch, k, R=R), n_packets=k * 50,
                    seed=draw(st.integers(0, 2 ** 32 - 1)))
    return cfg, draw(st.integers(1, 40))


class TestRunningCounts:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 600), st.integers(0, 40), st.sampled_from([np.uint8, np.uint16]),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_equals_cumsum_down_the_slots(self, rows, cols, dtype, p, seed):
        # past 255 slots uint8 counts wrap, the same in both: sums mod 256 add in any order
        flags = np.random.default_rng(seed).random((rows, cols)) < p
        want = np.cumsum(flags, axis=0, dtype=dtype)
        got = simulator._running_counts(flags, dtype)
        assert got.dtype == dtype and got.shape == flags.shape
        assert np.array_equal(got, want)


class TestTrajectories:
    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    @pytest.mark.parametrize("epsilon, k, R", [(0.1, 8, 1.25), (0.3, 1, 1.5), (0.2, 16, 1.0),
                                               (0.35, 5, 1.1), (0.0, 4, 1.0),
                                               (0.2, 200, 1.5)])   # 300 slots: 16-bit counts
    def test_rank_counting_matches_a_scalar_replay(self, epsilon, k, R):
        ch = std_channel(epsilon)
        g = min(600, 12_000 // k)   # one block, shorter at large k for the scalar replay
        _replay(SimConfig(channel=ch, coding=derive_coding(ch, k, R=R), n_packets=k * g,
                          seed=81), g)

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_counting_blocks())
    def test_rank_counting_matches_a_scalar_replay_on_drawn_blocks(self, case):
        _replay(*case)

    @pytest.mark.parametrize("use_real_codec", [False, True])
    def test_hit_lies_in_the_last_round(self, use_real_codec):
        cfg = make_config(epsilon=0.3, k=8, margin=0.0, n_packets=8 * 800, seed=82,
                          use_real_codec=use_real_codec)
        (tr,) = simulator._trajectories(cfg, [simulator._rng_for(82)], 800)
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
            _replay(cfg, g, coefficients)

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
        draws, codec = _replay(cfg, g, coefficients)
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
    """(channel, [generation round sizes], [hit offsets], chunk sizes, lanes) for relaxed schedules.

    2*t_p/t_s lands on or near an integer: t_p comes from an rtt or a t_p
    that puts it on a grid of quarter slots, or is drawn freely. The
    generations are split into lanes of equal length, dropping the
    remainder.
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
    lanes = draw(st.integers(1, min(4, n_gens)))
    return ch, rounds, hits, chunks, lanes


def _lanes_of(rounds, hits, lanes):
    """The generations' (rounds, hits) split into lanes of equal length, the remainder dropped."""
    g = len(rounds) // lanes
    return [(rounds[i * g:(i + 1) * g], hits[i * g:(i + 1) * g]) for i in range(lanes)]


def _schedule_blocks(lane_runs, chunks):
    """Lane-major _Trajectories blocks of each lane's (rounds, hits), sizes cycling through chunks.

    Every lane has as many generations; a block holds the same span of each
    lane's, lane after lane, as _trajectories' blocks do.
    """
    def col(values):
        return np.array(values, dtype=np.int64)

    blocks = []
    lo, sizes, n_gens = 0, itertools.cycle(chunks), len(lane_runs[0][0])
    while lo < n_gens:
        part = slice(lo, min(lo + next(sizes), n_gens))
        gens = [r for rounds, _ in lane_runs for r in rounds[part]]
        blocks.append(simulator._Trajectories(
            n=col([r[0] for r in gens]), s=None, y=col([len(r) for r in gens]),
            hit=col([h for _, hits in lane_runs for h in hits[part]]), received=None,
            non_innovative=None, retx=col([n for r in gens for n in r[1:]])))
        lo = part.stop
    return blocks


def _assert_lanes_match_the_reference(lane_runs, chunks, ch):
    """_link_slots over the lanes' blocks yields each block once, in order, each lane as the
    reference. Returns each lane's (start, dec)."""
    blocks = _schedule_blocks(lane_runs, chunks)
    assert lane_rounds(blocks, len(lane_runs)) == lane_runs
    schedule = link_schedule(blocks, len(lane_runs), ch)
    assert_schedule_is_the_reference(blocks, schedule, ch)
    return schedule[0]


def _link_channel(t_p_slots):
    """A 1 ms-slot channel whose one-way delay is t_p_slots slots."""
    return derive_channel(0.1, 1e7, 1e4, t_p=t_p_slots * 1e-3)


class TestRelaxedSchedule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_link_runs())
    def test_matches_the_float_heap_reference(self, case):
        # cursors stay below 60 * 5 * (12 + 75) slots, where the heap's float
        # instants are exact enough for its tolerance to decide every tie
        ch, rounds, hits, chunks, lanes = case
        _assert_lanes_match_the_reference(_lanes_of(rounds, hits, lanes), chunks, ch)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_link_runs())
    def test_holds_only_the_blocks_in_flight(self, case):
        # When block j is drawn, each lane's link has sent every first round
        # of the earlier blocks and stands at the end of the last one. A
        # generation is still in flight there when its last round starts at
        # or after that slot; every block before the first one holding such
        # a generation in any lane must already have been yielded.
        ch, rounds, hits, chunks, lanes = case
        lane_runs = _lanes_of(rounds, hits, lanes)
        blocks = _schedule_blocks(lane_runs, chunks)
        ends = np.cumsum([tr.n.size // lanes for tr in blocks]).tolist()
        busy = []   # per lane, each block's latest last-round start and the cursor after it
        for rounds, hits in lane_runs:
            start, dec = reference_relaxed_slots(rounds, hits, ch.t_s, ch.t_p)
            last_start = [d - h - 1 for d, h in zip(dec, hits)]
            busy.append([(max(last_start[lo:end]), start[end - 1] + rounds[end - 1][0])
                         for lo, end in zip([0] + ends, ends)])
        yielded, seen = [], []

        def source():
            for j, tr in enumerate(blocks):
                if j:
                    first_busy = min(next((i for i in range(j) if lane[i][0] >= lane[j - 1][1]), j)
                                     for lane in busy)
                    seen.append((len(yielded), first_busy))
                yield tr

        for tr, _, _ in simulator._link_slots(source(), lanes, ch.t_s, ch.t_p):
            yielded.append(tr)
        assert all(tr is block for tr, block in zip(yielded, blocks, strict=True))
        assert all(done >= first_busy for done, first_busy in seen)

    def test_ready_slot_at_a_start_goes_first(self):
        # hold 4: generation 0's round 1 ends at slot 4 and its retransmission
        # is ready at 8, the start of generation 2, and goes first
        (start, _), = _assert_lanes_match_the_reference([([[4, 3], [4], [4], [4]], [1, 0, 0, 0])],
                                                         [4], _link_channel(2))
        assert start == [0, 4, 11, 15]

    @pytest.mark.parametrize("t_p_slots, lane_runs, chunks", [
        # t_p 0, hold 0: each retransmission is ready as the round before it ends
        (0, [([[3, 2, 1], [2], [4, 4], [1], [2, 1]], [0, 1, 3, 0, 0])], [2]),
        # no retransmission queued at either block boundary, and one queued
        # by the last generation of a block
        (3, [([[3], [3], [3], [3, 2], [3], [3, 2], [3], [3]], [0, 0, 0, 1, 0, 1, 0, 0])], [3, 3]),
        # the last generation's retransmissions are still queued after the
        # last block, so the link idles up to them
        (10, [([[3], [2], [3, 2, 2]], [0, 1, 1])], [2]),
        # a lane with no multi-round generation beside one in which every
        # generation retransmits
        (1.5, [([[3], [4], [3], [5], [3]], [2, 3, 0, 4, 1]),
               ([[3, 2], [4, 1, 1], [3, 3], [5, 1], [3, 2, 2]], [1, 0, 2, 0, 1])], [2, 3]),
    ], ids=["hold-0", "empty-across-blocks", "drain", "quiet-beside-busy"])
    def test_edge_cases(self, t_p_slots, lane_runs, chunks):
        _assert_lanes_match_the_reference(lane_runs, chunks, _link_channel(t_p_slots))

    def test_k1_lanes_as_drawn(self, monkeypatch):
        # three lanes of 100 generations at k 1, in blocks of 16 as _trajectories draws them
        monkeypatch.setattr(simulator, "_CHUNK", 16)
        ch = derive_channel(0.3, 1e7, 1e4, rtt=0.005)
        cfg = SimConfig(channel=ch, coding=derive_coding(ch, 1, margin=0.1), n_packets=100)
        rngs = [simulator._rng_for(seed) for seed in range(3)]
        blocks = list(simulator._trajectories(cfg, rngs, 100))
        assert len(blocks) > 1 and all((tr.y > 1).any() for tr in blocks)
        _assert_lanes_match_the_reference(lane_rounds(blocks, 3), [16], ch)


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
    of k that have one, as slot-major flags (one column per generation)
    padded with lost slots whose rows are junk, with their running counts.
    Compares after each round; returns the rounds each generation was fed and
    the _CodecRanks.
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
        flags = np.zeros((slots, len(active)), dtype=bool)
        coeffs = np.full((len(active), slots - n_sys, k), 0xA5, dtype=np.uint8)
        for row, j in enumerate(active):
            f, _, mat = gens[j][r]
            flags[:f.size, row] = f
            coeffs[row, :mat.shape[0]] = mat
        fin, hit = ranks.round(np.array(active), flags, np.cumsum(flags, axis=0), coeffs)
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
        flags = np.ones((k + 3, 1), dtype=bool)   # slot-major: one column per generation
        coeffs = np.ones((1, 3, k), dtype=np.uint8)
        ranks = simulator._CodecRanks(k, 1)
        fin, hit = ranks.round(np.arange(1), flags, np.cumsum(flags, axis=0), coeffs)
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


def _replayed_trajectories(cfg, rngs, n_gens):
    """_trajectories of one lane with every block's rounds and counts taken from the decoder
    replay of its draws."""
    (rng,) = rngs
    rec = RecordingRng(rng)
    for tr in _draw_trajectories(cfg, [rec], n_gens):
        yield replayed_block(*reference_trajectories(
            rec.draws, cfg.coding, cfg.channel.epsilon, tr.n.size, real_codec=True))
        rec.draws.clear()


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
        assert_same_stats(got, run_coded(cfg))

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


@st.composite
def _replication_runs(draw):
    """(config, reps, generations per block) of one replicate call over both modes, rank
    counting and the real codec, hol_cap and records. Blocks of 16 generations split a lane
    into several; blocks of 256 hold one to a few lanes, so 20 replications run in batches."""
    mode = draw(st.sampled_from(["idealized", "relaxed"]))
    ch = derive_channel(draw(st.sampled_from([0.0, 0.1, 0.3])), rate=1e7, packet_size=1e4,
                        rtt=draw(st.sampled_from([0.005, 0.02])))
    k = draw(st.integers(1, 8))
    cd = derive_coding(ch, k, margin=draw(st.sampled_from([0.0, 0.1, 0.3])))
    n_gens = 10 * cd.b + draw(st.integers(1, 60))
    cfg = SimConfig(channel=ch, coding=cd, mode=mode,
                    n_packets=k * n_gens - draw(st.integers(0, k - 1)),
                    seed=draw(st.integers(0, 2 ** 32 - 1)),
                    use_real_codec=draw(st.booleans()),
                    hol_cap=None if mode == "relaxed" else draw(st.sampled_from([None, 0, 3])),
                    collect_records=draw(st.booleans()))
    return cfg, draw(st.integers(1, 20)), draw(st.sampled_from([16, 256, 4096]))


def _assert_replicate_is_the_reference(cfg, reps, chunk):
    """replicate(cfg, reps) equals reference_replicate field for field, in blocks of chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_CHUNK", chunk)
        assert_same_stats(replicate(cfg, reps), reference_replicate(cfg, reps))


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

    def test_total_run_length_is_bounded_before_seeds_are_spawned(self, monkeypatch):
        def no_seeds(*args):
            raise AssertionError("made seeds for a run above MAX_PACKETS")

        monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
        cfg = make_config(k=8, n_packets=2000, seed=7)
        for reps in (MAX_PACKETS // 2000 + 1, 10**400):
            with pytest.raises(InputError, match="reps \\* n_packets must be at most"):
                replicate(cfg, reps)

    def test_warm_up_is_checked_before_seeds_are_spawned(self, monkeypatch):
        # a run too short for its warm-up used to spawn one generator per replication first
        def no_seeds(*args):
            raise AssertionError("made seeds for a run too short for its warm-up")

        monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
        ch = derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=0.01)
        cfg = SimConfig(channel=ch, coding=derive_coding(ch, 1, margin=0.1), n_packets=10, seed=1)
        with pytest.raises(InputError, match="need more than .* generations for warm-up"):
            replicate(cfg, 10**7)

    def test_replications_keep_every_field_but_the_seed(self, monkeypatch):
        cfg = make_config(k=4, margin=0.2, n_packets=2000, seed=9, hol_cap=2,
                          use_real_codec=True, collect_records=True)
        calls = []

        def engine(sub, rngs):
            calls.append((sub, [np.random.Generator(np.random.Philox()) for _ in rngs]))
            for copy, rng in zip(calls[-1][1], rngs):
                copy.bit_generator.state = rng.bit_generator.state
            return run(sub, rngs)

        run = simulator._run
        monkeypatch.setattr(simulator, "_run", engine)
        replicate(cfg, 3)
        [(sub, lanes)] = calls
        assert sub == dataclasses.replace(cfg, collect_records=False)
        seeds = [int(ss.generate_state(1)[0])
                 for ss in np.random.SeedSequence(cfg.seed).spawn(3)]
        assert len(set(seeds)) == 3
        for lane, seed in zip(lanes, seeds, strict=True):
            assert np.array_equal(lane.random(8), simulator._rng_for(seed).random(8))

    def test_non_innovative_is_summed(self):
        cfg = make_config(epsilon=0.3, k=8, margin=0.0, n_packets=4000, seed=8,
                          use_real_codec=True)
        runs = [run_coded(dataclasses.replace(cfg, seed=int(ss.generate_state(1)[0])))
                for ss in np.random.SeedSequence(cfg.seed).spawn(3)]
        pooled = replicate(cfg, 3)
        assert pooled.non_innovative > 0
        assert pooled.non_innovative == sum(r.non_innovative for r in runs)

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_replication_runs())
    def test_lanes_equal_one_run_per_replication(self, case):
        _assert_replicate_is_the_reference(*case)

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    @pytest.mark.parametrize("mode, real_codec, chunk, reps", [
        ("idealized", False, 16, 3), ("relaxed", True, 16, 3),          # lanes of several blocks
        ("relaxed", False, 256, 20), ("idealized", True, 128, 7),       # several batches
        ("idealized", False, 4096, 20)])                                 # one batch
    def test_lanes_equal_one_run_per_replication_at_the_edges(self, mode, real_codec, chunk, reps):
        ch = derive_channel(0.2, rate=1e7, packet_size=1e4, rtt=0.01)
        cd = derive_coding(ch, 4, margin=0.1)
        cfg = SimConfig(channel=ch, coding=cd, mode=mode, n_packets=4 * (10 * cd.b + 30),
                        seed=reps, use_real_codec=real_codec, collect_records=True)
        n_gens = -(-cfg.n_packets // cd.k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            batches = simulator._batches(cfg, list(range(reps)))
        assert (n_gens > chunk) == (chunk == 16)
        assert (len(batches) > 1) == (chunk < 4096)
        _assert_replicate_is_the_reference(cfg, reps, chunk)


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


# bit patterns of 0.0, -0.0, the smallest positive subnormal, the negative
# subnormal of largest magnitude, +inf, -inf, and NaNs with three payloads
# (one with the sign bit set)
_SPECIAL_BITS = [0x0, 0x8000000000000000, 0x1, 0x800FFFFFFFFFFFFF,
                 0x7FF0000000000000, 0xFFF0000000000000,
                 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF4000000000000]
_SPECIALS = np.array(_SPECIAL_BITS, dtype=np.uint64).view(np.float64)


@st.composite
def _trace_float_columns(draw):
    """(delivered_slot, delay) columns drawn with heavy repetition from a small pool.

    The pool holds the special values above, a few drawn floats and the float
    one ulp above each of them.
    """
    drawn = np.array(draw(st.lists(st.floats(), min_size=1, max_size=4)))
    pool = np.concatenate([_SPECIALS, drawn, np.nextafter(drawn, np.inf)])
    n = draw(st.integers(0, 60))
    pick = st.lists(st.integers(0, pool.size - 1), min_size=n, max_size=n)
    return pool[draw(pick)], pool[draw(pick)]


def _trace_stats(delivered_slot, delay, k=8, ints=None):
    """A stats stand-in holding the given float columns; ints, if given, are the integer ones."""
    ids = np.arange(delay.size)
    packet_id, generation_id, first_tx_slot = ints or (ids, ids // k, 3 * ids)
    return SimpleNamespace(trace=PacketTrace(
        packet_id=packet_id, generation_id=generation_id, first_tx_slot=first_tx_slot,
        delivered_slot=delivered_slot, delay=delay))


def _repeating_floats(n, seed):
    """Two float columns of n rows drawn with repetition from a few hundred values."""
    rng = np.random.default_rng(seed)
    pool = rng.random(300) * 10.0 ** rng.integers(-5, 8, 300)
    return pool[rng.integers(0, 300, n)], pool[rng.integers(0, 300, n)]


# 0, 2**63 - 1 and both sides of every power of ten an int64 can hold
_DIGIT_BOUNDARIES = np.array(
    [0, 2**63 - 1] + [v for p in range(1, 19) for v in (10**p - 1, 10**p)], dtype=np.int64)


class _DiscardingSink:
    """A text file that drops what it is given, line by line as it comes."""

    def write(self, text):
        pass

    def writelines(self, lines):
        collections.deque(lines, maxlen=0)


def _matches_reference(stats, cfg):
    """trace_csv's text, checked against the reference writer's."""
    buf = io.StringIO()
    trace_csv(stats, cfg, buf)
    assert_trace_is_the_reference(buf.getvalue(), stats, cfg)
    return buf.getvalue()


class TestTraceCsv:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_trace_float_columns())
    @example((np.zeros(0), np.zeros(0)))
    @example((np.array([2.5]), np.array([-0.0])))
    def test_matches_reference_writer(self, columns):
        stats, cfg = _trace_stats(*columns), make_config(k=8)
        _matches_reference(stats, cfg)

    def test_signed_zeros_and_nan_payloads_keep_their_text(self):
        col = np.concatenate([_SPECIALS, _SPECIALS[::-1]])
        stats, cfg = _trace_stats(col, col[::-1].copy()), make_config(k=8)
        text = _matches_reference(stats, cfg)
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert [r[3] for r in rows[:6]] == ["0.0", "-0.0", "5e-324", "-2.225073858507201e-308",
                                            "inf", "-inf"]
        assert {r[3] for r in rows[6:9]} == {"nan"}

    @pytest.mark.parametrize("real_codec", [False, True], ids=["counting", "codec"])
    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    def test_seeded_run_matches_reference_writer(self, mode, real_codec):
        cfg = make_config(epsilon=0.2, k=8, n_packets=3000, seed=63, mode=mode,
                          use_real_codec=real_codec, collect_records=True)
        st = run_coded(cfg)
        _matches_reference(st, cfg)

    @pytest.mark.parametrize("rows", [simulator._CHUNK - 1, simulator._CHUNK,
                                      simulator._CHUNK + 1, 2 * simulator._CHUNK + 1])
    def test_block_edges_match_reference_writer(self, rows):
        stats, cfg = _trace_stats(*_repeating_floats(rows, seed=rows)), make_config(k=8)
        _matches_reference(stats, cfg)

    def test_digit_width_boundaries_match_reference_writer(self):
        # in the first column, the first block holds one-digit values only,
        # the second every width up to 19 digits, the third each boundary
        # once and a few one-digit values; the other two columns reverse and
        # rotate it, so every field's width changes from block to block
        chunk = simulator._CHUNK
        rng = np.random.default_rng(66)
        small = rng.integers(0, 10, chunk)
        wide = _DIGIT_BOUNDARIES[rng.integers(0, _DIGIT_BOUNDARIES.size, chunk)]
        column = np.concatenate([small, wide, _DIGIT_BOUNDARIES, small[:7]])
        ints = (column, column[::-1].copy(), np.roll(column, chunk // 3))
        stats = _trace_stats(*_repeating_floats(column.size, seed=66), ints=ints)
        cfg = make_config(k=8)
        text = _matches_reference(stats, cfg)
        lines = text.splitlines()[2:]
        assert lines[2 * chunk].startswith("0,")
        assert lines[2 * chunk + 1].startswith("9223372036854775807,")

    def test_float_column_with_one_distinct_value(self):
        delay = np.full(simulator._CHUNK + 5, 0.1)
        stats = _trace_stats(np.full(delay.size, 7.0), delay)
        cfg = make_config(k=8)
        text = _matches_reference(stats, cfg)
        assert text.splitlines()[2] == "0,0,0,7.0,0.1"

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_negative_integers_are_rejected(self, column):
        # no simulator trace holds one; the writer refuses rather than guess a layout
        ids = np.arange(10)
        ints = [ids, ids // 8, 3 * ids]
        ints[column] = ints[column] - 5
        stats = _trace_stats(np.ones(10), np.ones(10), ints=tuple(ints))
        with pytest.raises(ValueError, match="nonnegative"):
            trace_csv(stats, make_config(k=8), io.StringIO())

    def test_peak_memory_within_the_reference_writers(self):
        cfg = make_config(k=16, n_packets=200_000, seed=64, collect_records=True)
        st = run_coded(cfg)
        assert st.trace.delay.size == 200_000

        def peak(writer):
            tracemalloc.start()
            try:
                writer(st, cfg, _DiscardingSink())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(trace_csv) <= peak(reference_trace_csv)

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
