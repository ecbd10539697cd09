"""Simulator engines: exact lossless closure, determinism, ordering, baselines."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

import codedelay.simulator as simulator
from codedelay.delay import expected_delay
from codedelay.params import MAX_ROUND_PACKETS, derive_channel, derive_coding
from codedelay.simulator import (
    SimConfig,
    replicate,
    run_arq,
    run_coded,
    trace_csv,
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
        assert simulator._chunk_rows(big) * big <= simulator._CHUNK_ELEMENTS
        assert simulator._chunk_rows(10 ** 9) == 1

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    def test_large_redundancy_runs_in_smaller_blocks(self):
        ch = std_channel()
        cd = derive_coding(ch, 4, R=3000.0)  # 12000 packets per round 1
        assert simulator._chunk_rows(cd.n_k_high) < simulator._CHUNK
        st = run_coded(SimConfig(channel=ch, coding=cd, n_packets=4000, seed=3))
        assert st.n_delays > 0 and math.isfinite(st.mean_delay)


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

    @pytest.mark.parametrize("mode", ["idealized", "relaxed"])
    def test_delivery_after_first_transmission(self, mode):
        cfg = make_config(k=8, n_packets=8_000, seed=33, mode=mode,
                          collect_records=True)
        st = run_coded(cfg)
        assert (st.trace.delivered_slot > st.trace.first_tx_slot).all()
        assert (st.trace.delay > 0).all()


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

    def test_validation(self):
        cfg = make_config(k=8, n_packets=2000, seed=7)
        with pytest.raises(ValueError):
            replicate(cfg, 0)


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
