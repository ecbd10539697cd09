"""Acceptance suite: one test per release criterion, each with a runtime budget.

Every test prints a single PASS line with its elapsed time (visible under
pytest -s; under plain pytest the per-test PASSED line carries the verdict).
"""

import copy
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from codedelay.codec import CodedPacket, DecoderState, encode, systematic_packet
from codedelay.delay import expected_delay
from codedelay.efficiency import efficiency
from codedelay.gf256 import MUL
from codedelay.kernel import build_kernel
from codedelay.moments import prefix_moments, straggler_moments, straggler_pmf
from codedelay.optimizer import k_star, tradeoff_curve
from codedelay.params import derive_channel, derive_coding
from codedelay.simulator import SimConfig, run_arq, run_coded

from .helpers import brute_force_row, kernel_row, mixture_row


def std_channel(epsilon):
    return derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=0.1)


def _finish(num, name, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} overran its budget ({elapsed:.1f}s >= {limit}s)"
    print(f"criterion {num:02d} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_01_lossless_closure():
    t0 = time.perf_counter()
    ch = std_channel(0.0)
    cd = derive_coding(ch, 4, R=1.25)
    want = ch.t_s + ch.t_p

    dm = expected_delay(ch, cd)
    assert dm.mean == pytest.approx(want, rel=1e-12)
    assert dm.variance == pytest.approx(0.0, abs=1e-12 * want * want)

    for mode in ("idealized", "relaxed"):
        st = run_coded(SimConfig(channel=ch, coding=cd, mode=mode,
                                 n_packets=2000, seed=1, collect_records=True))
        assert (st.trace.delay == want).all()
    st = run_arq(SimConfig(channel=ch, coding=cd, n_packets=2000, seed=1,
                           collect_records=True))
    assert (st.trace.delay == want).all()
    _finish(1, "lossless closure", t0, 1.0)


def test_criterion_02_kernel_rows_against_enumeration():
    t0 = time.perf_counter()
    for eps in (0.05, 0.1, 0.3):
        for i in range(1, 7):
            for n in range(i, 17):
                got = kernel_row(i, n, 1.0 - eps)
                want = brute_force_row(i, n, eps)
                assert np.abs(got - want).max() <= 1e-12, (eps, i, n)
    # the assembled kernel averages rows over the fractional transmit count
    for eps in (0.05, 0.1, 0.3):
        for R in (1.3, 1.5, 2.0):
            ch = std_channel(eps)
            kern = build_kernel(ch, derive_coding(ch, 6, R=R))
            for i in range(1, 7):
                want = mixture_row(i, R, eps)
                assert np.abs(kern.matrix[i, : i + 1] - want).max() <= 1e-12
    _finish(2, "kernel rows vs brute force", t0, 30.0)


def test_criterion_03_prefix_moment_closed_forms():
    t0 = time.perf_counter()
    for eps in np.linspace(0.01, 0.5, 50):
        c = 1.0 - eps
        for k in range(1, 65):
            s = np.arange(k + 1)
            w = np.empty(k + 1)
            w[:k] = eps * c ** s[:k]
            w[k] = c ** k
            pm = prefix_moments(float(eps), k)
            q = c ** k
            for power, one, multi in [(1, pm.s1_1, pm.s2_1),
                                      (2, pm.s1_2, pm.s2_2),
                                      (3, pm.s1_3, pm.s2_3)]:
                direct1 = float((s ** power) @ w)
                assert one == pytest.approx(direct1, rel=1e-9), (eps, k, power)
                direct2 = float((s[:k] ** power) @ w[:k]) / (1.0 - q)
                assert multi == pytest.approx(direct2, rel=1e-9), (eps, k, power)
    assert prefix_moments(0.1, 4).s1_1 == pytest.approx(3.0951, abs=1e-9)
    _finish(3, "prefix moment closed forms", t0, 5.0)


def test_criterion_04_straggler_closed_forms():
    t0 = time.perf_counter()
    checked = 0
    for eps in (0.05, 0.1, 0.3):
        ch = std_channel(eps)
        for k in (2, 4, 6):
            for R in (1.0, 1.5, 2.0):
                kern = build_kernel(ch, derive_coding(ch, k, R=R))
                for N in range(1, 9):
                    for z in range(1, 7):
                        if z > kern.horizon or kern.p_z(N, z) <= 0.0:
                            continue
                        pmf = np.array([straggler_pmf(kern, N, z, v)
                                        for v in range(N)])
                        assert abs(pmf.sum() - 1.0) <= 1e-12, (eps, k, R, N, z)
                        sm = straggler_moments(kern, N, z)
                        v = np.arange(N)
                        assert sm.v1 == pytest.approx(float(v @ pmf),
                                                      rel=1e-10, abs=1e-10)
                        assert sm.v2 == pytest.approx(float((v * v) @ pmf),
                                                      rel=1e-10, abs=1e-10)
                        checked += 1
    assert checked > 200
    _finish(4, "straggler closed forms", t0, 10.0)


def test_criterion_05_simulation_tracks_analysis():
    t0 = time.perf_counter()
    for margin in (0.05, 0.1):
        for k in (8, 16, 32, 64):
            ch = std_channel(0.1)
            cd = derive_coding(ch, k, margin=margin)
            dm = expected_delay(ch, cd)
            ideal = run_coded(SimConfig(channel=ch, coding=cd,
                                        n_packets=100_000 * k,
                                        seed=1000 + k))
            assert ideal.mean_delay == pytest.approx(dm.mean, rel=0.10), (margin, k)
            relaxed = run_coded(SimConfig(channel=ch, coding=cd, mode="relaxed",
                                          n_packets=20_000 * k,
                                          seed=2000 + k))
            assert relaxed.mean_delay >= dm.mean, (margin, k)
    _finish(5, "simulation vs analysis", t0, 300.0)


def test_criterion_06_round_count_distribution():
    t0 = time.perf_counter()
    ch = std_channel(0.1)
    cd = derive_coding(ch, 16, margin=0.1)
    kern = build_kernel(ch, cd)
    st = run_coded(SimConfig(channel=ch, coding=cd, n_packets=100_000 * 16, seed=77))
    n = sum(st.rounds_hist.values())
    for y in range(1, kern.horizon + 1):
        p = kern.p_y(y)
        if p <= 1e-3:
            continue
        observed = st.rounds_hist.get(y, 0)
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(observed - n * p) <= 3.0 * sigma, (y, observed, n * p)
    _finish(6, "round count distribution", t0, 60.0)


def test_criterion_07_efficiency():
    t0 = time.perf_counter()
    for eps in (0.05, 0.1, 0.3):
        ch = std_channel(eps)
        for k in (2, 4, 8):
            cd = derive_coding(ch, k, margin=0.1)
            eta = efficiency(build_kernel(ch, cd)).eta
            etas = []
            for rep in range(10):
                st = run_coded(SimConfig(channel=ch, coding=cd,
                                         n_packets=5000 * k,
                                         seed=9000 + 100 * k + rep))
                etas.append(st.mean_efficiency)
            etas = np.array(etas)
            se = etas.std(ddof=1) / math.sqrt(etas.size)
            assert abs(etas.mean() - eta) <= 3.0 * se, (eps, k)
    ch = std_channel(0.1)
    assert efficiency(build_kernel(ch, derive_coding(ch, 1, R=1.0))).eta == 1.0
    ch0 = std_channel(0.0)
    assert efficiency(build_kernel(ch0, derive_coding(ch0, 4, R=1.25))).eta == 0.8
    _finish(7, "efficiency", t0, 60.0)


def test_criterion_08_kstar_trends():
    t0 = time.perf_counter()
    lossy, _ = k_star(std_channel(0.1), 1.1 / 0.9)
    clean, _ = k_star(std_channel(0.01), 1.1 / 0.99)
    assert lossy > clean

    ch = std_channel(0.1)
    ks = [k_star(ch, (1.0 + x) / 0.9)[0] for x in (0.05, 0.1, 0.2)]
    assert all(b <= a for a, b in zip(ks, ks[1:])), ks
    _finish(8, "k* trends", t0, 600.0)


def test_criterion_09_tradeoff_trends():
    t0 = time.perf_counter()
    pts = tradeoff_curve(std_channel(0.1), [0.02, 0.05, 0.1, 0.2], seed=5)
    coded, arq = pts[:-1], pts[-1]
    means = [p.mean for p in coded]
    stds = [p.std for p in coded]
    assert all(b < a for a, b in zip(means, means[1:])), means
    assert all(b < a for a, b in zip(stds, stds[1:])), stds
    assert arq.kind == "arq"
    assert arq.mean > max(means)
    _finish(9, "rate-delay tradeoff trends", t0, 600.0)


def test_criterion_10_codec():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(424242)))

    # 1000 generations decode byte-exactly from k innovative packets
    for trial in range(1000):
        k = int(rng.integers(1, 33))
        L = int(rng.integers(1, 49))
        payloads = rng.integers(0, 256, (k, L), dtype=np.uint8)
        dec = DecoderState(trial, k, L)
        innovative = 0
        while dec.rank < k:
            if rng.random() < 0.5:
                pkt = systematic_packet(trial, payloads, int(rng.integers(0, k)))
            else:
                pkt = encode(trial, payloads, 0, rng)
            if dec.ingest(pkt):
                innovative += 1
        assert innovative == k
        np.testing.assert_array_equal(dec.decode(), payloads)

    # innovation rate against a rank-(k-1) state
    k = 8
    basis = np.zeros((k - 1, k), dtype=np.uint8)
    basis[:, :k - 1] = np.eye(k - 1, dtype=np.uint8)
    basis[:, k - 1] = rng.integers(0, 256, k - 1, dtype=np.uint8)

    trials = 100_000
    cand = rng.integers(0, 256, (trials, k), dtype=np.uint8)
    redraw = ~cand.any(axis=1)
    while redraw.any():
        cand[redraw] = rng.integers(0, 256, (int(redraw.sum()), k), dtype=np.uint8)
        redraw = ~cand.any(axis=1)
    resid = cand.copy()
    for r in range(k - 1):
        c = resid[:, r].copy()
        resid ^= MUL[c[:, None], basis[r][None, :]]
    innovative_np = resid.any(axis=1)

    rate = innovative_np.mean()
    p = 1.0 - 2.0 ** -8
    sigma = math.sqrt(p * (1.0 - p) / trials)
    assert abs(rate - p) <= 3.0 * sigma, rate

    # the decoder agrees with the span predicate on a subsample
    state = DecoderState(0, k, 1)
    payload = np.zeros(1, dtype=np.uint8)
    for r in range(k - 1):
        assert state.ingest(CodedPacket(0, None, basis[r].copy(), payload.copy()))
    assert state.rank == k - 1
    for idx in range(0, trials, 500):
        probe = copy.deepcopy(state)
        got = probe.ingest(CodedPacket(0, None, cand[idx].copy(), payload.copy()))
        assert got == bool(innovative_np[idx]), idx
    _finish(10, "codec", t0, 30.0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    traces = []
    for run in range(2):
        trace = tmp_path / f"trace_{run}.csv"
        cmd = [sys.executable, "-m", "codedelay.cli", "simulate",
               "--epsilon", "0.1", "--rate-bps", "1e7", "--packet-bits", "1e4",
               "--rtt-s", "0.1", "--k", "8", "--margin", "0.1",
               "--n-packets", "2000", "--seed", "314", "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
        traces.append(trace.read_bytes())
    assert outputs[0] == outputs[1]
    assert traces[0] == traces[1]
    assert len(traces[0]) > 0
    _finish(11, "fixed-seed determinism", t0, 120.0)
