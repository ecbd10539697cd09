"""Sweeps, envelope smoothing, k* selection and the trade-off frontier."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedelay.delay import expected_delay
from codedelay.efficiency import efficiency
from codedelay.kernel import MAX_K, NumericalError, build_kernel
from codedelay.optimizer import (
    SweepRecord,
    default_k_range,
    k_star,
    smooth_local_maxima,
    sweep,
    tradeoff_curve,
)
from codedelay.params import AssumptionWarning, derive_channel, derive_coding


def std_channel(epsilon=0.1):
    return derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=0.1)


def rec(mean, b, k=8, error=None):
    return SweepRecord(k=k, R=1.25, epsilon=0.1, bdp=100, mean=mean,
                       std=0.0, eta=0.9, b=b, error=error)


class TestSmoothLocalMaxima:
    def test_rising_curve_passes_through(self):
        records = [rec(1.0, 5, k=2), rec(2.0, 5, k=4), rec(3.0, 5, k=8)]
        out = smooth_local_maxima(records)
        assert [r.smoothed_mean for r in out] == [1.0, 2.0, 3.0]

    def test_dip_at_a_b_drop_is_clamped_to_the_peak(self):
        records = [rec(2.0, 5, k=2), rec(3.0, 5, k=4),
                   rec(2.5, 4, k=8), rec(3.5, 4, k=16)]
        out = smooth_local_maxima(records)
        assert [r.smoothed_mean for r in out] == [2.0, 3.0, 3.0, 3.5]

    def test_single_record_unchanged(self):
        out = smooth_local_maxima([rec(1.7, 3)])
        assert out[0].smoothed_mean == 1.7

    def test_error_records_pass_through_untouched(self):
        records = [rec(2.0, 5, k=2),
                   rec(float("nan"), 0, k=4, error="boom"),
                   rec(1.5, 5, k=8)]
        out = smooth_local_maxima(records)
        assert out[1].error == "boom"
        assert out[1].smoothed_mean is None
        # the failed point does not break the constant-b run around it
        assert out[2].smoothed_mean == 2.0

    def test_empty_input(self):
        assert smooth_local_maxima([]) == []

    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10.0),
                              st.integers(1, 6)), min_size=1, max_size=30))
    def test_never_below_the_raw_mean(self, points):
        records = [rec(m, b, k=2 * (i + 1)) for i, (m, b) in enumerate(points)]
        out = smooth_local_maxima(records)
        for r in out:
            assert r.smoothed_mean >= r.mean


class TestSweep:
    def test_single_point_matches_direct_evaluation(self):
        ch = std_channel()
        records = sweep(ch, 1.25, k_range=[16])
        cd = derive_coding(ch, 16, R=1.25)
        kern = build_kernel(ch, cd)
        dm = expected_delay(ch, cd, kern)
        assert len(records) == 1
        r = records[0]
        assert r.mean == dm.mean
        assert r.std == math.sqrt(dm.variance)
        assert r.eta == efficiency(kern).eta
        assert r.b == cd.b

    def test_deterministic(self):
        ch = std_channel()
        a = sweep(ch, 1.25, k_range=[4, 8, 16])
        b = sweep(ch, 1.25, k_range=[4, 8, 16])
        assert a == b

    def test_failing_point_becomes_a_marker(self):
        ch = std_channel()
        records = sweep(ch, 1.25, k_range=[8, 5000])
        assert records[0].error is None
        assert records[1].error is not None
        assert math.isnan(records[1].mean)
        assert records[1].b == 0

    def test_k_range_validation(self):
        ch = std_channel()
        with pytest.raises(ValueError):
            sweep(ch, 1.25, k_range=[])
        with pytest.raises(ValueError):
            sweep(ch, 1.25, k_range=[8, 8])
        with pytest.raises(ValueError):
            sweep(ch, 1.25, k_range=[16, 8])

    def test_one_counted_assumption_warning(self):
        ch = std_channel()  # BDP 100: R*k >= 100 from k = 80 at R = 1.25
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(ch, 1.25, k_range=[8, 64, 80, 90])
        assert [str(w.message) for w in caught] == [
            "R*k >= BDP (100) at 2 of 4 grid points (k >= 80); the delay model is loose there"]
        assert caught[0].category is AssumptionWarning
        assert caught[0].filename == __file__
        with pytest.warns(AssumptionWarning, match="is not smaller than the BDP"):
            derive_coding(ch, 80, R=1.25)

    def test_no_warning_inside_the_bdp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep(std_channel(), 1.25, k_range=[8, 16])


@pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
class TestSharedKernel:
    """A sweep's sliced kernel against a standalone evaluation at each k."""

    @given(eps=st.floats(0.0, 0.4), R=st.floats(1.0, 2.5),
           ks=st.lists(st.integers(1, 256), min_size=1, max_size=6, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_k_evaluation(self, eps, R, ks):
        ch = derive_channel(eps, rate=1e7, packet_size=1e4, rtt=0.3)
        ks = sorted(ks)
        codings = [derive_coding(ch, k, R=R) for k in ks]
        shared = build_kernel(ch, codings[-1], ks)
        records = sweep(ch, R, k_range=ks)
        for cd, rec in zip(codings, records):
            try:
                alone = build_kernel(ch, cd)
            except NumericalError as exc:
                assert rec.error == str(exc)
                continue
            sliced = shared.block(cd)
            np.testing.assert_array_equal(sliced.matrix, alone.matrix)
            assert sliced.horizon == alone.horizon
            rounds = range(alone.horizon + 1)
            assert ([sliced.absorption_cdf(r) for r in rounds]
                    == [alone.absorption_cdf(r) for r in rounds])
            dm = expected_delay(ch, cd, alone)
            assert rec.error is None
            assert rec.mean == pytest.approx(dm.mean, rel=1e-12)
            assert rec.std == pytest.approx(math.sqrt(dm.variance), rel=1e-12)
            assert rec.eta == pytest.approx(efficiency(alone).eta, rel=1e-13)

    def test_oversized_points_fail_alone(self):
        ch = std_channel()
        with_big = sweep(ch, 1.25, k_range=[8, 16, 5000, 9000])
        assert with_big[:2] == sweep(ch, 1.25, k_range=[8, 16])
        for rec in with_big[2:]:
            assert rec.error == f"k = {rec.k} exceeds the supported maximum {MAX_K}"
            assert (rec.b, rec.R, rec.bdp) == (0, 1.25, 100)
            assert math.isnan(rec.mean) and math.isnan(rec.std) and math.isnan(rec.eta)


class TestDefaultKRange:
    def test_standard_channel(self):
        ks = default_k_range(std_channel())
        assert ks[0] == 2
        assert ks[-1] == 99  # one below the BDP
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_tiny_bdp_rejected(self):
        ch = derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=1e-3)
        assert ch.bdp == 1
        with pytest.raises(ValueError):
            default_k_range(ch)


class TestKStar:
    def test_lossless_picks_the_smallest_k(self):
        ch = std_channel(0.0)
        k, record = k_star(ch, 1.25, k_range=[4, 5, 8, 16])
        assert k == 4
        assert record.mean == pytest.approx(ch.t_s + ch.t_p, rel=1e-12)

    def test_interior_minimum_on_the_standard_channel(self):
        ch = std_channel()
        ks = [2, 8, 32, 64, 99]
        k, record = k_star(ch, 1.1 / 0.9, k_range=ks)
        assert k not in (ks[0], ks[-1])
        by_k = {r.k: r for r in smooth_local_maxima(sweep(ch, 1.1 / 0.9, k_range=ks))}
        assert by_k[ks[0]].smoothed_mean > record.smoothed_mean
        assert by_k[ks[-1]].smoothed_mean > record.smoothed_mean

    def test_ignores_failed_points(self):
        ch = std_channel()
        k, _ = k_star(ch, 1.25, k_range=[8, 5000])
        assert k == 8

    def test_all_points_failed(self):
        ch = std_channel()
        with pytest.raises(ValueError):
            k_star(ch, 1.25, k_range=[4097, 5000])


class TestTradeoffCurve:
    def test_structure_and_corner(self):
        ch = std_channel()
        pts = tradeoff_curve(ch, [0.05, 0.1], k_range=[8, 16, 32, 64],
                             arq_packets=20_000, seed=9)
        assert [p.kind for p in pts] == ["coded", "coded", "arq"]
        coded = pts[:2]
        assert all(0.0 < p.eta < 1.0 for p in coded)
        assert coded[0].eta > coded[1].eta  # more margin costs efficiency
        arq = pts[-1]
        assert arq.eta == 1.0
        assert math.isnan(arq.margin)
        assert arq.mean > max(p.mean for p in coded)

    def test_lossless_zero_margin_is_free(self):
        ch = std_channel(0.0)
        pts = tradeoff_curve(ch, [0.0], k_range=[2, 4], arq_packets=20_000, seed=9)
        coded, arq = pts
        assert coded.eta == 1.0
        assert coded.mean == pytest.approx(ch.t_s + ch.t_p, rel=1e-12)
        assert arq.mean == ch.t_s + ch.t_p

    def test_empty_margins_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_curve(std_channel(), [])
