"""Parameter derivation: channel timing, redundancy, transmit-count mixture."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from codedelay.params import (
    MAX_BDP,
    MAX_ROUND_PACKETS,
    AssumptionWarning,
    InputError,
    coded_count_distribution,
    derive_channel,
    derive_coding,
    redundancy_from_margin,
    split_count,
)

INF, NAN = float("inf"), float("nan")


def std_channel(epsilon=0.1):
    return derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=0.1)


class TestDeriveChannel:
    def test_standard_link(self):
        ch = std_channel()
        assert ch.t_s == pytest.approx(1e-3)
        assert ch.t_p == pytest.approx(0.0495)
        assert ch.rtt == pytest.approx(0.1)
        assert ch.bdp == 100

    def test_bdp_snaps_to_integer(self):
        # 0.1 * 1e7 / 1e4 evaluates to 100.00000000000001 in floats; the
        # snap keeps it from getting ceiled to 101.
        assert std_channel().bdp == 100

    def test_tp_form_matches_rtt_form(self):
        a = derive_channel(0.1, 1e7, 1e4, t_p=0.0495)
        b = std_channel()
        assert a.rtt == pytest.approx(b.rtt)
        assert a.bdp == b.bdp

    def test_requires_exactly_one_of_tp_rtt(self):
        with pytest.raises(ValueError):
            derive_channel(0.1, 1e7, 1e4)
        with pytest.raises(ValueError):
            derive_channel(0.1, 1e7, 1e4, t_p=0.01, rtt=0.1)

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            derive_channel(-0.01, 1e7, 1e4, rtt=0.1)
        with pytest.raises(ValueError):
            derive_channel(1.0, 1e7, 1e4, rtt=0.1)
        derive_channel(0.0, 1e7, 1e4, rtt=0.1)  # boundary is allowed

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=NAN, rate=1e7, packet_size=1e4, rtt=0.1),
        dict(epsilon=0.1, rate=INF, packet_size=1e4, rtt=0.1),
        dict(epsilon=0.1, rate=1e7, packet_size=INF, rtt=0.1),
        dict(epsilon=0.1, rate=1e7, packet_size=1e4, rtt=INF),
        dict(epsilon=0.1, rate=1e7, packet_size=1e4, t_p=NAN),
        dict(epsilon=0.1, rate=1e300, packet_size=1e-300, rtt=0.1),  # BDP overflows
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            derive_channel(**kwargs)

    def test_bdp_bound(self):
        assert derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=MAX_BDP * 1e-3).bdp == MAX_BDP
        with pytest.raises(ValueError, match="bandwidth-delay product must be at most"):
            derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=MAX_BDP * 1e-3 * 1.001)
        with pytest.raises(ValueError, match="rtt 1e\\+300"):
            derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=1e300)

    def test_rtt_shorter_than_slot_rejected(self):
        with pytest.raises(ValueError):
            derive_channel(0.1, 1e7, 1e4, rtt=1e-4)

    def test_rtt_equal_to_slot_gives_zero_tp(self):
        ch = derive_channel(0.1, 1e7, 1e4, rtt=1e-3)
        assert ch.t_p == 0.0
        assert ch.bdp == 1

    def test_negative_tp_rejected(self):
        with pytest.raises(ValueError):
            derive_channel(0.1, 1e7, 1e4, t_p=-0.01)

    def test_bad_rate_and_packet_size(self):
        with pytest.raises(ValueError):
            derive_channel(0.1, 0.0, 1e4, rtt=0.1)
        with pytest.raises(ValueError):
            derive_channel(0.1, 1e7, -1.0, rtt=0.1)


class TestRedundancyFromMargin:
    def test_arithmetic(self):
        assert redundancy_from_margin(0.1, 0.1) == pytest.approx(1.1 / 0.9)
        assert redundancy_from_margin(0.0, 0.0) == pytest.approx(1.0)
        assert redundancy_from_margin(0.25, 0.2) == pytest.approx(1.25 / 0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            redundancy_from_margin(-0.1, 0.1)
        with pytest.raises(ValueError):
            redundancy_from_margin(0.1, 1.0)
        for x in (NAN, INF):
            with pytest.raises(ValueError, match="margin must be finite"):
                redundancy_from_margin(x, 0.1)


class TestCodedCountDistribution:
    def test_integral_product_is_point_mass(self):
        assert coded_count_distribution(1.25, 4) == {5: 1.0}
        assert coded_count_distribution(1.0, 7) == {7: 1.0}

    def test_float_fuzz_snaps(self):
        # 1.1 * 10 is 11.000000000000002 in floats
        assert coded_count_distribution(1.1, 10) == {11: 1.0}

    def test_fractional_product_splits(self):
        dist = coded_count_distribution(1.1, 5)  # 5.5 on average
        assert set(dist) == {5, 6}
        assert dist[6] == pytest.approx(0.5)

    def test_split_count_matches_distribution(self):
        assert split_count(1.25, 4) == (5, 0.0)
        assert split_count(1.1, 10) == (11, 0.0)
        lo, frac = split_count(1.1, 5)
        assert lo == 5 and frac == pytest.approx(0.5)
        assert coded_count_distribution(1.1, 5) == {5: 1.0 - frac, 6: frac}

    # R near a ratio whose products land within the snap tolerance of an
    # integer, on it, or exactly half way (where round() goes to even)
    @given(st.one_of(st.floats(1.0, 64.0),
                     st.sampled_from([1.1, 1.25, 1.5, 2.5, 1.0 + 1e-10, 1.0 + 2e-9, 3.0 - 1e-10])),
           st.integers(1, 4096))
    @example(1.1, 1000)
    @example(2.5, 4096)
    def test_array_split_matches_scalar(self, R, k):
        states = np.arange(1, k + 1)
        lo, frac = split_count(R, states)
        assert lo.dtype == np.int64 and frac.dtype == np.float64
        assert [(int(a), float(b)) for a, b in zip(lo, frac)] == [
            split_count(R, i) for i in range(1, k + 1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            coded_count_distribution(0.9, 4)
        with pytest.raises(ValueError):
            coded_count_distribution(1.5, 0)

    @given(st.floats(min_value=1.0, max_value=4.0), st.integers(1, 64))
    def test_mean_and_support(self, R, i):
        dist = coded_count_distribution(R, i)
        total = sum(dist.values())
        mean = sum(n * p for n, p in dist.items())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(R * i, rel=1e-9)
        lo = math.floor(R * i + 1e-9)
        for n in dist:
            assert n in (lo, lo + 1)
            assert n >= i


class TestDeriveCoding:
    def test_inflight_count_standard(self):
        ch = std_channel()
        assert derive_coding(ch, 16, margin=0.1).b == 6
        assert derive_coding(ch, 8, margin=0.1).b == 11

    def test_first_round_bracket(self):
        ch = std_channel()
        cd = derive_coding(ch, 16, margin=0.1)
        ri = (1.1 / 0.9) * 16
        assert cd.n_k_low == math.floor(ri)
        assert cd.n_k_high == math.floor(ri) + 1
        assert cd.frac == pytest.approx(ri - math.floor(ri))

    def test_integral_first_round(self):
        ch = std_channel()
        cd = derive_coding(ch, 4, R=1.25)
        assert (cd.n_k_low, cd.n_k_high, cd.frac) == (5, 5, 0.0)

    def test_r_from_margin_matches_direct(self):
        ch = std_channel()
        a = derive_coding(ch, 16, margin=0.1)
        b = derive_coding(ch, 16, R=1.1 / 0.9)
        assert a == b

    def test_requires_exactly_one_of_r_margin(self):
        ch = std_channel()
        with pytest.raises(ValueError):
            derive_coding(ch, 16)
        with pytest.raises(ValueError):
            derive_coding(ch, 16, R=1.2, margin=0.1)

    def test_validation(self):
        ch = std_channel()
        with pytest.raises(ValueError):
            derive_coding(ch, 0, R=1.2)
        with pytest.raises(ValueError):
            derive_coding(ch, 16, R=0.8)

    @pytest.mark.parametrize("k, kwargs, match", [
        (16.5, dict(margin=0.1), "k must be an integer"),
        (INF, dict(margin=0.1), "k must be finite"),
        (16, dict(R=INF), "R must be finite"),
        (16, dict(R=NAN), "R must be finite"),
        (16, dict(margin=NAN), "margin must be finite"),
        (16, dict(margin=INF), "margin must be finite"),
    ])
    def test_rejects_non_finite_and_non_integral(self, k, kwargs, match):
        with pytest.raises(ValueError, match=match):
            derive_coding(std_channel(), k, **kwargs)

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    def test_rejects_oversized_rounds(self):
        ch = std_channel()
        at_bound = derive_coding(ch, 16, R=MAX_ROUND_PACKETS / 16)
        assert at_bound.n_k_high == MAX_ROUND_PACKETS
        with pytest.raises(ValueError, match=r"R\*k must be at most 65536 .* from margin"):
            derive_coding(ch, 16, margin=1e300)
        with pytest.raises(ValueError, match=r"R\*k must be at most"):
            derive_coding(ch, MAX_ROUND_PACKETS + 1, R=1.0)

    def test_integer_beyond_float_range_is_an_input_error(self):
        # math.isfinite would overflow on it; the size bound rejects it instead
        with pytest.raises(InputError, match=r"R\*k must be at most"):
            derive_coding(std_channel(), 10**400, margin=0.1)
        with pytest.raises(InputError, match="k must be >= 1"):
            derive_coding(std_channel(), -(10**400), margin=0.1)

    def test_integral_float_k_accepted(self):
        ch = std_channel()
        assert derive_coding(ch, 16.0, margin=0.1) == derive_coding(ch, 16, margin=0.1)

    def test_warns_when_generation_exceeds_bdp(self):
        ch = std_channel()
        with pytest.warns(AssumptionWarning):
            cd = derive_coding(ch, 100, R=1.0)
        assert not cd.within_bdp
        assert cd.b == 1

    def test_no_warning_inside_bdp(self):
        import warnings

        ch = std_channel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cd = derive_coding(ch, 16, margin=0.1)
        assert cd.within_bdp
