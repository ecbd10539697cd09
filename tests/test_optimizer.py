"""Sweeps, envelope smoothing, k* selection and the trade-off frontier."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from codedelay import optimizer
from codedelay.delay import expected_delay
from codedelay.efficiency import efficiency
from codedelay.kernel import MAX_K, NumericalError, build_kernel
from codedelay.optimizer import (
    SweepRecord,
    _bound_holds,
    _lower_bound,
    default_k_range,
    k_star,
    smooth_local_maxima,
    sweep,
    tradeoff_curve,
)
from codedelay.params import (AssumptionWarning, derive_channel, derive_coding,
                              redundancy_from_margin)

from .helpers import counting_sweep, reference_delay_cells, reference_k_star


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
            # bit-equal, which k_star's stages rely on
            assert rec.mean == dm.mean
            assert rec.std == math.sqrt(dm.variance)
            assert rec.eta == efficiency(alone).eta

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


def bdp_channel(epsilon, bdp):
    """A 1 ms-slot channel whose rtt is bdp slots (the BDP is its ceiling)."""
    return derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=bdp * 1e-3)


def _outcome(search, channel, R, k_range):
    """search's result (None if it raised), and the repr of it or of the error, with the warnings."""
    result = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = search(channel, R, k_range)
            out = repr(result)
        except ValueError as exc:
            out = f"{type(exc).__name__}: {exc}"
    return result, (out, [(w.category, str(w.message)) for w in caught])


class TestBoundedKStar:
    """k_star stops where LB(k) passes the best; it must select what the full grid does."""

    @given(eps=st.floats(0.0, 0.5), log_bdp=st.floats(math.log10(2.5), 4.0),
           margin=st.floats(0.0, 0.5),
           grid=st.one_of(st.none(),
                          st.tuples(st.lists(st.integers(1, 1200), min_size=1, max_size=12,
                                             unique=True),
                                    st.lists(st.sampled_from([5000, 70_000]), unique=True))))
    @example(eps=0.5, log_bdp=math.log10(2.2), margin=0.0, grid=([1, 2, 3, 4], []))
    @example(eps=0.1187, log_bdp=math.log10(178), margin=0.195, grid=None)
    @example(eps=0.0462, log_bdp=4.0, margin=0.265, grid=None)
    @example(eps=0.0, log_bdp=2.0, margin=0.0, grid=([2, 8, 64, 99], [5000]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_matches_the_full_grid_bit_for_bit(self, eps, log_bdp, margin, grid):
        ch = bdp_channel(eps, 10 ** log_bdp)
        R = redundancy_from_margin(margin, eps)
        ks = None if grid is None else sorted(grid[0]) + sorted(grid[1])
        if ks is None and ch.bdp < 3:
            return
        seen = []
        with mock.patch.object(optimizer, "sweep", counting_sweep(seen)):
            result, got = _outcome(k_star, ch, R, ks)
        assert got == _outcome(reference_k_star, ch, R, ks)[1]
        if result is None:
            return
        # every point it skipped provably sits above the winner
        winner = result[1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssumptionWarning)
            codings, _ = optimizer._grid_codings(ch, R, ks or default_k_range(ch))
        for cd in codings[len(seen):]:
            assert _bound_holds(ch, cd)
            assert (1.0 - optimizer._MASS_MARGIN) * _lower_bound(ch, cd.k)[0] > winner.smoothed_mean

    def _evaluated(self, monkeypatch, channel, R, k_range=None):
        """The sizes k_star evaluates, in the order it evaluates them."""
        seen = []
        monkeypatch.setattr(optimizer, "sweep", counting_sweep(seen))
        k_star(channel, R, k_range)
        return seen

    def test_stops_past_k_star_in_doubling_stages(self, monkeypatch):
        ch = bdp_channel(0.0462, 10_000)
        R = redundancy_from_margin(0.265, 0.0462)
        grid = default_k_range(ch)
        seen = self._evaluated(monkeypatch, ch, R)
        assert seen == grid[:len(seen)]
        assert max(seen) <= 64 < grid[-1]
        assert k_star(ch, R)[0] < max(seen)

    def test_mass_over_the_margin_evaluates_the_whole_grid(self, monkeypatch):
        ch = bdp_channel(0.0462, 10_000)
        R = redundancy_from_margin(0.265, 0.0462)
        monkeypatch.setattr(optimizer, "_MASS_MARGIN", 0.0)
        assert self._evaluated(monkeypatch, ch, R) == default_k_range(ch)

    def test_the_cut_stops_below_a_point_whose_premises_fail(self):
        ch = bdp_channel(0.5, 40.5)     # 2*t_p = 39.5*t_s; at k 40, R 1, b is 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssumptionWarning)
            codings = [derive_coding(ch, k, R=1.0) for k in (8, 16, 32, 40)]
        assert [_bound_holds(ch, cd) for cd in codings] == [True, True, True, False]
        assert optimizer._cut(ch, codings, 0.0) == 4
        assert optimizer._cut(ch, codings[:3], 0.0) == 0

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    def test_no_pruning_where_a_premise_fails(self, monkeypatch):
        ch = bdp_channel(0.1, 1.5)      # 2*t_p = 0.5*t_s < t_s
        assert 2.0 * ch.t_p < ch.t_s
        assert self._evaluated(monkeypatch, ch, 1.25, [1, 2, 4, 8]) == [1, 2, 4, 8]


def _edge_warnings(caught):
    """The k* warnings among caught: (grid-top texts, R*k >= BDP at k* texts)."""
    texts = [str(w.message) for w in caught if w.category is AssumptionWarning]
    return ([t for t in texts if "top of the k grid" in t],
            [t for t in texts if "loose at k*" in t])


class TestKStarAtTheEdge:
    """k_star warns when k* is its grid's top and a larger size is admissible, and when R*k* >= BDP."""

    def test_top_of_a_grid_names_the_largest_admissible_size(self):
        ch = std_channel()   # BDP 100: R*k < 100 up to k = 79 at R = 1.25
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            k, _ = k_star(ch, 1.25, k_range=[2, 4, 8])
        assert k == 8
        assert [str(w.message) for w in caught] == [
            "k* = 8 is the top of the k grid, and sizes up to 79 are admissible (R*k < BDP "
            "(100), k <= 4096); the optimum may lie above it: pass a --k-grid that reaches "
            "past 8"]
        assert caught[0].category is AssumptionWarning
        assert caught[0].filename == __file__

    def test_an_interior_k_star_gives_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k, _ = k_star(std_channel(), 1.1 / 0.9, k_range=[2, 8, 32, 64, 79])
        assert k not in (2, 79)

    def test_tradeoff_inherits_the_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tradeoff_curve(std_channel(), [0.1], k_range=[2, 4, 8], arq_packets=2000)
        assert len(_edge_warnings(caught)[0]) == 1

    @pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
    @given(eps=st.floats(0.01, 0.3), bdp=st.integers(3, 300), margin=st.floats(0.02, 0.3),
           grid=st.lists(st.integers(1, 64), min_size=1, max_size=5, unique=True))
    @example(eps=0.1, bdp=20, margin=0.1, grid=[8, 16, 32])    # k* past the BDP
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_warns_exactly_at_the_edge(self, eps, bdp, margin, grid):
        ch = bdp_channel(eps, bdp)
        R = redundancy_from_margin(margin, eps)
        ks = sorted(grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            k, _ = k_star(ch, R, ks)
        at_top, loose = _edge_warnings(caught)
        assert len(at_top) == (k == ks[-1] and R * (k + 1) < ch.bdp)
        assert len(loose) == (R * k >= ch.bdp)
        if at_top:
            # the largest admissible size it names is admissible, and the next is not
            largest = int(at_top[0].split("sizes up to ")[1].split()[0])
            assert largest > k and R * largest < ch.bdp and R * (largest + 1) >= ch.bdp


class TestLowerBound:
    """LB(k) bounds every evaluated delay cell from below where its premises hold."""

    @given(eps=st.floats(0.0, 0.5), log_bdp=st.floats(math.log10(2.5), 4.0),
           margin=st.floats(0.0, 0.5), k=st.integers(1, 300))
    @example(eps=0.3, log_bdp=2.0, margin=0.3, k=40)
    @example(eps=0.01, log_bdp=4.0, margin=0.02, k=300)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_cells_and_mean_sit_above_the_bound(self, eps, log_bdp, margin, k):
        ch = bdp_channel(eps, 10 ** log_bdp)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssumptionWarning)
            cd = derive_coding(ch, k, margin=margin)
        if not _bound_holds(ch, cd):
            return
        lb = _lower_bound(ch, k)[0]
        kern = build_kernel(ch, cd)
        for y, z, _, mean, _ in reference_delay_cells(ch, cd, kern):
            assert mean >= lb * (1.0 - 1e-12), (y, z)
        dm = expected_delay(ch, cd, kern)
        assert dm.mean >= (1.0 - dm.truncated_mass) * lb * (1.0 - 1e-12)

    @given(eps=st.floats(0.0, 0.9), log_ratio=st.floats(-3.0, 4.0), k=st.integers(1, 316),
           R=st.floats(1.0, 4.2))
    @example(eps=0.5, log_ratio=-2.0, k=1, R=1.0)       # t_s + t_p is not a floor here
    @example(eps=0.1187, log_ratio=1.0, k=250, R=1.356)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mean_sits_above_the_bounds_pruning_rests_on(self, eps, log_ratio, k, R):
        # t_p / t_s = 10**log_ratio, t_s = 1 ms
        ch = derive_channel(eps, rate=1e7, packet_size=1e4, t_p=10 ** log_ratio * 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssumptionWarning)
            cd = derive_coding(ch, k, R=R)
        dm = expected_delay(ch, cd, build_kernel(ch, cd))
        tm, tau = dm.truncated_mass, optimizer._MASS_MARGIN
        if not (k == 1 and 2.0 * ch.t_p < ch.t_s):     # README: "Output ranges"
            floor = (1.0 - tm) * (ch.t_s + ch.t_p)
            assert dm.mean >= floor - 4 * math.ulp(floor)
        if not _bound_holds(ch, cd):
            return
        lb = _lower_bound(ch, k)[0]
        bound = (1.0 - tm) * lb
        assert dm.mean >= bound - 4 * math.ulp(bound)
        if tm <= tau:
            assert dm.mean >= (1.0 - tau) * lb

    def test_k_1_with_short_hops_sits_below_one_slot_and_hop(self):
        # README "Output ranges": at k = 1 the y > 1 cells' (n_k - k - 1)*t_s term
        # is negative, and with 2*t_p < t_s it outweighs the hops they add
        ch = derive_channel(0.5, rate=1e6, packet_size=1e4, t_p=1e-4)
        cd = derive_coding(ch, 1, R=1.0)
        assert expected_delay(ch, cd, build_kernel(ch, cd)).mean < ch.t_s + ch.t_p

    def test_a_cell_falls_below_where_the_premises_fail(self):
        ch = bdp_channel(0.5, 2.2)      # t_p = 0.6 * t_s, BDP 3
        cd = derive_coding(ch, 2, R=1.0)
        assert (ch.bdp, cd.b) == (3, 2)
        assert not _bound_holds(ch, cd)
        lb = _lower_bound(ch, 2)[0]
        cells = list(reference_delay_cells(ch, cd, build_kernel(ch, cd)))
        assert any(z > y and mean < lb for y, z, _, mean, _ in cells)

    def test_rises_with_k(self):
        ch = bdp_channel(0.1, 10_000)
        bounds = [_lower_bound(ch, k)[0] for k in range(1, 1025)]
        assert bounds[:9] == [ch.t_p + ch.t_s] * 9   # k <= (1 - eps)/eps = 9
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))


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
