"""Conditional and unconditional delay moments against a direct Monte-Carlo."""

import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from codedelay.delay import expected_delay
from codedelay.kernel import build_kernel
from codedelay.moments import prefix_moments, straggler_moments
from codedelay.params import AssumptionWarning, derive_channel, derive_coding

from .helpers import (DESIGN_CHANNELS, _case_mean, _case_second, conditional_delay_mc,
                      grid_blocks, reference_expected_delay)

MC_TRIALS = 250_000
MIN_CELL_GENS = 2000


@pytest.fixture(scope="module")
def std_setup():
    ch = derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=0.1)
    cd = derive_coding(ch, 16, margin=0.1)
    kern = build_kernel(ch, cd)
    pm = prefix_moments(ch.epsilon, cd.k)
    return ch, cd, kern, pm


@pytest.fixture(scope="module")
def mc_cells(std_setup):
    ch, cd, _, _ = std_setup
    return conditional_delay_mc(ch, cd, MC_TRIALS, seed=20240817)


def cell_moments(y, z, setup):
    """Closed-form mean and second moment of the (Y=y, Z=z) cell, as expected_delay weighs them."""
    ch, cd, kern, pm = setup
    vm = straggler_moments(kern, cd.b - 1, z) if z > 1 else None
    args = (y, z, cd.k, cd.R * cd.k, ch.t_s, ch.t_p, pm, vm)
    return _case_mean(*args), _case_second(*args)


def test_lossless_closure():
    ch = derive_channel(0.0, rate=1e7, packet_size=1e4, rtt=0.1)
    cd = derive_coding(ch, 8, R=1.25)
    dm = expected_delay(ch, cd)
    assert dm.mean == pytest.approx(ch.t_s + ch.t_p, rel=1e-12)
    assert dm.variance <= 1e-15
    assert dm.truncated_mass == pytest.approx(0.0, abs=1e-12)


def test_conditional_cells_track_monte_carlo(std_setup, mc_cells):
    """Each (y, z) cell's closed form against the tagged-generation sampler.

    The z = 1 cells with y > 1 lean on an approximation for the prefix given
    a decode failure, which biases them low by up to the high teens in
    percent; those get a one-sided band. The blocked cells (z > y) are exact
    apart from sampling noise and get a tight band.
    """
    k = std_setup[1].k
    checked = 0
    for (y, z), (n_pkts, mc_mean, mc_m2) in sorted(mc_cells.items()):
        if n_pkts < MIN_CELL_GENS * k:
            continue
        d1, d2 = cell_moments(y, z, std_setup)
        if z > y:
            assert d1 == pytest.approx(mc_mean, rel=0.01), (y, z)
            assert d2 == pytest.approx(mc_m2, rel=0.02), (y, z)
        elif y == 1:
            assert d1 == pytest.approx(mc_mean, rel=0.03), (y, z)
            assert d2 == pytest.approx(mc_m2, rel=0.06), (y, z)
        else:
            assert d1 <= mc_mean * 1.01, (y, z)
            assert d1 >= mc_mean * (1.0 - 0.18), (y, z)
            assert d2 <= mc_m2 * 1.02, (y, z)
            assert d2 >= mc_m2 * (1.0 - 0.28), (y, z)
        checked += 1
    # the sampler must have populated all four formula cases
    assert checked >= 4


def test_conditional_mean_grows_with_round_count(std_setup):
    means = [cell_moments(y, 1, std_setup)[0] for y in range(1, 5)]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_expected_delay_basic_properties(std_setup):
    ch, cd, kern, _ = std_setup
    dm = expected_delay(ch, cd, kern=kern)
    assert dm.mean > ch.t_s + ch.t_p
    assert dm.variance >= 0.0
    assert 0.0 <= dm.truncated_mass < 1e-4
    assert dm.terms_evaluated >= 4


def test_expected_delay_reuses_prebuilt_kernel(std_setup):
    ch, cd, kern, _ = std_setup
    a = expected_delay(ch, cd, kern=kern)
    b = expected_delay(ch, cd)
    assert a == b


def test_tighter_threshold_evaluates_more_cells(std_setup):
    ch, cd, kern, _ = std_setup
    loose = expected_delay(ch, cd, kern=kern, weight_threshold=1e-3)
    tight = expected_delay(ch, cd, kern=kern, weight_threshold=1e-9)
    assert tight.terms_evaluated > loose.terms_evaluated
    assert tight.truncated_mass < loose.truncated_mass
    assert tight.mean == pytest.approx(loose.mean, rel=1e-2)


def test_single_generation_in_flight():
    # A generation spanning the whole BDP leaves nothing ahead to block on.
    ch = derive_channel(0.1, rate=1e6, packet_size=1e4, rtt=0.012)
    assert ch.bdp == 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        cd = derive_coding(ch, 2, R=1.0)
    assert cd.b == 1
    dm = expected_delay(ch, cd)
    assert dm.mean > 0.0
    assert dm.variance >= 0.0
    assert dm.truncated_mass < 1e-3


@settings(max_examples=120, deadline=None, derandomize=True)
@given(bdp=st.floats(3.0, 1e7), epsilon=st.floats(0.0, 0.9), k=st.integers(1, 80),
       margin=st.floats(0.0, 0.5), threshold=st.sampled_from([1e-6, 1e-9, 1e-3]),
       grid=st.one_of(st.none(), st.lists(st.integers(1, 300), min_size=1, max_size=3)))
@example(bdp=5000.0, epsilon=0.1, k=1, margin=0.1, threshold=1e-6, grid=[2, 37, 300])
@example(bdp=1e6, epsilon=0.02, k=1, margin=0.05, threshold=1e-9, grid=[5, 300])
@example(bdp=100.0, epsilon=0.0, k=8, margin=0.1, threshold=1e-6, grid=None)  # lossless
@example(bdp=3.0, epsilon=0.1, k=80, margin=0.1, threshold=1e-6, grid=None)  # b = 1
# rows 1 and 7-17 hold mass but are skipped whole; cases 3 and 4 only
@example(bdp=1000.0, epsilon=0.3, k=16, margin=0.1, threshold=1e-3, grid=None)
@example(bdp=1e7, epsilon=0.1, k=1, margin=0.1, threshold=1e-6, grid=None)  # N = 8 181 818
def test_matches_reference_cell_loop(bdp, epsilon, k, margin, threshold, grid):
    """Reading the cdf once, taking p_Y once, skipping z rows below the
    threshold and taking each row's y-free terms once changes no bit, for a
    standalone kernel of size k or for each block of a kernel shared by a
    grid of sizes up to 300."""
    ch = derive_channel(epsilon, rate=1e7, packet_size=1e4, rtt=bdp * 1e-3)
    ks = [k] if grid is None else sorted(set(grid))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        codings = [derive_coding(ch, g, margin=margin) for g in ks]
    if grid is None:
        kernels = [build_kernel(ch, codings[0])]
    else:
        shared = build_kernel(ch, codings[-1], ks)
        kernels = [shared.block(cd) for cd in codings]
    for cd, kern in zip(codings, kernels):
        assert (expected_delay(ch, cd, kern, weight_threshold=threshold)
                == reference_expected_delay(ch, cd, kern, weight_threshold=threshold))


@pytest.mark.parametrize("bdp", [100, 700, 5000])
def test_matches_reference_cell_loop_on_design_grids(bdp):
    """Every size of the default grid at the design workload's four channels
    (424 points over the three BDPs), where a regrouped row constant changes
    a few of them."""
    for R, p in DESIGN_CHANNELS:
        ch = derive_channel(1.0 - p, rate=1e7, packet_size=1e4, rtt=bdp * 1e-3)
        for point in grid_blocks(ch, R):
            assert repr(expected_delay(*point)) == repr(reference_expected_delay(*point))
