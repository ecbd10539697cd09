"""Generation-size sweeps, k* selection, and redundancy trade-off curves.

The analytic mean-delay curve over k carries a sawtooth artifact: the number
of in-flight generations b = ceil(bdp / n_k) drops in unit steps as k grows,
and each drop puts an artificial dip in the curve. smooth_local_maxima clamps
the dips to the local upper envelope so k* selection is not fooled by them;
raw means are always kept alongside.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .delay import expected_delay
from .efficiency import efficiency
from .kernel import build_kernel, check_generation_size
from .params import AssumptionWarning, InputError, derive_coding, redundancy_from_margin
from .simulator import SimConfig, run_arq

DEFAULT_K_POINTS = 40
_TIE_REL = 1e-12


@dataclass(frozen=True)
class SweepRecord:
    k: int
    R: float
    epsilon: float
    bdp: int
    mean: float
    std: float
    eta: float
    b: int
    smoothed_mean: Optional[float] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class TradeoffPoint:
    kind: str  # "coded" or "arq"
    margin: float
    R: float
    k: int
    eta: float
    mean: float
    std: float


def default_k_range(channel, points=DEFAULT_K_POINTS):
    """Log-spaced generation sizes from 2 up to min(bdp - 1, 1024)."""
    hi = min(channel.bdp - 1, 1024)
    if hi < 2:
        raise InputError(f"bdp={channel.bdp} admits no generation size (need bdp > 2)")
    grid = np.logspace(math.log10(2.0), math.log10(float(hi)), points)
    return [int(v) for v in np.unique(np.round(grid).astype(np.int64))]


def _failed_record(channel, R, k, message):
    return SweepRecord(k=k, R=R, epsilon=channel.epsilon, bdp=channel.bdp,
                       mean=float("nan"), std=float("nan"),
                       eta=float("nan"), b=0, error=message)


def _grid_codings(channel, R, ks):
    """derive_coding at every k, serially, with one counted AssumptionWarning.

    Returns the CodingParams of the sizes a kernel can be built for, in
    order, and an error message for each other k.
    """
    codings, errors = [], {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        for k in ks:
            try:
                coding = derive_coding(channel, k, R=R)
                check_generation_size(k)
                codings.append(coding)
            except InputError as exc:
                errors[k] = str(exc)
    loose = [c.k for c in codings if not c.within_bdp]
    if loose:
        warnings.warn(
            f"R*k >= BDP ({channel.bdp}) at {len(loose)} of {len(ks)} grid points "
            f"(k >= {min(loose)}); the delay model is loose there",
            AssumptionWarning, stacklevel=3)
    return codings, errors


def _evaluate_point(channel, R, coding, kern, eff):
    try:
        dm = expected_delay(channel, coding, kern.block(coding))
        return SweepRecord(k=coding.k, R=R, epsilon=channel.epsilon,
                           bdp=channel.bdp, mean=dm.mean, std=math.sqrt(dm.variance),
                           eta=eff.at(coding.k).eta, b=coding.b)
    except Exception as exc:  # per-point failures become markers, not aborts
        return _failed_record(channel, R, coding.k, str(exc))


def sweep(channel, R, k_range=None):
    """Evaluate mean/std delay and efficiency at each k, in order.

    One kernel, built at the largest k, serves every point: each k reads its
    leading block, its own absorption cdf and its entry of one efficiency
    pass. A failing point yields a record with its error message instead of
    aborting the sweep.
    """
    ks = list(k_range) if k_range is not None else default_k_range(channel)
    if not ks:
        raise InputError("k_range must be nonempty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise InputError("k_range must be strictly ascending")
    codings, errors = _grid_codings(channel, R, ks)
    done = {}
    if codings:
        kern = build_kernel(channel, codings[-1], [c.k for c in codings])
        eff = efficiency(kern)
        for coding in codings:
            done[coding.k] = _evaluate_point(channel, R, coding, kern, eff)
    return [done[k] if k in done else _failed_record(channel, R, k, errors[k]) for k in ks]


def smooth_local_maxima(records):
    """Fill smoothed_mean with the upper envelope across b discontinuities.

    Within a constant-b run each point is clamped to the run's raw running
    maximum; a run's first point is clamped to the previous run's raw peak.
    The clamp always references raw means, never smoothed ones, so a genuine
    downward trend is lagged by at most one run rather than flattened.
    """
    out = []
    prev_peak = None  # raw peak of the previous constant-b run
    run_peak = None   # raw running max of the current run
    run_b = None
    for rec in records:
        if rec.error is not None:
            out.append(rec)
            continue
        if rec.b != run_b:
            prev_peak, run_peak, run_b = run_peak, None, rec.b
        clamp = run_peak if run_peak is not None else prev_peak
        smoothed = rec.mean if clamp is None else max(rec.mean, clamp)
        run_peak = rec.mean if run_peak is None else max(run_peak, rec.mean)
        out.append(replace(rec, smoothed_mean=smoothed))
    return out


def k_star(channel, R, k_range=None):
    """Smallest k minimizing the smoothed mean delay; returns (k, record)."""
    records = smooth_local_maxima(sweep(channel, R, k_range))
    valid = [r for r in records if r.error is None]
    if not valid:
        raise ValueError("every sweep point failed; no k* exists")
    best = min(r.smoothed_mean for r in valid)
    tol = _TIE_REL * abs(best)
    winner = min((r for r in valid if r.smoothed_mean <= best + tol),
                 key=lambda r: r.k)
    return winner.k, winner


def tradeoff_curve(channel, margins, k_range=None, arq_packets=200_000, seed=0):
    """Delay/efficiency frontier: one k*-optimal point per margin.

    Appends the simulated SR-ARQ baseline as the eta = 1 corner so the curve
    can be plotted against the uncoded reference directly.
    """
    margins = list(margins)
    if not margins:
        raise InputError("margins must be nonempty")
    points = []
    for x in margins:
        R = redundancy_from_margin(x, channel.epsilon)
        _, rec = k_star(channel, R, k_range)
        points.append(TradeoffPoint(kind="coded", margin=float(x), R=R,
                                    k=rec.k, eta=rec.eta, mean=rec.mean,
                                    std=rec.std))
    arq_cfg = SimConfig(channel=channel, coding=derive_coding(channel, 1, R=1.0),
                        n_packets=arq_packets, seed=seed)
    st = run_arq(arq_cfg)
    points.append(TradeoffPoint(kind="arq", margin=float("nan"), R=1.0, k=1,
                                eta=st.mean_efficiency, mean=st.mean_delay,
                                std=st.std_delay))
    return points
