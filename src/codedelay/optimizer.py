"""Generation-size sweeps, k* selection, and redundancy trade-off curves.

The analytic mean-delay curve over k carries a sawtooth artifact: the number
of in-flight generations b = ceil(bdp / n_k) drops in unit steps as k grows,
and each drop puts an artificial dip in the curve. smooth_local_maxima clamps
the dips to the local upper envelope so k* selection is not fooled by them;
raw means are always kept alongside.
"""

import bisect
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import diagnostics
from .delay import expected_delay
from .efficiency import efficiency
from .kernel import MAX_K, Chain, TransitionKernel, build_kernel, check_generation_size
from .params import AssumptionWarning, InputError, derive_coding, redundancy_from_margin
from .simulator import SimConfig, run_arq

DEFAULT_K_POINTS = 40
_TIE_REL = 1e-12
_FIRST_STAGE_TOP = 64   # k_star: the first stage's largest size; each later stage doubles it
_MASS_MARGIN = 1e-3     # k_star: the truncated mass a pruned point is taken to stay under


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
    truncated_mass: Optional[float] = None


@dataclass(frozen=True)
class TradeoffPoint:
    kind: str  # "coded" or "arq"
    margin: float
    R: float
    k: int
    eta: float
    mean: float
    std: float


def default_k_range(channel):
    """Log-spaced generation sizes from 2 up to min(bdp - 1, 1024)."""
    hi = min(channel.bdp - 1, 1024)
    if hi < 2:
        raise InputError(f"bdp={channel.bdp} admits no generation size (need bdp > 2)")
    grid = np.logspace(math.log10(2.0), math.log10(float(hi)), DEFAULT_K_POINTS)
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


def _point_delay(channel, coding, kern, report):
    """coding's DelayMoments from its size's kernel; with a diagnostics report, also its fields."""
    dm = expected_delay(channel, coding, kern)
    if report is not None:
        report.point(coding, kern, dm)
    return dm


def evaluate_point(channel, R, coding, kern, eff, dm=None):
    """coding's SweepRecord, from its size's kernel and EfficiencyResult, with R as given.

    dm is the point's DelayMoments where the caller has them already; else they are
    computed here."""
    if dm is None:
        dm = _point_delay(channel, coding, kern, diagnostics.active)
    return SweepRecord(k=coding.k, R=R, epsilon=channel.epsilon, bdp=channel.bdp,
                       mean=dm.mean, std=math.sqrt(dm.variance), eta=eff.eta, b=coding.b,
                       truncated_mass=dm.truncated_mass)


def _grid(channel, k_range):
    """k_range as a list, or the default grid; rejects an empty or unsorted one."""
    ks = list(k_range) if k_range is not None else default_k_range(channel)
    if not ks:
        raise InputError("k_range must be nonempty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise InputError("k_range must be strictly ascending")
    return ks


def sweep(channel, R, k_range=None):
    """Evaluate mean/std delay and efficiency at each k, in order.

    One kernel, built at the largest k, serves every point: evaluate_point
    reads each k's leading block, absorption cdf and entry of one efficiency
    pass. A failing point yields a record with its error message, not an abort.
    """
    ks = _grid(channel, k_range)
    codings, errors = _grid_codings(channel, R, ks)
    done = {}
    if codings:
        kern = build_kernel(channel, codings[-1], [c.k for c in codings])
        eff = efficiency(kern)
        for coding in codings:
            try:
                rec = evaluate_point(channel, R, coding, kern.block(coding), eff.at(coding.k))
            except Exception as exc:  # per-point failures become markers, not aborts
                rec = _failed_record(channel, R, coding.k, str(exc))
            done[coding.k] = rec
    return [done[k] if k in done else _failed_record(channel, R, k, errors[k]) for k in ks]


def _smoothing_step(peaks, b, mean):
    """One point of smooth_local_maxima: its smoothed mean, and the smoother's running
    values (prev_peak, run_peak, run_b) after it, from those before it."""
    prev_peak, run_peak, run_b = peaks
    if b != run_b:
        prev_peak, run_peak, run_b = run_peak, None, b
    clamp = run_peak if run_peak is not None else prev_peak
    smoothed = mean if clamp is None else max(mean, clamp)
    run_peak = mean if run_peak is None else max(run_peak, mean)
    return smoothed, (prev_peak, run_peak, run_b)


def smooth_local_maxima(records):
    """Fill smoothed_mean with the upper envelope across b discontinuities.

    Within a constant-b run each point is clamped to the run's raw running
    maximum; a run's first point is clamped to the previous run's raw peak.
    The clamp always references raw means, never smoothed ones, so a genuine
    downward trend is lagged by at most one run rather than flattened.
    """
    out = []
    peaks = (None, None, None)
    for rec in records:
        if rec.error is not None:
            out.append(rec)
            continue
        smoothed, peaks = _smoothing_step(peaks, rec.b, rec.mean)
        out.append(replace(rec, smoothed_mean=smoothed))
    return out


def _lower_bound(channel, k):
    """(LB(k), m, f(m)): the kernel-free lower bound on the mean delay at k (see k_star)."""
    eps = channel.epsilon
    m = float(k) if eps == 0.0 else min(float(k), (1.0 - eps) / eps)
    f = (k - m) * (k - m + 1.0) / (2.0 * k)
    return channel.t_p + channel.t_s * (1.0 + f), m, f


def _bound_holds(channel, coding):
    """Whether the premises under which every delay cell at coding is >= LB(k) hold (see k_star)."""
    t_s, t_p = channel.t_s, channel.t_p
    if 2.0 * t_p < t_s:     # case 2
        return False
    b = coding.b
    if b < 2:               # no generation ahead: cases 1 and 2 only
        return True
    k = coding.k
    n_k = coding.R * k
    _, m, f = _lower_bound(channel, k)
    case3 = 2.0 * t_p - t_s * ((b - 2) * n_k / 2.0 + (k + 1) / 2.0 + f)
    case4 = 2.0 * t_p + t_s * (n_k - (k + 1) / 2.0 - b * n_k * m / (2.0 * k) - f)
    return case3 >= 0.0 and case4 >= 0.0


def _cut(channel, codings, limit):
    """Index of the first of the trailing codings whose points provably stay above `limit`."""
    cut = len(codings)
    while cut:
        coding = codings[cut - 1]
        lb = _lower_bound(channel, coding.k)[0]
        if not ((1.0 - _MASS_MARGIN) * lb > limit and _bound_holds(channel, coding)):
            break
        cut -= 1
    return cut


def k_star(channel, R, k_range=None):
    """Smallest k minimizing the smoothed mean delay; returns (k, record).

    The result is that of the selection over
    smooth_local_maxima(sweep(channel, R, k_range)), bit for bit, but the
    grid is evaluated in stages and the search stops where a lower bound on
    the mean delay passes the best smoothed mean. Grid sizes that
    _grid_codings rejects (derive_coding's or the kernel's input checks,
    sweep's error rows before any kernel is built) are dropped with one
    AssumptionWarning, and the warning that k* is the grid's top reads the
    largest size kept.

    Stages. Each stage builds one kernel for the grid sizes not yet
    evaluated up to a top of 64, 128, 256, ... in turn, and takes each
    size's DelayMoments from its block. Rows and absorption cdfs do not
    depend on the kernel's size, and smoothing reads only earlier points,
    so the smoother's running values (_smoothing_step) carry from point to
    point and every smoothed mean of the evaluated prefix equals the full
    sweep's. For the same reason each stage's kernel grows the last one's
    instead of starting again: all stages share one kernel.Chain (see
    build_kernel). A stage keeps, per size, only its smoothed mean, coding,
    DelayMoments and absorption cdf; its kernel lives on only through the
    chain. After a stage, best is the least smoothed mean so far,
    limit = best + tol as in the selection, and the cut is the first of the
    grid's trailing sizes with (1 - tau)*LB(k) > limit whose premises
    (below) hold. The search stops once the prefix reaches the cut, and no
    stage passes it.

    The bound. With m = min(k, (1 - eps)/eps) (k at eps = 0) and
    f(s) = (k - s)(k - s + 1)/(2k), which is convex and decreasing on
    [0, k], LB(k) = t_p + t_s*(1 + f(m)). Every (y, z) cell that
    expected_delay evaluates at k has a conditional mean >= LB(k):

    1. y = 1, z = 1. Expanding the case formula gives t_p + t_s*(1 + E[f(S)])
       under S's first-round law, a geometric truncated at k, with
       E[S] <= min(k, (1 - eps)/eps) = m. Jensen's inequality and the
       monotonicity of f give E[f(S)] >= f(E[S]) >= f(m).
    2. y > 1, z = 1. The formula equals t_p + t_s*(1 + E2[f(S)]), with E2
       the s2 law (S given S < k, so E2[S] <= m as in case 1), plus
       (1 - s2_1/k)*((n_k - k - 1)*t_s + 2(y - 1)*t_p). There s2_1 < k,
       n_k >= k and y >= 2, so the added term is >= 0 when 2*t_p >= t_s.
    3. z > y, so z >= 2. mean - LB = 2(z - 1)*t_p
       - t_s*(v1*n_k + (k + 1)/2 + f(m)). The straggler weights
       a^(N-1-v) * b^v of the N = b - 1 generations ahead do not grow with
       v, so v1 <= (N - 1)/2 = (b - 2)/2, and mean - LB >=
       2*t_p - t_s*((b - 2)*n_k/2 + (k + 1)/2 + f(m)).
    4. y >= z >= 2. mean - LB = (2(z - 1) + 2(y - z)(1 - s2_1/k))*t_p
       + t_s*(n_k - (k + 1)/2 - (n_k/k)*(v1 + 1)*s2_1 - f(m)). The t_p
       factor is >= 2, and with v1 + 1 <= b/2 (as in case 3) and
       s2_1 <= m (as in case 2) this is >=
       2*t_p + t_s*(n_k - (k + 1)/2 - b*n_k*m/(2k) - f(m)).

    The premises, checked at every pruned k by _bound_holds, are
    2*t_p >= t_s, and, where b >= 2 (b = 1 pins z at 1), that the bounds of
    cases 3 and 4 are >= 0. They can fail: at eps 0.5, k 2, R 1, BDP 3 and
    t_p = 0.6*t_s, a case-3 cell lies below LB. The evaluated cells' weights
    sum to 1 - tm, tm the truncated mass, so mean >= (1 - tm)*LB(k), and the
    smoothed mean is >= the mean.

    The one step not proved: a pruned point's tm is not known. The search
    takes it to be <= tau = _MASS_MARGIN, and evaluates the rest of the grid
    in one stage as soon as an evaluated point reports tm > tau. A pruned
    point then has smoothed >= (1 - tau)*LB(k) > limit, so it can neither
    tie nor lower the best. The argument is about exact values; the few ulp
    by which the computed sums round are taken to fit in the same margin.

    Once the search stops, only the winner k* gets an efficiency pass, over
    states 1..k* of the chain's rows, and a record through evaluate_point,
    from the DelayMoments its stage computed; so no size's delay sums run
    twice. The grown stage kernels cost about what one kernel to the top of
    the evaluated prefix does: each stage fills from the law n = k of the
    last and sums the absorption only above the states the chain keeps for
    each round. On the four design channels at k 1024, with an efficiency
    pass per stage as the search then ran, that measured 0.99-1.15 times one
    kernel, against 1.31-1.46 times for stages built from scratch.
    """
    ks = _grid(channel, k_range)
    codings, errors = _grid_codings(channel, R, ks)
    dropped = [k for k in ks if k in errors]
    if dropped:
        _warn_dropped(len(ks), dropped, errors[dropped[0]])
    sizes = [c.k for c in codings]
    bounded = 2.0 * channel.t_p >= channel.t_s
    report = diagnostics.active
    chain = Chain()
    points = []     # (smoothed mean, coding, DelayMoments, absorption cdf) per evaluated size
    peaks, best = (None, None, None), None
    done, cut, top, tops = 0, len(codings), _FIRST_STAGE_TOP, []
    while done < cut:
        end = min(bisect.bisect_right(sizes, top), cut) if bounded else cut
        top *= 2
        if end == done:
            continue
        kern = build_kernel(channel, codings[end - 1], sizes[done:end], chain)
        over_margin = False
        for coding in codings[done:end]:
            try:
                block = kern.block(coding)
                dm = _point_delay(channel, coding, block, report)
            except Exception:  # a failed point is left out, as sweep's error rows are
                continue
            smoothed, peaks = _smoothing_step(peaks, coding.b, dm.mean)
            if best is None or smoothed < best:
                best = smoothed
            over_margin = over_margin or dm.truncated_mass > _MASS_MARGIN
            points.append((smoothed, coding, dm, block.absorption_list()))
        kern = block = None     # the chain holds the rows the winner needs
        tops.append(sizes[end - 1])
        done = end
        if not bounded:
            continue
        if over_margin:
            bounded, cut = False, len(codings)
            continue
        if best is not None:
            cut = _cut(channel, codings, best + _TIE_REL * abs(best))
    if not points:
        raise ValueError("every sweep point failed; no k* exists")
    tol = _TIE_REL * abs(best)
    smoothed, coding, dm, cdf = min((p for p in points if p[0] <= best + tol),
                                    key=lambda p: p[1].k)
    k = coding.k
    kern = TransitionKernel(channel, coding, chain.matrix[:k + 1, :k + 1], {k: cdf}, chain)
    winner = replace(evaluate_point(channel, R, coding, kern, efficiency(kern), dm),
                     smoothed_mean=smoothed)
    at_top, loose = _warn_at_edge(channel, R, sizes[-1], k)
    if report is not None:
        report.search(R, len(ks), dropped, done, len(codings) - done, tops, k, at_top, loose)
    return k, winner


def _warn_dropped(grid_sizes, dropped, reason):
    """Warn that k* drops the sizes `dropped` of its grid, for the first one's reason."""
    warnings.warn(
        f"k* search dropped {len(dropped)} of {grid_sizes} grid sizes "
        f"(k = {', '.join(map(str, dropped))}): {reason}", AssumptionWarning, stacklevel=3)


def _warn_at_edge(channel, R, top, k):
    """Warn when k* = k is `top`, the largest size the grid admits, and a larger size is
    admissible (at most MAX_K, with R*k < BDP), and when R*k >= BDP at k* itself.
    Returns whether each holds."""
    bdp = channel.bdp
    at_top = k == top and k < MAX_K and R * (k + 1) < bdp
    if at_top:
        largest = min(MAX_K, math.ceil(bdp / R))
        while R * largest >= bdp:
            largest -= 1
        warnings.warn(
            f"k* = {k} is the top of the k grid, and sizes up to {largest} are admissible "
            f"(R*k < BDP ({bdp}), k <= {MAX_K}); the optimum may lie above it: pass a "
            f"--k-grid that reaches past {k}", AssumptionWarning, stacklevel=3)
    loose = R * k >= bdp
    if loose:
        warnings.warn(
            f"k* = {k} has R*k = {R * k:.3f} >= BDP ({bdp}); the delay model is loose at k*",
            AssumptionWarning, stacklevel=3)
    return at_top, loose


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
    if diagnostics.active is not None:
        diagnostics.active.simulation(arq_cfg, st, arq=True)
    points.append(TradeoffPoint(kind="arq", margin=float("nan"), R=1.0, k=1,
                                eta=st.mean_efficiency, mean=st.mean_delay,
                                std=st.std_delay))
    return points
