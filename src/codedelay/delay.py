"""Expected in-order delivery delay and its variance.

The delay of a packet runs from the start of its first transmission slot to
the instant it is handed to the application in sequence order. Conditioned on
the round count Y of the packet's own generation and the round count Z of the
b-1 generations ahead of it, the per-generation mean delay has a closed form
in four cases:

  1. Y = 1, Z = 1   decoded first round, nothing ahead blocks
  2. Y > 1, Z = 1   retransmissions needed, nothing ahead blocks
  3. Z > Y, Z > 1   an earlier generation finishes last and blocks
  4. Y >= Z, Z > 1  blocked at first, then waits on its own retransmissions

Case 1 uses a lower bound (one coded packet recovers the first round's
losses), so the assembled mean and second moment are lower bounds as well.
The unconditional moments follow by weighting cells with p_Y * p_Z; cells
whose weight falls below a threshold are skipped and accounted for in
truncated_mass.

The sum walks each kept z row once and computes per cell only the terms that
depend on y. The rest is taken once: case 1's moments and case 2's y-free
terms per call; and per z > 1 row, its straggler moments v1 and v2, its
case-3 moments (a function of z alone) and case 4's y-free terms. Each such
value is a whole subexpression of the cell formula in Python's left-to-right
association: in case 4's mean, ((2(z - y)/k)*s2_1 + 2y - 1)*t_p - b4 with
b4 = ((n_k/k)*(v1 + 1)*s2_1 - n_k + k/2 - 1/2)*t_s taken per row. So every
cell is the same float as the whole formula gives (the per-cell form is kept
as the test reference). Terms that are y-free but not a subexpression, such
as c in (a + y) + c, stay in the cell: a + (y + c) would round differently.
"""

import math
from dataclasses import dataclass

from .kernel import build_kernel, slowest_pmf
from .moments import prefix_moments, straggler_moments_at
from .moments import straggler_moments  # noqa: F401  (perfbench/tracing.py wraps this name)

WEIGHT_THRESHOLD = 1e-6


@dataclass(frozen=True)
class DelayMoments:
    """Mean, second moment and variance of the in-order delay, in seconds."""

    mean: float
    second_moment: float
    variance: float
    truncated_mass: float
    terms_evaluated: int


def expected_delay(channel, coding, kern=None, weight_threshold=WEIGHT_THRESHOLD):
    """Lower bound on the mean in-order delay and its variance.

    The double sum over (z, y) cells runs to the kernel's absorption horizon;
    cells with weight p_Y(y) * p_Z(z) below weight_threshold are skipped.
    truncated_mass reports 1 minus the total weight actually evaluated, which
    covers both skipped cells and the horizon tail. A prebuilt kernel can be
    passed to share work with the efficiency computation.
    """
    if kern is None:
        kern = build_kernel(channel, coding)
    k = coding.k
    n_k = coding.R * k
    t_s, t_p = channel.t_s, channel.t_p
    pm = prefix_moments(channel.epsilon, k)
    blockers = coding.b - 1
    horizon = kern.horizon

    # p_Y, p_Z and the straggler moments from one read of the cdf, by the
    # same helpers as kern.p_z and straggler_moments. A generation spanning
    # more than the BDP (b = 1) has nothing ahead to block it, so Z is pinned
    # at 1. A z whose largest cell is under the threshold is skipped whole,
    # since fl(p * wz) is monotone in p.
    cdf = kern.absorption_list()
    p_y = [cdf[y] - cdf[y - 1] for y in range(1, horizon + 1)]
    p_y_max = max(p_y, default=0.0)
    p_z = [(1, 1.0)] if blockers == 0 else [
        (z, slowest_pmf(blockers, cdf[z], cdf[z - 1])) for z in range(1, horizon + 1)]
    rows = [(z, wz) for z, wz in p_z if not (wz <= 0.0 or p_y_max * wz < weight_threshold)]
    if not rows:
        # no cell to evaluate, so no constant below either: t_s**2 overflows
        # (OverflowError) only where a cell formula would have
        return DelayMoments(mean=0.0, second_moment=0.0, variance=0.0,
                            truncated_mass=1.0, terms_evaluated=0)

    # Constants of the call. Each names a subexpression of a cell formula,
    # computed in its original association, so every cell keeps its bits.
    s2_1, s2_2, s2_3 = pm.s2_1, pm.s2_2, pm.s2_3   # None when lossless (horizon 1)
    ts2, tp2 = t_s ** 2, t_p ** 2
    inv_k = 1.0 / k
    nk2 = 2.0 * n_k
    nk_nk = n_k * (n_k - k + 1.0)
    # case 1 (y = 1, z = 1) does not depend on the cell
    mean_11 = (t_s / (2.0 * k)) * (pm.s1_2 - (2.0 * k + 1.0) * pm.s1_1 + k * (k + 3.0)) + t_p
    second_11 = (tp2 + (k + 3.0) * t_p * t_s
                 + (2.0 * k * k + 9.0 * k + 13.0) / 6.0 * ts2
                 - ((k + 3.0 + 7.0 / (6.0 * k)) * ts2
                    + ((2.0 * k + 1.0) / k) * t_p * t_s) * pm.s1_1
                 + (((2.0 * k + 3.0) / (2.0 * k)) * ts2 + inv_k * t_p * t_s) * pm.s1_2
                 - ts2 / (3.0 * k) * pm.s1_3)
    if horizon > 1:
        # the y-free terms of case 2 (y > 1, z = 1) and of case 4 (y >= z > 1)
        two_k, half_k = 2.0 / k, 1.0 / (2.0 * k)
        mean_2 = (half_k * s2_2 - ((nk2 - 1.0) / (2.0 * k)) * s2_1
                  + n_k - 0.5 * k + 0.5) * t_s
        second_2 = (nk_nk + (2.0 * k ** 3 - 3.0 * k * k + k + 6.0) / (6.0 * k)) * ts2
        s2_2_ts = (nk2 + 1.0) * ts2
        s2_3_term = ts2 / (3.0 * k) * s2_3
        s2_1_ts = (n_k * n_k + n_k + 1.0 / 6.0) * ts2
        tstp_4 = (nk2 - k + 1.0) * t_s * t_p
        second_4 = (nk_nk + (2.0 * k * k - 3.0 * k + 1.0) / 6.0) * ts2
    mean_terms = []
    second_terms = []
    weight_total = 0.0
    for z, wz in rows:
        if z > 1:
            # the row's straggler moments (wz > 0 makes p_y[z - 1] > 0, the
            # condition straggler_moments checks), its case-3 moments (z > y)
            # and the y-free terms of its case-4 cells
            v1, v2 = straggler_moments_at(cdf[z], p_y[z - 1], blockers)
            zz = 2.0 * z - 1.0
            mean_3 = zz * t_p - (v1 * n_k + (k - 1.0) / 2.0) * t_s
            second_3 = ((n_k * n_k * v2 + (k - 1.0) * (n_k * v1 + k / 3.0 - 1.0 / 6.0)) * ts2
                        - zz * (nk2 * v1 + k - 1.0) * t_p * t_s
                        + zz ** 2 * tp2)
            mean_4 = ((n_k / k) * (v1 + 1.0) * s2_1 - n_k + 0.5 * k - 0.5) * t_s
            s2_2_v = n_k * (v1 + 1.0) * ts2
            s2_1_v = n_k * (n_k * (v2 - 1.0) - v1 - 1.0) * ts2
            vz = v1 * zz
        for y, py in enumerate(p_y, start=1):
            w = py * wz
            if w < weight_threshold:
                continue
            if z > y:   # 3: an earlier generation finishes last and blocks
                d1, d2 = mean_3, second_3
            elif z > 1:   # 4: blocked, then waits on its own retransmissions
                u = 2.0 * y - 1.0
                d1 = ((2.0 * (z - y) / k) * s2_1 + 2.0 * y - 1.0) * t_p - mean_4
                d2 = (u * (tstp_4 + u * tp2) + second_4
                      + inv_k * (s2_2_v + 2.0 * (y - z) * t_p * t_s) * s2_2
                      + inv_k * (s2_1_v - 2.0 * (n_k * (vz + u) + y - z) * t_p * t_s
                                 - 4.0 * (y - z) * (y + z - 1.0) * tp2) * s2_1)
            elif y == 1:   # 1: decoded first round, nothing ahead blocks
                d1, d2 = mean_11, second_11
            else:   # 2: retransmissions needed, nothing ahead blocks
                u = 2.0 * y - 1.0
                uu = u ** 2
                d1 = mean_2 - (two_k * (y - 1.0) * s2_1 - 2.0 * y + 1.0) * t_p
                d2 = (second_2
                      + (nk2 * u - 2.0 * y * (k - 1.0) + k - 1.0 + two_k) * t_p * t_s
                      + half_k * (s2_2_ts + 2.0 * u * t_p * t_s) * s2_2
                      - s2_3_term
                      - inv_k * (s2_1_ts + u * (nk2 + 1.0) * t_p * t_s + uu * tp2) * s2_1
                      + (uu + inv_k) * tp2)
            mean_terms.append(w * d1)
            second_terms.append(w * d2)
            weight_total += w
    mean = math.fsum(mean_terms)
    second = math.fsum(second_terms)
    # E[D^2] - E[D]^2 can land a few ulp below zero in degenerate cases
    return DelayMoments(mean=mean, second_moment=second,
                        variance=max(second - mean * mean, 0.0),
                        truncated_mass=float(1.0 - weight_total),
                        terms_evaluated=len(mean_terms))
