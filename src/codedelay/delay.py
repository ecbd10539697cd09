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


def _case_mean(y, z, k, n_k, t_s, t_p, pm, vm):
    """Mean delay conditioned on (Y=y, Z=z). vm is needed only when z > 1."""
    if z == 1:
        if y == 1:
            return (t_s / (2.0 * k)) * (pm.s1_2 - (2.0 * k + 1.0) * pm.s1_1
                                        + k * (k + 3.0)) + t_p
        return (((1.0 / (2.0 * k)) * pm.s2_2
                 - ((2.0 * n_k - 1.0) / (2.0 * k)) * pm.s2_1
                 + n_k - 0.5 * k + 0.5) * t_s
                - ((2.0 / k) * (y - 1.0) * pm.s2_1 - 2.0 * y + 1.0) * t_p)
    if z > y:
        return (2.0 * z - 1.0) * t_p - (vm.v1 * n_k + (k - 1.0) / 2.0) * t_s
    return (((2.0 * (z - y) / k) * pm.s2_1 + 2.0 * y - 1.0) * t_p
            - ((n_k / k) * (vm.v1 + 1.0) * pm.s2_1 - n_k + 0.5 * k - 0.5) * t_s)


def _case_second(y, z, k, n_k, t_s, t_p, pm, vm):
    """Second moment of the delay conditioned on (Y=y, Z=z)."""
    if z == 1:
        if y == 1:
            return (t_p ** 2 + (k + 3.0) * t_p * t_s
                    + (2.0 * k * k + 9.0 * k + 13.0) / 6.0 * t_s ** 2
                    - ((k + 3.0 + 7.0 / (6.0 * k)) * t_s ** 2
                       + ((2.0 * k + 1.0) / k) * t_p * t_s) * pm.s1_1
                    + (((2.0 * k + 3.0) / (2.0 * k)) * t_s ** 2
                       + (1.0 / k) * t_p * t_s) * pm.s1_2
                    - t_s ** 2 / (3.0 * k) * pm.s1_3)
        return ((n_k * (n_k - k + 1.0)
                 + (2.0 * k ** 3 - 3.0 * k * k + k + 6.0) / (6.0 * k)) * t_s ** 2
                + (2.0 * n_k * (2.0 * y - 1.0) - 2.0 * y * (k - 1.0)
                   + k - 1.0 + 2.0 / k) * t_p * t_s
                + (1.0 / (2.0 * k)) * ((2.0 * n_k + 1.0) * t_s ** 2
                                       + 2.0 * (2.0 * y - 1.0) * t_p * t_s) * pm.s2_2
                - t_s ** 2 / (3.0 * k) * pm.s2_3
                - (1.0 / k) * ((n_k * n_k + n_k + 1.0 / 6.0) * t_s ** 2
                               + (2.0 * y - 1.0) * (2.0 * n_k + 1.0) * t_p * t_s
                               + (2.0 * y - 1.0) ** 2 * t_p ** 2) * pm.s2_1
                + ((2.0 * y - 1.0) ** 2 + 1.0 / k) * t_p ** 2)
    if z > y:
        return ((n_k * n_k * vm.v2
                 + (k - 1.0) * (n_k * vm.v1 + k / 3.0 - 1.0 / 6.0)) * t_s ** 2
                - (2.0 * z - 1.0) * (2.0 * n_k * vm.v1 + k - 1.0) * t_p * t_s
                + (2.0 * z - 1.0) ** 2 * t_p ** 2)
    return ((2.0 * y - 1.0) * ((2.0 * n_k - k + 1.0) * t_s * t_p
                               + (2.0 * y - 1.0) * t_p ** 2)
            + (n_k * (n_k - k + 1.0)
               + (2.0 * k * k - 3.0 * k + 1.0) / 6.0) * t_s ** 2
            + (1.0 / k) * (n_k * (vm.v1 + 1.0) * t_s ** 2
                           + 2.0 * (y - z) * t_p * t_s) * pm.s2_2
            + (1.0 / k) * (n_k * (n_k * (vm.v2 - 1.0) - vm.v1 - 1.0) * t_s ** 2
                           - 2.0 * (n_k * (vm.v1 * (2.0 * z - 1.0)
                                           + (2.0 * y - 1.0)) + y - z) * t_p * t_s
                           - 4.0 * (y - z) * (y + z - 1.0) * t_p ** 2) * pm.s2_1)


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
    # same helpers as kern.p_z and straggler_moments; a z whose largest cell
    # is under the threshold is skipped whole, since fl(p * wz) is monotone in p
    cdf = kern.absorption_list()
    p_y = [cdf[y] - cdf[y - 1] for y in range(1, horizon + 1)]
    p_y_max = max(p_y, default=0.0)
    mean_terms = []
    second_terms = []
    weight_total = 0.0
    evaluated = 0
    for z in range(1, horizon + 1):
        if blockers == 0:
            # A generation spans more than the BDP: nothing ahead can block,
            # so Z is pinned at 1 and only the first two cases contribute.
            if z > 1:
                break
            wz = 1.0
        else:
            wz = slowest_pmf(blockers, cdf[z], cdf[z - 1])
            if wz <= 0.0 or p_y_max * wz < weight_threshold:
                continue
        # wz > 0 makes p_y[z - 1] > 0, the condition straggler_moments checks
        vm = straggler_moments_at(cdf[z], p_y[z - 1], blockers) if z > 1 else None
        for y, py in enumerate(p_y, start=1):
            w = py * wz
            if w < weight_threshold:
                continue
            d1 = _case_mean(y, z, k, n_k, t_s, t_p, pm, vm)
            d2 = _case_second(y, z, k, n_k, t_s, t_p, pm, vm)
            mean_terms.append(w * d1)
            second_terms.append(w * d2)
            weight_total += w
            evaluated += 1
    mean = math.fsum(mean_terms)
    second = math.fsum(second_terms)
    # E[D^2] - E[D]^2 can land a few ulp below zero in degenerate cases
    return DelayMoments(mean=mean, second_moment=second,
                        variance=max(second - mean * mean, 0.0),
                        truncated_mass=float(1.0 - weight_total),
                        terms_evaluated=evaluated)
