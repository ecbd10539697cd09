"""Closed-form moments of the pre-loss prefix length and the straggler position.

The prefix length S is the number of systematic packets received before the
first loss in a generation's first round. The straggler position V_N locates
the last-finishing of N concurrent generations, counted from the end. Both
have closed-form moments that the delay model consumes.
"""

import math
from dataclasses import dataclass
from typing import Optional


def _power_sums(d, n, cubes=True):
    """Sums of s^i * (1-d)^s over s in [0, n), for i = 0, 1, 2, 3.

    The textbook closed forms for these truncated geometric sums subtract
    nearly equal terms when n*d is small. Binary doubling over n avoids
    every subtraction: with rho = 1-d, the sums over [m, 2m) are those over
    [0, m) shifted by m, rho^m * sum_j C(i,j) m^(i-j) S_j[0, m), and each
    set bit of n appends the single term s = m. Every term is nonnegative,
    rho^m is computed directly as exp(m * log1p(-d)), and the cost is
    O(log n). At d = 1, log1p(-d) is -inf and only s = 0 carries weight.

    The loop updates the four sums in place, the cube sum first, since each
    sum's step reads only the lower ones. The appended term is rho^m times
    1, m, m^2 and m^3, the shift formula's products with the sums over
    [0, 1) = (1, 0, 0, 0) taken exactly. With cubes false the cube sum is
    skipped and returned as 0.0.
    """
    if n <= 0:
        return 0.0, 0.0, 0.0, 0.0
    ld = math.log1p(-d) if d < 1.0 else -math.inf
    exp = math.exp
    g0, g1, g2, g3 = 1.0, 0.0, 0.0, 0.0   # the sums over [0, 1), for the leading bit of n
    m = 1
    for bit in bin(n)[3:]:
        # [0, m) followed by itself shifted to start at m
        r, mf = exp(m * ld), float(m)
        if cubes:
            g3 = g3 + r * (g3 + mf * (3.0 * g2 + mf * (3.0 * g1 + mf * g0)))
        g2 = g2 + r * (g2 + mf * (2.0 * g1 + mf * g0))
        g1 = g1 + r * (g1 + mf * g0)
        g0 = g0 + r * g0
        m *= 2
        if bit == "1":
            r, mf = exp(m * ld), float(m)
            mm = mf * mf
            if cubes:
                g3 = g3 + r * (mf * mm)
            g2 = g2 + r * mm
            g1 = g1 + r * mf
            g0 = g0 + r
            m += 1
    return g0, g1, g2, g3


@dataclass(frozen=True)
class PrefixMoments:
    """First three moments of the prefix length, for both round-count cases.

    s1_i conditions on the generation decoding in one round, s2_i on needing
    more than one. On a lossless channel the multi-round case has probability
    zero: lossless is set and the s2 fields are None.
    """

    k: int
    epsilon: float
    s1_1: float
    s1_2: float
    s1_3: float
    s2_1: Optional[float]
    s2_2: Optional[float]
    s2_3: Optional[float]
    lossless: bool


def prefix_moments(epsilon, k):
    """Closed-form moments of the prefix length for generation size k.

    The 1/epsilon factors have removable singularities at epsilon = 0; that
    limit (every systematic packet arrives, S = k) is taken analytically.
    """
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if epsilon == 0.0:
        return PrefixMoments(k=k, epsilon=epsilon,
                             s1_1=float(k), s1_2=float(k) ** 2, s1_3=float(k) ** 3,
                             s2_1=None, s2_2=None, s2_3=None, lossless=True)
    # The first-round moments split into the s = k atom plus the partial
    # sums over s < k; the multi-round moments are those same sums with the
    # atom removed and the mass renormalized, so both come out of one set
    # of power sums with no cancelling subtraction in between.
    lk = k * math.log1p(-epsilon)
    q = math.exp(lk)
    one_minus_q = -math.expm1(lk)
    _, g1, g2, g3 = _power_sums(epsilon, k)
    n1 = epsilon * g1
    n2 = epsilon * g2
    n3 = epsilon * g3
    kf = float(k)
    return PrefixMoments(k=k, epsilon=epsilon,
                         s1_1=n1 + kf * q,
                         s1_2=n2 + kf * kf * q,
                         s1_3=n3 + kf ** 3 * q,
                         s2_1=n1 / one_minus_q,
                         s2_2=n2 / one_minus_q,
                         s2_3=n3 / one_minus_q,
                         lossless=False)


@dataclass(frozen=True)
class StragglerMoments:
    """First and second moment of the straggler position V_N given Z_N = z."""

    v1: float
    v2: float


def straggler_moments(kern, N, z):
    """Closed-form first and second moments of the straggler position."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    py = kern.p_y(z)
    pz = kern.p_z(N, z)
    if pz <= 0.0 or py <= 0.0:
        raise ValueError(f"conditioning event has zero probability (N={N}, z={z})")
    return StragglerMoments(*straggler_moments_at(kern.absorption_cdf(z), py, N))


def straggler_moments_at(a, py, N):
    """E[V_N] and E[V_N^2], as two floats, from a = P(Y <= z) and py = P(Y = z), both positive.

    Position v carries weight a^(N-1-v) * b^v, a geometric in b/a
    truncated to [0, N). Its moments are ratios of the same power sums
    used for the prefix length, with 1 - b/a = py/a; the cube sum is not
    needed. With one generation, or when finishing in under z rounds is
    impossible (b = 0, so the ratio is 1), only v = 0 carries weight and
    V_N is 0.
    """
    g0, g1, g2, _ = _power_sums(py / a, N, False)
    return g1 / g0, g2 / g0
