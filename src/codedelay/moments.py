"""Closed-form moments of the pre-loss prefix length and the straggler position.

The prefix length S is the number of systematic packets received before the
first loss in a generation's first round. The straggler position V_N locates
the last-finishing of N concurrent generations, counted from the end. Both
have closed-form moments that the delay model consumes; the straggler pmf is
kept so the closed forms can be checked by direct summation.
"""

import math
from dataclasses import dataclass
from typing import Optional


def _power_sums(d, n):
    """Sums of s^i * (1-d)^s over s in [0, n), for i = 0, 1, 2, 3.

    The textbook closed forms for these truncated geometric sums subtract
    nearly equal terms when n*d is small. Binary doubling over n avoids
    every subtraction: with rho = 1-d, the sums over [m, 2m) are those over
    [0, m) shifted by m, rho^m * sum_j C(i,j) m^(i-j) S_j[0, m), and each
    set bit of n appends the single term s = m. Every term is nonnegative,
    rho^m is computed directly as exp(m * log1p(-d)), and the cost is
    O(log n). At d = 1, log1p(-d) is -inf and only s = 0 carries weight.
    """
    if n <= 0:
        return 0.0, 0.0, 0.0, 0.0
    ld = math.log1p(-d) if d < 1.0 else -math.inf

    def join(lo, hi, m):
        # sums of lo over [0, m) followed by those of hi shifted to start at m
        r, mf = math.exp(m * ld), float(m)
        h0, h1, h2, h3 = hi
        return (lo[0] + r * h0,
                lo[1] + r * (h1 + mf * h0),
                lo[2] + r * (h2 + mf * (2.0 * h1 + mf * h0)),
                lo[3] + r * (h3 + mf * (3.0 * h2 + mf * (3.0 * h1 + mf * h0))))

    one = (1.0, 0.0, 0.0, 0.0)   # the sums over [0, 1), for the leading bit of n
    g, m = one, 1
    for bit in bin(n)[3:]:
        g, m = join(g, g, m), 2 * m
        if bit == "1":
            g, m = join(g, one, m), m + 1
    return g


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


def straggler_pmf(kern, N, z, v):
    """Probability that the last finisher of N generations sits v positions from the end.

    Conditions on the slowest of the N needing exactly z rounds; that event
    must have positive probability.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    if not (0 <= v <= N - 1):
        raise ValueError(f"v must be in [0, {N - 1}], got {v}")
    pz = kern.p_z(N, z)
    if pz <= 0.0:
        raise ValueError(f"conditioning event has zero probability (N={N}, z={z})")
    a = kern.absorption_cdf(z)
    b = kern.absorption_cdf(z - 1)
    return a ** (N - v - 1) * b ** v * kern.p_y(z) / pz


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
    return straggler_moments_at(kern.absorption_cdf(z), py, N)


def straggler_moments_at(a, py, N):
    """Straggler moments from the cdf a = P(Y <= z) and py = P(Y = z), both positive.

    Position v carries weight a^(N-1-v) * b^v, a geometric in b/a
    truncated to [0, N). Its moments are ratios of the same power sums
    used for the prefix length, with 1 - b/a = py/a. With one generation,
    or when finishing in under z rounds is impossible (b = 0, so the ratio
    is 1), only v = 0 carries weight and V_N is 0.
    """
    g0, g1, g2, _ = _power_sums(py / a, N)
    return StragglerMoments(v1=g1 / g0, v2=g2 / g0)
