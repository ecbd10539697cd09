"""Closed-form moments of the pre-loss prefix length and the straggler position.

The prefix length S is the number of systematic packets received before the
first loss in a generation's first round. The straggler position V_N locates
the last-finishing of N concurrent generations, counted from the end. Both
have closed-form moments that the delay model consumes; the pmfs are kept
around so tests can check the closed forms by direct summation.
"""

import math
from dataclasses import dataclass
from typing import Optional


def _q_k(epsilon, k):
    # (1 - epsilon)^k computed in log space; exact for epsilon = 0 and
    # accurate for small epsilon or large k.
    if epsilon == 0.0:
        return 1.0
    return math.exp(k * math.log1p(-epsilon))


def _power_sums(d, n):
    """Sums of s^i * (1-d)^s over s in [0, n), for i = 0, 1, 2, 3.

    The textbook closed forms for these truncated geometric sums subtract
    nearly equal terms when n*d is small, which costs up to half the digits.
    Each bracket regroups as P(d) - (1-d)^(n-1) * Q(d) with Q/P = 1 + r and
    r of order n*d, so it collapses to a single expm1. The exponent is still
    a difference of terms of order n*d whose result shrinks like (n*d)^(i+1),
    so below n*d = 0.05 the sums are instead accumulated directly; that is
    exact to about n ulps because every term is positive.
    """
    if n <= 0:
        return 0.0, 0.0, 0.0, 0.0
    if n == 1 or d >= 1.0:
        # Only s = 0 carries weight. d reaches 1 when its complement is
        # below the resolution of a double, where log1p(-d) is undefined.
        return 1.0, 0.0, 0.0, 0.0
    if n * d < 0.05:
        rho = 1.0 - d
        g0 = g1 = g2 = g3 = 0.0
        p = 1.0
        for s in range(n):
            sf = float(s)
            g0 += p
            g1 += sf * p
            g2 += sf * sf * p
            g3 += sf * sf * sf * p
            p *= rho
        return g0, g1, g2, g3
    c = 1.0 - d
    ld = math.log1p(-d)
    m = n - 1
    md = m * d
    p2 = 2.0 - d
    p3 = 6.0 + d * (d - 6.0)
    b1 = -math.expm1(m * ld + math.log1p(md))
    b2 = -math.expm1(m * ld + math.log1p(md * (md + 2.0) / p2))
    b3 = -math.expm1(m * ld + math.log1p(md * (md * md + 3.0 * md + 6.0 - 3.0 * d) / p3))
    d2 = d * d
    g0 = -math.expm1(n * ld) / d
    g1 = c * b1 / d2
    g2 = c * p2 * b2 / (d2 * d)
    g3 = c * p3 * b3 / (d2 * d2)
    return g0, g1, g2, g3


def prefix_pmf(epsilon, k, first_round, s):
    """Probability that the pre-loss prefix has length s.

    Parameters
    ----------
    epsilon : float
        Packet erasure probability.
    k : int
        Generation size; s ranges over [0, k].
    first_round : bool
        Whether the generation decodes within its first round. s = k (no
        systematic loss at all) is only possible in that case; otherwise the
        distribution is renormalized over s in [0, k-1].
    """
    if not (0 <= s <= k):
        raise ValueError(f"s must be in [0, {k}], got {s}")
    if first_round:
        if s == k:
            return _q_k(epsilon, k)
        return epsilon * _q_k(epsilon, s)
    if epsilon == 0.0:
        raise ValueError("the multi-round case has probability zero on a lossless channel")
    if s == k:
        return 0.0
    return epsilon * _q_k(epsilon, s) / (1.0 - _q_k(epsilon, k))


def prefix_mgf(epsilon, k, t):
    """Moment generating function of the prefix length in the first-round case."""
    q = _q_k(epsilon, k)
    ekt = math.exp(k * t)
    return epsilon * (1.0 - ekt * q) / (1.0 - math.exp(t) * (1.0 - epsilon)) + ekt * q


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
    b = kern.absorption_cdf(z - 1)
    if b == 0.0 or N == 1:
        # Nobody can sit behind the straggler: with one generation, or when
        # finishing in under z rounds is impossible, V_N is identically 0.
        return StragglerMoments(v1=0.0, v2=0.0)
    # Position v carries weight a^(N-1-v) * b^v, a geometric in b/a
    # truncated to [0, N). Its moments are ratios of the same power sums
    # used for the prefix length, with 1 - b/a = p_y(z)/a.
    a = kern.absorption_cdf(z)
    g0, g1, g2, _ = _power_sums(py / a, N)
    return StragglerMoments(v1=g1 / g0, v2=g2 / g0)
