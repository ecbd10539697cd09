"""Scenario parameters and the derived-quantity arithmetic shared by every module."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Snap tolerance for quantities that are analytically integral but carry float
# fuzz (e.g. 0.1 * 1e7 / 1e4 evaluates to 100.00000000000001).
_INT_SNAP = 1e-9

# Largest bandwidth-delay product accepted, in packets. It bounds the mass the
# delay sums lose past the absorption horizon, about b * 1e-12 for the slowest
# of b = ceil(bdp / (R*k)) generations in flight (truncated_mass 1.8e-5 at
# this size, epsilon 0.3, k 1); a simulation needs more than 10*b generations.
MAX_BDP = 10_000_000

# Largest R*k accepted: the packets one generation sends in its first round.
# It bounds the kernel's binomial recurrence (n runs to ceil(R*k)) and the
# simulators' per-round draws.
MAX_ROUND_PACKETS = 1 << 16


class InputError(ValueError):
    """An input outside its accepted range; the CLI reports it as a usage error."""


class AssumptionWarning(UserWarning):
    """A configuration violates an operating assumption; results may be loose."""


def _require_finite(**values):
    """Reject NaN and infinite inputs by name; None means not given.

    An int is finite at any size (math.isfinite would overflow on one beyond
    float range), so range checks further on reject an oversized integer.
    """
    for name, v in values.items():
        if v is not None and not isinstance(v, int) and not math.isfinite(v):
            raise InputError(f"{name} must be finite, got {v}")


def _ceil_snapped(x):
    r = round(x)
    if abs(x - r) < _INT_SNAP:
        return int(r)
    return int(math.ceil(x))


@dataclass(frozen=True)
class ChannelParams:
    """Erasure channel and link timing.

    epsilon is the i.i.d. packet erasure probability, rate the link speed in
    bits per second, packet_size the packet length in bits. t_s is the slot
    (transmission) time, t_p the one-way propagation delay. rtt = t_s + 2*t_p
    assumes acknowledgements are negligibly small. bdp is the bandwidth-delay
    product in packets.
    """

    epsilon: float
    rate: float
    packet_size: float
    t_p: float
    t_s: float
    rtt: float
    bdp: int


def derive_channel(epsilon, rate, packet_size, t_p=None, rtt=None):
    """Build ChannelParams from primary quantities.

    Exactly one of t_p and rtt must be given; the other is derived via
    rtt = t_s + 2*t_p.
    """
    _require_finite(epsilon=epsilon, rate=rate, packet_size=packet_size, t_p=t_p, rtt=rtt)
    if not (0.0 <= epsilon < 1.0):
        raise InputError(f"epsilon must be in [0, 1), got {epsilon}")
    if rate <= 0:
        raise InputError(f"rate must be positive, got {rate}")
    if packet_size <= 0:
        raise InputError(f"packet_size must be positive, got {packet_size}")
    t_s = packet_size / rate
    if (t_p is None) == (rtt is None):
        raise InputError("give exactly one of t_p and rtt")
    if t_p is None:
        t_p = (rtt - t_s) / 2.0
        if t_p < -_INT_SNAP * t_s:
            raise InputError(f"rtt {rtt} is shorter than one slot time {t_s}")
        t_p = max(t_p, 0.0)
    if t_p < 0:
        raise InputError(f"t_p must be nonnegative, got {t_p}")
    rtt = t_s + 2.0 * t_p
    bdp = rtt * rate / packet_size
    if not math.isfinite(bdp) or _ceil_snapped(bdp) > MAX_BDP:
        raise InputError(f"bandwidth-delay product must be at most {MAX_BDP} packets, got "
                         f"{bdp:.6g} (rate {rate}, packet_size {packet_size}, rtt {rtt})")
    bdp = max(_ceil_snapped(bdp), 1)
    return ChannelParams(epsilon=float(epsilon), rate=float(rate),
                         packet_size=float(packet_size), t_p=float(t_p),
                         t_s=t_s, rtt=rtt, bdp=bdp)


def redundancy_from_margin(x, epsilon):
    """Redundancy factor giving a fractional capacity margin x above the loss rate."""
    _require_finite(margin=x, epsilon=epsilon)
    if x < 0:
        raise InputError(f"margin must be nonnegative, got {x}")
    if not (0.0 <= epsilon < 1.0):
        raise InputError(f"epsilon must be in [0, 1), got {epsilon}")
    return (1.0 + x) / (1.0 - epsilon)


def split_count(R, i):
    """R*i as (floor, fraction): the per-round transmit count for i dofs.

    The count is floor(R*i), plus one with probability `fraction`. Values
    within float fuzz of an integer snap to it with fraction 0. This is the
    only place R*i is rounded. For an integer array i both parts are arrays,
    each entry equal to the scalar result for that i.
    """
    ri = R * i
    if isinstance(ri, np.ndarray):
        r = np.rint(ri)    # half to even, as round() does
        snap = np.abs(ri - r) < _INT_SNAP
        lo = np.where(snap, r, np.floor(ri))
        return lo.astype(np.int64), np.where(snap, 0.0, ri - lo)
    r = round(ri)
    if abs(ri - r) < _INT_SNAP:
        return int(r), 0.0
    lo = int(math.floor(ri))
    return lo, ri - lo


@dataclass(frozen=True)
class CodingParams:
    """Generation size, redundancy and the derived in-flight generation count.

    n_k_low/n_k_high bracket the randomized first-round transmit count, frac is
    the probability of the high value. b is the number of generations
    concurrently in flight within one bandwidth-delay product, ceil(bdp / (R*k)).
    within_bdp is False when R*k >= bdp, i.e. when feedback would arrive before
    the first round even finishes; the analysis still runs but is flagged.
    """

    k: int
    R: float
    n_k_low: int
    n_k_high: int
    frac: float
    b: int
    within_bdp: bool


def derive_coding(channel, k, R=None, margin=None):
    """Build CodingParams for a channel.

    Give either the redundancy factor R directly or a capacity margin
    (R = (1+margin)/(1-epsilon)).
    """
    _require_finite(k=k, R=R, margin=margin)
    if k != int(k):
        raise InputError(f"k must be an integer, got {k}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if (R is None) == (margin is None):
        raise InputError("give exactly one of R and margin")
    if R is None:
        R = redundancy_from_margin(margin, channel.epsilon)
    if R < 1:
        raise InputError(f"R must be >= 1, got {R}")
    if k > MAX_ROUND_PACKETS:   # then R*k is too, and k may lie beyond float range
        raise InputError(f"R*k must be at most {MAX_ROUND_PACKETS} packets per round, got "
                         f"k above {MAX_ROUND_PACKETS}")
    if R * k > MAX_ROUND_PACKETS:
        source = "" if margin is None else f" from margin {margin}"
        raise InputError(f"R*k must be at most {MAX_ROUND_PACKETS} packets per round, got "
                         f"{R * k:.6g} (R = {R:.6g}{source}, k = {k})")
    n_lo, frac = split_count(R, k)
    n_hi = n_lo + 1 if frac else n_lo
    b = max(_ceil_snapped(channel.bdp / (R * k)), 1)
    within = R * k < channel.bdp
    if not within:
        warnings.warn(
            f"R*k = {R * k:.3f} is not smaller than the BDP ({channel.bdp}); "
            "feedback arrives before the first round completes and the delay "
            "model is loose here", AssumptionWarning, stacklevel=2)
    return CodingParams(k=int(k), R=float(R), n_k_low=n_lo, n_k_high=n_hi,
                        frac=frac, b=b, within_bdp=within)
