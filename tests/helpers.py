"""Shared oracles for the test suite.

The oracles here are implemented independently of the module under test:
transition rows by exhaustive loss-pattern enumeration, and conditional delay
moments by direct Monte-Carlo of the timing model bucketed on (y, z).
`kernel_row` is not an oracle: it reads the kernel's own row for one (i, n).
"""

import numpy as np

from codedelay.kernel import _binomial_rows, _pure_row
from codedelay.params import coded_count_distribution


def kernel_row(i, n, p_success):
    """(row, absorbed_received) the kernel builds for state i when n >= i packets are sent."""
    laws = list(_binomial_rows(n, n + 1, p_success))
    return _pure_row(i, n, p_success, laws[n], laws[n - 1])


def _loss_patterns(n, eps):
    """(arrival count, probability) of each of the 2^n erasure patterns of n packets."""
    patterns = np.arange(1 << n, dtype=np.uint32)
    bits = (patterns[:, None] >> np.arange(n)[None, :]) & 1
    arrivals = bits.sum(axis=1)
    return arrivals, (1.0 - eps) ** arrivals * eps ** (n - arrivals)


def brute_force_row(i, n, eps):
    """Transition pmf from `i` dofs needed after one round of n packets.

    Enumerates all 2^n erasure patterns. Entry j is the probability that
    j dofs are still needed (j=0 collects every pattern with >= i arrivals).
    """
    arrivals, prob = _loss_patterns(n, eps)
    row = np.zeros(i + 1)
    left = np.maximum(i - arrivals, 0)
    np.add.at(row, left, prob)
    out = np.zeros(row.shape[0])
    out[: i + 1] = row
    return out


def brute_force_absorbed_received(i, n, eps):
    """Sum of arrivals times probability over the 2^n patterns with >= i arrivals."""
    arrivals, prob = _loss_patterns(n, eps)
    absorbed = arrivals >= i
    return float((arrivals[absorbed] * prob[absorbed]).sum())


def mixture_row(i, R, eps):
    """Brute-force row averaged over the fractional transmit-count mixture."""
    dist = coded_count_distribution(R, i)
    row = np.zeros(i + 1)
    for n, p in dist.items():
        row += p * brute_force_row(i, n, eps)
    return row


def sample_rounds(rng, trials, coding, eps):
    """Sample (n, s, y, dec_col) for independent generations.

    Round 1 sends the R*k slot mixture; every slot is erased independently;
    while dofs are missing, each retransmission round sends the R*l mixture.
    dec_col is the slot index (within round 1) where the k-th dof arrives,
    meaningful only when y == 1.
    """
    k = coding.k
    lo, hi, frac = coding.n_k_low, coding.n_k_high, coding.frac
    n = np.full(trials, lo, dtype=np.int64)
    if frac > 0.0:
        n = n + (rng.random(trials) < frac)
    u = rng.random((trials, hi))
    recv = (u >= eps) & (np.arange(hi)[None, :] < n[:, None])
    fails = ~recv[:, :k]
    s = np.where(fails.any(axis=1), fails.argmax(axis=1), k)
    cum = np.cumsum(recv, axis=1)
    dec_col = np.argmax(cum >= k, axis=1)
    need = np.maximum(k - recv.sum(axis=1), 0)
    y = np.ones(trials, dtype=np.int64)
    active = np.flatnonzero(need)
    while active.size:
        ri = coding.R * need[active]
        rounded = np.round(ri)
        snap = np.abs(ri - rounded) < 1e-9
        base = np.where(snap, rounded, np.floor(ri))
        fr = np.where(snap, 0.0, ri - base)
        nl = base.astype(np.int64) + (rng.random(active.size) < fr)
        u2 = rng.random((active.size, int(nl.max())))
        got = ((u2 >= eps) & (np.arange(u2.shape[1])[None, :] < nl[:, None])).sum(axis=1)
        need[active] = np.maximum(need[active] - got, 0)
        y[active] += 1
        active = active[need[active] > 0]
    return n, s, y, dec_col


def _decode_offset(n, y, dec_col, t_s, t_p):
    """Decode instant relative to the generation's first slot (idealized)."""
    return np.where(y == 1, (dec_col + 1) * t_s + t_p,
                    n * t_s + t_p + (y - 1) * 2.0 * t_p)


def conditional_delay_mc(channel, coding, trials, seed):
    """Tagged-generation delay moments bucketed by the (y, z) cell.

    One tagged generation plus its b-1 immediate predecessors are sampled per
    trial; the idealized timing rules produce the tagged packets' delays, and
    z is the worst predecessor round count. Returns
    {(y, z): (samples, mean, second_moment)} with samples counted in packets.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    k, eps = coding.k, channel.epsilon
    t_s, t_p = channel.t_s, channel.t_p
    blockers = coding.b - 1
    n_t, s_t, y_t, dcol_t = sample_rounds(rng, trials, coding, eps)
    dec_tag = _decode_offset(n_t, y_t, dcol_t, t_s, t_p)
    w = np.full(trials, -np.inf)
    z = np.ones(trials, dtype=np.int64)
    offset = np.zeros(trials, dtype=np.int64)
    for _ in range(blockers):
        n_p, _, y_p, dcol_p = sample_rounds(rng, trials, coding, eps)
        offset = offset + n_p
        dec_p = _decode_offset(n_p, y_p, dcol_p, t_s, t_p) - offset * t_s
        w = np.maximum(w, dec_p)
        z = np.maximum(z, y_p)

    cols = np.arange(k)
    arrival = (cols[None, :] + 1) * t_s + t_p
    own = np.where(cols[None, :] < s_t[:, None], arrival, dec_tag[:, None])
    delivered = np.maximum(own, w[:, None])
    delays = delivered - cols[None, :] * t_s

    out = {}
    for key in np.unique(y_t * 1000 + z):
        yy, zz = int(key) // 1000, int(key) % 1000
        mask = (y_t == yy) & (z == zz)
        cell = delays[mask]
        out[(yy, zz)] = (cell.size, float(cell.mean()), float((cell ** 2).mean()))
    return out
