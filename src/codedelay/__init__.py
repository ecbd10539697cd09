"""Closed-form in-order delay and throughput efficiency of systematic coded
transport with per-generation feedback, with Monte-Carlo cross-validation.

The analytic side rests on an absorbing Markov chain over the degrees of
freedom a receiver still needs, closed-form moments for the prefix and
straggler statistics, and a four-case decomposition of the conditional delay.
The simulation side implements the same system as a time-slotted Monte-Carlo
in two fidelities plus an idealized SR-ARQ baseline, sharing one channel
parameterization.
"""

from .codec import (CodedPacket, DecoderState, encode, pack_packet,
                    systematic_packet, unpack_packet)
from .delay import DelayMoments, expected_delay
from .efficiency import EfficiencyResult, efficiency
from .gf256 import gf_dot_rows, gf_inv, gf_mul
from .kernel import (MAX_K, NumericalError, TransitionKernel, build_kernel)
from .moments import PrefixMoments, StragglerMoments, prefix_moments, straggler_moments
from .optimizer import (SweepRecord, TradeoffPoint, default_k_range, k_star,
                        smooth_local_maxima, sweep, tradeoff_curve)
from .params import (MAX_BDP, MAX_ROUND_PACKETS, AssumptionWarning, ChannelParams,
                     CodingParams, InputError, derive_channel, derive_coding,
                     redundancy_from_margin, split_count)
from .simulator import (MAX_PACKETS, PacketTrace, SimConfig, SimStats, replicate,
                        run_arq, run_coded, trace_csv)

__version__ = "0.1.0"

__all__ = [
    "AssumptionWarning", "ChannelParams", "CodingParams", "CodedPacket",
    "DecoderState", "DelayMoments", "EfficiencyResult", "InputError", "MAX_BDP", "MAX_K",
    "MAX_PACKETS", "MAX_ROUND_PACKETS",
    "NumericalError", "PacketTrace", "PrefixMoments", "SimConfig", "SimStats",
    "StragglerMoments", "SweepRecord", "TradeoffPoint", "TransitionKernel",
    "build_kernel", "default_k_range", "derive_channel",
    "derive_coding", "efficiency", "encode", "expected_delay",
    "gf_dot_rows", "gf_inv", "gf_mul", "k_star", "pack_packet", "prefix_moments",
    "redundancy_from_margin",
    "replicate", "run_arq", "run_coded", "smooth_local_maxima", "split_count",
    "straggler_moments", "sweep", "systematic_packet",
    "trace_csv", "tradeoff_curve", "unpack_packet",
]
