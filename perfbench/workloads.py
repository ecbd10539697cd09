"""The four seeded workloads: operation generators, execution and output checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has returned. Operations go in-process through
the `codedelay` CLI (`main(..., standalone_mode=False)` with stdout captured);
the trace-codec payload round trip uses the codec library, because no command
exposes it.

Operation inputs are points in the unit cube, mapped onto the workload's
parameter ranges. `point` walks a shifted Kronecker (R_d) low-discrepancy
sequence from a seeded start, so the ~1 500 consecutive operations of a run
cover the ranges evenly. The other workloads run a few seconds per
operation, so a run holds only 8 to 30 of them, and the median of that few
independent draws moves 15-25 % from seed to seed. They run whole passes
over fixed cells of a Latin hypercube instead (each parameter's strata hit
once per pass), in seeded order, each operation a small seeded jitter of
its cell: every run has the same cost mix.

`design` and `point` draw from a finite pool whose outputs were recorded on
the seed tree (see record_reference.py); `simulate` and `trace-codec` jitter
from an unbounded sequence and are checked against the analytic model and
the codec itself instead.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
from pathlib import Path

import click
import numpy as np

import codedelay.cli as cli
import codedelay.codec as codec
from codedelay.delay import expected_delay
from codedelay.kernel import build_kernel
from codedelay.optimizer import default_k_range
from codedelay.params import derive_channel, derive_coding, redundancy_from_margin

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# 100 Mb/s link, 1500-byte packets: t_s = 0.12 ms, so BDP 100..10 000 packets
# is an RTT of 12 ms..1.2 s.
RATE_BPS = 1e8
PACKET_BITS = 12000.0

SIM_PACKETS = 20_000      # source packets per run (ARQ warm-up needs > 10 * BDP)
REP_PACKETS = 10_000      # per relaxed replication (warm-up needs > 10 b generations at k = 4)
SIM_REPS = 16             # replications behind se_mean_s
# Coded means may sit this many standard errors below the model. With 16
# replications the t statistic has 15 degrees of freedom: an exact model
# falls below -5 in under 1e-4 of checks (below -4 in 4e-3 with 4 replications).
SE_SLACK = 5.0
CODEC_GENERATIONS = 4     # generations per codec round trip
PAYLOAD_BYTES = 1250

MEAN_REL_TOL = 1e-4       # mean/std: a weight-threshold cell may flip on pmf roundoff
ETA_REL_TOL = 1e-8        # eta sums every pmf term; no threshold involved
TRUNC_ABS_TOL = 1e-5      # truncated mass moves by one cell weight (< ~1e-6) at most


def _kronecker_alpha(d):
    """Generator of the R_d sequence: powers of 1/phi_d, phi_d**(d+1) = phi_d + 1."""
    g = 2.0
    for _ in range(80):
        g = (1.0 + g) ** (1.0 / (d + 1))
    return [g ** -(i + 1) for i in range(d)]


def lds_point(j, d):
    """Point j of the d-dimensional R_d sequence, in [0, 1)^d."""
    return [(0.5 + j * a) % 1.0 for a in _kronecker_alpha(d)]


def latin_cells(rows):
    """Cell centres in unit coordinates from rows of stratum indices (n strata per axis)."""
    n = len(rows)
    return [tuple((i + 0.5) / n for i in row) for row in rows]


# Eight cells over four axes: axis d takes stratum (m_d * i + d) mod 8 with an
# odd m_d, so each axis hits every stratum once.
LATIN_8x4 = latin_cells([[(m * i + d) % 8 for d, m in enumerate((1, 3, 5, 7))]
                         for i in range(8)])
JITTER = 1 / 64           # half-width of a cell's jitter in unit coordinates


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _bdp(u):
    return int(round(_log_uniform(u, 100.0, 10_000.0)))


def _small_bdp(u):
    return int(round(_log_uniform(u, 100.0, 1_000.0)))


def _epsilon(u):
    return round(0.01 + 0.29 * u, 4)


def _margin(u):
    return round(0.02 + 0.28 * u, 4)


def _k_below_bdp(u, k_lo, bdp, epsilon, margin):
    """Generation size log-uniform in [k_lo, k_hi] with k_hi = min(64, largest k with R*k < BDP)."""
    r = (1.0 + margin) / (1.0 - epsilon)
    k_hi = min(64, math.ceil(bdp / r) - 1)
    return int(round(_log_uniform(u, k_lo, k_hi)))


def channel_flags(bdp, epsilon):
    rtt = bdp * PACKET_BITS / RATE_BPS
    return ["--epsilon", repr(epsilon), "--rate-bps", repr(RATE_BPS),
            "--packet-bits", repr(PACKET_BITS), "--rtt-s", repr(rtt)]


def channel_of(op):
    return derive_channel(op["epsilon"], RATE_BPS, PACKET_BITS,
                          rtt=op["bdp"] * PACKET_BITS / RATE_BPS)


class OpFailure(Exception):
    """An operation exited non-zero or its output failed a check."""


def call_cli(argv):
    """Run one CLI command in-process; returns its stdout, raises OpFailure on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(argv, standalone_mode=False)
        except click.exceptions.Exit as exc:
            code = exc.exit_code
        except click.ClickException as exc:
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code
    if code:
        raise OpFailure(f"{argv[0]} exited {code}: {err.getvalue().strip()[-200:]}")
    return out.getvalue()


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _close(got, want, rel, name, floor=0.0):
    if not math.isfinite(got) or abs(got - want) > rel * abs(want) + floor:
        raise OpFailure(f"{name} {got!r} differs from reference {want!r}")


class Workload:
    name = ""
    dims = 0
    cells = None         # Latin-hypercube cell centres; None walks the R_d sequence
    variants = None      # recorded jittered variants per cell; None if unbounded
    pool = None          # recorded reference operations, None if unbounded
    work_unit = ""       # what work_per_s counts

    def __init__(self):
        self._reference = None

    @property
    def pass_size(self):
        """A run stops only after a whole pass of this many operations."""
        return len(self.cells) if self.cells else 1

    def unit_point(self, j):
        """Point j of the R_d sequence, or with cells: j = variant * cells + cell, jittered."""
        if not self.cells:
            return lds_point(j, self.dims)
        variant, cell = divmod(j, len(self.cells))
        jitter = lds_point(variant, self.dims)
        return [c + (2.0 * v - 1.0) * JITTER for c, v in zip(self.cells[cell], jitter)]

    def op(self, j):
        if self.pool:
            j %= self.pool
        op = self.draw(j, self.unit_point(j))
        op["index"] = j
        return op

    def ops(self, seed):
        """The run's operations, in order (an endless generator)."""
        rng = random.Random(f"{self.name}:{seed}")
        if not self.cells:
            j = rng.randrange(self.pool or 1 << 20)
            while True:
                yield self.op(j)
                j += 1
        order = list(range(len(self.cells)))
        while True:
            rng.shuffle(order)
            for cell in order:
                yield self.op(rng.randrange(self.variants or 1 << 20) * len(self.cells) + cell)

    def ranges(self):
        raise NotImplementedError

    def draw(self, j, u):
        raise NotImplementedError

    def execute(self, op, scratch):
        """The timed part of an operation; returns what check() needs."""
        raise NotImplementedError

    def check(self, op, result):
        """Raise OpFailure if the operation's outputs are wrong. Untimed."""
        raise NotImplementedError

    def work(self, op):
        """Units of work_per_s the operation performs."""
        raise NotImplementedError

    def reference_row(self, op):
        """The recorded seed-tree outputs of a pool operation (loaded on first use)."""
        if self._reference is None:
            with open(REFERENCE_DIR / f"{self.name}.csv", newline="") as fh:
                self._reference = list(csv.DictReader(fh))
            if len(self._reference) != self.pool:
                raise RuntimeError(f"{self.name} reference has {len(self._reference)} rows, "
                                   f"expected {self.pool}")
        row = self._reference[op["index"]]
        for key in ("bdp", "epsilon", "margin", "k"):
            if f"in_{key}" in row and str(op[key]) != row[f"in_{key}"]:
                raise RuntimeError(f"reference row {op['index']} was recorded for other inputs")
        return row


class Design(Workload):
    """`kstar` on the default k grid (up to 40 points, k <= 1024)."""

    name = "design"
    dims = 3
    cells = latin_cells([[0, 1, 2], [1, 3, 0], [2, 0, 3], [3, 2, 1]])
    variants = 32
    pool = len(cells) * variants
    work_unit = "points"

    def ranges(self):
        return {"bdp": "log-uniform [100, 10000]", "epsilon": "[0.01, 0.3]",
                "margin": "[0.02, 0.3]", "k_grid": "default (log grid 2..min(bdp-1, 1024))",
                "cells": self.cells, "jitter": JITTER}

    def draw(self, j, u):
        bdp, eps, margin = _bdp(u[0]), _epsilon(u[1]), _margin(u[2])
        return {"bdp": bdp, "epsilon": eps, "margin": margin,
                "argv": [["kstar", *channel_flags(bdp, eps), "--margin", repr(margin)]]}

    def execute(self, op, scratch):
        return [call_cli(argv) for argv in op["argv"]]

    def check(self, op, result):
        (row,) = _rows(result[0])
        ref = self.reference_row(op)
        if row["error"]:
            raise OpFailure(f"k* row carries an error: {row['error']}")
        for key in ("k", "b"):
            if int(row[key]) != int(ref[key]):
                raise OpFailure(f"{key} {row[key]} differs from reference {ref[key]}")
        for key in ("mean_s", "std_s", "smoothed_mean_s"):
            _close(float(row[key]), float(ref[key]), MEAN_REL_TOL, key)
        _close(float(row["eta"]), float(ref["eta"]), ETA_REL_TOL, "eta")

    def work(self, op):
        return len(default_k_range(channel_of(op)))


class Point(Workload):
    """`analyze` at one k."""

    name = "point"
    dims = 4
    pool = 4096
    work_unit = "points"

    def ranges(self):
        return {"bdp": "log-uniform [100, 10000]", "epsilon": "[0.01, 0.3]",
                "margin": "[0.02, 0.3]", "k": "log-uniform [2, 64]"}

    def draw(self, j, u):
        bdp, eps, margin = _bdp(u[0]), _epsilon(u[1]), _margin(u[2])
        k = int(round(_log_uniform(u[3], 2.0, 64.0)))
        return {"bdp": bdp, "epsilon": eps, "margin": margin, "k": k,
                "argv": [["analyze", *channel_flags(bdp, eps), "--k", str(k),
                          "--margin", repr(margin)]]}

    def execute(self, op, scratch):
        return [call_cli(argv) for argv in op["argv"]]

    def check(self, op, result):
        (row,) = _rows(result[0])
        ref = self.reference_row(op)
        if int(row["b"]) != int(ref["b"]):
            raise OpFailure(f"b {row['b']} differs from reference {ref['b']}")
        for key in ("mean_s", "std_s"):
            _close(float(row[key]), float(ref[key]), MEAN_REL_TOL, key)
        _close(float(row["eta"]), float(ref["eta"]), ETA_REL_TOL, "eta")
        _close(float(row["truncated_mass"]), float(ref["truncated_mass"]), 0.0,
               "truncated_mass", TRUNC_ABS_TOL)

    def work(self, op):
        return 1


def _analytic_mean(op):
    ch = channel_of(op)
    cd = derive_coding(ch, op["k"], R=redundancy_from_margin(op["margin"], op["epsilon"]))
    return ch, expected_delay(ch, cd, build_kernel(ch, cd)).mean


class Simulate(Workload):
    """Validate one point: relaxed replications, then coded (idealized) vs ARQ."""

    name = "simulate"
    dims = 4
    cells = LATIN_8x4
    work_unit = "packets"

    def ranges(self):
        return {"bdp": "log-uniform [100, 1000]", "epsilon": "[0.01, 0.3]",
                "margin": "[0.02, 0.3]", "k": "log-uniform [4, 64], R*k < bdp",
                "relaxed": f"{SIM_REPS} x {REP_PACKETS} packets",
                "compare_arq_packets": SIM_PACKETS, "cells": self.cells, "jitter": JITTER}

    def draw(self, j, u):
        bdp, eps, margin = _small_bdp(u[0]), _epsilon(u[1]), _margin(u[2])
        k = _k_below_bdp(u[3], 4.0, bdp, eps, margin)
        point = [*channel_flags(bdp, eps), "--k", str(k), "--margin", repr(margin),
                 "--seed", str(j)]
        return {"bdp": bdp, "epsilon": eps, "margin": margin, "k": k,
                "argv": [["simulate", *point, "--n-packets", str(REP_PACKETS),
                          "--mode", "relaxed", "--reps", str(SIM_REPS)],
                         ["compare-arq", *point, "--n-packets", str(SIM_PACKETS)]]}

    def execute(self, op, scratch):
        return [call_cli(argv) for argv in op["argv"]]

    def check(self, op, result):
        (relaxed,) = _rows(result[0])
        coded, arq = _rows(result[1])
        ch, model = _analytic_mean(op)
        floor = ch.t_s + ch.t_p
        se = float(relaxed["se_mean_s"])
        # compare-arq's idealized mean is one run of SIM_PACKETS, not a pooled mean
        se_single = se * math.sqrt(SIM_REPS * REP_PACKETS / SIM_PACKETS)
        for name, row in (("relaxed", relaxed), ("idealized", coded), ("arq", arq)):
            mean = float(row["mean_s"])
            if not mean >= floor:
                raise OpFailure(f"{name} mean {mean!r} is below t_s + t_p = {floor!r}")
        for name, row, err in (("relaxed", relaxed, se), ("idealized", coded, se_single)):
            mean = float(row["mean_s"])
            if not mean >= model - SE_SLACK * err:
                raise OpFailure(f"{name} mean {mean!r} is more than {SE_SLACK} standard "
                                f"errors ({err!r}) below the model {model!r}")
        if float(arq["efficiency"]) != 1.0:
            raise OpFailure(f"ARQ efficiency {arq['efficiency']} is not 1")

    def work(self, op):
        return SIM_REPS * REP_PACKETS + 2 * SIM_PACKETS


class TraceCodec(Workload):
    """Per-packet traces of both modes with the real codec, then a payload round trip."""

    name = "trace-codec"
    dims = 4
    cells = LATIN_8x4
    work_unit = "packets"

    def ranges(self):
        return {"bdp": "log-uniform [100, 1000]", "epsilon": "[0.01, 0.3]",
                "margin": "[0.02, 0.3]", "k": "log-uniform [8, 64], R*k < bdp",
                "n_packets": SIM_PACKETS, "codec_generations": CODEC_GENERATIONS,
                "payload_bytes": PAYLOAD_BYTES, "cells": self.cells, "jitter": JITTER}

    def draw(self, j, u):
        bdp, eps, margin = _small_bdp(u[0]), _epsilon(u[1]), _margin(u[2])
        k = _k_below_bdp(u[3], 8.0, bdp, eps, margin)
        point = [*channel_flags(bdp, eps), "--k", str(k), "--margin", repr(margin),
                 "--n-packets", str(SIM_PACKETS), "--seed", str(j), "--real-codec"]
        return {"bdp": bdp, "epsilon": eps, "margin": margin, "k": k, "seed": j,
                "argv": [["simulate", *point, "--mode", mode, "--trace", f"{mode}.csv"]
                         for mode in ("idealized", "relaxed")]}

    def _codec_inputs(self, op):
        rng = np.random.default_rng([op["seed"], 1])
        k = op["k"]
        payloads = rng.integers(0, 256, size=(CODEC_GENERATIONS, k, PAYLOAD_BYTES),
                                dtype=np.uint8)
        # 3k + 64 transmissions per generation cannot run short of k arrivals
        # at a loss rate of 0.3 or less (the shortfall odds are below 1e-20).
        arrivals = rng.random((CODEC_GENERATIONS, 3 * k + 64)) >= op["epsilon"]
        return payloads, arrivals

    def execute(self, op, scratch):
        outs = []
        for argv in op["argv"]:
            argv = [*argv[:-1], os.path.join(scratch, argv[-1])]
            outs.append(call_cli(argv))
        payloads, arrivals = self._codec_inputs(op)
        return outs, codec_roundtrip(op["k"], payloads, arrivals, op["seed"]), scratch

    def check(self, op, result):
        outs, decoded, scratch = result
        ch = channel_of(op)
        floor = ch.t_s + ch.t_p
        for out, argv in zip(outs, op["argv"]):
            (row,) = _rows(out)
            if not float(row["mean_s"]) >= floor:
                raise OpFailure(f"mean {row['mean_s']} is below t_s + t_p")
            check_trace(op, argv[argv.index("--mode") + 1], floor, scratch)
        payloads, _ = self._codec_inputs(op)
        for g, got in enumerate(decoded):
            if not np.array_equal(got, payloads[g]):
                raise OpFailure(f"generation {g} did not decode byte-exactly")

    def work(self, op):
        return 2 * SIM_PACKETS + CODEC_GENERATIONS * op["k"]


def codec_roundtrip(k, payloads, arrivals, seed):
    """Encode, pack, (erase), unpack, ingest and decode every generation."""
    rng = np.random.default_rng([seed, 2])
    decoded = []
    for g in range(payloads.shape[0]):
        dec = codec.DecoderState(g, k, PAYLOAD_BYTES)
        sent = 0
        while dec.rank < k:
            if sent < k:
                pkt = codec.systematic_packet(g, payloads[g], sent)
            else:
                pkt = codec.encode(g, payloads[g], sent - k, rng)
            blob = codec.pack_packet(pkt, k)
            if arrivals[g, sent]:
                dec.ingest(codec.unpack_packet(blob, k))
            sent += 1
        decoded.append(dec.decode())
    return decoded


def check_trace(op, mode, floor, scratch):
    path = os.path.join(scratch, f"{mode}.csv")
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise OpFailure(f"{mode} trace has no config line")
        cfg = json.loads(first[2:])
        want = {"k": op["k"], "mode": mode, "n_packets": SIM_PACKETS, "seed": op["seed"],
                "epsilon": op["epsilon"]}
        if any(cfg.get(key) != val for key, val in want.items()):
            raise OpFailure(f"{mode} trace config {cfg} does not match the run")
        if fh.readline() != "packet_id,generation_id,first_tx_slot,delivered_slot,delay_s\n":
            raise OpFailure(f"{mode} trace header is wrong")
        k = op["k"]
        n = 0
        for line in fh:
            pid, gid, _, _, delay = line.split(",")
            if int(pid) != n or int(gid) != n // k:
                raise OpFailure(f"{mode} trace row {n} has packet {pid} of generation {gid}")
            if not float(delay) >= floor:
                raise OpFailure(f"{mode} trace packet {pid} has delay {delay.strip()} < t_s + t_p")
            n += 1
    rows = -(-SIM_PACKETS // k) * k
    if n != rows:
        raise OpFailure(f"{mode} trace has {n} rows, expected one per source packet ({rows})")


WORKLOADS = {w.name: w for w in (Design, Point, Simulate, TraceCodec)}
