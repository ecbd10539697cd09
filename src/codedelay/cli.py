"""Command-line front end: analysis, sweeps, k*, trade-off curves, simulation.

Every command is a pure function of its flags (plus --seed where present):
identical invocations produce byte-identical output. Columns carry unit
suffixes (mean_s, rate_bps) and floats are printed with full round-trip
precision so tables can be parsed back losslessly.

Exit codes: 0 success, 2 flag or usage error, 3 numerical failure (including
sweeps where any point failed; the partial table is still emitted).
"""

import csv
import functools
import io
import json
import math
import sys

import click

from .delay import expected_delay
from .efficiency import efficiency
from .kernel import NumericalError, build_kernel
from .optimizer import default_k_range, k_star, smooth_local_maxima, sweep, tradeoff_curve
from .params import derive_channel, derive_coding, redundancy_from_margin
from .simulator import SimConfig, replicate, run_arq, run_coded, trace_csv


class OutputTable:
    """Rectangular table of scalars, rendered as CSV or JSON rows."""

    def __init__(self, columns, rows):
        self.columns = list(columns)
        self.rows = [list(r) for r in rows]
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("ragged table row")

    @staticmethod
    def _csv_cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(float(v))  # plain repr even for numpy float subclasses
        return v

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.columns)
        for row in self.rows:
            w.writerow([self._csv_cell(v) for v in row])
        return buf.getvalue()

    def to_json(self):
        def jv(v):
            if isinstance(v, float):
                return None if not math.isfinite(v) else float(v)
            return v

        rows = [{c: jv(v) for c, v in zip(self.columns, row)} for row in self.rows]
        return json.dumps(rows, indent=2) + "\n"


def _channel_options(f):
    opts = [
        click.option("--epsilon", type=float, required=True,
                     help="packet erasure probability in [0, 1)"),
        click.option("--rate-bps", type=float, required=True,
                     help="link rate in bits per second"),
        click.option("--packet-bits", type=float, required=True,
                     help="packet size in bits"),
        click.option("--tp-s", type=float, default=None,
                     help="one-way propagation delay in seconds"),
        click.option("--rtt-s", type=float, default=None,
                     help="round-trip time in seconds (alternative to --tp-s)"),
    ]
    for o in reversed(opts):
        f = o(f)
    return f


def _coding_options(f):
    opts = [
        click.option("--k", type=int, required=True, help="generation size in packets"),
        click.option("--redundancy", type=float, default=None,
                     help="redundancy factor R >= 1"),
        click.option("--margin", type=float, default=None,
                     help="rate margin x; R = (1+x)/(1-epsilon)"),
    ]
    for o in reversed(opts):
        f = o(f)
    return f


def _output_options(f):
    opts = [
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                     default="csv", help="output format"),
        click.option("--out", type=click.Path(dir_okay=False, writable=True),
                     default=None, help="write output to this file instead of stdout"),
    ]
    for o in reversed(opts):
        f = o(f)
    return f


def _guard(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", file=sys.stderr)
            sys.exit(3)
        except ArithmeticError as exc:  # a float out of range, e.g. t_s**2 at t_s = 1e160
            click.echo(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
            sys.exit(3)
        except ValueError as exc:
            raise click.UsageError(str(exc))

    return wrapper


def _build_channel(epsilon, rate_bps, packet_bits, tp_s, rtt_s):
    return derive_channel(epsilon, rate_bps, packet_bits, t_p=tp_s, rtt=rtt_s)


def _require_one_redundancy(redundancy, margin):
    if (redundancy is None) == (margin is None):
        raise click.UsageError("provide exactly one of --redundancy / --margin")


def _resolve_r(redundancy, margin, epsilon):
    _require_one_redundancy(redundancy, margin)
    if redundancy is not None:
        return redundancy
    return redundancy_from_margin(margin, epsilon)


def _build_coding(channel, k, redundancy, margin):
    # margin goes through as given, so derive_coding's messages can name it
    _require_one_redundancy(redundancy, margin)
    return derive_coding(channel, k, R=redundancy, margin=margin)


def _open_output(path, option):
    try:
        return open(path, "w")
    except OSError as exc:
        raise click.UsageError(f"cannot write {option} {path}: {exc.strerror}")


def _emit(table, fmt, out):
    text = table.to_csv() if fmt == "csv" else table.to_json()
    if out:
        with _open_output(out, "--out") as fh:
            fh.write(text)
    else:
        # with no file, click caches a wrapper that keeps every stdout it
        # wrote to alive, which leaks each redirect of an in-process caller
        click.echo(text, nl=False, file=sys.stdout)


def _parse_k_grid(text, channel):
    if text is None:
        return default_k_range(channel)
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"--k-grid must be comma-separated integers, got {text!r}")
    if not ks:
        raise click.UsageError("--k-grid is empty")
    if min(ks) < 1:
        raise click.UsageError(f"--k-grid sizes must be >= 1, got {min(ks)}")
    return ks


@click.group()
@click.version_option(package_name="codedelay")
def main():
    """Closed-form delay and efficiency of coded transport, with simulators."""


@main.command()
@_channel_options
@_coding_options
@_output_options
@_guard
def analyze(epsilon, rate_bps, packet_bits, tp_s, rtt_s, k, redundancy, margin, fmt, out):
    """Mean/std in-order delay and efficiency at one operating point."""
    ch = _build_channel(epsilon, rate_bps, packet_bits, tp_s, rtt_s)
    coding = _build_coding(ch, k, redundancy, margin)
    kern = build_kernel(ch, coding)
    dm = expected_delay(ch, coding, kern)
    eff = efficiency(kern)
    table = OutputTable(
        ["mean_s", "std_s", "eta", "b", "truncated_mass"],
        [[dm.mean, math.sqrt(dm.variance), eff.eta, coding.b, dm.truncated_mass]])
    _emit(table, fmt, out)


_SWEEP_COLUMNS = ["k", "R", "epsilon", "bdp", "b", "mean_s", "std_s",
                  "smoothed_mean_s", "eta", "error"]


def _sweep_row(rec):
    return [rec.k, rec.R, rec.epsilon, rec.bdp, rec.b, rec.mean, rec.std,
            rec.smoothed_mean, rec.eta, rec.error]


@main.command("sweep")
@_channel_options
@click.option("--redundancy", type=float, default=None, help="redundancy factor R >= 1")
@click.option("--margin", type=float, default=None, help="rate margin x; R = (1+x)/(1-epsilon)")
@click.option("--k-grid", type=str, default=None,
              help="comma-separated generation sizes (default: log grid 2..min(bdp-1,1024))")
@_output_options
@_guard
def cmd_sweep(epsilon, rate_bps, packet_bits, tp_s, rtt_s, redundancy, margin, k_grid, fmt, out):
    """Delay/efficiency as a function of generation size k."""
    ch = _build_channel(epsilon, rate_bps, packet_bits, tp_s, rtt_s)
    r = _resolve_r(redundancy, margin, epsilon)
    records = smooth_local_maxima(sweep(ch, r, _parse_k_grid(k_grid, ch)))
    table = OutputTable(_SWEEP_COLUMNS, [_sweep_row(rec) for rec in records])
    _emit(table, fmt, out)
    if any(rec.error is not None for rec in records):
        sys.exit(3)


@main.command("kstar")
@_channel_options
@click.option("--redundancy", type=float, default=None, help="redundancy factor R >= 1")
@click.option("--margin", type=float, default=None, help="rate margin x; R = (1+x)/(1-epsilon)")
@click.option("--k-grid", type=str, default=None,
              help="comma-separated generation sizes (default: log grid 2..min(bdp-1,1024))")
@_output_options
@_guard
def cmd_kstar(epsilon, rate_bps, packet_bits, tp_s, rtt_s, redundancy, margin, k_grid, fmt, out):
    """Generation size minimizing the smoothed mean delay."""
    ch = _build_channel(epsilon, rate_bps, packet_bits, tp_s, rtt_s)
    r = _resolve_r(redundancy, margin, epsilon)
    _, rec = k_star(ch, r, _parse_k_grid(k_grid, ch))
    table = OutputTable(_SWEEP_COLUMNS, [_sweep_row(rec)])
    _emit(table, fmt, out)


@main.command("tradeoff")
@_channel_options
@click.option("--margins", type=str, required=True,
              help="comma-separated rate margins, e.g. 0.02,0.05,0.1,0.2")
@click.option("--k-grid", type=str, default=None,
              help="comma-separated generation sizes (default: log grid)")
@click.option("--arq-packets", type=int, default=200_000,
              help="packets for the simulated ARQ reference point")
@click.option("--seed", type=int, default=0, help="seed for the ARQ reference simulation")
@_output_options
@_guard
def cmd_tradeoff(epsilon, rate_bps, packet_bits, tp_s, rtt_s, margins, k_grid,
                 arq_packets, seed, fmt, out):
    """Delay vs efficiency frontier over margins, with the ARQ corner."""
    ch = _build_channel(epsilon, rate_bps, packet_bits, tp_s, rtt_s)
    try:
        xs = [float(part) for part in margins.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"--margins must be comma-separated numbers, got {margins!r}")
    if not xs:
        raise click.UsageError("--margins is empty")
    kg = _parse_k_grid(k_grid, ch)
    points = tradeoff_curve(ch, xs, k_range=kg, arq_packets=arq_packets, seed=seed)
    table = OutputTable(
        ["kind", "margin", "R", "k", "eta", "mean_s", "std_s"],
        [[p.kind, p.margin, p.R, p.k, p.eta, p.mean, p.std] for p in points])
    _emit(table, fmt, out)


@main.command("simulate")
@_channel_options
@_coding_options
@click.option("--mode", type=click.Choice(["idealized", "relaxed"]),
              default="idealized", help="simulation mode")
@click.option("--n-packets", type=int, default=100_000, help="source packets to simulate")
@click.option("--seed", type=int, required=True, help="RNG seed")
@click.option("--reps", type=int, default=1, help="independent replications to pool")
@click.option("--real-codec", is_flag=True, default=False,
              help="decode with the true GF(256) codec instead of rank counting")
@click.option("--hol-cap", type=int, default=None,
              help="override the idealized head-of-line window (default b-1)")
@click.option("--trace", type=click.Path(dir_okay=False, writable=True), default=None,
              help="write a per-packet CSV trace to this file (reps must be 1)")
@_output_options
@_guard
def cmd_simulate(epsilon, rate_bps, packet_bits, tp_s, rtt_s, k, redundancy, margin,
                 mode, n_packets, seed, reps, real_codec, hol_cap, trace, fmt, out):
    """Monte-Carlo run of the coded transport."""
    ch = _build_channel(epsilon, rate_bps, packet_bits, tp_s, rtt_s)
    coding = _build_coding(ch, k, redundancy, margin)
    if trace is not None and reps != 1:
        raise click.UsageError("--trace requires --reps 1")
    cfg = SimConfig(channel=ch, coding=coding, mode=mode, n_packets=n_packets,
                    seed=seed, use_real_codec=real_codec, hol_cap=hol_cap,
                    collect_records=trace is not None)
    stats = replicate(cfg, reps)
    if trace is not None:
        with _open_output(trace, "--trace") as fh:
            trace_csv(stats, cfg, fh)
    table = OutputTable(
        ["mode", "k", "R", "n_packets", "seed", "reps", "mean_s", "std_s",
         "efficiency", "se_mean_s"],
        [[mode, k, coding.R, n_packets, seed, reps, stats.mean_delay, stats.std_delay,
          stats.mean_efficiency, stats.se_mean]])
    _emit(table, fmt, out)


@main.command("compare-arq")
@_channel_options
@_coding_options
@click.option("--mode", type=click.Choice(["idealized", "relaxed"]),
              default="idealized", help="coded simulation mode")
@click.option("--n-packets", type=int, default=100_000, help="source packets to simulate")
@click.option("--seed", type=int, required=True, help="RNG seed")
@_output_options
@_guard
def cmd_compare_arq(epsilon, rate_bps, packet_bits, tp_s, rtt_s, k, redundancy, margin,
                    mode, n_packets, seed, fmt, out):
    """Coded transport and idealized SR-ARQ on one configuration."""
    ch = _build_channel(epsilon, rate_bps, packet_bits, tp_s, rtt_s)
    coding = _build_coding(ch, k, redundancy, margin)
    cfg = SimConfig(channel=ch, coding=coding, mode=mode, n_packets=n_packets, seed=seed)
    coded = run_coded(cfg)
    arq = run_arq(cfg)
    table = OutputTable(
        ["scheme", "mean_s", "std_s", "efficiency"],
        [["coded", coded.mean_delay, coded.std_delay, coded.mean_efficiency],
         ["arq", arq.mean_delay, arq.std_delay, arq.mean_efficiency]])
    _emit(table, fmt, out)


if __name__ == "__main__":
    main()
