"""Command-line front end: analysis, sweeps, k*, trade-off curves, simulation.

Every command is a pure function of its flags (plus --seed where present):
identical invocations produce byte-identical output. Columns carry unit
suffixes (mean_s, rate_bps) and floats are printed with full round-trip
precision so tables can be parsed back losslessly.

Exit codes: 0 success, 2 flag or usage error (the parser's own, or an InputError
from an input check), 3 numerical failure (NumericalError, a float out of range,
or any other ValueError, such as numpy's; also sweeps where any point failed,
whose partial table is still emitted).

One argparse parser, built at import, has a subparser per command. Each shared
flag is declared once, in an option group (`_CHANNEL`, `_CODING`, `_GRID`,
`_RUN`, `_OUTPUT`: lists that `+` joins). A command is a `_command(name, groups
+ own options)` over a body that returns the table to print. Inside the
exit-code guard, `_run_body` turns the shared flags into the channel `ch`, the
--redundancy/--margin choice, `coding` (with --k) or `R`, then `ks` from
--k-grid, checked in that order; the body makes its own checks last. `analyze`
prints optimizer.evaluate_point's record, as sweep does at every grid point.
With --diagnostics, `_command` runs all of that inside diagnostics.recording,
which writes the run's report once the body returns or raises; the report
file is opened first, so an unwritable one exits 2 before any work.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import warnings

from . import __version__, diagnostics as _diagnostics
from .delay import expected_delay  # noqa: F401  (perfbench/tracing.py wraps this name)
from .efficiency import efficiency
from .kernel import NumericalError, build_kernel
from .optimizer import (default_k_range, evaluate_point, k_star, smooth_local_maxima, sweep,
                        tradeoff_curve)
from .params import InputError, derive_channel, derive_coding, redundancy_from_margin
from .simulator import SimConfig, replicate, run_arq, run_coded, trace_csv


class OutputTable:
    """Rectangular table of scalars, rendered as CSV or JSON rows."""

    def __init__(self, columns, rows):
        self.columns = list(columns)
        self.rows = [list(r) for r in rows]
        if any(len(r) != len(self.columns) for r in self.rows):
            raise ValueError("ragged table row")

    @staticmethod
    def _csv_cell(v):
        # plain repr even for numpy float subclasses; csv writes None as ""
        return repr(float(v)) if isinstance(v, float) else v

    def to_csv(self):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [self.columns, *([self._csv_cell(v) for v in row] for row in self.rows)])
        return buf.getvalue()

    def to_json(self):
        def jv(v):
            return (float(v) if math.isfinite(v) else None) if isinstance(v, float) else v

        rows = [{c: jv(v) for c, v in zip(self.columns, row)} for row in self.rows]
        return json.dumps(rows, indent=2) + "\n"


def _option(*names, **kw):
    """A group of one flag: the arguments of its `add_argument` call."""
    return [(names, kw)]


def _file_path(text):  # a directory or an unwritable file is refused before the command runs
    if os.path.isdir(text) or (os.path.exists(text) and not os.access(text, os.R_OK | os.W_OK)):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory or cannot be written")
    return text


_CHANNEL = (
    _option("--epsilon", type=float, required=True, help="packet erasure probability in [0, 1)")
    + _option("--rate-bps", type=float, required=True, help="link rate in bits per second")
    + _option("--packet-bits", type=float, required=True, help="packet size in bits")
    + _option("--tp-s", type=float, help="one-way propagation delay in seconds")
    + _option("--rtt-s", type=float, help="round-trip time in seconds (alternative to --tp-s)"))
_REDUNDANCY = (_option("--redundancy", type=float, help="redundancy factor R >= 1")
               + _option("--margin", type=float, help="rate margin x; R = (1+x)/(1-epsilon)"))
_K_GRID = _option("--k-grid", help="comma-separated generation sizes "
                                   "(default: log grid 2..min(bdp-1,1024))")
_CODING = _option("--k", type=int, required=True, help="generation size in packets") + _REDUNDANCY
_GRID = _REDUNDANCY + _K_GRID
_RUN = (_option("--mode", choices=["idealized", "relaxed"], default="idealized",
                help="coded simulation mode")
        + _option("--n-packets", type=int, default=100_000, help="source packets to simulate")
        + _option("--seed", type=int, required=True, help="RNG seed"))
_OUTPUT = (_option("--format", dest="fmt", choices=["csv", "json"], default="csv",
                   help="output format")
           + _option("--out", type=_file_path, help="write output to this file instead of stdout")
           + _option("--diagnostics", type=_file_path, metavar="FILE|-",
                     help="write a JSON report of the run (time per stage, trust fields per "
                          "grid point, simulator margins) to FILE, or to stderr for -"))
_HELP = _option("--help", action="help", help="show this message and exit")


def _open_output(path, option):
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {option} {path}: {exc.strerror}")


def _emit(table, fmt, out):
    text = table.to_csv() if fmt == "csv" else table.to_json()
    if out:
        with _open_output(out, "--out") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_list(text, option, convert, kind):
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"{option} must be comma-separated {kind}, got {text!r}")
    if not values:
        raise InputError(f"{option} is empty")
    return values


def _parse_k_grid(text, channel):
    if text is None:
        return default_k_range(channel)
    ks = _parse_list(text, "--k-grid", int, "integers")
    if min(ks) < 1:
        raise InputError(f"--k-grid sizes must be >= 1, got {min(ks)}")
    return ks


parser = argparse.ArgumentParser(
    prog="codedelay", add_help=False, allow_abbrev=False,
    description="Closed-form delay and efficiency of coded transport, with simulators.")
parser.add_argument("--version", action="version", version=f"codedelay {__version__}",
                    help="show the version and exit")
parser.add_argument("--help", action="help", help="show this message and exit")
commands = parser.add_subparsers(metavar="COMMAND", required=True)
_TAKES_VALUE = set()  # option strings of the commands' flags that take a value


@contextlib.contextmanager
def _report(command, path):
    """Record command's diagnostics while the block runs, then write them to path (stderr
    for -)."""
    sink = sys.stderr if path == "-" else _open_output(path, "--diagnostics")
    try:
        with _diagnostics.recording(command, sink, sys.modules[__name__]):
            yield
    finally:
        if sink is not sys.stderr:
            sink.close()


def _run_body(body, epsilon, rate_bps, packet_bits, tp_s, rtt_s, flags):
    """The table of body, from the shared flags turned into its arguments."""
    ch = derive_channel(epsilon, rate_bps, packet_bits, t_p=tp_s, rtt=rtt_s)
    if "redundancy" in flags:
        r, x = flags.pop("redundancy"), flags.pop("margin")
        if (r is None) == (x is None):
            raise InputError("provide exactly one of --redundancy / --margin")
        if "k" in flags:
            # margin goes through as given, so derive_coding's messages can name it
            flags["coding"] = derive_coding(ch, flags.pop("k"), R=r, margin=x)
        else:
            flags["R"] = r if x is None else redundancy_from_margin(x, epsilon)
    if "k_grid" in flags:
        flags["ks"] = _parse_k_grid(flags.pop("k_grid"), ch)
    return body(ch, **flags)


def _command(name, options):
    """Register body as command `name` with the channel flags, options and the output flags
    (--format, --out, --diagnostics). A table with any filled `error` cell (a failed sweep
    point) exits 3 once it is written."""
    def register(body):
        sub = commands.add_parser(name, help=body.__doc__, description=body.__doc__,
                                  add_help=False, allow_abbrev=False)
        for names, kw in _CHANNEL + options + _OUTPUT + _HELP:
            if sub.add_argument(*names, **kw).nargs is None:  # takes one value
                _TAKES_VALUE.update(names)

        def run(epsilon, rate_bps, packet_bits, tp_s, rtt_s, fmt, out, diagnostics, **flags):
            try:
                recording = contextlib.nullcontext() if diagnostics is None else _report(
                    name, diagnostics)
                with recording:
                    table = _run_body(body, epsilon, rate_bps, packet_bits, tp_s, rtt_s, flags)
                _emit(table, fmt, out)
            except InputError as exc:
                sub.error(str(exc))
            except (NumericalError, ValueError) as exc:  # a ValueError that no input check raised
                print(f"numerical failure: {exc}", file=sys.stderr)
                sys.exit(3)
            except ArithmeticError as exc:  # a float out of range, e.g. t_s**2 at t_s = 1e160
                print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
                sys.exit(3)
            if "error" in table.columns:
                col = table.columns.index("error")
                if any(row[col] is not None for row in table.rows):
                    sys.exit(3)

        sub.set_defaults(run=run)
        return body

    return register


@_command("analyze", _CODING)
def analyze(ch, coding):
    """Mean/std in-order delay and efficiency at one operating point."""
    kern = build_kernel(ch, coding)
    rec = evaluate_point(ch, coding.R, coding, kern, efficiency(kern))
    return OutputTable(["mean_s", "std_s", "eta", "b", "truncated_mass"],
                       [[rec.mean, rec.std, rec.eta, rec.b, rec.truncated_mass]])


def _sweep_table(records):
    return OutputTable(
        ["k", "R", "epsilon", "bdp", "b", "mean_s", "std_s", "smoothed_mean_s", "eta", "error"],
        [[rec.k, rec.R, rec.epsilon, rec.bdp, rec.b, rec.mean, rec.std,
          rec.smoothed_mean, rec.eta, rec.error] for rec in records])


@_command("sweep", _GRID)
def cmd_sweep(ch, R, ks):
    """Delay/efficiency as a function of generation size k."""
    return _sweep_table(smooth_local_maxima(sweep(ch, R, ks)))


@_command("kstar", _GRID)
def cmd_kstar(ch, R, ks):
    """Generation size minimizing the smoothed mean delay."""
    return _sweep_table([k_star(ch, R, ks)[1]])


@_command("tradeoff", _option("--margins", required=True,
                              help="comma-separated rate margins, e.g. 0.02,0.05,0.1,0.2")
          + _K_GRID + _option("--arq-packets", type=int, default=200_000,
                              help="packets for the simulated ARQ reference point")
          + _option("--seed", type=int, default=0, help="seed for the ARQ reference simulation"))
def cmd_tradeoff(ch, margins, ks, arq_packets, seed):
    """Delay vs efficiency frontier over margins, with the ARQ corner."""
    xs = _parse_list(margins, "--margins", float, "numbers")
    points = tradeoff_curve(ch, xs, k_range=ks, arq_packets=arq_packets, seed=seed)
    return OutputTable(
        ["kind", "margin", "R", "k", "eta", "mean_s", "std_s"],
        [[p.kind, p.margin, p.R, p.k, p.eta, p.mean, p.std] for p in points])


@_command("simulate", _CODING + _RUN
          + _option("--reps", type=int, default=1, help="independent replications to pool")
          + _option("--real-codec", action="store_true",
                    help="decode with the true GF(256) codec instead of rank counting")
          + _option("--hol-cap", type=int,
                    help="override the head-of-line window (default b-1); idealized mode only")
          + _option("--trace", type=_file_path,
                    help="write a per-packet CSV trace to this file (reps must be 1)"))
def cmd_simulate(ch, coding, mode, n_packets, seed, reps, real_codec, hol_cap, trace):
    """Monte-Carlo run of the coded transport."""
    if trace is not None and reps != 1:
        raise InputError("--trace requires --reps 1")
    cfg = SimConfig(channel=ch, coding=coding, mode=mode, n_packets=n_packets,
                    seed=seed, use_real_codec=real_codec, hol_cap=hol_cap,
                    collect_records=trace is not None)
    stats = replicate(cfg, reps)
    if trace is not None:
        with _open_output(trace, "--trace") as fh:
            trace_csv(stats, cfg, fh)
    return OutputTable(
        ["mode", "k", "R", "n_packets", "seed", "reps", "mean_s", "std_s",
         "efficiency", "se_mean_s"],
        [[mode, coding.k, coding.R, n_packets, seed, reps, stats.mean_delay, stats.std_delay,
          stats.mean_efficiency, stats.se_mean]])


@_command("compare-arq", _CODING + _RUN)
def cmd_compare_arq(ch, coding, mode, n_packets, seed):
    """Coded transport and idealized SR-ARQ on one configuration."""
    cfg = SimConfig(channel=ch, coding=coding, mode=mode, n_packets=n_packets, seed=seed)
    coded = run_coded(cfg)
    arq = run_arq(cfg)
    return OutputTable(
        ["scheme", "mean_s", "std_s", "efficiency"],
        [["coded", coded.mean_delay, coded.std_delay, coded.mean_efficiency],
         ["arq", arq.mean_delay, arq.std_delay, arq.mean_efficiency]])


def _one_line(message, category, filename, lineno, line=None):
    """A warning as `Category: message`, without the path and source line of its call."""
    return f"{category.__name__}: {message}\n"


def main(argv=None, standalone_mode=True):
    """Run the command in argv (default: sys.argv[1:]); a failure raises SystemExit(2 or 3).

    While the command runs, a warning that is shown prints as one line (_one_line); one
    that a caller records is recorded as before. `main.main` is main, as perfbench calls
    it; standalone_mode is unused."""
    # `--flag value` as `--flag=value`, or argparse would read a value such as -0e0 as a flag
    tokens, joined = iter(sys.argv[1:] if argv is None else argv), []
    for token in tokens:
        value = next(tokens, None) if token in _TAKES_VALUE else None
        joined.append(token if value is None else f"{token}={value}")
    if "--help" in joined[1:] and joined[0] in commands.choices:  # before any flag is checked
        joined = [joined[0], "--help"]
    flags = vars(parser.parse_args(joined))
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line
    try:
        flags.pop("run")(**flags)
    finally:
        warnings.formatwarning = formatwarning


main.main = main

if __name__ == "__main__":
    main()
