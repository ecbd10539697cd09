"""CLI surface: flag validation, output formats, determinism, exit codes."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import codedelay
from codedelay import cli
from codedelay.cli import main
from codedelay.delay import expected_delay
from codedelay.efficiency import efficiency
from codedelay.kernel import _transition_rows, build_kernel, check_generation_size
from codedelay.optimizer import default_k_range, sweep
from codedelay.params import (AssumptionWarning, InputError, derive_channel, derive_coding,
                              redundancy_from_margin)
from codedelay.simulator import MAX_PACKETS, SimConfig, replicate

from .helpers import invoke_cli

CH = ["--epsilon", "0.1", "--rate-bps", "1e7", "--packet-bits", "1e4",
      "--rtt-s", "0.1"]


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


class TestAnalyze:
    def test_matches_library_values(self):
        res = invoke_cli(["analyze", *CH, "--k", "16", "--margin", "0.1"])
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        ch = derive_channel(0.1, 1e7, 1e4, rtt=0.1)
        cd = derive_coding(ch, 16, margin=0.1)
        kern = build_kernel(ch, cd)
        dm = expected_delay(ch, cd, kern)
        assert float(row["mean_s"]) == dm.mean
        assert float(row["std_s"]) == math.sqrt(dm.variance)
        assert float(row["eta"]) == efficiency(kern).eta
        assert int(row["b"]) == cd.b

    def test_largest_bdp_is_fast(self):
        # BDP 10^7 at k = 1, R = 1: b = 10^7 generations in flight
        start = time.perf_counter()
        res = invoke_cli(["analyze", "--epsilon", "0.3", "--rate-bps", "1e7",
                          "--packet-bits", "1e4", "--rtt-s", "10000", "--k", "1",
                          "--redundancy", "1.0"])
        elapsed = time.perf_counter() - start
        assert res.exit_code == 0, res.output
        row = parse_csv(res.output)[0]
        assert int(row["b"]) == 10_000_000
        assert math.isfinite(float(row["mean_s"])) and math.isfinite(float(row["std_s"]))
        assert elapsed < 2.0

    def test_margin_equals_equivalent_redundancy(self):
        a = invoke_cli(["analyze", *CH, "--k", "16", "--margin", "0.1"])
        b = invoke_cli(["analyze", *CH, "--k", "16",
                        "--redundancy", repr(1.1 / 0.9)])
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_json_format(self):
        res = invoke_cli(["analyze", *CH, "--k", "16", "--margin", "0.1",
                          "--format", "json"])
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert len(rows) == 1
        assert rows[0]["b"] == 6
        assert rows[0]["mean_s"] > 0

    def test_out_file_matches_stdout(self, tmp_path):
        target = tmp_path / "table.csv"
        direct = invoke_cli(["analyze", *CH, "--k", "8", "--margin", "0.1"])
        filed = invoke_cli(["analyze", *CH, "--k", "8", "--margin", "0.1",
                            "--out", str(target)])
        assert direct.exit_code == filed.exit_code == 0
        assert filed.output == ""
        assert target.read_text() == direct.output

    def test_in_process_calls_release_their_stdout(self):
        # a caller that runs the CLI in-process and redirects stdout per call
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main.main(["analyze", *CH, "--k", "8", "--margin", "0.1"], standalone_mode=False)
        assert out.getvalue().startswith("mean_s,")
        ref = weakref.ref(out)
        del out
        gc.collect()
        assert ref() is None

    def test_in_process_failures_release_their_stderr(self):
        # the same caller, redirecting stderr per call, on a run that exits 3
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main.main(["analyze", "--epsilon", "0.9999", "--rate-bps", "1e7",
                       "--packet-bits", "1e4", "--rtt-s", "0.1", "--k", "64",
                       "--redundancy", "1.0"], standalone_mode=False)
        assert exc.value.code == 3
        assert err.getvalue().startswith("numerical failure:")
        ref = weakref.ref(err)
        del err
        gc.collect()
        assert ref() is None

    def test_numerical_failure_exits_3(self):
        res = invoke_cli(["analyze", "--epsilon", "0.9999",
                          "--rate-bps", "1e7", "--packet-bits", "1e4",
                          "--rtt-s", "0.1", "--k", "64",
                          "--redundancy", "1.0"])
        assert res.exit_code == 3

    def test_value_error_off_the_input_checks_exits_3(self, monkeypatch):
        # a numerical path's ValueError (numpy raises these) is not a usage error
        def fail(*args, **kwargs):
            raise ValueError("array must not contain infs or NaNs")

        monkeypatch.setattr(codedelay.optimizer, "expected_delay", fail)
        res = invoke_cli(["analyze", *CH, "--k", "16", "--margin", "0.1"])
        assert res.exit_code == 3, res.output
        assert "numerical failure: array must not contain infs or NaNs" in res.output
        assert "Traceback" not in res.output
        assert "Usage:" not in res.output

    @given(eps=st.floats(0.0, 0.4), bdp=st.integers(3, 2000), k=st.integers(1, 200),
           margin=st.floats(0.0, 0.3))
    @example(eps=0.1, bdp=100, k=16, margin=0.1)
    @example(eps=0.3, bdp=10, k=64, margin=0.05)      # R*k >= BDP
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_row_is_the_one_point_sweep(self, eps, bdp, k, margin):
        # the same record, bit for bit, as sweep evaluates at a grid point
        rtt = bdp * 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssumptionWarning)
            res = invoke_cli(["analyze", "--epsilon", repr(eps), "--rate-bps", "1e7",
                              "--packet-bits", "1e4", "--rtt-s", repr(rtt), "--k", str(k),
                              "--margin", repr(margin)])
            (rec,) = sweep(derive_channel(eps, 1e7, 1e4, rtt=rtt),
                           redundancy_from_margin(margin, eps), [k])
        assert res.exit_code == 0, res.output
        row = parse_csv(res.stdout)[0]
        assert rec.error is None
        assert [float(row["mean_s"]), float(row["std_s"]), float(row["eta"]), int(row["b"]),
                float(row["truncated_mass"])] == [rec.mean, rec.std, rec.eta, rec.b,
                                                  rec.truncated_mass]

    def test_failure_is_the_one_point_sweeps_error(self):
        # absorption does not converge at eps 0.9999, k 64, R 1
        res = invoke_cli(["analyze", "--epsilon", "0.9999", "--rate-bps", "1e7",
                          "--packet-bits", "1e4", "--rtt-s", "0.1", "--k", "64",
                          "--redundancy", "1.0"])
        (rec,) = sweep(derive_channel(0.9999, 1e7, 1e4, rtt=0.1), 1.0, [64])
        assert rec.error
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == f"numerical failure: {rec.error}\n"

    def test_float_overflow_exits_3(self):
        # a 1.3e154 s slot is accepted, but its square overflows in the delay model
        res = invoke_cli(["analyze", "--epsilon", "0", "--rate-bps", "1e7",
                          "--packet-bits", "1.3407807929942597e+161", "--tp-s", "0.05",
                          "--k", "1", "--margin", "0"])
        assert res.exit_code == 3, res.output
        assert "numerical failure: OverflowError" in res.output


class TestFlagValidation:
    def test_redundancy_and_margin_are_exclusive(self):
        both = invoke_cli(["analyze", *CH, "--k", "16",
                           "--margin", "0.1", "--redundancy", "1.2"])
        neither = invoke_cli(["analyze", *CH, "--k", "16"])
        assert both.exit_code == 2
        assert neither.exit_code == 2

    def test_tp_and_rtt_are_exclusive(self):
        args = ["analyze", "--epsilon", "0.1", "--rate-bps", "1e7",
                "--packet-bits", "1e4", "--k", "16", "--margin", "0.1"]
        both = invoke_cli(args + ["--tp-s", "0.0495", "--rtt-s", "0.1"])
        neither = invoke_cli(args)
        assert both.exit_code == 2
        assert neither.exit_code == 2

    def test_simulate_requires_seed(self):
        res = invoke_cli(["simulate", *CH, "--k", "8", "--margin", "0.1",
                          "--n-packets", "2000"])
        assert res.exit_code == 2

    def test_missing_channel_flag(self):
        res = invoke_cli(["analyze", "--k", "16", "--margin", "0.1"])
        assert res.exit_code == 2

    SIM = ["simulate", *CH, "--k", "8", "--margin", "0.1", "--n-packets", "2000",
           "--seed", "7"]

    @pytest.mark.parametrize("argv, names", [
        pytest.param(["analyze", "--epsilon", "0.1", "--rate-bps", "inf", "--packet-bits",
                      "1e4", "--rtt-s", "0.1", "--k", "16", "--margin", "0.1"],
                     "rate must be finite", id="rate-inf"),
        pytest.param(["analyze", "--epsilon", "0.1", "--rate-bps", "1e7", "--packet-bits",
                      "1e4", "--rtt-s", "inf", "--k", "16", "--margin", "0.1"],
                     "rtt must be finite", id="rtt-inf"),
        pytest.param(["analyze", "--epsilon", "0.1", "--rate-bps", "1e300", "--packet-bits",
                      "1e-300", "--rtt-s", "0.1", "--k", "16", "--margin", "0.1"],
                     "bandwidth-delay product", id="bdp-overflow"),
        pytest.param(["analyze", "--epsilon", "nan", "--rate-bps", "1e7", "--packet-bits",
                      "1e4", "--rtt-s", "0.1", "--k", "16", "--margin", "0.1"],
                     "epsilon must be finite", id="epsilon-nan"),
        pytest.param(["analyze", *CH, "--k", "16", "--margin", "nan"],
                     "margin must be finite", id="margin-nan"),
        pytest.param(["analyze", *CH, "--k", "16", "--redundancy", "inf"],
                     "R must be finite", id="redundancy-inf"),
        pytest.param(["sweep", *CH, "--margin", "nan", "--k-grid", "4,8"],
                     "margin must be finite", id="sweep-margin-nan"),
        pytest.param(SIM + ["--hol-cap", "-3"], "hol_cap", id="hol-cap-negative"),
        pytest.param(SIM + ["--mode", "relaxed", "--hol-cap", "3"], "idealized mode only",
                     id="hol-cap-relaxed"),
        pytest.param(SIM[:-1] + ["-1"], "seed must be nonnegative", id="seed-negative"),
        pytest.param(SIM + ["--reps", "0"], "reps must be >= 1", id="reps-0"),
        pytest.param(SIM + ["--reps", "-1"], "reps must be >= 1", id="reps-negative"),
        pytest.param(["kstar", *CH, "--margin", "0.1", "--k-grid", "0,5"],
                     "--k-grid", id="kstar-k-0"),
        pytest.param(["sweep", *CH, "--margin", "0.1", "--k-grid", "-4,8"],
                     "--k-grid sizes must be >= 1", id="sweep-k-negative"),
        pytest.param(["simulate", *CH, "--k", "16", "--margin", "1e6", "--n-packets", "2000",
                      "--seed", "7"], "from margin 1000000.0", id="simulate-margin-huge"),
        pytest.param(["analyze", *CH, "--k", "16", "--margin", "1e300"],
                     "from margin 1e+300", id="margin-huge"),
        pytest.param(["analyze", "--epsilon", "0.1", "--rate-bps", "1e7", "--packet-bits",
                      "1e4", "--rtt-s", "1e300", "--k", "16", "--margin", "0.1"],
                     "rtt 1e+300", id="rtt-huge"),
        pytest.param(["analyze", *CH, "--k", "16", "--margin", "0.1",
                      "--out", "missing/x.csv"], "--out missing/x.csv", id="out-unwritable"),
        pytest.param(SIM + ["--trace", "missing/x.csv"], "--trace missing/x.csv",
                     id="trace-unwritable"),
        pytest.param(["kstar", *CH, "--margin", "0.1", "--k-grid", "4,8",
                      "--diagnostics", "missing/x.json"], "--diagnostics missing/x.json",
                     id="diagnostics-unwritable"),
        pytest.param(["analyze", *CH, "--k", str(10**400), "--margin", "0.1"],
                     "R*k must be at most", id="k-beyond-float-range"),
        pytest.param(["simulate", *CH, "--k", str(10**400), "--margin", "0.1",
                      "--n-packets", "2000", "--seed", "7"],
                     "R*k must be at most", id="simulate-k-beyond-float-range"),
        pytest.param(SIM[:13] + ["--n-packets", str(MAX_PACKETS + 1), "--seed", "7"],
                     f"n_packets must be at most {MAX_PACKETS}", id="n-packets-above-bound"),
        pytest.param(SIM[:13] + ["--n-packets", str(10**400), "--seed", "7"],
                     f"n_packets must be at most {MAX_PACKETS}", id="n-packets-beyond-float-range"),
        pytest.param(SIM + ["--reps", str(MAX_PACKETS // 2000 + 1)],
                     f"reps * n_packets must be at most {MAX_PACKETS}", id="reps-above-bound"),
        pytest.param(SIM + ["--reps", str(10**400)],
                     f"reps * n_packets must be at most {MAX_PACKETS}",
                     id="reps-beyond-float-range"),
    ])
    def test_bad_input_exits_2_without_traceback(self, argv, names, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)  # where "missing/" does not exist
        t0 = time.perf_counter()
        res = invoke_cli(argv)
        assert time.perf_counter() - t0 < 2.0
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert names in res.output

    def test_hol_cap_beyond_the_run_is_the_full_window(self):
        # 2000 packets at k = 8 are 250 generations, so at most 249 earlier ones
        t0 = time.perf_counter()
        huge = invoke_cli(self.SIM + ["--hol-cap", str(10**12)])
        assert time.perf_counter() - t0 < 2.0
        full = invoke_cli(self.SIM + ["--hol-cap", "249"])
        assert huge.exit_code == full.exit_code == 0, huge.output
        assert huge.stdout_bytes == full.stdout_bytes


class TestParser:
    """The parser's own rules: values, flag prefixes, commands, --help, --version.

    Each command's --help is run by test_flag_names_order_and_defaults, and a
    --k-grid value of -4,8 by TestFlagValidation's sweep-k-negative case.
    """

    def test_value_that_looks_like_a_flag_is_a_value(self):
        res = invoke_cli(["analyze", "--epsilon", "-0e0", "--rate-bps", "1e7", "--packet-bits",
                          "1e4", "--rtt-s", "0.1", "--k", "16", "--margin", "0.1"])
        assert res.exit_code == 0, res.output

    def test_flag_prefix_is_rejected(self):
        res = invoke_cli(["analyze", "--eps", "0.1", "--rate-bps", "1e7", "--packet-bits", "1e4",
                          "--rtt-s", "0.1", "--k", "16", "--margin", "0.1"])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("argv", [["bogus", *CH], []], ids=["unknown", "none"])
    def test_unknown_or_missing_command_exits_2(self, argv):
        res = invoke_cli(argv)
        assert res.exit_code == 2
        assert "Traceback" not in res.output

    def test_command_help_comes_before_flag_checks(self):
        res = invoke_cli(["analyze", "--epsilon", "x", "--k", "-1", "--help"])
        assert res.exit_code == 0, res.output
        assert res.stdout.startswith("usage: codedelay analyze")

    def test_help_lists_every_command(self):
        res = invoke_cli(["--help"])
        assert res.exit_code == 0, res.output
        assert all(name in res.stdout for name in cli.commands.choices)

    def test_version_from_a_source_checkout(self):
        res = invoke_cli(["--version"])
        assert res.exit_code == 0, res.output
        assert res.stdout == f"codedelay {codedelay.__version__}\n"


_CHANNEL_FLAGS = [("epsilon", "required"), ("rate_bps", "required"),
                  ("packet_bits", "required"), ("tp_s", None), ("rtt_s", None)]
_CODING_FLAGS = [("k", "required"), ("redundancy", None), ("margin", None)]
_OUTPUT_FLAGS = [("fmt", "csv"), ("out", None), ("diagnostics", None)]
_RUN_FLAGS = [("mode", "idealized"), ("n_packets", 100_000), ("seed", "required")]


@pytest.mark.parametrize("command, flags", [
    ("analyze", _CODING_FLAGS),
    ("sweep", [("redundancy", None), ("margin", None), ("k_grid", None)]),
    ("kstar", [("redundancy", None), ("margin", None), ("k_grid", None)]),
    ("tradeoff", [("margins", "required"), ("k_grid", None), ("arq_packets", 200_000),
                  ("seed", 0)]),
    ("simulate", _CODING_FLAGS + _RUN_FLAGS + [("reps", 1), ("real_codec", False),
                                               ("hol_cap", None), ("trace", None)]),
    ("compare-arq", _CODING_FLAGS + _RUN_FLAGS),
])
def test_flag_names_order_and_defaults(command, flags):
    """Each command declares the channel flags, its own flags, then the output flags."""
    actions = [a for a in cli.commands.choices[command]._actions if a.dest != "help"]
    declared = [(a.dest, "required" if a.required else a.default) for a in actions]
    assert declared == _CHANNEL_FLAGS + flags + _OUTPUT_FLAGS
    res = invoke_cli([command, "--help"])
    assert res.exit_code == 0, res.output
    assert res.output.index("--epsilon") < res.output.index("--format")
    res = invoke_cli([command, "--help"])
    assert res.exit_code == 0, res.output
    assert res.output.index("--epsilon") < res.output.index("--format")


def _std_channel(rtt=0.1):
    return derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=rtt)


@pytest.mark.parametrize("check", [
    lambda: derive_channel(1.5, rate=1e7, packet_size=1e4, rtt=0.1),
    lambda: derive_coding(_std_channel(), 0, margin=0.1),
    lambda: redundancy_from_margin(-1.0, 0.1),
    lambda: _transition_rows(0.5, 3, 0.9),
    lambda: check_generation_size(5000),
    lambda: sweep(_std_channel(), 1.2, []),
    lambda: default_k_range(_std_channel(rtt=1.5e-3)),
    lambda: SimConfig(channel=_std_channel(), coding=derive_coding(_std_channel(), 8, R=1.2),
                      mode="exact"),
    lambda: replicate(SimConfig(channel=_std_channel(),
                                coding=derive_coding(_std_channel(), 8, R=1.2)), 0),
    lambda: derive_coding(_std_channel(), 10**400, R=1.0),
    lambda: SimConfig(channel=_std_channel(), coding=derive_coding(_std_channel(), 8, R=1.2),
                      n_packets=MAX_PACKETS + 1),
    lambda: replicate(SimConfig(channel=_std_channel(),
                                coding=derive_coding(_std_channel(), 8, R=1.2),
                                n_packets=MAX_PACKETS), 2),
], ids=["channel", "coding", "margin", "count", "kernel-size", "sweep-grid", "k-range",
        "sim-config", "reps", "k-beyond-float-range", "n-packets", "reps-times-n-packets"])
def test_input_checks_raise_input_error(check):
    """The library's input checks raise InputError, the one ValueError the CLI exits 2 on."""
    with pytest.raises(InputError):
        check()


class TestSweepCommand:
    def test_round_trips_through_csv(self):
        res = invoke_cli(["sweep", *CH, "--margin", "0.1",
                          "--k-grid", "4,8,16,32"])
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert [int(r["k"]) for r in rows] == [4, 8, 16, 32]
        for r in rows:
            assert r["error"] == ""
            assert float(r["smoothed_mean_s"]) >= float(r["mean_s"]) - 1e-15
            assert 0.0 < float(r["eta"]) <= 1.0

    def test_failed_point_exits_3_with_table(self):
        res = invoke_cli(["sweep", *CH, "--margin", "0.1",
                          "--k-grid", "8,5000"])
        assert res.exit_code == 3
        rows = parse_csv(res.output)
        assert len(rows) == 2
        assert rows[0]["error"] == ""
        assert rows[1]["error"] != ""

    def test_bad_grid_exits_2(self):
        res = invoke_cli(["sweep", *CH, "--margin", "0.1",
                          "--k-grid", "4,eight"])
        assert res.exit_code == 2


class TestKstarCommand:
    def test_lossless_prefers_smallest_k(self):
        res = invoke_cli(["kstar", "--epsilon", "0", "--rate-bps", "1e7",
                          "--packet-bits", "1e4", "--rtt-s", "0.1",
                          "--redundancy", "1.25", "--k-grid", "4,5,8"])
        assert res.exit_code == 0
        row = parse_csv(res.output)[0]
        assert int(row["k"]) == 4

    def test_no_valid_point_exits_3_like_sweep(self):
        # sweep reports a k above MAX_K as a failed point and exits 3; so does kstar
        res = invoke_cli(["kstar", *CH, "--margin", "0.1", "--k-grid", "5000"])
        assert res.exit_code == 3, res.output
        assert "numerical failure: every sweep point failed" in res.output


    # the design workload's link: 100 Mb/s, 12 000-bit packets
    DESIGN_LINK = ["--rate-bps", "1e8", "--packet-bits", "12000"]

    @pytest.mark.parametrize("flags, stdout, warning", [
        # BDP 10^4, eps 0.1, margin 0.02: k* is the default grid's top, 1 024
        (["--epsilon", "0.1", "--rtt-s", "1.2", "--margin", "0.02"],
         "1024,1.1333333333333333,0.1,10000,9,0.8286596261403774,0.45378376261293213,"
         "0.9167308778046699,0.9802913063661854,\n",
         "k* = 1024 is the top of the k grid, and sizes up to 4096 are admissible (R*k < BDP "
         "(10000), k <= 4096); the optimum may lie above it: pass a --k-grid that reaches "
         "past 1024"),
        # BDP 494, eps 0.26, margin 0.026: k* 428 has R*k = 593 >= BDP
        (["--epsilon", "0.26", "--rtt-s", "0.05928", "--margin", "0.026"],
         "428,1.3864864864864865,0.26,494,1,0.0687163596649681,0.03965419448664776,"
         "0.0687163596649681,0.9726018459290305,\n",
         "k* = 428 has R*k = 593.416 >= BDP (494); the delay model is loose at k*"),
    ])
    def test_k_star_at_an_edge_warns_and_keeps_its_stdout(self, flags, stdout, warning):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = invoke_cli(["kstar", *flags, *self.DESIGN_LINK])
        assert res.exit_code == 0
        # the bytes printed before k_star warned
        assert res.stdout == "k,R,epsilon,bdp,b,mean_s,std_s,smoothed_mean_s,eta,error\n" + stdout
        texts = [str(w.message) for w in caught if w.category is AssumptionWarning]
        assert texts.count(warning) == 1
        assert len([t for t in texts if t.startswith("k* = ")]) == 1

    def test_dropped_sizes_warn_and_the_edge_reads_the_largest_kept_size(self):
        # BDP 100, R = 1.1/0.9: R*k < BDP up to k = 81, and 5000 exceeds MAX_K
        flags = ["--epsilon", "0.1", *self.DESIGN_LINK, "--rtt-s", "0.012", "--margin", "0.1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = invoke_cli(["kstar", *flags, "--k-grid", "2,8,64,5000"])
        assert res.exit_code == 0, res.output
        assert res.stdout == invoke_cli(["kstar", *flags, "--k-grid", "2,8,64"]).stdout
        assert parse_csv(res.stdout)[0]["k"] == "64"
        assert [str(w.message) for w in caught if w.category is AssumptionWarning] == [
            "k* search dropped 1 of 4 grid sizes (k = 5000): k = 5000 exceeds the supported "
            "maximum 4096",
            "k* = 64 is the top of the k grid, and sizes up to 81 are admissible (R*k < BDP "
            "(100), k <= 4096); the optimum may lie above it: pass a --k-grid that reaches "
            "past 64"]


class TestTradeoffCommand:
    def test_json_renders_nan_as_null(self):
        res = invoke_cli(["tradeoff", *CH, "--margins", "0.05,0.1",
                          "--k-grid", "8,16,32", "--arq-packets", "5000",
                          "--seed", "3", "--format", "json"])
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert [r["kind"] for r in rows] == ["coded", "coded", "arq"]
        assert rows[-1]["margin"] is None  # the ARQ corner has no margin
        assert rows[-1]["eta"] == 1.0

    def test_bad_margins_exit_2(self):
        res = invoke_cli(["tradeoff", *CH, "--margins", "a,b"])
        assert res.exit_code == 2


class TestSimulateCommand:
    SIM = ["simulate", *CH, "--k", "8", "--margin", "0.1",
           "--n-packets", "2000", "--seed", "7"]

    def test_byte_determinism(self):
        a = invoke_cli(self.SIM)
        b = invoke_cli(self.SIM)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_row_contents(self):
        res = invoke_cli(self.SIM)
        row = parse_csv(res.output)[0]
        assert row["mode"] == "idealized"
        assert int(row["n_packets"]) == 2000
        assert int(row["reps"]) == 1
        assert row["se_mean_s"] == ""  # single run has no across-rep error
        assert float(row["mean_s"]) > 0

    def test_reps_report_standard_error(self):
        res = invoke_cli(self.SIM + ["--reps", "4"])
        row = parse_csv(res.output)[0]
        assert int(row["reps"]) == 4
        assert float(row["se_mean_s"]) > 0

    def test_trace_file(self, tmp_path):
        target = tmp_path / "trace.csv"
        res = invoke_cli(self.SIM + ["--trace", str(target)])
        assert res.exit_code == 0
        lines = target.read_text().splitlines()
        header = json.loads(lines[0][2:])
        assert header["seed"] == 7
        assert lines[1].startswith("packet_id,")
        assert len(lines) == 2 + 2000

    def test_trace_needs_single_replication(self, tmp_path):
        res = invoke_cli(self.SIM + ["--reps", "2", "--trace",
                                     str(tmp_path / "t.csv")])
        assert res.exit_code == 2

    def test_relaxed_mode_runs(self):
        res = invoke_cli(self.SIM + ["--mode", "relaxed"])
        assert res.exit_code == 0
        assert parse_csv(res.output)[0]["mode"] == "relaxed"


class TestCompareArqCommand:
    def test_coded_beats_arq_on_mean_delay(self):
        res = invoke_cli(["compare-arq", *CH, "--k", "16",
                          "--margin", "0.1", "--n-packets", "20000",
                          "--seed", "5"])
        assert res.exit_code == 0
        rows = {r["scheme"]: r for r in parse_csv(res.output)}
        assert float(rows["coded"]["mean_s"]) < float(rows["arq"]["mean_s"])
        assert float(rows["arq"]["efficiency"]) == 1.0


def _fresh_python(*args):
    """A fresh interpreter run on this source tree, with no PYTHONWARNINGS from outside."""
    src = str(Path(codedelay.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def _imported_by_cli(module):
    """Whether a fresh interpreter's `import codedelay.cli` brings in `module`."""
    proc = _fresh_python("-c", f"import codedelay.cli, sys; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_scipy_out():
    assert not _imported_by_cli("scipy")


def test_cli_import_leaves_statistics_out():
    # only pooled replications take a stdev, and statistics brings fractions and decimal along
    assert not _imported_by_cli("statistics")


@pytest.mark.parametrize("module", ["click", "importlib.metadata"])
def test_cli_import_leaves_click_and_package_metadata_out(module):
    assert not _imported_by_cli(module)


class TestWarnings:
    # BDP 10: R*k >= BDP at k 64
    LOOSE = ["--epsilon", "0.1", "--rate-bps", "1e7", "--packet-bits", "1e4", "--rtt-s", "0.01",
             "--margin", "0.1"]

    def test_a_warning_prints_as_one_line(self):
        proc = _fresh_python("-m", "codedelay.cli", "sweep", *self.LOOSE, "--k-grid", "2,8,64")
        assert proc.returncode == 0
        assert proc.stderr == ("AssumptionWarning: R*k >= BDP (10) at 1 of 3 grid points "
                               "(k >= 64); the delay model is loose there\n")
        # the bytes printed before the format changed
        assert proc.stdout == (
            "k,R,epsilon,bdp,b,mean_s,std_s,smoothed_mean_s,eta,error\n"
            "2,1.2222222222222223,0.1,10,5,0.008407314081954657,0.00431783023444616,"
            "0.008407314081954657,0.8517883755588673,\n"
            "8,1.2222222222222223,0.1,10,2,0.007980869871031996,0.004024020156809396,"
            "0.008407314081954657,0.8934574809316456,\n"
            "64,1.2222222222222223,0.1,10,1,0.030437251067745922,0.018751658196145417,"
            "0.030437251067745922,0.9088729654228974,\n")

    @pytest.mark.parametrize("argv, code", [
        (["sweep", "--k-grid", "2,8,64"], 0),
        (["analyze", "--k", "64"], 0),
        (["sweep", "--k-grid", "64,5000"], 3),
    ])
    def test_recorded_warnings_keep_their_source_and_the_format_is_restored(self, argv, code):
        before = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = invoke_cli([*argv, *self.LOOSE])
        assert res.exit_code == code
        assert warnings.formatwarning is before
        assert [w.category for w in caught] == [AssumptionWarning]
        assert caught[0].filename.endswith("cli.py") and caught[0].lineno > 0
        assert "AssumptionWarning" not in res.stderr

    def test_importing_the_cli_leaves_the_format_alone(self):
        proc = _fresh_python("-c", "import warnings; f = warnings.formatwarning; "
                                   "import codedelay.cli; print(warnings.formatwarning is f)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"


def _either(draw, typical, wild):
    """Mostly one of a few working values; one draw in six from `wild`."""
    return draw(wild) if draw(st.integers(0, 5)) == 5 else draw(st.sampled_from(typical))


def _pick(draw, first, second):
    """argv for two alternative (flag, value thunk) pairs: one, the other, both or neither."""
    chosen = draw(st.sampled_from([(0,)] * 4 + [(1,)] * 2 + [(0, 1), ()]))
    pairs = [(first, second)[i] for i in chosen]
    return [part for name, value in pairs for part in (name, str(value()))]


@st.composite
def _cli_argv(draw):
    number = st.floats()  # NaN, +-inf, zero, negative and subnormal included
    # integers beyond float range; each integer flag must reject them, or
    # (--seed, --hol-cap) take them, before any oversized work starts
    beyond = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
    count = st.integers(-(2**70), 2**70) | beyond
    if draw(st.integers(0, 5)) == 0:
        # a channel that loses nearly every packet: the absorption pass gives
        # up within a fraction of a second, a numerical failure (exit 3)
        return ["analyze", "--epsilon", str(draw(st.sampled_from([0.999, 0.9999]))),
                "--rate-bps", "1e7", "--packet-bits", "1e4", "--rtt-s", "0.1",
                "--k", str(draw(st.sampled_from([16, 64]))), "--redundancy", "1.0"]
    command = draw(st.sampled_from(["analyze", "simulate", "compare-arq"]))
    argv = [command,
            "--epsilon", str(_either(draw, [0.0, 0.1, 0.3], number)),
            "--rate-bps", str(_either(draw, [1e7], number)),
            "--packet-bits", str(_either(draw, [1e4], number)),
            "--k", str(_either(draw, [1, 2, 8, 16, 64], st.integers(-3, 64) | beyond))]
    argv += _pick(draw, ("--rtt-s", lambda: _either(draw, [0.1, 0.02], number)),
                  ("--tp-s", lambda: _either(draw, [0.05], number)))
    argv += _pick(draw, ("--margin", lambda: _either(draw, [0.0, 0.1], number)),
                  ("--redundancy", lambda: _either(draw, [1.0, 1.25, 2.0], number)))
    if command != "analyze":
        # compare-arq also runs ARQ, which needs more than 10 BDPs of packets
        packets = [2000, 20_000] if command == "simulate" else [2000, 5000]
        argv += ["--n-packets", str(_either(draw, packets,
                                            st.integers(-10, packets[-1]) | beyond)),
                 "--seed", str(_either(draw, [0, 7], count))]
        argv += draw(st.sampled_from([[], ["--mode", "idealized"], ["--mode", "relaxed"]]))
    if command == "simulate":
        argv += draw(st.sampled_from([[], ["--real-codec"]]))
        if draw(st.booleans()):
            argv += ["--reps", str(_either(draw, [1, 2], st.integers(-2, 3) | beyond))]
        if draw(st.booleans()):
            argv += ["--hol-cap", str(_either(draw, [0, 10**12], count))]
    return argv


# derandomized: the suite runs the same examples every time, because
# simulate with --hol-cap 10^12 at k = 1 (a window over the whole run) still
# takes seconds per call
# a --diagnostics file in a directory that does not exist
_UNWRITABLE = os.path.join(os.path.dirname(os.devnull), "codedelay-no-such-dir", "report.json")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=_cli_argv(), report=st.sampled_from([None, None, "-", os.devnull, _UNWRITABLE]))
def test_any_flags_exit_0_2_or_3_without_traceback(argv, report):
    """Random analyze, simulate and compare-arq flags, valid or not, with or without
    --diagnostics, end in exit 0, 2 or 3."""
    if report is not None:
        argv = argv + ["--diagnostics", report]
    res = invoke_cli(argv)
    assert res.exit_code in (0, 2, 3), res.output
    assert "Traceback" not in res.output
    if report == _UNWRITABLE:
        assert res.exit_code == 2
    if report == "-" and res.exit_code == 0:
        assert json.loads(res.stderr.splitlines()[-1])["command"] == argv[0]


@st.composite
def _grid_argv(draw):
    """sweep, kstar or tradeoff on a drawn channel with a grid of at most four sizes."""
    command = draw(st.sampled_from(["sweep", "kstar", "tradeoff"]))
    # RTT 2 ms to 10 s at t_s = 1 ms (BDP 2 to 10 000); tradeoff's 2 000 ARQ
    # packets need a BDP under 200
    top = -0.71 if command == "tradeoff" else 1.0
    grid = draw(st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True))
    argv = [command, "--epsilon", repr(draw(st.sampled_from([0.0]) | st.floats(0.0, 0.9))),
            "--rate-bps", "1e7", "--packet-bits", "1e4",
            "--rtt-s", repr(10.0 ** draw(st.floats(-2.7, top))),
            "--k-grid", ",".join(map(str, sorted(grid)))]
    margin = st.floats(0.0, 0.5).map(repr)
    if command == "tradeoff":
        margins = draw(st.lists(margin, min_size=1, max_size=3))
        return argv + ["--margins", ",".join(margins), "--arq-packets", "2000",
                       "--seed", str(draw(st.integers(0, 9)))]
    if draw(st.booleans()):
        return argv + ["--margin", draw(margin)]
    return argv + ["--redundancy", repr(draw(st.floats(1.0, 2.0)))]


@pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_grid_argv())
@example(argv=["sweep", "--epsilon", "0.999", "--rate-bps", "1e7", "--packet-bits", "1e4",
               "--rtt-s", "0.1", "--k-grid", "1,64", "--redundancy", "1.0"])  # every point fails
def test_grid_commands_print_in_range(argv):
    """Every row that sweep, kstar or tradeoff prints lies in README's output ranges.

    A sweep or kstar row's error is filled exactly when its mean, std and eta
    are NaN, and then its smoothed mean is empty, its b 0 and the exit 3.
    Otherwise eta is in (0, 1], std >= 0 and the smoothed mean >= the mean.
    tradeoff's coded rows have eta in (0, 1] and std >= 0, and its ARQ row
    has eta 1.
    """
    res = invoke_cli(argv)
    assert res.exit_code in (0, 2, 3), res.output
    if res.exit_code == 2:
        return
    rows = parse_csv(res.stdout)
    assert rows, res.output
    for row in rows:
        values = {key: float(row[key]) for key in ("eta", "mean_s", "std_s")}
        if row.get("error"):
            assert all(math.isnan(v) for v in values.values()), row
            assert not row["smoothed_mean_s"] and row["b"] == "0", row
            continue
        assert all(math.isfinite(v) for v in values.values()), row
        assert 0.0 < values["eta"] <= 1.0, row
        assert values["std_s"] >= 0.0, row
        if argv[0] != "tradeoff":
            assert float(row["smoothed_mean_s"]) >= values["mean_s"], row
        elif row["kind"] == "arq":
            assert values["eta"] == 1.0, row
    errors = any(row.get("error") for row in rows)
    assert res.exit_code == (3 if errors else 0), res.output


@st.composite
def _simulation_argv(draw):
    """simulate or compare-arq on a drawn channel, with 2 000 packets."""
    command = draw(st.sampled_from(["simulate", "compare-arq"]))
    # RTT 2 to 100 ms at t_s = 1 ms: compare-arq's ARQ run needs 10 BDPs of packets
    argv = [command, "--epsilon", repr(draw(st.sampled_from([0.0]) | st.floats(0.0, 0.5))),
            "--rate-bps", "1e7", "--packet-bits", "1e4",
            "--rtt-s", repr(10.0 ** draw(st.floats(-2.7, -1.0))),
            "--k", str(draw(st.sampled_from([1, 2, 8, 16, 32]))),
            "--n-packets", "2000", "--seed", str(draw(st.integers(0, 99)))]
    argv += draw(st.sampled_from([["--margin", "0.0"], ["--margin", "0.1"],
                                  ["--redundancy", "1.0"], ["--redundancy", "1.5"]]))
    argv += draw(st.sampled_from([[], ["--mode", "relaxed"]]))
    if command == "simulate":
        argv += draw(st.sampled_from([[], ["--real-codec"]]))
        argv += ["--reps", str(draw(st.integers(1, 3)))]
    return argv


@pytest.mark.filterwarnings("ignore::codedelay.params.AssumptionWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_simulation_argv())
def test_simulation_commands_print_in_range(argv):
    """Every row that simulate or compare-arq prints lies in README's output ranges.

    Each mean is at least t_s + t_p, one slot and one hop, and each std is
    >= 0. The coded efficiency is in (0, 1] and ARQ's is exactly 1.
    simulate's se_mean_s is empty exactly at --reps 1.
    """
    res = invoke_cli(argv)
    assert res.exit_code == 0, res.output
    flags = {name: value for name, value in zip(argv[1:], argv[2:]) if not value.startswith("--")}
    ch = derive_channel(float(flags["--epsilon"]), float(flags["--rate-bps"]),
                        float(flags["--packet-bits"]), rtt=float(flags["--rtt-s"]))
    rows = parse_csv(res.stdout)
    assert len(rows) == (1 if argv[0] == "simulate" else 2), res.output
    for row in rows:
        assert float(row["mean_s"]) >= ch.t_s + ch.t_p, row
        assert float(row["std_s"]) >= 0.0, row
        if row.get("scheme") == "arq":
            assert float(row["efficiency"]) == 1.0, row
        else:
            assert 0.0 < float(row["efficiency"]) <= 1.0, row
    if argv[0] == "simulate":
        (row,) = rows
        single = int(flags["--reps"]) == 1
        assert (row["se_mean_s"] == "") == single, row
        if not single:
            assert float(row["se_mean_s"]) >= 0.0, row
