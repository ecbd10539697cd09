"""The --diagnostics report: its keys and types, its counts, and that it leaves nothing behind."""

import json
from unittest import mock

import numpy as np
import pytest

from codedelay import cli, diagnostics, optimizer
from codedelay.kernel import build_kernel
from codedelay.optimizer import k_star
from codedelay.params import derive_channel, derive_coding, redundancy_from_margin

from .helpers import counting_delay, invoke_cli

CH = ["--epsilon", "0.1", "--rate-bps", "1e7", "--packet-bits", "1e4", "--rtt-s", "0.1"]
SIM = [*CH, "--k", "8", "--margin", "0.1", "--n-packets", "4000", "--seed", "3"]
COMMANDS = {
    "analyze": ["analyze", *CH, "--k", "16", "--margin", "0.1"],
    "sweep": ["sweep", *CH, "--redundancy", "1.25", "--k-grid", "3,6,12,5000"],
    "kstar": ["kstar", *CH, "--margin", "0.1"],
    "tradeoff": ["tradeoff", *CH, "--margins", "0.05,0.1", "--k-grid", "8,16,32",
                 "--arq-packets", "5000"],
    "simulate": ["simulate", *SIM, "--mode", "relaxed", "--reps", "3"],
    "simulate-codec": ["simulate", *SIM, "--real-codec"],
    "compare-arq": ["compare-arq", *SIM],
}

# the report's keys, each with its type; a list gives the type of its items
TIME = {"total_s": float, "stages": dict}
STAGE = {"self_s": float, "calls": int}
POINT = {"k": int, "R": float, "b": int, "within_bdp": bool, "horizon": int,
         "row_sum_drift": float, "terms_evaluated": int, "truncated_mass": float}
SEARCH = {"R": float, "grid_sizes": int, "dropped": [int], "evaluated": int, "pruned": int,
          "stage_tops": [int], "k_star": int, "at_grid_top": bool, "loose_at_k_star": bool}
CODED = {"engine": str, "replications": int, "n_delays": int, "se_mean_s": (float, type(None)),
         "generations": int, "warmup_generations": int, "cooldown_generations": int,
         "rounds_hist": dict, "max_round": int, "non_innovative": int}
ARQ = {"engine": str, "replications": int, "n_delays": int, "se_mean_s": type(None),
       "warmup_packets": int}
STAGES = {"cli", "params", "kernel.build", "delay", "efficiency", "optimizer",
          "simulator.idealized", "simulator.relaxed", "simulator.arq", "simulator.idealized_codec",
          "simulator.relaxed_codec", "simulator.trace_csv"}


def assert_shape(obj, shape):
    assert obj.keys() == shape.keys()
    for key, kind in shape.items():
        value = obj[key]
        if isinstance(kind, list):
            assert type(value) is list and all(type(v) is kind[0] for v in value), key
        elif kind is bool:
            assert type(value) is bool, key
        else:   # bool is an int, so no other field may hold one
            assert isinstance(value, kind) and type(value) is not bool, key


def report_of(argv, tmp_path):
    path = tmp_path / "report.json"
    res = invoke_cli([*argv, "--diagnostics", str(path)])
    assert res.exit_code in (0, 3), res.output
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1   # one JSON object, one line
    return json.loads(text), res


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_keys_and_types(name, tmp_path):
    report, _ = report_of(COMMANDS[name], tmp_path)
    assert report.keys() == {"command", "time", "points", "searches", "simulations"}
    assert report["command"] == COMMANDS[name][0]
    assert_shape(report["time"], TIME)
    assert report["time"]["stages"].keys() <= STAGES
    for stage in report["time"]["stages"].values():
        assert_shape(stage, STAGE)
    for point in report["points"]:
        assert_shape(point, POINT)
    for search in report["searches"]:
        assert_shape(search, SEARCH)
    for sim in report["simulations"]:
        assert_shape(sim, ARQ if sim["engine"] == "simulator.arq" else CODED)
        if sim["engine"] != "simulator.arq":
            assert all(type(v) is int for v in sim["rounds_hist"].values())
    analytic = name in ("analyze", "sweep", "kstar", "tradeoff")
    assert bool(report["points"]) == analytic
    assert bool(report["searches"]) == (name in ("kstar", "tradeoff"))
    assert bool(report["simulations"]) == (not analytic or name == "tradeoff")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_self_times_add_up_and_the_timer_is_removed(name, tmp_path):
    originals = {(owner, attr): getattr(owner, attr)
                 for owner, attr, _ in diagnostics._stage_targets(cli)}
    report, _ = report_of(COMMANDS[name], tmp_path)
    time = report["time"]
    spent = sum(stage["self_s"] for stage in time["stages"].values())
    assert spent == pytest.approx(time["total_s"], rel=1e-9, abs=1e-12)
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())
    assert diagnostics.active is None


def test_analyze_calls_each_layer_once(tmp_path):
    # what perfbench's traced point check counts, read from the report
    stages = report_of(COMMANDS["analyze"], tmp_path)[0]["time"]["stages"]
    assert {name: stages[name]["calls"] for name in stages} == {
        "cli": 1, "params": 2, "kernel.build": 1, "delay": 1, "efficiency": 1}


def test_a_failed_sweep_point_is_not_a_point(tmp_path):
    report, res = report_of(COMMANDS["sweep"], tmp_path)
    assert res.exit_code == 3
    assert [p["k"] for p in report["points"]] == [3, 6, 12]


def test_kstar_search_is_what_k_star_evaluated(tmp_path):
    ch = derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=0.1)
    seen = []
    with mock.patch.object(optimizer, "expected_delay", counting_delay(seen)):
        k, _ = k_star(ch, redundancy_from_margin(0.1, 0.1))
    report, _ = report_of(COMMANDS["kstar"], tmp_path)
    (search,) = report["searches"]
    assert search["k_star"] == k
    assert search["evaluated"] == len(seen) == len(report["points"])
    assert [p["k"] for p in report["points"]] == seen
    assert search["evaluated"] + search["pruned"] + len(search["dropped"]) == search["grid_sizes"]
    assert search["stage_tops"][-1] == seen[-1]
    assert report["time"]["stages"]["efficiency"]["calls"] == 1   # the winner's alone


@pytest.mark.parametrize("name", ["analyze", "sweep", "kstar"])
def test_row_sum_drift_is_that_of_the_points_own_kernel(name, tmp_path):
    # each point reads its drift from its stage's matrix; a kernel built alone at its k has
    # the same rows, summed over its own k + 1 columns
    ch = derive_channel(0.1, rate=1e7, packet_size=1e4, rtt=0.1)
    points = report_of(COMMANDS[name], tmp_path)[0]["points"]
    assert points
    for point in points:
        rows = build_kernel(ch, derive_coding(ch, point["k"], R=point["R"])).matrix
        want = float(np.abs(rows.sum(axis=1) - 1.0).max())
        assert point["row_sum_drift"] == pytest.approx(want, rel=0.0, abs=1e-15)


def test_kstar_reports_dropped_sizes_and_the_edge(tmp_path):
    argv = ["kstar", "--epsilon", "0.1", "--rate-bps", "1e8", "--packet-bits", "12000",
            "--rtt-s", "0.012", "--margin", "0.1", "--k-grid", "2,8,64,5000"]
    (search,) = report_of(argv, tmp_path)[0]["searches"]
    assert (search["dropped"], search["pruned"], search["k_star"]) == ([5000], 0, 64)
    assert (search["at_grid_top"], search["loose_at_k_star"]) == (True, False)


def test_the_report_is_written_when_the_command_fails(tmp_path):
    report, res = report_of(["kstar", *CH, "--margin", "0.1", "--k-grid", "5000"], tmp_path)
    assert res.exit_code == 3
    assert report["searches"] == [] and report["points"] == []
    assert diagnostics.active is None
