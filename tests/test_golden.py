"""Golden outputs: seeded CLI runs must reproduce recorded bytes exactly.

Each case runs one small `codedelay` invocation in-process and compares the
sha256 of its stdout, and of its trace file where it writes one, with a
recorded digest. A change to the random stream, the float formatting or the
arithmetic order of any reported value shows up here; such a change must be
deliberate, and the digests are then re-recorded together with a CHANGES.md
entry that says why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from codedelay.cli import main

CH = ["--epsilon", "0.1", "--rate-bps", "1e7", "--packet-bits", "1e4",
      "--rtt-s", "0.1"]

# name -> (argv, writes a trace)
CASES = {
    "simulate-idealized": (["simulate", *CH, "--k", "8", "--margin", "0.1",
                            "--n-packets", "4000", "--seed", "11"], True),
    "simulate-relaxed": (["simulate", *CH, "--k", "8", "--redundancy", "1.25",
                          "--mode", "relaxed", "--n-packets", "4000",
                          "--seed", "12"], True),
    "simulate-idealized-codec": (["simulate", *CH, "--k", "8", "--redundancy", "1.25",
                                  "--real-codec", "--n-packets", "3000",
                                  "--seed", "13"], True),
    "simulate-relaxed-codec": (["simulate", *CH, "--k", "8", "--margin", "0.1",
                                "--mode", "relaxed", "--real-codec",
                                "--n-packets", "3000", "--seed", "14"], True),
    "simulate-reps": (["simulate", *CH, "--k", "16", "--margin", "0.05",
                       "--mode", "relaxed", "--n-packets", "5000", "--seed", "15",
                       "--reps", "3"], False),
    "simulate-hol-cap-reps": (["simulate", *CH, "--k", "4", "--margin", "0.2",
                               "--hol-cap", "0", "--n-packets", "5000", "--seed", "16",
                               "--reps", "3", "--format", "json"], False),
    "compare-arq": (["compare-arq", *CH, "--k", "16", "--margin", "0.1",
                     "--n-packets", "5000", "--seed", "5"], False),
    "analyze": (["analyze", *CH, "--k", "16", "--margin", "0.1"], False),
    "sweep": (["sweep", *CH, "--redundancy", "1.25", "--k-grid", "3,6,12,24"], False),
    "kstar": (["kstar", *CH, "--margin", "0.1", "--k-grid", "2,4,8,16,32,64"], False),
}

# sha256 of (stdout, trace file) for each case
DIGESTS = {
    "analyze": ("21ef335c9d8b3c903793971e6366d1e425f042dd3ce671806a8ef17dd114b434", None),
    "compare-arq": ("a88a308927bece67f47bd0c6dfe9160e247e65a03f8f85e1e467c83e3c6a563f", None),
    "kstar": ("69bd200feaafef1e350f40bea0c20af6d2b4da433c9574ea1a5c062512672a1d", None),
    "simulate-hol-cap-reps": (
        "590ecfbbd229bd9be7f2c0ae46ada19ad53cbf618dde73e16926dc221ba8c5c6", None),
    "simulate-idealized": (
        "83a3dbbdd51c9d5887fe3eabce01c5eed5cdab12b19d55b82f21f86b29fb3df1",
        "ad4d517c14a75373425e3c27a949e2cc7b0782f0b2c7675beae8634e431e3c0f"),
    "simulate-idealized-codec": (
        "a4ed993cbd2957fd77b8bde83940632e8dbddbf9ff2a935c299cc4bec8672570",
        "81ebbda39d4bd0da23986c380263b3081e5c33c682259958fef7160e0050a421"),
    "simulate-relaxed": (
        "9d3b60bc4d2407f007acc3f83a020a552aa5a56d7089568a92e2c7363d0c6dbe",
        "3aa22ae6688cd5d63cb4004b379971a500d8df171e21831f9e9749d2ee934a86"),
    "simulate-relaxed-codec": (
        "1d74770e1c4845a44d04237070ac42610e55f1a0950ea15e3da38ab4fe7564f6",
        "e37bbea894e3aafc40637a331d295d2d1a05cba71cecd614d14adf0f8d9ebfcd"),
    "simulate-reps": ("6facffc293dd7bd8627f54743bf9525de9651f9488d19b1fb7fa70d50cc433fb", None),
    "sweep": ("2c8ab23185dfc43304f4ffb7036acd7ead042dbdcc55843413f632c698f3b77c", None),
}


def run_case(name, tmp_path):
    """sha256 hex digests of the case's stdout and trace bytes (None without a trace)."""
    argv, traced = CASES[name]
    trace = tmp_path / f"{name}.csv"
    if traced:
        argv = argv + ["--trace", str(trace)]
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 0, res.output
    out = hashlib.sha256(res.stdout_bytes).hexdigest()
    return out, hashlib.sha256(trace.read_bytes()).hexdigest() if traced else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]
