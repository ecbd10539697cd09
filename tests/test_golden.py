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
    "simulate-relaxed-k1": (["simulate", *CH, "--k", "1", "--margin", "0.1",
                             "--mode", "relaxed", "--n-packets", "2000",
                             "--seed", "17"], True),
    "simulate-relaxed-eps03": (["simulate", "--epsilon", "0.3", "--rate-bps", "1e7",
                                "--packet-bits", "1e4", "--rtt-s", "0.1", "--k", "8",
                                "--redundancy", "1.55", "--mode", "relaxed",
                                "--n-packets", "4000", "--seed", "18"], True),
    "simulate-idealized-full-window": (["simulate", *CH, "--k", "8", "--margin", "0.1",
                                        "--hol-cap", "1000", "--n-packets", "4000",
                                        "--seed", "19"], True),
    "simulate-idealized-chunks": (["simulate", *CH, "--k", "2", "--margin", "0.1",
                                   "--n-packets", "10000", "--seed", "22"], True),
    "simulate-idealized-b1": (["simulate", "--epsilon", "0.1", "--rate-bps", "1e7",
                               "--packet-bits", "1e4", "--rtt-s", "0.01", "--k", "16",
                               "--margin", "0.1", "--n-packets", "2000",
                               "--seed", "20"], True),
    "simulate-relaxed-codec-seed21": (["simulate", *CH, "--k", "8", "--margin", "0.1",
                                       "--mode", "relaxed", "--real-codec",
                                       "--n-packets", "3000", "--seed", "21"], True),
    "simulate-idealized-codec-k64": (["simulate", "--epsilon", "0.3", "--rate-bps", "1e7",
                                      "--packet-bits", "1e4", "--rtt-s", "0.1", "--k", "64",
                                      "--redundancy", "1.0", "--real-codec",
                                      "--n-packets", "12000", "--seed", "23"], True),
    "simulate-relaxed-codec-k1": (["simulate", "--epsilon", "0.45", "--rate-bps", "1e7",
                                   "--packet-bits", "1e4", "--rtt-s", "0.1", "--k", "1",
                                   "--margin", "0.1", "--mode", "relaxed", "--real-codec",
                                   "--n-packets", "2000", "--seed", "24"], True),
    "simulate-relaxed-blocks": (["simulate", *CH, "--k", "2", "--margin", "0.1",
                                 "--mode", "relaxed", "--n-packets", "20000",
                                 "--seed", "25"], True),
    "analyze": (["analyze", *CH, "--k", "16", "--margin", "0.1"], False),
    "sweep": (["sweep", *CH, "--redundancy", "1.25", "--k-grid", "3,6,12,24"], False),
    "kstar": (["kstar", *CH, "--margin", "0.1", "--k-grid", "2,4,8,16,32,64"], False),
}

# sha256 of (stdout, trace file) for each case. analyze, kstar and sweep were
# re-recorded when binomial rows moved to the Pascal recurrence and the
# efficiency pass to vectorized row dots (last-bit changes; see CHANGES.md).
# The seven relaxed cases (relaxed, relaxed-codec, relaxed-codec-k1,
# relaxed-codec-seed21, relaxed-eps03, relaxed-k1 and reps) were re-recorded
# when the relaxed engine stopped drawing its own rounds and became a slot
# schedule over the idealized engine's trajectories, which draws in
# generation order (see CHANGES.md). Every idealized, hol-cap, chunk and
# analytic digest was kept through that change, and through the earlier
# shared delivery pass and GF(2^8) rank tracker. analyze and sweep were
# re-recorded when p_z took its closed form and the power sums their binary
# doubling (last-bit changes), and simulate-reps and simulate-hol-cap-reps
# when replications began to pool their integer delay sums (see CHANGES.md);
# kstar and every other simulator digest were kept. The five real-codec
# cases (idealized-codec, relaxed-codec, relaxed-codec-seed21,
# idealized-codec-k64 and relaxed-codec-k1) were re-recorded when the codec
# moved onto the vectorized retransmission rounds, drawing one coefficient
# block per block of generations and round (a new random stream; see
# CHANGES.md); every other digest was kept. simulate-relaxed-blocks, the one
# relaxed case spanning several 4096-generation blocks (10 000 generations),
# was recorded before the relaxed link schedule began to hand each block on
# as soon as it had decoded, and that change kept it and every other digest.
# analyze, sweep and kstar were re-recorded when the efficiency pass began to
# take each round's mean received count as (1 - epsilon) times the mean
# transmit count, not from the kernel's absorbing mass: only their eta column
# moved, by at most 3.8e-16 relative (see CHANGES.md); every simulator digest
# was kept.
DIGESTS = {
    "analyze": ("0fcdf88f9049e9b801fca7321cdef2e10f362967a124118cb86ed1fd2ff316d0", None),
    "compare-arq": ("a88a308927bece67f47bd0c6dfe9160e247e65a03f8f85e1e467c83e3c6a563f", None),
    "kstar": ("a360e2e84772fe62a00f7905470b028358f9464ef68c10f2deba2e60b333bf6d", None),
    "simulate-hol-cap-reps": (
        "8d5f0fdf1f2c509dc0b31938591178cc8e379cb329afd7fe5096811afaa4fc6b", None),
    "simulate-idealized": (
        "83a3dbbdd51c9d5887fe3eabce01c5eed5cdab12b19d55b82f21f86b29fb3df1",
        "ad4d517c14a75373425e3c27a949e2cc7b0782f0b2c7675beae8634e431e3c0f"),
    "simulate-idealized-codec": (
        "29222f565df2314da2bf4d73bb68b5d78ddaa8abca5ed9926ff909be0107ce96",
        "1d62d76f9c3be699529d11d2e371328e06ec4768d45a1934344b62fdeb853741"),
    "simulate-relaxed": (
        "945df535f8f9032cd24dc6f8aa31b78c8feebac9936e1358b0f3192dc5d44010",
        "931287f96e7c62dd01dae39388e98f114fe253418e4d83d188b52c02fb40b666"),
    "simulate-relaxed-codec": (
        "d3960bc2f3cd8b826dcea89097fa6a0bcf3063831e595d9c623c7ee407b81b4a",
        "d6d39eabeff3751b7c6c5e1e4aefe442d7a0433873a4cc2a11557220dae199bc"),
    "simulate-idealized-b1": (
        "a206c18bf6bd8dea95669bac8c2313b62440ece17918cb8ccf3426aa11003716",
        "eb7a9572bb953fc3d99b83f0d406d5ed6e0872de40bbc19eced723fd046028a3"),
    "simulate-idealized-chunks": (
        "89bf3cb6a3d0b6269df3e2a4bb9d5615104312cfb20ca76d4dfa9d4ef94a5861",
        "55f014d02bf2c7013fcaeaa23b89c0bed78afbbadcd3cb7a9da167541983b4dc"),
    "simulate-idealized-codec-k64": (
        "734f3df5211b4fff309934eadda7ab3b7ffad7fecd045602a57dacf8c9853c5c",
        "8a936499a2f0a27ecf5f9695858536348e25b985265e356e1688d177a5afaefa"),
    "simulate-idealized-full-window": (
        "c8cc87b729d8a78f55a0c1095b4ea6b23310cc44efad16d84390d06c385c931f",
        "141588c591206493dd42bfb103dab2a881308a2cc8fe032967da294886e9d4cf"),
    "simulate-relaxed-codec-seed21": (
        "1cb267170f6997ec5aae8ae16cc3f39ad918fbbcc4cc25c42a03c8bfb047c1f8",
        "b0987836d92325236ab682d149ec434c823dc7fcde376b7bd615bb7523c462e1"),
    "simulate-relaxed-codec-k1": (
        "a7fde3546bb6fb5af3c8731e9c43babbd0e3b84ab01502046c5092a339be8988",
        "a9a5dfc4b0f2592d97db9d93eb19f28908fb9adc8dd8fe88238d3f71eeec4668"),
    "simulate-relaxed-eps03": (
        "05889009ab3973cf16d885088f21e718a2c04978ee09ea21933459e31d470bf5",
        "4bd1ec64f27e8891d64547ded18a433dbfd698e0e8a4a945a451d500aefb50bf"),
    "simulate-relaxed-blocks": (
        "a0e22b7304b29822a3ed17460f8be4f45366390f20963b64bc76ef52ad43b1b8",
        "5a016279062d4db1f9cb9f5923c1fdc27909d1ba8724b57a774c1df4d32c5291"),
    "simulate-relaxed-k1": (
        "a4a86408fe469653482702b31747400db97d0fcbb619bfe5e2012884febcf37b",
        "60e113111766449ff503a258626a94edeb79106d4848ea00eeb7f9201dbf66ce"),
    "simulate-reps": ("4125374a201a2fb37fcabbf06577620ede090e30d87d9ff3afa7966f5bc9ba56", None),
    "sweep": ("b3898ae6ec162d1b7cf934a0dac685004ce9ea1bb5eb49fd74f451d9e84fed10", None),
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


def test_every_case_has_one_digest():
    assert CASES.keys() == DIGESTS.keys()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]
