"""The reference comparisons at full size, one check per CI workflow step.

`PYTHONPATH=src python -m tests.checks NAME`, from the root of a checkout,
runs check NAME. A check prints what it compared, with timings, and yields
whether each comparison held; the exit status is 1 if one did not. The
comparisons are the tier-1 tests' own, from tests/helpers.py, at sizes too
slow for tier-1. tests.helpers imports hypothesis (17 MB) and unittest.mock
asyncio (6 MB), so each check imports what it uses of them where it runs:
the fresh processes whose peak memory two checks compare load neither.
"""

import csv
import itertools
import json
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from codedelay import optimizer, simulator
from codedelay.codec import DecoderState, encode, systematic_packet
from codedelay.delay import expected_delay
from codedelay.efficiency import efficiency
from codedelay.kernel import _absorption, _transition_rows, build_kernel
from codedelay.optimizer import default_k_range, k_star
from codedelay.params import (AssumptionWarning, derive_channel, derive_coding,
                              redundancy_from_margin)
from codedelay.simulator import SimConfig, replicate, run_coded

ROOT = Path(__file__).resolve().parent.parent
RATE_BPS, PACKET_BITS = 1e8, 12000.0   # the link of the design and point workloads
CHANNEL = derive_channel(0.1, 1e7, 1e4, rtt=0.1)   # that of the simulator's tests


def _timed(f, *args):
    """f(*args) and the milliseconds it took."""
    t = time.perf_counter()
    out = f(*args)
    return out, (time.perf_counter() - t) * 1e3


def _holds(compare, *args):
    """Whether compare(*args), one of the helpers' assert_* comparisons, passes."""
    try:
        compare(*args)
    except AssertionError:
        return False
    return True


def _design_rows(name):
    """(channel, R, row) of each row of perfbench/reference/<name>.csv."""
    with open(ROOT / "perfbench" / "reference" / f"{name}.csv") as fh:
        for row in csv.DictReader(fh):
            ch = derive_channel(float(row["in_epsilon"]), RATE_BPS, PACKET_BITS,
                                rtt=int(row["in_bdp"]) * PACKET_BITS / RATE_BPS)
            yield ch, redundancy_from_margin(float(row["in_margin"]), ch.epsilon), row


def _workloads():
    """perfbench/workloads.py, which holds the cell centres and imports click."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads


def _centres(name, **fields):
    """(cell, SimConfig seeded with the cell) at each cell centre of perfbench workload name."""
    wl = _workloads()
    w = wl.WORKLOADS[name]()
    for c, cell in enumerate(w.cells):
        op = w.draw(c, list(cell))   # the cell's centre, unjittered
        ch = wl.channel_of(op)
        yield c, SimConfig(channel=ch, coding=derive_coding(ch, op["k"], margin=op["margin"]),
                           seed=c, **fields)


def _fresh(run, *args):
    """What run(*args) returns, run in a fresh interpreter, with that process's peak RSS
    (ru_maxrss, kB) as maxrss_kb. A process's ru_maxrss starts at the RSS of the one
    that spawned it, so a check calls this before it holds more than the run imports."""
    proc = subprocess.run([sys.executable, "-m", "tests.checks", run.__name__, *map(str, args)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def _perfbench(workload, trace, names=()):
    """The named metric values of a 1-second seed-1 perfbench run ("attempted": its operation
    count), or None, with the run's output printed, when it exits nonzero or reports an
    incorrect output or a failed operation."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    r = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    if r.get("correct") is True and r.get("failed") == 0:
        values = {name: r[name] if name == "attempted" else r["metrics"][name]["value"]
                  for name in names}
        print(f"{workload}: correct, no failed operation" + (f", {values}" if names else ""))
        return values
    print(proc.stdout)
    return None


def codec_round_trip():
    """A k = 256 codec round trip decodes like the reference decoder."""
    from .helpers import ReferenceDecoder
    k, L, eps, gens = 256, 1250, 0.3, 4
    rng = np.random.default_rng(256)
    payloads = rng.integers(0, 256, (gens, k, L), dtype=np.uint8)
    streams = []
    for g in range(gens):
        # 3k + 64 transmissions cannot run short of k arrivals at eps 0.3
        sent = [systematic_packet(g, payloads[g], i) for i in range(k)]
        sent += [encode(g, payloads[g], m, rng) for m in range(2 * k + 64)]
        streams.append([p for p in sent if rng.random() >= eps])

    def ingest_and_decode(cls):
        decoders = [cls(g, k, L) for g in range(gens)]
        flags = [[dec.ingest(p) for p in stream] for dec, stream in zip(decoders, streams)]
        return flags, [dec.decode() for dec in decoders]

    runs = []
    for cls in (DecoderState, ReferenceDecoder):
        run, ms = _timed(ingest_and_decode, cls)
        print(f"{cls.__name__}: ingest + decode {gens * k * L / ms / 1e3:.2f} MB/s")
        runs.append(run)
    (flags, decoded), (ref_flags, ref_decoded) = runs
    exact = all(np.array_equal(a, p) and np.array_equal(b, p)
                for a, b, p in zip(decoded, ref_decoded, payloads))
    print(f"flags identical: {flags == ref_flags}, bytes exact: {exact}")
    yield flags == ref_flags and exact


def kernel():
    """A k = 1024 kernel fill, absorption and efficiency are bit-equal to the references at
    the design channels."""
    from .helpers import (DESIGN_CHANNELS, DESIGN_GRID, assert_same_absorption,
                          assert_same_efficiency, reference_absorption,
                          reference_received_by_state, reference_transition_rows)
    for R, p in DESIGN_CHANNELS:
        ch = derive_channel(1.0 - p, rate=1e7, packet_size=1e4, rtt=5.0)
        kern = build_kernel(ch, derive_coding(ch, 1024, R=R), DESIGN_GRID)
        eff, eff_ms = _timed(efficiency, kern)
        ref_em, ref_eff_ms = _timed(reference_received_by_state, kern)
        same_eta = _holds(assert_same_efficiency, eff, ref_em, DESIGN_GRID)
        print(f"R {R:.6f}, p {p}: efficiency over every state {eff_ms:.1f} ms, "
              f"reference {ref_eff_ms:.1f} ms, every state and eta at every grid size "
              f"bit-equal: {same_eta}")
        mat, fill_ms = _timed(_transition_rows, R, 1024, p)
        (ref_mat, _), ref_fill_ms = _timed(reference_transition_rows, R, 1024, p)
        cdfs, abs_ms = _timed(_absorption, mat, DESIGN_GRID)
        reference, ref_abs_ms = _timed(reference_absorption, mat, DESIGN_GRID)
        same_mat = np.array_equal(mat, ref_mat)
        same_cdfs = _holds(assert_same_absorption, cdfs, reference, DESIGN_GRID)
        print(f"R {R:.6f}, p {p}: fill {fill_ms:.1f} ms, reference {ref_fill_ms:.1f} ms, "
              f"bit-equal: {same_mat}; absorption over {len(DESIGN_GRID)} sizes {abs_ms:.1f} ms, "
              f"reference {ref_abs_ms:.1f} ms, every cdf bit-equal: {same_cdfs}")
        yield same_eta and same_mat and same_cdfs


def kstar():
    """Bounded k* selects what the full-grid search does on every design reference row."""
    from unittest import mock

    from .helpers import assert_same_kernel, counting_delay, reference_k_star
    grown_build, grown_efficiency = optimizer.build_kernel, optimizer.efficiency
    stages, winners = [], []
    spent = dict.fromkeys(("k_star", "reference", "grown", "rebuilt"), 0.0)   # ms
    same = points = evaluated = once = same_stages = same_winners = n_stages = n_winners = 0

    def recording_build(channel, coding, ks, chain):
        kern, ms = _timed(grown_build, channel, coding, ks, chain)
        spent["grown"] += ms
        stages.append((channel, coding, ks, kern))
        return kern

    def recording_efficiency(kern):
        eff, ms = _timed(grown_efficiency, kern)
        spent["grown"] += ms
        winners.append((kern, eff))
        return eff

    rows = list(_design_rows("design"))
    for ch, R, row in rows:
        points += len(default_k_range(ch))
        seen = []
        with mock.patch.object(optimizer, "expected_delay", counting_delay(seen)):
            got, ms = _timed(k_star, ch, R)
        spent["k_star"] += ms
        evaluated += len(seen)
        once += len(seen) == len(set(seen))   # no size's delay sums taken twice
        want, ms = _timed(reference_k_star, ch, R)
        spent["reference"] += ms
        same += repr(got) == repr(want) and got[0] == int(row["k"])
        # the same search again, keeping each stage's grown kernel and the winner's efficiency
        with mock.patch.object(optimizer, "build_kernel", recording_build), \
                mock.patch.object(optimizer, "efficiency", recording_efficiency):
            k_star(ch, R)
        # each grown stage kernel against a fresh build, bit for bit
        for channel, coding, ks, kern in stages:
            fresh, build_ms = _timed(build_kernel, channel, coding, ks)
            spent["rebuilt"] += build_ms
            same_stages += _holds(assert_same_kernel, kern, fresh, channel, ks)
        # the winner's efficiency, over the chain's rows, against one of a fresh kernel at k*
        for kern, eff in winners:
            fresh, build_ms = _timed(build_kernel, kern.channel, kern.coding)
            fresh_eff, eff_ms = _timed(efficiency, fresh)
            spent["rebuilt"] += build_ms + eff_ms
            same_winners += (np.array_equal(eff.by_state, fresh_eff.by_state)
                             and repr(eff) == repr(fresh_eff))
        n_stages += len(stages)
        n_winners += len(winners)
        stages.clear()
        winners.clear()
    print(f"{same} of {len(rows)} rows bit-identical; evaluated {evaluated} of {points} grid "
          f"points; k_star {spent['k_star']:.0f} ms, full-grid reference "
          f"{spent['reference']:.0f} ms; {once} of {len(rows)} searches evaluated each size once")
    print(f"{same_stages} of {n_stages} grown stage kernels and {same_winners} of {n_winners} "
          f"winner efficiency passes bit-equal to fresh builds; grown {spent['grown']:.0f} ms, "
          f"rebuilt {spent['rebuilt']:.0f} ms")
    yield (same == once == len(rows) and same_stages == n_stages
           and same_winners == n_winners == len(rows))


def delay_sums():
    """Row-wise delay sums equal the per-cell reference on every design grid size and point op."""
    from .helpers import grid_blocks, reference_expected_delay
    points = {"design": [], "point": []}
    for ch, R, _ in _design_rows("design"):
        points["design"] += grid_blocks(ch, R)   # every size of the full default grid
    for ch, _, row in _design_rows("point"):
        cd = derive_coding(ch, int(row["in_k"]), margin=float(row["in_margin"]))
        points["point"].append((ch, cd, build_kernel(ch, cd)))
    for name, args in points.items():
        (got, ms), (want, ref_ms) = (_timed(lambda f: [repr(f(*a)) for a in args], f)
                                     for f in (expected_delay, reference_expected_delay))
        same = sum(a == b for a, b in zip(got, want))
        print(f"{name}: {same} of {len(args)} points bit-identical; expected_delay {ms:.0f} ms, "
              f"per-cell reference {ref_ms:.0f} ms")
        yield same == len(args)


def delivery():
    """Per-generation delay sums equal the per-packet reference on 200 000-packet runs."""
    from unittest import mock

    from .helpers import ReferenceDelivery, assert_same_stats

    def add_timed(cls):
        """cls with the milliseconds spent in add summed in .spent."""
        class Timed(cls):
            spent = 0.0

            def add(self, *args):
                Timed.spent += _timed(super().add, *args)[1]
        return Timed

    ch = CHANNEL
    runs = [(mode, k, None) for k in (1, 4, 16, 64) for mode in ("relaxed", "idealized")]
    for mode, k, hol_cap in runs + [("idealized", 16, 0)]:
        cfg = SimConfig(channel=ch, coding=derive_coding(ch, k, margin=0.1), mode=mode,
                        n_packets=200_000, seed=k, hol_cap=hol_cap)
        stats, spent = [], []
        for cls in (simulator._Delivery, ReferenceDelivery):
            # each engine builds the _Delivery that the module holds when it runs
            with mock.patch.object(simulator, "_Delivery", add_timed(cls)) as timed:
                stats.append(run_coded(cfg))
            spent.append(timed.spent)
        same = _holds(assert_same_stats, *stats)
        print(f"{mode} k {k} hol_cap {hol_cap}: delivery {spent[0]:.1f} ms, reference "
              f"{spent[1]:.1f} ms, six sums and every field equal: {same}")
        yield same


def _coded_run(mode):
    """Mean and std of the 4 M-packet run of mode that relaxed_peak measures."""
    ch = CHANNEL
    st = run_coded(SimConfig(channel=ch, coding=derive_coding(ch, 2, margin=0.1), mode=mode,
                             n_packets=4_000_000, seed=1))
    return {"mean": st.mean_delay, "std": st.std_delay}


def relaxed_peak():
    """A 4 M-packet relaxed run peaks within 10% of the idealized one, outputs unchanged."""
    # each mode in a fresh process, so ru_maxrss is that run's own peak
    ideal, relaxed = (_fresh(_coded_run, mode) for mode in ("idealized", "relaxed"))
    ratio = relaxed["maxrss_kb"] / ideal["maxrss_kb"]
    print(f"peak: idealized {ideal['maxrss_kb'] / 1024:.1f} MB, "
          f"relaxed {relaxed['maxrss_kb'] / 1024:.1f} MB ({ratio:.3f}x)")
    print(f"relaxed mean {relaxed['mean']!r}, std {relaxed['std']!r}")
    # the relaxed mean and std of this run before the link schedule streamed
    yield (ratio <= 1.1 and relaxed["mean"] == 0.16004327987237382
           and relaxed["std"] == 0.04975701420786353)


def codec_trace():
    """A 200 000-packet real-codec trace matches the reference writer in each mode."""
    from .helpers import assert_trace_is_the_reference
    ch = CHANNEL
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("idealized", "relaxed"):
            path = Path(tmp) / f"trace-{mode}.csv"
            subprocess.run(["codedelay", "simulate", "--epsilon", "0.1", "--rate-bps", "1e7",
                            "--packet-bits", "1e4", "--rtt-s", "0.1", "--k", "16",
                            "--margin", "0.1", "--mode", mode, "--n-packets", "200000",
                            "--seed", "13", "--real-codec", "--trace", str(path)],
                           stdout=subprocess.DEVNULL, check=True)
            cfg = SimConfig(channel=ch, coding=derive_coding(ch, 16, margin=0.1), mode=mode,
                            n_packets=200_000, seed=13, use_real_codec=True,
                            collect_records=True)
            written = path.read_text()
            rows = written.count("\n") - 2
            same = _holds(assert_trace_is_the_reference, written, run_coded(cfg), cfg)
            print(f"{mode}: {rows} rows, {len(written)} bytes, as the reference writer's: {same}")
            yield rows == 200_000 and same


def blocks():
    """Blocks at the simulate and trace-codec cell centres, and one at k 1024, equal the scalar
    replay of their draws."""
    from .helpers import RecordingRng, assert_same_block, reference_trajectories, replayed_block
    wl = _workloads()
    cases = [(f"{name} cell {c}", cfg)
             for name, packets, real_codec in (("simulate", wl.REP_PACKETS, False),
                                               ("trace-codec", wl.SIM_PACKETS, True))
             for c, cfg in _centres(name, n_packets=packets, use_real_codec=real_codec)]
    # over 1 000 slots a round, so the counts are 16-bit; 40 generations keep the replay short
    cd = derive_coding(CHANNEL, 1024, margin=0.0)   # about half the generations retransmit
    cases.append(("k 1024", SimConfig(channel=CHANNEL, coding=cd, n_packets=40 * cd.k, seed=1)))
    for label, cfg in cases:
        cd, eps = cfg.coding, cfg.channel.epsilon
        rng = RecordingRng(simulator._rng_for(cfg.seed))
        # the run's first block
        tr, block_ms = _timed(next, simulator._trajectories(cfg, [rng], -(-cfg.n_packets // cd.k)))
        replay, ref_ms = _timed(reference_trajectories, rng.draws, cd, eps, tr.n.size,
                                cfg.use_real_codec)
        same = _holds(assert_same_block, tr, replayed_block(*replay))
        print(f"{label}: k {cd.k}, eps {eps}, {cd.n_k_high} round-1 slots, {tr.n.size} "
              f"generations, up to {tr.y.max()} rounds; block {block_ms:.1f} ms, reference "
              f"{ref_ms:.0f} ms, equal: {same}")
        yield same


def _replicate_cells(reps):
    """replicate at every simulate cell centre, as lanes measures its peak."""
    for _, cfg in _centres("simulate", mode="relaxed", n_packets=_workloads().REP_PACKETS):
        replicate(cfg, int(reps))
    return {}


def lanes():
    """Replications as lanes equal one run per replication at the simulate cell centres,
    peaking within 10% of one run."""
    wl = _workloads()
    # each count in a fresh process, so ru_maxrss is that process's own peak over the cells,
    # spawned before this one imports the helpers (see _fresh)
    one, many = (_fresh(_replicate_cells, reps)["maxrss_kb"] for reps in (1, wl.SIM_REPS))
    from .helpers import assert_same_stats, reference_replicate
    for c, cfg in _centres("simulate", mode="relaxed", n_packets=wl.REP_PACKETS):
        got, lanes_ms = _timed(replicate, cfg, wl.SIM_REPS)
        want, ref_ms = _timed(reference_replicate, cfg, wl.SIM_REPS)
        same = _holds(assert_same_stats, got, want)
        print(f"simulate cell {c}: k {cfg.coding.k}, eps {cfg.channel.epsilon}, {wl.SIM_REPS} x "
              f"{wl.REP_PACKETS} packets; lanes {lanes_ms:.1f} ms, one run per replication "
              f"{ref_ms:.1f} ms, every field equal: {same}")
        yield same
    print(f"peak: one replication {one / 1024:.1f} MB, {wl.SIM_REPS} as lanes "
          f"{many / 1024:.1f} MB ({many / one:.3f}x)")
    yield many <= 1.1 * one


def link_slots():
    """The link schedule at the simulate cell centres equals the float-heap reference in every
    lane."""
    from .helpers import assert_schedule_is_the_reference, link_schedule
    wl = _workloads()
    for c, cfg in _centres("simulate", mode="relaxed", n_packets=wl.REP_PACKETS):
        ch, cd = cfg.channel, cfg.coding
        # the lanes replicate(cfg, SIM_REPS) runs: one generator per child seed, in its batches
        children = np.random.SeedSequence(c).spawn(wl.SIM_REPS)
        rngs = [simulator._rng_for(int(ss.generate_state(1)[0])) for ss in children]
        n_gens = -(-cfg.n_packets // cd.k)
        link_ms, gens, multi, same = 0.0, 0, 0, True
        for batch in simulator._batches(cfg, rngs):
            drawn = list(simulator._trajectories(cfg, batch, n_gens))
            schedule, ms = _timed(link_schedule, drawn, len(batch), ch)
            link_ms += ms
            same = same and _holds(assert_schedule_is_the_reference, drawn, schedule, ch)
            gens += sum(tr.y.size for tr in drawn)
            multi += sum(int((tr.y > 1).sum()) for tr in drawn)
        print(f"simulate cell {c}: k {cd.k}, eps {ch.epsilon}, {wl.SIM_REPS} lanes of {n_gens} "
              f"generations, {100 * multi / gens:.1f} % retransmit; link {link_ms:.2f} ms, "
              f"every lane's start and decode slots equal: {same}")
        yield same


def perfbench_outputs():
    """Benchmark workloads reproduce their reference outputs."""
    for w in ("design", "point", "simulate", "trace-codec"):
        yield _perfbench(w, 0) is not None


def traced_trace_codec():
    """Traced trace-codec run reports the trace writer."""
    m = _perfbench("trace-codec", 1, ["simulator.trace_csv.bytes"])
    yield m is not None and m["simulator.trace_csv.bytes"] > 0


def traced_point():
    """Traced point run calls each wrapped CLI name once per layer."""
    want = {"params.calls": 2, "kernel.build.calls": 1, "delay.calls": 1, "efficiency.calls": 1}
    got = _perfbench("point", 1, want)
    yield got == want


def traced_design():
    """Traced design run evaluates each grid point once."""
    m = _perfbench("design", 1, ["attempted", "delay.calls", "efficiency.calls"])
    if m is None:
        yield False
        return
    # the run's operations again, in process, counting the distinct sizes k_star takes delay
    # sums of; the traced delay calls exceed that count if any size's sums run twice
    from unittest import mock

    from .helpers import counting_delay
    wl = _workloads()
    sizes = 0
    for op in itertools.islice(wl.WORKLOADS["design"]().ops(1), m["attempted"]):
        seen = []
        with mock.patch.object(optimizer, "expected_delay", counting_delay(seen)):
            k_star(wl.channel_of(op), redundancy_from_margin(op["margin"], op["epsilon"]))
        sizes += len(set(seen))
    per_op = sizes / m["attempted"]
    print(f"{per_op:.6g} distinct sizes evaluated per operation in process")

    def same(a, b):
        # per-operation means: equal counts over the run give equal means, up to rounding
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    # one delay evaluation per evaluated size and one efficiency pass, the winner's, per operation
    yield same(m["delay.calls"], per_op) and same(m["efficiency.calls"], 1.0)


CHECKS = {f.__name__.replace("_", "-"): f for f in (
    codec_round_trip, kernel, kstar, delay_sums, delivery, relaxed_peak, codec_trace, blocks,
    lanes, link_slots, perfbench_outputs, traced_trace_codec, traced_point, traced_design)}
_FRESH = {f.__name__: f for f in (_coded_run, _replicate_cells)}


def main(argv):
    if not __debug__:
        sys.exit("the checks compare with assert statements; run them without -O")
    warnings.simplefilter("ignore", AssumptionWarning)
    if argv and argv[0] in _FRESH:
        out = _FRESH[argv[0]](*argv[1:])
        print(json.dumps({**out, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
        return 0
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(f"usage: python -m tests.checks {{{','.join(CHECKS)}}}", file=sys.stderr)
        return 2
    return 0 if all(list(CHECKS[argv[0]]())) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
