"""codedelay benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload design --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
One client in one process and thread sends each operation after the previous
one returned, for `--seconds` seconds of operation time (in whole passes),
and checks every output. `--trace 0` measures the end-to-end metrics untraced;
`--trace 1` runs every operation twice, untraced and traced in alternating
order, and reports the per-layer metrics and the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics. The
lines before it are a readable report and the run's metadata.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from importlib import metadata
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 3            # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10          # op_tail_s: highest percentile with this many ops beyond it


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


# -- set-up: fresh interpreters importing the CLI, one at a time -------------

def measure_setup(importtime, probe):
    """(seconds, -X importtime report, start, end) of fresh `import codedelay.cli` processes.

    The benchmark process has imported the package already, so its bytecode
    is compiled and its files are cached, as for a user's second command.
    """
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", "import codedelay.cli"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_RUNS):
        probe.sample()
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        end = time.perf_counter()
        if proc.returncode:
            fail(f"importing codedelay.cli failed:\n{proc.stderr[-2000:]}")
        samples.append((end - start, proc.stderr, start, end))
    probe.sample()
    return samples


def import_breakdown(report):
    """Seconds from one -X importtime report: codedelay self time, cumulative scipy/numpy/click."""
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(self_us) / 1e6, int(cum_us) / 1e6))

    def pkg(name):
        return name.split(".")[0]

    out = {"setup.import_self_s.codedelay": 0.0}
    for p in ("scipy", "numpy", "click"):
        out[f"setup.import_cum_s.{p}"] = 0.0
    # Children print before their parent, so walk backwards to see parents first.
    stack = []
    for depth, name, self_s, cum_s in reversed(entries):
        del stack[depth:]
        if pkg(name) == "codedelay":
            out["setup.import_self_s.codedelay"] += self_s
        key = f"setup.import_cum_s.{pkg(name)}"
        if key in out and pkg(name) not in {pkg(a) for a in stack}:
            out[key] += cum_s
        stack.append(name)
    return out


# -- the closed loop -----------------------------------------------------------

class Run:
    """Counts, timings and errors of one run's operations."""

    def __init__(self, workload, scratch, probe, tracer=None):
        self.workload = workload
        self.scratch = scratch
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.ok = []            # (seconds, start, end, work) of operations that passed
        self.busy = 0.0         # operation time so far, every execution
        self.traced_s = 0.0
        self.untraced_s = 0.0

    def _timed(self, op, traced):
        start = time.perf_counter()
        try:
            if traced:
                result = self.tracer.operation(self.attempted, self.workload.execute,
                                               op, self.scratch)
            else:
                result = self.workload.execute(op, self.scratch)
        finally:
            end = time.perf_counter()
            self.busy += end - start
        self.workload.check(op, result)
        return end - start, start, end

    def step(self, op):
        self.attempted += 1
        try:
            if self.tracer is None:
                timing = self._timed(op, False)
            else:
                # The same operation untraced and traced; alternate which goes first.
                traced_first = self.attempted % 2 == 0
                first = self._timed(op, traced_first)
                second = self._timed(op, not traced_first)
                traced, timing = (first, second) if traced_first else (second, first)
                self.untraced_s += timing[0]
                self.traced_s += traced[0]
        except Exception:  # any raise, non-zero exit or failed check fails the operation
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {op['index']}: {traceback.format_exc(limit=3)}")
        else:
            self.ok.append((*timing, self.workload.work(op)))
        self.probe.maybe_sample()

    def latencies(self, reference_speed):
        """Seconds of each passed operation, raw or at reference speed."""
        if not reference_speed:
            return [t for t, _, _, _ in self.ok]
        return [t / self.probe.slowdown(s, e) for t, s, e, _ in self.ok]

    def work(self):
        return sum(w for _, _, _, w in self.ok)


def run_loop(workload, seed, seconds, scratch, probe, tracer=None):
    warm = workload.draw(0, [0.0] * workload.dims)   # cheapest corner: fills lazy caches
    workload.execute(warm, scratch)
    run = Run(workload, scratch, probe, tracer)
    ops = workload.ops(seed)
    probe.sample()
    while run.busy < seconds:
        for _ in range(workload.pass_size):
            run.step(next(ops))
    probe.sample()
    return run


def tail(latencies):
    """(percentile, value) of the highest percentile with TAIL_BEYOND operations beyond it."""
    n = len(latencies)
    if n <= 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


# -- reporting -----------------------------------------------------------------

def end_to_end(workload, run, setup, probe):
    """{metric: (value, unit)} for BENCHMARK.json's end_to_end list, and report lines."""
    values = {}
    for ref in (True, False):
        lat = run.latencies(ref) or [float("nan")]
        setup_s = [t / probe.slowdown(s, e) if ref else t for t, _, s, e in setup]
        values[ref] = {"setup_s": statistics.median(setup_s),
                       "op_p50_s": statistics.median(lat),
                       "work_per_s": run.work() / sum(lat),
                       "op_tail": tail(lat)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rate = f"{workload.work_unit[:-1]}s_per_s"
    lines = [f"  {'metric':<13} {'reference-speed':>15} {'raw':>12}"]
    for key, label, unit in (("setup_s", "setup_s", "s"), ("op_p50_s", "op_p50_s", "s"),
                             ("work_per_s", rate, f"{workload.work_unit}/s")):
        lines.append(f"  {label:<13} {values[True][key]:>15.6g} {values[False][key]:>12.6g} {unit}")
    if values[True]["op_tail"]:
        (pct, ref_t), (_, raw_t) = values[True]["op_tail"], values[False]["op_tail"]
        lines.append(f"  {'op_tail_s':<13} {ref_t:>15.6g} {raw_t:>12.6g} s  "
                     f"(p{pct:.1f} of {len(run.ok)} operations)")
    else:
        lines.append(f"  op_tail_s     omitted: {len(run.ok)} operations do not support "
                     "a percentile above the median")
    lines += [f"  failed_frac   {run.failed / run.attempted:.6g}",
              f"  peak_rss_mb   {peak_rss_mb:.6g} MB",
              f"  machine slowdown vs reference: median {probe.median():.3f} "
              f"over {len(probe.slowdowns)} probe samples",
              f"  ({rate} is reported as work_per_s; setup_s is the median of "
              f"{SETUP_RUNS} fresh imports)"]
    metrics = {"setup_s": (values[True]["setup_s"], "s"),
               "op_p50_s": (values[True]["op_p50_s"], "s"),
               "work_per_s": (values[True]["work_per_s"], "1/s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    return metrics, lines


def per_layer(run, setup, tracer):
    """{metric: (value, unit)} for BENCHMARK.json's per_layer list, and report lines."""
    n = len(run.ok)
    breakdowns = [import_breakdown(report) for _, report, _, _ in setup]
    metrics = {key: (statistics.median(b[key] for b in breakdowns), "s")
               for key in breakdowns[0]}
    layers, self_sum = tracer.metrics(n)
    metrics.update(layers)
    per_op = 1.0 / max(n, 1)
    metrics["trace.untraced_op_s"] = (run.untraced_s * per_op, "s")
    metrics["trace.traced_op_s"] = (run.traced_s * per_op, "s")
    metrics["trace.layer_self_sum_s"] = (self_sum, "s")
    metrics["trace.overhead_frac"] = (
        run.traced_s / run.untraced_s - 1.0 if run.untraced_s else 0.0, "ratio")
    return metrics, [f"  {k:<40} {v:.6g} {u}" for k, (v, u) in metrics.items()]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def metadata_block(args, workload, run, probe):
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client, 1 thread",
        "first_ops": [op["index"] for op in itertools.islice(workload.ops(args.seed), 8)],
        "pool": workload.pool, "attempted": run.attempted, "failed": run.failed,
        "ranges": workload.ranges(), "setup_runs": SETUP_RUNS,
        "machine_slowdown": probe.median(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        **versions, "git_commit": git_commit(),
    }


def main(argv=None):
    if not (SRC / "codedelay" / "__init__.py").is_file():
        fail(f"no codedelay sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    # One client, one thread: sweeps must not fan out over the 2 cores.
    os.environ.pop("CODEDELAY_THREADS", None)
    import workloads  # imports codedelay, so only after the source check
    import tracing
    import codedelay
    if not Path(codedelay.__file__).resolve().is_relative_to(SRC):
        fail(f"codedelay was imported from {codedelay.__file__}, not from {SRC}")

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    # Each operation sees every AssumptionWarning, as a fresh `codedelay` process would.
    warnings.simplefilter("always")
    probe = speed.SpeedProbe()
    setup = measure_setup(importtime=bool(args.trace), probe=probe)
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=ROOT) as scratch:
        run = run_loop(workload, args.seed, args.seconds, scratch, probe, tracer)

    if tracer is None:
        metrics, lines = end_to_end(workload, run, setup, probe)
    else:
        metrics, lines = per_layer(run, setup, tracer)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(span_file)
        lines.append(f"  spans written to {span_file.relative_to(ROOT)}")
    for err in run.errors:
        print(err, file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {run.attempted} operations, "
          f"{run.failed} failed (closed loop, 1 client)")
    print("\n".join(lines))
    print("meta " + json.dumps(metadata_block(args, workload, run, probe), sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
