"""Spans around the program's layers, recorded from outside the program.

The tracer replaces public functions at the names their callers look them up
by (module globals such as `codedelay.optimizer.build_kernel`, and methods on
the classes that own them) with wrappers that record a span: layer, start,
end, parent span and operation id. Spans stay in memory; `write` dumps them
at the end of the run and `metrics` turns them into per-layer self
times, counts and ratios. A layer's self time is its spans' time minus the
part covered by child spans, so the self times of all layers, including
`bench` (the benchmark's own glue inside an operation), add up to the traced
operation time.
"""

import gzip
from array import array
from collections import defaultdict
from time import perf_counter

import codedelay.cli
import codedelay.codec
import codedelay.delay
import codedelay.kernel
import codedelay.optimizer
import codedelay.simulator

import workloads

SIM_VARIANTS = ("idealized", "relaxed", "arq", "idealized_codec", "relaxed_codec")


def _engine_layer(cfg, _rng):
    return "simulator." + cfg.mode + ("_codec" if cfg.use_real_codec else "")


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.layers = []            # layer names; spans store an index into this
        self._layer_ids = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.counts = defaultdict(float)
        self._stack = []
        self._op = -1
        self._patches = []
        self._targets = self._wrap_targets()

    def _id(self, layer):
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def span(self, layer, fn, *args, on_result=None, **kwargs):
        """Call fn inside a span of `layer` (a name, or a function of the call's arguments)."""
        name = layer(*args, **kwargs) if callable(layer) else layer
        idx = len(self.start)
        self.layer.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(name, args, result)
        return result

    def operation(self, op_id, fn, *args):
        """Run one benchmark operation as a root span of layer `bench`."""
        self._op = op_id
        self._install()
        try:
            return self.span("bench", fn, *args)
        finally:
            self._uninstall()

    # -- what gets wrapped, and the counts recorded at each boundary --------

    def _count(self, key, value=1):
        self.counts[key] += value

    def _on_coding(self, name, args, coding):
        self._count("params.assumption_warnings", not coding.within_bdp)

    def _on_kernel(self, name, args, kern):
        self._count("kernel.build.matrix_bytes", kern.matrix.nbytes)
        self._count("kernel.build.horizon_rounds", kern.horizon)

    def _on_delay(self, name, args, dm):
        self._count("delay.terms_evaluated", dm.terms_evaluated)
        key = "delay.truncated_mass_max"
        self.counts[key] = max(self.counts[key], dm.truncated_mass)

    def _on_sweep(self, name, args, records):
        self._count("optimizer.points", len(records))
        self._count("optimizer.failed_points", sum(r.error is not None for r in records))

    def _on_engine(self, name, args, stats):
        self._count(name + ".packets", args[0].n_packets)
        if name == "simulator.arq":
            return  # ARQ counts every delivered packet as both sent and useful
        self._count("simulator.generations", sum(stats.rounds_hist.values()))
        self._count("simulator.extra_rounds",
                    sum((y - 1) * c for y, c in stats.rounds_hist.items()))
        self._count("simulator.info_packets", stats.info_packets)
        self._count("simulator.received_packets", stats.received_packets)

    def _on_trace_csv(self, name, args, _):
        self._count("simulator.trace_csv.bytes", args[2].tell())

    def _on_ingest(self, name, args, innovative):
        self._count("codec.ingest.innovative", bool(innovative))

    def _on_cli_output(self, name, args, text):
        self._count("cli.output_bytes", len(text.encode()))

    def _on_roundtrip(self, name, args, decoded):
        self._count("codec.payload_bytes", sum(d.nbytes for d in decoded))

    def _wrap_targets(self):
        cli, opt, dly = codedelay.cli, codedelay.optimizer, codedelay.delay
        sim, cdc = codedelay.simulator, codedelay.codec
        return [
            (cli, "derive_channel", "params", None),
            (cli, "derive_coding", "params", self._on_coding),
            (cli, "redundancy_from_margin", "params", None),
            (opt, "derive_coding", "params", self._on_coding),
            (cli, "build_kernel", "kernel.build", self._on_kernel),
            (opt, "build_kernel", "kernel.build", self._on_kernel),
            (dly, "build_kernel", "kernel.build", self._on_kernel),
            (codedelay.kernel.TransitionKernel, "p_z", "kernel.p_z", None),
            (dly, "prefix_moments", "moments", None),
            (dly, "straggler_moments", "moments", None),
            (cli, "expected_delay", "delay", self._on_delay),
            (opt, "expected_delay", "delay", self._on_delay),
            (cli, "efficiency", "efficiency", None),
            (opt, "efficiency", "efficiency", None),
            (cli, "default_k_range", "optimizer", None),
            (cli, "k_star", "optimizer", None),
            (opt, "sweep", "optimizer", self._on_sweep),
            (opt, "smooth_local_maxima", "optimizer", None),
            (sim, "_run_idealized", _engine_layer, self._on_engine),
            (sim, "_run_relaxed", _engine_layer, self._on_engine),
            (cli, "run_arq", "simulator.arq", self._on_engine),
            (cli, "trace_csv", "simulator.trace_csv", self._on_trace_csv),
            (cdc.DecoderState, "ingest", "codec.ingest", self._on_ingest),
            (cdc.DecoderState, "decode", "codec.decode", None),
            (cdc, "encode", "codec.encode", None),
            (cdc, "systematic_packet", "codec.encode", None),
            (cdc, "pack_packet", "codec.wire", None),
            (cdc, "unpack_packet", "codec.wire", None),
            (cdc, "gf_dot_rows", "gf256.dot_rows", None),
            (workloads, "call_cli", "cli", self._on_cli_output),
            (workloads, "codec_roundtrip", "bench.roundtrip", self._on_roundtrip),
        ]

    def _install(self):
        for owner, attr, layer, on_result in self._targets:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrapper(orig, layer, on_result))

    def _uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrapper(self, fn, layer, on_result):
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, on_result=on_result, **kwargs)
        return traced

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-layer (total inclusive time, self time, span count)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        incl = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i in range(n):
            name = self.layers[self.layer[i]]
            dur = self.end[i] - self.start[i]
            incl[name] += dur
            own[name] += dur - child[i]
            calls[name] += 1
        return incl, own, calls

    def write(self, path):
        """Write every span as gzipped CSV: layer, start_s, end_s, parent, op."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("span,layer,start_s,end_s,parent,op\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.layers[self.layer[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op_id[i]}\n")

    def metrics(self, n_ops):
        """Per-layer metrics as {name: (value, unit)}, from the spans and counts.

        Times, calls, packets and bytes are per traced operation, so runs that
        fit different numbers of operations compare directly; rates and ratios
        are over the whole run. Also returns the per-operation sum of every
        layer's self time, which equals the traced operation time.
        """
        incl, own, calls = self.self_times()
        c = self.counts
        per_op = 1.0 / max(n_ops, 1)
        m = {}

        def add(name, value, unit, rate=False):
            m[name] = (value if rate else value * per_op, unit)

        add("params.calls", calls["params"], "count")
        add("params.self_s", own["params"], "s")
        add("params.assumption_warnings", c["params.assumption_warnings"], "count")
        add("kernel.build.calls", calls["kernel.build"], "count")
        add("kernel.build.self_s", own["kernel.build"], "s")
        add("kernel.build.matrix_bytes", c["kernel.build.matrix_bytes"], "B")
        add("kernel.build.horizon_rounds", c["kernel.build.horizon_rounds"], "count")
        add("kernel.p_z.calls", calls["kernel.p_z"], "count")
        add("kernel.p_z.self_s", own["kernel.p_z"], "s")
        add("moments.calls", calls["moments"], "count")
        add("moments.self_s", own["moments"], "s")
        add("delay.calls", calls["delay"], "count")
        add("delay.self_s", own["delay"], "s")
        add("delay.terms_evaluated", c["delay.terms_evaluated"], "count")
        add("delay.truncated_mass_max", c["delay.truncated_mass_max"], "prob", rate=True)
        add("efficiency.calls", calls["efficiency"], "count")
        add("efficiency.self_s", own["efficiency"], "s")
        add("optimizer.points", c["optimizer.points"], "count")
        add("optimizer.failed_points", c["optimizer.failed_points"], "count")
        add("optimizer.self_s", own["optimizer"], "s")
        for v in SIM_VARIANTS:
            layer = "simulator." + v
            add(layer + ".packets", c[layer + ".packets"], "count")
            add(layer + ".self_s", own[layer], "s")
            # throughput over the engine's whole span, codec work below it included
            add(layer + ".packets_per_s", _ratio(c[layer + ".packets"], incl[layer]),
                "packets/s", rate=True)
        add("simulator.generations", c["simulator.generations"], "count")
        add("simulator.extra_rounds", c["simulator.extra_rounds"], "count")
        add("simulator.useful_ratio",
            _ratio(c["simulator.info_packets"], c["simulator.received_packets"]), "ratio", rate=True)
        add("simulator.trace_csv.self_s", own["simulator.trace_csv"], "s")
        add("simulator.trace_csv.bytes", c["simulator.trace_csv.bytes"], "B")
        add("simulator.trace_csv.bytes_per_s",
            _ratio(c["simulator.trace_csv.bytes"], incl["simulator.trace_csv"]), "B/s", rate=True)
        add("codec.ingest.calls", calls["codec.ingest"], "count")
        add("codec.ingest.self_s", own["codec.ingest"], "s")
        add("codec.ingest.innovative_ratio",
            _ratio(c["codec.ingest.innovative"], calls["codec.ingest"]), "ratio", rate=True)
        add("codec.encode.calls", calls["codec.encode"], "count")
        add("codec.encode.self_s", own["codec.encode"], "s")
        add("codec.decode.self_s", own["codec.decode"], "s")
        add("codec.wire.self_s", own["codec.wire"], "s")
        add("codec.payload_bytes_per_s",
            _ratio(c["codec.payload_bytes"], incl["bench.roundtrip"]), "B/s", rate=True)
        add("gf256.dot_rows.calls", calls["gf256.dot_rows"], "count")
        add("gf256.dot_rows.self_s", own["gf256.dot_rows"], "s")
        add("cli.self_s", own["cli"], "s")
        add("cli.output_bytes", c["cli.output_bytes"], "B")
        add("bench.self_s", own["bench"] + own["bench.roundtrip"], "s")
        return m, sum(own.values()) * per_op
