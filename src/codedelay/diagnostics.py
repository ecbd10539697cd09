"""What one CLI run did, as one JSON object (`--diagnostics FILE|-`).

The report says where the run's time went, how far its analytic numbers can
be trusted and what the simulator dropped. It never changes what the command
prints on stdout.

Time. While a report records, the functions the CLI's layers call are
replaced, at the names their callers look them up by, with wrappers that time
each call; `recording` puts the originals back when the command ends. With
no report nothing is replaced, so the timer costs nothing. The stages are
named after perfbench's layers (params, kernel.build, delay, efficiency,
optimizer, simulator.<engine>, simulator.trace_csv), and each reports its
self time, its time less that of the stages it called, and its call count;
`cli` is what the command spent outside every stage, so the self times add
up to total_s.

Points, searches and simulations come from the code that computes them:
`active` is the report while one records, else None, and that code adds to
it only when it is not None.
"""

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

active = None   # the Report of the command that runs with --diagnostics, else None


def _engine(cfg, _rngs):
    return "simulator." + cfg.mode + ("_codec" if cfg.use_real_codec else "")


def _stage_targets(cli):
    """(module, name, stage) of every function the stage timer wraps; cli is the CLI's module,
    which runs as __main__ under `python -m codedelay.cli`."""
    from . import delay, optimizer, simulator
    return [(cli, "derive_channel", "params"), (cli, "derive_coding", "params"),
            (cli, "redundancy_from_margin", "params"), (optimizer, "derive_coding", "params"),
            (cli, "build_kernel", "kernel.build"), (optimizer, "build_kernel", "kernel.build"),
            (delay, "build_kernel", "kernel.build"),
            (optimizer, "expected_delay", "delay"),
            (cli, "efficiency", "efficiency"), (optimizer, "efficiency", "efficiency"),
            (cli, "default_k_range", "optimizer"), (cli, "sweep", "optimizer"),
            (cli, "smooth_local_maxima", "optimizer"), (cli, "k_star", "optimizer"),
            (cli, "tradeoff_curve", "optimizer"),
            (simulator, "_run_idealized", _engine), (simulator, "_run_relaxed", _engine),
            (cli, "run_arq", "simulator.arq"), (optimizer, "run_arq", "simulator.arq"),
            (cli, "trace_csv", "simulator.trace_csv")]


class Report:
    """The diagnostics of one command, filled while it runs."""

    def __init__(self, command):
        self.command = command
        self.points = []
        self.searches = []
        self.simulations = []
        self.stages = {}    # stage -> [self seconds, calls]
        self._child = []    # per open stage call, the seconds of the stage calls it made
        self._rows = None   # the matrix that owns the last point's kernel rows
        self._drift = None  # max |row sum - 1| over its states 0..i, by i

    def _timed(self, fn, stage):
        def timed(*args, **kwargs):
            name = stage(*args, **kwargs) if callable(stage) else stage
            self._child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                entry = self.stages.setdefault(name, [0.0, 0])
                entry[0] += spent - self._child.pop()
                entry[1] += 1
                if self._child:
                    self._child[-1] += spent
        return timed

    def point(self, coding, kern, dm):
        """A grid point's trust fields, from its size's kernel and DelayMoments.

        A size's kernel is the leading block of the matrix its stage built, and
        the matrix is lower-triangular, so its rows are that matrix's first
        k + 1, whole. |row sum - 1| is taken once per such matrix, with its
        running maximum by state, and each point reads the entry at its k.
        """
        rows = kern.matrix if kern.matrix.base is None else kern.matrix.base
        if rows is not self._rows:
            self._rows = rows
            self._drift = np.maximum.accumulate(np.abs(rows.sum(axis=1) - 1.0))
        self.points.append({
            "k": coding.k, "R": coding.R, "b": coding.b, "within_bdp": coding.within_bdp,
            "horizon": kern.horizon, "row_sum_drift": float(self._drift[coding.k]),
            "terms_evaluated": dm.terms_evaluated, "truncated_mass": dm.truncated_mass})

    def search(self, R, grid_sizes, dropped, evaluated, pruned, stage_tops, k, at_grid_top,
               loose):
        """One k* search: its grid, what it evaluated and pruned, and the edge conditions at k*."""
        self.searches.append({
            "R": R, "grid_sizes": grid_sizes, "dropped": dropped, "evaluated": evaluated,
            "pruned": pruned, "stage_tops": stage_tops, "k_star": k,
            "at_grid_top": at_grid_top, "loose_at_k_star": loose})

    def simulation(self, cfg, stats, arq=False):
        """One engine run's (or pooled replications') margins, rounds and standard error."""
        from .simulator import _ARQ_WARMUP_BDP, _warmup_window
        entry = {"engine": "simulator.arq" if arq else _engine(cfg, None),
                 "replications": stats.replications, "n_delays": stats.n_delays,
                 "se_mean_s": stats.se_mean}
        if arq:
            entry["warmup_packets"] = _ARQ_WARMUP_BDP * cfg.channel.bdp
        else:
            n_gens, warm = _warmup_window(cfg)
            hist = stats.rounds_hist
            entry.update(generations=n_gens, warmup_generations=warm, cooldown_generations=warm,
                         rounds_hist={str(y): hist[y] for y in sorted(hist)},
                         max_round=max(hist, default=0), non_innovative=stats.non_innovative)
        self.simulations.append(entry)

    def to_dict(self, total_s):
        inner = sum(self_s for self_s, _ in self.stages.values())
        stages = {"cli": {"self_s": total_s - inner, "calls": 1}}
        stages.update({name: {"self_s": s, "calls": n}
                       for name, (s, n) in sorted(self.stages.items())})
        return {"command": self.command, "time": {"total_s": total_s, "stages": stages},
                "points": self.points, "searches": self.searches,
                "simulations": self.simulations}


@contextmanager
def recording(command, sink, cli):
    """Record the report of `command` of the CLI module cli while the block runs, then write
    it to sink as one line of JSON, whether or not the block raised."""
    global active
    report = active = Report(command)
    patched = []
    for owner, name, stage in _stage_targets(cli):
        patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, report._timed(getattr(owner, name), stage))
    start = perf_counter()
    try:
        yield report
    finally:
        total = perf_counter() - start
        for owner, name, fn in reversed(patched):
            setattr(owner, name, fn)
        active = None
        sink.write(json.dumps(report.to_dict(total)) + "\n")
