"""Self-tests of the benchmark: tiny runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a seed always generates the same operations, and that a corrupted program
output is counted as a failed operation.
"""

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
import warnings
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import codedelay.cli  # noqa: E402
import codedelay.codec  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(workloads.WORKLOADS))
        for name, (trace, key) in itertools.product(
                workloads.WORKLOADS, ((0, "end_to_end"), (1, "per_layer"))):
            with self.subTest(workload=name, trace=trace):
                out = bench(name, trace)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(out["attempted"], 1)
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in out["metrics"].items():
                    self.assertIsInstance(v["value"], float, k)
                if trace == 0:
                    for k, v in out["metrics"].items():
                        self.assertGreater(v["value"], 0.0, k)

    def test_source_checkout_required(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=ROOT) as bare:
            bare = Path(bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "point", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class SeededOperations(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = list(itertools.islice(cls().ops(7), 50))
                again = list(itertools.islice(cls().ops(7), 50))
                other = list(itertools.islice(cls().ops(8), 50))
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_generated_channels_have_the_drawn_bdp(self):
        for name, cls in workloads.WORKLOADS.items():
            for op in itertools.islice(cls().ops(1), 200):
                self.assertEqual(workloads.channel_of(op).bdp, op["bdp"], (name, op))


def _skewed_cell(v):
    return repr(float(v) * 1.5) if isinstance(v, float) else _csv_cell(v)


def _flipped_decode(self):
    out = _decode(self).copy()
    out[0, 0] ^= 1
    return out


_csv_cell = codedelay.cli.OutputTable._csv_cell
_decode = codedelay.codec.DecoderState.decode


class CorruptedOutputFails(unittest.TestCase):
    def test_corruption_is_counted(self):
        corrupt = {
            "design": mock.patch.object(codedelay.cli.OutputTable, "_csv_cell",
                                        staticmethod(_skewed_cell)),
            "point": mock.patch.object(codedelay.cli.OutputTable, "_csv_cell",
                                       staticmethod(_skewed_cell)),
            "simulate": mock.patch.object(codedelay.cli.OutputTable, "_csv_cell",
                                          staticmethod(_skewed_cell)),
            "trace-codec": mock.patch.object(codedelay.codec.DecoderState, "decode",
                                             _flipped_decode),
        }
        warnings.simplefilter("ignore")
        for name, patch in corrupt.items():
            with self.subTest(workload=name), \
                    tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=ROOT) as scratch:
                with patch:
                    result = run.run_loop(workloads.WORKLOADS[name](), 5, 0.5, scratch,
                                          speed.SpeedProbe())
                self.assertGreaterEqual(result.attempted, 1)
                self.assertEqual(result.failed, result.attempted)
                self.assertEqual(result.ok, [])


if __name__ == "__main__":
    unittest.main()
