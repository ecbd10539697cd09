"""Record the outputs that the `design` and `point` workloads are checked against.

    python3 perfbench/record_reference.py [design] [point]

Runs every operation of each workload's pool once through the CLI and writes
perfbench/reference/<workload>.csv: the operation's inputs (in_*) and the
output columns the check compares, to 12 significant digits. The checked-in
files were recorded on the seed tree. Record them again only for a deliberate
change to the program's outputs.
"""

import csv
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)

OUTPUTS = {
    "design": ["k", "b", "mean_s", "std_s", "smoothed_mean_s", "eta"],
    "point": ["b", "mean_s", "std_s", "eta", "truncated_mass"],
}


def record(name):
    wl = workloads.WORKLOADS[name]()
    inputs = ["bdp", "epsilon", "margin"] + (["k"] if name == "point" else [])
    path = workloads.REFERENCE_DIR / f"{name}.csv"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index"] + [f"in_{k}" for k in inputs] + OUTPUTS[name])
        for j in range(wl.pool):
            op = wl.op(j)
            (row,) = workloads._rows(wl.execute(op, None)[0])
            if row.get("error"):
                raise RuntimeError(f"{name} operation {j} failed: {row['error']}")
            outs = [row[c] if c in ("k", "b") else f"{float(row[c]):.12g}" for c in OUTPUTS[name]]
            w.writerow([j] + [op[k] for k in inputs] + outs)
            if j % 512 == 511 or j == wl.pool - 1:
                print(f"{name}: {j + 1}/{wl.pool}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    for name in sys.argv[1:] or ["design", "point"]:
        record(name)
