"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads design,point] [--trace 0]
                                [--out perfbench/baseline.json]

Runs are made one at a time. For every workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median, which BENCHMARK.json's bound
on that metric has to cover. --out writes the same summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.splitlines()
            out = json.loads(lines[-1])
            out["wall_s"] = wall
            out["meta"] = json.loads(lines[-2][len("meta "):])
            runs.append(out)
            print(f"{name} seed {seed}: {wall:.1f} s wall, {out['attempted']} ops, "
                  f"{out['failed']} failed", file=sys.stderr, flush=True)
        metrics = {}
        for key, first in runs[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[key] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0, "values": values}
        summary[name] = {
            "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
            "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "machine_slowdown": [round(r["meta"]["machine_slowdown"], 3) for r in runs],
            "metrics": metrics,
        }
        print(f"\n{name}: ops {summary[name]['attempted']} failed {summary[name]['failed']} "
              f"wall {summary[name]['wall_s']} slowdown {summary[name]['machine_slowdown']}")
        for key, m in metrics.items():
            bound = bounds.get(key)
            note = f"  bound {bound} (spread/bound {m['spread'] / bound:.2f})" if bound else ""
            print(f"  {key:<40} median {m['median']:<12.6g} {m['unit']:<10} "
                  f"spread {m['spread']:.4f}{note}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
