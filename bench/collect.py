"""Run every workload of BENCHMARK.json over several seeds and save the results.

    python3 bench/collect.py --runs 10 --out results.json [--trace]

Each run is ``python3 bench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`` from the checkout root, for S = 1 .. runs; the traced run uses seed 1. The file written holds, per workload,
every run's metrics, counts and output digest, and with ``--trace`` one traced
run's per-layer table. It prints each end-to-end metric's median and its
spread (distance between the quartiles over the median) next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *bench["command"][1:]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    run = {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }
    for line in lines:
        if line.strip().startswith("digest sha256:"):
            run["digest"] = line.split()[1]
    return run


def spread(values: list[float]) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    doc = {"run_seconds": bench["run_seconds"], "runs": {}, "traced": {}}
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(bench, name, seed, 0))
            print(f"{name} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr, flush=True)
        doc["runs"][name] = runs
        if args.trace:
            doc["traced"][name] = run_once(bench, name, 1, 1)["metrics"]
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for name in names:
        runs = doc["runs"][name]
        print(f"{name}: {len(runs)} runs, failed {sorted({r['failed'] for r in runs})}, "
              f"all correct {all(r['correct'] for r in runs)}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            s = spread(values)
            flag = "ok" if s < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:16s} median {statistics.median(values):12.6g} {m['unit']:5s} "
                  f"spread {s:.4f} bound {m['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
