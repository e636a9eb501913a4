"""Compare two result files written by collect.py, metric by metric.

    python3 bench/compare.py BASE.json NEW.json

For each workload and end-to-end metric of BENCHMARK.json it prints both
medians, both spreads (distance between the quartiles over the median), the
change as a share of the base median (positive is worse) and a verdict:

  improved    every new run is better than every base run
  unresolved  a spread is wider than the bound, so the runs cannot tell
  regression  the median got worse by more than the metric's bound
  same        none of the above

It also flags a change in failure counts, correctness or output digests.
A metric is never called improved when the share of failed ops grew. Exit
code 1 when any metric regressed, the share of failed ops grew, or any run
(base or new) was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from collect import load_benchmark, spread


def verdict(base: list[float], new: list[float], better: str, bound: float, more_failed: bool) -> tuple[float, str]:
    b, n = statistics.median(base), statistics.median(new)
    change = (n - b) / b if better == "lower" else (b - n) / b
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if all_better and not more_failed:  # ops that fail fast are no improvement
        return change, "improved"
    if max(spread(base), spread(new)) > bound:
        return change, "unresolved"
    if change > bound:
        return change, "regression"
    return change, "same"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()

    bench = load_benchmark()
    base = json.loads(args.base.read_text())["runs"]
    new = json.loads(args.new.read_text())["runs"]
    bad = False
    for name in (w["name"] for w in bench["workloads"]):
        if name not in base or name not in new:
            print(f"{name}: missing from {'base' if name not in base else 'new'}")
            continue
        b_runs, n_runs = base[name], new[name]
        fail_share = [max(r["failed"] / r["attempted"] for r in runs) for runs in (b_runs, n_runs)]
        more_failed = fail_share[1] > fail_share[0]
        print(f"{name} ({len(b_runs)} base runs, {len(n_runs)} new runs)")
        print(f"  {'metric':16s} {'base':>12s} {'new':>12s} {'spread b':>9s} {'spread n':>9s} {'change':>8s} bound  verdict")
        for m in bench["end_to_end"]:
            bv = [r["metrics"][m["name"]] for r in b_runs]
            nv = [r["metrics"][m["name"]] for r in n_runs]
            change, v = verdict(bv, nv, m["better"], m["bound"], more_failed)
            bad |= v == "regression"
            print(
                f"  {m['name']:16s} {statistics.median(bv):12.6g} {statistics.median(nv):12.6g} "
                f"{spread(bv):9.4f} {spread(nv):9.4f} {change:+8.4f} {m['bound']:<5} {v}"
            )
        for key in ("failed", "attempted"):
            bk, nk = sorted({r[key] for r in b_runs}), sorted({r[key] for r in n_runs})
            if bk != nk:
                print(f"  {key} per run changed: {bk} -> {nk}")
        if more_failed:
            print(f"  MORE FAILURES: worst failed share per run {fail_share[0]:.6g} -> {fail_share[1]:.6g}")
            bad = True
        for which, runs in (("base", b_runs), ("new", n_runs)):
            if not all(r["correct"] for r in runs):
                print(f"  INCORRECT output in {which} runs")
                bad = True
        b_dig = {r["seed"]: r.get("digest") for r in b_runs}
        changed = [r["seed"] for r in n_runs if r["seed"] in b_dig and b_dig[r["seed"]] != r.get("digest")]
        if changed:
            print(f"  output digest changed for seeds {changed}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
