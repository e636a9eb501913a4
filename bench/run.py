"""Run one trisym benchmark workload and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/`` there
and nowhere else. With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics;
with ``--trace 1`` the metrics are the per-layer ones of a traced run. The
lines before it name every failed input, give the unscaled times and the
output digest. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# fresh processes timed for setup_s: at least 5, more while they take under 2 s in all
SETUP_SAMPLES = (5, 15)
SETUP_SECONDS = 2.0


# Host speed on a shared machine drifts by a fifth over minutes, for every
# process alike. A fixed Fraction kernel, independent of trisym, is timed after
# every op; each completed op's wall time is scaled by REFERENCE_MS over the
# kernel's local time, so the metrics read the program at one nominal speed.
REFERENCE_MS = 2.5


def reference_kernel() -> Fraction:
    xs = [Fraction(k, k + 3) for k in range(1, 60)]
    acc = Fraction(0)
    for a in xs:
        for b in xs[:4]:
            acc += a * b - b / (a + 1)
    return acc


def host_sample() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


class OpTimeout(BaseException):
    """Raised from the CPU-time alarm; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _import_trisym():
    """Import the package from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "trisym" / "__init__.py").is_file():
        sys.exit(f"bench: no trisym package under {src}; run from the root of a trisym checkout")
    sys.path[:0] = [str(src), str(BENCH)]
    import trisym

    if Path(trisym.__file__).resolve().parent != (src / "trisym").resolve():
        sys.exit(f"bench: imported trisym from {trisym.__file__}, not from {src}")
    import workloads

    return workloads


def execute(workload, op):
    """Run one op under the workload's CPU budget: (latency s, output, error, timed out)."""
    t0 = perf_counter()
    out, err, timed_out = None, None, False
    try:
        signal.setitimer(signal.ITIMER_PROF, workload.budget_s)
        try:
            out = workload.run(op)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except OpTimeout:
        err, timed_out = f"timeout after {workload.budget_s} s CPU", True
    except Exception as exc:  # any exception is a counted failure, never a crash of the run
        err = f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, err, timed_out


def run_phase(workload, seed, seconds, min_ops, tracer=None, n_blocks=None):
    """Run whole blocks until ``seconds`` of op time and ``min_ops`` ops are done
    (or exactly ``n_blocks`` blocks). Outputs are kept, compressed, for checking."""
    records, kept, timed = [], [], 0.0
    host = [host_sample()]  # host[i] is taken before op i, host[i + 1] after it
    for n, block in enumerate(workload.blocks(seed), 1):
        outs = []
        for op in block:
            span = tracer.begin(len(records)) if tracer else None
            dt, out, err, timed_out = execute(workload, op)
            if tracer:
                tracer.finish(span)
            host.append(host_sample())
            timed += dt
            records.append({"op": op, "latency": dt, "error": err, "timed_out": timed_out})
            outs.append(zlib.compress(out.encode(), 1) if isinstance(out, str) else out)
        kept.append((len(records) - len(block), block, outs))
        if n_blocks is not None:
            if n >= n_blocks:
                break
        elif timed >= seconds and len(records) >= min_ops:
            break
    # a timeout took its CPU budget whatever the host speed, so it is not scaled
    for i, rec in enumerate(records):
        speed = REFERENCE_MS / 1e3 / statistics.median(host[max(0, i - 1) : i + 3])
        rec["scaled"] = rec["latency"] if rec["timed_out"] else rec["latency"] * speed
    return records, kept, timed, n


def check_outputs(workload, records, kept) -> bool:
    """Check every output against the oracles; a wrong output is a failed op."""
    correct = True
    for first, block, outs in kept:
        outs = [zlib.decompress(o).decode() if isinstance(o, bytes) else o for o in outs]
        for i, (op, out) in enumerate(zip(block, outs)):
            rec = records[first + i]
            if rec["error"] is None:
                rec["text"] = workload.text(out)
                problem = workload.check(op, out)
                if problem:
                    rec["error"] = f"wrong output: {problem}"
                    correct = False
    return correct


def digest(records, n_ops) -> str:
    h = hashlib.sha256()
    for rec in records[:n_ops]:
        h.update(rec["op"].label.encode() + b"\n")
        h.update((rec.get("text") or f"FAIL {rec['error']}").encode() + b"\n")
    return h.hexdigest()


def setup_seconds(workload_name) -> list[float]:
    """Wall time of fresh interpreters running bench/probe.py (the import and
    the warm-up), each scaled to the nominal host speed like the op latencies."""
    times, scaled = [], []
    cmd = [sys.executable, str(BENCH / "probe.py"), workload_name]
    fewest, most = SETUP_SAMPLES
    host = host_sample()
    while len(times) < fewest or (len(times) < most and sum(times) < SETUP_SECONDS):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        after = host_sample()
        scaled.append(times[-1] * REFERENCE_MS / 1e3 / ((host + after) / 2))
        host = after
    return scaled


def summarize(records, key="scaled"):
    """ops_per_s and latency percentiles from the scaled (or the raw) latencies."""
    lat = sorted(r[key] * 1e3 for r in records)
    failed = sum(1 for r in records if r["error"])
    return {
        "ops_per_s": (len(records) - failed) / (sum(lat) / 1e3),
        "latency_ms_p50": statistics.median(lat),
        "latency_ms_p90": statistics.quantiles(lat, n=10)[-1],
    }, failed


def report_failures(records) -> None:
    """One line per distinct failed input, naming it."""
    by_input: dict[tuple, int] = {}
    for r in records:
        if r["error"]:
            key = (r["op"].label, r["error"])
            by_input[key] = by_input.get(key, 0) + 1
    for (label, error), count in by_input.items():
        print(f"  FAIL x{count}: {label}: {error}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = _import_trisym()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    signal.signal(signal.SIGPROF, _on_alarm)
    setups = None if args.trace else setup_seconds(workload.name)
    workload.warmup()
    # a traced run is two phases, untraced then traced, each of half the work
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_ops = workload.min_ops // 2 if args.trace else workload.min_ops
    records, kept, timed, n_blocks = run_phase(workload, args.seed, seconds, min_ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = check_outputs(workload, records, kept)

    if args.trace:
        import tracing
        from trisym import rootsys

        untraced, _ = summarize(records)
        cached = rootsys.build_root_system
        tracer = tracing.Tracer()
        tracing.install(tracer)
        cached.cache_clear()  # the traced warm-up builds every root system again
        tracer.start_setup(cached.cache_info)
        workload.warmup()
        tracer.stop_setup()
        records, kept, timed, _ = run_phase(workload, args.seed, seconds, min_ops, tracer=tracer, n_blocks=n_blocks)
        correct = check_outputs(workload, records, kept) and correct
        traced, failed = summarize(records)
        values = tracer.summary(len(records))
        values["trace.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
        spans = BENCH / "out" / f"spans-{workload.name}-s{args.seed}.jsonl.gz"
        spans.parent.mkdir(exist_ok=True)
        tracer.dump(spans)
    else:
        values, failed = summarize(records)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = rss_mb
        units = {"setup_s": "s", "ops_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms", "peak_rss_mb": "MB"}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    n = len(records)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {n} ops in {n_blocks} blocks, {timed:.3f} s of op time")
    for k, m in metrics.items():
        print(f"  {k} {m['value']:.6g} {m['unit']}")
    if setups:
        print(f"  setup samples (scaled) {', '.join(f'{t:.4f}' for t in setups)} s")
    raw, _ = summarize(records, key="latency")
    print(f"  unscaled: {', '.join(f'{k} {v:.6g}' for k, v in raw.items())}")
    print(f"  latency samples {n}, {n - int(0.9 * n)} above p90")
    print(f"  fail_ratio {failed / n:.6g} ({failed}/{n})")
    report_failures(records)
    first_block = len(kept[0][1])
    print(f"  digest sha256:{digest(records, first_block)} (first block, {first_block} ops)")
    if args.trace:
        print(f"  spans written to {spans}")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
