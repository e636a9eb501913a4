"""Span tracing of trisym's public functions, installed from outside the package.

``install`` wraps each function named in ``TRACED`` and rebinds every module
attribute under ``trisym`` that refers to it (``polysolve.count_real_roots``
and ``einstein.count_real_roots`` alike), so calls made inside the package are
seen too. The package source is not touched.

Each call made while an op or the warm-up is active records a span: name,
start, end, parent span and op id. Spans stay in memory in flat arrays and are
summarised into per-layer metrics when the run ends. A layer's self time is the
time of its spans minus the time covered by their child spans. Counters read
from arguments and results cover the ops only; of the warm-up, only the
rootsys spans enter the summary.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# layer -> public functions whose calls are spans of that layer
TRACED = {
    "rootsys": ("build_root_system",),
    "cases": ("case_dims", "enumerate_cases", "find_cases", "make_case"),
    "coeffs": ("coefficients_for_case",),
    "einstein": ("solve_case", "solve_einstein", "refine_solution", "verify_solution"),
    "polysolve": (
        "resultant",
        "squarefree_part",
        "sturm_sequence",
        "count_real_roots",
        "isolate_real_roots",
        "refine_root",
        "poly_gcd",
    ),
    "surd": ("squarefree_decompose", "make_quadratic", "roots_of_quadratic"),
    "intervals": ("eval_poly_range",),
    "serialize": ("encode_case", "encode_solution", "envelope", "to_json", "render_csv", "render_table"),
    "cli": ("main",),
}

BRANCHES = ("standard", "equal-pair-linear", "equal-pair-sum", "generic")

OP = "op"  # name of the root span of each op; its self time is unattributed
SETUP_OP = -1  # op id of the spans recorded during the traced warm-up


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs), default=0)


class Tracer:
    """In-memory span store plus the counters read at layer boundaries."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._name_id = {OP: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op = SETUP_OP
        self.active = False
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self._cache_info = None
        self._cache_start = None

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _max(self, key: str, v: int) -> None:
        if v > self.maxima.get(key, 0):
            self.maxima[key] = v

    def _observe(self, name: str, args, result) -> None:
        """Counters read from a traced call's arguments and result."""
        if name == "polysolve.isolate_real_roots":
            self._max("polysolve.eliminant_bits_max", _coeff_bits(args[0]))
            self._count("polysolve.roots_isolated", len(result))
        elif name == "einstein.solve_einstein":
            for sol in result:
                self._count(f"einstein.solutions.{sol.branch}")
                if sol.einstein_constant_sign == "indeterminate":
                    self._count("einstein.sign_indeterminate")
        elif name in ("cases.enumerate_cases", "cases.find_cases"):
            self._count("cases.cases_listed", len(result))
        elif name in ("serialize.to_json", "serialize.render_csv", "serialize.render_table"):
            self._count("serialize.output_bytes", len(result))

    def wrap(self, name: str, fn):
        name_id = self._name_id.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            in_op = self._op != SETUP_OP  # the warm-up counts towards rootsys only
            if in_op and name == "surd.squarefree_decompose":  # read before the call: it may never return
                self._max("surd.radicand_bits_max", args[0].bit_length())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if in_op:
                self._observe(name, args, result)
            return result

        return traced

    # -- ops -----------------------------------------------------------------

    def begin(self, op_id: int) -> int:
        self._op = op_id
        self.active = True
        return self._open(0)

    def finish(self, idx: int) -> None:
        """Close the op's root span. A timeout can interrupt the bookkeeping of
        a span mid-way; such a span is cut to zero length."""
        self.active = False
        n = min(len(self.name), len(self.start), len(self.end), len(self.parent), len(self.op))
        for column in (self.name, self.start, self.end, self.parent, self.op):
            del column[n:]
        self.end[idx] = perf_counter()
        for i in range(idx + 1, n):
            if self.end[i] == 0.0:
                self.end[i] = self.start[i]
        self._stack.clear()
        self._op = SETUP_OP

    def start_setup(self, cache_info) -> None:
        """Trace the warm-up as op SETUP_OP, without a root span."""
        self._cache_info = cache_info
        self._cache_start = cache_info()
        self._op = SETUP_OP
        self.active = True

    def stop_setup(self) -> None:
        self.active = False

    # -- summary -------------------------------------------------------------

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics over the traced ops (rootsys also over the warm-up)."""
        n = len(self.name)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        fn_calls: dict[str, int] = {}
        fn_ms: dict[str, float] = {}
        layer_self_ms: dict[str, float] = {}
        verify_refines = 0
        op_total: dict[int, float] = {}
        op_parts: dict[int, float] = {}
        verify_id = self._name_id.get("einstein.verify_solution", -2)
        for i in range(n):
            dur = self.end[i] - self.start[i]
            self_ms = (dur - child_time[i]) * 1e3
            name = self.names[self.name[i]]
            op_id = self.op[i]
            if name == OP:
                op_total[op_id] = dur * 1e3
            op_parts[op_id] = op_parts.get(op_id, 0.0) + self_ms
            if op_id == SETUP_OP and not name.startswith("rootsys."):
                continue
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_ms[name] = fn_ms.get(name, 0.0) + dur * 1e3
            layer = name.split(".", 1)[0]
            if op_id != SETUP_OP:
                layer_self_ms[layer] = layer_self_ms.get(layer, 0.0) + self_ms
            if name == "einstein.refine_solution" and self.parent[i] >= 0 and self.name[self.parent[i]] == verify_id:
                verify_refines += 1
        # per op: layer self times plus unattributed time add up to the op's time
        for op_id, total in op_total.items():
            if abs(op_parts[op_id] - total) > 1e-6 * max(total, 1.0):
                raise AssertionError(f"op {op_id}: self times {op_parts[op_id]} ms != op time {total} ms")

        ops = max(n_ops, 1)

        def calls(fn):
            return fn_calls.get(fn, 0)

        def per_call_ms(fn):
            return fn_ms.get(fn, 0.0) / calls(fn) if calls(fn) else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        info_end = self._cache_info() if self._cache_info else None
        hits = info_end.hits - self._cache_start.hits if info_end else 0
        misses = info_end.misses - self._cache_start.misses if info_end else 0
        m: dict[str, float] = {
            "rootsys.build_root_system.calls": calls("rootsys.build_root_system"),
            "rootsys.build_root_system.ms_total": fn_ms.get("rootsys.build_root_system", 0.0),
            "rootsys.cache_hit_ratio": ratio(hits, hits + misses),
            "cases.self_ms_per_op": layer_self_ms.get("cases", 0.0) / ops,
            "cases.case_dims.calls_per_op": calls("cases.case_dims") / ops,
            "cases.case_dims.calls_per_case": ratio(calls("cases.case_dims"), c.get("cases.cases_listed", 0)),
            "cases.enumerate_cases.ms_per_call": per_call_ms("cases.enumerate_cases"),
            "cases.find_cases.ms_per_call": per_call_ms("cases.find_cases"),
            "coeffs.self_ms_per_op": layer_self_ms.get("coeffs", 0.0) / ops,
            "coeffs.coefficients_for_case.calls_per_op": calls("coeffs.coefficients_for_case") / ops,
            "einstein.self_ms_per_op": layer_self_ms.get("einstein", 0.0) / ops,
            "einstein.solve_einstein.ms_per_call": per_call_ms("einstein.solve_einstein"),
            "einstein.refine_solution.calls_per_op": calls("einstein.refine_solution") / ops,
            "einstein.verify_solution.ms_per_call": per_call_ms("einstein.verify_solution"),
            "einstein.verify_refines_per_solution": ratio(verify_refines, calls("einstein.verify_solution")),
        }
        for branch in BRANCHES:
            m[f"einstein.solutions.{branch}_per_op"] = c.get(f"einstein.solutions.{branch}", 0) / ops
        m["einstein.sign_indeterminate"] = c.get("einstein.sign_indeterminate", 0)
        m.update(
            {
                "polysolve.self_ms_per_op": layer_self_ms.get("polysolve", 0.0) / ops,
                "polysolve.resultant.calls_per_op": calls("polysolve.resultant") / ops,
                "polysolve.squarefree_part.calls_per_op": calls("polysolve.squarefree_part") / ops,
                "polysolve.sturm_sequence.calls_per_op": calls("polysolve.sturm_sequence") / ops,
                "polysolve.count_real_roots.calls_per_op": calls("polysolve.count_real_roots") / ops,
                "polysolve.isolate_real_roots.ms_per_call": per_call_ms("polysolve.isolate_real_roots"),
                "polysolve.refine_root.ms_per_call": per_call_ms("polysolve.refine_root"),
                "polysolve.sturm_chains_per_root": ratio(
                    calls("polysolve.sturm_sequence"), c.get("polysolve.roots_isolated", 0)
                ),
                "polysolve.eliminant_bits_max": self.maxima.get("polysolve.eliminant_bits_max", 0),
                "surd.self_ms_per_op": layer_self_ms.get("surd", 0.0) / ops,
                "surd.squarefree_decompose.calls_per_op": calls("surd.squarefree_decompose") / ops,
                "surd.squarefree_decompose.ms_per_call": per_call_ms("surd.squarefree_decompose"),
                "surd.roots_of_quadratic.calls_per_op": calls("surd.roots_of_quadratic") / ops,
                "surd.radicand_bits_max": self.maxima.get("surd.radicand_bits_max", 0),
                "intervals.self_ms_per_op": layer_self_ms.get("intervals", 0.0) / ops,
                "intervals.eval_poly_range.calls_per_op": calls("intervals.eval_poly_range") / ops,
                "serialize.self_ms_per_op": layer_self_ms.get("serialize", 0.0) / ops,
                "serialize.output_bytes_per_op": c.get("serialize.output_bytes", 0) / ops,
                "cli.self_ms_per_op": layer_self_ms.get("cli", 0.0) / ops,
                "trace.unattributed_ms_per_op": layer_self_ms.get(OP, 0.0) / ops,
                "trace.spans_per_op": sum(1 for i in range(n) if self.op[i] != SETUP_OP) / ops,
            }
        )
        return m

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        import gzip
        import json

        with gzip.open(path, "wt") as fh:
            for i in range(len(self.name)):
                fh.write(
                    json.dumps([self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]])
                    + "\n"
                )


def unit(metric: str) -> str:
    if metric.endswith(("ms_per_op", "ms_per_call", "ms_total")):
        return "ms"
    if metric.endswith("bits_max"):
        return "bits"
    if metric.endswith("bytes_per_op"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED and rebind each trisym attribute naming it."""
    modules = [m for name, m in list(sys.modules.items()) if name == "trisym" or name.startswith("trisym.")]
    for layer, fns in TRACED.items():
        home = importlib.import_module(f"trisym.{layer}")
        for fn_name in fns:
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{layer}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
