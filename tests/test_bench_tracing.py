"""The benchmark's tracer wraps trisym functions by name (``bench/tracing.py``,
``TRACED``); each one must exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, fn) for layer, fns in module.TRACED.items() for fn in fns]


@pytest.mark.parametrize("layer,fn", _traced())
def test_traced_function_exists(layer, fn):
    assert callable(getattr(importlib.import_module(f"trisym.{layer}"), fn, None))
