"""One op of each benchmark workload, run and checked in-process through
``bench/workloads.py``, so a change to what the benchmark reads of trisym
fails here instead of in ``bench/run.py``."""

from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its output checks as the top-level module ``oracle``
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import workloads

        yield workloads


@pytest.mark.parametrize(
    "name,args",
    [
        ("catalog-solve", "E7-II"),
        ("sweep-generic", ((F(1, 4), F(1, 3), F(1, 5)), 50)),
        ("sweep-pair", ((F(1, 8), F(1, 8), F(3, 10)), 10)),
        # a2 = 1/2: the x3 eliminant has a root isolated around 1, the point (1, 0, 1) the solver skips
        ("sweep-generic", ((F(1, 4), F(1, 2), F(1, 1000)), 300)),
        # a1 + a2 + a3 = 1/2: two exact metrics at the pivot point of the generic branch, beside two intervals
        pytest.param("catalog-solve", "A-III --l 5 --i 1 --j 3", id="catalog-solve-A-III-l5-i1-j3"),
    ],
)
def test_one_op_passes_its_check(workloads, name, args):
    workload = workloads.WORKLOADS[name]
    if name == "catalog-solve":
        label, *flags = args.split()
        op = workload._op(label, [(k.removeprefix("--"), v) for k, v in zip(flags[::2], flags[1::2])])
    else:
        op = workloads.Op(workloads._triple_label(*args), args)
    out = workload.run(op)
    assert workload.check(op, out) is None
    assert workload.text(out)
    if name != "catalog-solve":
        assert out and all(s.einstein_constant_sign == "positive" for s in out)
