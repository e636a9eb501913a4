"""What certifying the interval solutions costs: x2 link iterations, Sturm chains built, bytes kept.

The passes are the inputs of two benchmark workloads: `trisym solve <label> --format json` on every catalog entry to
rank 12 (``catalog-solve``), and the first block of ``sweep-generic`` at seed 1 (solve, refine to 10^-d and verify at
10^-d). The counts recorded below are those of a run of the same pass; each says which code it was read on.
"""

import contextlib
import gc
import io
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from trisym import cli, einstein, polysolve
from trisym.cases import enumerate_cases
from trisym.coeffs import coefficients_for_case
from trisym.einstein import RootCoordinate, refine_solution, solve_case, verify_solution
from trisym.polysolve import squarefree_part

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _interval_polys(sols):
    return [c.interval.poly for s in sols for c in s.x if isinstance(c, RootCoordinate)]


def _chains_kept(sols) -> int:
    """Sturm chains the solutions' interval polynomials and their systems' x3 eliminants hold."""
    polys = _interval_polys(sols) + [s.system.x3 for s in sols if not s.is_exact]
    return sum(squarefree_part(p)._chain is not None for p in polys)


class Recorder:
    """Counts, by stage, x2 links and their ``eval_poly_range`` calls, and per refine or verify call the carves
    around exact dyadic hits and the Sturm chains built (``_chain`` fills)."""

    def __init__(self, mp: pytest.MonkeyPatch):
        self.stage = "solve"
        self.calls = Counter()  # (kind, stage) -> count
        self.per_link: list[int] = []  # eval_poly_range calls of each verify link
        self.per_call: list[tuple[str, int, int]] = []  # (stage, carves, fills) of each refine or verify call
        self.chains_kept_after_solve = 0
        self.carves = self.fills = 0
        epr, link = einstein.eval_poly_range, einstein._link_x2_interval
        carve, chain = polysolve._carve, polysolve.Polynomial._sturm_chain

        def counted_epr(*args):
            self.calls["eval_poly_range", self.stage] += 1
            return epr(*args)

        def counted_link(*args):
            self.calls["link", self.stage] += 1
            before = self.calls["eval_poly_range", self.stage]
            out = link(*args)
            if self.stage == "verify":
                self.per_link.append(self.calls["eval_poly_range", "verify"] - before)
            return out

        def counted_carve(*args):
            self.carves += 1
            return carve(*args)

        def counted_chain(p):
            self.fills += squarefree_part(p)._chain is None
            return chain(p)

        mp.setattr(einstein, "eval_poly_range", counted_epr)
        mp.setattr(einstein, "_link_x2_interval", counted_link)
        mp.setattr(polysolve, "_carve", counted_carve)
        mp.setattr(polysolve.Polynomial, "_sturm_chain", counted_chain)

    def solved(self, sols):
        self.chains_kept_after_solve += _chains_kept(sols)
        return sols

    def staged(self, stage, fn):
        def call(*args):
            self.stage, carves, fills = stage, self.carves, self.fills
            try:
                return fn(*args)
            finally:
                self.per_call.append((stage, self.carves - carves, self.fills - fills))
                self.stage = "solve"

        return call


def _argv(case):
    return ["solve", case.type_label, *(t for k, v in case.params for t in (f"--{k}", str(v))), "--format", "json"]


@pytest.fixture(scope="module")
def catalog_pass():
    with pytest.MonkeyPatch.context() as mp:
        rec = Recorder(mp)
        solve = cli.solve_case

        def solved(case):
            result = solve(case)
            rec.solved(result.solutions)
            return result

        mp.setattr(cli, "solve_case", solved)
        mp.setattr(cli, "refine_solution", rec.staged("refine", einstein.refine_solution))
        mp.setattr(cli, "verify_solution", rec.staged("verify", einstein.verify_solution))
        for case in enumerate_cases(12):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(_argv(case)) == 0
        yield rec


@pytest.fixture(scope="module")
def sweep_block():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import workloads

        block = next(workloads.WORKLOADS["sweep-generic"].blocks(1))
        rec = Recorder(mp)
        refine, verify = rec.staged("refine", refine_solution), rec.staged("verify", verify_solution)
        for op in block:
            a, digits = op.args
            width = F(1, 10**digits)
            for s in rec.solved(einstein.solve_einstein(a)):
                assert verify(a, refine(s, width), width)
        yield rec


class TestCatalogPass:
    def test_verify_links_certify_in_one_iteration(self, catalog_pass):
        # one iteration is one range of den and one of num: 853 links, 1,706 calls (4,982 when each round
        # narrowed x2 below the x3 width, 2.9 iterations per link)
        assert catalog_pass.calls["link", "verify"] == len(catalog_pass.per_link) == 853
        assert set(catalog_pass.per_link) == {2}

    def test_solve_and_refine_links_make_the_same_calls(self, catalog_pass):
        # the resumed bisection visits the boxes fresh bisections visited: the counts of the code that bisected
        # afresh once per failed link iteration, where the three kinds of link made 13,779 such calls together
        calls = catalog_pass.calls
        assert (calls["link", "solve"], calls["link", "refine"]) == (853, 853)
        assert (calls["eval_poly_range", "solve"], calls["eval_poly_range", "refine"]) == (3_893, 4_904)

    def test_solutions_keep_no_sturm_chain(self, catalog_pass):
        assert catalog_pass.chains_kept_after_solve == 0

    def test_refine_and_verify_build_chains_only_around_a_carve(self, catalog_pass):
        # the one rank-12 entry whose x3 root is met exactly by the bisection, A-III (l=12, i=1, j=4), carves in
        # refine and in verify; its first refinement builds the x3 chain again, for the carve's isolation test
        calls = catalog_pass.per_call
        assert [(s, c, f) for s, c, f in calls if f and not c] == []
        assert sum(1 for _, c, _ in calls if c) == 4 and sum(f for _, _, f in calls) == 1


class TestSweepBlock:
    def test_solutions_keep_no_sturm_chain(self, sweep_block):
        assert sweep_block.chains_kept_after_solve == 0

    def test_refine_and_verify_build_chains_only_around_a_carve(self, sweep_block):
        calls = sweep_block.per_call
        assert len(calls) >= 240
        assert [(s, c, f) for s, c, f in calls if f and not c] == []


# tracemalloc bytes kept per interval solution by the pass below, read by this test under CPython 3.11 on the code
# whose solutions kept their eliminants' Sturm chains: 2,141,724 bytes for 853 solutions. Without the chains a
# standalone run of the same pass keeps 1,517,140 bytes, about 1,780 per solution.
KEPT_BYTES_WITH_CHAINS = 2_510


def test_bytes_kept_per_interval_solution():
    cases = [c for c in enumerate_cases(12) if not c.isomorphic_summands]
    for c in cases:
        coefficients_for_case(c)  # builds and caches the root systems before the count
    kept = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for c in cases:
            result = solve_case(c)
            sols = [refine_solution(s, F(1, 10**9)) for s in result.solutions]  # the width of `solve --digits 6`
            assert all(verify_solution(result.a, s) for s in sols)
            kept += [s for s in sols if not s.is_exact]
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(kept) == 853
    assert used / len(kept) < KEPT_BYTES_WITH_CHAINS
