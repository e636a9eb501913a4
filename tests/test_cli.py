import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from trisym import cases, cli, einstein, polysolve, surd
from trisym.cases import enumerate_cases
from trisym.errors import IntegrityError


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "trisym", *args],
        capture_output=True,
        text=True,
    )


class TestList:
    def test_table_contains_expected_rows(self):
        res = run_cli("list", "--max-rank", "4", "--format", "table")
        assert res.returncode == 0
        for needle in ("A-I", "A-II", "F4-I", "F4-II", "D-I"):
            assert needle in res.stdout

    def test_zero_max_rank_is_usage_error(self):
        res = run_cli("list", "--max-rank", "0")
        assert res.returncode == 1
        assert "usage error" in res.stderr

    def test_json_has_all_exceptional_rows(self):
        res = run_cli("list", "--max-rank", "8", "--format", "json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["schema_version"]
        labels = {c["type_label"] for c in doc["payload"]["cases"]}
        for label in ("E6-I", "E6-II", "E6-III", "E7-I", "E7-II", "E7-III", "E8-I", "E8-II"):
            assert label in labels

    def test_json_deterministic(self):
        a = run_cli("list", "--max-rank", "6", "--format", "json")
        b = run_cli("list", "--max-rank", "6", "--format", "json")
        assert a.stdout == b.stdout

    def test_csv(self):
        res = run_cli("list", "--max-rank", "2", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0].startswith("type,")


class TestDims:
    def test_e6_iii(self):
        res = run_cli("dims", "E6-III")
        assert res.returncode == 0
        assert "(14, 28, 12)" in res.stdout
        assert "(1/2, 3/4, 5/12)" in res.stdout
        assert "(1/4, 1/8, 7/24)" in res.stdout

    def test_f4_ii(self):
        res = run_cli("dims", "F4-II")
        assert "(20, 8, 8)" in res.stdout
        assert "(1/9, 5/18, 5/18)" in res.stdout

    def test_a_ii_l5(self):
        res = run_cli("dims", "A-II", "--l", "5")
        assert "(8, 12, 6)" in res.stdout

    def test_inp_tag_selector(self):
        res = run_cli("dims", "InP15", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["payload"]["type_label"] == "E6-III"

    def test_ambiguous_selector(self):
        res = run_cli("dims", "A-III")
        assert res.returncode == 1
        assert "ambiguous" in res.stderr


# sha256 of the stdout of `trisym <argv>`: the first three recorded before the
# integer Sturm kernel, the two edge triples before the single tightening step,
# the four text-format runs before the table shared the solver's approximation
SOLVE_PINS = {
    "solve E7-II --digits 50 --format json": "2fbcb017fec0e2402f96f6fd3c2fa8648a53ae638910bbddbbcc396232e61463",
    "solve E6-III --format json": "4dbd69059edb7fd318fdd7439c189e1ed5dacd8cfb0070d2df232fc31a1db30a",
    "solve --a 1/7 2/9 3/11 --digits 50 --format json": "b4d70953b39722eddb3e77129454f0856617f059f39e60548319abd234e28151",
    "solve --a 1/2 1/1000000 499999/1000000 --format json": "7cb72c33576a5d51f18c066d29a96994d996f1ef374f1555d7b284d9c4910fc0",
    "solve --a 1/1000 499/1000 1/4 --digits 50 --format json": "b1f0835d4ad7db1c63a2928e16495ca5c733195a5451790e5c5d37b07a1b8b2a",
    "solve E7-II --tol 1e-300 --format json": "d305b08e6c5a6978aaa935b4646979f05e5bee32b728a95268a5f4bda281458b",
    "solve --a 4/15 1/5 1/5 --format json": "f72034d1d61a9c09a8389a8adc60e883cd46847e88f5d95c97e4774be2954f8c",
    "solve --a 499/1000 499/1000 1/3 --format json": "337b464bd0772eec7177e657279ff38f726ba783874538b01844bc357037076b",
    "solve E6-II": "5cadf3c06e7a66d953b5a65a929d4591cad32c1e6eebc25301bcc365e818e1b6",
    "solve --a 4/15 1/5 1/5 --digits 30": "f68ce2baeb64328ed8542355d1afb22916771888a5cde6bcfe7444a5acc55aa0",
    "solve --a 2/9 2/9 2/9": "ef71c272edec67201bc670f23510b99ec789317d3c559b5bf9952a208c8f3196",
    "solve E7-II --digits 50": "80cb1952f16bed9742c2f276e2a68549fdd2f5a27f02468e9c9abaab3efc9fb5",
}


class TestSolve:
    @pytest.mark.parametrize("argv", sorted(SOLVE_PINS))
    def test_output_bytes_pinned(self, argv):
        res = run_cli(*argv.split())
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == SOLVE_PINS[argv]

    def test_e7_ii_digits(self):
        res = run_cli("solve", "E7-II", "--digits", "4")
        assert res.returncode == 0
        assert "1.7489" in res.stdout and "1.5535" in res.stdout
        assert "0.7302" in res.stdout
        assert "2 invariant Einstein metric(s)" in res.stdout

    def test_raw_equal_triple(self):
        res = run_cli("solve", "--a", "2/9", "2/9", "2/9")
        assert res.returncode == 0
        assert "4 invariant Einstein metric(s)" in res.stdout

    def test_quarter_triple_standard_only(self):
        res = run_cli("solve", "--a", "1/4", "1/4", "1/4")
        assert "1 invariant Einstein metric(s)" in res.stdout

    def test_json_roundtrip_and_determinism(self):
        a = run_cli("solve", "E6-III", "--format", "json", "--digits", "8")
        b = run_cli("solve", "E6-III", "--format", "json", "--digits", "8")
        assert a.returncode == 0 and a.stdout == b.stdout
        doc = json.loads(a.stdout)
        sols = doc["payload"]["solutions"]
        assert len(sols) == 2
        for s in sols:
            assert s["x"][0] == {"type": "rational", "value": "1/1"}
            assert s["x"][2]["type"] == "interval"

    def test_a_i_accepts_its_listed_parameter(self):
        listed = run_cli("solve", "A-I", "--l", "1", "--format", "json")
        bare = run_cli("solve", "A-I", "--format", "json")
        assert listed.returncode == 0 and bare.returncode == 0
        assert listed.stdout == bare.stdout

    def test_tolerance_far_below_the_solve_width(self):
        res = run_cli("solve", "E7-II", "--tol", f"1/{10**300}")
        assert res.returncode == 0, res.stderr

    def test_not_applicable_case(self):
        res = run_cli("solve", "D-IV", "--l", "4")
        assert res.returncode == 0
        assert "not applicable" in res.stdout

    def test_bad_a_triple(self):
        res = run_cli("solve", "--a", "1/2", "3/4", "1/4")
        assert res.returncode == 1

    def test_missing_selector(self):
        res = run_cli("solve")
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "tol,message",
        [
            ("0", "--tol must be positive"),
            ("-1/2", "--tol must be positive"),
            pytest.param("abc", "--tol 'abc' is not a rational number", id="abc-not a rational number"),
        ],
    )
    @pytest.mark.parametrize("selector", [("--a", "1/7", "2/9", "3/11"), ("E7-II",)])
    def test_bad_tolerance_rejected_before_solving(self, tol, message, selector, monkeypatch, capsys):
        def no_solve(*args):
            raise AssertionError("solver called before --tol was checked")

        monkeypatch.setattr(cli, "solve_einstein", no_solve)
        monkeypatch.setattr(cli, "solve_case", no_solve)
        assert cli.main(["solve", *selector, f"--tol={tol}"]) == 1
        assert f"usage error: {message}" in capsys.readouterr().err

    # sha256 over the stdout, in catalog order, of `solve <label> [--l/--i/--j as listed] --format json`
    # for every catalog entry to rank 12 (the inputs of the catalog-solve benchmark), recorded before
    # the certification loop moved onto integer boxes
    CATALOG_DIGEST = "1a128be85ed2a16ce56a4bbe31c0534e4f8faec2f1bec608ac6e1bdcdaaa4dc4"

    def test_catalog_output_bytes_pinned(self, capsys):
        digest, runs = hashlib.sha256(), 0
        for case in enumerate_cases(12):
            argv = ["solve", case.type_label, *(t for k, v in case.params for t in (f"--{k}", str(v))), "--format", "json"]
            assert cli.main(argv) == 0, argv
            digest.update(capsys.readouterr().out.encode())
            runs += 1
        assert runs == 617
        assert digest.hexdigest() == self.CATALOG_DIGEST

    def test_catalog_pass_keeps_intervals_as_boxes(self, capsys, fractions_made, monkeypatch):
        # an isolating interval is the integer box the kernels bisect, so no Fraction is built for a box
        # between isolation and output: 86,183 Fractions and 7,690 integer_numerators calls when each
        # interval held two Fractions, about 49,000 and 2,572 with the boxes; 29,368 Fractions when the
        # output read each end and coefficient as one, 17,618 with them written from the integers
        calls, numerators = [], polysolve.integer_numerators
        for module in (polysolve, einstein, surd):
            monkeypatch.setattr(module, "integer_numerators", lambda v: calls.append(1) or numerators(v))

        def catalog_pass():
            for case in enumerate_cases(12):
                argv = ["solve", case.type_label, *(t for k, v in case.params for t in (f"--{k}", str(v))), "--format", "json"]
                assert cli.main(argv) == 0, argv
            capsys.readouterr()

        assert fractions_made(catalog_pass) <= 18_000
        assert len(calls) <= 2_600

    def test_catalog_pass_certifies_each_box_once(self, capsys, monkeypatch):
        # a solver interval carries its proof, so refinement re-links x2 by two end signs inside it and
        # verify_solution re-checks none: 4,815 Sturm isolation checks when every link and every verify
        # ran one, 1,403 with the certificate: 1,391 in the links that first isolate a solution's x2, 12 in carves
        calls, isolates_at = [], polysolve.isolates_at
        for module in (polysolve, einstein):
            monkeypatch.setattr(module, "isolates_at", lambda *args: calls.append(1) or isolates_at(*args))
        for case in enumerate_cases(12):
            argv = ["solve", case.type_label, *(t for k, v in case.params for t in (f"--{k}", str(v))), "--format", "json"]
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        assert 0 < len(calls) <= 1_500

    @pytest.mark.parametrize("extra", [("E7-II",), ("--l", "3"), ("--k", "2"), ("--max-rank", "3")])
    def test_a_excludes_a_case(self, extra):
        res = run_cli("solve", *extra, "--a", "1/3", "1/4", "1/5")
        assert res.returncode == 1
        assert "--a" in res.stderr and extra[0] in res.stderr


class TestVerify:
    def test_tables_pass(self):
        res = run_cli("verify", "tables")
        assert res.returncode == 0
        assert "PASS" in res.stdout and "FAIL" not in res.stdout

    def test_json_format(self):
        res = run_cli("verify", "tables", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["payload"]["passed"] is True

    def test_properties_deterministic_given_seed(self):
        argv = [sys.executable, "-m", "trisym", "verify", "properties", "--seed", "3", "--format", "json"]
        # the two runs are independent processes, so they run side by side
        procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for _ in range(2)]
        (a_out, _), (b_out, _) = (p.communicate() for p in procs)
        assert a_out == b_out
        assert procs[0].returncode == 0


class TestParser:
    """The parser is built once per process, and one call leaves nothing behind for the next."""

    def test_second_call_builds_no_parser(self, monkeypatch):
        cli.main(["list", "--max-rank", "1"])
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        assert cli.main(["list", "--max-rank", "1"]) == 0
        assert built == []

    def test_in_process_sequence_matches_fresh_processes(self, capsys):
        argvs = [
            "solve --a x 1/3 1/5",
            "solve E6-II --format json",
            "list --max-rank 0",
            "dims A-III --max-rank 0",
            "solve --a 1/2 3/4 1/4",
            "solve E7-II --digits 4",
        ]
        for argv in argvs:
            code = cli.main(argv.split())
            out, err = capsys.readouterr()
            res = run_cli(*argv.split())
            assert (code, out, err) == (res.returncode, res.stdout, res.stderr), argv


class TestUsage:
    """Every refusal, the library's or the CLI's own, is a TrisymError that main alone reports."""

    @pytest.mark.parametrize(
        "argv", [["dims", "A-III", "--max-rank", "0"], ["solve", "A-III", "--l", "2", "--i", "1", "--j", "2", "--max-rank", "0"]]
    )
    def test_selector_bound_is_the_catalog_rule(self, argv, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "usage error: max_rank must be >= 1, not 0\n"

    def test_integrity_failure_while_selecting_exits_3(self, monkeypatch, capsys):
        def broken(case):
            raise IntegrityError(f"{case.describe()}: bookkeeping does not close")

        monkeypatch.setattr(cases, "case_dims", broken)
        assert cli.main(["dims", "E7-II"]) == 3
        assert capsys.readouterr().err == "integrity error: E7-II: bookkeeping does not close\n"

    def test_unknown_command(self):
        res = run_cli("frobnicate")
        assert res.returncode == 1

    def test_unknown_case(self):
        res = run_cli("dims", "Z3-IX")
        assert res.returncode == 1


class TestClosedStdout:
    """A reader that stops early, as `trisym ... | head -1` does, ends the command quietly."""

    def test_closed_pipe_exits_1_without_a_traceback(self):
        # the read end is closed before the program writes, so its first write to stdout fails
        proc = subprocess.Popen(
            [sys.executable, "-m", "trisym", "list", "--max-rank", "20"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == cli.EXIT_USAGE == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_the_entry_points_run_the_wrapper(self):
        # `python -m trisym` and the installed `trisym` script both call cli.run
        root = Path(__file__).resolve().parents[1]
        assert "trisym.cli:run" in (root / "pyproject.toml").read_text()
        assert "sys.exit(run())" in (root / "src" / "trisym" / "__main__.py").read_text()
