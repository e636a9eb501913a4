import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_build_catalog_emits_valid_json():
    res = run_script("build_catalog.py", "--max-rank", "4")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    cases = doc["payload"]["cases"]
    assert any(c["type_label"] == "F4-I" for c in cases)
    assert all("a" in c for c in cases)


def test_build_catalog_writes_file(tmp_path):
    out = tmp_path / "catalog.json"
    res = run_script("build_catalog.py", "--max-rank", "2", "--out", str(out))
    assert res.returncode == 0
    assert json.loads(out.read_text())["payload"]["max_rank"] == 2


def test_build_catalog_refuses_a_bad_bound_as_usage():
    res = run_script("build_catalog.py", "--max-rank", "0")
    assert res.returncode == 2  # argparse's usage exit
    assert "error: max_rank must be >= 1, not 0" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


def test_reproduce_results_runs():
    res = run_script("reproduce_results.py", "--digits", "4")
    assert res.returncode == 0
    assert "1.8845" in res.stdout  # certified decimal of a quartic-branch case
    assert "not applicable" in res.stdout  # the flagged degenerate case
    assert res.stdout.count("invariant Einstein metric(s)") >= 14
