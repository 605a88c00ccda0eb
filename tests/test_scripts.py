"""Smoke tests of the scripts under scripts/, which nothing else runs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_run_case_study(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_case_study.py"),
                           "--samples", "2", "--out", str(out)],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "cargo.csv", "hamiltonian.txt", "histogram.csv", "inventory.csv",
        "samples.csv", "solution.json", "vehicles.csv"]
    assert "exact: optimal, cost 62.12 " in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "hamflow.cli", "verify", "--instance",
                           "case-study", "--assignment", str(out / "solution.json")],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "feasible,True" in proc.stdout.splitlines()


def test_regen_goldens_reproduces_committed_goldens(tmp_path):
    """The script run in a copy of the tree rewrites each committed golden
    byte for byte."""
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "scripts" / "regen_goldens.py", tmp_path / "scripts")
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "regen_goldens.py")],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = ["case_study.json", "micro_hamiltonian.txt", "micro_model_dump.json"]
    written = tmp_path / "tests" / "goldens"
    assert sorted(p.name for p in written.iterdir()) == names
    for name in names:
        assert (written / name).read_bytes() == (ROOT / "tests" / "goldens" / name).read_bytes()
