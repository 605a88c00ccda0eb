"""Smoke test of the end-to-end case-study script, which nothing else runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_case_study(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_case_study.py"),
                           "--samples", "2", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "cargo.csv", "hamiltonian.txt", "histogram.csv", "inventory.csv",
        "samples.csv", "solution.json", "vehicles.csv"]
    assert "exact: optimal, cost 62.12 " in proc.stdout
