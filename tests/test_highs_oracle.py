"""HiGHS as an independent oracle for the exact solver.

`scipy.optimize.milp` (HiGHS, `conftest.highs_optimum`) solves the integer
program built straight from a model's rows, bounds and objective.  It shares
no search logic with `solve_exact` or the annealer, and the library never
imports scipy (`test_cli.test_only_anneal_imports_numpy`), so the module is
skipped where scipy is missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hamflow.expansion import evaluate_objective, verify_assignment
from hamflow.hamiltonian import compile_hamiltonian
from hamflow.solvers import AnnealParams, anneal_sample, solve_exact

import waves
from conftest import FAMILY_OPTIMA, highs_optimum, waves_model

pytest.importorskip("scipy.optimize")
pytest.importorskip("scipy.sparse")


def _assert_exact_agrees(model, objective: float) -> None:
    result = solve_exact(model)
    assert (result.status, result.certified) == ("optimal", True)
    assert result.objective == pytest.approx(objective, rel=1e-9)


def test_case_study(case_study_pruned):
    _assert_exact_agrees(case_study_pruned, highs_optimum(case_study_pruned))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 10, 20, 40])
def test_waves(k):
    """The `perfbench/waves.py` claim, that waves(k)'s optimum is k times the
    case study's, and for k <= 4 the objective `solve_exact` certifies."""
    model = waves_model(k)
    objective = highs_optimum(model)
    assert objective == pytest.approx(waves.optimum(k), rel=1e-9)
    if k <= 4:
        _assert_exact_agrees(model, objective)


@pytest.mark.parametrize("k", range(1, 11))
def test_anneal_never_beats_highs(k):
    """Every sample the annealer marks feasible on waves(k) verifies and
    costs at least the optimum HiGHS proves: a cheaper one would be a
    wrongly feasible sample or a wrong optimum."""
    model = waves_model(k)
    optimum = highs_optimum(model)
    samples = anneal_sample(compile_hamiltonian(model), model,
                            AnnealParams(restarts=2, sweeps=100), seed=k).samples
    feasible = [s for s in samples if s.feasible]
    assert feasible
    for sample in feasible:
        report = verify_assignment(model, sample.assignment)
        assert report.feasible and report.bound_findings == ()
        assert evaluate_objective(model, sample.assignment) >= optimum * (1 - 1e-9)


def test_family_pins_reproduce(tmp_path):
    """The pin script, run in a copy of the tree, re-derives every pinned
    family optimum with HiGHS, and the rest of the pin file byte for byte."""
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests" / "goldens").mkdir(parents=True)
    shutil.copy(root / "scripts" / "regen_family_optima.py", tmp_path / "scripts")
    shutil.copy(root / "tests" / "conftest.py", tmp_path / "tests")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "regen_family_optima.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    written = json.loads((tmp_path / "tests" / "goldens" / FAMILY_OPTIMA.name).read_text())
    pinned = json.loads(FAMILY_OPTIMA.read_text())
    assert written.pop("optima") == pytest.approx(pinned.pop("optima"), rel=1e-9)
    assert written == pinned
