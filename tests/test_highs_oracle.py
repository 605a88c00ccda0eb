"""HiGHS as an independent oracle for the exact solver.

`scipy.optimize.milp` (HiGHS) solves the integer program built straight from
a model's rows, bounds and objective.  It shares no search logic with
`solve_exact` or the annealer, and the library never imports scipy
(`test_cli.test_only_anneal_imports_numpy`), so the module is skipped where
scipy is missing.
"""

import numpy as np
import pytest

from hamflow.expansion import Assignment, evaluate_objective, verify_assignment
from hamflow.hamiltonian import compile_hamiltonian
from hamflow.solvers import AnnealParams, anneal_sample, solve_exact

import waves
from conftest import waves_model

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def _highs_optimum(model) -> float:
    """HiGHS's optimal objective of `model`, proved with a zero relative gap,
    after checking that its solution, rounded to integers, verifies and
    costs that objective."""
    n = len(model.variables)
    rows, cols, coefs = [], [], []
    lower, upper = [], []
    for r, c in enumerate(model.constraints):
        for i, coef in c.terms:
            rows.append(r)
            cols.append(i)
            coefs.append(coef)
        lower.append(c.rhs if c.relation == "eq" else -np.inf)
        upper.append(c.rhs)
    cost = np.zeros(n)
    for i, c in model.objective:
        cost[i] += c
    rows_matrix = sparse.csr_array((coefs, (rows, cols)), shape=(len(model.constraints), n))
    result = optimize.milp(
        cost, integrality=np.ones(n),
        bounds=optimize.Bounds(0, [v.upper_bound for v in model.variables]),
        constraints=optimize.LinearConstraint(rows_matrix, lower, upper),
        options={"mip_rel_gap": 0})
    assert result.status == 0, result.message
    point = Assignment(values=tuple(int(v) for v in np.rint(result.x)))
    report = verify_assignment(model, point)
    assert report.feasible and report.bound_findings == ()
    assert evaluate_objective(model, point) == pytest.approx(result.fun, rel=1e-9)
    return result.fun


def _assert_exact_agrees(model, objective: float) -> None:
    result = solve_exact(model)
    assert (result.status, result.certified) == ("optimal", True)
    assert result.objective == pytest.approx(objective, rel=1e-9)


def test_case_study(case_study_pruned):
    _assert_exact_agrees(case_study_pruned, _highs_optimum(case_study_pruned))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 10, 20, 40])
def test_waves(k):
    """The `perfbench/waves.py` claim, that waves(k)'s optimum is k times the
    case study's, and for k <= 4 the objective `solve_exact` certifies."""
    model = waves_model(k)
    objective = _highs_optimum(model)
    assert objective == pytest.approx(waves.optimum(k), rel=1e-9)
    if k <= 4:
        _assert_exact_agrees(model, objective)


@pytest.mark.parametrize("k", range(1, 11))
def test_anneal_never_beats_highs(k):
    """Every sample the annealer marks feasible on waves(k) verifies and
    costs at least the optimum HiGHS proves: a cheaper one would be a
    wrongly feasible sample or a wrong optimum."""
    model = waves_model(k)
    optimum = _highs_optimum(model)
    samples = anneal_sample(compile_hamiltonian(model), model,
                            AnnealParams(restarts=2, sweeps=100), seed=k).samples
    feasible = [s for s in samples if s.feasible]
    assert feasible
    for sample in feasible:
        report = verify_assignment(model, sample.assignment)
        assert report.feasible and report.bound_findings == ()
        assert evaluate_objective(model, sample.assignment) >= optimum * (1 - 1e-9)
