"""render_reports against the reference tables: the departure-indexed
renderings must agree with the published data on per-arc totals and on the
full inventory story (the inventory convention is arrival-through-departure
occupancy with delivered demand retained, which is exactly what the
reference table records)."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from hamflow import parse_instance, serialize_instance
from hamflow.cli import render_reports
from hamflow.expansion import Assignment, expand_model, prune_model
from hamflow.hamiltonian import compile_hamiltonian
from hamflow.instance import InstanceSchemaError
from hamflow.solvers import AnnealParams, anneal_sample, solve_exact

from conftest import random_micro_model, waves_model


def _load(path: Path) -> dict[str, list[int]]:
    rows = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith(("arc,", "depot,")):
            continue
        first, rest = line.split(",", 1)
        rows.setdefault(first, []).append(rest)
    return rows


def test_inventory_matches_reference_tables(tmp_path, case_study_pruned,
                                            published_schedule, reference_tables):
    render_reports(case_study_pruned, published_schedule, tmp_path)
    lines = (tmp_path / "inventory.csv").read_text().splitlines()
    got = {}
    for line in lines:
        if line.startswith("#") or line.startswith("depot,"):
            continue
        node, cid, *values = line.split(",")
        got[(node, cid)] = [int(v) for v in values]
    for node, per_commodity in reference_tables["inventory"].items():
        for cid, expected in per_commodity.items():
            assert got[(node, cid)] == expected, (node, cid)


def test_cargo_row_n1_n2_is_120_then_180(tmp_path, case_study_pruned, published_schedule):
    render_reports(case_study_pruned, published_schedule, tmp_path)
    lines = (tmp_path / "cargo.csv").read_text().splitlines()
    row = next(l for l in lines if l.startswith("N1->N2"))
    values = [int(v) for v in row.split(",")[1:]]
    nonzero = [(t, v) for t, v in enumerate(values, start=1) if v]
    assert [v for _, v in nonzero] == [120, 180]
    assert nonzero[1][0] == nonzero[0][0] + 1      # two adjacent steps
    assert sum(values) == 300


def test_per_arc_totals_match_reference_tables(tmp_path, case_study_pruned,
                                               published_schedule, reference_tables):
    render_reports(case_study_pruned, published_schedule, tmp_path)
    for name, table in (("vehicles.csv", reference_tables["vehicles"]),
                        ("cargo.csv", reference_tables["cargo"])):
        lines = (tmp_path / name).read_text().splitlines()
        for line in lines:
            if line.startswith("#") or line.startswith("arc,"):
                continue
            arc, *values = line.split(",")
            assert sum(int(v) for v in values) == sum(table[arc]), (name, arc)


def test_report_bytes_pinned(tmp_path, case_study_model, case_study_pruned):
    """sha256 of the three report files over a fixed set of assignments,
    recorded before render_reports read the model's rows: the exact optima
    of the case study (pruned and unpruned) and of waves(2), the best
    annealer sample at seed 7, and 20 random in-bounds assignments of micro
    models, every other one pruned.  The random ones are mostly infeasible,
    which render_reports does not check."""
    cases = [(m, solve_exact(m).sample.assignment)
             for m in (case_study_pruned, case_study_model, waves_model(2))]
    sset = anneal_sample(compile_hamiltonian(case_study_pruned), case_study_pruned,
                         AnnealParams(restarts=6), seed=7)
    cases.append((case_study_pruned, sset.best_feasible().assignment))
    rng = random.Random(4242)
    for i in range(20):
        model = random_micro_model(rng)
        if i % 2:
            model = prune_model(model)
        values = tuple(rng.randint(0, v.upper_bound) for v in model.variables)
        cases.append((model, Assignment(values=values)))
    digest = hashlib.sha256()
    for model, a in cases:
        for path in render_reports(model, a, tmp_path):
            digest.update(path.read_bytes())
    assert digest.hexdigest() == \
        "966fdd436cb0060bbfad1e5d9959b821490ac4fb8df182f1bd0f6b18d3c6e6e9"


@pytest.mark.parametrize("name", ["N5,x", 'N5"x', "N5\rx", "N5\nx", 'N5,"x"\nLS'],
                         ids=["comma", "quote", "cr", "lf", "all"])
def test_names_are_csv_quoted(case_study, name):
    """No report name ever needs CSV quoting: depot N5 renamed to hold a
    comma, a quote, CR or LF is refused when the instance is read, with
    one line that shows the id by repr, so a report line is a plain join."""
    text = serialize_instance(case_study).replace('"N5"', json.dumps(name))
    with pytest.raises(InstanceSchemaError, match=re.escape(repr(name))) as refused:
        parse_instance(text)
    assert len(str(refused.value).splitlines()) == 1
