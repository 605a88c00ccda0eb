"""render_reports against the reference tables: the departure-indexed
renderings must agree with the published data on per-arc totals and on the
full inventory story (the inventory convention is arrival-through-departure
occupancy with delivered demand retained, which is exactly what the
reference table records)."""

import csv
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from hamflow import parse_instance, serialize_instance
from hamflow.cli import render_reports
from hamflow.expansion import Assignment, expand_model, prune_model
from hamflow.hamiltonian import compile_hamiltonian
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
def test_names_are_csv_quoted(tmp_path, case_study, name):
    """Depot N5 renamed to hold a character that means something in CSV:
    each report line is what csv.writer's minimal quoting writes (its
    default dialect, which quotes a CR or LF, with the line ended by LF),
    and the name reads back with csv.reader as one field."""
    text = serialize_instance(case_study).replace('"N5"', json.dumps(name))
    model = prune_model(expand_model(parse_instance(text)))
    paths = render_reports(model, solve_exact(model).sample.assignment, tmp_path)
    names = {}
    for path in paths:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        expected = ""
        for row in rows:
            line = io.StringIO()
            csv.writer(line).writerow(row)
            expected += line.getvalue().removesuffix("\r\n") + "\n"
        assert path.read_bytes().decode("utf-8") == expected
        names[path.name] = {tuple(row[:-case_study.horizon]) for row in rows[2:]}
    assert ("N4->" + name,) in names["vehicles.csv"] and ("N4->" + name,) in names["cargo.csv"]
    assert {(name, "L1"), (name, "L2")} <= names["inventory.csv"]
