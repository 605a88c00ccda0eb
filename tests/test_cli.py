import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamflow
from hamflow import cli, expansion, parse_instance, serialize_instance, solvers
from hamflow.hamiltonian import compile_hamiltonian
from hamflow.instance import (
    MAX_EXPANDED_VARIABLES,
    Arc,
    Commodity,
    Depot,
    Instance,
    InstanceSchemaError,
    ScheduleEntry,
)

from conftest import (
    GOLDEN_DIR,
    arc_separator_doc,
    large_supply_instance,
    micro_instance,
    over_the_expansion_bound,
)
from waves import waves

CASE_STUDY_DOC = GOLDEN_DIR / "case_study.json"


def run_cli(*args, env=None, cwd=None, timeout=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "hamflow.cli", *args],
                          capture_output=True, text=True, env=full_env, cwd=cwd,
                          timeout=timeout)


@pytest.fixture
def micro_doc(tmp_path) -> Path:
    path = tmp_path / "micro.json"
    path.write_text(serialize_instance(micro_instance()), encoding="utf-8")
    return path


class TestExitCodes:
    def test_validate_case_study_fixture(self):
        proc = run_cli("validate", "--instance", str(CASE_STUDY_DOC))
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout

    def test_solve_exact_micro_prints_objective(self, micro_doc, tmp_path):
        proc = run_cli("solve", "--instance", str(micro_doc), "--method", "exact",
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        assert "objective,5" in proc.stdout.replace("objective,5.0", "objective,5")

    def test_compile_missing_file_is_exit_1(self, tmp_path):
        proc = run_cli("compile", "--instance", str(tmp_path / "missing.json"))
        assert proc.returncode == 1
        assert "not found" in proc.stderr

    def test_usage_error_is_exit_2(self):
        proc = run_cli("solve", "--instance", "x.json", "--method", "quantum")
        assert proc.returncode == 2

    @pytest.mark.parametrize("option", [["--method", "anneal"], ["--samples", "4"],
                                        ["--seed", "7"], ["--assignment", "x.json"],
                                        ["--alpha", "500"], ["--no-prune"],
                                        ["--time-limit", "5"]])
    def test_validate_rejects_other_commands_options(self, option):
        proc = run_cli("validate", "--instance", "case-study", *option)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr

    def test_unknown_command_is_exit_2(self):
        proc = run_cli("anneal")
        assert proc.returncode == 2

    def test_validate_unbalanced_is_exit_1(self, tmp_path):
        doc = {
            "depots": [{"id": "A", "label": "A"}, {"id": "B", "label": "B"}],
            "arcs": [{"from": "A", "to": "B", "cost": 1.0, "travel_time": 1}],
            "commodities": [{"id": "K", "load": 10}],
            "horizon": 2,
            "capacity": 100,
            "schedule": [{"depot": "A", "commodity": "K", "time": 1, "amount": 10}],
        }
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("validate", "--instance", str(path))
        assert proc.returncode == 1
        assert "mass_balance" in proc.stdout

    def test_diagnostics_go_to_stderr(self, tmp_path):
        proc = run_cli("compile", "--instance", str(tmp_path / "nope.json"))
        assert proc.stdout == ""
        assert proc.stderr != ""

    def test_every_public_error_is_a_hamflow_error(self):
        """`main` catches HamflowError alone, so every public error class of
        every module must derive from it."""
        errors = {name: obj for module in (hamflow.instance, expansion, hamflow.hamiltonian,
                                           solvers, cli)
                  for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == module.__name__ and not name.startswith("_")}
        assert {"InstanceError", "ModelError", "TableReconstructionError", "CompileError",
                "PolynomialFormatError", "SearchSpaceTooLargeError"} <= errors.keys()
        assert [name for name, obj in errors.items()
                if not issubclass(obj, hamflow.HamflowError)] == []


class TestSharedParser:
    """`main` builds its parser once per process; a run after others gives
    the exit code and output a freshly built parser gives."""

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_runs_match_a_fresh_parser(self, micro_doc, tmp_path):
        runs = [["solve", "--instance", str(micro_doc), "--method", "quantum"],
                ["solve", "--instance", str(micro_doc), "--out", str(tmp_path / "a")],
                ["validate", "--instance", str(micro_doc), "--format", "json"],
                ["solve", "--instance", str(micro_doc), "--method", "bruteforce",
                 "--no-prune", "--format", "json", "--out", str(tmp_path / "b")],
                ["solve", "--instance", str(micro_doc), "--time-limit", "0",
                 "--out", str(tmp_path / "c")]]
        cli._build_parser.cache_clear()
        shared = [self.run(argv) for argv in runs]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in runs:
            cli._build_parser.cache_clear()
            fresh.append(self.run(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0]
        assert "invalid choice: 'quantum'" in shared[0][2]


class TestCaseStudyToken:
    def test_builtin_case_study(self, tmp_path):
        proc = run_cli("compile", "--instance", "case-study", "--out", str(tmp_path))
        assert proc.returncode == 0
        assert (tmp_path / "hamiltonian.txt").exists()

    def test_costs_with_regular_instance_rejected(self, micro_doc, tmp_path):
        costs = tmp_path / "c.json"
        costs.write_text("{}")
        proc = run_cli("validate", "--instance", str(micro_doc), "--costs", str(costs))
        assert proc.returncode == 1

    def test_custom_costs(self, tmp_path):
        costs = {k: 1.0 for k in ("N1->N2", "N2->N3", "N2->N4", "N3->N6",
                                  "N3->N4", "N4->N5", "N6->N7", "N4->N3")}
        path = tmp_path / "ones.json"
        path.write_text(json.dumps(costs))
        proc = run_cli("solve", "--instance", "case-study", "--costs", str(path),
                       "--method", "exact", "--out", str(tmp_path / "out"),
                       "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["objective"] == 16.0


class TestMethodsAndFlags:
    def test_bruteforce_on_micro(self, micro_doc, tmp_path):
        proc = run_cli("solve", "--instance", str(micro_doc), "--method", "bruteforce",
                       "--out", str(tmp_path / "out"), "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["objective"] == 5.0

    def test_explicit_alpha(self, tmp_path):
        proc = run_cli("compile", "--instance", "case-study", "--alpha", "500",
                       "--out", str(tmp_path), "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["alpha"] == 500.0
        assert "alpha=500" in (tmp_path / "hamiltonian.txt").read_text().splitlines()[0]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_subnormal_alpha_prints_a_finite_range(self, tmp_path, fmt):
        # the least coefficient is subnormal, so max/min overflows a float
        proc = run_cli("compile", "--instance", "case-study", "--alpha", "1e-320",
                       "--out", str(tmp_path), "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        assert "inf" not in proc.stdout.replace(str(tmp_path), "").lower()
        if fmt == "json":
            summary = json.loads(proc.stdout, parse_constant=pytest.fail)
            db = summary["dynamic_range_db"]
        else:
            db = float(dict(line.split(",", 1) for line in proc.stdout.splitlines())
                       ["dynamic_range_db"])
        assert 3000 < db < 4000

    def test_solve_infeasible_is_exit_1(self, tmp_path):
        doc = {
            "depots": [{"id": "A", "label": "A"}, {"id": "B", "label": "B"}],
            "arcs": [{"from": "A", "to": "B", "cost": 1.0, "travel_time": 1}],
            "commodities": [{"id": "K", "load": 10}],
            "horizon": 2, "capacity": 100,
            "schedule": [{"depot": "A", "commodity": "K", "time": 2, "amount": 10},
                         {"depot": "B", "commodity": "K", "time": 1, "amount": -10}],
        }
        path = tmp_path / "late.json"
        path.write_text(json.dumps(doc))
        for extra in ([], ["--no-prune"]):   # pruner and solver both detect it
            proc = run_cli("solve", "--instance", str(path), "--method", "exact",
                           "--out", str(tmp_path / "out"), *extra)
            assert_one_line_error(proc)
            if not extra:   # the pruner names the row as verify and report do
                assert proc.stderr == ("hamflow: constraint conservation(A,K,t=2) requires 10 "
                                       "but every variable was pruned\n")

    def test_anneal_past_float_precision(self, tmp_path):
        """The vehicle bound is the exact ceiling of the supply over the
        capacity, so the only feasible vehicle count is in the box."""
        path = tmp_path / "large.json"
        path.write_text(serialize_instance(large_supply_instance()), encoding="utf-8")
        proc = run_cli("solve", "--instance", str(path), "--method", "anneal",
                       "--samples", "1", "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "feasible,True" in proc.stdout.splitlines()

    def test_balanced_past_float_precision(self, tmp_path):
        """2**53 + 3 - 2**53 - 3 sums to +1 in floats: the balance is exact."""
        path = one_commodity_doc(tmp_path / "big.json", 1, 2**53,
                                 [("A", 1, 2**53), ("A", 2, 3), ("B", 2, -2**53), ("B", 3, -3)])
        proc = run_cli("validate", "--instance", str(path))
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout
        proc = run_cli("solve", "--instance", str(path), "--method", "exact",
                       "--out", str(tmp_path / "exact"))
        assert proc.returncode == 0, proc.stderr
        assert {"certified,True", "objective,2.0"} <= set(proc.stdout.splitlines())
        proc = run_cli("solve", "--instance", str(path), "--method", "anneal",
                       "--samples", "1", "--out", str(tmp_path / "anneal"))
        assert proc.returncode == 0, proc.stderr
        assert "feasible,True" in proc.stdout.splitlines()

    @pytest.mark.parametrize("method", ["exact", "anneal", "bruteforce"])
    def test_time_limit(self, micro_doc, tmp_path, method):
        """The exact search takes the limit: at 0 s it stops at its first
        node with the start point, uncertified.  The other methods accept
        it and do not use it."""
        proc = run_cli("solve", "--instance", str(micro_doc), "--method", method,
                       "--time-limit", "0", "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "objective,5.0" in lines
        if method != "anneal":
            assert ("certified,False" if method == "exact" else "certified,True") in lines

    def test_time_limit_not_a_number(self, micro_doc, tmp_path):
        proc = run_cli("solve", "--instance", str(micro_doc), "--time-limit", "soon",
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "invalid float value" in proc.stderr

    @pytest.mark.parametrize("method", ["exact", "anneal", "bruteforce"])
    @pytest.mark.parametrize("extra", [[], ["--no-prune"]], ids=["pruned", "no-prune"])
    def test_no_commodities_solves_to_zero(self, tmp_path, method, extra):
        doc = {
            "depots": [{"id": "A", "label": "A"}, {"id": "B", "label": "B"}],
            "arcs": [{"from": "A", "to": "B", "cost": 1.0, "travel_time": 1}],
            "commodities": [], "horizon": 2, "capacity": 10, "schedule": [],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("solve", "--instance", str(path), "--method", method,
                       "--out", str(tmp_path / "out"), *extra)
        assert proc.returncode == 0, proc.stderr
        assert "objective,0.0" in proc.stdout.splitlines()


def one_commodity_doc(path: Path, load, capacity, schedule) -> Path:
    """Write a document with one arc A->B of cost 1 and travel time 1,
    horizon 3 and one commodity K; `schedule` holds (depot, time, amount)."""
    doc = {"depots": [{"id": "A", "label": "A"}, {"id": "B", "label": "B"}],
           "arcs": [{"from": "A", "to": "B", "cost": 1.0, "travel_time": 1}],
           "commodities": [{"id": "K", "load": load}], "horizon": 3, "capacity": capacity,
           "schedule": [{"depot": d, "commodity": "K", "time": t, "amount": m}
                        for d, t, m in schedule]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_main(*args) -> subprocess.CompletedProcess:
    """`hamflow` run in this process: its exit code and output as run_cli
    returns them, without starting an interpreter."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def assert_one_line_error(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("hamflow: ")


# Each id of the micro instance (depots A and B, commodity K, arc A->B): the
# record holding it rebuilt with another id, and the document leaves holding it
_ID_SITES = {
    "depot": (lambda inst, v: replace(inst.depots[1], id=v),
              [("depots", 1, "id"), ("arcs", 0, "to"), ("schedule", 1, "depot")]),
    "commodity": (lambda inst, v: replace(inst.commodities[0], id=v),
                  [("commodities", 0, "id"), ("schedule", 0, "commodity"),
                   ("schedule", 1, "commodity")]),
    "arc_end": (lambda inst, v: replace(inst.arcs[0], dest=v), [("arcs", 0, "to")]),
    "entry_depot": (lambda inst, v: replace(inst.schedule[1], depot=v),
                    [("schedule", 1, "depot")]),
    "entry_commodity": (lambda inst, v: replace(inst.schedule[1], commodity=v),
                        [("schedule", 1, "commodity")]),
}


class TestInputFaults:
    """Bad inputs end in exit 1 with a one-line diagnostic, never a traceback."""

    def test_bruteforce_on_case_study_is_too_large(self, tmp_path):
        proc = run_cli("solve", "--instance", "case-study", "--method", "bruteforce",
                       "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "search space" in proc.stderr

    def test_exact_search_too_deep(self, tmp_path):
        """waves(20) branches on 319 vehicle variables, deeper than the
        interpreter's recursion limit: the search ends at its time limit
        with an uncertified point that `verify` accepts."""
        doc = tmp_path / "waves20.json"
        doc.write_text(serialize_instance(waves(20)), encoding="utf-8")
        out = tmp_path / "out"
        proc = run_cli("solve", "--instance", str(doc), "--method", "exact",
                       "--time-limit", "1", "--out", str(out), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "certified,False" in proc.stdout.splitlines()
        proc = run_cli("verify", "--instance", str(doc),
                       "--assignment", str(out / "solution.json"), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "feasible,True" in proc.stdout.splitlines()

    @pytest.mark.parametrize("limit", ["-1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("method", ["exact", "anneal", "bruteforce"])
    def test_bad_time_limit(self, micro_doc, tmp_path, method, limit):
        proc = run_cli("solve", "--instance", str(micro_doc), "--method", method,
                       f"--time-limit={limit}", "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "--time-limit must be a non-negative finite number" in proc.stderr

    @pytest.mark.parametrize("samples", ["0", "-1"])
    @pytest.mark.parametrize("method", ["exact", "anneal", "bruteforce"])
    def test_bad_samples(self, micro_doc, tmp_path, method, samples):
        proc = run_cli("solve", "--instance", str(micro_doc), "--method", method,
                       f"--samples={samples}", "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "--samples must be >= 1" in proc.stderr

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("text", ['{"objective": 5.0}', '{"values": [0, 1', '"zeros"',
                                      '{"values": [0, "1", 0]}'])
    def test_bad_assignment_json(self, micro_doc, tmp_path, command, text):
        path = tmp_path / "solution.json"
        path.write_text(text)
        proc = run_cli(command, "--instance", str(micro_doc), "--assignment", str(path),
                       "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_repeated_values_key_in_assignment(self, tmp_path, case_study_pruned, command):
        """Zeros, then the exact optimum: the repeated key is refused, not
        read as its last value."""
        optimum = list(solvers.solve_exact(case_study_pruned).sample.assignment.values)
        path = tmp_path / "solution.json"
        path.write_text(f'{{"values": {[0] * len(optimum)}, "values": {optimum}}}')
        proc = run_cli(command, "--instance", "case-study", "--assignment", str(path),
                       "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert proc.stderr.startswith(f"hamflow: {path}: key 'values' is repeated")

    @pytest.mark.parametrize("path, value", [
        (("depots", 0, "label"), None), (("depots", 0, "id"), 1),
        (("commodities", 0, "id"), ["L", 1]), (("arcs", 0, "from"), 1),
        (("arcs", 0, "to"), ["B"]), (("schedule", 0, "depot"), {"id": "A"}),
        (("schedule", 0, "commodity"), None)],
        ids=["label_null", "depot_id_number", "commodity_id_list", "arc_from_number",
             "arc_to_list", "entry_depot_object", "entry_commodity_null"])
    def test_non_string_id_or_label(self, tmp_path, path, value):
        doc = json.loads(serialize_instance(micro_instance()))
        doc[path[0]][path[1]][path[2]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("validate", "--instance", str(bad))
        assert_one_line_error(proc)
        assert "must be a string" in proc.stderr

    @pytest.mark.parametrize("bad", ["B\nx", "B\rx", "B\u2028x", "B,x", 'B"x', "B->x", "",
                                     "B\ud800x"],
                             ids=["lf", "cr", "u2028", "comma", "quote", "arrow", "empty",
                                  "surrogate"])
    @pytest.mark.parametrize("site", list(_ID_SITES))
    def test_bad_id_is_refused(self, tmp_path, site, bad):
        """An id that is empty, spans lines, holds ',', '"' or '->', or
        holds a lone surrogate, which UTF-8 cannot encode, is refused by the
        record that holds it, by parse_instance and by `hamflow validate`,
        each with the same line showing it by repr."""
        record, leaves = _ID_SITES[site]
        with pytest.raises(InstanceSchemaError) as built:
            record(micro_instance(), bad)
        refusal = str(built.value)
        assert repr(bad) in refusal and refusal.splitlines() == [refusal]
        doc = json.loads(serialize_instance(micro_instance()))
        for leaf in leaves:
            _leaf(doc, leaf[:-1])[leaf[-1]] = bad
        with pytest.raises(InstanceSchemaError, match=f"^{re.escape(refusal)}$"):
            parse_instance(json.dumps(doc))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_main("validate", "--instance", str(path))
        assert_one_line_error(proc)
        assert proc.stderr == f"hamflow: {refusal}\n" and proc.stdout == ""

    @pytest.mark.parametrize("case", ["comma_ids", "lf_zero_amount", "lf_self_loop",
                                      "lf_early_demand"])
    def test_ids_that_named_two_things_or_lines(self, tmp_path, case):
        """Ids that once passed validation: depots B and B,K with
        commodities L and K,L, which gave x[A->B,K,L,t=1] to two variables,
        and the case study's N5 renamed N5<LF>x with a zero amount, a
        self-loop or an early demand there, each of which printed a message
        or finding split over two lines."""
        if case == "comma_ids":
            doc = {"depots": [{"id": i, "label": i} for i in ("A", "B", "B,K")],
                   "arcs": [{"from": "A", "to": to, "cost": 1.0, "travel_time": 1}
                            for to in ("B", "B,K")],
                   "commodities": [{"id": "L", "load": 1}, {"id": "K,L", "load": 1}],
                   "horizon": 2, "capacity": 1, "schedule": []}
            refusal = "depot id 'B,K' must not contain ','"
        else:
            doc = json.loads(CASE_STUDY_DOC.read_text().replace('"N5"', '"N5\\nx"'))
            entry = next(e for e in doc["schedule"] if e["depot"] == "N5\nx")
            if case == "lf_zero_amount":
                entry["amount"] = 0
            elif case == "lf_self_loop":
                doc["arcs"].append({"from": "N5\nx", "to": "N5\nx", "cost": 1.0,
                                    "travel_time": 1})
            else:
                entry["time"] = 1
            refusal = "depot id 'N5\\nx' must be one nonempty line"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_main("validate", "--instance", str(path))
        assert_one_line_error(proc)
        assert proc.stderr == f"hamflow: {refusal}\n" and proc.stdout == ""

    def test_depot_id_with_arc_separator(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(arc_separator_doc()))
        proc = run_cli("validate", "--instance", str(bad))
        assert_one_line_error(proc)
        assert "depot id 'A->B' must not contain '->'" in proc.stderr

    @pytest.mark.parametrize("value", [float("nan"), "100"])
    @pytest.mark.parametrize("path", [("arcs", 0, "cost"), ("commodities", 0, "load"),
                                      ("capacity",), ("schedule", 0, "amount")])
    def test_non_finite_or_untyped_numbers(self, tmp_path, path, value):
        doc = json.loads(serialize_instance(micro_instance()))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("solve", "--instance", str(bad), "--method", "exact",
                       "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert path[-1] in proc.stderr
        assert "certified,True" not in proc.stdout

    @pytest.mark.parametrize("value", [float("nan"), "1.5"])
    def test_bad_case_study_cost(self, tmp_path, value):
        costs = dict.fromkeys(("N1->N2", "N2->N3", "N2->N4", "N3->N6",
                               "N3->N4", "N4->N5", "N6->N7", "N4->N3"), 1.0)
        costs["N3->N4"] = value
        path = tmp_path / "costs.json"
        path.write_text(json.dumps(costs))
        proc = run_cli("solve", "--instance", "case-study", "--costs", str(path),
                       "--method", "exact", "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "N3->N4" in proc.stderr
        assert "certified,True" not in proc.stdout


    @pytest.mark.parametrize("section, value, expected", [
        ("arcs", [None], "arcs[0]: expected an object"),
        ("depots", {"id": "A"}, "depots: expected a list of objects"),
    ])
    def test_non_object_sections(self, tmp_path, section, value, expected):
        doc = json.loads(serialize_instance(micro_instance()))
        doc[section] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("validate", "--instance", str(bad))
        assert_one_line_error(proc)
        assert expected in proc.stderr

    @pytest.mark.parametrize("command", ["validate", "compile", "solve"])
    def test_subnormal_load(self, tmp_path, command):
        doc = json.loads(serialize_instance(micro_instance()))
        doc["commodities"][0]["load"] = 1e-320
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli(command, "--instance", str(bad), "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "load must be a positive integer" in proc.stderr

    def test_huge_load_is_no_multiple(self, tmp_path):
        # amounts of +-10 over a load of 1e300 give a quotient that rounds to 0
        inst = micro_instance()
        with pytest.raises(InstanceSchemaError, match="multiple"):
            replace(inst, commodities=(replace(inst.commodities[0], load=1e300),))
        doc = json.loads(serialize_instance(inst))
        doc["commodities"][0]["load"] = 1e300
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for command in ("validate", "solve"):
            proc = run_cli(command, "--instance", str(bad), "--out", str(tmp_path / "out"))
            assert_one_line_error(proc)
            assert "multiple of the load size" in proc.stderr

    def test_non_multiple_past_the_float_tolerance(self, tmp_path):
        # 10000000001 / 10 is within 1e-9 relative of a whole number
        bad = one_commodity_doc(tmp_path / "bad.json", 10, 100,
                                [("A", 1, 10000000001), ("B", 2, -10000000001)])
        for command in ("validate", "solve"):
            proc = run_cli(command, "--instance", str(bad), "--out", str(tmp_path / "out"))
            assert_one_line_error(proc)
            assert "multiple of the load size" in proc.stderr

    def test_integer_a_float_would_round(self, tmp_path):
        # masses are exact ints: one vehicle of capacity 2**53 + 1 carries it all
        big = 2**53 + 1
        path = one_commodity_doc(tmp_path / "big.json", 1, big, [("A", 1, big), ("B", 2, -big)])
        proc = run_cli("validate", "--instance", str(path))
        assert proc.returncode == 0 and "0 findings" in proc.stdout
        proc = run_cli("solve", "--instance", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert {"certified,True", "objective,1.0"} <= set(proc.stdout.splitlines())

    def test_float_literal_a_float_would_round(self, tmp_path):
        # +-(2**53 + 1) written as floats read as those exact ints, not as
        # +-2**53: two vehicles of capacity 2**53
        path = one_commodity_doc(tmp_path / "big.json", 1, 2**53,
                                 [("A", 1, "supply"), ("B", 2, "demand")])
        path.write_text(path.read_text().replace('"supply"', "9007199254740993.0")
                        .replace('"demand"', "-9007199254740993.0"))
        proc = run_cli("validate", "--instance", str(path))
        assert proc.returncode == 0 and "0 findings" in proc.stdout
        proc = run_cli("solve", "--instance", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert {"certified,True", "objective,2.0"} <= set(proc.stdout.splitlines())

    @pytest.mark.parametrize("command", ["validate", "compile", "solve"])
    def test_huge_horizon(self, tmp_path, command):
        """The case study at horizon 1e300, and each instance of
        `over_the_expansion_bound`, solved by both methods."""
        doc = json.loads(CASE_STUDY_DOC.read_text())
        doc["horizon"] = 1e300
        texts = [json.dumps(doc)] + [serialize_instance(SimpleNamespace(**kwargs))
                                     for kwargs in over_the_expansion_bound().values()]
        methods = [["--method", "exact"], ["--method", "anneal"]] if command == "solve" else [[]]
        for n, text in enumerate(texts):
            bad = tmp_path / f"bad{n}.json"
            bad.write_text(text)
            for method in methods:
                proc = run_cli(command, "--instance", str(bad), *method,
                               "--out", str(tmp_path / "out"), timeout=60)
                assert_one_line_error(proc)
                assert f"more than {MAX_EXPANDED_VARIABLES} variables" in proc.stderr

    def test_huge_integer_in_instance(self, tmp_path):
        # Python refuses to convert an integer literal of more than 4300 digits
        text = json.dumps(json.loads(CASE_STUDY_DOC.read_text())).replace(
            '"horizon": 6', '"horizon": ' + "9" * 5000)
        assert "9" * 5000 in text
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        proc = run_cli("validate", "--instance", str(bad))
        assert_one_line_error(proc)
        assert "4300 digits" in proc.stderr

    @pytest.mark.parametrize("method", ["exact", "anneal", "bruteforce"])
    def test_overflowing_arc_cost(self, tmp_path, method):
        # finite, but the objective over the vehicle bounds is inf
        doc = json.loads(CASE_STUDY_DOC.read_text())
        doc["arcs"][3]["cost"] = 1.7e308
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("solve", "--instance", str(bad), "--method", method,
                       "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "too large" in proc.stderr
        assert "infeasible" not in proc.stderr

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verify_overflowing_objective(self, tmp_path, published_schedule, fmt):
        # the published schedule is feasible and in bounds, but its cost sum is inf
        doc = json.loads(CASE_STUDY_DOC.read_text())
        assert (doc["arcs"][0]["from"], doc["arcs"][0]["to"]) == ("N1", "N2")
        doc["arcs"][0]["cost"] = 1.7e308
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps({"values": list(published_schedule.values)}))
        proc = run_cli("verify", "--instance", str(bad), "--assignment", str(solution),
                       "--format", fmt)
        assert_one_line_error(proc)
        assert "too large" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("capacity", [2.0**62, 1e300])
    def test_bruteforce_rows_past_int64(self, tmp_path, capacity):
        # two loads of 2**62 share one vehicle: the capacity row reaches 2**63,
        # which the enumeration's int64 products cannot hold
        big = 2.0**62
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")), arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K1", big), Commodity("K2", big)),
            horizon=2, capacity=capacity,
            schedule=(ScheduleEntry("A", "K1", 1, big), ScheduleEntry("B", "K1", 2, -big),
                      ScheduleEntry("A", "K2", 1, big), ScheduleEntry("B", "K2", 2, -big)))
        bad = tmp_path / "big.json"
        bad.write_text(serialize_instance(inst))
        proc = run_cli("solve", "--instance", str(bad), "--method", "bruteforce",
                       "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "too large" in proc.stderr
        assert "certified" not in proc.stdout

    @pytest.mark.parametrize("argv", [("compile",), ("solve", "--method", "anneal"),
                                      ("solve", "--method", "exact")])
    def test_supplies_summing_past_float_range(self, tmp_path, argv):
        # each amount is a float's int, but the two supplies' sum bounds a
        # flow variable past the largest float, which choose_alpha multiplies
        top = int(sys.float_info.max)
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")), arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 1),), horizon=3, capacity=1,
            schedule=(ScheduleEntry("A", "K", 1, top), ScheduleEntry("A", "K", 2, top),
                      ScheduleEntry("B", "K", 3, -top), ScheduleEntry("B", "K", 2, -top)))
        doc = tmp_path / "big.json"
        doc.write_text(serialize_instance(inst))
        proc = run_cli(*argv, "--instance", str(doc), "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "too large" in proc.stderr

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("command", [("compile",), ("solve", "--method", "anneal"),
                                         ("solve", "--method", "exact"),
                                         ("solve", "--method", "bruteforce")],
                             ids=["compile", "solve-anneal", "solve-exact", "solve-bruteforce"])
    def test_non_finite_alpha(self, micro_doc, tmp_path, command, alpha):
        proc = run_cli(*command, "--instance", str(micro_doc), "--alpha", alpha,
                       "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "alpha must be a positive finite number" in proc.stderr
        assert "too large" not in proc.stderr

    @pytest.mark.parametrize("option, content, expected", [
        ("--instance", CASE_STUDY_DOC.read_bytes().replace(b'"capacity": 100',
                                                           b'"capacity": 100, "capacity": 200'),
         "is repeated"),
        ("--costs", b'{"N1->N2": 1.0, "N1->N2": 2.0}', "is repeated"),
        *[(option, content, expected) for option in ("--instance", "--costs", "--assignment")
          for content, expected in ((b"\xff\xfe{}", "cannot read"),
                                    (b"[" * 100_000, "nested deeper than the decoder allows"))],
    ], ids=["instance", "costs", "instance-not-utf8", "instance-nested", "costs-not-utf8",
            "costs-nested", "assignment-not-utf8", "assignment-nested"])
    def test_repeated_key(self, tmp_path, option, content, expected):
        """A document that repeats a key is refused in one line, and so is
        one that is not UTF-8 or nests deeper than the JSON decoder allows,
        in a line that names the file."""
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        command = "verify" if option == "--assignment" else "validate"
        args = [] if option == "--instance" else ["--instance", "case-study"]
        proc = run_cli(command, *args, option, str(path))
        assert_one_line_error(proc)
        assert expected in proc.stderr
        if expected != "is repeated":
            assert str(path) in proc.stderr

    def test_huge_integer_in_cost_map(self, tmp_path):
        costs = dict.fromkeys(("N1->N2", "N2->N3", "N2->N4", "N3->N6",
                               "N3->N4", "N4->N5", "N6->N7", "N4->N3"), 1)
        path = tmp_path / "costs.json"
        path.write_text(json.dumps(costs).replace('"N3->N4": 1', '"N3->N4": ' + "9" * 5000))
        proc = run_cli("validate", "--instance", "case-study", "--costs", str(path))
        assert_one_line_error(proc)
        assert "4300 digits" in proc.stderr

    def test_huge_integer_in_assignment(self, micro_doc, tmp_path):
        path = tmp_path / "solution.json"
        path.write_text('{"values": [0, ' + "9" * 5000 + ', 0]}')
        proc = run_cli("verify", "--instance", str(micro_doc), "--assignment", str(path))
        assert_one_line_error(proc)
        assert "4300 digits" in proc.stderr

    @pytest.fixture
    def out_of_bounds(self, tmp_path, case_study_pruned, published_schedule):
        """Write the published schedule with one vehicle count set to a value."""
        def write(value) -> Path:
            values = list(published_schedule.values)
            values[case_study_pruned.vehicle_index()[(("N1", "N2"), 1)]] = value
            path = tmp_path / "solution.json"
            path.write_text(json.dumps({"values": values}))
            return path
        return write

    def test_report_refuses_bound_violation(self, tmp_path, out_of_bounds):
        path = out_of_bounds(1_000_000)
        proc = run_cli("verify", "--instance", "case-study", "--assignment", str(path))
        assert proc.returncode == 1
        assert "feasible,False" in proc.stdout
        assert "bound_violations,1" in proc.stdout
        proc = run_cli("report", "--instance", "case-study", "--assignment", str(path),
                       "--out", str(tmp_path / "r"))
        assert_one_line_error(proc)
        assert "z[N1->N2,t=1]" in proc.stderr
        assert not (tmp_path / "r" / "vehicles.csv").exists()

    def test_one_past_the_bound(self, tmp_path, out_of_bounds):
        """Every row holds but z[N1->N2,t=1] is 4 against its bound 3:
        verify prints feasible,False and report refuses, as when a row fails."""
        path = out_of_bounds(4)
        proc = run_main("verify", "--instance", "case-study", "--assignment", str(path))
        assert proc.returncode == 1
        assert proc.stdout.splitlines()[0] == "feasible,False"
        assert "nonzero_residuals,0" in proc.stdout and "bound_violations,1" in proc.stdout
        proc = run_main("report", "--instance", "case-study", "--assignment", str(path),
                        "--out", str(tmp_path / "r"))
        assert_one_line_error(proc)
        assert proc.stderr == ("hamflow: assignment violates 1 variable bound(s), first at "
                               "z[N1->N2,t=1]; refusing to render reports\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_400_digit_assignment_value(self, tmp_path, out_of_bounds, command):
        path = out_of_bounds(10 ** 399)
        proc = run_cli(command, "--instance", "case-study", "--assignment", str(path),
                       "--out", str(tmp_path / "r"))
        assert_one_line_error(proc)
        assert "bound" in proc.stderr

    @pytest.mark.parametrize("command", ["compile", "solve", "report"])
    def test_unwritable_out(self, micro_doc, tmp_path, command):
        solution = tmp_path / "solved" / "solution.json"
        assert run_cli("solve", "--instance", str(micro_doc),
                       "--out", str(solution.parent)).returncode == 0
        blocker = tmp_path / "file"
        blocker.write_text("")
        proc = run_cli(command, "--instance", str(micro_doc), "--assignment", str(solution),
                       "--out", str(blocker / "out"))
        assert_one_line_error(proc)
        assert "cannot write" in proc.stderr


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        return [p for key, child in node.items() for p in _leaf_paths(child, path + (key,))]
    if isinstance(node, list):
        return [p for i, child in enumerate(node) for p in _leaf_paths(child, path + (i,))]
    return [path]


def _leaf(node, path):
    for key in path:
        node = node[key]
    return node


def assert_report_rows(out: Path, horizon: int) -> None:
    """Each row of the three report CSVs, read back with csv.reader, has a
    name and one field per step (inventory.csv: two names)."""
    for name, width in (("vehicles.csv", horizon + 1), ("cargo.csv", horizon + 1),
                        ("inventory.csv", horizon + 2)):
        with (out / name).open(encoding="utf-8", newline="") as fh:
            note, *rows = csv.reader(fh)
        assert note == [cli.REPORT_NOTE]
        assert rows and all(len(row) == width for row in rows), (name, rows)


_CASE_STUDY = json.loads(CASE_STUDY_DOC.read_text())


@given(path=st.sampled_from(_leaf_paths(_CASE_STUDY)),
       value=st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                       st.lists(st.integers(-2, 2), max_size=2), st.integers(-3, 3),
                       st.sampled_from([5e-324, 1e-320, 1e300, -1e300, 1.7e308, 2**53 + 1,
                                        2**63, 10**30, 10**400, -10**400,
                                        int(sys.float_info.max), 17976931348623159 * 10**292,
                                        2**1024 - 1]),
                       st.sampled_from(['N5,"x"\nLS', "a,b", 'q"q', "x\ny", "x\rz", "N4->N5",
                                        "", ["L", 1]])),
       everywhere=st.booleans())
@settings(max_examples=200, deadline=None)
def test_mutated_case_study_never_raises(tmp_path_factory, path, value, everywhere):
    """One leaf of the case-study document replaced by a value of another
    type or scale; when the leaf is a string (an id or a label) and
    `everywhere` is drawn, every leaf holding that string is, so that an id
    is renamed throughout.  Validate, compile, an annealing and an exact
    solve exit 0, 1 or 2 and never raise, and each solve that exits 0
    writes reports whose rows read back whole (`assert_report_rows`).  Each
    prints at most one line to stderr, and validate's stdout is its count
    line and one line per finding."""
    doc = json.loads(json.dumps(_CASE_STUDY))
    old = _leaf(doc, path)
    paths = ([p for p in _leaf_paths(doc) if _leaf(doc, p) == old]
             if everywhere and isinstance(old, str) else [path])
    for leaf in paths:
        _leaf(doc, leaf[:-1])[leaf[-1]] = value
    base = tmp_path_factory.getbasetemp()
    bad = base / "mutated.json"
    bad.write_text(json.dumps(doc))
    for argv in (["validate"],
                 ["compile", "--out", str(base / "compiled")],
                 ["solve", "--method", "anneal", "--samples", "2", "--out", str(base / "solved")],
                 ["solve", "--method", "exact", "--time-limit", "1",
                  "--out", str(base / "exact")]):
        proc = run_main(*argv, "--instance", str(bad))
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) <= 1, (argv, proc.stderr)
        if argv == ["validate"] and not proc.stderr:
            count, *findings = proc.stdout.splitlines()
            assert count == f"{len(findings)} findings", proc.stdout
        if argv[0] == "solve" and proc.returncode == 0:
            assert_report_rows(Path(argv[-1]), doc["horizon"])


class TestSeedHandling:
    def test_env_seed_fallback(self, micro_doc, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = run_cli("solve", "--instance", str(micro_doc), "--method", "anneal",
                     "--samples", "4", "--out", str(out1), env={"HAMFLOW_SEED": "99"})
        p2 = run_cli("solve", "--instance", str(micro_doc), "--method", "anneal",
                     "--samples", "4", "--seed", "99", "--out", str(out2))
        assert p1.returncode == p2.returncode == 0
        assert (out1 / "histogram.csv").read_bytes() == (out2 / "histogram.csv").read_bytes()

    def test_flag_wins_over_env(self, micro_doc, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = run_cli("solve", "--instance", str(micro_doc), "--method", "anneal",
                     "--samples", "4", "--seed", "5", "--out", str(out1),
                     env={"HAMFLOW_SEED": "99"})
        p2 = run_cli("solve", "--instance", str(micro_doc), "--method", "anneal",
                     "--samples", "4", "--seed", "5", "--out", str(out2))
        assert (out1 / "samples.csv").read_text().splitlines()[1].split(",")[:2] == \
            (out2 / "samples.csv").read_text().splitlines()[1].split(",")[:2]

    def test_negative_flag_seed(self, micro_doc, tmp_path):
        proc = run_cli("solve", "--instance", str(micro_doc), "--method", "anneal",
                       "--seed", "-1", "--out", str(tmp_path / "out"))
        assert_one_line_error(proc)
        assert "--seed must be a non-negative integer" in proc.stderr

    def test_negative_env_seed(self, micro_doc, tmp_path):
        proc = run_cli("solve", "--instance", str(micro_doc), "--method", "anneal",
                       "--out", str(tmp_path / "out"), env={"HAMFLOW_SEED": "-4"})
        assert_one_line_error(proc)
        assert "HAMFLOW_SEED='-4' must be a non-negative integer" in proc.stderr


class TestReports:
    def test_report_files_from_published_schedule(self, tmp_path):
        # drive solve on the case study, then re-render via the report command
        out = tmp_path / "out"
        proc = run_cli("solve", "--instance", "case-study", "--method", "exact",
                       "--out", str(out))
        assert proc.returncode == 0
        for name in ("vehicles.csv", "cargo.csv", "inventory.csv", "solution.json"):
            assert (out / name).exists()

        proc2 = run_cli("report", "--instance", "case-study",
                        "--assignment", str(out / "solution.json"),
                        "--out", str(tmp_path / "rerender"))
        assert proc2.returncode == 0
        for name in ("vehicles.csv", "cargo.csv", "inventory.csv"):
            assert (tmp_path / "rerender" / name).read_text() == (out / name).read_text()

    def test_verify_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        run_cli("solve", "--instance", "case-study", "--method", "exact", "--out", str(out))
        proc = run_cli("verify", "--instance", "case-study",
                       "--assignment", str(out / "solution.json"), "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["feasible"] is True

    def test_verify_detects_tampering(self, tmp_path):
        out = tmp_path / "out"
        run_cli("solve", "--instance", "case-study", "--method", "exact", "--out", str(out))
        doc = json.loads((out / "solution.json").read_text())
        doc["values"][0] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        proc = run_cli("verify", "--instance", "case-study", "--assignment", str(tampered))
        assert proc.returncode == 1

    def test_report_refuses_infeasible_assignment(self, tmp_path):
        out = tmp_path / "out"
        run_cli("solve", "--instance", "case-study", "--method", "exact", "--out", str(out))
        doc = json.loads((out / "solution.json").read_text())
        doc["values"] = [0] * len(doc["values"])
        zeroed = tmp_path / "zeroed.json"
        zeroed.write_text(json.dumps(doc))
        proc = run_cli("report", "--instance", "case-study", "--assignment", str(zeroed),
                       "--out", str(tmp_path / "r"))
        assert proc.returncode == 1
        assert "infeasible" in proc.stderr

    def test_capacity_respected_in_rendered_tables(self, tmp_path):
        out = tmp_path / "out"
        run_cli("solve", "--instance", "case-study", "--method", "exact", "--out", str(out))
        vehicles = _read_table(out / "vehicles.csv")
        cargo = _read_table(out / "cargo.csv")
        for arc in vehicles:
            for z, m in zip(vehicles[arc], cargo[arc]):
                assert z * 100 >= m

    def test_empty_instance_all_zero_tables(self, tmp_path):
        doc = {
            "depots": [{"id": "A", "label": "A"}, {"id": "B", "label": "B"}],
            "arcs": [{"from": "A", "to": "B", "cost": 1.0, "travel_time": 1}],
            "commodities": [{"id": "K", "load": 1}],
            "horizon": 2, "capacity": 10, "schedule": [],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        proc = run_cli("solve", "--instance", str(path), "--method", "exact",
                       "--out", str(out), "--no-prune")
        assert proc.returncode == 0
        for name in ("vehicles.csv", "cargo.csv", "inventory.csv"):
            table = _read_table(out / name)
            assert all(v == 0 for row in table.values() for v in row)


class TestSolutionLayout:
    """solution.json is written from templates, not by json.dumps: its bytes
    must still be those json.dumps(doc, indent=2) writes, plus a newline."""

    @staticmethod
    def assert_layout(tmp_path, model, sample, method):
        cli._write_solution(tmp_path, model, sample.assignment, method, sample.objective)
        doc = {"method": method, "objective": sample.objective,
               "values": list(sample.assignment.values),
               "variables": [v.name() for v in model.variables]}
        assert (tmp_path / "solution.json").read_bytes() == \
            (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_exact_and_anneal_solves(self, tmp_path, k):
        """k = 0 is the unpruned case study (`hamflow solve --no-prune`),
        k >= 1 the pruned waves(k); waves(1) is the pruned case study."""
        if k:
            model = expansion.prune_model(expansion.expand_model(waves(k)))
        else:
            model = expansion.expand_model(cli.build_case_study(cli.default_case_study_costs()))
        self.assert_layout(tmp_path, model, solvers.solve_exact(model).sample, "exact")
        h = compile_hamiltonian(model)
        samples = solvers.anneal_sample(h, model, solvers.AnnealParams(restarts=2, sweeps=20),
                                        seed=3)
        self.assert_layout(tmp_path, model, samples.best(), "anneal")

    def test_names_that_json_escapes(self, tmp_path):
        """A depot id holding a backslash and a non-ASCII letter, which
        json.dumps writes as \\\\ and \\u00e9."""
        odd = 'Q\\é'
        inst = Instance(
            depots=(Depot("A", "A"), Depot(odd, odd)),
            arcs=(Arc("A", odd, 5.0, 1),),
            commodities=(Commodity("K", 10.0),),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 1, 10.0), ScheduleEntry(odd, "K", 2, -10.0)))
        model = expansion.expand_model(inst)
        self.assert_layout(tmp_path, model, solvers.solve_exact(model).sample, "exact")
        text = (tmp_path / "solution.json").read_text(encoding="utf-8")
        assert r'Q\\\u00e9' in text and text.isascii()


# Runs in a fresh interpreter: the test process has imported numpy already.
_NUMPY_PROBE = """
import importlib.util, sys, types
# hamflow.flows on its own, under a bare package: the package's __init__
# imports every layer, solvers among them
package = types.ModuleType("hamflow")
package.__path__ = importlib.util.find_spec("hamflow").submodule_search_locations
sys.modules["hamflow"] = package
import hamflow.flows
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("hamflow", "numpy"))
assert loaded == ["hamflow", "hamflow.expansion", "hamflow.flows", "hamflow.instance"], loaded
for name in [m for m in sys.modules if m.partition(".")[0] == "hamflow"]:
    del sys.modules[name]
from hamflow.cli import main
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "hamflow")
assert loaded == ["hamflow", "hamflow.cli", "hamflow.expansion", "hamflow.flows",
                  "hamflow.hamiltonian", "hamflow.instance", "hamflow.solvers"], loaded
out = sys.argv[1]
solution = out + "/exact/solution.json"
for command in (["validate"], ["compile", "--out", out + "/compiled"],
                ["solve", "--method", "exact", "--out", out + "/exact"],
                ["verify", "--assignment", solution],
                ["report", "--assignment", solution, "--out", out + "/report"]):
    assert main([command[0], "--instance", "case-study", *command[1:]]) == 0, command
    assert "numpy" not in sys.modules, command
assert main(["solve", "--instance", "case-study", "--method", "anneal", "--samples", "1",
             "--out", out + "/anneal"]) == 0
assert "numpy" in sys.modules, "anneal ran without numpy"
assert "scipy" not in sys.modules, "the library imported scipy"
"""


def test_only_anneal_imports_numpy(tmp_path):
    """Also pins the hamflow modules the command line loads: each one more
    is source compiled on every cold start."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _read_table(path: Path) -> dict[str, list[int]]:
    rows = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("arc,") or line.startswith("depot,"):
            continue
        parts = line.split(",")
        if parts[0] in ("N1", "N2", "N3", "N4", "N5", "N6", "N7", "A", "B"):
            rows[f"{parts[0]},{parts[1]}"] = [int(v) for v in parts[2:]]
        else:
            rows[parts[0]] = [int(v) for v in parts[1:]]
    return rows


class TestHistogram:
    def test_counts_sum_to_samples(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("solve", "--instance", "case-study", "--method", "anneal",
                       "--samples", "10", "--seed", "4", "--out", str(out))
        assert proc.returncode == 0
        lines = (out / "histogram.csv").read_text().splitlines()
        assert lines[0] == "bin_lower,bin_upper,count"
        counts = [int(l.split(",")[2]) for l in lines[1:] if not l.startswith("#")]
        assert len(counts) == 20
        assert sum(counts) == 10

    def test_single_sample_single_bin(self, micro_doc, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("solve", "--instance", str(micro_doc), "--method", "anneal",
                       "--samples", "1", "--seed", "0", "--out", str(out))
        assert proc.returncode == 0
        lines = (out / "histogram.csv").read_text().splitlines()
        counts = [int(l.split(",")[2]) for l in lines[1:] if not l.startswith("#")]
        assert sum(1 for c in counts if c) == 1
