import hashlib
import io
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow import expansion, hamiltonian
from hamflow.cli import DEVICE_METADATA
from hamflow.expansion import Assignment, expand_model, prune_model
from hamflow.hamiltonian import (
    Hamiltonian,
    HamiltonianVariable,
    NonIntegerCoefficientError,
    PolynomialFormatError,
    choose_alpha,
    compile_hamiltonian,
    decode_point,
    dynamic_range_db,
    encode_assignment,
    evaluate_energy,
    export_hamiltonian,
    parse_hamiltonian,
)
from hamflow.instance import (
    Arc,
    Commodity,
    Depot,
    Instance,
    ScheduleEntry,
    build_case_study,
    default_case_study_costs,
)
from hamflow.solvers import solve_exact

from conftest import GOLDEN_DIR, empty_schedule_instance, random_micro_model
from waves import waves as waves_instance


def slackwise_penalty(model, h, point):
    """Independent P2 oracle: evaluate each equality's squared residual from
    the raw constraint terms, walking the compiled rows by hand."""
    total = 0
    slack_values = {}
    for v in h.variables[len(model.variables):]:
        slack_values[v.origin[1]] = point[v.index]
    for c in model.constraints:
        lhs = sum(coef * point[i] for i, coef in c.terms)
        if c.relation == "eq":
            r = lhs - c.rhs
        else:
            r = lhs - c.rhs + slack_values[c.tag]
        total += r * r
    return total


def oracle_energy(model, h, point):
    obj = sum(cost * point[i] for i, cost in model.objective)
    return obj + h.alpha * slackwise_penalty(model, h, point)


def random_point(rng, h):
    return [rng.randint(0, max(v.levels, 0)) for v in h.variables]


class TestChooseAlpha:
    def test_single_vehicle_variable(self):
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 2.0, 1),),
            commodities=(Commodity("K", 1.0),),
            horizon=1, capacity=1.0,
            schedule=(ScheduleEntry("A", "K", 1, 3.0),
                      ScheduleEntry("B", "K", 1, -3.0)))
        model = expand_model(inst)
        assert [v.upper_bound for v in model.variables if v.kind == "vehicle"] == [3]
        assert choose_alpha(model) == 7.0       # 1 + 2 * 3

    def test_empty_objective(self):
        model = prune_model(expand_model(empty_schedule_instance()))
        assert model.objective == ()
        assert choose_alpha(model) == 1.0

    def test_case_study_all_ones(self):
        inst = build_case_study({k: 1.0 for k in default_case_study_costs()})
        model = expand_model(inst)
        assert choose_alpha(model) == 145.0     # 1 + 48 vehicle variables * ub 3


class TestCompile:
    def test_micro_structure(self, micro_model):
        h = compile_hamiltonian(micro_model)
        assert h.num_decision_variables() == 4
        assert h.num_slack_variables() == 2
        assert all(i <= j for i, j in h.quadratic)
        slacks = [v for v in h.variables if v.origin[0] == "slack"]
        assert [v.levels for v in slacks] == [100, 100]   # capacity * ub(z)

    def test_micro_against_hand_expansion(self, micro_model):
        """Re-derive every coefficient by expanding (lhs - rhs)^2 term by
        term, independently of the compiler's accumulation order."""
        h = compile_hamiltonian(micro_model)
        alpha = h.alpha
        rows = []
        slack_iter = iter(range(len(micro_model.variables), h.num_variables))
        for c in micro_model.constraints:
            terms = list(c.terms)
            if c.relation == "le":
                terms.append((next(slack_iter), 1))
            rows.append((terms, c.rhs))
        linear = {}
        quadratic = {}
        offset = 0.0
        for i, cost in micro_model.objective:
            linear[i] = linear.get(i, 0.0) + cost
        for terms, rhs in rows:
            offset += alpha * rhs * rhs
            for i, a in terms:
                linear[i] = linear.get(i, 0.0) - 2 * alpha * rhs * a
                for j, b in terms:
                    key = (min(i, j), max(i, j))
                    # each unordered pair counted once: i==j adds a^2, i<j adds 2ab
                    if i == j:
                        quadratic[key] = quadratic.get(key, 0.0) + alpha * a * b
                    elif i < j:
                        quadratic[key] = quadratic.get(key, 0.0) + 2 * alpha * a * b
        linear = {k: v for k, v in linear.items() if v != 0}
        quadratic = {k: v for k, v in quadratic.items() if v != 0}
        assert h.linear == linear
        assert h.quadratic == quadratic
        assert h.offset == offset

    def test_feasible_point_has_zero_penalty(self, micro_model):
        h = compile_hamiltonian(micro_model)
        # x=1 and z=1 at t=1, slack 90 on the loaded step, everything else 0
        point = [1, 0, 1, 0, 90, 0]
        assert slackwise_penalty(micro_model, h, point) == 0
        assert evaluate_energy(h, point) == pytest.approx(5.0)

    def test_energy_of_encoded_assignment_equals_objective(self, case_study_pruned):
        h = compile_hamiltonian(case_study_pruned)
        result = solve_exact(case_study_pruned)
        point = encode_assignment(h, case_study_pruned, result.sample.assignment)
        # expanded-coefficient evaluation carries float dust from the large
        # cancelling penalty terms; 1e-9 relative is the contract
        assert evaluate_energy(h, point) == pytest.approx(result.objective, rel=1e-9)

    def test_zero_demand_zero_point_zero_energy(self):
        model = expand_model(empty_schedule_instance())
        h = compile_hamiltonian(model)
        assert evaluate_energy(h, [0.0] * h.num_variables) == 0.0

    def test_variable_order_decisions_then_slacks(self, case_study_pruned):
        h = compile_hamiltonian(case_study_pruned)
        n = len(case_study_pruned.variables)
        assert all(v.origin[0] == "decision" for v in h.variables[:n])
        assert all(v.origin[0] == "slack" for v in h.variables[n:])
        capacity_tags = [c.tag for c in case_study_pruned.constraints if c.relation == "le"]
        assert [v.origin[1] for v in h.variables[n:]] == capacity_tags

    def test_sum_constraint_is_total_levels(self, micro_model):
        h = compile_hamiltonian(micro_model)
        assert h.sum_constraint == h.total_levels() == 204

    def test_non_integer_coefficient_rejected(self, micro_model):
        bad = replace(micro_model,
                      constraints=(replace(micro_model.constraints[0],
                                           terms=((0, 10.0),)),)
                      + micro_model.constraints[1:])
        # the row is named as verify and report name it
        refusal = r"^constraint conservation\(A,K,t=1\): coefficient 10\.0 on variable 0 "
        with pytest.raises(NonIntegerCoefficientError, match=refusal):
            compile_hamiltonian(bad)

    def test_custom_alpha(self, micro_model):
        h = compile_hamiltonian(micro_model, alpha=50.0)
        assert h.alpha == 50.0
        assert h.offset == 50.0 * (100 + 100)

    def test_cancelled_coefficient_is_dropped(self):
        # x[A->B,t=1] departs A's supply row (rhs +10, coefficient +10) and
        # arrives in B's supply row (rhs +10, coefficient -10), so its linear
        # coefficient is -2*alpha*100 + 2*alpha*100 = 0.0
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B"), Depot("C", "C")),
            arcs=(Arc("A", "B", 1.0, 1), Arc("B", "C", 1.0, 1)),
            commodities=(Commodity("K", 10.0),), horizon=3, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 1, 10.0), ScheduleEntry("B", "K", 2, 10.0),
                      ScheduleEntry("C", "K", 3, -20.0)))
        model = prune_model(expand_model(inst))
        x = model.flow_index()[(("A", "B"), "K", 1)]
        h = compile_hamiltonian(model)
        assert x not in h.linear
        assert 0.0 not in h.linear.values() and 0.0 not in h.quadratic.values()
        buf = io.StringIO()
        export_hamiltonian(h, buf)
        parsed = parse_hamiltonian(buf.getvalue())
        assert list(parsed.linear.items()) == sorted(h.linear.items())
        assert list(parsed.quadratic.items()) == sorted(h.quadratic.items())
        assert (parsed.offset, parsed.alpha, parsed.sum_constraint) == \
            (h.offset, h.alpha, h.sum_constraint)


class TestEvaluate:
    def test_zero_point_zero_rhs(self):
        model = expand_model(empty_schedule_instance())
        h = compile_hamiltonian(model)
        assert all(c.rhs == 0 for c in model.constraints)
        assert evaluate_energy(h, [0.0] * h.num_variables) == 0.0

    def test_length_mismatch(self, micro_model):
        h = compile_hamiltonian(micro_model)
        with pytest.raises(ValueError):
            evaluate_energy(h, [0.0])

    def test_slack_off_by_one_costs_at_least_alpha(self, micro_model):
        h = compile_hamiltonian(micro_model)
        point = [1, 0, 1, 0, 89, 0]    # slack one below the tight value
        assert evaluate_energy(h, point) >= h.alpha

    def test_randomized_energy_identity(self, micro_model, case_study_pruned):
        rng = random.Random(4242)
        for model in (micro_model, case_study_pruned):
            h = compile_hamiltonian(model)
            for _ in range(1200):
                point = random_point(rng, h)
                expected = oracle_energy(model, h, point)
                assert evaluate_energy(h, point) == pytest.approx(expected, rel=1e-9)

    def test_separation_property(self, micro_model):
        """With the default alpha, every in-bounds integer point with a
        residual sits strictly above every feasible point's energy."""
        h = compile_hamiltonian(micro_model)
        dims = [v.levels + 1 for v in h.variables]
        feasible_energies = []
        violating_min = math.inf
        # micro model is small enough to scan the slack-reduced lattice
        for x0 in range(dims[0]):
            for x1 in range(dims[1]):
                for z0 in range(dims[2]):
                    for z1 in range(dims[3]):
                        a = Assignment(values=(x0, x1, z0, z1))
                        point = encode_assignment(h, micro_model, a)
                        e = evaluate_energy(h, point)
                        if slackwise_penalty(micro_model, h, point) == 0:
                            feasible_energies.append(e)
                        else:
                            violating_min = min(violating_min, e)
        assert feasible_energies
        assert violating_min > max(feasible_energies)

    def test_separation_on_random_points_case_study(self, case_study_pruned):
        h = compile_hamiltonian(case_study_pruned)
        best_feasible = solve_exact(case_study_pruned).objective
        worst_feasible_bound = choose_alpha(case_study_pruned) - 1.0
        rng = random.Random(99)
        for _ in range(500):
            point = random_point(rng, h)
            if slackwise_penalty(case_study_pruned, h, point) > 0:
                assert evaluate_energy(h, point) > worst_feasible_bound >= best_feasible


class TestDynamicRange:
    def test_ratio_200_is_23db(self):
        h = Hamiltonian(variables=(HamiltonianVariable(0, None, 1),),
                        linear={0: 200.0}, quadratic={(0, 0): 1.0},
                        offset=0.0, alpha=1.0, sum_constraint=None)
        assert dynamic_range_db(h) == pytest.approx(23.01, abs=0.01)

    def test_uniform_coefficients_are_0db(self):
        h = Hamiltonian(variables=(HamiltonianVariable(0, None, 1),),
                        linear={0: 3.0}, quadratic={(0, 0): -3.0},
                        offset=5.0, alpha=1.0, sum_constraint=None)
        assert dynamic_range_db(h) == 0.0

    def test_half_to_five_hundred_is_30db(self):
        h = Hamiltonian(variables=(HamiltonianVariable(0, None, 1),),
                        linear={0: 0.5}, quadratic={(0, 0): 500.0},
                        offset=0.0, alpha=1.0, sum_constraint=None)
        assert dynamic_range_db(h) == pytest.approx(30.0, abs=1e-9)

    def test_all_zero_raises(self):
        h = Hamiltonian(variables=(), linear={}, quadratic={},
                        offset=1.0, alpha=1.0, sum_constraint=None)
        with pytest.raises(ValueError):
            dynamic_range_db(h)

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_uniform_scaling(self, scale):
        h = Hamiltonian(variables=(HamiltonianVariable(0, None, 1),
                                   HamiltonianVariable(1, None, 1)),
                        linear={0: 0.25, 1: -40.0}, quadratic={(0, 1): 7.0},
                        offset=2.0, alpha=1.0, sum_constraint=None)
        scaled = Hamiltonian(variables=h.variables,
                             linear={i: c * scale for i, c in h.linear.items()},
                             quadratic={k: c * scale for k, c in h.quadratic.items()},
                             offset=h.offset, alpha=h.alpha, sum_constraint=None)
        assert dynamic_range_db(scaled) == pytest.approx(dynamic_range_db(h), abs=1e-9)


class TestEncode:
    @pytest.mark.parametrize("model_name", ["micro_model", "case_study_pruned"])
    def test_parsed_hamiltonian_lifts_like_the_compiled_one(self, request, model_name):
        model = request.getfixturevalue(model_name)
        h = compile_hamiltonian(model)
        buf = io.StringIO()
        export_hamiltonian(h, buf)
        parsed = parse_hamiltonian(buf.getvalue())
        rng = random.Random(31)
        for _ in range(50):
            a = Assignment(values=tuple(rng.randint(0, v.upper_bound) for v in model.variables))
            assert encode_assignment(parsed, model, a) == encode_assignment(h, model, a)

    def test_slack_count_mismatch_raises(self, micro_model):
        h = compile_hamiltonian(micro_model)
        short = replace(h, variables=h.variables[:-1])
        with pytest.raises(ValueError, match="slack"):
            encode_assignment(short, micro_model, expansion.zero_assignment(micro_model))


class TestDecode:
    def test_integer_point_is_identity(self, micro_model):
        h = compile_hamiltonian(micro_model)
        a = Assignment(values=(1, 0, 1, 0))
        point = encode_assignment(h, micro_model, a)
        assert decode_point(h, micro_model, point) == a

    def test_half_rounds_away_from_zero(self, micro_model):
        h = compile_hamiltonian(micro_model)
        flow_ub3 = replace(micro_model, variables=tuple(
            replace(v, upper_bound=3) for v in micro_model.variables))
        h3 = compile_hamiltonian(flow_ub3)
        point = [2.5, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert decode_point(h3, flow_ub3, point).values[0] == 3

    def test_clamps_to_upper_bound(self, micro_model):
        flow_ub4 = replace(micro_model, variables=tuple(
            replace(v, upper_bound=4) for v in micro_model.variables))
        h4 = compile_hamiltonian(flow_ub4)
        point = [7.2, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert decode_point(h4, flow_ub4, point).values[0] == 4

    def test_negative_clamps_to_zero(self, micro_model):
        h = compile_hamiltonian(micro_model)
        point = [-0.9, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert decode_point(h, micro_model, point).values[0] == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 5])      # a flow variable and a slack
    def test_non_finite_value_is_refused(self, micro_model, value, index):
        h = compile_hamiltonian(micro_model)
        point = [0.0] * h.num_variables
        point[index] = value
        with pytest.raises(ValueError, match=f"variable {index} is not finite"):
            decode_point(h, micro_model, point)


class TestExport:
    def test_micro_golden(self, micro_model):
        h = compile_hamiltonian(micro_model)
        buf = io.StringIO()
        export_hamiltonian(h, buf)
        assert buf.getvalue() == (GOLDEN_DIR / "micro_hamiltonian.txt").read_text()

    @pytest.mark.parametrize("prune, digest", [
        (False, "480ff02c77c01dd16f697407c8f5137e4763be46002c6c2d2e601f7dba253d33"),
        (True, "ff94782230971436d17c5decdb2d4ebe8c27ac5c104893a8285309e8de1790a8"),
    ])
    def test_case_study_digest(self, case_study_model, prune, digest):
        """sha256 of the compiled case study's export, recorded before the
        slack ranges were derived from the rows."""
        model = prune_model(case_study_model) if prune else case_study_model
        buf = io.StringIO()
        export_hamiltonian(compile_hamiltonian(model), buf, metadata=DEVICE_METADATA)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_empty_hamiltonian_header_only(self):
        model = prune_model(expand_model(empty_schedule_instance()))
        h = compile_hamiltonian(model)
        buf = io.StringIO()
        export_hamiltonian(h, buf)
        lines = buf.getvalue().splitlines()
        assert lines == ["HAMILTONIAN v1 vars=0 alpha=1 offset=0 R=0", "LEVELS"]

    def test_round_trip_identical_coefficients(self, case_study_pruned):
        h = compile_hamiltonian(case_study_pruned)
        buf = io.StringIO()
        export_hamiltonian(h, buf, metadata={"relaxation_schedule": "2"})
        back = parse_hamiltonian(buf.getvalue())
        assert back.linear == h.linear
        assert back.quadratic == h.quadratic
        assert back.offset == h.offset
        assert back.alpha == h.alpha
        assert back.sum_constraint == h.sum_constraint
        assert [v.levels for v in back.variables] == [v.levels for v in h.variables]

    def test_export_is_deterministic(self, case_study_pruned):
        h = compile_hamiltonian(case_study_pruned)
        a, b = io.StringIO(), io.StringIO()
        export_hamiltonian(h, a)
        export_hamiltonian(h, b)
        assert a.getvalue() == b.getvalue()

    def test_terms_sorted_by_degree_then_indices(self, case_study_pruned):
        h = compile_hamiltonian(case_study_pruned)
        buf = io.StringIO()
        export_hamiltonian(h, buf)
        term_lines = [l.split() for l in buf.getvalue().splitlines()[2:]]
        keys = [(int(t[0]), tuple(int(x) for x in t[1:-1])) for t in term_lines]
        assert keys == sorted(keys)


HEADER = "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=2"


def poly(*term_lines, header=HEADER, levels="LEVELS 1 1"):
    return "\n".join([header, levels, *term_lines]) + "\n"


class TestParseErrors:
    """Every PolynomialFormatError the parser raises, with its message."""

    @pytest.mark.parametrize("text, message", [
        ("", "missing 'HAMILTONIAN v1' header"),
        ("HAMILTONIAN v2 vars=1 alpha=1 offset=0 R=1\nLEVELS 1\n",
         "missing 'HAMILTONIAN v1' header"),
        ("HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=2\n", "missing LEVELS line"),
        (poly(levels="LEVEL 1 1"), "missing LEVELS line"),
        (poly(levels="LEVELS 1"), "LEVELS lists 1 entries for 2 variables"),
        (poly(levels="LEVELS 1 1 1"), "LEVELS lists 3 entries for 2 variables"),
    ])
    def test_header_and_levels(self, text, message):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("header", [
        "HAMILTONIAN v1 vars=two alpha=3 offset=0 R=2",
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0",
        "HAMILTONIAN v1 vars=2 alpha=x offset=0 R=2",
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=",
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=2 junk",
        "HAMILTONIAN v1 vars=2 alpha=inf offset=0 R=2",
        "HAMILTONIAN v1 vars=2 alpha=3 offset=nan R=2",
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=1e400",
        # int() and float() read these; export never writes them
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=1_1",
        "HAMILTONIAN v1 vars=2 alpha=+3 offset=0 R=2",
        "HAMILTONIAN v1 vars=\uff12 alpha=3 offset=0 R=2",
    ])
    def test_bad_header(self, header):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly(header=header))
        assert str(exc.value) == f"bad header: {header!r}"

    @pytest.mark.parametrize("header", [
        # export writes the four keys once each and nothing else
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=2 junk=1",
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=2 junk=1 vars=2",
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=2 vars=2",
        "HAMILTONIAN v1 vars=2 alpha=3 alpha=3 offset=0 R=2",
        "HAMILTONIAN v1 vars=2 alpha=3 offset=0 r=2",
    ])
    def test_unknown_or_repeated_header_key(self, header):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly(header=header))
        assert str(exc.value) == f"bad header: {header!r}"

    def test_header_keys_in_any_order(self):
        h = parse_hamiltonian(poly(header="HAMILTONIAN v1 R=2 offset=0 alpha=3 vars=2"))
        assert (h.num_variables, h.alpha, h.offset, h.sum_constraint) == (2, 3.0, 0.0, 2.0)

    @pytest.mark.parametrize("lines, repeat", [
        (("1 0 1.5", "1 0 2.5"), "1 0 2.5"),
        (("1 0 1.5", "2 0 1 1", "2 0 1 7"), "2 0 1 7"),
        (("2 0 1 1", "# between", "", "1 1 2", "2 0 1 1"), "2 0 1 1"),
        (("1 1 2", "1 0 1.5", "1 00 1.5"), "1 00 1.5"),
    ])
    def test_repeated_term_line(self, lines, repeat):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly(*lines))
        assert str(exc.value) == f"repeated term line: {repeat!r}"

    @pytest.mark.parametrize("alpha", ["0", "-0", "-3"])
    def test_non_positive_alpha(self, alpha):
        header = f"HAMILTONIAN v1 vars=2 alpha={alpha} offset=0 R=2"
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly(header=header))
        assert str(exc.value) == f"bad header: {header!r}"

    @pytest.mark.parametrize("levels, entry", [("LEVELS 1 -1", "-1"), ("LEVELS -5 2", "-5")])
    def test_negative_levels_entry(self, levels, entry):
        header = "HAMILTONIAN v1 vars=2 alpha=3 offset=0 R=0"
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly(header=header, levels=levels))
        assert str(exc.value) == f"LEVELS entry {entry!r} is negative"

    @pytest.mark.parametrize("r", ["99", "4", "-1", "1.5"])
    def test_sum_constraint_outside_the_levels(self, r):
        # the levels 1 2 sum to 3: no point of {0..1} x {0..2} sums to R
        header = f"HAMILTONIAN v1 vars=2 alpha=3 offset=0 R={r}"
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly(header=header, levels="LEVELS 1 2"))
        assert str(exc.value) == f"R={r} is not an integer in 0..3"

    def test_sum_constraint_rounded_above_the_levels_round_trips(self):
        # the levels sum to 2**62 + 1001, which the float R rounds up to 2**62 + 1024
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")), arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 1.0),), horizon=2, capacity=2.0**62,
            schedule=(ScheduleEntry("A", "K", 1, 1000.0), ScheduleEntry("B", "K", 2, -1000.0)))
        h = compile_hamiltonian(prune_model(expand_model(inst)))
        assert h.sum_constraint > sum(v.levels for v in h.variables)
        buf = io.StringIO()
        export_hamiltonian(h, buf)
        assert parse_hamiltonian(buf.getvalue()).sum_constraint == h.sum_constraint

    @pytest.mark.parametrize("levels, entry", [("LEVELS 1 x", "x"), ("LEVELS 1.5 1", "1.5"),
                                               ("LEVELS 1 1_0", "1_0"), ("LEVELS +1 1", "+1"),
                                               ("LEVELS 1 \uff11", "\uff11")])
    def test_non_integer_levels_entry(self, levels, entry):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly(levels=levels))
        assert str(exc.value) == f"LEVELS entry {entry!r} is not an integer"

    @pytest.mark.parametrize("line", ["1 a 3.0", "1 0 abc", "1 0.0 1.5", "2 0 x 1.5",
                                      "2 0 1 1.5.0",
                                      # int() and float() read these; export never writes them
                                      "1 1_0 1_5.0", "2 \uff10 1_0 2", "1 +0 +1.5", "1 0 +1.5",
                                      "2 0 1 1.5e+1_0", "1 0 \uff11.5"])
    def test_non_numeric_term_token(self, line):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly("1 1 2.5", line))
        assert str(exc.value) == f"unrecognized term line: {line!r}"

    @pytest.mark.parametrize("line", ["1 0 1e400", "1 0 inf", "2 0 1 -inf", "2 1 1 nan"])
    def test_non_finite_coefficient(self, line):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly("1 1 2.5", line))
        assert str(exc.value) == f"non-finite coefficient: {line!r}"

    def test_quadratic_indices_out_of_order(self):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly("1 0 1.5", "2 1 0 -2"))
        assert str(exc.value) == "quadratic indices out of order: '2 1 0 -2'"

    @pytest.mark.parametrize("line", [
        "3 0 1 1 0.5",      # degree 3 is not read
        "1 0",
        "2 0 1",
        "1 0 1.5 2",
        "0 1.5",
        " # not a comment: it is not at column 0",
    ])
    def test_unrecognized_term_line(self, line):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly("1 0 1.5", line))
        assert str(exc.value) == f"unrecognized term line: {line!r}"

    @pytest.mark.parametrize("lines, index", [
        (("1 2 1.5",), 2),
        (("1 -1 1.5",), -1),
        (("2 0 7 1.5",), 7),
        (("2 -3 1 1.5",), -3),
        # linear indices are checked before quadratic ones, each in file order
        (("2 0 9 1.5", "1 5 1.0", "1 6 1.0"), 5),
        (("1 0 1.0", "2 0 8 1.5", "2 9 9 1.5"), 8),
    ])
    def test_index_out_of_range_names_the_first(self, lines, index):
        with pytest.raises(PolynomialFormatError) as exc:
            parse_hamiltonian(poly(*lines))
        assert str(exc.value) == f"term index {index} out of range"

    def test_comments_and_blank_lines_are_skipped(self):
        h = parse_hamiltonian(poly("# relaxation_schedule 2", "", "   ", "1 0 1.5",
                                   "# +1 1_0 \uff10"))
        assert h.linear == {0: 1.5} and h.quadratic == {}

    def test_exponents_keep_their_signs(self):
        header = "HAMILTONIAN v1 vars=2 alpha=1e+300 offset=-2.5e-05 R=2"
        h = parse_hamiltonian(poly("1 0 1e+300", "2 0 1 -1.5e-07", header=header))
        assert (h.alpha, h.offset) == (1e300, -2.5e-05)
        assert h.linear == {0: 1e300} and h.quadratic == {(0, 1): -1.5e-07}

    def test_negative_zero_round_trips(self):
        text = ("HAMILTONIAN v1 vars=1 alpha=1 offset=-0 R=-0\nLEVELS 1\n"
                "1 0 -0\n2 0 0 -0\n")
        h = parse_hamiltonian(text)
        assert math.copysign(1.0, h.linear[0]) == -1.0
        buf = io.StringIO()
        export_hamiltonian(h, buf)
        assert buf.getvalue() == text

    def test_zero_and_negative_zero_keep_their_signs(self):
        h = parse_hamiltonian(poly("1 0 0", "1 1 -0", "2 0 0 -0", "2 0 1 0"))
        buf = io.StringIO()
        export_hamiltonian(h, buf)
        assert buf.getvalue().splitlines()[2:] == ["1 0 0", "1 1 -0", "2 0 0 -0", "2 0 1 0"]


class TestLargeScaleBytes:
    """sha256 pins of the 40-wave model (1926 pruned variables) through
    dump, compile, export and parse, recorded before the front end was
    rewritten for speed; dict orders are pinned because evaluate_energy
    sums in dict order."""

    @pytest.fixture(scope="class")
    def waves40(self):
        full = expand_model(waves_instance(40))
        pruned = prune_model(full)
        h = compile_hamiltonian(pruned)
        buf = io.StringIO()
        export_hamiltonian(h, buf, metadata=DEVICE_METADATA)
        return full, pruned, h, buf.getvalue()

    @staticmethod
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    @staticmethod
    def ordered_terms(h) -> str:
        return repr(list(h.linear.items())) + repr(list(h.quadratic.items()))

    def test_model_dumps(self, waves40):
        full, pruned, _, _ = waves40
        assert self.sha(expansion.dump_model_json(full)) == \
            "9e62b6ece006c60495089ae4292d5abb5c5b85aae9d0fe62e7ece3d78f1ec11c"
        assert self.sha(expansion.dump_model_json(pruned)) == \
            "78d506048ded1755570b78fd20914d2d74d197798b96f2474b689f5148269652"

    def test_compiled_term_order(self, waves40):
        _, _, h, _ = waves40
        assert (len(h.linear), len(h.quadratic)) == (1122, 8970)
        assert self.sha(self.ordered_terms(h)) == \
            "0463e63a0b4c16a78808678521eb758a4c066fe77fe98c577653509cbbd0a661"

    def test_export(self, waves40):
        assert self.sha(waves40[3]) == \
            "3b1ff10822bfb88b3db8514eaad9aa3ef4579504ae0dedbf6cbcb8083ec7cbf5"

    def test_parsed_terms_in_file_order(self, waves40):
        back = parse_hamiltonian(waves40[3])
        assert self.sha(self.ordered_terms(back)) == \
            "0557ca52842b975704feef74db23adef57c56c1284b24a3013bcfe91e5d1d94e"


def test_energy_identity_on_random_micro_models():
    rng = random.Random(5150)
    np_rng = np.random.default_rng(5150)
    for _ in range(6):
        model = random_micro_model(rng)
        h = compile_hamiltonian(model)
        for _ in range(200):
            point = [int(np_rng.integers(0, v.levels + 1)) for v in h.variables]
            assert evaluate_energy(h, point) == pytest.approx(
                oracle_energy(model, h, point), rel=1e-9, abs=1e-9)


def test_feasible_assignments_encode_to_zero_penalty():
    """Cross-module equivalence: a verified-feasible assignment always
    encodes to a point with zero squared-residual penalty."""
    rng = random.Random(2718)
    feasible_seen = 0
    for _ in range(8):
        model = random_micro_model(rng)
        h = compile_hamiltonian(model)
        for _ in range(150):
            a = Assignment(values=tuple(rng.randint(0, v.upper_bound)
                                        for v in model.variables))
            point = encode_assignment(h, model, a)
            feasible = expansion.verify_assignment(model, a).feasible
            if feasible:
                assert slackwise_penalty(model, h, point) == 0
                feasible_seen += 1
        # the exact optimum is a guaranteed-feasible witness when one exists
        from hamflow.solvers import solve_exact as _solve
        result = _solve(model, time_limit=30.0)
        if result.sample is not None:
            point = encode_assignment(h, model, result.sample.assignment)
            assert slackwise_penalty(model, h, point) == 0
            feasible_seen += 1
    assert feasible_seen >= 8


def test_energy_invariant_under_term_reordering(micro_model):
    h = compile_hamiltonian(micro_model)
    reordered = Hamiltonian(
        variables=h.variables,
        linear=dict(reversed(list(h.linear.items()))),
        quadratic=dict(reversed(list(h.quadratic.items()))),
        offset=h.offset, alpha=h.alpha, sum_constraint=h.sum_constraint)
    rng = random.Random(13)
    for _ in range(100):
        point = random_point(rng, h)
        assert evaluate_energy(reordered, point) == pytest.approx(
            evaluate_energy(h, point), rel=1e-12)
