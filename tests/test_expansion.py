import copy
import json
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from hamflow import expansion
from hamflow.expansion import (
    FLOW,
    Assignment,
    InfeasibleModelError,
    LinearConstraint,
    ModelError,
    TableReconstructionError,
    Variable,
    evaluate_objective,
    expand_model,
    prune_model,
    reconstruct_solution,
    verify_assignment,
    zero_assignment,
)
from hamflow.hamiltonian import HamiltonianVariable, compile_hamiltonian
from hamflow.instance import (
    Arc,
    Commodity,
    Depot,
    Instance,
    InstanceSchemaError,
    ScheduleEntry,
    build_case_study,
    default_case_study_costs,
    ordered_sum,
)
from hamflow.solvers import solve_exact

from conftest import (
    GOLDEN_DIR,
    LARGE_SUPPLY,
    empty_schedule_instance,
    large_supply_instance,
    random_micro_model,
)


class TestRecords:
    """Variables, rows and Hamiltonian variables are values: equal fields
    make equal, equally hashed records, and `replace` builds a new one."""

    @pytest.mark.parametrize("cls, fields, name, other", [
        (Variable, (0, FLOW, ("A", "B"), "K", 1, 3), "upper_bound", 4),
        (LinearConstraint, (((0, 10), (1, -10)), "eq", 10, ("conservation", "A", "K", 1)),
         "rhs", 0),
        (HamiltonianVariable, (0, ("decision", 0), 3), "levels", 4),
    ], ids=lambda x: x.__name__ if isinstance(x, type) else None)
    def test_value_semantics(self, cls, fields, name, other):
        a, b = cls(*fields), cls(*fields)
        assert a == b and a is not b and hash(a) == hash(b)
        assert {a, b} == {a} and {a: "kept"}[b] == "kept"
        assert a != fields
        changed = replace(a, **{name: other})
        assert getattr(changed, name) == other and changed != a and changed not in {a}
        assert getattr(a, name) != other
        assert replace(changed, **{name: getattr(a, name)}) == a

    def test_model_records_hash_apart(self, case_study_model):
        assert len(set(case_study_model.variables)) == len(case_study_model.variables)
        assert len(set(case_study_model.constraints)) == len(case_study_model.constraints)

    def test_model_and_hamiltonian_stay_frozen(self, micro_model):
        h = compile_hamiltonian(micro_model)
        with pytest.raises(FrozenInstanceError):
            micro_model.variables = ()
        with pytest.raises(FrozenInstanceError):
            h.alpha = 1.0


def interval_survivors(inst):
    """Independent oracle for the pruning intervals: breadth-first shortest
    hop-times, then earliest presence at each tail and latest useful arrival
    at each head, computed without touching the library's graph helpers."""
    nodes = [d.id for d in inst.depots]
    INF = 10 ** 9
    dist = {(i, j): 0 if i == j else INF for i in nodes for j in nodes}
    for a in inst.arcs:
        dist[(a.origin, a.dest)] = min(dist[(a.origin, a.dest)], a.travel_time)
    changed = True
    while changed:
        changed = False
        for a in inst.arcs:
            for s in nodes:
                alt = dist[(s, a.origin)] + a.travel_time
                if alt < dist[(s, a.dest)]:
                    dist[(s, a.dest)] = alt
                    changed = True
    survivors = set()
    for c in inst.commodities:
        supplies = [(e.depot, e.time) for e in inst.schedule
                    if e.commodity == c.id and e.amount > 0]
        demands = [(e.depot, e.time) for e in inst.schedule
                   if e.commodity == c.id and e.amount < 0]
        for a in inst.arcs:
            for t in range(1, inst.horizon + 1):
                if t + a.travel_time > inst.horizon + 1:
                    continue
                reachable = any(t0 + dist[(i0, a.origin)] <= t for i0, t0 in supplies)
                useful = any(t + a.travel_time + dist[(a.dest, id_)] <= td
                             for id_, td in demands)
                if reachable and useful:
                    survivors.add((a.pair, c.id, t))
    return survivors


class TestExpand:
    def test_case_study_counts(self, case_study_model):
        m = case_study_model
        assert m.num_flow_variables() == 96          # 8 arcs x 2 commodities x 6 departures
        assert m.num_vehicle_variables() == 48
        assert len(m.constraints_tagged("conservation")) == 84   # 7 x 2 x 6
        assert len(m.constraints_tagged("capacity")) == 48

    def test_micro_counts(self, micro_model):
        assert micro_model.num_flow_variables() == 2
        assert micro_model.num_vehicle_variables() == 2
        assert len(micro_model.constraints_tagged("conservation")) == 4
        assert len(micro_model.constraints_tagged("capacity")) == 2

    def test_micro_bounds(self, micro_model):
        flow_ubs = {v.upper_bound for v in micro_model.variables if v.kind == "flow"}
        vehicle_ubs = {v.upper_bound for v in micro_model.variables if v.kind == "vehicle"}
        assert flow_ubs == {1}        # 10 mass / load 10
        assert vehicle_ubs == {1}     # ceil(10 / 100)

    def test_vehicle_bound_is_the_exact_ceiling(self):
        """The supply total is divided by the capacity in integers: the
        float quotient rounds below the ceiling here, which left the only
        feasible vehicle count out of the bounds."""
        model = expand_model(large_supply_instance())
        vehicle_ubs = {v.upper_bound for v in model.variables if v.kind == "vehicle"}
        assert vehicle_ubs == {-(-LARGE_SUPPLY // 24)} == {101954768205608470}

    def test_case_study_bounds(self, case_study_model):
        for v in case_study_model.variables:
            if v.kind == "flow":
                assert v.upper_bound == 10    # 100 or 200 mass over load 10 or 20
            else:
                assert v.upper_bound == 3     # ceil(300 / 100)

    def test_empty_schedule_zero_assignment_feasible(self):
        model = expand_model(empty_schedule_instance())
        assert verify_assignment(model, zero_assignment(model)).feasible

    def test_unbalanced_instance_rejected(self):
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 10.0),),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 1, 10.0),))
        with pytest.raises(ModelError, match="balance"):
            expand_model(inst)

    def test_non_integral_load_rejected(self):
        with pytest.raises(InstanceSchemaError, match="integer"):
            Instance(
                depots=(Depot("A", "A"), Depot("B", "B")),
                arcs=(Arc("A", "B", 1.0, 1),),
                commodities=(Commodity("K", 2.5),),
                horizon=2, capacity=100.0,
                schedule=(ScheduleEntry("A", "K", 1, 2.5),
                          ScheduleEntry("B", "K", 2, -2.5)))

    def test_model_dump_golden(self, micro_model):
        expected = json.loads((GOLDEN_DIR / "micro_model_dump.json").read_text())
        assert expansion.model_to_debug_dict(micro_model) == expected


class TestPrune:
    def test_case_study_survivors_match_interval_oracle(self, case_study, case_study_pruned):
        expected = interval_survivors(case_study)
        actual = {(v.arc, v.commodity, v.time)
                  for v in case_study_pruned.variables if v.kind == "flow"}
        assert actual == expected

    def test_case_study_examples(self, case_study_pruned):
        flows = {(v.arc, v.commodity, v.time)
                 for v in case_study_pruned.variables if v.kind == "flow"}
        assert (("N1", "N2"), "L1", 1) in flows
        # earliest L1 presence at N4 is t=3 (N1 -> N2 -> N4), so t=1 departures are gone
        assert (("N4", "N5"), "L1", 1) not in flows

    def test_case_study_decision_count_recorded(self, case_study_pruned):
        count = len(case_study_pruned.variables)
        assert 0 < count <= 144
        assert count == 54   # 36 flow + 18 vehicle survivors of the interval rules

    def test_strictly_reduces_case_study(self, case_study_model, case_study_pruned):
        assert len(case_study_pruned.variables) < len(case_study_model.variables)

    def test_vehicles_survive_only_with_flows(self, case_study_pruned):
        flow_at = {(v.arc, v.time) for v in case_study_pruned.variables if v.kind == "flow"}
        vehicle_at = {(v.arc, v.time) for v in case_study_pruned.variables
                      if v.kind == "vehicle"}
        assert vehicle_at == flow_at

    def test_dense_reindex_and_live_terms(self, case_study_pruned):
        n = len(case_study_pruned.variables)
        assert [v.index for v in case_study_pruned.variables] == list(range(n))
        for c in case_study_pruned.constraints:
            for i, _ in c.terms:
                assert 0 <= i < n

    def test_unreachable_demand_raises(self):
        # balanced masses, but the demand happens before anything can arrive
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 10.0),),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 2, 10.0),
                      ScheduleEntry("B", "K", 1, -10.0)))
        with pytest.raises(InfeasibleModelError):
            prune_model(expand_model(inst))

    def test_row_emptied_by_pruning_raises(self):
        # the demand row holds a live inflow variable before pruning, but
        # forward reachability removes it (supply appears only at t=3)
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 10.0),),
            horizon=3, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 3, 10.0),
                      ScheduleEntry("B", "K", 2, -10.0)))
        model = expand_model(inst)
        demand_row = next(c for c in model.constraints
                          if c.tag == ("conservation", "B", "K", 2))
        assert demand_row.terms    # x[A->B, t=1] is present before pruning
        with pytest.raises(InfeasibleModelError):
            prune_model(model)

    def test_preserves_optimum_on_random_micros(self):
        rng = random.Random(20240917)
        for _ in range(12):
            model = random_micro_model(rng)
            full = solve_exact(model, time_limit=60.0)
            pruned = prune_model(model)
            reduced = solve_exact(pruned, time_limit=60.0)
            assert full.status == reduced.status
            if full.status == "optimal":
                assert reduced.objective == pytest.approx(full.objective, abs=1e-9)


class TestVerify:
    def test_zero_assignment_on_empty_schedule(self):
        model = expand_model(empty_schedule_instance())
        report = verify_assignment(model, zero_assignment(model))
        assert report.feasible
        assert report.worst is None

    def test_reconstruction_is_feasible(self, case_study_pruned, published_schedule):
        report = verify_assignment(case_study_pruned, published_schedule)
        assert report.feasible
        assert all(r == 0 for r in report.residuals)
        assert not report.bound_findings

    def test_removed_vehicle_leaves_capacity_residual(self, case_study_pruned,
                                                      published_schedule):
        vi = case_study_pruned.vehicle_index()
        values = list(published_schedule.values)
        values[vi[(("N4", "N5"), 4)]] = 0    # the step moving 60 mass to the surface
        report = verify_assignment(case_study_pruned, Assignment(values=tuple(values)))
        assert not report.feasible
        tags = {case_study_pruned.constraints[i].tag: r
                for i, r in enumerate(report.residuals) if r != 0}
        assert tags == {("capacity", ("N4", "N5"), 4): 60}

    def test_residuals_are_exact_ints(self, case_study_pruned, published_schedule):
        report = verify_assignment(case_study_pruned, published_schedule)
        assert all(isinstance(r, int) for r in report.residuals)

    def test_bound_violation_is_a_finding_not_an_exception(self, micro_model):
        values = [9] * len(micro_model.variables)
        report = verify_assignment(micro_model, Assignment(values=tuple(values)))
        assert report.bound_findings
        assert all(len(f) == 3 for f in report.bound_findings)

    def test_length_mismatch_raises(self, micro_model):
        with pytest.raises(ValueError):
            verify_assignment(micro_model, Assignment(values=(0,)))

    @pytest.mark.parametrize("values", [(0.9, 2, 1), (0, 2.0, 1), (0, 2, True), (0, "2", 1)])
    def test_assignment_refuses_non_integers(self, values):
        """A value is never truncated: (0.9, 2.7, True) would be judged as
        the different point (0, 2, 1)."""
        with pytest.raises(TypeError, match="not an integer"):
            Assignment(values=values)
        assert Assignment(values=[0, 2, 1]).values == (0, 2, 1)


class TestObjective:
    def test_zero_assignment(self, case_study_pruned):
        assert evaluate_objective(case_study_pruned, zero_assignment(case_study_pruned)) == 0

    def test_published_schedule_all_ones_costs(self, reference_tables):
        inst = build_case_study({k: 1.0 for k in default_case_study_costs()})
        model = prune_model(expand_model(inst))
        a = reconstruct_solution(model, reference_tables)
        assert evaluate_objective(model, a) == 17   # total traversals

    def test_published_schedule_fixture_costs(self, case_study_pruned, published_schedule):
        # per-arc traversal totals (4, 4, 2, 3, 2, 2) priced by the fixture
        costs = default_case_study_costs()
        expected = (4 * costs["N1->N2"] + 4 * costs["N2->N3"] + 2 * costs["N3->N6"]
                    + 3 * costs["N3->N4"] + 2 * costs["N4->N5"] + 2 * costs["N6->N7"])
        got = evaluate_objective(case_study_pruned, published_schedule)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_costs_add_left_to_right(self, case_study_pruned):
        # 1e16 + 1.0 rounds back to 1e16, twice; a compensated sum (Python
        # 3.12's sum()) would give 1e16 + 2
        (i, _), (j, _), (k, _) = case_study_pruned.objective[:3]
        model = replace(case_study_pruned, objective=((i, 1e16), (j, 1.0), (k, 1.0)))
        values = [0] * len(model.variables)
        values[i] = values[j] = values[k] = 1
        assert evaluate_objective(model, Assignment(values=tuple(values))) == 1e16
        assert ordered_sum([1e16, 1.0, 1.0]) == 1e16 != 1e16 + 2


class TestReconstruction:
    def test_cargo_120_splits_four_and_four(self, case_study_pruned, published_schedule):
        fi = case_study_pruned.flow_index()
        assert published_schedule.values[fi[(("N1", "N2"), "L1", 1)]] == 4   # 40 mass
        assert published_schedule.values[fi[(("N1", "N2"), "L2", 1)]] == 4   # 80 mass

    def test_zero_cargo_rows_have_zero_flows(self, case_study_pruned, published_schedule):
        fi = case_study_pruned.flow_index()
        for (arc, cid, t), i in fi.items():
            if arc in ((("N2", "N4")), (("N4", "N3"))):
                assert published_schedule.values[i] == 0

    def test_total_delivered(self, case_study_pruned, published_schedule):
        inst = case_study_pruned.instance
        fi = case_study_pruned.flow_index()
        for node in ("N5", "N7"):
            for cid, expected in (("L1", 50), ("L2", 100)):
                load = inst.commodity(cid).load
                delivered = sum(published_schedule.values[i] * load
                                for (arc, k, t), i in fi.items()
                                if arc[1] == node and k == cid)
                assert delivered == expected

    def test_total_traversals(self, case_study_pruned, published_schedule):
        total = sum(published_schedule.values[i] for i, _ in case_study_pruned.objective)
        assert total == 17

    def test_spurious_vehicle_kept(self, case_study_pruned, published_schedule):
        vi = case_study_pruned.vehicle_index()
        n3n4 = sum(published_schedule.values[i]
                   for (arc, t), i in vi.items() if arc == ("N3", "N4"))
        assert n3n4 == 3   # one more than the two loaded movements require

    def test_tampered_inventory_rejected(self, case_study_pruned, reference_tables):
        tables = copy.deepcopy(reference_tables)
        tables["inventory"]["N4"]["L1"][3] = 30   # breaks the arrival recurrence
        with pytest.raises(TableReconstructionError):
            reconstruct_solution(case_study_pruned, tables)

    def test_tampered_cargo_total_rejected(self, case_study_pruned, reference_tables):
        tables = copy.deepcopy(reference_tables)
        tables["cargo"]["N1->N2"][1] = 130
        with pytest.raises(TableReconstructionError):
            reconstruct_solution(case_study_pruned, tables)

    def test_undersized_vehicle_cover_rejected(self, case_study_pruned, reference_tables):
        tables = copy.deepcopy(reference_tables)
        tables["vehicles"]["N1->N2"][1] = 1      # 120 mass needs 2 vehicles
        with pytest.raises(TableReconstructionError):
            reconstruct_solution(case_study_pruned, tables)

    def test_horizon_mismatch_rejected(self, case_study_pruned, reference_tables):
        tables = copy.deepcopy(reference_tables)
        tables["horizon"] = 5
        with pytest.raises(TableReconstructionError):
            reconstruct_solution(case_study_pruned, tables)

    @pytest.mark.parametrize("path, value, match", [
        (("time_labeling",), "departure", "labeling"),
        (("cargo", "N1->N2"), [0, 120, 180, 0, 0], "6 columns"),
        (("inventory", "N1", "L1", 1), 50, "negative arrivals"),   # 60 supplied at t=2
        (("inventory", "N5", "L1", 5), 40, "cover the demand"),    # 20 arrive, 30 demanded
        (("vehicles", "N1->N2", 0), 1, "no model variable"),       # departs t=0
        (("vehicles", "N1->N2", 1), 2.5, "bad vehicle count"),
    ], ids=["labeling", "short-row", "negative-arrivals", "uncovered-demand",
            "vehicle-without-variable", "fractional-vehicles"])
    def test_tampered_entry_rejected(self, case_study_pruned, reference_tables,
                                     path, value, match):
        tables = copy.deepcopy(reference_tables)
        target = tables
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(TableReconstructionError, match=match):
            reconstruct_solution(case_study_pruned, tables)

    @pytest.mark.parametrize("change, match", [
        (lambda tables: list(tables), "document must be a JSON object"),
        (lambda tables: {k: v for k, v in tables.items() if k != "vehicles"},
         "has no 'vehicles'"),
        (lambda tables: {**tables, "cargo": [1, 2]}, "'cargo' must be a JSON object"),
        (lambda tables: {**tables, "vehicles": {"N1->N2": 5}}, "row 'N1->N2' must be a list"),
        (lambda tables: {**tables, "inventory": {"N1": [1, 2]}},
         "inventory of N1 must be a JSON object"),
    ], ids=["list-document", "missing-vehicles", "cargo-list", "row-not-a-list",
            "inventory-depot-list"])
    def test_misshapen_document_rejected(self, case_study_pruned, reference_tables,
                                         change, match):
        with pytest.raises(TableReconstructionError, match=match) as info:
            reconstruct_solution(case_study_pruned, change(copy.deepcopy(reference_tables)))
        assert "\n" not in str(info.value)

    def test_ambiguous_split_rejected(self):
        # A and B each send 10 to C and D: any split a + b = 10 fits the tables
        inst = _instance(("A", "B", "C", "D"), [("A", "C", 1), ("A", "D", 1),
                                                ("B", "C", 1), ("B", "D", 1)],
                         horizon=2, load=1.0, schedule=[("A", 1, 10), ("B", 1, 10),
                                                        ("C", 2, -10), ("D", 2, -10)])
        tables = _tables(inst, {"A": [10, 0], "B": [10, 0], "C": [0, 10], "D": [0, 10]})
        with pytest.raises(TableReconstructionError, match="ambiguous"):
            reconstruct_solution(expand_model(inst), tables)

    def test_negative_flow_rejected(self):
        # 20 arrive at B from A, which sends 10 in all: A->D must carry -10
        inst = _instance(("A", "B", "D"), [("A", "B", 1), ("A", "D", 2), ("B", "D", 1)],
                         horizon=3, load=1.0, schedule=[("A", 1, 10), ("D", 3, -10)])
        tables = _tables(inst, {"A": [10, 0, 0], "B": [0, 20, 0], "D": [0, 0, 10]})
        with pytest.raises(TableReconstructionError, match="negative flow"):
            reconstruct_solution(expand_model(inst), tables)

    def test_fractional_units_rejected(self):
        # 20 mass of load 10 splits 15 / 5 over C and D: 1.5 units on A->C
        inst = _instance(("A", "B", "C", "D"), [("A", "C", 1), ("A", "D", 1),
                                                ("C", "B", 1), ("D", "B", 1)],
                         horizon=3, load=10.0, schedule=[("A", 1, 20), ("B", 3, -20)])
        tables = _tables(inst, {"A": [20, 0, 0], "B": [0, 0, 20], "C": [0, 15, 0],
                                "D": [0, 5, 0]})
        with pytest.raises(TableReconstructionError, match="integral"):
            reconstruct_solution(expand_model(inst), tables)

    def test_exact_past_2_53(self):
        """2**53 + 1 units of load 1 fill one vehicle of capacity 2**53 + 1.
        Read as floats, the flow rounds to 2**53 units and leaves one behind."""
        big = 2**53 + 1
        inst = Instance(depots=(Depot("A", "A"), Depot("B", "B")),
                        arcs=(Arc("A", "B", 1.0, 1),), commodities=(Commodity("K", 1),),
                        horizon=2, capacity=big,
                        schedule=(ScheduleEntry("A", "K", 1, big),
                                  ScheduleEntry("B", "K", 2, -big)))
        model = prune_model(expand_model(inst))
        tables = {**_tables(inst, {"A": [big, 0], "B": [0, big]}),
                  "vehicles": {"A->B": [0, 1]}, "cargo": {"A->B": [0, big]}}
        a = reconstruct_solution(model, tables)
        assert a.values == (big, 1)
        report = verify_assignment(model, a)
        assert report.feasible and report.bound_findings == ()

    @pytest.mark.parametrize("path, value", [
        (("inventory", "A", "K", 0), 1.5),
        (("cargo", "A->B", 1), "10"),
    ], ids=["fractional-inventory", "string-cargo"])
    def test_entry_that_is_not_a_whole_number_rejected(self, micro, micro_model, path, value):
        tables = {**_tables(micro, {"A": [10, 0], "B": [0, 10]}),
                  "vehicles": {"A->B": [0, 1]}, "cargo": {"A->B": [0, 10]}}
        assert reconstruct_solution(micro_model, tables).values == (1, 0, 1, 0)
        target = tables
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(TableReconstructionError, match="not a whole number"):
            reconstruct_solution(micro_model, tables)

    def test_flow_without_a_model_variable_rejected(self, micro, micro_model):
        tables = _tables(micro, {"A": [10, 0], "B": [0, 10]})
        bare = replace(micro_model, variables=(), constraints=(), objective=())
        with pytest.raises(TableReconstructionError):
            reconstruct_solution(bare, tables)


def _instance(depots, arcs, horizon, load, schedule) -> Instance:
    """One commodity K over the given (origin, dest, travel time) arcs."""
    return Instance(depots=tuple(Depot(d, d) for d in depots),
                    arcs=tuple(Arc(o, d, 1.0, tt) for o, d, tt in arcs),
                    commodities=(Commodity("K", load),), horizon=horizon, capacity=100.0,
                    schedule=tuple(ScheduleEntry(d, "K", t, float(m)) for d, t, m in schedule))


def _tables(inst, inventory: dict[str, list[int]]) -> dict:
    """Schedule tables for commodity K with no vehicle or cargo rows."""
    return {"horizon": inst.horizon, "time_labeling": "arrival", "vehicles": {},
            "cargo": {}, "inventory": {d: {"K": row} for d, row in inventory.items()}}


def test_conservation_telescoping_on_random_micros():
    """For feasible assignments, the mass delivered and retained at demand
    cells (arrivals minus onward departures there) equals the total supplied
    mass of each commodity."""
    rng = random.Random(7321)
    checked = 0
    for _ in range(15):
        model = random_micro_model(rng)
        result = solve_exact(model, time_limit=60.0)
        if result.sample is None:
            continue
        inst = model.instance
        fi = model.flow_index()
        values = result.sample.assignment.values

        def mass_in(depot, cid, t):
            return sum(values[i] * inst.commodity(cid).load
                       for (arc, k, tt), i in fi.items()
                       if k == cid and arc[1] == depot
                       and tt + inst.arc(*arc).travel_time == t)

        def mass_out(depot, cid, t):
            return sum(values[i] * inst.commodity(cid).load
                       for (arc, k, tt), i in fi.items()
                       if k == cid and arc[0] == depot and tt == t)

        for c in inst.commodities:
            supplied = sum(e.amount for e in inst.schedule
                           if e.commodity == c.id and e.amount > 0)
            delivered = sum(mass_in(e.depot, c.id, e.time) - mass_out(e.depot, c.id, e.time)
                            for e in inst.schedule
                            if e.commodity == c.id and e.amount < 0)
            assert delivered == supplied
        checked += 1
    assert checked >= 10
