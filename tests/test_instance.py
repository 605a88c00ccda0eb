import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow import build_case_study, parse_instance, serialize_instance, validate_instance
from hamflow.instance import (
    Arc,
    Commodity,
    Depot,
    DuplicateIdError,
    Instance,
    InstanceSchemaError,
    InstanceSyntaxError,
    ScheduleEntry,
    UnknownIdError,
    default_case_study_costs,
    load_cost_map,
)

from conftest import GOLDEN_DIR


def minimal_doc() -> dict:
    return {
        "depots": [{"id": "A", "label": "A"}, {"id": "B", "label": "B"}],
        "arcs": [{"from": "A", "to": "B", "cost": 1.0, "travel_time": 1}],
        "commodities": [{"id": "K", "load": 10}],
        "horizon": 2,
        "capacity": 100,
        "schedule": [
            {"depot": "A", "commodity": "K", "time": 1, "amount": 10},
            {"depot": "B", "commodity": "K", "time": 2, "amount": -10},
        ],
    }


class TestParse:
    def test_case_study_document_round_trips_to_builder(self):
        text = (GOLDEN_DIR / "case_study.json").read_text()
        inst = parse_instance(text)
        assert inst == build_case_study(default_case_study_costs())
        assert len(inst.depots) == 7
        assert len(inst.arcs) == 8
        assert [c.load for c in inst.commodities] == [10.0, 20.0]
        assert inst.capacity == 100.0
        assert inst.horizon == 6

    def test_empty_schedule(self):
        doc = minimal_doc()
        doc["schedule"] = []
        inst = parse_instance(json.dumps(doc))
        assert inst.schedule == ()

    def test_undeclared_depot_in_arc(self):
        doc = minimal_doc()
        doc["arcs"][0]["to"] = "N9"
        with pytest.raises(UnknownIdError, match="N9"):
            parse_instance(json.dumps(doc))

    def test_syntax_error_reports_position(self):
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance('{"depots": [,]}')
        assert err.value.line == 1
        assert err.value.column > 1

    def test_duplicate_depot_id(self):
        doc = minimal_doc()
        doc["depots"].append({"id": "A", "label": "again"})
        with pytest.raises(DuplicateIdError):
            parse_instance(json.dumps(doc))

    def test_duplicate_arc(self):
        doc = minimal_doc()
        doc["arcs"].append({"from": "A", "to": "B", "cost": 2.0, "travel_time": 1})
        with pytest.raises(DuplicateIdError):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("key,value", [
        ("horizon", 0), ("horizon", -3), ("capacity", 0), ("capacity", -1.0)])
    def test_non_positive_scalars(self, key, value):
        doc = minimal_doc()
        doc[key] = value
        with pytest.raises(InstanceSchemaError):
            parse_instance(json.dumps(doc))

    def test_non_positive_load(self):
        doc = minimal_doc()
        doc["commodities"][0]["load"] = 0
        with pytest.raises(InstanceSchemaError):
            parse_instance(json.dumps(doc))

    def test_unknown_top_level_key_rejected(self):
        doc = minimal_doc()
        doc["velocity"] = 1
        with pytest.raises(InstanceSchemaError, match="velocity"):
            parse_instance(json.dumps(doc))

    def test_unknown_nested_key_rejected(self):
        doc = minimal_doc()
        doc["arcs"][0]["speed"] = 3
        with pytest.raises(InstanceSchemaError, match="speed"):
            parse_instance(json.dumps(doc))

    def test_zero_amount_rejected(self):
        doc = minimal_doc()
        doc["schedule"][0]["amount"] = 0
        with pytest.raises(InstanceSchemaError, match="zero"):
            parse_instance(json.dumps(doc))

    def test_amount_must_be_load_multiple(self):
        doc = minimal_doc()
        doc["schedule"][0]["amount"] = 15
        with pytest.raises(InstanceSchemaError, match="multiple"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("load, capacity, amount", [
        (2.5, 100.0, 5.0), (10.0, 2.5, 10.0), (10.0, 100.0, 15.0),
        (10.0, 10**400, 10.0), (10.0, 100.0, float("nan")), (10**400, 100.0, 10.0),
    ], ids=["load_2.5", "capacity_2.5", "amount_15", "capacity_10**400", "amount_nan",
            "load_10**400"])
    def test_construction_requires_exact_integers(self, load, capacity, amount):
        with pytest.raises(InstanceSchemaError):
            Instance(depots=(Depot("A", "A"),), arcs=(), commodities=(Commodity("K", load),),
                     horizon=1, capacity=capacity,
                     schedule=(ScheduleEntry("A", "K", 1, amount),))

    def test_self_loop_rejected(self):
        doc = minimal_doc()
        doc["arcs"][0]["to"] = "A"
        with pytest.raises(InstanceSchemaError):
            parse_instance(json.dumps(doc))


ids = st.sampled_from(["A", "B", "C", "D"])


@st.composite
def instances(draw) -> Instance:
    depot_ids = draw(st.lists(ids, min_size=2, max_size=4, unique=True))
    depots = tuple(Depot(i, f"depot {i}") for i in depot_ids)
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(depot_ids), st.sampled_from(depot_ids)).filter(
            lambda p: p[0] != p[1]),
        min_size=1, max_size=4, unique=True))
    horizon = draw(st.integers(min_value=1, max_value=4))
    arcs = tuple(Arc(o, d,
                     draw(st.floats(min_value=0, max_value=50, allow_nan=False)),
                     draw(st.integers(min_value=1, max_value=horizon)))
                 for o, d in pairs)
    loads = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=2))
    commodities = tuple(Commodity(f"K{i}", float(load)) for i, load in enumerate(loads))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(depot_ids),
                  st.sampled_from([c.id for c in commodities]),
                  st.integers(min_value=1, max_value=horizon)),
        max_size=5, unique=True))
    schedule = []
    for depot, cid, t in keys:
        load = next(c.load for c in commodities if c.id == cid)
        units = draw(st.integers(min_value=-4, max_value=4).filter(lambda u: u != 0))
        schedule.append(ScheduleEntry(depot, cid, t, units * load))
    capacity = float(draw(st.integers(min_value=1, max_value=200)))
    return Instance(depots=depots, arcs=arcs, commodities=commodities,
                    horizon=horizon, capacity=capacity, schedule=tuple(schedule))


@given(instances())
@settings(max_examples=150, deadline=None)
def test_parse_serialize_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst


class TestValidate:
    def test_case_study_has_no_findings(self, case_study):
        # per-commodity balances: +40+60-20-30-20-30 and +80+120-40-60-40-60
        assert sum(e.amount for e in case_study.schedule if e.commodity == "L1") == 0
        assert sum(e.amount for e in case_study.schedule if e.commodity == "L2") == 0
        assert validate_instance(case_study).ok

    def test_unbalanced_supply_flagged(self):
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 10.0),),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 1, 10.0),))
        report = validate_instance(inst)
        assert [f.kind for f in report.findings] == ["mass_balance"]

    def test_demand_before_earliest_arrival_flagged(self):
        # two hops at travel time 1 each: earliest arrival at C is t=3
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B"), Depot("C", "C")),
            arcs=(Arc("A", "B", 1.0, 1), Arc("B", "C", 1.0, 1)),
            commodities=(Commodity("K", 10.0),),
            horizon=3, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 1, 10.0),
                      ScheduleEntry("C", "K", 1, -10.0)))
        report = validate_instance(inst)
        assert "unreachable_demand" in [f.kind for f in report.findings]

    def test_load_multiple_finding_on_programmatic_instance(self):
        with pytest.raises(InstanceSchemaError, match="multiple"):
            Instance(
                depots=(Depot("A", "A"), Depot("B", "B")),
                arcs=(Arc("A", "B", 1.0, 1),),
                commodities=(Commodity("K", 10.0),),
                horizon=2, capacity=100.0,
                schedule=(ScheduleEntry("A", "K", 1, 15.0),
                          ScheduleEntry("B", "K", 2, -15.0)))


class TestCaseStudy:
    def test_all_ones_costs(self):
        inst = build_case_study({f"{o}->{d}": 1.0 for o, d in
                                 [("N1", "N2"), ("N2", "N3"), ("N2", "N4"), ("N3", "N6"),
                                  ("N3", "N4"), ("N4", "N5"), ("N6", "N7"), ("N4", "N3")]})
        assert all(a.cost == 1.0 for a in inst.arcs)
        assert all(a.travel_time == 1 for a in inst.arcs)

    def test_missing_arc_cost(self):
        costs = default_case_study_costs()
        costs.pop("N4->N3")
        with pytest.raises(InstanceSchemaError, match="N4->N3"):
            build_case_study(costs)

    def test_schedule_query(self, case_study):
        assert case_study.schedule_amount("N5", "L1", 5) == -20

    def test_fixture_respects_small_coefficients(self):
        costs = default_case_study_costs()
        assert costs["N3->N4"] <= 0.86
        assert costs["N6->N7"] <= 0.86
        small = sorted(costs.values())[:2]
        assert small == sorted([costs["N3->N4"], costs["N6->N7"]])

    def test_validate_any_case_study_instance(self):
        inst = build_case_study({k: 2.5 for k in default_case_study_costs()})
        assert validate_instance(inst).ok

    def test_cost_map_rejects_bad_keys(self):
        with pytest.raises(InstanceSchemaError):
            load_cost_map('{"N1-N2": 1.0}')
        with pytest.raises(InstanceSchemaError):
            load_cost_map('{"N1->N2": -1.0}')

    @pytest.mark.parametrize("text", ['{"N1->N2": NaN}', '{"N1->N2": Infinity}',
                                      '{"N1->N2": "1.0"}', '{"N1->N2": null}'])
    def test_cost_map_rejects_non_finite_or_untyped(self, text):
        with pytest.raises(InstanceSchemaError):
            load_cost_map(text)


@pytest.mark.parametrize("path, value", [
    (("arcs", 0, "cost"), float("nan")), (("arcs", 0, "cost"), "2.5"),
    (("commodities", 0, "load"), float("inf")), (("capacity",), "100"),
    (("capacity",), 10 ** 400), (("schedule", 0, "amount"), None),
])
def test_parse_rejects_non_finite_or_untyped_numbers(path, value):
    doc = json.loads(serialize_instance(build_case_study(default_case_study_costs())))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(InstanceSchemaError):
        parse_instance(json.dumps(doc))
