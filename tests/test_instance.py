import json
import math
import random
import re
import sys
import time
from dataclasses import replace
from decimal import Decimal

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

from conftest import GOLDEN_DIR, arc_separator_doc, random_micro_instance


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

    def test_duplicate_commodity_id(self):
        doc = minimal_doc()
        doc["commodities"].append({"id": "K", "load": 20})
        with pytest.raises(DuplicateIdError, match="duplicate commodity id 'K'"):
            parse_instance(json.dumps(doc))

    def test_duplicate_schedule_entry(self):
        doc = minimal_doc()
        doc["schedule"].append({"depot": "A", "commodity": "K", "time": 1, "amount": 20})
        with pytest.raises(DuplicateIdError, match=r"duplicate schedule entry \(A, K, t=1\)$"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("path, value", [
        (("depots", 0, "label"), None),
        (("depots", 0, "id"), 1),
        (("commodities", 0, "id"), ["L", 1]),
        (("arcs", 0, "from"), 1),
        (("arcs", 0, "to"), ["B"]),
        (("schedule", 0, "depot"), {"id": "A"}),
        (("schedule", 0, "commodity"), None),
    ], ids=["label_null", "depot_id_number", "commodity_id_list", "arc_from_number",
            "arc_to_list", "entry_depot_object", "entry_commodity_null"])
    def test_ids_and_labels_must_be_strings(self, path, value):
        """An id or label is never passed through str(), which would read
        null as 'None', ["L", 1] as "['L', 1]" and 1 as '1'."""
        doc = minimal_doc()
        doc[path[0]][path[1]][path[2]] = value
        with pytest.raises(InstanceSchemaError,
                           match=re.escape(f"must be a string, got {value!r}")):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("old, new, key", [
        ('"capacity": 100', '"capacity": 100, "capacity": 200', "capacity"),
        ('"travel_time": 1', '"travel_time": 1, "travel_time": 2', "travel_time"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_rejected(self, old, new, key):
        text = json.dumps(minimal_doc())
        assert old in text
        with pytest.raises(InstanceSchemaError, match=f"key '{key}' is repeated"):
            parse_instance(text.replace(old, new))

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

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, cost):
        # json.dumps would write NaN or Infinity, which parse_instance refuses
        with pytest.raises(InstanceSchemaError, match="finite") as err:
            Arc("A", "B", cost, 1)
        assert "\n" not in str(err.value)


def whole_doc_text(**literals: str) -> str:
    """A valid document of load 1, capacity 2**53 and amounts +-2**53,
    with the JSON literal of `load`, `capacity`, `supply`, `demand`, `cost`
    or `step` (the supply's time) replaced by the text given for it."""
    doc = minimal_doc()
    big = 2**53
    doc["commodities"][0]["load"] = "@load"
    doc["capacity"] = "@capacity"
    doc["schedule"][0]["amount"] = "@supply"
    doc["schedule"][1]["amount"] = "@demand"
    doc["schedule"][0]["time"] = "@step"
    doc["arcs"][0]["cost"] = "@cost"
    text = json.dumps(doc)
    defaults = {"load": "1", "capacity": str(big), "supply": str(big), "demand": str(-big),
                "cost": "1.0", "step": "1"}
    for key, literal in {**defaults, **literals}.items():
        text = text.replace(f'"@{key}"', literal)
    return text


def test_depot_id_with_arc_separator_is_refused():
    doc = arc_separator_doc()
    refusal = "depot id 'A->B' must not contain '->'"
    with pytest.raises(InstanceSchemaError, match=re.escape(refusal)):
        parse_instance(json.dumps(doc))
    with pytest.raises(InstanceSchemaError, match=re.escape(refusal)):
        Instance(depots=tuple(Depot(d["id"], d["label"]) for d in doc["depots"]),
                 arcs=(), commodities=(), horizon=2, capacity=1, schedule=())


class TestWholeNumberLiterals:
    """Loads, capacity, amounts and steps are whole numbers, read exactly:
    a float literal that names a whole number is that int, even where its
    float would round, and any other is refused."""

    @pytest.mark.parametrize("field, literal, where", [
        ("supply", "9007199254740993.0", "schedule[0].amount"),
        ("demand", "-9007199254740993.0", "schedule[1].amount"),
        ("capacity", "9.007199254740993e15", "capacity"),
        ("load", "1.0000000000000001", "commodities[0].load"),
    ])
    def test_rounding_literal_rejected(self, field, literal, where):
        """Only the literal that names no whole number is refused; the
        others read as the ints they name, not as the floats they round to."""
        text = whole_doc_text(**{field: literal})
        if field == "load":
            with pytest.raises(InstanceSchemaError, match=f"load must be a positive "
                               f"integer within float range, got {literal}$"):
                parse_instance(text)
            return
        inst = parse_instance(text)
        read = {"schedule[0].amount": inst.schedule[0].amount,
                "schedule[1].amount": inst.schedule[1].amount, "capacity": inst.capacity}
        assert read[where] == int(Decimal(literal)) != float(literal)
        assert type(read[where]) is int
        assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize("path", [("horizon",), ("schedule", 0, "time"),
                                      ("arcs", 0, "travel_time")])
    def test_rounding_literal_rejected_for_steps(self, path):
        doc = minimal_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@step"
        text = json.dumps(doc).replace('"@step"', "1.0000000000000001")
        with pytest.raises(InstanceSchemaError, match="expected an integer, got 1.0000000000000001"):
            parse_instance(text)

    # 1.7976931348623159e308 and 2**1024 - 1 lie between the largest float
    # and 2**1024, where float() of an int raises OverflowError
    @pytest.mark.parametrize("literal", ["1e400", "1e999999999", "-1e999999999",
                                         "1.7976931348623159e308",
                                         pytest.param(str(2**1024 - 1), id="2**1024-1")])
    @pytest.mark.parametrize("field, where", [("supply", "schedule[0].amount"),
                                              ("step", "schedule[0].time"),
                                              ("cost", "arcs[0].cost")])
    def test_literal_out_of_range(self, field, where, literal):
        # int() of Decimal("1e999999999") would not end: refused unconverted
        start = time.perf_counter()
        with pytest.raises(InstanceSchemaError) as err:
            parse_instance(whole_doc_text(**{field: literal}))
        assert time.perf_counter() - start < 1
        message = str(err.value)
        assert message.startswith(f"{where}: ") and "\n" not in message
        assert str(Decimal(literal)) in message

    @pytest.mark.parametrize("field, literal", [
        ("capacity", "9007199254740992.0"), ("capacity", "1e300"),
        ("capacity", "4.611686018427388e+18"), ("capacity", "4611686018427387904.0"),
        ("capacity", "1.7976931348623157e308"),
        ("supply", "9007199254740992.00000"), ("cost", "0.85"), ("cost", "1.7e308"),
        ("cost", "9007199254740993.0"),
    ])
    def test_literal_naming_its_float_accepted(self, field, literal):
        # a whole mass literal reads as its int; costs need not be whole
        inst = parse_instance(whole_doc_text(**{field: literal}))
        assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize("mass", [int(sys.float_info.max) + 1, 2**1024 - 1],
                             ids=["float_max+1", "2**1024-1"])
    def test_int_past_float_range_refused(self, mass):
        # float() of these raises OverflowError; the largest float's int is kept
        top = int(sys.float_info.max)
        assert Commodity("K", top).load == Instance(
            depots=(), arcs=(), commodities=(), horizon=1, capacity=top, schedule=()).capacity
        with pytest.raises(InstanceSchemaError, match="load must be a positive integer within"):
            Commodity("K", mass)
        with pytest.raises(InstanceSchemaError, match="amount must be an integer within"):
            ScheduleEntry("A", "K", 1, -mass)
        with pytest.raises(InstanceSchemaError, match="capacity must be a positive integer within"):
            Instance(depots=(), arcs=(), commodities=(), horizon=1, capacity=mass, schedule=())


ids =st.sampled_from(["A", "B", "C", "D"])


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


def dumps_reference(inst: Instance) -> str:
    """The json.dumps document serialize_instance writes by hand."""
    doc = {
        "depots": [{"id": d.id, "label": d.label} for d in inst.depots],
        "arcs": [{"from": a.origin, "to": a.dest, "cost": a.cost, "travel_time": a.travel_time}
                 for a in inst.arcs],
        "commodities": [{"id": c.id, "load": c.load} for c in inst.commodities],
        "horizon": inst.horizon,
        "capacity": inst.capacity,
        "schedule": [{"depot": e.depot, "commodity": e.commodity, "time": e.time,
                      "amount": e.amount} for e in inst.schedule],
    }
    return json.dumps(doc, indent=2) + "\n"


class TestSerializeLayout:
    """serialize_instance writes json.dumps(doc, indent=2) byte for byte."""

    def test_case_study(self, case_study):
        assert serialize_instance(case_study) == dumps_reference(case_study)

    def test_waves(self):
        from waves import waves
        for k in range(1, 41):
            inst = waves(k)
            assert serialize_instance(inst) == dumps_reference(inst), k

    def test_random_micro_instances(self):
        rng = random.Random(2020)
        for _ in range(200):
            inst = random_micro_instance(rng)
            assert serialize_instance(inst) == dumps_reference(inst)

    def test_escaped_ids(self):
        """Ids and labels json.dumps escapes; a quote and a line feed, which
        no id may hold, are in the labels."""
        ids = ["back\\slash", "Erde\u0308", "\u706b\u661f", "tab\there", "\U0001f680"]
        inst = Instance(
            depots=tuple(Depot(i, f'label of {i}: say "hi"\nnew line') for i in ids),
            arcs=(Arc(ids[0], ids[1], 2.5, 1), Arc(ids[2], ids[3], 1.0, 1)),
            commodities=(Commodity(ids[3], 10.0), Commodity(ids[4], 20.0)),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry(ids[2], ids[4], 1, 20.0),
                      ScheduleEntry(ids[3], ids[4], 2, -20.0)))
        text = serialize_instance(inst)
        assert text == dumps_reference(inst)
        assert text.isascii() and parse_instance(text) == inst

    def test_int_and_float_numbers(self):
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B"), Depot("C", "C")),
            arcs=(Arc("A", "B", 3, 1), Arc("B", "C", 0.1, 2), Arc("A", "C", 1.7e308, 1),
                  Arc("C", "A", 5e-324, 1)),
            commodities=(Commodity("K", 10), Commodity("L", 2.0**62)),
            horizon=4, capacity=100,
            schedule=(ScheduleEntry("A", "K", 1, 10), ScheduleEntry("B", "K", 2, -10.0),
                      ScheduleEntry("A", "L", 1, 2.0**62), ScheduleEntry("C", "L", 3, -2.0**62)))
        assert serialize_instance(inst) == dumps_reference(inst)

    def test_other_scalar_types(self):
        # a float subclass is written as json.dumps writes it and reads back
        # equal; a bool number or a non-str id or label is refused when built,
        # as parse_instance refuses each; an unhashable id never reaches
        # Instance's set lookups
        np = pytest.importorskip("numpy")
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", np.float64(1.5), 1),),
            commodities=(Commodity("K", np.float64(10.0)),),
            horizon=2, capacity=np.float64(100.0),
            schedule=(ScheduleEntry("A", "K", 1, np.float64(10.0)),
                      ScheduleEntry("B", "K", 2, -10.0)))
        text = serialize_instance(inst)
        assert text == dumps_reference(inst)
        assert parse_instance(text) == inst
        refused = {
            "depot id": lambda: Depot(7, "seven"),
            "depot label": lambda: Depot("A", None),
            "commodity id": lambda: Commodity(("K",), 10),
            "arc origin": lambda: Arc(["A"], "B", 1.0, 1),
            "arc dest": lambda: Arc("A", 2, 1.0, 1),
            "entry depot": lambda: ScheduleEntry(["A"], "K", 1, 10),
            "entry commodity": lambda: ScheduleEntry("A", {"K": 1}, 1, 10),
            "cost": lambda: Arc("A", "B", True, 1),
            "travel_time": lambda: Arc("A", "B", 1.0, True),
            "load": lambda: Commodity("K", True),
            "capacity": lambda: replace(inst, capacity=True),
            "amount": lambda: replace(inst, schedule=(ScheduleEntry("A", "K", 1, True),
                                                      ScheduleEntry("B", "K", 2, -1))),
            "time": lambda: replace(inst, schedule=(ScheduleEntry("A", "K", True, 10),
                                                    ScheduleEntry("B", "K", 2, -10))),
            "horizon": lambda: replace(inst, horizon=True),
        }
        for field, build in refused.items():
            with pytest.raises(InstanceSchemaError) as info:
                build()
            message = str(info.value)
            assert "\n" not in message and field.split()[-1] in message, field

    def test_empty_sections(self):
        inst = Instance(depots=(), arcs=(), commodities=(), horizon=1, capacity=1.0,
                        schedule=())
        assert serialize_instance(inst) == dumps_reference(inst)
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

    def test_unbalanced_sum_printed_exactly(self):
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 1),),
            horizon=2, capacity=100,
            schedule=(ScheduleEntry("A", "K", 1, 123456789), ScheduleEntry("B", "K", 2, -1)))
        [finding] = validate_instance(inst).findings
        assert finding.message == ("commodity K: scheduled amounts sum to +123456788, not 0; "
                                   "instance is infeasible by mass balance")

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

    def test_unreachable_demand_prints_a_whole_step(self):
        # one hop of travel time 2 from a supply at t=1: the earliest
        # arrival at B is step 3, not 3.0
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 1.0, 2),),
            commodities=(Commodity("K", 10),),
            horizon=3, capacity=100,
            schedule=(ScheduleEntry("A", "K", 1, 10), ScheduleEntry("B", "K", 2, -10)))
        [finding] = validate_instance(inst).findings
        assert finding.message == ("(B, K, t=2): demand precedes the earliest possible "
                                   "arrival (t=3)")

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
        with pytest.raises(InstanceSchemaError, match="key 'N1->N2' is repeated"):
            load_cost_map('{"N1->N2": 1.0, "N1->N2": 2.0}')

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
