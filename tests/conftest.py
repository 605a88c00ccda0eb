import itertools
import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest

from hamflow import (
    Arc,
    Commodity,
    Depot,
    Instance,
    ScheduleEntry,
    build_case_study,
    default_case_study_costs,
)
from hamflow import expansion

GOLDEN_DIR = Path(__file__).parent / "goldens"
# HiGHS's optimum of each `family_models()` member, written by
# scripts/regen_family_optima.py
FAMILY_OPTIMA = GOLDEN_DIR / "family_optima.json"

# the waves(k) family lives in perfbench/waves.py, shared with the benchmark
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))


@pytest.fixture(scope="session")
def case_study() -> Instance:
    return build_case_study(default_case_study_costs())


@pytest.fixture(scope="session")
def case_study_model(case_study):
    return expansion.expand_model(case_study)


@pytest.fixture(scope="session")
def case_study_pruned(case_study_model):
    return expansion.prune_model(case_study_model)


@pytest.fixture(scope="session")
def reference_tables() -> dict:
    text = resources.files("hamflow.data").joinpath("reference_tables.json").read_text("utf-8")
    return json.loads(text)


@pytest.fixture(scope="session")
def published_schedule(case_study_pruned, reference_tables):
    return expansion.reconstruct_solution(case_study_pruned, reference_tables)


def waves_model(k: int):
    """The pruned model of waves(k), from `perfbench/waves.py`."""
    from waves import waves   # not at import: scripts import this file without perfbench
    return expansion.prune_model(expansion.expand_model(waves(k)))


def micro_instance(cost: float = 5.0) -> Instance:
    """One arc A->B, travel time 1, T=2, one commodity of load 10,
    supply +10 at (A, t=1), demand -10 at (B, t=2), capacity 100."""
    return Instance(
        depots=(Depot("A", "A"), Depot("B", "B")),
        arcs=(Arc("A", "B", cost, 1),),
        commodities=(Commodity("K", 10.0),),
        horizon=2,
        capacity=100.0,
        schedule=(ScheduleEntry("A", "K", 1, 10.0), ScheduleEntry("B", "K", 2, -10.0)),
    )


@pytest.fixture
def micro() -> Instance:
    return micro_instance()


@pytest.fixture
def micro_model(micro):
    return expansion.expand_model(micro)


def empty_schedule_instance() -> Instance:
    return Instance(
        depots=(Depot("A", "A"), Depot("B", "B")),
        arcs=(Arc("A", "B", 1.0, 1),),
        commodities=(Commodity("K", 1.0),),
        horizon=2,
        capacity=10.0,
        schedule=(),
    )


# a float exactly; in floats, LARGE_SUPPLY / 24 rounds to an integer below the ceiling
LARGE_SUPPLY = 2446914436934603264


def large_supply_instance() -> Instance:
    """One arc A->B of cost 1 and travel time 1, T=2, one commodity of load
    1 and capacity 24: LARGE_SUPPLY units move from (A, t=1) to (B, t=2).
    The only feasible vehicle count is the exact ceiling of LARGE_SUPPLY /
    24, which a float quotient misses."""
    return Instance(
        depots=(Depot("A", "A"), Depot("B", "B")),
        arcs=(Arc("A", "B", 1.0, 1),),
        commodities=(Commodity("K", 1.0),),
        horizon=2,
        capacity=24.0,
        schedule=(ScheduleEntry("A", "K", 1, float(LARGE_SUPPLY)),
                  ScheduleEntry("B", "K", 2, -float(LARGE_SUPPLY))),
    )


def huge_vehicle_bound_instance() -> Instance:
    """One arc A->B of cost 1 and travel time 1, T=2, and one unit of a
    commodity of load 1e300 moving from (A, t=1) to (B, t=2) under capacity
    100: the optimum is about 1e298 vehicles, and so is the vehicle bound."""
    return Instance(
        depots=(Depot("A", "A"), Depot("B", "B")),
        arcs=(Arc("A", "B", 1.0, 1),),
        commodities=(Commodity("K", 1e300),),
        horizon=2,
        capacity=100.0,
        schedule=(ScheduleEntry("A", "K", 1, 1e300), ScheduleEntry("B", "K", 2, -1e300)),
    )


def over_the_expansion_bound() -> dict[str, dict]:
    """`Instance` keyword arguments whose expansion count, (|arcs| +
    |depots| + 1) x (|commodities| + 1) x horizon, passes
    MAX_EXPANDED_VARIABLES though |arcs| x (|commodities| + 1) x horizon
    does not; `serialize_instance(SimpleNamespace(**kwargs))` writes each as
    a document.  Under that second count alone, `compile` and `solve` run
    the first without end, and the others for seconds: each walks every
    (depot, t), and the reports write a column a step."""
    two = (Depot("A", "A"), Depot("B", "B"))
    one = (Commodity("K", 1),)
    return {
        "no_arcs": dict(depots=two, arcs=(), commodities=one, horizon=10**300, capacity=1,
                        schedule=(ScheduleEntry("A", "K", 5, 1),
                                  ScheduleEntry("B", "K", 10**299, -1))),
        "ten_depots": dict(depots=tuple(Depot(f"D{i}", f"D{i}") for i in range(10)),
                           arcs=(Arc("D0", "D1", 1.0, 1),), commodities=one, horizon=50_000,
                           capacity=1, schedule=()),
        "no_arcs_or_commodities": dict(depots=two, arcs=(), commodities=(), horizon=10**6,
                                       capacity=1, schedule=()),
        "nothing": dict(depots=(), arcs=(), commodities=(), horizon=10**6, capacity=1,
                        schedule=()),
    }


def arc_separator_doc() -> dict:
    """Depots A->B, C, A and B->C: the keys of arcs A->B to C and A to B->C
    would both read A->B->C."""
    return {
        "depots": [{"id": i, "label": i} for i in ("A->B", "C", "A", "B->C")],
        "arcs": [{"from": "A->B", "to": "C", "cost": 1.0, "travel_time": 1},
                 {"from": "A", "to": "B->C", "cost": 1.0, "travel_time": 1}],
        "commodities": [{"id": "K", "load": 1}],
        "horizon": 2,
        "capacity": 1,
        "schedule": [],
    }


def random_micro_instance(rng: random.Random) -> Instance:
    """Small solvable instance built flows-first (`_flows_first_instance`):
    2-4 depots, 1 to 4 arcs, horizon 2-3 and 1-2 commodities."""
    return _flows_first_instance(rng, depots=(2, 4), horizon=(2, 3),
                                 arcs=lambda n_depots, n_pairs: (1, min(4, n_pairs)),
                                 commodities=(1, 2), loads=(1, 2, 5), capacities=(4, 10, 25),
                                 units=(0, 0, 0, 1, 1, 2))


def random_family_instance(rng: random.Random) -> Instance:
    """A mid-size instance, built flows-first in `random_micro_instance`'s
    draw order: 4-6 depots, n to 2n arcs for n depots, horizon 4-7, 1-3
    commodities and more units per (arc, commodity, t)."""
    return _flows_first_instance(rng, depots=(4, 6), horizon=(4, 7),
                                 arcs=lambda n_depots, n_pairs: (n_depots, 2 * n_depots),
                                 commodities=(1, 3), loads=(1, 2, 5, 10),
                                 capacities=(10, 25, 50), units=(0, 0, 0, 1, 1, 2, 3))


def _flows_first_instance(rng: random.Random, depots, horizon, arcs, commodities, loads,
                          capacities, units) -> Instance:
    """Solvable instance built flows-first: sample integral flows on a
    random graph, then derive the schedule from the conservation equations,
    so mass balance and reachability hold by construction and the sampled
    flows are a feasibility witness.  `depots`, `horizon` and `commodities`
    are (low, high) counts, `arcs(n_depots, n_pairs)` gives the arc count's,
    and `loads`, `capacities` and `units` (per arc, commodity and t) are
    drawn from."""
    n_depots = rng.randint(*depots)
    nodes = tuple(Depot(f"D{i}", f"D{i}") for i in range(1, n_depots + 1))
    T = rng.randint(*horizon)
    pairs = [(a.id, b.id) for a in nodes for b in nodes if a.id != b.id]
    rng.shuffle(pairs)
    arc_list = tuple(Arc(o, d, round(rng.uniform(0.5, 9.5), 2), rng.choice((1, 1, 2)))
                     for o, d in pairs[: rng.randint(*arcs(n_depots, len(pairs)))])
    goods = tuple(Commodity(f"K{i}", rng.choice(loads))
                  for i in range(1, rng.randint(*commodities) + 1))
    capacity = rng.choice(capacities)

    net = {}
    for a in arc_list:
        for c in goods:
            for t in range(1, T + 1):
                if t + a.travel_time > T:
                    continue   # keep every sampled unit inside the horizon
                count = rng.choice(units)
                if count == 0:
                    continue
                mass = count * c.load
                net[(a.origin, c.id, t)] = net.get((a.origin, c.id, t), 0) + mass
                net[(a.dest, c.id, t + a.travel_time)] = \
                    net.get((a.dest, c.id, t + a.travel_time), 0) - mass
    schedule = tuple(ScheduleEntry(dep, com, t, amount)
                     for (dep, com, t), amount in sorted(net.items()) if amount != 0)
    return Instance(depots=nodes, arcs=arc_list, commodities=goods,
                    horizon=T, capacity=capacity, schedule=schedule)


def family_models():
    """The pruned models of the mid-size family: the first 30 draws of
    `random_family_instance` from `random.Random(5)`, numbered from 0."""
    rng = random.Random(5)
    return [expansion.prune_model(expansion.expand_model(random_family_instance(rng)))
            for _ in range(30)]


def highs_optimum(model) -> float:
    """HiGHS's optimal objective of `model` (`scipy.optimize.milp` on its
    rows, bounds and objective), proved with a zero relative gap, after
    checking that its solution, rounded to integers, verifies and costs that
    objective.  Needs scipy, which the library never imports."""
    import numpy as np
    from scipy import optimize, sparse

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
    point = expansion.Assignment(values=tuple(int(v) for v in np.rint(result.x)))
    report = expansion.verify_assignment(model, point)
    assert report.feasible and report.bound_findings == ()
    assert expansion.evaluate_objective(model, point) == pytest.approx(result.fun, rel=1e-9)
    return result.fun


def random_micro_model(rng: random.Random, max_space: int = 200_000):
    """Expanded model of a random micro instance, re-drawn until the brute
    force search space is comfortably small."""
    while True:
        model = expansion.expand_model(random_micro_instance(rng))
        space = 1
        for v in model.variables:
            space *= v.upper_bound + 1
            if space > max_space:
                break
        if space <= max_space:
            return model


def feasible_points(model) -> list[list[int]]:
    """Every point of the model's bound box that satisfies every row, in
    variable order: the whole box, enumerated."""
    import numpy as np

    n = len(model.variables)
    A = np.zeros((len(model.constraints), n), dtype=np.int64)
    rhs = np.array([c.rhs for c in model.constraints], dtype=np.int64)
    eq = np.array([c.relation == "eq" for c in model.constraints], dtype=bool)
    for r, c in enumerate(model.constraints):
        for i, coef in c.terms:
            A[r, i] = coef
    box = np.array(list(itertools.product(*(range(v.upper_bound + 1) for v in model.variables))),
                   dtype=np.int64).reshape(-1, n)
    residual = box @ A.T - rhs
    ok = (residual[:, eq] == 0).all(axis=1) & (residual[:, ~eq] <= 0).all(axis=1)
    return box[ok].tolist()
