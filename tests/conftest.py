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


def random_micro_instance(rng: random.Random) -> Instance:
    """Small solvable instance built flows-first: sample integral flows on a
    random graph, then derive the schedule from the conservation equations,
    so mass balance and reachability hold by construction and the sampled
    flows are a feasibility witness."""
    n_depots = rng.randint(2, 4)
    depots = tuple(Depot(f"D{i}", f"D{i}") for i in range(1, n_depots + 1))
    horizon = rng.randint(2, 3)
    pairs = [(a.id, b.id) for a in depots for b in depots if a.id != b.id]
    rng.shuffle(pairs)
    arcs = tuple(Arc(o, d, round(rng.uniform(0.5, 9.5), 2), rng.choice((1, 1, 2)))
                 for o, d in pairs[: rng.randint(1, min(4, len(pairs)))])
    commodities = tuple(Commodity(f"K{i}", float(rng.choice((1, 2, 5))))
                        for i in range(1, rng.randint(1, 2) + 1))
    capacity = float(rng.choice((4, 10, 25)))

    net = {}
    for a in arcs:
        for c in commodities:
            for t in range(1, horizon + 1):
                if t + a.travel_time > horizon:
                    continue   # keep every sampled unit inside the horizon
                units = rng.choice((0, 0, 0, 1, 1, 2))
                if units == 0:
                    continue
                mass = units * c.load
                net[(a.origin, c.id, t)] = net.get((a.origin, c.id, t), 0.0) + mass
                net[(a.dest, c.id, t + a.travel_time)] = \
                    net.get((a.dest, c.id, t + a.travel_time), 0.0) - mass
    schedule = tuple(ScheduleEntry(dep, com, t, amount)
                     for (dep, com, t), amount in sorted(net.items()) if amount != 0)
    return Instance(depots=depots, arcs=arcs, commodities=commodities,
                    horizon=horizon, capacity=capacity, schedule=schedule)


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
