"""The waves(k) instance family and its known optimal point.

waves(k) is the Earth-Moon-Mars case study with its supply/demand schedule
repeated k times, copy j shifted 2j steps later, and entries that land on the
same (depot, commodity, step) merged.  Its horizon is T = 4 + 2k, so waves(1)
is the case study itself.  The family is deterministic in k.

Copy j of the case-study optimum, shifted 2j steps, uses each arc at steps
that no other copy uses, so the sum of the k shifted copies is feasible and
costs k times the case-study optimum; HiGHS (scipy.optimize.milp) confirms
that this is the optimum for k = 1-4, 10, 20 and 40.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from hamflow.expansion import Assignment, Model
from hamflow.instance import (
    Instance,
    ScheduleEntry,
    build_case_study,
    default_case_study_costs,
)

SHIFT = 2
_OPTIMUM = json.loads((Path(__file__).parent / "case_study_optimum.json").read_text("utf-8"))
CASE_STUDY_OPTIMUM: float = _OPTIMUM["objective"]
_STEP = re.compile(r"t=(\d+)\]$")


def waves(k: int) -> Instance:
    """The case study with its schedule repeated k times, SHIFT steps apart."""
    if k < 1:
        raise ValueError(f"waves needs k >= 1, got {k}")
    base = build_case_study(default_case_study_costs())
    merged: dict[tuple[str, str, int], float] = {}
    for j in range(k):
        for e in base.schedule:
            key = (e.depot, e.commodity, e.time + SHIFT * j)
            merged[key] = merged.get(key, 0.0) + e.amount
    schedule = tuple(ScheduleEntry(d, c, t, amount)
                     for (d, c, t), amount in sorted(merged.items())
                     if amount != 0)
    return Instance(depots=base.depots, arcs=base.arcs, commodities=base.commodities,
                    horizon=base.horizon + SHIFT * (k - 1), capacity=base.capacity,
                    schedule=schedule)


def optimum(k: int) -> float:
    """The optimal cost of waves(k)."""
    return k * CASE_STUDY_OPTIMUM


def optimal_point(model: Model, k: int) -> Assignment:
    """k shifted copies of the case-study optimum, summed and mapped onto
    `model` (expanded or pruned) by variable name."""
    summed: dict[str, int] = {}
    for j in range(k):
        for name, value in _OPTIMUM["values"].items():
            shifted = _STEP.sub(lambda m: f"t={int(m.group(1)) + SHIFT * j}]", name)
            summed[shifted] = summed.get(shifted, 0) + value
    index = {v.name(): v.index for v in model.variables}
    missing = sorted(set(summed) - set(index))
    if missing:
        raise ValueError(f"waves({k}) optimum uses variables the model lacks: {missing[:3]}")
    values = [0] * len(model.variables)
    for name, value in summed.items():
        values[index[name]] = value
    return Assignment(values=tuple(values))
