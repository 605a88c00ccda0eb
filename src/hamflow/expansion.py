"""Time expansion of an Instance into an integer program.

Decision variables are `flow` variables x[arc, commodity, t] (units of a
commodity departing on an arc at step t) and `vehicle` variables z[arc, t]
(vehicles dispatched on an arc at step t).  Departure steps run over
t in [1, T] with t + travel_time <= T + 1; later departures could only
strand cargo beyond the horizon and are never created.

Constraints:
  conservation, one per (depot, commodity, t), equality in mass units:
      sum_out x * load  -  sum_in x[departed t - travel_time] * load  =  d
  capacity, one per (arc, t), inequality in mass units:
      sum_k x * load_k  -  capacity * z  <=  0

All constraint coefficients and right-hand sides are integers so that
residual arithmetic is exact: an `Instance` holds only integral loads,
capacity and schedule amounts, each amount a multiple of its load.

`Graph` is the network these rows describe, one edge per flow variable from
its (depot, commodity, t) cell to the one at t + travel_time; `absorb_bounds`
and `vehicle_caps` bound what an optimum can use on it.

Variables, constraint rows and models are values: once built they are never
mutated, and `dataclasses.replace` makes a changed copy.  `Variable` and
`LinearConstraint` are slotted rather than frozen dataclasses, because an
expansion builds thousands of them and a frozen dataclass's `__init__` sets
each field through `object.__setattr__` at three to four times the cost; the
few-per-call `Model`, `Assignment` and `FeasibilityReport` stay frozen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .instance import (
    HamflowError,
    Instance,
    _collector_paused,
    _is_int,
    _mass,
    arc_key,
    mass_balance_findings,
    ordered_sum,
    parse_arc_key,
    presence_windows,
)

FLOW = "flow"
VEHICLE = "vehicle"


class ModelError(HamflowError):
    pass


class InfeasibleModelError(ModelError):
    """Pruning removed every variable from a constraint with nonzero rhs."""


@dataclass(slots=True, unsafe_hash=True)
class Variable:
    index: int
    kind: str                       # FLOW or VEHICLE
    arc: tuple[str, str]
    commodity: str | None           # set for flow variables only
    time: int                       # departure step
    upper_bound: int

    def name(self) -> str:
        if self.kind == FLOW:
            return f"x[{arc_key(*self.arc)},{self.commodity},t={self.time}]"
        return f"z[{arc_key(*self.arc)},t={self.time}]"


# Constraint tags are plain tuples so they stay hashable and printable:
#   ("conservation", depot, commodity, time)
#   ("capacity", (origin, dest), time)
Tag = tuple


@dataclass(slots=True, unsafe_hash=True)
class LinearConstraint:
    terms: tuple[tuple[int, int], ...]   # (variable index, integer coefficient)
    relation: str                        # "eq" or "le"
    rhs: int
    tag: Tag


@dataclass(frozen=True)
class Model:
    instance: Instance
    variables: tuple[Variable, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[tuple[int, float], ...]   # (vehicle variable index, cost)

    def flow_index(self) -> dict[tuple[tuple[str, str], str, int], int]:
        return {(v.arc, v.commodity, v.time): v.index
                for v in self.variables if v.kind == FLOW}

    def vehicle_index(self) -> dict[tuple[tuple[str, str], int], int]:
        return {(v.arc, v.time): v.index for v in self.variables if v.kind == VEHICLE}

    def num_flow_variables(self) -> int:
        return sum(1 for v in self.variables if v.kind == FLOW)

    def num_vehicle_variables(self) -> int:
        return sum(1 for v in self.variables if v.kind == VEHICLE)

    def constraints_tagged(self, name: str) -> list[LinearConstraint]:
        return [c for c in self.constraints if c.tag[0] == name]


@dataclass(frozen=True)
class Assignment:
    """Integer value per model variable; a candidate solution.  Values that
    are not a list or tuple, and a value that is not an int or is a bool,
    raise TypeError: none is truncated."""
    values: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.values, (list, tuple)):
            raise TypeError(f"assignment values must be a list, got {type(self.values).__name__}")
        values = tuple(self.values)
        for v in values:
            if not _is_int(v):
                raise TypeError(f"assignment value {v!r} is not an integer")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FeasibilityReport:
    residuals: tuple[int, ...]       # signed for equalities, max(0, lhs-rhs) for inequalities
    feasible: bool                   # every row holds and every value is within its bounds
    worst: tuple[Tag, int] | None    # constraint tag with the largest |residual|
    bound_findings: tuple[tuple[int, int, int], ...] = ()   # (var index, value, upper bound)


@_collector_paused
def expand_model(inst: Instance) -> Model:
    """Expand an instance into variables, constraints, and the cost objective.

    Rejects instances whose per-commodity scheduled masses do not cancel;
    those could only produce an unsatisfiable model.
    """
    balance = mass_balance_findings(inst)
    if balance:
        raise ModelError("instance fails mass balance: " + "; ".join(f.message for f in balance))

    T = inst.horizon
    loads = {c.id: c.load for c in inst.commodities}
    capacity = inst.capacity
    demand = {(e.depot, e.commodity, e.time): e.amount for e in inst.schedule}

    # exact integers: a float total or quotient may round past 2**53
    supply_mass = {k: sum(a for (_, c, _), a in demand.items() if c == k and a > 0) for k in loads}
    supply_units = {cid: mass // loads[cid] for cid, mass in supply_mass.items()}
    vehicle_ub = -(-sum(supply_mass.values()) // capacity)

    # (pair, end) per arc: departures run over range(1, end), the steps t
    # with t + travel_time <= T + 1
    arcs = [(a.pair, T + 2 - a.travel_time) for a in inst.arcs]
    variables: list[Variable] = []
    flow_idx: dict[tuple, int] = {}
    vehicle_idx: dict[tuple, int] = {}
    for pair, end in arcs:
        for cid, units in supply_units.items():
            for t in range(1, end):
                flow_idx[(pair, cid, t)] = i = len(variables)
                variables.append(Variable(i, FLOW, pair, cid, t, units))
    for pair, end in arcs:
        for t in range(1, end):
            vehicle_idx[(pair, t)] = i = len(variables)
            variables.append(Variable(i, VEHICLE, pair, None, t, vehicle_ub))

    constraints: list[LinearConstraint] = []
    for d in inst.depots:
        out_pairs = [a.pair for a in inst.out_arcs(d.id)]
        in_arcs = [(a.pair, a.travel_time) for a in inst.in_arcs(d.id)]
        for cid, load in loads.items():
            for t in range(1, T + 1):
                terms: list[tuple[int, int]] = []
                for pair in out_pairs:
                    i = flow_idx.get((pair, cid, t))
                    if i is not None:
                        terms.append((i, load))
                for pair, travel in in_arcs:
                    i = flow_idx.get((pair, cid, t - travel))
                    if i is not None:
                        terms.append((i, -load))
                constraints.append(LinearConstraint(
                    tuple(terms), "eq", demand.get((d.id, cid, t), 0),
                    ("conservation", d.id, cid, t)))
    for pair, end in arcs:
        for t in range(1, end):
            terms = [(flow_idx[(pair, cid, t)], load) for cid, load in loads.items()]
            terms.append((vehicle_idx[(pair, t)], -capacity))
            constraints.append(LinearConstraint(tuple(terms), "le", 0, ("capacity", pair, t)))

    objective = tuple((vehicle_idx[(pair, t)], a.cost)
                      for a, (pair, end) in zip(inst.arcs, arcs) for t in range(1, end))
    return Model(instance=inst, variables=tuple(variables),
                 constraints=tuple(constraints), objective=objective)


@_collector_paused
def prune_model(model: Model) -> Model:
    """Drop variables that can carry no useful flow and reindex densely.

    A flow variable (arc, k, t) is kept only if commodity k can be present
    at the arc tail by step t and its arrival t + travel_time at the head
    can still reach a demand for k: the windows of `presence_windows`,
    which `validate_instance` also checks demands against.  Vehicle
    variables and capacity rows survive only where some flow does;
    conservation rows that become 0 = 0 are dropped.
    """
    inst = model.instance
    windows = presence_windows(inst)
    travel = {a.pair: a.travel_time for a in inst.arcs}

    live_flows = set()
    live_arc_times = set()
    for v in model.variables:
        if v.kind == FLOW:
            tail, head = arc = v.arc
            t = v.time
            earliest, latest = windows[v.commodity]
            if earliest[tail] <= t and t + travel[arc] <= latest[head]:
                live_flows.add(v.index)
                live_arc_times.add((arc, t))

    # variables are stored in index order, so keeping that order reindexes densely
    remap: dict[int, int] = {}
    variables = []
    for v in model.variables:
        if v.kind == FLOW:
            keep = v.index in live_flows
        else:
            keep = v.kind == VEHICLE and (v.arc, v.time) in live_arc_times
        if keep:
            remap[v.index] = i = len(variables)
            variables.append(Variable(i, v.kind, v.arc, v.commodity, v.time, v.upper_bound))

    constraints: list[LinearConstraint] = []
    for c in model.constraints:
        tag = c.tag
        if tag[0] == "capacity" and (tag[1], tag[2]) not in live_arc_times:
            continue
        terms = tuple([(remap[i], a) for i, a in c.terms if i in remap])
        if not terms:
            if c.rhs != 0:
                raise InfeasibleModelError(
                    f"constraint {tag_str(c.tag)} requires {c.rhs} but every variable was pruned")
            continue
        constraints.append(LinearConstraint(terms, c.relation, c.rhs, tag))

    objective = tuple((remap[i], cost) for (i, cost) in model.objective if i in remap)
    return Model(instance=inst, variables=tuple(variables),
                 constraints=tuple(constraints), objective=objective)


class Graph:
    """A model's time-expanded network, built once per back-end call and
    passed to every helper that walks it.

    `nodes` counts the (depot, t) for t in 1..T.  `cells` are the (depot,
    commodity, t) for t in 1..T in (t, depot, commodity) order, so cell
    c // len(loads) is its (depot, t) node and every edge runs to a later
    cell.  `mass` maps each scheduled cell to its signed integer mass, in
    schedule order.  `edges` holds one (flow variable, tail cell, head cell,
    vehicle variable) per flow variable, in index order, the vehicle
    variable being the one of the flow's (arc, t): every model that
    `expand_model` or `prune_model` builds has one.  In an unpruned model a
    head may be at T + 1, past the last cell.  `out[c]` holds the edges
    leaving cell c whose head is within the horizon: arrivals beyond it can
    never serve a demand.  `vehicles` lists the vehicle variables in index
    order; every per-(arc, t) capacity is keyed by one of them.
    """

    def __init__(self, model: Model):
        inst = model.instance
        self.variables = model.variables
        self.loads = {c.id: c.load for c in inst.commodities}
        self.capacity = inst.capacity
        vehicle = model.vehicle_index()
        self.vehicles = list(vehicle.values())
        self.nodes = inst.horizon * len(inst.depots)
        keys = [(d.id, k, t) for t in range(1, inst.horizon + 2)
                for d in inst.depots for k in self.loads]
        cell = {key: c for c, key in enumerate(keys)}      # heads at T + 1 included
        self.cells = keys[:self.nodes * len(self.loads)]
        self.mass = {cell[(e.depot, e.commodity, e.time)]: e.amount for e in inst.schedule}
        travel = {a.pair: a.travel_time for a in inst.arcs}
        self.edges = [(v.index, cell[(v.arc[0], v.commodity, v.time)],
                       cell[(v.arc[1], v.commodity, v.time + travel[v.arc])],
                       vehicle[(v.arc, v.time)])
                      for v in model.variables if v.kind == FLOW]
        self.out: list[list[tuple[int, int, int, int]]] = [[] for _ in self.cells]
        for edge in self.edges:
            if edge[2] < len(self.cells):
                self.out[edge[1]].append(edge)


def absorb_bounds(g: Graph, cap_mass: dict[int, int]) -> list[int]:
    """Per-cell upper bound on the units that demands at or after that cell
    can take (backward DP): its own demand plus, per edge leaving it, the
    least of the variable's bound, cap_mass[z] // load (z its vehicle
    variable) and what its head can take."""
    absorb = [0] * len(g.cells)
    for c in range(len(g.cells) - 1, -1, -1):
        load = g.loads[g.cells[c][1]]
        units = max(-g.mass.get(c, 0), 0) // load
        for i, _, head, z in g.out[c]:
            units += min(absorb[head], g.variables[i].upper_bound, cap_mass[z] // load)
        absorb[c] = units
    return absorb


def vehicle_caps(g: Graph) -> dict[int, int]:
    """Largest useful vehicle count per vehicle variable: enough to cover the
    most mass that could ever traverse its (arc, t), an edge carrying no
    more than its bound, what its tail can hold and what its head can
    absorb.  Some optimum always fits under these caps, so the exact search
    never looks above them.  A cell can hold its own supply plus, per edge into
    it, the lesser of the variable's bound and what its tail can hold
    (forward DP); every edge runs to a later cell, so a cell's bound is
    final before its own edges are pushed."""
    present = [max(g.mass.get(c, 0), 0) // g.loads[k] for c, (_, k, _) in enumerate(g.cells)]
    for c, edges in enumerate(g.out):
        for i, _, head, _ in edges:
            present[head] += min(present[c], g.variables[i].upper_bound)
    absorb = absorb_bounds(g, {z: g.capacity * g.variables[z].upper_bound for z in g.vehicles})
    max_mass = dict.fromkeys(g.vehicles, 0)
    for c, edges in enumerate(g.out):
        load = g.loads[g.cells[c][1]]
        for i, _, head, z in edges:
            max_mass[z] += min(g.variables[i].upper_bound, present[c], absorb[head]) * load
    return {z: min(g.variables[z].upper_bound, -(-mass // g.capacity))
            for z, mass in max_mass.items()}


def row_residuals(model: Model, values) -> list[int]:
    """Signed lhs - rhs of every constraint row at integer values, in row order."""
    return [sum(coef * values[i] for i, coef in c.terms) - c.rhs for c in model.constraints]


def _require_length(model: Model, a: Assignment) -> None:
    """Refuse an assignment that does not hold one value per model variable."""
    if len(a.values) != len(model.variables):
        raise ValueError(f"assignment has {len(a.values)} values, model has "
                         f"{len(model.variables)} variables")


def verify_assignment(model: Model, a: Assignment) -> FeasibilityReport:
    """Exact row residuals and out-of-bounds values; `feasible` when there are none."""
    _require_length(model, a)
    residuals = []
    worst: tuple[Tag, int] | None = None
    for c, r in zip(model.constraints, row_residuals(model, a.values)):
        if c.relation == "le":
            r = max(0, r)
        residuals.append(r)
        if r != 0 and (worst is None or abs(r) > abs(worst[1])):
            worst = (c.tag, r)
    bound_findings = tuple((v.index, a.values[v.index], v.upper_bound)
                           for v in model.variables
                           if not 0 <= a.values[v.index] <= v.upper_bound)
    return FeasibilityReport(residuals=tuple(residuals),
                             feasible=not bound_findings and all(r == 0 for r in residuals),
                             worst=worst, bound_findings=bound_findings)


def evaluate_objective(model: Model, a: Assignment) -> float:
    """Total vehicle cost sum(c * z); flow variables do not contribute."""
    _require_length(model, a)
    return ordered_sum((cost * a.values[i] for i, cost in model.objective), 0.0)


def zero_assignment(model: Model) -> Assignment:
    return Assignment(values=(0,) * len(model.variables))


def model_to_debug_dict(model: Model) -> dict:
    """JSON-friendly dump of variables and constraints for golden-file tests."""
    return {
        "variables": [
            {"index": v.index, "kind": v.kind, "arc": arc_key(*v.arc),
             "commodity": v.commodity, "time": v.time, "upper_bound": v.upper_bound}
            for v in model.variables],
        "constraints": [
            {"tag": tag_str(c.tag), "relation": c.relation, "rhs": c.rhs,
             "terms": [[i, coef] for i, coef in c.terms]}
            for c in model.constraints],
        "objective": [[i, cost] for i, cost in model.objective],
    }


def dump_model_json(model: Model) -> str:
    return json.dumps(model_to_debug_dict(model), indent=2) + "\n"


def tag_str(tag: Tag) -> str:
    if tag[0] == "conservation":
        return f"conservation({tag[1]},{tag[2]},t={tag[3]})"
    return f"capacity({arc_key(*tag[1])},t={tag[2]})"


# --- reconstruction from published schedule tables ---------------------------

class TableReconstructionError(HamflowError):
    """The schedule tables are inconsistent with any integral flow split."""


def reconstruct_solution(model: Model, tables: dict) -> Assignment:
    """Rebuild a full Assignment from a schedule-table document.

    The document is a JSON object with keys:

      horizon         int, must match the instance
      time_labeling   "arrival": vehicle-table columns are labeled by the
                      step a traversal arrives (column t = departure at
                      t - travel_time)
      vehicles        {"Ni->Nj": [count per t=1..T]}
      cargo           {"Ni->Nj": [total mass per t=1..T]}; only per-arc
                      totals are used (published per-step labels are not
                      consistent between tables)
      inventory       {node: {commodity: [on-hand mass per t=1..T]}} with
                      delivered demand retained

    A document of any other shape, or one missing a table, is refused with
    a TableReconstructionError that names the key.

    Every entry must be a whole number, and all arithmetic is on exact ints,
    so the point rebuilt is exact at any size.  The unknowns are the model's
    flow variables.  The inventory recurrence gives the mass arriving at and
    the mass departing each (depot, commodity, t) cell; everything present
    departs the same step, since the conservation rows have no holdover.
    Each cell's conservation row splits into two equations: its positive
    terms sum to the departing mass and its negative terms to the arriving
    mass (a cell without a row has no variables, so both masses must be
    zero).  Repeated single-open-variable elimination solves them; the
    solution must be unique, nonnegative and integral in flow units.  The
    capacity rows then check the vehicle cover, and their positive terms
    give the per-arc cargo totals, which must match the cargo table.
    """
    inst = model.instance
    T = inst.horizon
    if not isinstance(tables, dict):
        raise TableReconstructionError("the table document must be a JSON object")
    for key in ("vehicles", "cargo", "inventory"):
        if key not in tables:
            raise TableReconstructionError(f"the table document has no {key!r}")
        if not isinstance(tables[key], dict):
            raise TableReconstructionError(f"{key!r} must be a JSON object")
    if tables.get("horizon") != T:
        raise TableReconstructionError(
            f"table horizon {tables.get('horizon')} != instance horizon {T}")
    if tables.get("time_labeling") != "arrival":
        raise TableReconstructionError("only 'arrival' time labeling is supported")

    def row(table: dict, key: str, what: str) -> list[int]:
        """The T entries of row `key` (the `what` of a refusal), zeros where
        the table has none, each read as `Instance` reads a mass."""
        values = table.get(key, [0] * T)
        if not isinstance(values, list) or len(values) != T:
            raise TableReconstructionError(f"row {key!r} must be a list of {T} columns")
        exact = [_mass(v) for v in values]
        if None in exact:
            raise TableReconstructionError(
                f"bad {what}: {values[exact.index(None)]!r} is not a whole number")
        return exact

    vehicles_doc, cargo_doc, inventory_doc = (tables[k] for k in
                                              ("vehicles", "cargo", "inventory"))
    for key in set(vehicles_doc) | set(cargo_doc):
        inst.arc(*parse_arc_key(key))   # raises on unknown arcs

    rows = {c.tag[1:]: (c.rhs, c.terms) for c in model.constraints
            if c.tag[0] == "conservation"}

    # arrivals from the inventory recurrence, with supply - demand = rhs:
    # inv(t) - inv(t-1) = arr(t) + supply(t) - dep(t-1),  dep = arr + rhs
    # and per cell the two equations (cell, mass, [(flow variable, mass per unit)])
    equations = []
    for d in inst.depots:
        depot_rows = inventory_doc.get(d.id, {})
        if not isinstance(depot_rows, dict):
            raise TableReconstructionError(f"inventory of {d.id} must be a JSON object of rows")
        for c in inst.commodities:
            inv_row = row(depot_rows, c.id, f"inventory of {c.id} at {d.id}")
            prev_inv = prev_dep = 0
            for t in range(1, T + 1):
                cell = (d.id, c.id, t)
                rhs, terms = rows.get(cell, (0, ()))
                a_t = inv_row[t - 1] - prev_inv - max(rhs, 0) + prev_dep
                if a_t < 0:
                    raise TableReconstructionError(
                        f"inventory at ({d.id}, {c.id}, t={t}) implies negative arrivals")
                d_t = a_t + rhs
                if d_t < 0:
                    raise TableReconstructionError(
                        f"inventory at ({d.id}, {c.id}, t={t}) cannot cover the demand")
                equations.append((cell, d_t, [(i, k) for i, k in terms if k > 0]))
                equations.append((cell, a_t, [(i, -k) for i, k in terms if k < 0]))
                prev_inv, prev_dep = inv_row[t - 1], d_t

    units: dict[int, int] = {}

    def eliminate() -> bool:
        changed = False
        for cell, need, members in equations:
            open_members = [(i, k) for i, k in members if i not in units]
            fixed = sum(k * units[i] for i, k in members if i in units)
            if len(open_members) == 1:
                i, k = open_members[0]
                units[i], left = divmod(need - fixed, k)
                if left:
                    raise TableReconstructionError(
                        f"{need - fixed} mass on {model.variables[i].name()} is not an "
                        f"integral number of units of {k}")
                changed = True
            elif not open_members and fixed != need:
                raise TableReconstructionError(
                    f"flow balance at {cell} moves {fixed}, needs {need}")
            elif open_members and fixed == need:
                # the equation is already satisfied; its open members carry nothing
                units.update((i, 0) for i, _ in open_members)
                changed = True
        return changed

    while eliminate():
        pass
    stuck = [v.name() for v in model.variables if v.kind == FLOW and v.index not in units]
    if stuck:
        raise TableReconstructionError(f"ambiguous flow split; undetermined on {stuck}")
    values = [0] * len(model.variables)
    for i, u in units.items():
        if u < 0:
            raise TableReconstructionError(f"negative flow {u} on {model.variables[i].name()}")
        values[i] = u

    vehicle_idx = model.vehicle_index()
    for key in vehicles_doc:
        pair = parse_arc_key(key)
        dt = inst.arc(*pair).travel_time
        for col, count in enumerate(row(vehicles_doc, key, f"vehicle count on {key}"), start=1):
            if count == 0:
                continue
            t = col - dt   # arrival-labeled column
            idx = vehicle_idx.get((pair, t))
            if idx is None:
                raise TableReconstructionError(
                    f"vehicle count on {key} arriving t={col} maps to no model variable")
            if count < 0:
                raise TableReconstructionError(f"bad vehicle count {count} on {key}")
            values[idx] = count

    # cross-checks on the capacity rows: vehicle cover and per-arc cargo totals
    cargo: dict[tuple[str, str], int] = {}
    for c, r in zip(model.constraints, row_residuals(model, values)):
        if c.tag[0] != "capacity":
            continue
        _, pair, t = c.tag
        if r > 0:
            raise TableReconstructionError(
                f"cargo on {arc_key(*pair)} departing t={t} exceeds the vehicle cover by {r}")
        cargo[pair] = cargo.get(pair, 0) + sum(k * values[i] for i, k in c.terms if k > 0)
    for a in inst.arcs:
        total_doc = sum(row(cargo_doc, a.key(), f"cargo on {a.key()}"))
        total_flow = cargo.get(a.pair, 0)
        if total_doc != total_flow:
            raise TableReconstructionError(
                f"cargo total on {a.key()}: tables say {total_doc}, flows say {total_flow}")

    return Assignment(values=tuple(values))
