"""Classical back-ends: exact branch-and-bound, exhaustive enumeration for
tiny models, and a restart-based simulated annealer mirroring the sampling
workflow of the target annealing hardware.

Every back-end that walks the time-expanded network builds one `_Graph`
per call and hands it to its helpers: the (depot, commodity, t) cells, their
scheduled masses and one edge per flow variable, tagged with the vehicle
variable of its (arc, t).  That vehicle variable's index is the one key of
every per-(arc, t) capacity.

The branch-and-bound searches vehicle counts only; commodity flows are
completed at the leaves by an exact integral-flow search, which gives no
flow variable more units than its destination can pass on to demands.  Two
necessary relaxations prune internal nodes: a per-commodity max-flow over
the time-expanded graph (timing) and a merged-mass max-flow (joint
capacity).  Their networks are built once per solve; a node changes only
the capacities of the arc edges of the one vehicle it branched on, so it
keeps its parent's flow wherever that flow still fits and elsewhere repairs
it: the excess on those edges is cancelled along flow paths and
augmenting paths restore the rest.  A repair that fails has found a
minimum cut of capacity below the demand (Ford & Fulkerson, 1956), and
each network keeps it as a learned nogood, stored under every vehicle
whose arc edge it crosses.  Before repairing, a child evaluates the cuts
stored under the one vehicle it branched on; one below the demand proves
it infeasible.  Those are the only cuts that can: the parent was
feasible, so every cut held the demand at the parent's capacities, and a
cut that falls short at the child's must cross an edge whose capacity
changed.

The annealer walks conservation-feasible flows only.  Each restart starts
from a max-flow solution of every commodity's time-expanded graph (the
relaxation's per-commodity networks with every (arc, t) open to its vehicle
bound), and its one move pushes a unit around a cycle of at most six edges
of one commodity's graph, the cycle neighbourhood of min-cost flow (Klein,
Management Science 14, 1967), which leaves every conservation row as it
was.  Vehicle counts are not searched: each is the fewest vehicles that
carry the mass on its (arc, t), so every capacity row holds and a point's
energy is its objective.  Travel times are at least 1, so no arc carries
more than its commodity's supply and every visited point is within bounds.

Each annealer sweep consumes the draws `rng.integers(0, n, n)`,
`rng.integers(0, 2, n)`, `rng.random(n)` and `rng.random(n)` of a
`default_rng([seed, restart])` stream, n the number of flow variables.  The
chain reads only the last three; the first is still drawn, and checked for
rejections, only so that a seed gives the samples it always gave.
`_sweep_draws` reads them for a block of sweeps at once with
`bit_generator.random_raw` and decodes the words the way numpy would:
Lemire's bounded draw on uint32 halves, low half first, and 53-bit doubles.
It hands the chain each proposal's move index, 2 * int(pick * cycles) + up
from the second and third draws, and the fourth draw for the Metropolis
test.  It falls back to the four calls for the rest of a chain when numpy
would reject a bounded draw, and for one-variable models; TestAnnealStream
pins the stream byte for byte.

The annealer's restarts share only the tables built before them, so they
run side by side on the usable CPUs, one forked worker each up to one per
restart (`anneal_sample`).  Restart r reads the stream of (seed, r) in any
worker, so the samples are identical for any worker count, and each
sample's wall time is still its own restart's time.

numpy is imported inside `brute_force_oracle`, `_Chain` and `_sweep_draws`
only, so commands that never anneal or enumerate do not load it.
"""

from __future__ import annotations

import gc
import marshal
import math
import os
import time
from dataclasses import dataclass
from typing import NoReturn

from .expansion import (
    FLOW,
    Assignment,
    FeasibilityReport,
    Model,
    ModelError,
    evaluate_objective,
    verify_assignment,
)
from .hamiltonian import Hamiltonian, choose_alpha
from .instance import ordered_sum


class SearchSpaceTooLargeError(Exception):
    pass


@dataclass(frozen=True)
class Sample:
    assignment: Assignment
    energy: float
    objective: float
    feasible: bool
    restart_index: int
    wall_time: float


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact solve: status is 'optimal', 'time_limit', or
    'infeasible'."""
    status: str
    sample: Sample | None
    nodes: int
    wall_time: float

    @property
    def certified(self) -> bool:
        """False only when the time limit expired."""
        return self.status != "time_limit"

    @property
    def objective(self) -> float | None:
        return None if self.sample is None else self.sample.objective


@dataclass(frozen=True)
class AnnealParams:
    restarts: int = 40
    sweeps: int = 300

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")


@dataclass(frozen=True)
class SampleSet:
    samples: tuple[Sample, ...]          # ordered by (energy, restart_index)
    seed: int
    params: AnnealParams

    def best(self) -> Sample:
        return self.samples[0]

    def best_feasible(self) -> Sample | None:
        for s in self.samples:
            if s.feasible:
                return s
        return None

    def dump_csv(self) -> str:
        lines = ["restart_index,energy,objective,feasible,wall_time_s"]
        for s in self.samples:
            lines.append(f"{s.restart_index},{s.energy:.17g},{s.objective:.17g},"
                         f"{str(s.feasible).lower()},{s.wall_time:.6f}")
        return "\n".join(lines) + "\n"

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: everything except wall-clock times,
        which are measurements and cannot reproduce byte-for-byte."""
        lines = [f"seed={self.seed}"]
        for s in self.samples:
            values = ",".join(str(v) for v in s.assignment.values)
            lines.append(f"{s.restart_index};{s.energy:.17g};{s.objective:.17g};"
                         f"{str(s.feasible).lower()};{values}")
        return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass(frozen=True)
class SummaryStats:
    best_energy: float
    median_energy: float
    worst_energy: float
    feasible_fraction: float
    mean_wall_time: float
    bins: tuple[tuple[float, float, int], ...]   # (lower, upper, count), 20 bins


# --- post-processing ----------------------------------------------------------

def postprocess_flows(model: Model, a: Assignment) -> tuple[Assignment, FeasibilityReport]:
    """Zero every commodity flow scheduled where no vehicle runs.

    Vehicle variables are untouched, so the objective never changes; the
    returned report re-verifies the adjusted assignment.  Idempotent.
    """
    values = list(a.values)
    for i, _, _, z in _Graph(model).edges:
        if a.values[z] == 0:
            values[i] = 0
    adjusted = Assignment(values=tuple(values))
    return adjusted, verify_assignment(model, adjusted)


# --- the time-expanded graph ---------------------------------------------------

class _Graph:
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
        self.loads = {c.id: int(c.load) for c in inst.commodities}
        self.capacity = int(inst.capacity)
        vehicle = model.vehicle_index()
        self.vehicles = list(vehicle.values())
        self.nodes = inst.horizon * len(inst.depots)
        keys = [(d.id, k, t) for t in range(1, inst.horizon + 2)
                for d in inst.depots for k in self.loads]
        cell = {key: c for c, key in enumerate(keys)}      # heads at T + 1 included
        self.cells = keys[:self.nodes * len(self.loads)]
        self.mass = {cell[(e.depot, e.commodity, e.time)]: int(e.amount) for e in inst.schedule}
        travel = {a.pair: a.travel_time for a in inst.arcs}
        self.edges = [(v.index, cell[(v.arc[0], v.commodity, v.time)],
                       cell[(v.arc[1], v.commodity, v.time + travel[v.arc])],
                       vehicle[(v.arc, v.time)])
                      for v in model.variables if v.kind == FLOW]
        self.out: list[list[tuple[int, int, int, int]]] = [[] for _ in self.cells]
        for edge in self.edges:
            if edge[2] < len(self.cells):
                self.out[edge[1]].append(edge)


# --- exact search -------------------------------------------------------------

def _presence_bounds(g: _Graph) -> list[int]:
    """Per-cell upper bound on the units present (forward DP): its own supply
    plus, per edge into it, the lesser of the variable's bound and what its
    tail can hold.  Every edge runs to a later cell, so a cell's bound is
    final before its own edges are pushed."""
    present = [max(g.mass.get(c, 0), 0) // g.loads[k] for c, (_, k, _) in enumerate(g.cells)]
    for c, edges in enumerate(g.out):
        for i, _, head, _ in edges:
            present[head] += min(present[c], g.variables[i].upper_bound)
    return present


def _absorb_bounds(g: _Graph, cap_mass: dict[int, int]) -> list[int]:
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


def _vehicle_search_caps(g: _Graph) -> dict[int, int]:
    """Largest useful vehicle count per vehicle variable: enough to cover the
    most mass that could ever traverse its (arc, t).  Some optimum always
    fits under these caps, so the search never looks above them."""
    present = _presence_bounds(g)
    absorb = _absorb_bounds(g, {z: g.capacity * g.variables[z].upper_bound for z in g.vehicles})
    max_mass = dict.fromkeys(g.vehicles, 0)
    for c, edges in enumerate(g.out):
        load = g.loads[g.cells[c][1]]
        for i, _, head, z in edges:
            max_mass[z] += min(g.variables[i].upper_bound, present[c], absorb[head]) * load
    return {z: min(g.variables[z].upper_bound, -(-mass // g.capacity))
            for z, mass in max_mass.items()}


class _Network:
    """One flow network over (depot, t) nodes whose adjacency never changes.

    Source and sink edges have fixed capacities.  Each arc edge is keyed by
    the vehicle variable of its (arc, departure t), one edge per key, and
    has capacity min(ub, cap_mass[key] // load), so only those capacities
    depend on the search node.  Edges are stored in pairs: edge e ^ 1 is the
    reverse of edge e, so in a residual list the flow on edge e is the
    residual capacity of e ^ 1.  Arc j, `arcs[j]` = (key, ub, load), is
    edge 2j, and `edge_of[key]` is its edge.  Travel times are at least 1,
    so every arc edge runs forward in time and the network is a DAG.

    `cuts` maps each key to the cuts learned from failed solves that cross
    its edge.  A cut is (fixed, arcs): the capacity of the source and sink
    edges leaving its source side S, and the (key, ub, load) of each arc
    edge leaving S.  Its capacity under any `cap_mass`, fixed plus the sum
    of min(ub, cap_mass[key] // load) over arcs, bounds the maximum flow
    from above, so a cut below `need` certifies that no flow of `need` units
    exists.
    """

    def __init__(self, n_nodes: int, arcs, sources, sinks, need: int):
        """arcs: (u, v, key, ub, load); sources: (v, cap); sinks: (u, cap);
        need: the flow that must reach the sink.  Raises ModelError when two
        arcs share a key: a model has one flow variable per (arc, commodity,
        t), and the merged network one arc per vehicle variable."""
        self.source = n_nodes
        self.sink = n_nodes + 1
        self.need = need
        self.adj: list[list[int]] = [[] for _ in range(n_nodes + 2)]
        self.head: list[int] = []
        self.base: list[int] = []        # residual capacities before any flow
        self.arcs: list[tuple[int, int, int]] = []                # edge 2j: (key, ub, load)
        self.edge_of: dict[int, int] = {}                         # key: its arc edge
        self.cuts: dict[int, list[tuple[int, tuple]]] = {}        # key: learned cuts
        for u, v, key, ub, load in arcs:
            if key in self.edge_of:
                raise ModelError(f"two flow variables of one commodity share vehicle {key}")
            self.edge_of[key] = self._add(u, v, 0)
            self.arcs.append((key, ub, load))
        for v, cap in sources:
            self._add(self.source, v, cap)
        for u, cap in sinks:
            self._add(u, self.sink, cap)

    def _add(self, u: int, v: int, cap: int) -> int:
        e = len(self.head)
        self.head += (v, u)
        self.base += (cap, 0)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        return e

    def solve(self, cap_mass: dict[int, int], res: list[int] | None = None,
              key: int | None = None) -> list[int] | None:
        """A flow of `need` units within the capacities of `cap_mass`, as a
        residual list, or None when none exists (the max-flow verdict).

        With `res` None the search starts from the empty flow.  Otherwise
        `res` holds `need` units within capacities that differ from
        `cap_mass` only on `key`'s edge, if the network has one.  If that
        edge carries no more than its new capacity, `res` itself is
        returned; its residual capacities may still be those of the
        capacities it was solved under, but its flows fit.  Else a copy is
        repaired: the excess is cancelled along flow paths, backward to the
        source and forward to the sink; every arc edge's residual capacity is
        reset from `cap_mass`; and Edmonds-Karp augments back to `need`.  A
        flow within the capacities reaches the maximum by augmenting paths
        alone, so the verdict is the one a solve from the empty flow gives.

        Before that copy, the cuts stored under `key` are evaluated at
        `cap_mass`, and one below `need` returns None at once.  No other cut
        can: `res` is a flow of `need` units, so every cut held at least
        `need` under the old capacities, and a cut that now falls short
        crosses `key`'s edge.  When the breadth-first search finds no
        augmenting path, the nodes it reached are the source side of a
        minimum cut whose capacity, the flow so far, is below `need`; that
        cut is learned (`_learn`).  A certificate is a proof, so the verdict
        is still the max-flow verdict."""
        if res is None:
            res, flow = self.base.copy(), 0
        else:
            edge = self.edge_of.get(key)
            if edge is None:
                return res
            _, ub, load = self.arcs[edge >> 1]
            excess = res[edge ^ 1] - min(ub, cap_mass[key] // load)
            if excess <= 0:
                return res
            for fixed, arcs in self.cuts.get(key, ()):
                for k, ub, load in arcs:
                    units = cap_mass[k] // load
                    fixed += ub if ub < units else units
                if fixed < self.need:
                    return None
            res, flow = res.copy(), self.need - excess
            self._cancel(res, edge, excess)
        for j, (k, ub, load) in enumerate(self.arcs):
            units = cap_mass[k] // load
            res[2 * j] = (ub if ub < units else units) - res[2 * j + 1]
        adj, head = self.adj, self.head
        source, sink, need = self.source, self.sink, self.need
        while flow < need:
            parent = [-1] * len(adj)
            parent[source] = -2
            queue = [source]
            for u in queue:          # breadth-first: the list grows while it is read
                for e in adj[u]:
                    v = head[e]
                    if parent[v] == -1 and res[e] > 0:
                        parent[v] = e
                        queue.append(v)
                if parent[sink] != -1:
                    break
            if parent[sink] == -1:
                self._learn(queue, parent)
                return None
            push = need - flow
            v = sink
            while v != source:
                e = parent[v]
                if res[e] < push:
                    push = res[e]
                v = head[e ^ 1]
            v = sink
            while v != source:
                e = parent[v]
                res[e] -= push
                res[e ^ 1] += push
                v = head[e ^ 1]
            flow += push
        return res

    def _learn(self, reached: list[int], parent: list[int]) -> None:
        """Store the minimum cut of a failed solve: S is the set `reached`
        from the source in the residual network, whose `parent` entries are
        set.  The cut is the fixed capacity of the source and sink edges
        leaving S plus the (key, ub, load) of each arc edge (e < 2 len(arcs))
        leaving S, and it is stored under each of its keys, all distinct."""
        fixed, arcs = 0, []
        for u in reached:
            for e in self.adj[u]:
                if not e & 1 and parent[self.head[e]] == -1:
                    if e < 2 * len(self.arcs):
                        arcs.append(self.arcs[e >> 1])
                    else:
                        fixed += self.base[e]
        cut = (fixed, tuple(arcs))
        for key, _, _ in arcs:
            self.cuts.setdefault(key, []).append(cut)

    def _cancel(self, res: list[int], edge: int, excess: int) -> None:
        """Take `excess` units off the flow through `edge`, one source-to-sink
        flow path at a time.  By conservation a node that passes flow on has
        an edge carrying flow into it and one carrying flow out, and the
        network is a DAG, so both walks end at the source and the sink."""
        adj, head, source, sink = self.adj, self.head, self.source, self.sink
        while excess:
            path = [edge]
            u = head[edge ^ 1]
            while u != source:
                # an odd entry of adj[u] is the reverse of an edge into u
                e = next(e for e in adj[u] if e & 1 and res[e])
                path.append(e ^ 1)
                u = head[e]
            v = head[edge]
            while v != sink:
                e = next(e for e in adj[v] if not e & 1 and res[e ^ 1])
                path.append(e)
                v = head[e]
            push = min(excess, *(res[e ^ 1] for e in path))
            for e in path:
                res[e ^ 1] -= push
                res[e] += push
            excess -= push


class _FlowRelaxation:
    """Necessary feasibility checks for a partial vehicle assignment: one
    max-flow network per commodity (timing) and one merged-mass network with
    all commodities pooled (joint capacity), each built once."""

    def __init__(self, g: _Graph):
        per_node = len(g.loads)       # cells per (depot, t) node
        inner = [(g.variables[i], tail // per_node, head // per_node, z)
                 for i, tail, head, z in g.edges if head < len(g.cells)]
        sup = [(g.cells[c][1], c // per_node, mass) for c, mass in g.mass.items() if mass > 0]
        dem = [(g.cells[c][1], c // per_node, -mass) for c, mass in g.mass.items() if mass < 0]
        self.networks = []
        for k, load in g.loads.items():
            arcs = [(u, w, z, v.upper_bound, load) for v, u, w, z in inner if v.commodity == k]
            self.networks.append(_Network(
                g.nodes, arcs,
                [(n, mass // load) for c, n, mass in sup if c == k],
                [(n, mass // load) for c, n, mass in dem if c == k],
                sum(mass for c, _, mass in sup if c == k) // load))
        merged: dict[int, list] = {}       # z: [u, w, z, ub mass, 1]
        for v, u, w, z in inner:
            merged.setdefault(z, [u, w, z, 0, 1])[3] += v.upper_bound * g.loads[v.commodity]
        self.networks.append(_Network(
            g.nodes, merged.values(),
            [(n, mass) for _, n, mass in sup],
            [(n, mass) for _, n, mass in dem],
            sum(mass for _, _, mass in sup)))

    def feasible(self, cap_mass: dict[int, int], parent_flows: list | None,
                 key: int | None) -> list | None:
        """cap_mass: available mass per vehicle variable, that is per (arc,
        departure t).  Returns one residual list per network when every
        network meets its demand, else None.  `parent_flows` are the parent
        node's residual lists and `key` the only vehicle variable whose
        cap_mass differs from the parent's (both None at the root); each
        network repairs its parent's flow (`_Network.solve`)."""
        flows = []
        for i, net in enumerate(self.networks):
            res = net.solve(cap_mass, None if parent_flows is None else parent_flows[i], key)
            if res is None:
                return None
            flows.append(res)
        return flows


class _Expired(Exception):
    """The exact search's time limit passed before it finished."""


def find_feasible_flows(g: _Graph, cap_mass: dict[int, int],
                        deadline: float = math.inf) -> dict[int, int] | None:
    """Exact integral commodity flows within the vehicle capacities `cap_mass`, or None.

    Depth-first search over (time, depot, commodity) cells: everything
    present at a cell must depart the same step, split over the outgoing
    flow variables without exceeding per-variable bounds or the remaining
    shared vehicle capacity on each (arc, t).  Every unit must end at a
    demand, so no variable takes more units than its destination cell can
    still absorb: `_absorb_bounds` under the fixed capacities, less the
    units already arriving there.  That cuts only subtrees without a
    completion, so the first completion found is the one the bare
    enumeration finds.

    The clock is read on the first `distribute` call and every 256th after
    it; past `deadline` (a `time.perf_counter` value) the search gives up
    and raises `_Expired`, so an unfinished completion never reads as None.
    """
    cap_left = dict(cap_mass)
    absorb = _absorb_bounds(g, cap_left)
    incoming = [0] * len(g.cells)
    chosen: dict[int, int] = {}
    calls = 0

    def room(i: int, z: int, load: int) -> int:
        return min(g.variables[i].upper_bound, cap_left[z] // load)

    def distribute(c: int, options: list, units: int, load: int) -> bool:
        nonlocal calls
        if not calls & 255 and time.perf_counter() > deadline:
            raise _Expired
        calls += 1
        if not options:
            return units == 0 and advance(c + 1)
        (i, _, head, z), rest = options[0], options[1:]
        cap_units = min(room(i, z, load), absorb[head] - incoming[head] // load)
        lo = max(0, units - sum(room(j, y, load) for j, _, _, y in rest))
        for take in range(lo, min(cap_units, units) + 1):
            if take:
                chosen[i] = take
                cap_left[z] -= take * load
                incoming[head] += take * load
            if distribute(c, rest, units - take, load):
                return True
            if take:
                chosen.pop(i)
                cap_left[z] += take * load
                incoming[head] -= take * load
        return False

    def advance(first: int) -> bool:
        """Distribute the units present at cell `first` and every later cell."""
        for c in range(first, len(g.cells)):
            load = g.loads[g.cells[c][1]]
            available = incoming[c] + g.mass.get(c, 0)
            if available < 0:
                return False
            if available:
                return distribute(c, g.out[c], available // load, load)
        return True

    try:
        return chosen if advance(0) else None
    finally:
        del distribute, advance   # they refer to each other: free them on return


def _require_finite_objective(model: Model) -> None:
    """Raise ModelError when `choose_alpha`, one more than the objective at
    the vehicle bounds, overflows a float: an inf cost never beats the empty
    incumbent, so a feasible model would read as infeasible."""
    if not math.isfinite(choose_alpha(model)):
        raise ModelError("arc costs too large: the objective over the vehicle bounds "
                         "overflows a float")


def _exact_result(best: Assignment | None, objective: float, nodes: int, start: float,
                  timed_out: bool = False) -> ExactResult:
    """An exact back-end's result: `best` is the best point found, of cost
    `objective`, or None when there is none; the wall time runs from `start`."""
    wall = time.perf_counter() - start
    sample = None if best is None else Sample(assignment=best, energy=objective,
                                              objective=objective, feasible=True,
                                              restart_index=0, wall_time=wall)
    status = "time_limit" if timed_out else "infeasible" if best is None else "optimal"
    return ExactResult(status=status, sample=sample, nodes=nodes, wall_time=wall)


def solve_exact(model: Model, time_limit: float = 300.0) -> ExactResult:
    """Depth-first branch-and-bound over vehicle variables.

    Branches the most expensive arcs first and tries smaller counts first.
    A node is its depth and `cap_mass`, the mass each vehicle variable can
    carry: capacity times its count, or times its search cap while unbranched.
    Internal nodes are pruned by a demand-cut cost bound and the max-flow
    relaxations, and leaves are completed by find_feasible_flows.  Branching
    dearest first leaves a demand depot's open in-arcs a suffix of its list,
    so the demand cut reads only the branched prefix.  The clock is read at
    every node and inside each leaf completion.  Each node hands its
    relaxation flows to its children, and a child repairs each network's
    flow where the one arc edge of the (arc, t) just branched on carries
    more than the new vehicle count allows (`_Network.solve`), so every
    verdict equals a solve from scratch.  Returns a provably optimal sample
    or an explicit infeasible result.  When the time limit expires it returns
    the incumbent flagged uncertified or, with none, the annealer's start
    point (`_start_point`) if it verifies; that point never prunes, so a
    search that completes is unchanged by it.  Raises ModelError when the
    objective overflows (`_require_finite_objective`) or two flow variables
    share an (arc, commodity, t) (`_Network`), and SearchSpaceTooLargeError
    when the search recurses deeper than the interpreter's recursion limit.
    """
    _require_finite_objective(model)
    start = time.perf_counter()
    deadline = start + time_limit
    g = _Graph(model)
    capacity = g.capacity
    relax = _FlowRelaxation(g)
    caps = _vehicle_search_caps(g)
    cost_of = dict(model.objective)

    branch_vars = sorted(filter(caps.get, caps), key=lambda z: (-cost_of.get(z, 0.0), z))

    # per demand depot: vehicles required, in-arc (branch depth, vehicle
    # variable) pairs, their summed search caps and cheapest cost; branching
    # dearest first leaves the open pairs a suffix, which holds the cheapest
    demand_mass = {}
    for c, mass in g.mass.items():
        if mass < 0:
            depot = g.cells[c][0]
            demand_mass[depot] = demand_mass.get(depot, 0) - mass
    demand_cuts = []
    for d, m in demand_mass.items():
        in_arcs = [(n, z) for n, z in enumerate(branch_vars) if g.variables[z].arc[1] == d]
        demand_cuts.append((-(-m // capacity), in_arcs, sum(caps[z] for _, z in in_arcs),
                            min((cost_of.get(z, 0.0) for _, z in in_arcs), default=math.inf)))

    cap_mass = {z: capacity * caps[z] for z in g.vehicles}
    best_cost = math.inf
    best: Assignment | None = None
    nodes = 0
    timed_out = False

    def cut_bound(depth: int, cost_so_far: float) -> float:
        """Lower bound, never below `cost_so_far`: every demand depot still
        needs enough vehicle arrivals to carry its total demanded mass."""
        bound = cost_so_far
        for req, in_arcs, open_caps, cheapest in demand_cuts:
            have = 0
            for branched_at, z in in_arcs:
                if branched_at >= depth:
                    break
                have += cap_mass[z] // capacity
                open_caps -= caps[z]
            short = req - have
            if short > 0:
                if short > open_caps:
                    return math.inf
                bound += short * cheapest
        return bound

    def dfs(depth: int, cost_so_far: float, parent_flows: list | None, changed: int | None):
        nonlocal best_cost, best, nodes
        nodes += 1
        if time.perf_counter() > deadline:
            raise _Expired
        if cut_bound(depth, cost_so_far) >= best_cost - 1e-9:
            return
        relax_flows = relax.feasible(cap_mass, parent_flows, changed)
        if relax_flows is None:
            return
        if depth == len(branch_vars):
            flows = find_feasible_flows(g, cap_mass, deadline)
            if flows is None:
                return
            flows.update((z, cap_mass[z] // capacity) for z in branch_vars)
            best_cost = cost_so_far
            best = Assignment(values=tuple(flows.get(i, 0) for i in range(len(model.variables))))
            return
        z = branch_vars[depth]
        cost = cost_of.get(z, 0.0)
        for value in range(0, caps[z] + 1):
            cap_mass[z] = capacity * value
            dfs(depth + 1, cost_so_far + cost * value, relax_flows, z)
        cap_mass[z] = capacity * caps[z]

    try:
        dfs(0, 0.0, None, None)
    except _Expired:
        timed_out = True
    except RecursionError:
        raise SearchSpaceTooLargeError(
            f"search over {len(branch_vars)} branched vehicle variables is too deep "
            "for the interpreter's recursion limit") from None
    finally:
        del dfs   # it refers to itself: free the search state on return
    if timed_out and best is None:
        start_point = Assignment(values=tuple(_start_point(g)[0]))
        report = verify_assignment(model, start_point)
        if report.feasible and not report.bound_findings:
            best = start_point
    objective = math.inf if best is None else evaluate_objective(model, best)
    return _exact_result(best, objective, nodes, start, timed_out)


def brute_force_oracle(model: Model, limit: int = 10**7) -> ExactResult:
    """Exhaustive enumeration over the full bound box; exists to certify
    solve_exact on tiny models and shares no search logic with it.  Raises
    ModelError when the objective overflows (`_require_finite_objective`) or
    when a row's terms could leave int64, in which the box is evaluated:
    the row's sum of |coefficient| * max(bound, 1), plus |rhs|, reaches
    2**63."""
    _require_finite_objective(model)
    import numpy as np   # before the clock starts, as in _Chain

    start = time.perf_counter()
    dims = [v.upper_bound + 1 for v in model.variables]
    space = math.prod(dims)
    if space > limit:
        raise SearchSpaceTooLargeError(f"search space {space} exceeds limit {limit}")
    for c in model.constraints:
        if abs(c.rhs) + sum(abs(a) * max(model.variables[i].upper_bound, 1)
                                 for i, a in c.terms) >= 2**63:
            raise ModelError(f"row {c.tag} too large for exhaustive enumeration: "
                             "its terms can reach 2**63")

    n = len(model.variables)
    m = len(model.constraints)
    A = np.zeros((m, n), dtype=np.int64)
    rhs = np.zeros(m, dtype=np.int64)
    is_eq = np.zeros(m, dtype=bool)
    for r, c in enumerate(model.constraints):
        for i, coef in c.terms:
            A[r, i] = coef
        rhs[r] = c.rhs
        is_eq[r] = c.relation == "eq"
    cost = np.zeros(n, dtype=np.float64)
    for i, c_val in model.objective:
        cost[i] = c_val

    best_obj = math.inf
    best = None
    chunk = 1 << 16
    for lo in range(0, space, chunk):
        hi = min(lo + chunk, space)
        flat = np.arange(lo, hi, dtype=np.int64)
        if n:
            X = np.stack(np.unravel_index(flat, dims), axis=1).astype(np.int64)
        else:
            X = np.zeros((hi - lo, 0), dtype=np.int64)
        R = X @ A.T - rhs
        ok = np.ones(hi - lo, dtype=bool)
        if m:
            ok &= (R[:, is_eq] == 0).all(axis=1)
            ok &= (R[:, ~is_eq] <= 0).all(axis=1)
        if not ok.any():
            continue
        obj = X @ cost
        obj[~ok] = math.inf
        j = int(np.argmin(obj))
        if obj[j] < best_obj - 1e-12:
            best_obj = float(obj[j])
            best = Assignment(values=tuple(int(v) for v in X[j]))
    return _exact_result(best, best_obj, space, start)


# --- simulated annealing -------------------------------------------------------

def anneal_sample(h: Hamiltonian, model: Model, params: AnnealParams | None = None,
                  seed: int = 0) -> SampleSet:
    """Restart-based simulated annealing over conservation-feasible flows.

    Each restart runs one Metropolis chain from the max-flow start point
    (`_start_point`); every proposal pushes one unit either way around a
    cycle drawn from `_flow_cycles`, and a move that would take a flow or a
    derived vehicle count out of its bounds is rejected.  The temperature
    cools geometrically from the dearest arc cost, where a one-vehicle rise
    on that arc is accepted with probability 1/e, to half the cheapest, and
    the sample is the lowest-objective point the chain visits, so the chain
    need not freeze to keep what it found.  When a commodity cannot be
    routed its flows start at zero, the sample is infeasible, and its energy
    adds `h.alpha` times the squared residuals of its verify report; nothing
    else is read from `h`.  The chain caches each move's objective change
    and recomputes it only after an accepted move that shares a variable
    with it (`_Chain.touches`); a recomputed change is summed over the
    move's edges in their fixed order, so the cache changes no float and
    no decision.  Each chain's random stream derives
    deterministically from (seed, restart index), and identical inputs
    reproduce the SampleSet exactly (timings excluded, see
    SampleSet.canonical_bytes).

    The restarts run side by side: restart r in worker r % workers, with
    workers = min(restarts, the CPUs that CPU affinity, such as `taskset`,
    leaves this process).  The caller forks workers 1 and up (`_serve`)
    and runs worker 0's restarts itself, with those of any worker the
    system refuses a pipe or a process for.  It raises a worker's failure
    as the worker's exception and reaps every worker on return and on
    raise.  The SampleSet is the same for any worker count, and each
    wall_time is still its own restart's time.  The speed of this policy
    was measured at 2 usable CPUs only: more workers, and a CPU quota that
    affinity does not show, are unverified.
    """
    if params is None:
        params = AnnealParams()
    alpha = h.alpha
    chain = _Chain(model)

    costs = [c for _, c in model.objective if c > 0]
    t_start = max(costs, default=1.0)
    t_end = min(costs, default=1.0) / 2
    cooling = (t_end / t_start) ** (1.0 / max(params.sweeps - 1, 1))

    def run(restarts: range) -> list[tuple]:
        """Each restart's (values, energy, objective, feasible, restart, wall time)."""
        rows = []
        for restart in restarts:
            t0 = time.perf_counter()
            assignment = Assignment(values=tuple(chain.run(params.sweeps, seed, restart,
                                                           t_start, cooling)))
            report = verify_assignment(model, assignment)
            objective = evaluate_objective(model, assignment)
            energy = objective + alpha * sum(r * r for r in report.residuals)
            # plain types, which marshal takes: a numpy cost makes these numpy's
            rows.append((assignment.values, float(energy), float(objective),
                         bool(report.feasible), restart, time.perf_counter() - t0))
        return rows

    workers = min(params.restarts, _usable_cpus())
    shares = [range(w, params.restarts, workers) for w in range(workers)]
    own, pids, reads = shares[:1], [], []
    try:
        for share in shares[1:]:
            read = write = None
            try:
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(write, reads + [read], run, share)
                pids.append(pid)
                reads.append(read)
            except OSError:   # no pipe or process to spare: the caller runs this share too
                if read is not None:
                    os.close(read)
                own.append(share)
            finally:
                if write is not None:
                    os.close(write)
        rows = [row for share in own for row in run(share)]
        payloads = []
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for read in reads:   # a worker still writing gets EPIPE and exits
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)
    for payload in payloads:
        rows += _received(payload)
    samples = sorted((Sample(Assignment(values=values), *rest) for values, *rest in rows),
                     key=lambda s: (s.energy, s.restart_index))
    return SampleSet(samples=tuple(samples), seed=seed, params=params)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where it can fork workers; else 1."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


def _serve(write: int, reads: list[int], run, restarts: range) -> NoReturn:
    """In a forked worker: marshal `run(restarts)`, or its failure, to the
    pipe end `write`, and end with `os._exit`, so no inherited stdio buffer,
    atexit hook or caller frame runs twice.  The inherited read ends `reads`
    are closed first: a worker holding its own would block on a full pipe
    once the caller stopped reading.  The collector stays off: the chain
    makes no cycles, and a collection would write to every page shared
    with the caller."""
    try:
        gc.disable()
        try:
            for fd in reads:
                os.close(fd)
            payload = marshal.dumps((True, run(restarts)))
        except Exception as exc:
            import pickle   # on failure only, so `import hamflow` does not load it
            try:
                error = pickle.dumps(exc)
            except Exception:   # one that will not pickle goes by its message
                error = b""
            payload = marshal.dumps((False, (error, f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _received(payload: bytes) -> list[tuple]:
    """The rows a worker wrote with `_serve`.  Its failure is raised here as
    the exception it raised, so a ModelError stays one for any worker
    count; one that does not pickle arrives as a RuntimeError with its
    message."""
    try:
        ok, body = marshal.loads(payload)
    except EOFError:   # empty or cut short
        raise RuntimeError("an annealer worker ended without writing its samples") from None
    if ok:
        return body
    error, message = body
    import pickle
    try:
        exc = pickle.loads(error)
    except Exception:
        exc = RuntimeError(f"annealer worker failed: {message}")
    raise exc


def _start_flows(g: _Graph) -> list[int]:
    """A conservation-feasible integral flow, as a full value list with every
    vehicle count at zero: each commodity's max-flow network of
    `_FlowRelaxation`, solved with every vehicle variable at its bound.  A
    commodity that cannot be routed keeps zero flows."""
    cap_mass = {z: g.capacity * g.variables[z].upper_bound for z in g.vehicles}
    values = [0] * len(g.variables)
    for k, net in zip(g.loads, _FlowRelaxation(g).networks):
        res = net.solve(cap_mass)
        if res is None:
            continue
        for i, _, head, z in g.edges:   # net holds the edges of k within the horizon
            if head < len(g.cells) and g.variables[i].commodity == k:
                values[i] = res[net.edge_of[z] ^ 1]
    return values


def _start_point(g: _Graph) -> tuple[list[int], list[int]]:
    """The start flow of `_start_flows` with every vehicle count derived,
    the fewest vehicles that carry the mass on its (arc, t), and that mass
    per vehicle variable (0 at every flow variable)."""
    values = _start_flows(g)
    mass = [0] * len(g.variables)
    for i, _, _, z in g.edges:
        mass[z] += values[i] * g.loads[g.variables[i].commodity]
    for z in g.vehicles:
        values[z] = -(-mass[z] // g.capacity)
    return values, mass


_MAX_CYCLE_EDGES = 6


def _flow_cycles(g: _Graph) -> list[tuple[tuple[int, int], ...]]:
    """Every simple undirected cycle of at most `_MAX_CYCLE_EDGES` edges of
    `_Graph`, heads at T + 1 included, whose nodes are cells and whose edges
    are flow variables, so each cycle stays within one commodity.  A cycle is
    a tuple of (flow variable, +1 or -1): pushing one unit around it adds the
    sign to each variable, which leaves every cell's balance, and so every
    conservation row, unchanged."""
    cycles: list[tuple[tuple[int, int], ...]] = []
    adj: dict[int, list[tuple[int, int, int]]] = {}
    for i, tail, head, _ in g.edges:
        adj.setdefault(tail, []).append((i, head, 1))
        adj.setdefault(head, []).append((i, tail, -1))

    def extend(first: int, home: int, node: int, path: list, on_path: set):
        for i, nxt, sign in adj[node]:
            if i <= first:
                continue
            if nxt == home:
                cycles.append(tuple(path) + ((i, sign),))
            elif nxt not in on_path and len(path) + 1 < _MAX_CYCLE_EDGES:
                path.append((i, sign))
                on_path.add(nxt)
                extend(first, home, nxt, path, on_path)
                on_path.discard(nxt)
                path.pop()

    # each cycle once: from the tail of its lowest-indexed edge, along that edge
    try:
        for first, tail, head, _ in g.edges:
            extend(first, tail, head, [(first, 1)], {tail, head})
    finally:
        del extend   # it refers to itself: free it on return
    return cycles


class _Chain:
    """The annealer's tables for one model, built once per `anneal_sample`
    call.  Each vehicle variable z has a cost, a bound and the mass the start
    flow puts on its (arc, t); `start` holds the start flow with every
    vehicle count derived from that mass.  Move 2c + up pushes one unit
    around cycle c, along the cycle's orientation when up = 1 and against it
    when up = 0; `moves[m]` holds, per edge, (flow variable, unit change,
    vehicle variable, mass change), decreasing edges first, since a flow at
    zero is what rejects most moves.  `touches[m]` lists every move that
    shares a flow or vehicle variable with move m, m and its reverse
    included: the moves whose objective change an accepted m can alter."""

    def __init__(self, model: Model):
        g = _Graph(model)
        self.capacity = g.capacity
        self.ub = [v.upper_bound for v in g.variables]
        self.cost = [0.0] * len(g.variables)
        for z, cost in model.objective:
            self.cost[z] = cost
        self.start, self.mass = _start_point(g)
        edge = {i: (z, g.loads[g.variables[i].commodity]) for i, _, _, z in g.edges}
        self.moves = [
            tuple(sorted(((i, d * s, edge[i][0], d * s * edge[i][1]) for i, s in cycle),
                         key=lambda e: e[1]))
            for cycle in _flow_cycles(g) for d in (-1, 1)]
        on_var: dict[int, list[int]] = {}
        for m, move in enumerate(self.moves):
            for i, _, z, _ in move:
                on_var.setdefault(i, []).append(m)
                on_var.setdefault(z, []).append(m)
        self.touches = [sorted({k for i, _, z, _ in move for k in on_var[i] + on_var[z]})
                        for move in self.moves]
        self.n_flows = len(g.edges)
        import numpy as np   # here, not in run, so that no sample's wall time holds it

        self.default_rng = np.random.default_rng

    def run(self, sweeps: int, seed: int, restart: int, t_start: float,
            cooling: float) -> list[int]:
        """One Metropolis chain of `sweeps` sweeps, each proposing one cycle
        move per flow variable: the flows and derived vehicle counts of the
        lowest-objective point it visits.

        A move's objective change, or None when it would take a flow or a
        derived vehicle count out of its bounds, depends only on the
        variables of its edges, so it is cached per move and recomputed only
        after an accepted move in its `touches` list.  The change is summed
        over the move's edges in their fixed order, so a cached value is the
        float a fresh walk of the edges would give."""
        cap = self.capacity
        values = self.start.copy()
        mass = self.mass.copy()
        best_values = values.copy()
        moves, touches, ub, cost = self.moves, self.touches, self.ub, self.cost
        if moves:
            rng = self.default_rng([seed, restart])
            exp = math.exp
            stale = _STALE
            cache = [stale] * len(moves)
            temperature = t_start
            objective = best_objective = 0.0   # relative to the start
            for picks, accept_draws in _sweep_draws(rng, self.n_flows, sweeps, len(moves) // 2):
                for m, accept in zip(picks, accept_draws):
                    d_obj = cache[m]
                    if d_obj is stale:
                        d_obj = 0.0
                        for i, dx, z, dm in moves[m]:
                            nv = values[i] + dx
                            if nv < 0 or nv > ub[i]:
                                d_obj = None
                                break
                            nz = -(-(mass[z] + dm) // cap)
                            if nz > ub[z]:
                                d_obj = None
                                break
                            d_obj += cost[z] * (nz - values[z])
                        cache[m] = d_obj
                    # no division: the temperature may underflow to zero
                    if d_obj is None or d_obj > 0 and (d_obj > 700 * temperature
                                                       or accept >= exp(-d_obj / temperature)):
                        continue
                    for i, dx, z, dm in moves[m]:
                        values[i] += dx
                        mass[z] += dm
                        values[z] = -(-mass[z] // cap)
                    for k in touches[m]:
                        cache[k] = stale
                    objective += d_obj
                    if objective < best_objective - 1e-9:
                        best_objective = objective
                        best_values = values.copy()
                temperature *= cooling
        return best_values


_STALE = object()   # a cached objective change that an accepted move may have altered
_BLOCK_SWEEPS = 32   # sweeps decoded per raw read; larger blocks cost memory, not time
_U32 = 0xFFFFFFFF


def _lemire_threshold(bound: int) -> int:
    """numpy's bounded draw of a uint32 u rejects u when (u * bound) mod 2**32
    falls below this value and draws again."""
    return (2**32 - bound) % bound


def _sweep_draws(rng: np.random.Generator, n: int, sweeps: int, n_moves: int):
    """Yield, for each sweep, the move indices `2 * int(pick * n_moves) + up`
    and the list `accept`, where `rng.integers(0, n, n)`,
    `up = rng.integers(0, 2, n)`, `pick = rng.random(n)` and
    `accept = rng.random(n)` are called in that order, and leave `rng` where
    those four calls would.  The first call's draws are consumed but never
    decoded: the chain does not read them.  `n_moves` counts cycles, each
    the two moves 2c and 2c + 1.

    numpy's PCG64 hands out 64-bit words.  A bounded draw takes a uint32
    (the low half of a word first, then its high half) and returns
    (u * bound) >> 32 unless Lemire's rejection test fires; a double is
    (w >> 11) * 2**-53.  So a sweep's 3n words hold, in order, 2n uint32
    for the two bounded draws and 2n doubles, and a block of sweeps can be
    read with one `random_raw` call and decoded with a few array operations;
    `pick * n_moves` is the same IEEE product in numpy as in Python, and
    casting it to an integer truncates it as `int` does.
    The decode is exact only while no variable draw is rejected (about
    22 in 2**32 draws at n = 54; a bound of 2 never rejects): on a
    rejection the generator is reset to the block's start and the rest of
    the chain uses the four calls, because after a rejection numpy may hold
    half a word in its uint32 buffer.  n == 1 uses them throughout, since a
    bound of 1 reads no words.  TestAnnealStream pins the result.
    """
    import numpy as np

    bitgen = rng.bit_generator
    threshold = _lemire_threshold(n)
    done = 0
    while n > 1 and done < sweeps:
        block = min(_BLOCK_SWEEPS, sweeps - done)
        start = bitgen.state
        raw = bitgen.random_raw(3 * n * block).reshape(block, 3 * n)
        words = raw[:, :n]
        u32 = np.stack((words & _U32, words >> 32), axis=-1).reshape(block, 2 * n)
        scaled = u32[:, :n] * n
        if ((scaled & _U32) < threshold).any():
            bitgen.state = start
            break
        doubles = (raw[:, n:] >> 11) * 2.0**-53
        picks = (doubles[:, :n] * n_moves).astype(np.uint64) * 2 + (u32[:, n:] >> 31)
        yield from zip(picks.tolist(), doubles[:, n:].tolist())
        done += block
    for _ in range(sweeps - done):
        rng.integers(0, n, size=n)
        ups = rng.integers(0, 2, size=n).tolist()
        picks = rng.random(size=n).tolist()
        yield ([2 * int(pick * n_moves) + up for up, pick in zip(ups, picks)],
               rng.random(size=n).tolist())


def summarize_samples(s: SampleSet) -> SummaryStats:
    if not s.samples:
        raise ValueError("empty sample set")
    energies = sorted(x.energy for x in s.samples)
    k = len(energies)
    median = energies[k // 2] if k % 2 else 0.5 * (energies[k // 2 - 1] + energies[k // 2])
    return SummaryStats(
        best_energy=energies[0],
        median_energy=median,
        worst_energy=energies[-1],
        feasible_fraction=sum(1 for x in s.samples if x.feasible) / k,
        mean_wall_time=ordered_sum(x.wall_time for x in s.samples) / k,
        bins=tuple(energy_histogram([x.energy for x in s.samples])),
    )


_HISTOGRAM_BINS = 20


def energy_histogram(energies: list[float]) -> list[tuple[float, float, int]]:
    """`_HISTOGRAM_BINS` fixed-width bins spanning the observed range; a zero
    range degenerates to a unit span centered on the value (wider where the
    value's float spacing needs it) so exactly one bin is occupied."""
    lo, hi = min(energies), max(energies)
    if hi == lo:
        pad = max(0.5, _HISTOGRAM_BINS * math.ulp(lo))
        lo, hi = lo - pad, hi + pad
    width = (hi - lo) / _HISTOGRAM_BINS
    counts = [0] * _HISTOGRAM_BINS
    for e in energies:
        counts[min(int((e - lo) / width), _HISTOGRAM_BINS - 1)] += 1
    return [(lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(_HISTOGRAM_BINS)]
