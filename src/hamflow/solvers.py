"""Classical back-ends: exact branch-and-bound, exhaustive enumeration for
tiny models, and a restart-based simulated annealer mirroring the sampling
workflow of the target annealing hardware.  Each builds one
`expansion.Graph` per call and hands it to its helpers.

The branch-and-bound searches vehicle counts only; commodity flows are
completed at the leaves by an exact integral-flow search, which gives no
flow variable more units than its destination can pass on to demands.  Two
necessary relaxations prune internal nodes: a per-commodity max-flow over
the time-expanded graph (timing) and a merged-mass max-flow (joint
capacity).  Their networks are built once per solve; a node changes only
the capacities of the arc edges of the one vehicle it branched on, so it
keeps its parent's flow wherever that flow still fits and elsewhere repairs
it.  The search tests the fit itself and hands a repair the edge and its
excess, which the repair reroutes: it pushes it from the edge's tail to
its head along residual paths, each unit taken off the edge, so the flow
value never drops.  A feasible child's flow differs from its parent's by a
circulation that runs against that edge, so the reroute moves the whole
excess exactly when the child is feasible (Ahuja, Magnanti & Orlin,
*Network Flows*, 1993, ch. 7).  A flow handed down unrepaired keeps
the residual capacities it was solved under, so each flow carries the
depth at which it was last solved, and a repair re-derives the residual
capacities of the arc edges of the vehicles branched since then only;
every other arc edge's is already exact.  A reroute that cannot move the
whole excess proves the child infeasible: the nodes its last search
reached from the tail are the source side of a minimum cut of capacity
below the demand (Ford & Fulkerson, 1956), the one a solve from the
empty flow finds, and each network keeps it as a learned nogood, stored
under every vehicle whose arc edge it crosses.
Before repairing, the search evaluates the cuts stored under the one
vehicle the child branched on, in place, the one that last proved a
child infeasible first; one below the demand proves it infeasible.
Those are the only cuts that can: the parent was feasible, so every cut
held the demand at the parent's capacities, and a cut that falls short
at the child's must cross an edge whose capacity changed.

Both searches run on explicit stacks, not on the interpreter's, so no
model is too deep for them: a search ends optimal, infeasible or at its
time limit.  Besides its stack, the leaf completion keeps one cursor (the
cell being split, its options, the next option and the units left), and
the branch-and-bound solves the root's relaxation networks before its
node loop.  A node's fit test and demand-cut bound are done in place:
it reads its parent's flow on the one arc edge it changed, and keeps each
demand depot's shortfall as counts are set and undone (`solve_exact`).
A search that reaches its time limit returns the cheaper verified point
of its incumbent and the annealer's start point, uncertified.

The annealer walks conservation-feasible flows only.  Each restart starts
from a max-flow solution of every commodity's time-expanded graph (the
per-commodity networks of `_relaxation` with every (arc, t) open to its
vehicle bound, `_start_point`), and its one move pushes a unit around a cycle of at most six edges
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
sample's wall time is still its own restart's time.  A share of restarts
whose worker raised, died or could not be started runs in the caller, so a
failure is raised there as its own exception and a lost worker costs time,
not samples.

numpy is imported inside `brute_force_oracle`, `_Chain` and `_sweep_draws`
only, so commands that never anneal or enumerate do not load it.
"""

from __future__ import annotations

import gc
import marshal
import math
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NoReturn

from .expansion import (
    Assignment,
    FeasibilityReport,
    Graph,
    Model,
    ModelError,
    _require_length,
    absorb_bounds,
    evaluate_objective,
    vehicle_caps,
    verify_assignment,
)
from .hamiltonian import Hamiltonian, choose_alpha
from .instance import HamflowError, ordered_sum


_BRUTE_FORCE_LIMIT = 10**7   # points in the largest bound box brute_force_oracle enumerates


class SearchSpaceTooLargeError(HamflowError):
    """brute_force_oracle's bound box holds more than _BRUTE_FORCE_LIMIT points."""


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
    Raises verify_assignment's ValueError when `a` does not hold one value
    per model variable.
    """
    _require_length(model, a)
    values = list(a.values)
    for i, _, _, z in Graph(model).edges:
        if a.values[z] == 0:
            values[i] = 0
    adjusted = Assignment(values=tuple(values))
    return adjusted, verify_assignment(model, adjusted)


# --- exact search -------------------------------------------------------------

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
              edge: int | None = None, excess: int = 0,
              changed: Iterable[int] = ()) -> list[int] | None:
        """A flow of `need` units within the capacities of `cap_mass`, as a
        residual list, or None when none exists (the max-flow verdict).

        With `res` None the search starts from the empty flow, and every arc
        edge's residual capacity is derived from `cap_mass`: every key counts
        as changed.  Otherwise `res` holds `need` units within capacities
        that differ from `cap_mass` only on the arc edge `edge`, which
        carries `excess` > 0 units more than its new capacity, and a copy is
        repaired.  First the residual capacity of each arc edge whose key
        is in `changed` is re-derived from `cap_mass`; `changed` must hold
        every key whose capacity differs from the one `res`'s residual
        capacities were last derived under, `edge`'s among them, so every
        other arc edge's residual capacity is already exact.  Then the
        excess is rerouted: pushed from the edge's tail to its head along
        residual paths, each unit taken off the edge, so the flow value
        stays `need`.  The edge's residual capacity is negative while an
        excess remains, so no path runs along it, and each search stops at
        the head, so none runs back along its reverse.  A child with a flow
        of `need` units differs from `res` by a circulation that runs
        against the edge, so the reroute moves the whole excess exactly
        when the child is feasible.

        The solve and the repair run one Edmonds-Karp loop: shortest
        residual paths from the source to the sink for `need` units, or from
        the tail to the head for the excess.  When a search finds no path,
        the nodes it reached are the source side S of a minimum cut below
        `need`, and that cut is learned (`_learn`).  From the source, its
        capacity is the flow so far.  From the tail, S holds the source,
        since the reverse residuals of the flow into the tail lead back to
        it, and not the sink, since every sink edge is saturated; no
        residual edge leaves S, so at the child its capacity is `need` less
        the excess left.  Cancelling that excess would change no edge that
        leaves S, and the set a maximum flow reaches from the source is the
        same for every maximum flow, so a repair learns the cut a solve from
        the empty flow would.  The caller evaluates the learned cuts
        (`solve_exact`); a certificate is a proof, so the verdict is still
        the max-flow verdict."""
        arcs, edge_of = self.arcs, self.edge_of
        if res is None:
            res, changed = self.base.copy(), edge_of
            start, end, left = self.source, self.sink, self.need
        else:
            res, start, end, left = res.copy(), self.head[edge ^ 1], self.head[edge], excess
        for k in changed:
            e = edge_of.get(k)
            if e is not None:
                _, ub, load = arcs[e >> 1]
                units = cap_mass[k] // load
                res[e] = (ub if ub < units else units) - res[e + 1]
        while left:
            parent, reached = self._search(res, start, end)
            if parent[end] == -1:
                self._learn(reached, parent)
                return None
            push = self._push(res, parent, start, end, left)
            left -= push
            if edge is not None:    # each unit rerouted is taken off the edge
                res[edge] += push
                res[edge ^ 1] -= push
        return res

    def _search(self, res: list[int], start: int, end: int) -> tuple[list[int], list[int]]:
        """Breadth-first search of the residual network from `start`, which
        stops once `end` is labelled: per node the edge that labelled it (-1
        unlabelled, -2 at `start`), and the labelled nodes in order."""
        adj, head = self.adj, self.head
        parent = [-1] * len(adj)
        parent[start] = -2
        queue = [start]
        for u in queue:          # the list grows while it is read
            for e in adj[u]:
                v = head[e]
                if parent[v] == -1 and res[e] > 0:
                    parent[v] = e
                    queue.append(v)
            if parent[end] != -1:
                break
        return parent, queue

    def _push(self, res: list[int], parent: list[int], start: int, end: int,
              most: int) -> int:
        """Push up to `most` units along the path `parent` holds from
        `start` to `end`, as many as its tightest edge passes, and return
        them."""
        head = self.head
        v = end
        while v != start:
            e = parent[v]
            if res[e] < most:
                most = res[e]
            v = head[e ^ 1]
        v = end
        while v != start:
            e = parent[v]
            res[e] -= most
            res[e ^ 1] += most
            v = head[e ^ 1]
        return most

    def _learn(self, reached: list[int], parent: list[int]) -> None:
        """Store the minimum cut of a failed solve: S is the set `reached`
        by its last search in the residual network, whose `parent` entries
        are set.  The cut is the fixed capacity of the source and sink edges
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


def _relaxation(g: Graph) -> list[_Network]:
    """The max-flow relaxation of a vehicle assignment, as networks keyed by
    vehicle variable: one per commodity in `g.loads` order (timing), then
    one merged-mass network with all commodities pooled (joint capacity).
    Each is a necessary condition for flows within the vehicle capacities."""
    per_node = len(g.loads)       # cells per (depot, t) node
    inner = [(g.variables[i], tail // per_node, head // per_node, z)
             for i, tail, head, z in g.edges if head < len(g.cells)]
    sup = [(g.cells[c][1], c // per_node, mass) for c, mass in g.mass.items() if mass > 0]
    dem = [(g.cells[c][1], c // per_node, -mass) for c, mass in g.mass.items() if mass < 0]
    networks = []
    for k, load in g.loads.items():
        arcs = [(u, w, z, v.upper_bound, load) for v, u, w, z in inner if v.commodity == k]
        networks.append(_Network(
            g.nodes, arcs,
            [(n, mass // load) for c, n, mass in sup if c == k],
            [(n, mass // load) for c, n, mass in dem if c == k],
            sum(mass for c, _, mass in sup if c == k) // load))
    merged: dict[int, list] = {}       # z: [u, w, z, ub mass, 1]
    for v, u, w, z in inner:
        merged.setdefault(z, [u, w, z, 0, 1])[3] += v.upper_bound * g.loads[v.commodity]
    networks.append(_Network(
        g.nodes, merged.values(),
        [(n, mass) for _, n, mass in sup],
        [(n, mass) for _, n, mass in dem],
        sum(mass for _, _, mass in sup)))
    return networks


class _Expired(Exception):
    """The exact search's time limit passed before it finished."""


def find_feasible_flows(g: Graph, cap_mass: dict[int, int],
                        deadline: float = math.inf) -> dict[int, int] | None:
    """Exact integral commodity flows within the vehicle capacities `cap_mass`, or None.

    Depth-first search over (time, depot, commodity) cells: everything
    present at a cell must depart the same step, split over the outgoing
    flow variables without exceeding per-variable bounds or the remaining
    shared vehicle capacity on each (arc, t).  Every unit must end at a
    demand, so no variable takes more units than its destination cell can
    still absorb: `absorb_bounds` under the fixed capacities, less the
    units already arriving there.  That cuts only subtrees without a
    completion, so the first completion found is the one the bare
    enumeration finds.

    The search runs on an explicit stack, one frame per flow variable given
    its units (cell, option position, units left before it, its take, its
    largest take), and one cursor: the cell being split, its options, the
    next option and the units left.  Each step gives that option its
    smallest take; or, past the last option with no units left, opens the
    next cell holding mass, returning the completion when none does; or
    backtracks, when the take would pass its largest, units are left over
    or the opened cell demands more than arrives.  A backtrack moves the top
    frame to its next take, popping the frames that have none left, so no
    model is too deep for it.  The clock is read on the first step and
    every 256th after it, and past `deadline` (a `time.perf_counter` value)
    the search gives up and raises `_Expired`, so an unfinished completion
    never reads as None.
    """
    cells, out, mass, loads, variables = g.cells, g.out, g.mass, g.loads, g.variables
    cap_left = dict(cap_mass)
    absorb = absorb_bounds(g, cap_left)
    incoming = [0] * len(cells)
    chosen: dict[int, int] = {}
    stack: list[list[int]] = []   # [cell, option, units left before it, take, largest take]
    steps = 0
    c, options, j, units = -1, (), 0, 0   # the cursor: before the first cell
    while True:
        if not steps & 255 and time.perf_counter() > deadline:
            raise _Expired
        steps += 1
        if j < len(options):   # give option j its smallest take
            i, _, head, z = options[j]
            room = min(variables[i].upper_bound, cap_left[z] // load)
            most = min(room, absorb[head] - incoming[head] // load, units)
            take = max(0, units - sum(min(variables[k].upper_bound, cap_left[y] // load)
                                      for k, _, _, y in options[j + 1:]))
            if take <= most:
                stack.append([c, j, units, take, most])
                if take:
                    chosen[i] = take
                    cap_left[z] -= take * load
                    incoming[head] += take * load
                j, units = j + 1, units - take
                continue
        elif not units:        # cell c is split: open the next cell holding mass
            for c in range(c + 1, len(cells)):
                available = incoming[c] + mass.get(c, 0)
                if available:
                    break
            else:
                return chosen
            load = loads[cells[c][1]]
            options, j, units = out[c], 0, available // load
            if units > 0:
                continue
        # backtrack: the deepest frame with a larger take left takes it
        while stack:
            frame = stack[-1]
            c, j, units, take, most = frame
            options = out[c]
            i, _, head, z = options[j]
            load = loads[cells[c][1]]
            if take:
                chosen.pop(i)
                cap_left[z] += take * load
                incoming[head] -= take * load
            if take < most:
                take += 1
                frame[3] = take
                chosen[i] = take
                cap_left[z] -= take * load
                incoming[head] += take * load
                j, units = j + 1, units - take
                break
            stack.pop()
        else:
            return None


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
    The search runs on an explicit stack, one frame per internal node on
    the current path (depth, cost so far, relaxation flows, their solve
    depths, next count), so no model is too deep for it.
    Internal nodes are pruned by a demand-cut cost bound and the max-flow
    relaxation's networks (`_relaxation`), and leaves are completed by
    find_feasible_flows.  The networks are solved from the empty flow
    before the node loop, up to the first that fails, so a node's
    relaxation step is only a child's fit test.

    The demand cut is kept incrementally: per demand depot, the vehicles
    still short of its demand and the search caps of its unbranched
    in-arcs change when a branch variable takes a count and are restored
    when its frame pops, and the bound sums the depots in a fixed order, so
    each node's bound is the float a fresh sum gives.  The fit test is
    inline: each node hands its relaxation flows to its children, and a
    child compares the parent's flow on the arc edge of the (arc, t) just
    branched on with its new capacity in each network that holds that
    edge.  Where the flow does not fit, the child evaluates that network's
    cuts learned across the edge in place, and one below the network's
    demand prunes it with no call; only when none does is the flow
    repaired (`_Network.solve`, handed the edge and its excess), and the
    flow list is copied only then, so every verdict equals a solve from
    scratch.  The repair re-derives residual capacities only on the arc
    edges of the variables branched since that network's flow was last
    solved, and reroutes the excess around the branched edge; a reroute
    that cannot move all of it proves the child infeasible, and its last
    search gives the learned cut.  The clock is read at every node and
    inside each leaf completion.

    Returns a provably optimal sample or an explicit infeasible result.
    When the time limit expires it returns, uncertified, the cheaper of the
    incumbent and the annealer's start point (`_start_point`), the
    incumbent on a tie; the start point counts only if it verifies, and it
    never prunes, so a search that completes is unchanged by it.  Raises
    ModelError when the objective overflows (`_require_finite_objective`)
    or two flow variables share an (arc, commodity, t) (`_Network`), and
    ValueError when `time_limit` is negative or NaN; inf means no limit.
    """
    if not time_limit >= 0:    # NaN compares false, so it lands here too
        raise ValueError(f"time_limit must be a non-negative number of seconds, "
                         f"got {time_limit}")
    _require_finite_objective(model)
    start = time.perf_counter()
    deadline = start + time_limit
    g = Graph(model)
    capacity = g.capacity
    networks = _relaxation(g)
    caps = vehicle_caps(g)
    cost_of = dict(model.objective)

    branch_vars = sorted(filter(caps.get, caps), key=lambda z: (-cost_of.get(z, 0.0), z))

    costs = [cost_of.get(z, 0.0) for z in branch_vars]
    # per branch depth: (network index, network, arc edge, ub, load, need,
    # learned cuts) of each network that holds the arc edge of the vehicle
    # variable branched there; the cut list is the one `_learn` extends
    fits = [[(n, net, net.edge_of[z], *net.arcs[net.edge_of[z] >> 1][1:], net.need,
              net.cuts.setdefault(z, []))
             for n, net in enumerate(networks) if z in net.edge_of]
            for z in branch_vars]

    # per demand depot: vehicles still short (the required count less the
    # counts branched so far on its in-arcs), the search caps of its
    # unbranched in-arcs and their cheapest cost, which branching dearest
    # first leaves unbranched longest
    demand_mass = {}
    for c, mass in g.mass.items():
        if mass < 0:
            depot = g.cells[c][0]
            demand_mass[depot] = demand_mass.get(depot, 0) - mass
    short, open_caps, cheapest = [], [], []
    depot_at = [-1] * len(branch_vars)    # per branch depth: its demand depot, or -1
    for p, (d, m) in enumerate(demand_mass.items()):
        in_arcs = [n for n, z in enumerate(branch_vars) if g.variables[z].arc[1] == d]
        for n in in_arcs:
            depot_at[n] = p
        short.append(-(-m // capacity))
        open_caps.append(sum(caps[branch_vars[n]] for n in in_arcs))
        cheapest.append(min((costs[n] for n in in_arcs), default=math.inf))
    depots = range(len(short))

    cap_mass = {z: capacity * caps[z] for z in g.vehicles}
    best_cost = math.inf
    best: Assignment | None = None
    nodes = 0
    timed_out = False

    flows = []   # the root's relaxation flows, or None when one network fails
    for net in networks:
        flows.append(net.solve(cap_mass))
        if flows[-1] is None:
            flows = None
            break

    # One frame per internal node on the path: [depth, cost so far, relaxation
    # flows, their solve depths, next vehicle count].  A node is visited as
    # (depth, cost_so_far, flows, solved), `flows` being its parent's
    # relaxation flows (the root's own at the root) and solved[n] the depth at
    # which flows[n] was last solved or repaired: only the vehicle variables
    # branched since, branch_vars[solved[n]:depth], can have capacities
    # that differ from those its residual capacities were derived under.
    stack: list[list] = []
    depth, cost_so_far, solved = 0, 0.0, [0] * len(networks)
    try:
        while True:
            nodes += 1
            if time.perf_counter() > deadline:
                raise _Expired
            # the demand cut: every demand depot still needs enough vehicle
            # arrivals to carry its total demanded mass
            bound = cost_so_far
            for p in depots:
                if short[p] > 0:
                    if short[p] > open_caps[p]:
                        bound = math.inf
                        break
                    bound += short[p] * cheapest[p]
            if bound < best_cost - 1e-9:
                if depth:
                    # the max-flow relaxations: each network that holds the
                    # branched arc edge keeps its parent's flow when that edge's
                    # flow fits its new capacity; otherwise the cuts it learned
                    # across that edge are evaluated, and only when none falls
                    # below the demand is the excess rerouted
                    z = branch_vars[depth - 1]
                    copied = False
                    for n, net, edge, ub, load, need, cuts in fits[depth - 1]:
                        units = cap_mass[z] // load
                        excess = flows[n][edge ^ 1] - (ub if ub < units else units)
                        if excess <= 0:
                            continue
                        for i, (fixed, cut_arcs) in enumerate(cuts):
                            for k, k_ub, k_load in cut_arcs:
                                units = cap_mass[k] // k_load
                                fixed += k_ub if k_ub < units else units
                            if fixed < need:
                                if i:
                                    cuts.insert(0, cuts.pop(i))
                                flows = None
                                break
                        else:
                            res = net.solve(cap_mass, flows[n], edge, excess,
                                            branch_vars[solved[n]:depth])
                            if res is None:
                                flows = None
                        if flows is None:
                            break
                        if not copied:
                            flows, solved, copied = flows.copy(), solved.copy(), True
                        flows[n], solved[n] = res, depth
                if flows is not None:
                    if depth < len(branch_vars):
                        stack.append([depth, cost_so_far, flows, solved, 0])
                    else:
                        leaf = find_feasible_flows(g, cap_mass, deadline)
                        if leaf is not None:
                            leaf.update((z, cap_mass[z] // capacity) for z in branch_vars)
                            best_cost = cost_so_far
                            best = Assignment(values=tuple(leaf.get(i, 0)
                                                           for i in range(len(model.variables))))
            # the next node: the next count of the deepest frame with one left
            while stack:
                frame = stack[-1]
                n, cost_so_far, flows, solved, value = frame
                z = branch_vars[n]
                p = depot_at[n]
                if value > caps[z]:   # its last count, caps[z], left cap_mass as it was
                    stack.pop()
                    if p >= 0:
                        short[p] += caps[z]
                        open_caps[p] += caps[z]
                    continue
                frame[4] = value + 1
                cap_mass[z] = capacity * value
                if p >= 0:
                    if value:
                        short[p] -= 1
                    else:
                        open_caps[p] -= caps[z]
                depth, cost_so_far = n + 1, cost_so_far + costs[n] * value
                break
            else:
                break
    except _Expired:
        timed_out = True
        start_point = Assignment(values=tuple(_start_point(g)[0]))
        if verify_assignment(model, start_point).feasible and (
                best is None
                or evaluate_objective(model, start_point) < evaluate_objective(model, best)):
            best = start_point
    objective = math.inf if best is None else evaluate_objective(model, best)
    return _exact_result(best, objective, nodes, start, timed_out)


def brute_force_oracle(model: Model) -> ExactResult:
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
    if space > _BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLargeError(f"search space {space} exceeds limit {_BRUTE_FORCE_LIMIT}")
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
    and runs worker 0's restarts itself.  Each other share comes back as
    its worker's rows, or the caller runs it after its own: a worker that
    raises or dies writes nothing, and a share the system refuses a pipe
    or a process for has no worker.  So a failure recurs in the caller as
    its own exception, and every worker is reaped on return and on
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
    reads, pids = {}, []   # the read end of each share that has a worker, and the workers
    try:
        for share in shares[1:]:
            read = write = None
            try:
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(write, [*reads.values(), read], run, share)
                pids.append(pid)
                reads[share] = read
            except OSError:   # no pipe or process to spare: this share has no worker
                if read is not None:
                    os.close(read)
            finally:
                if write is not None:
                    os.close(write)
        rows = run(shares[0])
        for share in shares[1:]:
            payload = b""
            if share in reads:
                with open(reads[share], "rb", closefd=False) as pipe:
                    payload = pipe.read()
            try:
                back = marshal.loads(payload)
            except EOFError:   # no worker, or one that raised or died: nothing whole came back
                back = None
            rows += run(share) if back is None else back
    finally:
        for read in reads.values():   # a worker still writing gets EPIPE and exits
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)
    samples = sorted((Sample(Assignment(values=values), *rest) for values, *rest in rows),
                     key=lambda s: (s.energy, s.restart_index))
    return SampleSet(samples=tuple(samples), seed=seed, params=params)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where it can fork workers; else 1."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


def _serve(write: int, reads: list[int], run, restarts: range) -> NoReturn:
    """In a forked worker: marshal `run(restarts)` to the pipe end `write`,
    and end with `os._exit`, so no inherited stdio buffer, atexit hook or
    caller frame runs twice.  A failure writes nothing, and the caller runs
    the share itself.  The inherited read ends `reads` are closed first: a
    worker holding its own would block on a full pipe once the caller
    stopped reading.  The collector stays off: the chain makes no cycles,
    and a collection would write to every page shared with the caller."""
    try:
        gc.disable()
        for fd in reads:
            os.close(fd)
        payload = marshal.dumps(run(restarts))
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _start_point(g: Graph) -> tuple[list[int], list[int]]:
    """The annealer's start point, as a full value list, and the mass it
    puts on each vehicle variable's (arc, t) (0 at every flow variable).
    Its flows solve each commodity's network of `_relaxation` with every
    vehicle variable at its bound; a commodity that cannot be routed keeps
    zero flows.  Each vehicle count is the fewest vehicles that carry the
    mass on its (arc, t), so every capacity row holds."""
    cap_mass = {z: g.capacity * g.variables[z].upper_bound for z in g.vehicles}
    values = [0] * len(g.variables)
    mass = [0] * len(g.variables)
    for (k, load), net in zip(g.loads.items(), _relaxation(g)):
        res = net.solve(cap_mass)
        if res is None:
            continue
        for i, _, head, z in g.edges:   # net holds the edges of k within the horizon
            if head < len(g.cells) and g.variables[i].commodity == k:
                values[i] = res[net.edge_of[z] ^ 1]
                mass[z] += values[i] * load
    for z in g.vehicles:
        values[z] = -(-mass[z] // g.capacity)
    return values, mass


_MAX_CYCLE_EDGES = 6


def _flow_cycles(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Every simple undirected cycle of at most `_MAX_CYCLE_EDGES` edges of
    `Graph`, heads at T + 1 included, whose nodes are cells and whose edges
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
        g = Graph(model)
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
    """`_HISTOGRAM_BINS` fixed-width bins spanning the observed range; a
    range whose bin width is zero (one value, or fewer than
    `_HISTOGRAM_BINS` subnormal steps) degenerates to a unit span around it
    (wider where the value's float spacing needs it) so exactly one bin is
    occupied."""
    lo, hi = min(energies), max(energies)
    width = (hi - lo) / _HISTOGRAM_BINS
    if width == 0:
        pad = max(0.5, _HISTOGRAM_BINS * math.ulp(lo))
        lo, hi = lo - pad, hi + pad
        width = (hi - lo) / _HISTOGRAM_BINS
    counts = [0] * _HISTOGRAM_BINS
    for e in energies:
        counts[min(int((e - lo) / width), _HISTOGRAM_BINS - 1)] += 1
    return [(lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(_HISTOGRAM_BINS)]
