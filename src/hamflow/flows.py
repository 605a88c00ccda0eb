"""The max-flow code that the exact search (`solvers.solve_exact`) and the
annealer share, on the time-expanded network of `expansion.Graph`; it
imports from `expansion` only, never numpy or `solvers`.  The search's
leaves are completed by an exact integral-flow search
(`find_feasible_flows`), which gives no flow variable more units than its
destination can pass on to demands, and the annealer starts from
`start_point`: the per-commodity networks of `relaxation` solved with every
(arc, t) open to its vehicle bound.

A vehicle assignment has two necessary relaxations (`relaxation`): a
per-commodity max-flow over the time-expanded graph (timing) and a
merged-mass max-flow (joint capacity).  Their networks are built once per
solve; a node changes only the capacities of the arc edges of the one
vehicle it branched on, so it keeps its parent's flow wherever that flow
still fits and elsewhere repairs it.  The search tests the fit itself and
hands a repair the edge and its excess, which the repair reroutes: it
pushes it from the edge's tail to its head along residual paths, each unit
taken off the edge, so the flow value never drops.  A feasible child's flow
differs from its parent's by a circulation that runs against that edge, so
the reroute moves the whole excess exactly when the child is feasible
(Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 7).  A flow handed
down unrepaired keeps the residual capacities it was solved under, so each
flow carries the depth at which it was last solved, and a repair re-derives
the residual capacities of the arc edges of the vehicles branched since
then only; every other arc edge's is already exact.  A reroute that cannot
move the whole excess proves the child infeasible: the nodes its last
search reached from the tail are the source side of a minimum cut of
capacity below the demand (Ford & Fulkerson, 1956), the one a solve from
the empty flow finds, and each network keeps it as a learned nogood, stored
under every vehicle whose arc edge it crosses.  Before repairing, the
search evaluates the cuts stored under the one vehicle the child branched
on, in place, the one that last proved a child infeasible first; one below
the demand proves it infeasible.  Those are the only cuts that can: the
parent was feasible, so every cut held the demand at the parent's
capacities, and a cut that falls short at the child's must cross an edge
whose capacity changed.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable

from .expansion import Graph, ModelError, absorb_bounds


class Network:
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
        (`solvers.solve_exact`); a certificate is a proof, so the verdict is still
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


def relaxation(g: Graph) -> list[Network]:
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
        networks.append(Network(
            g.nodes, arcs,
            [(n, mass // load) for c, n, mass in sup if c == k],
            [(n, mass // load) for c, n, mass in dem if c == k],
            sum(mass for c, _, mass in sup if c == k) // load))
    merged: dict[int, list] = {}       # z: [u, w, z, ub mass, 1]
    for v, u, w, z in inner:
        merged.setdefault(z, [u, w, z, 0, 1])[3] += v.upper_bound * g.loads[v.commodity]
    networks.append(Network(
        g.nodes, merged.values(),
        [(n, mass) for _, n, mass in sup],
        [(n, mass) for _, n, mass in dem],
        sum(mass for _, _, mass in sup)))
    return networks


class Expired(Exception):
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
    the search gives up and raises `Expired`, so an unfinished completion
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
            raise Expired
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


def start_point(g: Graph) -> tuple[list[int], list[int]]:
    """The annealer's start point, as a full value list, and the mass it
    puts on each vehicle variable's (arc, t) (0 at every flow variable).
    Its flows solve each commodity's network of `relaxation` with every
    vehicle variable at its bound; a commodity that cannot be routed keeps
    zero flows.  Each vehicle count is the fewest vehicles that carry the
    mass on its (arc, t), so every capacity row holds."""
    cap_mass = {z: g.capacity * g.variables[z].upper_bound for z in g.vehicles}
    values = [0] * len(g.variables)
    mass = [0] * len(g.variables)
    for (k, load), net in zip(g.loads.items(), relaxation(g)):
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
