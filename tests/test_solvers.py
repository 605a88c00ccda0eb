import errno
import gc
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import random
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

import hamflow
from hamflow import cli, expansion, parse_instance, serialize_instance, solvers
from hamflow.expansion import Assignment, expand_model, prune_model, verify_assignment
from hamflow.hamiltonian import (
    PolynomialFormatError,
    compile_hamiltonian,
    export_hamiltonian,
    parse_hamiltonian,
)
from hamflow.instance import (
    Arc,
    Commodity,
    Depot,
    Instance,
    ScheduleEntry,
)
from hamflow.solvers import (
    AnnealParams,
    SearchSpaceTooLargeError,
    anneal_sample,
    brute_force_oracle,
    postprocess_flows,
    solve_exact,
    summarize_samples,
)

import waves
from conftest import (
    FAMILY_OPTIMA,
    empty_schedule_instance,
    family_models,
    feasible_points,
    huge_vehicle_bound_instance,
    large_supply_instance,
    random_micro_instance,
    random_micro_model,
    waves_model,
)


class TestSolveExact:
    def test_micro_unique_schedule(self, micro_model):
        result = solve_exact(micro_model)
        assert result.status == "optimal"
        assert result.certified
        assert result.objective == pytest.approx(5.0)
        vi = micro_model.vehicle_index()
        assert result.sample.assignment.values[vi[(("A", "B"), 1)]] == 1

    def test_two_commodities_share_one_vehicle(self):
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 3.5, 1),),
            commodities=(Commodity("K1", 10.0), Commodity("K2", 20.0)),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry("A", "K1", 1, 30.0), ScheduleEntry("B", "K1", 2, -30.0),
                      ScheduleEntry("A", "K2", 1, 40.0), ScheduleEntry("B", "K2", 2, -40.0)))
        result = solve_exact(expand_model(inst))
        assert result.objective == pytest.approx(3.5)   # 30 + 40 <= 100

    def test_infeasible_model_is_explicit(self):
        # balanced but the demand precedes any possible arrival; solve the
        # unpruned model so the equations are still present
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 10.0),),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 2, 10.0),
                      ScheduleEntry("B", "K", 1, -10.0)))
        result = solve_exact(expand_model(inst))
        assert result.status == "infeasible"
        assert result.sample is None
        assert result.certified

    def test_case_study_beats_published_schedule(self, case_study_pruned, published_schedule):
        result = solve_exact(case_study_pruned)
        published_cost = expansion.evaluate_objective(case_study_pruned, published_schedule)
        assert result.status == "optimal"
        assert result.objective < published_cost
        vi = case_study_pruned.vehicle_index()
        n3n4_total = sum(result.sample.assignment.values[i]
                         for (arc, t), i in vi.items() if arc == ("N3", "N4"))
        assert n3n4_total == 2
        report = verify_assignment(case_study_pruned, result.sample.assignment)
        assert report.feasible

    def test_optimal_sample_energy_equals_objective(self, micro_model):
        s = solve_exact(micro_model).sample
        assert s.feasible
        assert s.energy == s.objective

    @pytest.mark.parametrize("k", [12, 20, 40])
    def test_search_deeper_than_the_recursion_limit(self, k):
        """waves(12), (20) and (40) branch on 191, 319 and 639 vehicle
        variables, more levels than the interpreter's default recursion
        limit: the search runs on explicit stacks, so it ends at its time
        limit holding a point that verifies, no dearer than the start
        point."""
        model = waves_model(k)
        begin = time.perf_counter()
        result = solve_exact(model, time_limit=1.0)
        assert time.perf_counter() - begin < 2.0
        assert (result.status, result.certified) == ("time_limit", False)
        report = verify_assignment(model, result.sample.assignment)
        assert report.feasible and report.bound_findings == ()
        start = Assignment(values=tuple(solvers._start_point(expansion.Graph(model))[0]))
        assert result.objective <= expansion.evaluate_objective(model, start)


class TestBruteForce:
    def test_micro_agrees_with_exact(self, micro_model):
        assert brute_force_oracle(micro_model).objective == solve_exact(micro_model).objective

    def test_empty_schedule_optimum_is_zero(self):
        model = expand_model(empty_schedule_instance())
        result = brute_force_oracle(model)
        assert result.objective == 0.0
        assert set(result.sample.assignment.values) == {0}

    def test_overflowing_objective_is_refused(self):
        # feasible, but its only route costs 2 * 1.7e308 = inf
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B"), Depot("C", "C")),
            arcs=(Arc("A", "B", 1.7e308, 1), Arc("B", "C", 1.7e308, 1)),
            commodities=(Commodity("K", 10.0),),
            horizon=3, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 1, 10.0), ScheduleEntry("C", "K", 3, -10.0)))
        model = expand_model(inst)
        for solve in (brute_force_oracle, solve_exact):
            with pytest.raises(expansion.ModelError, match="too large"):
                solve(model)

    def test_search_space_gate(self, case_study_model):
        with pytest.raises(SearchSpaceTooLargeError):
            brute_force_oracle(case_study_model)

    def test_random_micros_agree_with_exact(self):
        rng = random.Random(60601)
        for _ in range(10):
            model = random_micro_model(rng)
            exact = solve_exact(model, time_limit=60.0)
            brute = brute_force_oracle(model)
            assert exact.status == brute.status
            assert exact.certified and brute.certified
            if exact.status == "optimal":
                assert exact.objective == pytest.approx(brute.objective, abs=1e-9)


class TestExactSearch:
    """sha256 digests recorded when every node solved its max-flows from an
    empty flow.  The relaxation's verdicts decide which nodes the depth-first
    search visits and in what order, so a rewrite of the relaxation that
    changes any verdict changes a node count or an assignment here."""

    def test_case_study_search(self, case_study_pruned):
        result = solve_exact(case_study_pruned)
        assert result.nodes == 93
        values = ",".join(str(v) for v in result.sample.assignment.values)
        assert hashlib.sha256(values.encode()).hexdigest() == \
            "65f10e1f24f42d92ca0ae3c070a87a1fb4883677ee450e83cf2be2d57353be71"

    def test_random_micros_search(self):
        rng = random.Random(27182)
        digest = hashlib.sha256()
        for _ in range(30):
            r = solve_exact(random_micro_model(rng), time_limit=60.0)
            values = "" if r.sample is None else ",".join(str(v) for v in r.sample.assignment.values)
            digest.update(f"{r.status};{r.certified};{r.nodes};{values}\n".encode())
        assert digest.hexdigest() == \
            "72c45a88667920606e8d660d2324af5a4d964f842293eeae2c2ee783f7f1ccda"

    def test_waves_3_search(self):
        result = solve_exact(waves_model(3))
        assert result.certified
        assert result.nodes == 61448
        assert result.objective == pytest.approx(waves.optimum(3))
        values = ",".join(str(v) for v in result.sample.assignment.values)
        assert hashlib.sha256(values.encode()).hexdigest() == \
            "98635df78b1b81f8c2ed6e089c7ba8e38ce5008bd1c68575d5f60d18e2e3601f"

    @pytest.mark.parametrize("prune", [False, True])
    def test_per_commodity_networks_prune(self, prune):
        """A and B each supply 10 of K1 and of K2; C takes 20 of K1 and D 20
        of K2.  The merged-mass network routes all of it over the cheap arcs
        A->D and B->C; only the per-commodity networks see that K1 at A and
        K2 at B need the dear arcs, which cuts the search from 25 nodes to 9."""
        inst = Instance(
            depots=tuple(Depot(d, d) for d in "ABCD"),
            arcs=(Arc("A", "C", 9.0, 1), Arc("B", "D", 8.0, 1),
                  Arc("A", "D", 1.0, 1), Arc("B", "C", 1.0, 1)),
            commodities=(Commodity("K1", 10.0), Commodity("K2", 10.0)),
            horizon=2, capacity=20.0,
            schedule=tuple(ScheduleEntry(d, k, 1, 10.0) for d in "AB" for k in ("K1", "K2"))
            + (ScheduleEntry("C", "K1", 2, -20.0), ScheduleEntry("D", "K2", 2, -20.0)))
        model = expand_model(inst)
        result = solve_exact(expansion.prune_model(model) if prune else model)
        assert result.status == "optimal"
        assert result.objective == 19.0
        assert result.nodes == 9


def _assert_flow_fits(net, res, cap_mass):
    """The flow in residual list `res` stays within every edge's capacity
    under `cap_mass`, is conserved at every node and brings `need` units to
    the sink."""
    cap = {2 * j: min(ub, cap_mass[key] // load) for j, (key, ub, load) in enumerate(net.arcs)}
    balance = [0] * len(net.adj)
    for e in range(0, len(net.head), 2):
        flow = res[e ^ 1]
        assert 0 <= flow <= cap.get(e, net.base[e])
        balance[net.head[e]] += flow
        balance[net.head[e ^ 1]] -= flow
    assert balance[net.sink] == net.need == -balance[net.source]
    assert not any(balance[:net.source])


class TestFlowRepair:
    """`_Network.solve` repairs a parent's flow after one key's capacity
    changes; its verdict must be the max-flow verdict from the empty flow."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_walk_matches_fresh_solves(self, k, monkeypatch):
        """A walk of one-key changes, each raising or lowering one vehicle
        count and starting from the flows the step before returned.  A step
        whose verdict is infeasible is undone, as the search backtracks.  The
        fresh solves run on a second relaxation, which shares no learned cut
        with the walk's.  Each repair is handed the keys changed since its
        network's flow was last solved, raises included, as the search hands
        it the variables branched since; every arc edge of a repaired flow
        then has the exact residual capacity.  Repairs that move the whole
        excess and repairs that cannot both occur (waves(1) is the case
        study); no repair searches from the source, and one that fails
        learns the cut the fresh solve learns."""
        searches = _record_searches(monkeypatch)
        model = waves_model(k)
        networks = solvers._relaxation(expansion.Graph(model))
        oracle = solvers._relaxation(expansion.Graph(model))
        capacity = int(model.instance.capacity)
        bound = {v.index: v.upper_bound for v in model.variables
                 if v.kind == expansion.VEHICLE}
        keys = sorted(bound)
        cap_mass = {key: capacity * ub for key, ub in bound.items()}
        flows = _solve_all(networks, cap_mass)
        assert flows is not None
        rng = random.Random(7331 + k)
        verdicts, kept, rerouted, failed = set(), 0, 0, 0
        changed = [set() for _ in networks]   # per network: keys changed since it was solved
        for _ in range(600):
            key = rng.choice(keys)
            count = rng.choice([c for c in range(bound[key] + 1)
                                if capacity * c != cap_mass[key]])
            raised = capacity * count > cap_mass[key]
            child_caps = {**cap_mass, key: capacity * count}
            child = []
            for net, res, keys_changed in zip(networks, flows, changed):
                before = len(searches)
                res = _repair(net, child_caps, res, key, keys_changed | {key})
                assert not any(searches[before:])
                if res is None:
                    failed += 1
                    assert len(searches) > before
                    break
                child.append(res)
            fresh = _solve_all(oracle, child_caps)
            assert (res is None) == (fresh is None)
            verdicts.add((raised, fresh is not None))
            if res is None:
                # the repair and the fresh solve fail in the same network,
                # and the tail search and the source search learn one cut
                assert _learned(net) == _learned(oracle[len(child)])
                continue
            for n, (net, res, parent) in enumerate(zip(networks, child, flows)):
                _assert_flow_fits(net, res, child_caps)
                if res is parent:
                    kept += 1
                    changed[n].add(key)
                else:
                    rerouted += 1
                    changed[n] = set()
                    for j, (z, ub, load) in enumerate(net.arcs):
                        assert res[2 * j] == min(ub, child_caps[z] // load) - res[2 * j + 1]
            cap_mass, flows = child_caps, child
        assert verdicts == {(True, True), (False, True), (False, False)}
        assert rerouted >= 20 and kept > 100
        assert failed >= 20

    @staticmethod
    def three_paths():
        """Nodes 0, 1, 2: 2 units enter at 0 and leave at 2, over the arc
        0->2 (key 10) or the path 0->1->2 (keys 11 and 12), every bound 5 and
        load 1.  From the empty flow all of it takes the shorter arc."""
        net = solvers._Network(3, [(0, 2, 10, 5, 1), (0, 1, 11, 5, 1), (1, 2, 12, 5, 1)],
                               [(0, 2)], [(2, 2)], 2)
        caps = {10: 2, 11: 2, 12: 2}
        res = net.solve(caps)
        assert _arc_flows(net, res) == {10: 2, 11: 0, 12: 0}
        return net, caps, res

    def test_reroute_moves_the_whole_excess(self, monkeypatch):
        net, caps, parent = self.three_paths()
        searches = _record_searches(monkeypatch)
        child_caps = {**caps, 10: 0}
        res = _repair(net, child_caps, parent, 10, [10])
        assert searches == [False]
        assert _arc_flows(net, res) == {10: 0, 11: 2, 12: 2}
        assert parent[net.edge_of[10] ^ 1] == 2     # the parent's list is left as it was
        _assert_flow_fits(net, res, child_caps)

    def test_reroute_through_the_source(self, monkeypatch):
        """2 units may enter at 0 and 1 at 1, over the arcs 0->2 (key 10)
        and 1->2 (key 13).  The one path from 0 to 2 that avoids the arc runs
        back along the source edge into 0 and out along the one into 1, so
        the flow value stays 2."""
        net = solvers._Network(3, [(0, 2, 10, 5, 1), (1, 2, 13, 5, 1)],
                               [(0, 2), (1, 1)], [(2, 2)], 2)
        parent = net.solve({10: 2, 13: 2})
        assert _arc_flows(net, parent) == {10: 2, 13: 0}
        searches = _record_searches(monkeypatch)
        res = _repair(net, {10: 1, 13: 2}, parent, 10, [10])
        assert searches == [False]
        assert _arc_flows(net, res) == {10: 1, 13: 1}
        _assert_flow_fits(net, res, {10: 1, 13: 2})

    @pytest.mark.parametrize("child_caps, tail_searches, left", [
        ({10: 0, 11: 1, 12: 2}, 2, 1),    # one unit rerouted over 0->1->2, one left
        ({10: 0, 11: 2, 12: 0}, 1, 2),    # no path from 0 to 2 is left: all of it left
    ], ids=["one_unit_left", "all_left"])
    def test_failed_reroute_learns_the_fresh_cut(self, monkeypatch, child_caps,
                                                 tail_searches, left):
        """A reroute that cannot move the whole excess ends the repair: its
        last search from the tail fails, no search starts at the source, and
        it learns the minimum cut that a solve from the empty flow learns,
        of capacity `need` less the excess left."""
        net, caps, parent = self.three_paths()
        searches = _record_searches(monkeypatch)
        assert _repair(net, child_caps, parent, 10, [10, 11, 12]) is None
        assert searches == [False] * tail_searches
        fresh = self.three_paths()[0]
        assert fresh.solve(child_caps) is None
        assert _learned(net) == _learned(fresh)
        (cut,) = _learned(net)
        assert _cut_capacity(cut, child_caps) == net.need - left

    def test_commodity_without_demand(self, monkeypatch):
        """K2 is never scheduled, so its network needs 0 units: its solve
        from the empty flow moves nothing and reroutes nothing, and a child's
        flow always fits.  The model still solves."""
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 2.0, 1),),
            commodities=(Commodity("K1", 10.0), Commodity("K2", 5.0)),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry("A", "K1", 1, 30.0), ScheduleEntry("B", "K1", 2, -30.0)))
        model = expand_model(inst)
        g = expansion.Graph(model)
        networks = solvers._relaxation(g)
        assert [net.need for net in networks] == [3, 0, 30]
        cap_mass = {z: 100 * model.variables[z].upper_bound for z in g.vehicles}
        flows = _solve_all(networks, cap_mass)
        assert flows is not None
        for net, res in zip(networks, flows):
            _assert_flow_fits(net, res, cap_mass)
        idle = networks[1]
        assert not any(_arc_flows(idle, flows[1]).values())
        key = idle.arcs[0][0]
        searches = _record_searches(monkeypatch)
        assert _repair(idle, {**cap_mass, key: 0}, flows[1], key, [key]) is flows[1]
        assert searches == []
        assert solve_exact(model).objective == pytest.approx(2.0)


def _record_searches(monkeypatch) -> list[bool]:
    """One entry per `_Network._search` from now on, in order: whether it
    started at its network's source.  A repair searches from the branched
    edge's tail only."""
    searches = []
    search = solvers._Network._search

    def recorded(net, res, start, end):
        searches.append(start == net.source)
        return search(net, res, start, end)

    monkeypatch.setattr(solvers._Network, "_search", recorded)
    return searches


def _solve_all(networks, cap_mass):
    """Each network's flow solved from the empty flow, as the search solves
    its root, or None once one fails."""
    flows = []
    for net in networks:
        res = net.solve(cap_mass)
        if res is None:
            return None
        flows.append(res)
    return flows


def _repair(net, cap_mass, res, key, changed):
    """The search's fit test on `key`'s arc edge, then, only where its flow
    exceeds the new capacity, `_Network.solve`'s repair: `res` itself when
    the network has no such edge or its flow fits."""
    edge = net.edge_of.get(key)
    if edge is None:
        return res
    _, ub, load = net.arcs[edge >> 1]
    excess = res[edge ^ 1] - min(ub, cap_mass[key] // load)
    if excess <= 0:
        return res
    return net.solve(cap_mass, res, edge, excess, changed)


def _arc_flows(net, res) -> dict[int, int]:
    return {key: res[2 * j + 1] for j, (key, _, _) in enumerate(net.arcs)}


def _learned(net) -> list[tuple[int, tuple]]:
    """Every cut `net` learned, once each, its arcs sorted: a cut's arc
    order follows the search's labelling order, which the flow decides."""
    cuts = {id(cut): cut for cuts in net.cuts.values() for cut in cuts}.values()
    return sorted((fixed, tuple(sorted(arcs))) for fixed, arcs in cuts)


def _cut_capacity(cut, cap_mass) -> int:
    fixed, arcs = cut
    return fixed + sum(min(ub, cap_mass[key] // load) for key, ub, load in arcs)


class TestOneArcPerKey:
    """Every relaxation network holds at most one arc per key, arc j at edge
    2j: a repair reads the one branched edge, and `_start_point` one
    residual per flow variable."""

    @staticmethod
    def assert_one_arc_per_key(model):
        for net in solvers._relaxation(expansion.Graph(model)):
            keys = [key for key, _, _ in net.arcs]
            assert len(set(keys)) == len(keys)
            assert all(net.edge_of[key] == 2 * j for j, key in enumerate(keys))

    def test_case_study(self, case_study_model, case_study_pruned):
        self.assert_one_arc_per_key(case_study_model)
        self.assert_one_arc_per_key(case_study_pruned)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_waves(self, k):
        self.assert_one_arc_per_key(waves_model(k))

    def test_random_micro(self):
        rng = random.Random(2718)
        for _ in range(40):
            model = expand_model(random_micro_instance(rng))
            self.assert_one_arc_per_key(model)
            self.assert_one_arc_per_key(expansion.prune_model(model))

    def test_duplicated_flow_variable_is_refused(self, micro_model):
        """A hand-built model with two flow variables of one (arc,
        commodity, t) would give a network two arcs of one key."""
        first = micro_model.variables[0]
        assert first.kind == expansion.FLOW and first.time == 1
        twin = replace(first, index=len(micro_model.variables))
        model = replace(micro_model, variables=micro_model.variables + (twin,))
        with pytest.raises(expansion.ModelError, match="two flow variables"):
            solve_exact(model)


class TestLearnedCuts:
    def test_cuts_from_a_search_are_certificates(self, monkeypatch):
        """Every cut a waves(2) search learned, evaluated at random vehicle
        vectors: wherever one comes out below its network's `need`, a fresh
        network finds no flow.  Each count is its upper bound with
        probability 0.7 and uniform below it otherwise, so both verdicts
        occur often."""
        model = waves_model(2)
        fresh = solvers._relaxation(expansion.Graph(model))
        searched = []
        relaxation = solvers._relaxation

        def recording(g):
            searched.append(relaxation(g))
            return searched[-1]

        monkeypatch.setattr(solvers, "_relaxation", recording)
        assert solve_exact(model).nodes == 2711
        (networks,) = searched
        capacity = int(model.instance.capacity)
        bound = {v.index: v.upper_bound for v in model.variables
                 if v.kind == expansion.VEHICLE}
        rng = random.Random(4242)
        outcomes = {"certified": 0, "feasible": 0}
        for _ in range(200):
            cap_mass = {z: capacity * (ub if rng.random() < 0.7 else rng.randint(0, ub))
                        for z, ub in bound.items()}
            for net, fresh_net in zip(networks, fresh):
                cuts = {id(cut): cut for cuts in net.cuts.values() for cut in cuts}.values()
                if any(_cut_capacity(cut, cap_mass) < net.need for cut in cuts):
                    assert fresh_net.solve(cap_mass) is None
                    outcomes["certified"] += 1
                elif fresh_net.solve(cap_mass) is not None:
                    outcomes["feasible"] += 1
        assert outcomes["certified"] > 50 and outcomes["feasible"] > 50

    def test_search_tries_the_last_certifying_cut_first(self, monkeypatch):
        """`solve_exact` evaluates the cuts learned across the branched arc
        edge itself, before any repair: a scan that a cut ends early has
        certified a child, and that cut is first in its list at the next
        scan of the list.  Many certificates come from a cut that was not
        first."""
        watched = []

        class Watched(list):
            """A cut list that checks, as each scan starts, that the cut
            which ended the last scan early is first."""
            last = None     # the cut the last scan stopped at, if it stopped early
            at = 0          # its position then

            def __iter__(self):
                if self.last is not None:
                    assert self[0] is self.last
                    watched.append(self.at)
                for self.at, self.last in enumerate(list.__iter__(self)):
                    yield self.last
                self.last = None

        class WatchedCuts(dict):
            def setdefault(self, key, default=None):
                return super().setdefault(key, Watched())

        relaxation = solvers._relaxation

        def recording(g):
            networks = relaxation(g)
            for net in networks:
                net.cuts = WatchedCuts()
            return networks

        monkeypatch.setattr(solvers, "_relaxation", recording)
        assert solve_exact(waves_model(2)).nodes == 2711
        assert len(watched) > 500
        assert sum(1 for at in watched if at) > 50


def test_family_against_pinned_optima():
    """The mid-size family (`conftest.family_models`) at a 1 s limit: each
    answer verifies and either certifies the pinned HiGHS optimum or costs
    at least it, and at least 20 of the 30 certify.  Which ones do depends
    on the host's speed, so none is pinned; the two leaf-bound members of
    the pin file spend far longer than that completing leaves."""
    pins = json.loads(FAMILY_OPTIMA.read_text())["optima"]
    models = family_models()
    assert len(models) == len(pins) == 30
    certified = 0
    for model, optimum in zip(models, pins):
        result = solve_exact(model, time_limit=1)
        report = verify_assignment(model, result.sample.assignment)
        assert report.feasible and report.bound_findings == ()
        if result.certified:
            certified += 1
            assert result.objective == pytest.approx(optimum, rel=1e-9)
        else:
            assert result.objective >= optimum * (1 - 1e-9)
    assert certified >= 20


def _feasible_vehicle_vectors(model) -> set[tuple[int, ...]]:
    """The vehicle vectors, in variable order, under which some point of the
    flow box satisfies every row."""
    vehicles = [v.index for v in model.variables if v.kind == expansion.VEHICLE]
    return {tuple(point[i] for i in vehicles) for point in feasible_points(model)}


class TestLeafCompletion:
    def test_matches_flow_box_enumeration(self):
        """Under every vehicle vector of the box, find_feasible_flows
        returns flows exactly when some flow point is feasible, and the flows
        it returns verify."""
        rng = random.Random(16180)
        outcomes = {True: 0, False: 0}
        for _ in range(40):
            model = random_micro_model(rng, max_space=50_000)
            feasible = _feasible_vehicle_vectors(model)
            vehicles = [v for v in model.variables if v.kind == expansion.VEHICLE]
            capacity = int(model.instance.capacity)
            for counts in itertools.product(*(range(v.upper_bound + 1) for v in vehicles)):
                fixed = {v.index: c for v, c in zip(vehicles, counts)}
                flows = solvers.find_feasible_flows(
                    expansion.Graph(model), {z: capacity * c for z, c in fixed.items()})
                assert (flows is not None) == (counts in feasible)
                outcomes[flows is not None] += 1
                if flows is not None:
                    values = [0] * len(model.variables)
                    for i, units in {**flows, **fixed}.items():
                        values[i] = units
                    assert verify_assignment(model, Assignment(values=tuple(values))).feasible
        assert outcomes[True] > 100 and outcomes[False] > 100

    def test_expired_deadline_is_not_infeasible(self):
        """A completion handed a deadline already past gives up and raises,
        where a finished one returns flows."""
        model = waves_model(2)
        g = expansion.Graph(model)
        capacity = int(model.instance.capacity)
        best = solve_exact(model).sample.assignment.values
        cap_mass = {z: capacity * best[z] for z in g.vehicles}
        assert solvers.find_feasible_flows(g, cap_mass) is not None
        with pytest.raises(solvers._Expired):
            solvers.find_feasible_flows(g, cap_mass, deadline=-math.inf)


class TestTimeLimit:
    @pytest.mark.parametrize("limit", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_limit_is_refused(self, micro_model, limit):
        """A NaN limit never compares past the deadline, so the search would
        never stop; a negative one would return time_limit at once."""
        with pytest.raises(ValueError, match="time_limit"):
            solve_exact(micro_model, time_limit=limit)

    def test_infinite_limit_is_no_limit(self, micro_model):
        result = solve_exact(micro_model, time_limit=math.inf)
        assert (result.status, result.certified) == ("optimal", True)

    def test_zero_limit_stops_uncertified(self):
        model = waves_model(3)
        result = solve_exact(model, time_limit=0.0)
        assert result.status == "time_limit"
        assert not result.certified
        _assert_start_point(model, result)

    def test_leaf_expiry_ends_the_search(self, monkeypatch):
        """A leaf completion that runs out of time ends the search as
        time_limit, not as infeasible."""
        complete = solvers.find_feasible_flows
        monkeypatch.setattr(solvers, "find_feasible_flows",
                            lambda g, cap_mass, deadline: complete(g, cap_mass, -math.inf))
        model = waves_model(1)
        result = solve_exact(model)
        assert (result.status, result.certified) == ("time_limit", False)
        _assert_start_point(model, result)

    @pytest.mark.parametrize("inst", [huge_vehicle_bound_instance(), large_supply_instance()],
                             ids=["load_1e300", "large_supply"])
    def test_expiry_without_incumbent_returns_the_start_point(self, inst):
        """A search that cannot reach a leaf in time still returns a
        feasible point: the vehicle counts run to about 1e298 and 1e17."""
        model = expansion.prune_model(expand_model(inst))
        result = solve_exact(model, time_limit=1.0)
        assert (result.status, result.certified) == ("time_limit", False)
        _assert_start_point(model, result)


def _detour_instance(direct_cost: float) -> Instance:
    """Ten units from S at t = 1 to D at t = 3, either on the direct arc
    S->D (travel time 2) or over S->M->D (cost 12).  The search branches
    the dearest arc first and smaller counts first, so its first incumbent
    flies the detour when the direct arc costs 10 or 12; the start point's
    max-flow takes the direct arc, the shortest path."""
    return Instance(
        depots=tuple(Depot(d, d) for d in "SMD"),
        arcs=(Arc("S", "D", direct_cost, 2), Arc("S", "M", 6.0, 1), Arc("M", "D", 6.0, 1)),
        commodities=(Commodity("K", 1.0),), horizon=3, capacity=10.0,
        schedule=(ScheduleEntry("S", "K", 1, 10.0), ScheduleEntry("D", "K", 3, -10.0)))


class TestCheaperPointOnExpiry:
    """A search that times out holding an incumbent returns the start point
    instead when the start point costs less; on a tie it keeps the
    incumbent.  The clock expires right after the first leaf completion."""

    @staticmethod
    def expire_after_first_leaf(monkeypatch):
        shift = [0.0]
        complete = solvers.find_feasible_flows

        def leaf(g, cap_mass, deadline):
            flows = complete(g, cap_mass, deadline)
            if flows is not None:
                shift[0] = 1e6
            return flows

        monkeypatch.setattr(solvers, "find_feasible_flows", leaf)
        monkeypatch.setattr(solvers, "time", type("Clock", (), {
            "perf_counter": staticmethod(lambda: time.perf_counter() + shift[0])}))

    @pytest.mark.parametrize("direct_cost, objective, detour", [(10.0, 10.0, False),
                                                                (12.0, 12.0, True)],
                             ids=["start_point_cheaper", "tie_keeps_incumbent"])
    def test_detour(self, monkeypatch, direct_cost, objective, detour):
        model = prune_model(expand_model(_detour_instance(direct_cost)))
        assert solve_exact(model).objective == direct_cost   # certified: the direct arc
        self.expire_after_first_leaf(monkeypatch)
        result = solve_exact(model)
        assert (result.status, result.certified) == ("time_limit", False)
        assert result.objective == objective
        names = {v.name(): x for v, x in zip(model.variables, result.sample.assignment.values)}
        assert (names["z[S->M,t=1]"] == 1) is detour
        assert (names["z[S->D,t=1]"] == 1) is not detour
        assert verify_assignment(model, result.sample.assignment).feasible

    def test_cheaper_incumbent_is_kept(self, case_study_pruned, monkeypatch):
        """The case study's first incumbent is its optimum, 62.12, below the
        start point's 67.5."""
        self.expire_after_first_leaf(monkeypatch)
        result = solve_exact(case_study_pruned)
        assert (result.status, result.certified) == ("time_limit", False)
        assert result.objective == pytest.approx(62.12)


def _assert_start_point(model, result):
    """The sample of a search that timed out without an incumbent: the
    annealer's start point, which verifies."""
    assert result.sample.assignment.values == tuple(solvers._start_point(expansion.Graph(model))[0])
    report = verify_assignment(model, result.sample.assignment)
    assert report.feasible and report.bound_findings == ()
    assert result.sample.objective == expansion.evaluate_objective(model, result.sample.assignment)


class TestAnneal:
    def test_micro_finds_the_optimum(self, micro_model):
        h = compile_hamiltonian(micro_model)
        sset = anneal_sample(h, micro_model, AnnealParams(restarts=40, sweeps=150), seed=3)
        best = sset.best_feasible()
        assert best is not None
        assert best.objective == pytest.approx(5.0)

    def test_same_seed_identical_samplesets(self, micro_model):
        h = compile_hamiltonian(micro_model)
        params = AnnealParams(restarts=6, sweeps=100)
        a = anneal_sample(h, micro_model, params, seed=11)
        b = anneal_sample(h, micro_model, params, seed=11)
        assert a.canonical_bytes() == b.canonical_bytes()
        for s, t in zip(a.samples, b.samples):
            assert s.assignment == t.assignment
            assert s.energy == t.energy
            assert s.feasible == t.feasible

    def test_samples_ordered_by_energy_then_restart(self, micro_model):
        h = compile_hamiltonian(micro_model)
        sset = anneal_sample(h, micro_model, AnnealParams(restarts=10, sweeps=60), seed=1)
        keys = [(s.energy, s.restart_index) for s in sset.samples]
        assert keys == sorted(keys)

    def test_feasible_samples_verify_and_match_energy(self, micro_model):
        h = compile_hamiltonian(micro_model)
        sset = anneal_sample(h, micro_model, AnnealParams(restarts=12, sweeps=120), seed=5)
        for s in sset.samples:
            report = verify_assignment(micro_model, s.assignment)
            assert report.feasible == s.feasible
            if s.feasible:
                assert s.energy == pytest.approx(s.objective, rel=1e-12)

    def test_prefix_best_energy_is_monotone(self, micro_model):
        """More restarts can only improve the best energy for a fixed seed."""
        h = compile_hamiltonian(micro_model)
        full = anneal_sample(h, micro_model, AnnealParams(restarts=10, sweeps=80), seed=2)
        by_restart = {s.restart_index: s.energy for s in full.samples}
        best_so_far = []
        for k in range(1, 11):
            prefix = anneal_sample(h, micro_model, AnnealParams(restarts=k, sweeps=80), seed=2)
            best_so_far.append(prefix.best().energy)
            assert prefix.best().energy == min(by_restart[r] for r in range(k))
        assert all(a >= b for a, b in zip(best_so_far, best_so_far[1:]))

    def test_infeasible_samples_are_flagged_not_dropped(self, micro_model):
        h = compile_hamiltonian(micro_model)
        sset = anneal_sample(h, micro_model, AnnealParams(restarts=5, sweeps=1), seed=0)
        assert len(sset.samples) == 5

    def test_dump_csv_columns(self, micro_model):
        h = compile_hamiltonian(micro_model)
        sset = anneal_sample(h, micro_model, AnnealParams(restarts=3, sweeps=30), seed=0)
        lines = sset.dump_csv().splitlines()
        assert lines[0] == "restart_index,energy,objective,feasible,wall_time_s"
        assert len(lines) == 4


class TestAnnealStream:
    """sha256 digests of SampleSet.canonical_bytes() recorded with numpy
    2.4.6.  They pin numpy's PCG64 stream as the annealer consumes it (four
    draws a sweep, in order) together with every accept/reject decision, so
    a rewrite of the chain that changes either one fails here."""

    def test_case_study_seed_7(self, case_study_pruned):
        h = compile_hamiltonian(case_study_pruned)
        sset = anneal_sample(h, case_study_pruned, AnnealParams(restarts=2, sweeps=300), seed=7)
        assert hashlib.sha256(sset.canonical_bytes()).hexdigest() == \
            "cdf607156f33a9601f2da21190096615dba3d3229c49e68f3893433a410604b1"

    def test_waves_3_seed_1(self):
        # short chains on ten cycles: the restarts end at different points
        model = waves_model(3)
        sset = anneal_sample(compile_hamiltonian(model), model,
                             AnnealParams(restarts=4, sweeps=100), seed=1)
        assert len({s.objective for s in sset.samples}) > 1
        assert hashlib.sha256(sset.canonical_bytes()).hexdigest() == \
            "9a242bb7fb0bd60a4bd1cfdbd4cf4126897adf16e7fdbf10d0db6807b72f47ba"

    def test_random_micros_seed_1(self):
        rng = random.Random(31415)
        digest = hashlib.sha256()
        for _ in range(10):
            model = random_micro_model(rng)
            sset = anneal_sample(compile_hamiltonian(model), model,
                                 AnnealParams(restarts=3, sweeps=100), seed=1)
            digest.update(sset.canonical_bytes())
        assert digest.hexdigest() == \
            "bdb3aaedbadf0936fd773395f4a8dbf4fbf6744a1a6ccb63a33e7b385af8ce32"


class TestUnprunedCaseStudy:
    """sha256 pins of the unpruned case study, whose graph keeps arrivals
    past the horizon: the exact assignment with its node count, and an
    annealer sample set."""

    def test_exact(self, case_study_model):
        result = solve_exact(case_study_model)
        assert result.nodes == 93
        values = ",".join(str(v) for v in result.sample.assignment.values)
        assert hashlib.sha256(values.encode()).hexdigest() == \
            "d35a509fca7e77e5587657c1fcb7842bfda6b4a8c8474fe0d7c6fe8d33ffff98"

    def test_anneal_seed_7(self, case_study_model):
        sset = anneal_sample(compile_hamiltonian(case_study_model), case_study_model,
                             AnnealParams(restarts=6), seed=7)
        assert hashlib.sha256(sset.canonical_bytes()).hexdigest() == \
            "7ec79777a9504e5908af0a783e99ab3bd87aab946f8927e4e4d9c0fe568e1d65"


class TestOneGraph:
    """Each back-end call derives the time-expanded graph once and hands it
    to every helper."""

    @pytest.mark.parametrize("name", ["solve_exact", "anneal_sample", "postprocess_flows"])
    def test_one_graph_per_call(self, monkeypatch, name):
        model = waves_model(2)
        h = compile_hamiltonian(model)
        call = {
            "solve_exact": lambda: solve_exact(model),
            "anneal_sample": lambda: anneal_sample(h, model, AnnealParams(restarts=2, sweeps=5),
                                                   seed=3),
            "postprocess_flows": lambda: postprocess_flows(
                model, Assignment(values=(1,) * len(model.variables))),
        }[name]
        built = []

        class Counting(expansion.Graph):
            def __init__(self, model):
                built.append(1)
                super().__init__(model)

        monkeypatch.setattr(solvers, "Graph", Counting)
        call()
        assert len(built) == 1


class TestCycleAnnealer:
    """The annealer starts from a max-flow solution and moves only around
    cycles of a commodity's time-expanded graph, with vehicle counts derived
    from the flows, so every point it visits is feasible."""

    @staticmethod
    def _derive_vehicles(model, values):
        capacity = int(model.instance.capacity)
        loads = {c.id: int(c.load) for c in model.instance.commodities}
        mass = {}
        for v in model.variables:
            if v.kind == expansion.FLOW:
                key = (v.arc, v.time)
                mass[key] = mass.get(key, 0) + values[v.index] * loads[v.commodity]
        values = list(values)
        for (arc, t), i in model.vehicle_index().items():
            values[i] = -(-mass.get((arc, t), 0) // capacity)
        return values

    @pytest.mark.parametrize("k, count", [(1, 2), (3, 10)])
    def test_cycles_keep_every_conservation_row(self, k, count):
        model = waves_model(k)
        cycles = solvers._flow_cycles(expansion.Graph(model))
        assert len(cycles) == count
        for cycle in cycles:
            assert 2 <= len(cycle) <= 6
            assert len({i for i, _ in cycle}) == len(cycle)
            assert all(model.variables[i].kind == expansion.FLOW for i, _ in cycle)
            assert len({model.variables[i].commodity for i, _ in cycle}) == 1
            delta = dict(cycle)
            for c in model.constraints:
                if c.relation == "eq":
                    assert sum(coef * delta.get(i, 0) for i, coef in c.terms) == 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_start_flow_is_feasible(self, k):
        model = waves_model(k)
        values, _ = solvers._start_point(expansion.Graph(model))
        assert any(values)
        for v in model.variables:
            assert 0 <= values[v.index] <= v.upper_bound
        for c, r in zip(model.constraints, expansion.row_residuals(model, values)):
            if c.relation == "eq":
                assert r == 0, c.tag
        assert values == self._derive_vehicles(model, values)
        report = verify_assignment(model, Assignment(values=tuple(values)))
        assert report.feasible
        assert report.bound_findings == ()

    def test_case_study_seed_7_reaches_the_optimum(self, case_study_pruned):
        h = compile_hamiltonian(case_study_pruned)
        sset = anneal_sample(h, case_study_pruned, AnnealParams(restarts=40), seed=7)
        assert solve_exact(case_study_pruned).objective == pytest.approx(62.12)
        assert all(s.feasible for s in sset.samples)
        assert sum(s.objective == pytest.approx(62.12) for s in sset.samples) >= 38

    def test_waves_2_best_is_optimal(self):
        model = waves_model(2)
        sset = anneal_sample(compile_hamiltonian(model), model, AnnealParams(restarts=20), seed=7)
        assert all(s.feasible for s in sset.samples)
        assert sset.best_feasible().objective == pytest.approx(waves.optimum(2))

    def test_samples_are_derived_vehicles_of_feasible_flows(self):
        model = waves_model(3)
        sset = anneal_sample(compile_hamiltonian(model), model,
                             AnnealParams(restarts=4, sweeps=50), seed=3)
        for s in sset.samples:
            assert s.feasible
            assert list(s.assignment.values) == self._derive_vehicles(model, s.assignment.values)
            assert s.energy == s.objective

    def test_unroutable_commodity_is_flagged_infeasible(self, tmp_path):
        # the demand at B precedes every arrival there; without pruning the
        # model keeps its rows and the annealer meets it
        inst = Instance(
            depots=(Depot("A", "A"), Depot("B", "B")),
            arcs=(Arc("A", "B", 1.0, 1),),
            commodities=(Commodity("K", 10.0),),
            horizon=2, capacity=100.0,
            schedule=(ScheduleEntry("A", "K", 2, 10.0), ScheduleEntry("B", "K", 1, -10.0)))
        model = expand_model(inst)
        sset = anneal_sample(compile_hamiltonian(model), model,
                             AnnealParams(restarts=5, sweeps=50), seed=0)
        assert sset.best_feasible() is None
        for s in sset.samples:
            assert not s.feasible
            assert s.energy > s.objective
        path = tmp_path / "late.json"
        path.write_text(serialize_instance(inst))
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = cli.main(["solve", "--instance", str(path), "--no-prune", "--method", "anneal",
                             "--samples", "3", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "no feasible sample" in stderr.getvalue()


class _CountingGenerator:
    """A numpy Generator that counts its `integers` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.integer_calls = 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs)


def _four_calls(rng, n, sweeps):
    return [(rng.integers(0, n, size=n).tolist(), rng.integers(0, 2, size=n).tolist(),
             rng.random(size=n).tolist(), rng.random(size=n).tolist())
            for _ in range(sweeps)]


def _decoded(rng, n, sweeps, n_moves):
    """What `_sweep_draws` yields, from numpy's four calls a sweep: the move
    indices `2 * int(pick * n_moves) + up` and the accept draws."""
    return [([2 * int(pick * n_moves) + up for up, pick in zip(ups, picks)], accepts)
            for _, ups, picks, accepts in _four_calls(rng, n, sweeps)]


class TestSweepDraws:
    """`_sweep_draws` decodes blocks of raw words into exactly the move
    indices and accept draws of the four numpy calls a sweep would make, and
    leaves the generator where they would.  The sweep count is not a
    multiple of the block; 2**20 cycles make a move index depend on almost
    every bit of its pick draw."""

    sweeps = 2 * solvers._BLOCK_SWEEPS + 5
    cycle_counts = (1, 2, 7, 2**20)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 54, 102])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_matches_four_calls(self, n, seed):
        for n_moves in self.cycle_counts:
            ref = np.random.default_rng([seed, 1])
            rng = np.random.default_rng([seed, 1])
            assert list(solvers._sweep_draws(rng, n, self.sweeps, n_moves)) == \
                _decoded(ref, n, self.sweeps, n_moves)
            assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()

    def test_threshold_matches_numpys_rejection(self):
        # near 2**31 numpy rejects about half of the first draws and takes
        # the high half of the same word next
        bound = 2**31 + 1
        threshold = solvers._lemire_threshold(bound)
        rejected = 0
        for seed in range(64):
            word = int(np.random.default_rng(seed).bit_generator.random_raw())
            low, high = (word & 0xFFFFFFFF) * bound, (word >> 32) * bound
            if low & 0xFFFFFFFF >= threshold:
                expected = low >> 32
            elif high & 0xFFFFFFFF >= threshold:
                rejected += 1
                expected = high >> 32
            else:
                continue
            assert np.random.default_rng(seed).integers(0, bound) == expected
        assert rejected > 10

    def test_rejection_falls_back_mid_chain(self, monkeypatch):
        # a threshold far above numpy's makes the decoder see rejections
        # numpy does not make; the draws must not change
        monkeypatch.setattr(solvers, "_lemire_threshold", lambda bound: 2**32 // 400)
        n = 3
        fallback_sweeps = set()
        for seed in range(20):
            n_moves = self.cycle_counts[seed % len(self.cycle_counts)]
            ref = np.random.default_rng([seed, 0])
            rng = _CountingGenerator(np.random.default_rng([seed, 0]))
            draws = list(solvers._sweep_draws(rng, n, self.sweeps, n_moves))
            assert draws == _decoded(ref, n, self.sweeps, n_moves)
            assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()
            fallback_sweeps.add(self.sweeps - rng.integer_calls // 2)
        block_starts = set(range(0, self.sweeps, solvers._BLOCK_SWEEPS))
        assert fallback_sweeps <= block_starts | {self.sweeps}
        assert fallback_sweeps & (block_starts - {0})

    def test_rejection_keeps_samples(self, micro_model, monkeypatch):
        h = compile_hamiltonian(micro_model)
        params = AnnealParams(restarts=3, sweeps=100)
        before = anneal_sample(h, micro_model, params, seed=4).canonical_bytes()
        monkeypatch.setattr(solvers, "_lemire_threshold", lambda bound: 2**32 - 1)
        assert anneal_sample(h, micro_model, params, seed=4).canonical_bytes() == before


def _reference_run(chain, sweeps, seed, restart, t_start, cooling):
    """`_Chain.run` as the `_Chain` docstring describes it, with no cache:
    every proposal walks its move's edges afresh, and its draws come from
    numpy's four calls a sweep."""
    cap, ub, cost, moves = chain.capacity, chain.ub, chain.cost, chain.moves
    values, mass = chain.start.copy(), chain.mass.copy()
    best_values = values.copy()
    if not moves:
        return best_values
    rng = np.random.default_rng([seed, restart])
    temperature = t_start
    objective = best_objective = 0.0
    for _, ups, picks, accepts in _four_calls(rng, chain.n_flows, sweeps):
        for up, pick, accept in zip(ups, picks, accepts):
            move = moves[2 * int(pick * (len(moves) // 2)) + up]
            d_obj = 0.0
            for i, dx, z, dm in move:
                nz = -(-(mass[z] + dm) // cap)
                if not 0 <= values[i] + dx <= ub[i] or nz > ub[z]:
                    break
                d_obj += cost[z] * (nz - values[z])
            else:
                if d_obj > 0 and (d_obj > 700 * temperature
                                  or accept >= math.exp(-d_obj / temperature)):
                    continue
                for i, dx, z, dm in move:
                    values[i] += dx
                    mass[z] += dm
                    values[z] = -(-mass[z] // cap)
                objective += d_obj
                if objective < best_objective - 1e-9:
                    best_objective = objective
                    best_values = values.copy()
        temperature *= cooling
    return best_values


class TestChainCache:
    """`_Chain.run` caches each move's objective change and drops only the
    entries its `touches` lists name; a chain that walks every proposal's
    edges afresh must visit the same points and keep the same best one."""

    @staticmethod
    def _check(model, seeds, sweeps):
        chain = solvers._Chain(model)
        costs = [c for _, c in model.objective if c > 0]
        t_start = max(costs, default=1.0)
        cooling = (min(costs, default=1.0) / 2 / t_start) ** (1.0 / (sweeps - 1))
        for seed in seeds:
            assert chain.run(sweeps, seed, 0, t_start, cooling) == \
                _reference_run(chain, sweeps, seed, 0, t_start, cooling)

    def test_random_micros(self):
        rng = random.Random(2718)
        for _ in range(12):
            model = random_micro_model(rng)
            for m in (model, expansion.prune_model(model)):
                self._check(m, seeds=(0, 1), sweeps=80)

    def test_case_study(self, case_study_model, case_study_pruned):
        self._check(case_study_model, seeds=(7, 8), sweeps=300)
        self._check(case_study_pruned, seeds=(1, 2, 3), sweeps=300)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_waves(self, k):
        self._check(waves_model(k), seeds=(4, 5), sweeps=120)

    def test_fallback_draws(self, case_study_pruned, monkeypatch):
        monkeypatch.setattr(solvers, "_lemire_threshold", lambda bound: 2**32 - 1)
        self._check(case_study_pruned, seeds=(9,), sweeps=100)

    def test_touches_are_symmetric(self):
        chain = solvers._Chain(waves_model(3))
        assert len(chain.touches) == len(chain.moves) == 20
        for m, near in enumerate(chain.touches):
            assert m in near and m ^ 1 in near
            assert all(m in chain.touches[k] for k in near)


class TestPostprocess:
    def test_vehicleless_flows_zeroed(self, case_study_model):
        """The raw-device artifact: single stray loads along N1-N2-N3-N4 at
        late steps with no vehicles scheduled; gating removes exactly those."""
        fi = case_study_model.flow_index()
        values = [0] * len(case_study_model.variables)
        stray = [(("N1", "N2"), "L1", 4), (("N2", "N3"), "L1", 5), (("N3", "N4"), "L1", 6)]
        for key in stray:
            values[fi[key]] = 1
        values[fi[(("N2", "N3"), "L2", 5)]] = 1
        a = Assignment(values=tuple(values))
        adjusted, report = postprocess_flows(case_study_model, a)
        assert set(adjusted.values) == {0}
        assert isinstance(report.feasible, bool)

    def test_flows_with_vehicles_unchanged(self, micro_model):
        fi = micro_model.flow_index()
        vi = micro_model.vehicle_index()
        values = [0] * len(micro_model.variables)
        values[fi[(("A", "B"), "K", 1)]] = 1
        values[vi[(("A", "B"), 1)]] = 1
        a = Assignment(values=tuple(values))
        adjusted, report = postprocess_flows(micro_model, a)
        assert adjusted == a
        assert report.feasible

    def test_idempotent(self, case_study_pruned, published_schedule):
        once, _ = postprocess_flows(case_study_pruned, published_schedule)
        twice, _ = postprocess_flows(case_study_pruned, once)
        assert once == twice

    def test_objective_unchanged(self, case_study_model):
        rng = random.Random(8)
        values = [rng.randint(0, v.upper_bound) for v in case_study_model.variables]
        a = Assignment(values=tuple(values))
        adjusted, _ = postprocess_flows(case_study_model, a)
        assert expansion.evaluate_objective(case_study_model, adjusted) == \
            expansion.evaluate_objective(case_study_model, a)

    @pytest.mark.parametrize("length", [lambda n: 3, lambda n: n + 2], ids=["short", "long"])
    def test_wrong_length_is_refused(self, case_study_pruned, length):
        """Too few values and too many get verify_assignment's refusal."""
        n = len(case_study_pruned.variables)
        a = Assignment(values=(0,) * length(n))
        message = f"assignment has {len(a.values)} values, model has {n} variables"
        with pytest.raises(ValueError, match=message):
            postprocess_flows(case_study_pruned, a)


class TestSummarize:
    def test_identical_samples_single_bin(self, micro_model):
        h = compile_hamiltonian(micro_model)
        base = anneal_sample(h, micro_model, AnnealParams(restarts=1, sweeps=150), seed=3)
        s = base.samples[0]
        clones = tuple(replace(s, restart_index=i) for i in range(40))
        stats = summarize_samples(replace(base, samples=clones))
        assert sum(1 for _, _, count in stats.bins if count) == 1
        assert sum(count for _, _, count in stats.bins) == 40
        assert stats.feasible_fraction in (0.0, 1.0)

    def test_micro_best_matches_exact(self, micro_model):
        h = compile_hamiltonian(micro_model)
        sset = anneal_sample(h, micro_model, AnnealParams(restarts=20, sweeps=150), seed=3)
        stats = summarize_samples(sset)
        assert stats.best_energy == pytest.approx(solve_exact(micro_model).objective)

    def test_mean_wall_time_has_three_decimals(self, micro_model):
        h = compile_hamiltonian(micro_model)
        sset = anneal_sample(h, micro_model, AnnealParams(restarts=3, sweeps=30), seed=0)
        stats = summarize_samples(sset)
        rendered = f"{stats.mean_wall_time:.3f}"
        assert len(rendered.split(".")[1]) == 3
        for line in sset.dump_csv().splitlines()[1:]:
            assert len(line.rsplit(",", 1)[1].split(".")[1]) >= 3

    def test_empty_set_raises(self, micro_model):
        h = compile_hamiltonian(micro_model)
        base = anneal_sample(h, micro_model, AnnealParams(restarts=1, sweeps=10), seed=0)
        with pytest.raises(ValueError):
            summarize_samples(replace(base, samples=()))

    def test_bins_partition_the_range(self, micro_model):
        h = compile_hamiltonian(micro_model)
        sset = anneal_sample(h, micro_model, AnnealParams(restarts=15, sweeps=40), seed=9)
        stats = summarize_samples(sset)
        assert len(stats.bins) == 20
        for (lo1, hi1, _), (lo2, hi2, _) in zip(stats.bins, stats.bins[1:]):
            assert hi1 == pytest.approx(lo2)
        assert sum(c for _, _, c in stats.bins) == 15

    @pytest.mark.parametrize("energies", [[0.0, 5e-324], [-5e-324, 1e-323], [3.0, 3.0]])
    def test_range_narrower_than_a_bin_width(self, energies):
        # (hi - lo) / 20 underflows to 0 below 20 subnormal steps
        bins = solvers.energy_histogram(energies)
        assert len(bins) == 20 and bins[0][0] < min(energies) and bins[-1][1] > max(energies)
        assert [count for _, _, count in bins if count] == [len(energies)]


def test_annealer_feasible_samples_never_beat_the_oracle():
    rng = random.Random(31415)
    for _ in range(6):
        model = random_micro_model(rng)
        optimum = brute_force_oracle(model)
        if optimum.sample is None:
            continue
        h = compile_hamiltonian(model)
        sset = anneal_sample(h, model, AnnealParams(restarts=6, sweeps=200), seed=1)
        for s in sset.samples:
            if s.feasible:
                assert s.objective >= optimum.objective - 1e-9


def _on_cpus(monkeypatch, n: int) -> None:
    """Make `anneal_sample` see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
class TestAnnealWorkers:
    """Restart r runs in worker r % workers, workers = min(restarts, usable
    CPUs): the sample set is the same for any worker count, a share whose
    worker fails runs in the caller, and every call reaps the workers it
    forked, on return and on raise."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A call that hangs on its workers fails the test instead of the suite."""
        def expire(signum, frame):
            raise TimeoutError("anneal_sample did not return within 120 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture(scope="class")
    def models(self, case_study_pruned):
        rng = random.Random(31415)
        inst = waves.waves(3)
        inst = replace(inst, arcs=tuple(replace(a, cost=np.float64(a.cost)) for a in inst.arcs))
        numpy_costs = prune_model(expand_model(inst))
        return ([(case_study_pruned, AnnealParams(restarts=4)),
                 (case_study_pruned, AnnealParams(restarts=5)),   # an uneven split
                 (waves_model(3), AnnealParams(restarts=4, sweeps=100)),
                 # each restart writes about 2 KB: more than a pipe buffer a worker
                 (waves_model(8), AnnealParams(restarts=80, sweeps=1)),
                 # numpy costs make numpy energies, which marshal does not take
                 (numpy_costs, AnnealParams(restarts=4, sweeps=100))]
                + [(random_micro_model(rng), AnnealParams(restarts=2, sweeps=100))
                   for _ in range(10)])

    def _canonical(self, models) -> list[bytes]:
        out = []
        for model, params in models:
            out.append(anneal_sample(compile_hamiltonian(model), model, params,
                                     seed=1).canonical_bytes())
            _assert_no_child()
        return out

    def test_samples_do_not_depend_on_the_worker_count(self, models, monkeypatch):
        real_fork = os.fork
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        results = {}
        for cpus in (1, 2, 3):
            _on_cpus(monkeypatch, cpus)
            forks.clear()
            results[cpus] = self._canonical(models)
            assert len(forks) == sum(min(p.restarts, cpus) - 1 for _, p in models)
        assert results[2] == results[1]
        assert results[3] == results[1]

    def test_one_restart_never_forks(self, case_study_pruned, monkeypatch):
        _on_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one restart"))
        h = compile_hamiltonian(case_study_pruned)
        assert len(anneal_sample(h, case_study_pruned, AnnealParams(restarts=1)).samples) == 1

    @pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                             ids=["fork", "pipe"])
    def test_caller_runs_a_share_it_cannot_fork(self, call, code, case_study_pruned,
                                                monkeypatch):
        h = compile_hamiltonian(case_study_pruned)
        params = AnnealParams(restarts=5, sweeps=50)
        _on_cpus(monkeypatch, 1)
        expected = anneal_sample(h, case_study_pruned, params, seed=1).canonical_bytes()
        _on_cpus(monkeypatch, 3)
        real_call, calls = getattr(os, call), []

        def refuse_second():   # the system refuses the second worker its pipe or process
            calls.append(1)
            if len(calls) == 2:
                raise OSError(code, os.strerror(code))
            return real_call()
        monkeypatch.setattr(os, call, refuse_second)
        fds = len(os.listdir("/dev/fd"))
        assert anneal_sample(h, case_study_pruned, params, seed=1).canonical_bytes() == expected
        assert len(calls) == 2 and len(os.listdir("/dev/fd")) == fds
        _assert_no_child()

    def _fail_on(self, monkeypatch, failing_restart: int, fail) -> None:
        real_run = solvers._Chain.run

        def run(chain, sweeps, seed, restart, t_start, cooling):
            if restart == failing_restart:
                fail()
            return real_run(chain, sweeps, seed, restart, t_start, cooling)
        monkeypatch.setattr(solvers._Chain, "run", run)   # inherited by the fork

    @pytest.mark.parametrize("restart", [0, 1], ids=["caller", "worker"])
    def test_failure_reaches_the_caller(self, restart, monkeypatch):
        _on_cpus(monkeypatch, 2)

        def fail():
            raise ValueError(f"restart {restart} broke")
        self._fail_on(monkeypatch, restart, fail)
        model = waves_model(8)   # the other worker's samples overfill its pipe
        fds = len(os.listdir("/dev/fd"))
        with pytest.raises(ValueError, match=f"restart {restart} broke"):   # the same type
            anneal_sample(compile_hamiltonian(model), model,
                          AnnealParams(restarts=80, sweeps=1))
        assert len(os.listdir("/dev/fd")) == fds
        _assert_no_child()

    def test_unpicklable_failure_keeps_its_message(self, case_study_pruned, monkeypatch):
        """A worker's failure recurs in the caller, which runs the share
        itself, so the exception is raised as its own class."""
        _on_cpus(monkeypatch, 2)

        class Broke(Exception):   # a local class does not pickle
            pass

        def fail():
            raise Broke("restart 1 broke")
        self._fail_on(monkeypatch, 1, fail)
        h = compile_hamiltonian(case_study_pruned)
        fds = len(os.listdir("/dev/fd"))
        with pytest.raises(Broke, match="restart 1 broke"):
            anneal_sample(h, case_study_pruned, AnnealParams(restarts=2, sweeps=5))
        assert len(os.listdir("/dev/fd")) == fds
        _assert_no_child()

    def test_worker_ended_without_samples(self, case_study_pruned, monkeypatch):
        """A worker that dies costs time, not samples: the caller runs its share."""
        h = compile_hamiltonian(case_study_pruned)
        params = AnnealParams(restarts=5, sweeps=20)
        _on_cpus(monkeypatch, 1)
        expected = anneal_sample(h, case_study_pruned, params, seed=1).canonical_bytes()
        caller, ran = os.getpid(), []

        def die():
            if os.getpid() != caller:
                os._exit(3)
            ran.append(1)
        self._fail_on(monkeypatch, 1, die)
        for cpus in (2, 3):
            _on_cpus(monkeypatch, cpus)
            ran.clear()
            fds = len(os.listdir("/dev/fd"))
            assert anneal_sample(h, case_study_pruned, params,
                                 seed=1).canonical_bytes() == expected
            assert ran == [1]   # restart 1 ran again in the caller
            assert len(os.listdir("/dev/fd")) == fds
            _assert_no_child()

    def test_solve_survives_a_killed_worker(self, tmp_path, monkeypatch):
        """The worker of restarts 1 and 3 dies after restart 1: the run
        exits 0 and prints and writes what a 1-CPU run does."""
        def solve(cpus: int, out) -> tuple[int, str]:
            _on_cpus(monkeypatch, cpus)
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = cli.main(["solve", "--instance", "case-study", "--method", "anneal",
                                 "--samples", "4", "--seed", "7", "--out", str(out)])
            return code, stdout.getvalue()
        expected = solve(1, tmp_path / "one")
        caller = os.getpid()

        def die():
            if os.getpid() != caller:
                os._exit(3)
        self._fail_on(monkeypatch, 3, die)
        assert solve(2, tmp_path / "two") == expected and expected[0] == 0
        for name in ("histogram.csv", "solution.json", "vehicles.csv", "cargo.csv",
                     "inventory.csv"):
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
        _assert_no_child()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_each_share_runs_once_in_its_worker(self, cpus, case_study_pruned, monkeypatch):
        _on_cpus(monkeypatch, cpus)
        real_run, caller, ran = solvers._Chain.run, os.getpid(), []

        def run(chain, sweeps, seed, restart, t_start, cooling):
            if os.getpid() == caller:   # a worker's list is its own copy
                ran.append(restart)
            return real_run(chain, sweeps, seed, restart, t_start, cooling)
        monkeypatch.setattr(solvers._Chain, "run", run)
        h = compile_hamiltonian(case_study_pruned)
        sset = anneal_sample(h, case_study_pruned, AnnealParams(restarts=7, sweeps=5))
        assert sorted(s.restart_index for s in sset.samples) == list(range(7))
        assert ran == list(range(0, 7, cpus))
        _assert_no_child()


class TestNoCyclicGarbage:
    """A solver or front-end call frees its state on return: with the cyclic
    collector off, a call leaves nothing for it to find.  So the front end's
    builders, which run with the collector paused, delay no collection."""

    BUILDERS = ["parse_instance", "expand_model", "prune_model", "compile_hamiltonian",
                "parse_hamiltonian"]

    @pytest.fixture(scope="class")
    def calls(self):
        inst = waves.waves(2)
        text = serialize_instance(inst)
        expanded = expand_model(inst)
        model = prune_model(expanded)
        best = solve_exact(model).sample.assignment.values
        capacity = int(model.instance.capacity)
        cap_mass = {v.index: capacity * best[v.index] for v in model.variables
                    if v.kind == expansion.VEHICLE}
        h = compile_hamiltonian(model)
        poly = io.StringIO()
        export_hamiltonian(h, poly)
        return {
            "solve_exact": lambda: solve_exact(model),
            "find_feasible_flows": lambda: solvers.find_feasible_flows(expansion.Graph(model),
                                                                       cap_mass),
            "anneal_sample": lambda: anneal_sample(h, model, AnnealParams(restarts=3, sweeps=5),
                                                   seed=3),
            "serialize_instance": lambda: serialize_instance(inst),
            "parse_instance": lambda: parse_instance(text),
            "expand_model": lambda: expand_model(inst),
            "prune_model": lambda: prune_model(expanded),
            "compile_hamiltonian": lambda: compile_hamiltonian(model),
            "parse_hamiltonian": lambda: parse_hamiltonian(poly.getvalue()),
        }

    @pytest.mark.parametrize("name", ["solve_exact", "find_feasible_flows", "anneal_sample",
                                      "serialize_instance", *BUILDERS])
    def test_call_leaves_no_cycles(self, calls, name, monkeypatch):
        _on_cpus(monkeypatch, 2)   # the annealer forks a worker for its second restart
        call = calls[name]
        call()   # warm up, so one-time import and cache objects are not counted
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
    @pytest.mark.parametrize("name", BUILDERS)
    def test_builder_keeps_collector_state(self, calls, name, enabled):
        """No collection starts inside the builder, even at a threshold of
        one allocation, and the caller's collector state is restored."""
        code = inspect.unwrap(getattr(hamflow, name)).__code__
        inside = []

        def during(phase, info):
            if phase != "start":
                return
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            if frame is not None:
                inside.append(info["generation"])

        was_enabled, threshold = gc.isenabled(), gc.get_threshold()
        (gc.enable if enabled else gc.disable)()
        gc.callbacks.append(during)
        gc.set_threshold(1)
        try:
            calls[name]()
            assert gc.isenabled() is enabled
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(during)
            (gc.enable if was_enabled else gc.disable)()
        assert inside == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
    def test_state_restored_when_builder_raises(self, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(PolynomialFormatError):
                parse_hamiltonian("HAMILTONIAN v1 vars=1 alpha=1 offset=0 R=1\nLEVELS 1\n3 0 1\n")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
