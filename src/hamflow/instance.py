"""Problem instances for time-dependent multicommodity network flow.

An :class:`Instance` holds the static description of a space-logistics
network: depots (orbital locations), directed arcs with a per-vehicle cost
(delta-V, km/s) and an integer travel time, commodities with a per-unit load
size, a discrete horizon, a vehicle capacity, and a supply/demand schedule.

Instances are read and written as UTF-8 JSON documents with top-level keys
``depots``, ``arcs``, ``commodities``, ``horizon``, ``capacity``, and
``schedule``.  The reader checks the document's structure only: unknown
and repeated keys are rejected so that typos in hand-authored files surface
immediately, and each value is handed as read (an int, or a float literal
as the exact Decimal it writes) to the record that holds it.  The records
own every value rule, so a document and a constructor accept and refuse
the same values.  Depot, commodity and arc-end ids and depot labels are
strings: any other value is refused, not converted, so serializing a
parsed instance gives back the document read.
An id is one nonempty line free of ``,``, ``"`` and ``->`` (`_require_ids`),
the separators that variable names, row tags, report lines and diagnostics
join ids with, so each names one thing on one line, and is valid Unicode
text, which every writer can encode as UTF-8.  Labels are free text.

Schedule amounts are in mass units: positive entries are supply appearing at
a depot at a time step, negative entries are demand consumed there.  Loads
and the capacity are positive integers and every amount is a nonzero integer
multiple of its load size.  These, the horizon, times and travel times are
whole numbers under one rule (`_mass`): an int, or a float or Decimal that
names a whole number, held as that exact int no larger in magnitude than
the largest float, so that float() converts each.  Costs are under one rule
(`_cost`): a finite float >= 0, given as a float, a Decimal or an int a
float holds exactly.
Time steps are 1-based, ``t in {1..horizon}``.  Each step of the time
expansion makes at most |arcs| x (|commodities| + 1) variables and walks
|depots| network nodes, and the reports write a column for it, so an
instance is rejected when (|arcs| + |depots| + 1) x (|commodities| + 1) x
horizon, which no instance makes zero, exceeds MAX_EXPANDED_VARIABLES.

The front end's table builders (`parse_instance` here, `expand_model`,
`prune_model`, `compile_hamiltonian` and `parse_hamiltonian`) run with
CPython's cyclic garbage collector paused (`_collector_paused`).  On large
instances each allocates tens of thousands of records, tuples and dicts,
enough to start many young collections and now and then a full one, yet
none of them builds a reference cycle: everything they allocate is freed
by reference counting, so a collection inside them can only traverse live
tables and free nothing.  The pause restores the caller's collector state
on return and on raise.  The state is process-wide, so a thread running
alongside sees the collector paused for the duration of the call.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources
from json.encoder import encode_basestring_ascii
from typing import Iterable

# Expansion builds about 8-9 us and 0.7 KB per variable, rows included
# (waves instances of 2k-19k variables, 2-core Xeon host, Python 3.11), and
# an annealer restart makes one cycle move per flow variable a sweep over 300
# sweeps by default: well past this size no back-end finishes, and a horizon
# like 1e300 would expand without end.  The bound is on
# (|arcs| + |depots| + 1) x (|commodities| + 1) x horizon (`Instance._check`):
# the network's (depot, t) nodes and the reports' columns grow with the
# horizon too, even with no arc or commodity.
MAX_EXPANDED_VARIABLES = 100_000

# choose_alpha and compile_hamiltonian multiply masses into floats, and float()
# of an int above the largest float raises OverflowError; an int compares with
# it exactly
_MASS_BOUND = sys.float_info.max


def ordered_sum(values: Iterable, start=0):
    """start + v0 + v1 + ..., added strictly left to right.

    From Python 3.12 on, `sum()` compensates the rounding of float sums, so
    a float total that reaches an output would change with the interpreter
    version; every such total goes through here instead."""
    total = start
    for v in values:
        total += v
    return total


def _collector_paused(fn):
    """`fn` run with the cyclic garbage collector paused, and the caller's
    collector state (on or off) restored when it returns or raises."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class HamflowError(Exception):
    """Base of every error hamflow raises for an input it refuses: the CLI
    prints one as a single `hamflow:` line and exits 1."""


class InstanceError(HamflowError):
    """Base class for instance construction and parsing failures."""


class InstanceSyntaxError(InstanceError):
    """Malformed JSON; carries the line/column of the first offending byte."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InstanceSchemaError(InstanceError):
    """Structurally valid JSON that does not conform to the instance schema."""


class DuplicateIdError(InstanceSchemaError):
    pass


class UnknownIdError(InstanceSchemaError):
    pass


@dataclass(frozen=True)
class Depot:
    id: str
    label: str

    def __post_init__(self):
        _require_ids(("id", self.id), where="depot")
        if not isinstance(self.label, str):
            raise InstanceSchemaError(f"depot label must be a string, got {self.label!r}")


@dataclass(frozen=True)
class Arc:
    origin: str           # tail depot id
    dest: str             # head depot id
    cost: float           # per-vehicle cost, km/s
    travel_time: int      # time steps, >= 1

    def __post_init__(self):
        _require_ids(("origin", self.origin), ("dest", self.dest), where="arc")
        if self.origin == self.dest:
            raise InstanceSchemaError(f"arc {self.key()}: self-loops not allowed")
        object.__setattr__(self, "cost", _cost(self.cost, f"arc {self.key()}: cost"))
        _require_whole(self, "travel_time", f"arc {self.key()}: ", positive=True)

    def key(self) -> str:
        return arc_key(self.origin, self.dest)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.origin, self.dest)


@dataclass(frozen=True)
class Commodity:
    id: str
    load: int             # mass units per unit of flow, > 0

    def __post_init__(self):
        _require_ids(("id", self.id), where="commodity")
        _require_whole(self, "load", f"commodity {self.id}: ", positive=True)


@dataclass(frozen=True)
class ScheduleEntry:
    depot: str
    commodity: str
    time: int             # 1-based step
    amount: int           # mass units; > 0 supply, < 0 demand

    def __post_init__(self):
        _require_ids(("depot", self.depot), ("commodity", self.commodity),
                     where="schedule entry")
        _require_whole(self, "time", f"schedule entry ({self.depot}, {self.commodity}): ")
        where = f"schedule entry ({self.depot}, {self.commodity}, t={self.time})"
        _require_whole(self, "amount", f"{where}: ")
        if self.amount == 0:
            raise InstanceSchemaError(f"{where}: zero amounts are rejected, drop the entry instead")


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance; safe to share across threads."""

    depots: tuple[Depot, ...]
    arcs: tuple[Arc, ...]
    commodities: tuple[Commodity, ...]
    horizon: int
    capacity: int
    schedule: tuple[ScheduleEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "depots", tuple(self.depots))
        object.__setattr__(self, "arcs", tuple(self.arcs))
        object.__setattr__(self, "commodities", tuple(self.commodities))
        object.__setattr__(self, "schedule", tuple(self.schedule))
        self._check()

    def _check(self):
        _require_whole(self, "horizon", positive=True)
        arcs, depots, commodities = len(self.arcs), len(self.depots), len(self.commodities)
        per_step = (arcs + depots + 1) * (commodities + 1)
        if per_step * self.horizon > MAX_EXPANDED_VARIABLES:
            raise InstanceSchemaError(
                f"horizon exceeds {MAX_EXPANDED_VARIABLES // per_step}: ({arcs} arcs + "
                f"{depots} depots + 1) x ({commodities} commodities + 1) = {per_step} a step "
                f"would expand to more than {MAX_EXPANDED_VARIABLES} variables")
        _require_whole(self, "capacity", positive=True)
        depot_ids = [d.id for d in self.depots]
        if len(set(depot_ids)) != len(depot_ids):
            dup = _first_duplicate(depot_ids)
            raise DuplicateIdError(f"duplicate depot id {dup!r}")
        commodity_ids = [c.id for c in self.commodities]
        if len(set(commodity_ids)) != len(commodity_ids):
            dup = _first_duplicate(commodity_ids)
            raise DuplicateIdError(f"duplicate commodity id {dup!r}")
        pairs = [a.pair for a in self.arcs]
        if len(set(pairs)) != len(pairs):
            dup = _first_duplicate(pairs)
            raise DuplicateIdError(f"duplicate arc {arc_key(*dup)}")
        known_depots = set(depot_ids)
        loads = {c.id: c.load for c in self.commodities}
        for a in self.arcs:
            for end in a.pair:
                if end not in known_depots:
                    raise UnknownIdError(f"arc {a.key()} references undeclared depot {end!r}")
            if a.travel_time > self.horizon:
                raise InstanceSchemaError(
                    f"arc {a.key()}: travel_time {a.travel_time} exceeds horizon {self.horizon}")
        seen_entries = set()
        for e in self.schedule:
            if e.depot not in known_depots:
                raise UnknownIdError(f"schedule entry references undeclared depot {e.depot!r}")
            if e.commodity not in loads:
                raise UnknownIdError(f"schedule entry references undeclared commodity {e.commodity!r}")
            if not 1 <= e.time <= self.horizon:
                raise InstanceSchemaError(
                    f"schedule entry ({e.depot}, {e.commodity}): time {e.time} outside [1, {self.horizon}]")
            load = loads[e.commodity]
            if e.amount % load:
                raise InstanceSchemaError(
                    f"schedule entry ({e.depot}, {e.commodity}, t={e.time}): amount {e.amount} "
                    f"is not an integer multiple of the load size {load}")
            k = (e.depot, e.commodity, e.time)
            if k in seen_entries:
                raise DuplicateIdError(
                    f"duplicate schedule entry ({e.depot}, {e.commodity}, t={e.time})")
            seen_entries.add(k)

    # --- lookups -----------------------------------------------------------

    def commodity(self, commodity_id: str) -> Commodity:
        for c in self.commodities:
            if c.id == commodity_id:
                return c
        raise UnknownIdError(f"no commodity {commodity_id!r}")

    def arc(self, origin: str, dest: str) -> Arc:
        for a in self.arcs:
            if a.pair == (origin, dest):
                return a
        raise UnknownIdError(f"no arc {arc_key(origin, dest)}")

    def schedule_amount(self, depot: str, commodity: str, time: int) -> int:
        """Supply (+) or demand (-) mass at (depot, commodity, time); 0 if unscheduled."""
        for e in self.schedule:
            if (e.depot, e.commodity, e.time) == (depot, commodity, time):
                return e.amount
        return 0

    def out_arcs(self, depot_id: str) -> list[Arc]:
        return [a for a in self.arcs if a.origin == depot_id]

    def in_arcs(self, depot_id: str) -> list[Arc]:
        return [a for a in self.arcs if a.dest == depot_id]


@dataclass(frozen=True)
class Finding:
    kind: str             # "mass_balance" | "unreachable_demand"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


# --- parsing / serialization ----------------------------------------------

_TOP_KEYS = {"depots", "arcs", "commodities", "horizon", "capacity", "schedule"}


def _require_keys(obj: dict, keys: set[str], where: str):
    """Raise unless `obj` has exactly `keys`, reporting unknown keys first."""
    unknown = set(obj) - keys
    if unknown:
        raise InstanceSchemaError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = keys - set(obj)
    if missing:
        raise InstanceSchemaError(f"{where}: missing key(s) {sorted(missing)}")


def _objects(doc: dict, section: str) -> list[dict]:
    """The list of objects under `section`, each entry type-checked so that
    a null or a number in the list is reported rather than iterated."""
    entries = doc[section]
    if not isinstance(entries, list):
        raise InstanceSchemaError(f"{section}: expected a list of objects, got {entries!r}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InstanceSchemaError(f"{section}[{i}]: expected an object, got {entry!r}")
    return entries


class _Literal(Decimal):
    """A JSON float literal, read exactly; its repr is its str, so that a
    refusal shows 1E+400 and not Decimal('1E+400')."""
    __repr__ = Decimal.__str__


def _load_json(text: str):
    """json.loads, with malformed JSON, JSON nested deeper than the decoder
    allows (reported at the document's start), an integer literal longer
    than Python converts (4300 digits) and an object that repeats a key
    raised as InstanceErrors, and float literals read as exact `_Literal`s."""
    try:
        return json.loads(text, parse_float=_Literal, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise InstanceSyntaxError("JSON nested deeper than the decoder allows", 1, 1) from exc
    except ValueError as exc:   # its advice on interpreter settings is dropped
        raise InstanceSchemaError(f"unreadable number: {str(exc).split(';')[0]}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a repeated key is refused, not overwritten."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InstanceSchemaError(f"key {key!r} is repeated in a JSON object")
            seen.add(key)
    return doc


@_collector_paused
def parse_instance(text: str) -> Instance:
    """Parse an instance document (JSON text) into a validated Instance."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise InstanceSchemaError("instance document must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "instance document")

    depots = []
    for i, d in enumerate(_objects(doc, "depots")):
        _require_keys(d, {"id", "label"}, f"depots[{i}]")
        depots.append(Depot(id=d["id"], label=d["label"]))
    arcs = []
    for i, a in enumerate(_objects(doc, "arcs")):
        _require_keys(a, {"from", "to", "cost", "travel_time"}, f"arcs[{i}]")
        arcs.append(Arc(origin=a["from"], dest=a["to"], cost=a["cost"],
                        travel_time=a["travel_time"]))
    commodities = []
    for i, c in enumerate(_objects(doc, "commodities")):
        _require_keys(c, {"id", "load"}, f"commodities[{i}]")
        commodities.append(Commodity(id=c["id"], load=c["load"]))
    schedule = []
    for i, e in enumerate(_objects(doc, "schedule")):
        _require_keys(e, {"depot", "commodity", "time", "amount"}, f"schedule[{i}]")
        schedule.append(ScheduleEntry(depot=e["depot"], commodity=e["commodity"],
                                      time=e["time"], amount=e["amount"]))

    return Instance(depots=tuple(depots), arcs=tuple(arcs), commodities=tuple(commodities),
                    horizon=doc["horizon"], capacity=doc["capacity"], schedule=tuple(schedule))


_DEPOT = '    {\n      "id": %s,\n      "label": %s\n    }'
_ARC = ('    {\n      "from": %s,\n      "to": %s,\n      "cost": %s,\n'
        '      "travel_time": %s\n    }')
_COMMODITY = '    {\n      "id": %s,\n      "load": %s\n    }'
_ENTRY = ('    {\n      "depot": %s,\n      "commodity": %s,\n      "time": %s,\n'
          '      "amount": %s\n    }')
_PLAIN = {str: encode_basestring_ascii, int: repr, float: repr}


def json_scalar(value) -> str:
    """What json.dumps writes for one field: a str through json's C
    `encode_basestring_ascii`, an int or a finite float through `repr`, and
    anything else (a float subclass such as numpy's float64) through
    json.dumps itself."""
    write = _PLAIN.get(type(value))
    return write(value) if write else json.dumps(value)


def json_section(key: str, records: list[str]) -> str:
    """What json.dumps(..., indent=2) writes for the top-level key `key`
    holding a list, each of whose items `records` holds already indented."""
    if not records:
        return f'  "{key}": []'
    return f'  "{key}": [\n' + ",\n".join(records) + "\n  ]"


def serialize_instance(inst: Instance) -> str:
    """Inverse of parse_instance: parse(serialize(inst)) == inst field-for-field.

    Writes the layout of `json.dumps(doc, indent=2)` plus a newline, byte for
    byte, from one template per record and `json_scalar` per field; an
    Instance holds no non-finite number, which json.dumps would write as NaN
    or Infinity."""
    j = json_scalar
    return "{\n" + ",\n".join((
        json_section("depots", [_DEPOT % (j(d.id), j(d.label)) for d in inst.depots]),
        json_section("arcs", [_ARC % (j(a.origin), j(a.dest), j(a.cost), j(a.travel_time))
                              for a in inst.arcs]),
        json_section("commodities",
                     [_COMMODITY % (j(c.id), j(c.load)) for c in inst.commodities]),
        f'  "horizon": {j(inst.horizon)}',
        f'  "capacity": {j(inst.capacity)}',
        json_section("schedule", [_ENTRY % (j(e.depot), j(e.commodity), j(e.time), j(e.amount))
                                  for e in inst.schedule]),
    )) + "\n}\n"


def _require_ids(*fields: tuple[str, object], where: str) -> None:
    """Refuse an id that is not a string (none is coerced into one), not
    one nonempty line free of ',', '"' and '->', or not UTF-8 encodable (a
    lone surrogate, which every writer would fail on), showing it with repr."""
    for name, value in fields:
        if not isinstance(value, str):
            raise InstanceSchemaError(f"{where} {name} must be a string, got {value!r}")
        if "," in value or '"' in value or "->" in value or value.splitlines() != [value]:
            bad = next((s for s in (",", '"', "->") if s in value), None)
            rule = "must be one nonempty line" if bad is None else f"must not contain {bad!r}"
            raise InstanceSchemaError(f"{where} {name} {value!r} {rule}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InstanceSchemaError(
                f"{where} {name} {value!r} must be valid Unicode text") from exc


def _is_int(value) -> bool:
    """An int that is not a bool, which JSON would write as true or false."""
    return isinstance(value, int) and not isinstance(value, bool)


def _mass(value) -> int | None:
    """The one whole-number rule: `value` as an exact int no larger in
    magnitude than the largest float, an int as it is and a float or
    Decimal that names a whole number as that int; None for anything else.
    The magnitude is compared before any conversion: int() of
    Decimal('1e999999999') would not end."""
    if not (_is_int(value) or isinstance(value, (float, Decimal))):
        return None
    if isinstance(value, Decimal) and value.is_nan() or not -_MASS_BOUND <= value <= _MASS_BOUND:
        return None   # a float NaN fails the comparison
    whole = int(value)
    return whole if whole == value else None


def _require_whole(record, field: str, where: str = "", positive: bool = False) -> None:
    """Store `record`'s `field` as the int `_mass` gives for it, or refuse
    the value, or a value below 1 when `positive` is set, in one line that
    `where` begins."""
    value = getattr(record, field)
    whole = _mass(value)
    if whole is None or positive and whole < 1:
        kind = "a positive integer" if positive else "an integer"
        raise InstanceSchemaError(
            f"{where}{field} must be {kind} within float range, got {value!r}")
    object.__setattr__(record, field, whole)


def _cost(value, what: str) -> float:
    """The one cost rule, for `Arc` and `load_cost_map`: `value` as the
    finite float >= 0 that a float, a Decimal or an int a float holds
    exactly names; anything else, a bool or an int a float would round
    included, is refused in one line that `what` begins."""
    cost = math.nan
    if _is_int(value) or isinstance(value, (float, Decimal)):
        try:
            cost = float(value)
        except (OverflowError, ValueError):   # an int past the largest float, a signaling NaN
            pass
    if not 0 <= cost < math.inf or _is_int(value) and cost != value:
        raise InstanceSchemaError(
            f"{what} must be a finite number >= 0 that a float holds, got {value!r}")
    return cost


def _first_duplicate(items: Iterable):
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


# --- validation -------------------------------------------------------------

def mass_balance_findings(inst: Instance) -> list[Finding]:
    """One finding per commodity whose scheduled masses do not cancel."""
    findings = []
    for c in inst.commodities:
        balance = sum(e.amount for e in inst.schedule if e.commodity == c.id)
        if balance:
            findings.append(Finding(
                "mass_balance",
                f"commodity {c.id}: scheduled amounts sum to {balance:+d}, not 0; "
                "instance is infeasible by mass balance"))
    return findings


def validate_instance(inst: Instance) -> ValidationReport:
    """Semantic checks beyond structure; findings, never exceptions.

    Reports (a) commodities whose scheduled supply and demand masses do not
    cancel, and (b) demands scheduled before any mass of that commodity could
    first arrive at the depot (the earliest presence of `presence_windows`).
    """
    findings = mass_balance_findings(inst)
    windows = presence_windows(inst)
    for c in inst.commodities:
        earliest, _ = windows[c.id]
        for e in inst.schedule:
            if e.commodity != c.id or e.amount >= 0:
                continue
            if e.time < earliest[e.depot]:
                findings.append(Finding(
                    "unreachable_demand",
                    f"({e.depot}, {e.commodity}, t={e.time}): demand precedes the earliest "
                    f"possible arrival (t={earliest[e.depot]})"))
    return ValidationReport(findings=tuple(findings))


def presence_windows(inst: Instance) -> dict[str, tuple[dict[str, float], dict[str, float]]]:
    """Per commodity id, its (earliest, latest) maps over depot ids: the
    earliest step at which any of its supply can be present at the depot,
    and the latest step at which mass there can still reach one of its
    demands, each an int step; inf and -inf where there is no such step.
    Both come from the all-pairs shortest travel times (Floyd-Warshall) and
    ignore capacities, so no feasible flow has useful mass at a depot
    outside its window."""
    ids = [d.id for d in inst.depots]
    dist = {(i, j): (0 if i == j else math.inf) for i in ids for j in ids}
    for a in inst.arcs:
        dist[a.pair] = min(dist[a.pair], a.travel_time)
    for m in ids:
        for i in ids:
            dim = dist[(i, m)]
            if dim == math.inf:
                continue
            for j in ids:
                alt = dim + dist[(m, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt

    windows = {}
    for c in inst.commodities:
        supplies = [(e.depot, e.time) for e in inst.schedule
                    if e.commodity == c.id and e.amount > 0]
        demands = [(e.depot, e.time) for e in inst.schedule
                   if e.commodity == c.id and e.amount < 0]
        earliest = {d: min((t0 + dist[(origin, d)] for origin, t0 in supplies),
                           default=math.inf) for d in ids}
        latest = {d: max((td - dist[(d, sink)] for sink, td in demands),
                         default=-math.inf) for d in ids}
        windows[c.id] = (earliest, latest)
    return windows


# --- case study --------------------------------------------------------------

CASE_STUDY_DEPOTS = (
    ("N1", "Earth"), ("N2", "LEO"), ("N3", "LTO"), ("N4", "LLO"),
    ("N5", "LS"), ("N6", "LMO"), ("N7", "Mars"),
)

CASE_STUDY_ARCS = (
    ("N1", "N2"), ("N2", "N3"), ("N2", "N4"), ("N3", "N6"),
    ("N3", "N4"), ("N4", "N5"), ("N6", "N7"), ("N4", "N3"),
)

# (depot, commodity, time, mass)
CASE_STUDY_SCHEDULE = (
    ("N1", "L1", 1, 40), ("N1", "L1", 2, 60),
    ("N1", "L2", 1, 80), ("N1", "L2", 2, 120),
    ("N5", "L1", 5, -20), ("N5", "L1", 6, -30),
    ("N5", "L2", 5, -40), ("N5", "L2", 6, -60),
    ("N7", "L1", 5, -20), ("N7", "L1", 6, -30),
    ("N7", "L2", 5, -40), ("N7", "L2", 6, -60),
)


def arc_key(origin: str, dest: str) -> str:
    return f"{origin}->{dest}"


def parse_arc_key(key: str) -> tuple[str, str]:
    parts = key.split("->")
    if len(parts) != 2 or not all(parts):
        raise InstanceSchemaError(f"bad arc key {key!r}, expected 'Ni->Nj'")
    return (parts[0], parts[1])


def build_case_study(costs: dict[str, float]) -> Instance:
    """Earth-Moon-Mars benchmark: 7 depots, 8 unit-travel-time arcs,
    commodities L1 (load 10) and L2 (load 20), vehicle capacity 100,
    horizon 6, and the fixed supply/demand schedule.

    `costs` maps every arc key 'Ni->Nj' to its per-vehicle cost, which
    `Arc` checks.
    """
    known = {arc_key(o, d) for (o, d) in CASE_STUDY_ARCS}
    extra = set(costs) - known
    if extra:
        raise InstanceSchemaError(f"unknown case-study arc(s) in cost map: {sorted(extra)}")
    missing = known - set(costs)
    if missing:
        raise InstanceSchemaError(f"missing cost for case-study arc(s): {sorted(missing)}")
    return Instance(
        depots=tuple(Depot(i, label) for i, label in CASE_STUDY_DEPOTS),
        arcs=tuple(Arc(o, d, costs[arc_key(o, d)], 1) for (o, d) in CASE_STUDY_ARCS),
        commodities=(Commodity("L1", 10), Commodity("L2", 20)),
        horizon=6,
        capacity=100,
        schedule=tuple(ScheduleEntry(*entry) for entry in CASE_STUDY_SCHEDULE),
    )


def load_cost_map(text: str) -> dict[str, float]:
    """Parse an arc-cost map: a JSON object of 'Ni->Nj' keys to costs,
    each under `Arc`'s cost rule."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise InstanceSchemaError("cost map must be a JSON object")
    out = {}
    for k, v in doc.items():
        parse_arc_key(k)
        out[k] = _cost(v, f"cost for {k}")
    return out


def default_case_study_costs() -> dict[str, float]:
    """The committed per-arc cost fixture for the case study."""
    text = resources.files("hamflow.data").joinpath("case_study_costs.json").read_text("utf-8")
    return load_cost_map(text)
