"""Penalty-form polynomial Hamiltonian over nonnegative integer variables.

A Model compiles to H = P1 + alpha * P2 where P1 is the vehicle-cost
objective and P2 is the sum of squared equality residuals.  Each capacity
inequality  sum_k load_k * x - capacity * z <= 0  gains one integer slack s
with range {0 .. capacity * ub(z)} to become an equality before squaring.

H is stored as linear coefficients C_i, a symmetric quadratic map J_ij kept
once per unordered pair (i <= j, diagonal included), and a constant offset;
the polynomial degree never exceeds 2, and parse_hamiltonian rejects a
term of any other degree.

Variable order: all model decision variables first (model order), then one
slack per capacity constraint in constraint order.  Each variable carries a
`levels` count equal to its upper bound; the sum of all levels is exported
as R, the target device's level budget (metadata only -- classical solvers
ignore it).  R bounds the sum of a point's values; it is not an equality
that a feasible point meets.  The only point that sums to R sets every
variable to its top level: on the case study the optimum's lifted point
sums to 496 against R = 5,814.

Hamiltonian variables are values that are never mutated once built; like
the model's `Variable`, `HamiltonianVariable` is a slotted rather than a
frozen dataclass because a compile or parse builds one per variable.
`Hamiltonian` stays frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Sequence

from .expansion import Assignment, Model, _require_length, row_residuals
from .instance import HamflowError, _collector_paused

DECISION = "decision"
SLACK = "slack"


class CompileError(HamflowError):
    pass


class NonIntegerCoefficientError(CompileError):
    pass


@dataclass(slots=True, unsafe_hash=True)
class HamiltonianVariable:
    index: int
    origin: tuple | None     # ("decision", model variable index) or ("slack", constraint tag);
                             # None for variables re-read from a polynomial file
    levels: int              # the variable ranges over {0 .. levels}


@dataclass(frozen=True)
class Hamiltonian:
    variables: tuple[HamiltonianVariable, ...]
    linear: dict[int, float]                    # C_i
    quadratic: dict[tuple[int, int], float]     # J_ij, i <= j, stored once per pair
    offset: float
    alpha: float
    sum_constraint: float | None

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def num_decision_variables(self) -> int:
        return sum(1 for v in self.variables
                   if v.origin is not None and v.origin[0] == DECISION)

    def num_slack_variables(self) -> int:
        return sum(1 for v in self.variables
                   if v.origin is not None and v.origin[0] == SLACK)

    def total_levels(self) -> int:
        return sum(v.levels for v in self.variables)


def choose_alpha(model: Model) -> float:
    """One more than the largest objective value the bound box admits,
    so any unit constraint violation outweighs every feasible objective;
    inf when that overflows a float."""
    worst = 0.0
    try:
        for i, cost in model.objective:
            worst += cost * model.variables[i].upper_bound
    except OverflowError:   # a bound past the largest float: supplies sum past it
        return math.inf
    return 1.0 + worst


def _require_alpha(alpha: float) -> None:
    """Refuse a penalty multiplier that is not a positive finite number."""
    if not 0 < alpha < math.inf:     # NaN fails every comparison
        raise CompileError(f"alpha must be a positive finite number, got {alpha}")


@_collector_paused
def compile_hamiltonian(model: Model, alpha: float | None = None) -> Hamiltonian:
    """Expand P1 + alpha * P2 into linear/quadratic coefficients and offset."""
    if alpha is None:
        alpha = choose_alpha(model)   # inf when the costs overflow: reported below
    else:
        _require_alpha(alpha)

    for c in model.constraints:
        for i, coef in c.terms:
            if not isinstance(coef, int):
                raise NonIntegerCoefficientError(
                    f"constraint {c.tag}: coefficient {coef!r} on variable {i} is not an integer")
        if not isinstance(c.rhs, int):
            raise NonIntegerCoefficientError(f"constraint {c.tag}: rhs {c.rhs!r} is not an integer")

    variables = [HamiltonianVariable(v.index, (DECISION, v.index), v.upper_bound)
                 for v in model.variables]

    # equality rows: conservation rows verbatim, capacity rows with one slack
    # ranging over rhs minus the lowest value the row's left side takes within
    # the bounds (capacity * ub(z) for a capacity row)
    rows: list[tuple[tuple[tuple[int, int], ...], int]] = []
    ub = [v.upper_bound for v in model.variables]
    for c in model.constraints:
        if c.relation == "eq":
            rows.append((c.terms, c.rhs))
            continue
        levels = c.rhs - sum(coef * ub[i] for i, coef in c.terms if coef < 0)
        slack = HamiltonianVariable(len(variables), (SLACK, c.tag), levels)
        variables.append(slack)
        rows.append(((*c.terms, (slack.index, 1)), c.rhs))

    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    offset = 0.0
    for i, cost in model.objective:
        if cost != 0:
            linear[i] = linear.get(i, 0.0) + cost
    # scale * a and scale * b associate left to right as 2.0 * alpha * rhs * a
    # and 2.0 * alpha * a * b do, so each product rounds the same way
    two_alpha = 2.0 * alpha
    lget, qget = linear.get, quadratic.get
    for terms, rhs in rows:
        if rhs != 0:
            scale = two_alpha * rhs
            for i, a in terms:
                linear[i] = lget(i, 0.0) - scale * a
            offset += alpha * rhs * rhs
        rest = list(terms)   # the terms after (i, a)
        for i, a in terms:
            del rest[0]
            key = (i, i)
            quadratic[key] = qget(key, 0.0) + alpha * a * a
            scale = two_alpha * a
            for j, b in rest:
                key = (i, j) if i <= j else (j, i)
                quadratic[key] = qget(key, 0.0) + scale * b

    # a coefficient that cancelled is dropped; -0.0 == 0.0, so both signs are
    if 0.0 in linear.values():
        linear = {i: v for i, v in linear.items() if v != 0}
    if 0.0 in quadratic.values():
        quadratic = {k: v for k, v in quadratic.items() if v != 0}
    try:
        sum_constraint = float(sum(v.levels for v in variables))
    except OverflowError:
        sum_constraint = math.inf
    isfinite = math.isfinite
    if not (all(map(isfinite, (alpha, offset, sum_constraint)))
            and all(map(isfinite, linear.values())) and all(map(isfinite, quadratic.values()))):
        raise CompileError("costs or capacity too large: the Hamiltonian's coefficients "
                           "or level count overflow a float")
    h = Hamiltonian(variables=tuple(variables), linear=linear, quadratic=quadratic,
                    offset=offset, alpha=float(alpha), sum_constraint=sum_constraint)
    return h


def evaluate_energy(h: Hamiltonian, point: Sequence[float]) -> float:
    """offset + sum C_i p_i + sum J_ij p_i p_j over stored pairs."""
    if len(point) != h.num_variables:
        raise ValueError(f"point has {len(point)} values, Hamiltonian has "
                         f"{h.num_variables} variables")
    e = h.offset
    for i, c in h.linear.items():
        e += c * point[i]
    for (i, j), c in h.quadratic.items():
        e += c * point[i] * point[j]
    return e


def encode_assignment(h: Hamiltonian, model: Model, a: Assignment) -> list[int]:
    """Lift a model assignment to a Hamiltonian point, slacks set to the
    value minimizing their equality's squared residual (clamped to levels).

    Slacks pair with the model's `le` rows by position, following the
    variable order above, so a Hamiltonian re-read from a polynomial file
    lifts the same way as the compiled one."""
    _require_length(model, a)
    le_residuals = [r for c, r in zip(model.constraints, row_residuals(model, a.values))
                    if c.relation == "le"]
    slacks = h.variables[len(a.values):]
    if len(slacks) != len(le_residuals):
        raise ValueError(f"Hamiltonian has {len(slacks)} slack variables, model has "
                         f"{len(le_residuals)} inequality rows")
    return list(a.values) + [min(max(-r, 0), v.levels) for v, r in zip(slacks, le_residuals)]


def decode_point(h: Hamiltonian, model: Model, point: Sequence[float]) -> Assignment:
    """Round decision values half-away-from-zero, clamp to bounds, drop slacks.

    Raises ValueError when `point` does not hold one value per Hamiltonian
    variable, or when any value, a slack's included, is NaN or infinite; the
    message names that variable's index."""
    if len(point) != h.num_variables:
        raise ValueError("point length mismatch")
    point = [float(x) for x in point]
    for i, x in enumerate(point):
        if not math.isfinite(x):
            raise ValueError(f"point value of variable {i} is not finite: {x}")
    values = []
    for v in model.variables:
        x = point[v.index]
        r = int(math.copysign(math.floor(abs(x) + 0.5), x))
        values.append(min(max(r, 0), v.upper_bound))
    return Assignment(values=tuple(values))


def dynamic_range_db(h: Hamiltonian) -> float:
    """10*log10(max |coef| / min nonzero |coef|) over linear and quadratic
    coefficients; the offset does not participate.

    When the ratio overflows a float (the least coefficient subnormal), the
    difference of the two logarithms is returned instead, so the result is
    finite for every finite Hamiltonian."""
    magnitudes = [abs(c) for c in h.linear.values() if c != 0]
    magnitudes += [abs(c) for c in h.quadratic.values() if c != 0]
    if not magnitudes:
        raise ValueError("dynamic range undefined: Hamiltonian has no nonzero coefficients")
    hi, lo = max(magnitudes), min(magnitudes)
    ratio = hi / lo
    if ratio < math.inf:
        return 10.0 * math.log10(ratio)
    return 10.0 * (math.log10(hi) - math.log10(lo))


# --- polynomial file format ---------------------------------------------------
#
# line 1:  HAMILTONIAN v1 vars=<n> alpha=<a> offset=<o> R=<r>
# line 2:  LEVELS <l1> ... <ln>
# optional lines:  # <key> <value>          (metadata comments)
# then one line per nonzero term, sorted by (degree, indices):
#          1 <i> <coef>
#          2 <i> <j> <coef>                 (i <= j)
# Indices are 0-based; coefficients carry 17 significant digits.

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def export_hamiltonian(h: Hamiltonian, dest, metadata: dict[str, str] | None = None) -> None:
    """Write the polynomial file; byte-deterministic for identical inputs."""
    r = _fmt(h.sum_constraint) if h.sum_constraint is not None else "none"
    lines = [f"HAMILTONIAN v1 vars={h.num_variables} alpha={_fmt(h.alpha)} "
             f"offset={_fmt(h.offset)} R={r}\n",
             "LEVELS" + "".join(f" {v.levels}" for v in h.variables) + "\n"]
    lines += [f"# {key} {metadata[key]}\n" for key in sorted(metadata or {})]
    # a compiled Hamiltonian has few distinct coefficients: format each once.
    # Zeros are formatted apart, since -0.0 == 0.0 as a key but not as text
    linear, quadratic = h.linear, h.quadratic
    text = {x: _fmt(x) for x in {*linear.values(), *quadratic.values()} if x}
    for i in sorted(linear):
        x = linear[i]
        lines.append(f"1 {i} {text[x] if x else _fmt(x)}\n")
    for key in sorted(quadratic):
        x = quadratic[key]
        lines.append(f"2 {key[0]} {key[1]} {text[x] if x else _fmt(x)}\n")
    dest.write("".join(lines))


class PolynomialFormatError(HamflowError):
    pass


_HEADER_KEYS = {"vars", "alpha", "offset", "R"}


def _unwritten(tok: str) -> bool:
    """Whether `tok` is a number that int() or float() reads but export
    never writes: one holding a non-ASCII character (a fullwidth digit, say)
    or an underscore, or one that starts with '+'."""
    return not tok.isascii() or "_" in tok or tok[:1] == "+"


@_collector_paused
def parse_hamiltonian(text: str) -> Hamiltonian:
    """Re-read an exported polynomial file.

    Variable origins are not part of the format, so parsed variables carry
    origin None; coefficients, levels, alpha, offset, and R round-trip exactly.
    Only degree-1 and degree-2 terms are read; any other line, a token that
    is not a number as export writes one (`_unwritten`), an index outside
    [0, vars), a non-finite number, an alpha that is not positive, a
    negative level count, an R that no point of the levels sums to, a term
    given twice and a header whose keys are not vars, alpha, offset and R,
    each once, raise PolynomialFormatError.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("HAMILTONIAN v1 "):
        raise PolynomialFormatError("missing 'HAMILTONIAN v1' header")
    try:
        parts = lines[0].split()[2:]
        fields = dict(part.split("=", 1) for part in parts)
        if len(parts) != 4 or fields.keys() != _HEADER_KEYS \
                or any(map(_unwritten, fields.values())):
            raise ValueError(lines[0])
        n = int(fields["vars"])
        alpha = float(fields["alpha"])
        offset = float(fields["offset"])
        r = None if fields["R"] == "none" else float(fields["R"])
    except (KeyError, ValueError) as exc:
        raise PolynomialFormatError(f"bad header: {lines[0]!r}") from exc
    if not (alpha > 0 and all(map(math.isfinite, (alpha, offset, 0.0 if r is None else r)))):
        raise PolynomialFormatError(f"bad header: {lines[0]!r}")
    if len(lines) < 2 or not lines[1].startswith("LEVELS"):
        raise PolynomialFormatError("missing LEVELS line")
    levels = []
    for tok in lines[1].split()[1:]:
        try:
            level = int(tok)
        except ValueError:
            raise PolynomialFormatError(f"LEVELS entry {tok!r} is not an integer") from None
        if level < 0:
            raise PolynomialFormatError(f"LEVELS entry {tok!r} is negative")
        levels.append(level)
    if len(levels) != n:
        raise PolynomialFormatError(f"LEVELS lists {len(levels)} entries for {n} variables")
    # R is a sum of one value in 0..level per variable; compile writes
    # float(total), which past 2**53 may round above total
    total = sum(levels)
    if r is not None and not (r >= 0 and r == int(r) and (r <= total or r == float(total))):
        raise PolynomialFormatError(f"R={fields['R']} is not an integer in 0..{total}")

    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    values: dict[str, float] = {}   # each distinct coefficient token converted once
    vget = values.get
    comment_marks = 0   # underscores in comment lines, which may hold any text
    skipped = 0   # comment and blank lines
    for line in lines[2:]:
        tok = line.split()
        try:
            if len(tok) == 4 and tok[0] == "2":
                i, j = int(tok[1]), int(tok[2])
                if i > j:
                    raise PolynomialFormatError(f"quadratic indices out of order: {line!r}")
                key = i, j
                target = quadratic
            elif len(tok) == 3 and tok[0] == "1":
                key = int(tok[1])
                target = linear
            elif not tok or line[0] == "#":
                comment_marks += line.count("_")
                skipped += 1
                continue
            else:
                raise PolynomialFormatError(f"unrecognized term line: {line!r}")
            value = vget(tok[-1])
            if value is None:
                value = values[tok[-1]] = float(tok[-1])
                if not math.isfinite(value):
                    raise PolynomialFormatError(f"non-finite coefficient: {line!r}")
        except ValueError:
            raise PolynomialFormatError(f"unrecognized term line: {line!r}") from None
        target[key] = value

    # export writes ASCII only, with '_' only in comments and '+' only in
    # exponents: only a text with more is read again token by token
    if not text.isascii() or "+" in text or text.count("_") > comment_marks:
        for tok in lines[1].split()[1:]:
            if _unwritten(tok):
                raise PolynomialFormatError(f"LEVELS entry {tok!r} is not an integer")
        for line in lines[2:]:
            if line[:1] != "#" and any(map(_unwritten, line.split())):
                raise PolynomialFormatError(f"unrecognized term line: {line!r}")

    # export writes each term once: a repeat leaves fewer keys than term lines
    if len(linear) + len(quadratic) < len(lines) - 2 - skipped:
        seen = set()
        for line in lines[2:]:
            tok = line.split()
            if tok and line[0] != "#":
                key = tuple(map(int, tok[:-1]))
                if key in seen:
                    raise PolynomialFormatError(f"repeated term line: {line!r}")
                seen.add(key)

    # quadratic pairs are ordered, so the extremes are the least first and
    # the greatest second index; only a file that fails is walked in order
    lo = min(min(linear, default=0), min(quadratic, default=(0,))[0])
    hi = max(max(linear, default=0), max(map(itemgetter(1), quadratic), default=0))
    if lo < 0 or hi >= n:
        for idx in chain(linear, chain.from_iterable(quadratic)):
            if not 0 <= idx < n:
                raise PolynomialFormatError(f"term index {idx} out of range")
    return Hamiltonian(
        variables=tuple(HamiltonianVariable(i, None, lv) for i, lv in enumerate(levels)),
        linear=linear, quadratic=quadratic, offset=offset, alpha=alpha, sum_constraint=r)
