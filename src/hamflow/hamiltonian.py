"""Penalty-form polynomial Hamiltonian over nonnegative integer variables.

A Model compiles to H = P1 + alpha * P2 where P1 is the vehicle-cost
objective and P2 is the sum of squared equality residuals.  Each capacity
inequality  sum_k load_k * x - capacity * z <= 0  gains one integer slack s
with range {0 .. capacity * ub(z)} to become an equality before squaring.

H is stored as linear coefficients C_i, a symmetric quadratic map J_ij kept
once per unordered pair (i <= j, diagonal included), and a constant offset;
the polynomial degree never exceeds 2 for this compiler even though the
export format would admit degree 3..5 terms.

Variable order: all model decision variables first (model order), then one
slack per capacity constraint in constraint order.  Each variable carries a
`levels` count equal to its upper bound; the sum of all levels is exported
as the target-device sum constraint R (metadata only -- classical solvers
ignore it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .expansion import Assignment, Model, row_residuals

DECISION = "decision"
SLACK = "slack"


class CompileError(Exception):
    pass


class NonIntegerCoefficientError(CompileError):
    pass


@dataclass(frozen=True)
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
    so any unit constraint violation outweighs every feasible objective."""
    worst = 0.0
    for i, cost in model.objective:
        worst += cost * model.variables[i].upper_bound
    return 1.0 + worst


def compile_hamiltonian(model: Model, alpha: float | None = None) -> Hamiltonian:
    """Expand P1 + alpha * P2 into linear/quadratic coefficients and offset."""
    if alpha is None:
        alpha = choose_alpha(model)   # inf when the costs overflow: reported below
    elif not 0 < alpha < math.inf:     # NaN fails every comparison
        raise CompileError(f"alpha must be a positive finite number, got {alpha}")

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
    rows: list[tuple[list[tuple[int, int]], int]] = []
    ub = [v.upper_bound for v in model.variables]
    for c in model.constraints:
        if c.relation == "eq":
            rows.append((list(c.terms), c.rhs))
            continue
        levels = c.rhs - sum(coef * ub[i] for i, coef in c.terms if coef < 0)
        slack = HamiltonianVariable(len(variables), (SLACK, c.tag), levels)
        variables.append(slack)
        rows.append((list(c.terms) + [(slack.index, 1)], c.rhs))

    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    offset = 0.0
    for i, cost in model.objective:
        if cost != 0:
            linear[i] = linear.get(i, 0.0) + cost
    for terms, rhs in rows:
        for i, a in terms:
            if rhs != 0:
                linear[i] = linear.get(i, 0.0) - 2.0 * alpha * rhs * a
        for p in range(len(terms)):
            i, a = terms[p]
            quadratic[(i, i)] = quadratic.get((i, i), 0.0) + alpha * a * a
            for q in range(p + 1, len(terms)):
                j, b = terms[q]
                key = (i, j) if i <= j else (j, i)
                quadratic[key] = quadratic.get(key, 0.0) + 2.0 * alpha * a * b
        offset += alpha * rhs * rhs

    linear = {i: v for i, v in linear.items() if v != 0}
    quadratic = {k: v for k, v in quadratic.items() if v != 0}
    try:
        sum_constraint = float(sum(v.levels for v in variables))
    except OverflowError:
        sum_constraint = math.inf
    if not all(math.isfinite(x) for x in (alpha, offset, sum_constraint,
                                          *linear.values(), *quadratic.values())):
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
    if len(a.values) != len(model.variables):
        raise ValueError("assignment length mismatch")
    le_residuals = [r for c, r in zip(model.constraints, row_residuals(model, a.values))
                    if c.relation == "le"]
    slacks = h.variables[len(a.values):]
    if len(slacks) != len(le_residuals):
        raise ValueError(f"Hamiltonian has {len(slacks)} slack variables, model has "
                         f"{len(le_residuals)} inequality rows")
    return list(a.values) + [min(max(-r, 0), v.levels) for v, r in zip(slacks, le_residuals)]


def decode_point(h: Hamiltonian, model: Model, point: Sequence[float]) -> Assignment:
    """Round decision values half-away-from-zero, clamp to bounds, drop slacks."""
    if len(point) != h.num_variables:
        raise ValueError("point length mismatch")
    values = []
    for v in model.variables:
        x = float(point[v.index])
        r = int(math.copysign(math.floor(abs(x) + 0.5), x))
        values.append(min(max(r, 0), v.upper_bound))
    return Assignment(values=tuple(values))


def dynamic_range_db(h: Hamiltonian) -> float:
    """10*log10(max |coef| / min nonzero |coef|) over linear and quadratic
    coefficients; the offset does not participate."""
    magnitudes = [abs(c) for c in h.linear.values() if c != 0]
    magnitudes += [abs(c) for c in h.quadratic.values() if c != 0]
    if not magnitudes:
        raise ValueError("dynamic range undefined: Hamiltonian has no nonzero coefficients")
    return 10.0 * math.log10(max(magnitudes) / min(magnitudes))


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
    dest.write(f"HAMILTONIAN v1 vars={h.num_variables} alpha={_fmt(h.alpha)} "
               f"offset={_fmt(h.offset)} R={r}\n")
    dest.write("LEVELS" + "".join(f" {v.levels}" for v in h.variables) + "\n")
    for key in sorted(metadata or {}):
        dest.write(f"# {key} {metadata[key]}\n")
    for i in sorted(h.linear):
        dest.write(f"1 {i} {_fmt(h.linear[i])}\n")
    for i, j in sorted(h.quadratic):
        dest.write(f"2 {i} {j} {_fmt(h.quadratic[(i, j)])}\n")


class PolynomialFormatError(Exception):
    pass


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Re-read an exported polynomial file.

    Variable origins are not part of the format, so parsed variables carry
    origin None; coefficients, levels, alpha, offset, and R round-trip exactly.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("HAMILTONIAN v1 "):
        raise PolynomialFormatError("missing 'HAMILTONIAN v1' header")
    fields = dict(part.split("=", 1) for part in lines[0].split()[2:])
    try:
        n = int(fields["vars"])
        alpha = float(fields["alpha"])
        offset = float(fields["offset"])
        r = None if fields["R"] == "none" else float(fields["R"])
    except (KeyError, ValueError) as exc:
        raise PolynomialFormatError(f"bad header: {lines[0]!r}") from exc
    if len(lines) < 2 or not lines[1].startswith("LEVELS"):
        raise PolynomialFormatError("missing LEVELS line")
    levels = [int(tok) for tok in lines[1].split()[1:]]
    if len(levels) != n:
        raise PolynomialFormatError(f"LEVELS lists {len(levels)} entries for {n} variables")

    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    for line in lines[2:]:
        if not line.strip() or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "1" and len(tok) == 3:
            linear[int(tok[1])] = float(tok[2])
        elif tok[0] == "2" and len(tok) == 4:
            i, j = int(tok[1]), int(tok[2])
            if i > j:
                raise PolynomialFormatError(f"quadratic indices out of order: {line!r}")
            quadratic[(i, j)] = float(tok[3])
        else:
            raise PolynomialFormatError(f"unrecognized term line: {line!r}")
    for idx in list(linear) + [i for pair in quadratic for i in pair]:
        if not 0 <= idx < n:
            raise PolynomialFormatError(f"term index {idx} out of range")
    return Hamiltonian(
        variables=tuple(HamiltonianVariable(i, None, lv) for i, lv in enumerate(levels)),
        linear=linear, quadratic=quadratic, offset=offset, alpha=alpha, sum_constraint=r)
