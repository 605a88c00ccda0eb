"""Correctness checks the benchmark computes itself.

None of these calls hamflow's own verification: a bug there must not be able
to pass its own output.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from hamflow.expansion import Model

REL_TOL = 1e-6
# At a feasible point the offset and penalty terms of H, of total size S,
# cancel down to the objective; rounding in the float coefficients leaves an
# error of order 1e-16 * S (at most 7e-16 * S measured up to waves(40)).
# 1e-14 * S leaves headroom and stays below the cheapest arc cost (0.85) there.
ENERGY_CANCEL_TOL = 1e-14
_NON_FINITE = re.compile(r"(?<![A-Za-z0-9_])[-+]?(nan|inf(inity)?)(?![A-Za-z0-9_])", re.IGNORECASE)


def objective(model: Model, values) -> float:
    return sum(cost * values[i] for i, cost in model.objective)


def residual_ok(model: Model, values) -> bool:
    """Every bound and every row of `model.constraints` holds exactly."""
    if len(values) != len(model.variables):
        return False
    if any(not 0 <= values[v.index] <= v.upper_bound for v in model.variables):
        return False
    for c in model.constraints:
        lhs = sum(coef * values[i] for i, coef in c.terms)
        if c.relation == "eq" and lhs != c.rhs:
            return False
        if c.relation == "le" and lhs > c.rhs:
            return False
        if c.relation not in ("eq", "le"):
            return False
    return True


def close(value: float, reference: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= REL_TOL * abs(reference)


def energy_scale(h, point) -> float:
    """S: the summed magnitude of every term of H at `point`."""
    return (abs(h.offset) + sum(abs(c * point[i]) for i, c in h.linear.items())
            + sum(abs(c * point[i] * point[j]) for (i, j), c in h.quadratic.items()))


def energy_close(energy: float, objective: float, scale: float) -> bool:
    """The energy of a feasible point equals its objective, up to rounding."""
    return (math.isfinite(energy)
            and abs(energy - objective) <= REL_TOL * abs(objective) + ENERGY_CANCEL_TOL * scale)


def finite_text(text: str) -> bool:
    """No NaN or infinity token anywhere in an output."""
    return _NON_FINITE.search(text) is None


def finite_files(directory: Path) -> tuple[bool, int]:
    """(no file holds a non-finite token, total bytes) over `directory`."""
    ok, size = True, 0
    for path in sorted(directory.iterdir()):
        text = path.read_text(encoding="utf-8")
        ok = ok and finite_text(text)
        size += len(text.encode("utf-8"))
    return ok, size
