"""Spans around the public functions of hamflow, recorded from outside.

`Instrument.install(trace=True)` replaces each listed function, wherever a
hamflow module binds it, with a wrapper that records a span (name, start,
end, parent, operation) and the work counts derived from the call.  Spans
stay in memory until `write` dumps them.  Functions named in `capture` also
keep their arguments and results, so a workload can check what it timed;
`install(trace=False)` wraps only those and records no span.

Only module attributes inside the hamflow package are replaced.  Names the
benchmark's own modules imported before installation stay bound to the
original functions, so checks that call them record no span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

import hamflow.cli
import hamflow.expansion
import hamflow.hamiltonian
import hamflow.instance
import hamflow.solvers

MODULES = {
    "instance": hamflow.instance,
    "expansion": hamflow.expansion,
    "hamiltonian": hamflow.hamiltonian,
    "solvers": hamflow.solvers,
    "cli": hamflow.cli,
}

# layer -> public functions traced in it
TRACED = {
    "instance": ("parse_instance", "serialize_instance", "validate_instance",
                 "build_case_study", "default_case_study_costs"),
    "expansion": ("expand_model", "prune_model", "verify_assignment", "evaluate_objective"),
    "hamiltonian": ("compile_hamiltonian", "export_hamiltonian", "parse_hamiltonian",
                    "encode_assignment", "evaluate_energy", "dynamic_range_db"),
    "solvers": ("solve_exact", "anneal_sample", "postprocess_flows", "summarize_samples"),
    "cli": ("main", "render_reports", "emit_histogram"),
}


def _counts_of(name: str, args: tuple, result) -> dict[str, float]:
    """Work counts read off one call, keyed by per-layer metric name."""
    if name == "instance.parse_instance":
        return {"instance.doc_bytes": len(args[0].encode("utf-8"))}
    if name == "expansion.expand_model":
        return {"expansion.vars_expanded": len(result.variables)}
    if name == "expansion.prune_model":
        return {"expansion.vars_kept": len(result.variables),
                "expansion.rows": len(result.constraints)}
    if name == "hamiltonian.compile_hamiltonian":
        return {"hamiltonian.vars": result.num_variables,
                "hamiltonian.levels": result.total_levels(),
                "hamiltonian.quad_terms": len(result.quadratic)}
    if name == "solvers.solve_exact":
        return {"solvers.exact_nodes": result.nodes}
    if name == "solvers.anneal_sample":
        params = result.params
        return {"solvers.anneal_restarts": params.restarts,
                "solvers.anneal_proposals": params.restarts * params.sweeps * len(args[1].variables)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Instrument:
    """Wraps hamflow's public functions for one operation at a time."""
    capture: tuple[str, ...] = ()
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, dict[str, float]] = field(default_factory=dict)
    captured: dict[str, list] = field(default_factory=dict)
    op: int = 0
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self, trace: bool) -> None:
        for layer, names in TRACED.items():
            for fn_name in names:
                qualified = f"{layer}.{fn_name}"
                if not trace and qualified not in self.capture:
                    continue
                original = getattr(MODULES[layer], fn_name)
                wrapper = self._wrap(qualified, original, trace)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "hamflow":
                        continue
                    if getattr(mod, fn_name, None) is original:
                        self._restore.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            mod, fn_name, original = self._restore.pop()
            setattr(mod, fn_name, original)

    def _wrap(self, name: str, fn, trace: bool):
        keep = name in self.capture

        @functools.wraps(fn)
        def capture_only(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.captured.setdefault(name, []).append((args, result))
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                self.captured.setdefault(name, []).append((args, result))
            self.count(_counts_of(name, args, result))
            return result
        return traced if trace else capture_only

    def count(self, values: dict[str, float]) -> None:
        """Add work counts to the current operation."""
        op_counts = self.counts.setdefault(self.op, {})
        for key, value in values.items():
            op_counts[key] = op_counts.get(key, 0) + value

    def take(self, name: str) -> list:
        """Captured (args, result) pairs of `name` since the last take."""
        return self.captured.pop(name, [])

    def per_op(self, ops: list[int]) -> dict[int, dict[str, float]]:
        """Per operation: inclusive seconds per function, self seconds per
        layer (time in the layer's spans not covered by child spans), and
        the counts recorded during the operation."""
        out = {op: {f"{layer}.self_s": 0.0 for layer in TRACED} for op in ops}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            if s.op not in out:
                continue
            row = out[s.op]
            duration = s.end - s.start
            row[s.name] = row.get(s.name, 0.0) + duration
            layer = s.name.split(".")[0]
            row[f"{layer}.self_s"] += duration - child_time[i]
        for op in ops:
            out[op].update(self.counts.get(op, {}))
        return out

    def write(self, path) -> None:
        spans = [{"name": s.name, "start": s.start, "end": s.end,
                  "parent": s.parent, "op": s.op} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)
