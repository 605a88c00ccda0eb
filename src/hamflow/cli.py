"""Command-line front end.

    hamflow validate --instance PATH [--costs PATH] [--out DIR] [--format csv|json]
    hamflow compile  (validate's options) [--no-prune] [--assignment PATH] [--alpha A]
    hamflow solve    (compile's options) [--method exact|anneal|bruteforce]
                     [--samples N] [--seed S] [--time-limit SECONDS]
    hamflow verify   (validate's options) [--no-prune] [--assignment PATH]
    hamflow report   (validate's options) [--no-prune] [--assignment PATH]

`--instance` accepts either a JSON instance document or the literal token
`case-study`, which builds the Earth-Moon-Mars benchmark from an arc-cost
map (`--costs`, defaulting to the committed fixture).  `verify` and `report`
read the candidate solution from `--assignment`: a file written by `solve`,
or any JSON list of integers, bare or under "values", read as every JSON
input is (a repeated key is refused).  `--time-limit` bounds the exact
search (default 300 s); a search that reaches it prints `certified,False`
with the best verified point it holds.  `solve` checks `--time-limit`,
`--samples` and `--alpha` whatever the method, though each method uses
only some of them.

Exit codes: 0 success, 1 infeasible or invalid input, 2 usage error.
Every refusal is a `HamflowError`, printed as one `hamflow:` line.
Diagnostics go to stderr; data goes to files or stdout.  `HAMFLOW_SEED` is
the fallback for `--seed`; the flag wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import expansion, hamiltonian, solvers
from .expansion import Assignment, Model
from .instance import (
    HamflowError,
    Instance,
    InstanceError,
    InstanceSyntaxError,
    _load_json,
    build_case_study,
    default_case_study_costs,
    json_scalar,
    json_section,
    load_cost_map,
    parse_instance,
    validate_instance,
)

DEVICE_METADATA = {
    "quantum_fluctuation_coefficient": "1/sqrt(7)",
    "relaxation_schedule": "2",
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except HamflowError as exc:
        print(f"hamflow: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # reads map their OSError to HamflowError in _read, so this one came
        # from creating or writing the output directory
        print(f"hamflow: cannot write {exc.filename or args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1


@functools.cache   # parse_args never mutates it, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamflow",
        description="Model space-logistics commodity flows, compile them to "
                    "penalty Hamiltonians, and solve them classically.")
    # Every command reads an instance.  --out, and --assignment on the commands
    # that build a model, are accepted even where unused (validate and verify
    # write nothing; compile and solve read no assignment) so that one argument
    # list can drive several commands.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--instance", required=True,
                        help="instance JSON path, or 'case-study' for the built-in benchmark")
    source.add_argument("--costs", default=None,
                        help="arc-cost map JSON (case-study instance only)")
    source.add_argument("--out", default="out", help="output directory")
    source.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="stdout summary format")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--no-prune", action="store_true",
                       help="keep unreachable variables in the model")
    model.add_argument("--assignment", default=None,
                       help="solution JSON (verify/report)")
    penalty = argparse.ArgumentParser(add_help=False)
    penalty.add_argument("--alpha", type=float, default=None,
                         help="penalty multiplier; default separates feasible from infeasible")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[source])
    sub.add_parser("compile", parents=[source, model, penalty])
    solve = sub.add_parser("solve", parents=[source, model, penalty])
    solve.add_argument("--method", choices=("exact", "anneal", "bruteforce"), default="exact")
    solve.add_argument("--samples", type=int, default=40,
                       help="annealer restart count")
    solve.add_argument("--seed", type=int, default=None,
                       help="annealer seed; falls back to HAMFLOW_SEED, then 0")
    solve.add_argument("--time-limit", type=float, default=300.0, metavar="SECONDS",
                       help="exact search time limit; unused by the other methods")
    sub.add_parser("verify", parents=[source, model])
    sub.add_parser("report", parents=[source, model])
    return parser


def _dispatch(args) -> int:
    handlers = {
        "validate": _cmd_validate,
        "compile": _cmd_compile,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


def _seed_of(args) -> int:
    """The annealer seed: --seed, else HAMFLOW_SEED, else 0.  numpy seeds
    only with non-negative integers."""
    if args.seed is not None:
        if args.seed < 0:
            raise HamflowError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    env = os.environ.get("HAMFLOW_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError as exc:
        raise HamflowError(f"HAMFLOW_SEED={env!r} is not an integer") from exc
    if seed < 0:
        raise HamflowError(f"HAMFLOW_SEED={env!r} must be a non-negative integer")
    return seed


def _read(path: str, parse):
    """`parse` applied to the text of the file at `path`.  A file that cannot
    be read, is not UTF-8, or is not JSON the decoder reads (malformed or
    nested deeper than it allows) is refused in one line that names it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise HamflowError(f"file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise HamflowError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except InstanceSyntaxError as exc:
        raise HamflowError(f"{path}: {exc}") from exc


def _load_instance(args) -> Instance:
    if args.instance == "case-study":
        return build_case_study(default_case_study_costs() if args.costs is None
                                else _read(args.costs, load_cost_map))
    if args.costs is not None:
        raise HamflowError("--costs applies only to --instance case-study")
    return _read(args.instance, parse_instance)


def _load_model(args) -> Model:
    model = expansion.expand_model(_load_instance(args))
    if not args.no_prune:
        model = expansion.prune_model(model)
    return model


def _load_assignment(args, model: Model) -> Assignment:
    path = args.assignment
    if path is None:
        raise HamflowError(f"{args.command} requires --assignment")
    try:
        doc = _read(path, _load_json)
        a = Assignment(values=doc.get("values") if isinstance(doc, dict) else doc)
    except InstanceError as exc:
        raise HamflowError(f"{path}: {exc}") from exc
    except TypeError as exc:
        raise HamflowError(f"{path}: expected a list of integers, or an object with one "
                           f"under 'values': {exc}") from exc
    if len(a.values) != len(model.variables):
        raise HamflowError(f"assignment has {len(a.values)} values, the model has "
                           f"{len(model.variables)} variables (check --no-prune)")
    return a


def _cmd_validate(args) -> int:
    inst = _load_instance(args)
    report = validate_instance(inst)
    if args.format == "json":
        print(json.dumps({"findings": [{"kind": f.kind, "message": f.message}
                                       for f in report.findings]}, indent=2))
    else:
        print(f"{len(report.findings)} findings")
        for f in report.findings:
            print(f"{f.kind}: {f.message}")
    return 0 if report.ok else 1


def _cmd_compile(args) -> int:
    model = _load_model(args)
    h = hamiltonian.compile_hamiltonian(model, alpha=args.alpha)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dest = out / "hamiltonian.txt"
    with dest.open("w", encoding="utf-8", newline="\n") as fh:
        hamiltonian.export_hamiltonian(h, fh, metadata=DEVICE_METADATA)
    summary = {
        "variables": h.num_variables,
        "decision_variables": h.num_decision_variables(),
        "slack_variables": h.num_slack_variables(),
        "levels": h.total_levels(),
        "alpha": h.alpha,
        "dynamic_range_db": (hamiltonian.dynamic_range_db(h)
                             if h.linear or h.quadratic else None),
        "file": str(dest),
    }
    _print_summary(summary, args.format)
    return 0


def _cmd_solve(args) -> int:
    if not (math.isfinite(args.time_limit) and args.time_limit >= 0):
        raise HamflowError(f"--time-limit must be a non-negative finite number of seconds, "
                           f"got {args.time_limit}")
    if args.samples < 1:
        raise HamflowError("--samples must be >= 1")
    if args.alpha is not None:
        hamiltonian._require_alpha(args.alpha)
    model = _load_model(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = _seed_of(args)

    if args.method == "anneal":
        h = hamiltonian.compile_hamiltonian(model, alpha=args.alpha)
        params = solvers.AnnealParams(restarts=args.samples)
        sset = solvers.anneal_sample(h, model, params, seed=seed)
        (out / "samples.csv").write_text(sset.dump_csv(), encoding="utf-8")
        with (out / "histogram.csv").open("w", encoding="utf-8", newline="\n") as fh:
            emit_histogram(sset, fh)
        best = sset.best_feasible()
        if best is None:
            print("no feasible sample", file=sys.stderr)
            _print_summary({"method": "anneal", "seed": seed, "feasible": False,
                            "best_energy": sset.best().energy}, args.format)
            return 1
        summary = {"method": "anneal", "seed": seed, "feasible": True,
                   "objective": best.objective, "best_energy": best.energy,
                   "feasible_samples": sum(1 for s in sset.samples if s.feasible)}
    else:
        if args.method == "exact":
            result = solvers.solve_exact(model, time_limit=args.time_limit)
        else:
            result = solvers.brute_force_oracle(model)
        best = result.sample
        if best is None:
            raise HamflowError(f"model is {result.status}: no feasible assignment exists"
                               if result.status == "infeasible"
                               else "time limit expired without an incumbent")
        summary = {"method": args.method, "objective": best.objective,
                   "certified": result.certified, "nodes": result.nodes}
    _write_solution(out, model, best.assignment, args.method, best.objective)
    render_reports(model, best.assignment, out)
    _print_summary(summary, args.format)
    return 0


def _cmd_verify(args) -> int:
    model = _load_model(args)
    a = _load_assignment(args, model)
    report = expansion.verify_assignment(model, a)
    try:
        objective = expansion.evaluate_objective(model, a)
    except OverflowError as exc:
        raise HamflowError(f"the objective overflows a float; the assignment violates "
                           f"{len(report.bound_findings)} variable bound(s)") from exc
    if not math.isfinite(objective):
        raise HamflowError("arc costs too large: the objective at this assignment "
                           "overflows a float")
    summary = {
        "feasible": report.feasible,
        "objective": objective,
        "nonzero_residuals": sum(1 for r in report.residuals if r != 0),
        "bound_violations": len(report.bound_findings),
    }
    if report.worst is not None:
        summary["worst_constraint"] = expansion.tag_str(report.worst[0])
        summary["worst_residual"] = report.worst[1]
    _print_summary(summary, args.format)
    return 0 if report.feasible else 1


def _cmd_report(args) -> int:
    model = _load_model(args)
    a = _load_assignment(args, model)
    report = expansion.verify_assignment(model, a)
    if report.worst is not None:
        raise HamflowError(f"assignment is infeasible (worst residual at "
                           f"{expansion.tag_str(report.worst[0])}); refusing to render reports")
    if not report.feasible:
        first = model.variables[report.bound_findings[0][0]].name()
        raise HamflowError(f"assignment violates {len(report.bound_findings)} variable bound(s), "
                           f"first at {first}; refusing to render reports")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    render_reports(model, a, out)
    _print_summary({"out": str(out),
                    "files": ["vehicles.csv", "cargo.csv", "inventory.csv"]}, args.format)
    return 0


def _write_solution(out: Path, model: Model, a: Assignment, method: str,
                    objective: float) -> None:
    """Write solution.json: the bytes of `json.dumps(doc, indent=2)` plus a
    newline, where doc is {"method", "objective", "values", "variables"},
    each variable by its name, built per field with `json_scalar` so that
    no line goes through json's pure-Python encoder."""
    j = json_scalar
    text = "{\n" + ",\n".join((
        f'  "method": {j(method)}',
        f'  "objective": {j(objective)}',
        json_section("values", ["    " + j(v) for v in a.values]),
        json_section("variables", ["    " + j(v.name()) for v in model.variables]),
    )) + "\n}\n"
    (out / "solution.json").write_text(text, encoding="utf-8")


def _print_summary(summary: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key},{value}")


# --- report tables -------------------------------------------------------------

REPORT_NOTE = "# time columns are departure steps; arrivals land at t + travel_time"


def render_reports(model: Model, a: Assignment, out: Path) -> list[Path]:
    """Write vehicles.csv, cargo.csv, and inventory.csv for an assignment.

    vehicles: vehicle count per (arc, departure t).  cargo: total mass per
    (arc, departure t), the positive terms of its capacity row.  inventory:
    on-hand mass per (depot, commodity, t) with delivered demand retained;
    a unit is on hand from the step it arrives (or is supplied) through the
    step it departs, inclusive.  Departures, arrivals and supply are the
    positive terms, the negative terms and the positive right-hand side of
    the cell's conservation row.
    """
    inst = model.instance
    steps = range(1, inst.horizon + 1)
    out = Path(out)
    vehicles = {key: a.values[i] for key, i in model.vehicle_index().items()}
    # row tag -> (mass of its positive terms, mass of its negative terms, rhs);
    # a pruned row moves nothing
    halves = {}
    for c in model.constraints:
        positive = sum(k * a.values[i] for i, k in c.terms if k > 0)
        halves[c.tag] = (positive, positive - sum(k * a.values[i] for i, k in c.terms), c.rhs)
    nothing = (0, 0, 0)

    header = _csv_row(["arc"], steps)
    vehicle_lines = [REPORT_NOTE, header]
    cargo_lines = [REPORT_NOTE, header]
    for arc in inst.arcs:
        counts = [vehicles.get((arc.pair, t), 0) for t in steps]
        masses = [halves.get(("capacity", arc.pair, t), nothing)[0] for t in steps]
        vehicle_lines.append(_csv_row([arc.key()], counts))
        cargo_lines.append(_csv_row([arc.key()], masses))

    inventory_lines = [REPORT_NOTE, _csv_row(["depot", "commodity"], steps)]
    for d in inst.depots:
        for c in inst.commodities:
            on_hand, held = [], 0
            for t in steps:
                departed, arrived, rhs = halves.get(("conservation", d.id, c.id, t), nothing)
                held += arrived + max(rhs, 0)
                on_hand.append(held)
                held -= departed
            inventory_lines.append(_csv_row([d.id, c.id], on_hand))

    paths = []
    for name, lines in (("vehicles.csv", vehicle_lines), ("cargo.csv", cargo_lines),
                        ("inventory.csv", inventory_lines)):
        path = out / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def _csv_row(names: list[str], numbers) -> str:
    return ",".join(names + [str(v) for v in numbers])


def emit_histogram(sset: solvers.SampleSet, dest) -> None:
    """20 fixed-width energy bins plus a summary comment; byte-deterministic
    for a given SampleSet (wall-clock statistics are deliberately omitted)."""
    stats = solvers.summarize_samples(sset)
    dest.write("bin_lower,bin_upper,count\n")
    for lo, hi, count in stats.bins:
        dest.write(f"{lo:.17g},{hi:.17g},{count}\n")
    dest.write(f"# best={stats.best_energy:.17g} median={stats.median_energy:.17g} "
               f"worst={stats.worst_energy:.17g} "
               f"feasible_fraction={stats.feasible_fraction:.17g}\n")


if __name__ == "__main__":
    raise SystemExit(main())
