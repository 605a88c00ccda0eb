#!/usr/bin/env python3
"""End-to-end run of the Earth-Moon-Mars case study.

Builds the instance from the committed cost fixture, prunes and compiles it,
solves with the exact branch-and-bound and with 40 annealer restarts, checks
both against the published schedule tables, and writes every artifact
(polynomial file, solution, report tables, sample CSV, histogram) to --out.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from importlib import resources
from pathlib import Path

from hamflow import expansion, hamiltonian, solvers
from hamflow.cli import DEVICE_METADATA, emit_histogram, render_reports
from hamflow.instance import build_case_study, default_case_study_costs, validate_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/case_study", help="artifact directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--alpha", type=float, default=None)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    inst = build_case_study(default_case_study_costs())
    report = validate_instance(inst)
    print(f"validate: {len(report.findings)} findings")

    model = expansion.expand_model(inst)
    pruned = expansion.prune_model(model)
    print(f"expand: {model.num_flow_variables()} flow + "
          f"{model.num_vehicle_variables()} vehicle variables, "
          f"{len(model.constraints)} constraints")
    print(f"prune:  {pruned.num_flow_variables()} flow + "
          f"{pruned.num_vehicle_variables()} vehicle variables survive")

    h = hamiltonian.compile_hamiltonian(pruned, alpha=args.alpha)
    with (out / "hamiltonian.txt").open("w", encoding="utf-8", newline="\n") as fh:
        hamiltonian.export_hamiltonian(h, fh, metadata=DEVICE_METADATA)
    print(f"compile: {h.num_decision_variables()} decision + "
          f"{h.num_slack_variables()} slack variables, "
          f"{h.total_levels()} levels, alpha={h.alpha:.4g}, "
          f"dynamic range {hamiltonian.dynamic_range_db(h):.2f} dB")

    tables = json.loads(resources.files("hamflow.data")
                        .joinpath("reference_tables.json").read_text("utf-8"))
    published = expansion.reconstruct_solution(pruned, tables)
    published_cost = expansion.evaluate_objective(pruned, published)
    print(f"reference schedule: cost {published_cost:.4g}, "
          f"{sum(published.values[i] for i, _ in pruned.objective)} traversals, "
          f"feasible={expansion.verify_assignment(pruned, published).feasible}")

    exact = solvers.solve_exact(pruned)
    print(f"exact: {exact.status}, cost {exact.objective:.4g} "
          f"({exact.nodes} nodes, {exact.wall_time:.3f}s)")

    params = solvers.AnnealParams(restarts=args.samples)
    t0 = time.perf_counter()
    sset = solvers.anneal_sample(h, pruned, params, seed=args.seed)
    call_time = time.perf_counter() - t0
    stats = solvers.summarize_samples(sset)
    best = sset.best_feasible()
    print(f"anneal: {args.samples} restarts, feasible fraction "
          f"{stats.feasible_fraction:.2f}, best energy {stats.best_energy:.4g}, "
          f"mean wall time {stats.mean_wall_time:.3f}s")
    # time to solution at 99% confidence (Ronnow et al., Science 345, 2014):
    # the restarts needed to reach the optimum once with probability 0.99,
    # each at the call's wall time per restart, since restarts run side by
    # side on the usable CPUs and a restart's own wall time overstates it
    hits = sum(1 for s in sset.samples
               if s.feasible and math.isclose(s.objective, exact.objective, rel_tol=1e-9))
    p_opt = hits / len(sset.samples)
    if p_opt == 0:
        tts = "undefined (no restart reached the optimum)"
    else:
        repeats = 1.0 if p_opt >= 0.99 else math.log(0.01) / math.log(1.0 - p_opt)
        tts = f"{repeats * call_time / len(sset.samples):.3f}s"
    print(f"anneal: p(optimum) {hits}/{len(sset.samples)} = {p_opt:.3f}, TTS99 {tts}")

    (out / "samples.csv").write_text(sset.dump_csv(), encoding="utf-8")
    with (out / "histogram.csv").open("w", encoding="utf-8", newline="\n") as fh:
        emit_histogram(sset, fh)
    chosen = best.assignment if best is not None else exact.sample.assignment
    render_reports(pruned, chosen, out)
    (out / "solution.json").write_text(json.dumps({
        "method": "anneal" if best is not None else "exact",
        "objective": best.objective if best is not None else exact.objective,
        "values": list(chosen.values),
    }, indent=2) + "\n", encoding="utf-8")

    anneal = ("no feasible anneal sample" if best is None else
              f"best anneal is {best.objective - exact.objective:+.4g} above the exact optimum")
    print(f"summary: {anneal}; "
          f"published schedule is {published_cost - exact.objective:+.4g} above")
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
