#!/usr/bin/env python3
"""hamflow benchmark: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload case_study_anneal --seed 1 --seconds 36 --trace 0

Run from the repository root.  Whole operations repeat while the next one,
expected to last as long as the last one, still ends within --seconds (at
least one runs); each is checked after it is timed.  With --trace 0 the
last stdout line carries the end-to-end metrics of BENCHMARK.json; with
--trace 1 the operations alternate untraced and traced, and the last line
carries the per-layer metrics plus the tracing overhead between the two.
Times in the result are reference seconds: each timed interval is scaled
by a calibration loop run just before and after it (perfbench/README.md).
Earlier lines give the environment and the workload's own named figures.
The exit code is 0 only if every check passed; a run that cannot import
hamflow from ./src exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("case_study_anneal", "waves_exact", "waves_compile")
SETUP_PROBES = 11
REFERENCE_LOOP_S = 0.002   # the calibration loop's time on the reference CPU

# per-layer metric -> traced function whose inclusive seconds per operation it reports
LAYER_TIMES = {
    "instance.parse_s": "instance.parse_instance",
    "instance.serialize_s": "instance.serialize_instance",
    "instance.validate_s": "instance.validate_instance",
    "expansion.expand_s": "expansion.expand_model",
    "expansion.prune_s": "expansion.prune_model",
    "expansion.verify_s": "expansion.verify_assignment",
    "hamiltonian.compile_s": "hamiltonian.compile_hamiltonian",
    "hamiltonian.export_s": "hamiltonian.export_hamiltonian",
    "hamiltonian.parse_s": "hamiltonian.parse_hamiltonian",
    "hamiltonian.energy_s": "hamiltonian.evaluate_energy",
    "solvers.exact_s": "solvers.solve_exact",
    "solvers.anneal_s": "solvers.anneal_sample",
    "cli.main_s": "cli.main",
    "cli.render_reports_s": "cli.render_reports",
    "cli.emit_histogram_s": "cli.emit_histogram",
}
LAYER_COUNTS = (
    "instance.doc_bytes", "expansion.vars_expanded", "expansion.vars_kept", "expansion.rows",
    "hamiltonian.vars", "hamiltonian.levels", "hamiltonian.quad_terms",
    "hamiltonian.export_bytes", "hamiltonian.dynamic_range_db", "solvers.exact_nodes",
    "solvers.anneal_restarts", "solvers.anneal_proposals", "cli.bytes_written",
)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 when every operation failed."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)] if ordered else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def timing_summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"p50": statistics.median(values), "n": len(values)}
    if len(values) >= 20:
        p = 100.0 * (len(values) - 10) / len(values)
        out[f"p{p:.0f}"] = percentile(values, p)
    return out


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import numpy
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def calibration_loop_s() -> float:
    """Least of three timings of a fixed pure-Python loop that uses none of hamflow."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(10000):
            key = (i & 255, i % 7)
            table[key] = table.get(key, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


def reference_scale(before: float, after: float) -> float:
    """Reference seconds per second of an interval bracketed by two calibration
    loops: on shared hosts the CPU speed changes ~1.8x for seconds at a time,
    and this factor takes most of that out of the interval's time."""
    return 2 * REFERENCE_LOOP_S / (before + after)


def measure_setup(args, work: Path) -> float:
    """Median reference seconds from a fresh interpreter to a workload ready
    for its first timed call: imports plus generating and writing its inputs."""
    times = []
    for i in range(SETUP_PROBES):
        probe = work / f"setup-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(probe)]
        before = calibration_loop_s()
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        elapsed = time.perf_counter() - start
        times.append(elapsed * reference_scale(before, calibration_loop_s()))
        shutil.rmtree(probe, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return statistics.median(times)


def run_ops(workload, instrument, seconds: float, trace: bool) -> list[tuple[bool, object]]:
    """Closed loop of whole operations; with tracing, odd operations are traced."""
    from workloads import Outcome
    outcomes = []
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        traced = trace and i % 2 == 1
        instrument.op = i
        instrument.install(traced)
        before = calibration_loop_s()
        try:
            raw = workload.timed(i)
        except Exception:
            traceback.print_exc()
            raw = None
        finally:
            instrument.uninstall()
        after = calibration_loop_s()
        calls = {name: instrument.take(name) for name in workload.capture}
        try:
            outcome = (workload.check(raw, calls) if raw is not None
                       else Outcome(wall=0.0, attempted=workload.ops_per_pass,
                                    failed=workload.ops_per_pass))
        except Exception:
            traceback.print_exc()
            outcome = Outcome(wall=raw["wall"], attempted=workload.ops_per_pass,
                              failed=workload.ops_per_pass)
        outcome.scale = reference_scale(before, after)
        instrument.count(outcome.counts)
        outcomes.append((traced, outcome))
        last = time.perf_counter() - began
        i += 1
    return outcomes


def named_figures(workload, outcomes: list) -> dict:
    """The workload's own figures, under the names perfbench/README.md uses."""
    walls = [o.wall for o in outcomes]
    fig = {}
    if workload.name == "case_study_anneal":
        ratios = [r for o in outcomes for r in o.cost_ratios]
        fig["anneal_wall_s"] = timing_summary(walls)
        fig["anneal_residual_gap"] = mean(ratios) - 1.0
        fig["anneal_feasible_frac"] = mean([f for o in outcomes for f in o.feasible])
        fig["restarts"] = len(ratios)
    elif workload.name == "waves_exact":
        fig["exact_wall_s"] = timing_summary(walls)
        for key in outcomes[0].parts:
            values = [o.parts[key] for o in outcomes]
            fig[f"exact_{key}"] = timing_summary(values) if key.endswith("_s") else values[0]
    else:
        docs = len(workload.sizes)
        fig["compile_per_s"] = docs / statistics.median(o.parts["write_s"] for o in outcomes)
        fig["load_per_s"] = docs / statistics.median(o.parts["read_s"] for o in outcomes)
        fig["pass_s"] = timing_summary(walls)
    return fig


def end_to_end(setup_s: float, outcomes: list) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(o.wall * o.scale for o in outcomes), "s"),
        "cost_ratio": (mean([r for o in outcomes for r in o.cost_ratios]), "ratio"),
        "feasible_frac": (mean([f for o in outcomes for f in o.feasible]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(instrument, outcomes: list, attempted: int, failed: int) -> dict:
    traced_ops = [i for i, (traced, _) in enumerate(outcomes) if traced]
    rows = list(instrument.per_op(traced_ops).values())

    def med(key: str) -> float:
        return statistics.median(row.get(key, 0.0) for row in rows)

    out = {name: (med(fn), "s") for name, fn in LAYER_TIMES.items()}
    out.update({f"{layer}.self_s": (med(f"{layer}.self_s"), "s")
                for layer in ("instance", "expansion", "hamiltonian", "solvers", "cli")})
    out.update({name: (med(name), "dB" if name.endswith("_db") else "count")
                for name in LAYER_COUNTS})
    expanded = out["expansion.vars_expanded"][0]
    out["expansion.prune_keep_ratio"] = (
        out["expansion.vars_kept"][0] / expanded if expanded else 0.0, "ratio")
    nodes = out["solvers.exact_nodes"][0]
    out["solvers.exact_us_per_node"] = (
        1e6 * out["solvers.exact_s"][0] / nodes if nodes else 0.0, "us")
    proposals = out["solvers.anneal_proposals"][0]
    out["solvers.anneal_proposal_us"] = (
        1e6 * out["solvers.anneal_s"][0] / proposals if proposals else 0.0, "us")

    restart_s = [t for traced, o in outcomes if traced for t in o.restart_s]
    restarts = sum(len(o.restart_s) for _, o in outcomes)
    hits = sum(o.hits for _, o in outcomes)
    p_opt = hits / restarts if restarts else 0.0
    out["solvers.anneal_restart_s.p50"] = (statistics.median(restart_s) if restart_s else 0.0, "s")
    out["solvers.anneal_restart_s.p75"] = (percentile(restart_s, 75) if restart_s else 0.0, "s")
    out["solvers.anneal_p_opt"] = (p_opt, "ratio")
    # TTS99 = restart time * ln(0.01) / ln(1 - p); with no hit, p is taken as 1/(2n)
    if restarts:
        p = min(max(p_opt, 0.5 / restarts), 1.0)
        repeats = 1.0 if p >= 0.99 else math.log(0.01) / math.log(1.0 - p)
        out["solvers.anneal_tts99_s"] = (repeats * out["solvers.anneal_restart_s.p50"][0], "s")
    else:
        out["solvers.anneal_tts99_s"] = (0.0, "s")

    # measured like op_s, so that host noise affects both sides alike
    untraced = statistics.median(o.wall * o.scale for traced, o in outcomes if not traced)
    traced_s = statistics.median(o.wall * o.scale for traced, o in outcomes if traced)
    out["trace.overhead_frac"] = (traced_s / untraced - 1.0 if untraced else 0.0, "ratio")
    out["trace.spans"] = (len(instrument.spans) / len(traced_ops), "count")
    out["failed_frac"] = (failed / attempted, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="import and prepare the workload's inputs in DIR, then exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hamflow" / "__init__.py").is_file():
        print(f"perfbench: no hamflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hamflow
    if Path(hamflow.__file__).resolve().parent != ROOT / "src" / "hamflow":
        print(f"perfbench: imported hamflow from {hamflow.__file__}, not ./src", file=sys.stderr)
        return 2
    from spans import Instrument
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed, Path(args.setup_only)).setup()
        return 0

    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(args, work)
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        instrument = Instrument(capture=workload.capture)
        outcomes = run_ops(workload, instrument, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        shutil.rmtree(work, ignore_errors=True)
        return 1
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for _, o in outcomes)
    failed = sum(o.failed for _, o in outcomes)
    plain = [o for traced, o in outcomes if not traced]
    figures = named_figures(workload, plain)
    figures.update(failed_frac=failed / attempted, operations=len(outcomes),
                   reference_scale=timing_summary([o.scale for o in plain]))
    if args.trace:
        metrics = per_layer(instrument, outcomes, attempted, failed)
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.json"
        instrument.write(spans_path)
        figures["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(setup_s, plain)
    print("figures " + json.dumps(figures), flush=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": env, "figures": figures, **result}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
