"""The three benchmark workloads.

Each is a closed loop: one process, one caller, one thread; the next
operation starts when the previous one has returned and been checked.  A
workload times its calls into hamflow (`timed`), then checks every output
it timed (`check`), outside the timed region.  Library calls that should be
traced go through the module attributes (`hamflow.cli.main`,
`hamflow.expansion.expand_model`, ...); the checks use names imported here,
which tracing leaves unwrapped.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import hamflow.cli
import hamflow.expansion
import hamflow.hamiltonian
import hamflow.instance
from hamflow.cli import DEVICE_METADATA
from hamflow.expansion import expand_model, prune_model
from hamflow.hamiltonian import (
    compile_hamiltonian,
    dynamic_range_db,
    encode_assignment,
    evaluate_energy,
    export_hamiltonian,
)
from hamflow.instance import serialize_instance

import checks
import waves


class SetupError(Exception):
    """The workload's own inputs failed a check before any timing."""


@dataclass
class Outcome:
    """One checked operation."""
    wall: float                                  # seconds inside timed calls
    attempted: int
    failed: int = 0
    cost_ratios: list[float] = field(default_factory=list)   # answer cost / optimum
    feasible: list[bool] = field(default_factory=list)
    scale: float = 1.0                           # reference seconds per second, see run.py
    parts: dict[str, float] = field(default_factory=dict)    # named sub-timings (_s) or counts
    counts: dict[str, float] = field(default_factory=dict)   # per-layer counts
    restart_s: list[float] = field(default_factory=list)
    hits: int = 0                                # restarts that reached the optimum


def _timed_cli(argv: list[str]) -> tuple[float, int, str]:
    stdout = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(stdout):
        code = hamflow.cli.main(argv)
    return time.perf_counter() - start, code, stdout.getvalue()


def _solution_ok(out: Path, model, reference: float) -> bool:
    doc = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    values = doc["values"]
    return (checks.residual_ok(model, values)
            and checks.close(checks.objective(model, values), reference)
            and checks.close(doc["objective"], reference))


class CaseStudyAnneal:
    """`hamflow solve --instance case-study --method anneal --samples 4`.

    Short solves give a run many operations, each timed whole from outside;
    the quality figures pool the restarts of every operation in the run.
    """
    name = "case_study_anneal"
    capture = ("solvers.anneal_sample",)
    ops_per_pass = 1
    restarts = 4

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def timed(self, i: int) -> dict:
        out = self.work / f"anneal-{i}"
        wall, code, stdout = _timed_cli([
            "solve", "--instance", "case-study", "--method", "anneal",
            "--samples", str(self.restarts), "--seed", str(self.seed * 1000 + i),
            "--out", str(out)])
        return {"wall": wall, "code": code, "stdout": stdout, "out": out}

    def check(self, raw: dict, calls: dict[str, list]) -> Outcome:
        outcome = Outcome(wall=raw["wall"], attempted=1)
        optimum = waves.CASE_STUDY_OPTIMUM
        out = raw["out"]
        ok = raw["code"] == 0 and len(calls["solvers.anneal_sample"]) == 1
        if ok:
            args, sset = calls["solvers.anneal_sample"][0]
            h, model = args[:2]
            ok = len(sset.samples) == self.restarts
            for s in sset.samples:
                values = s.assignment.values
                if s.feasible:
                    ok = ok and checks.residual_ok(model, values) and checks.close(
                        s.energy, checks.objective(model, values))
                outcome.cost_ratios.append(s.energy / optimum)
                outcome.feasible.append(s.feasible)
                outcome.restart_s.append(s.wall_time)
                outcome.hits += s.feasible and checks.close(s.objective, optimum)
            best = sset.best_feasible()
            ok = ok and best is not None and _solution_ok(out, model, best.objective)
            files_ok, size = checks.finite_files(out)
            csv_rows = (out / "samples.csv").read_text(encoding="utf-8").count("\n") - 1
            ok = (ok and files_ok and csv_rows == self.restarts
                  and checks.finite_text(raw["stdout"]))
            outcome.counts = {"cli.bytes_written": size,
                              "hamiltonian.dynamic_range_db": dynamic_range_db(h)}
        outcome.failed = 0 if ok else 1
        shutil.rmtree(out, ignore_errors=True)
        return outcome


class WavesExact:
    """`hamflow solve --method exact` on the waves(k) documents, k = 1-2."""
    name = "waves_exact"
    capture = ("solvers.solve_exact",)
    sizes = (1, 2)
    ops_per_pass = len(sizes)

    def __init__(self, seed: int, work: Path):
        self.seed = seed          # the family is deterministic; the seed is recorded only
        self.work = work

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for k in self.sizes:
            (self.work / f"waves-{k}.json").write_text(
                serialize_instance(waves.waves(k)), encoding="utf-8")

    def timed(self, i: int) -> dict:
        runs = []
        for k in self.sizes:
            out = self.work / f"exact-{i}-{k}"
            wall, code, stdout = _timed_cli([
                "solve", "--instance", str(self.work / f"waves-{k}.json"),
                "--method", "exact", "--out", str(out)])
            runs.append((k, wall, code, stdout, out))
        return {"wall": sum(r[1] for r in runs), "runs": runs}

    def check(self, raw: dict, calls: dict[str, list]) -> Outcome:
        outcome = Outcome(wall=raw["wall"], attempted=len(self.sizes))
        results = calls["solvers.solve_exact"]
        if len(results) != len(self.sizes):
            outcome.failed = len(self.sizes)
            results = []
        for (k, wall, code, stdout, out), ((model, *_), result) in zip(raw["runs"], results):
            optimum = waves.optimum(k)
            ok = (code == 0 and result.status == "optimal" and result.certified
                  and checks.close(result.objective, optimum)
                  and "certified,True" in stdout and checks.finite_text(stdout))
            ok = ok and _solution_ok(out, model, optimum)
            files_ok, size = checks.finite_files(out)
            ok = ok and files_ok
            outcome.failed += 0 if ok else 1
            outcome.cost_ratios.append(result.objective / optimum)
            outcome.feasible.append(ok)
            outcome.parts[f"k{k}_s"] = wall
            outcome.parts[f"k{k}_nodes"] = result.nodes
            outcome.counts["cli.bytes_written"] = outcome.counts.get("cli.bytes_written", 0) + size
            shutil.rmtree(out, ignore_errors=True)
        return outcome


@dataclass
class _Doc:
    k: int
    inst: object
    model: object
    point: object
    h: object              # reference Hamiltonian
    energy_scale: float    # summed term magnitude of h at the point
    poly: Path
    poly_text: str


class WavesCompile:
    """Library write and read paths on large waves(k) documents; no solving.

    write: serialize_instance -> parse_instance -> validate_instance ->
           expand_model -> prune_model -> compile_hamiltonian ->
           dynamic_range_db -> export_hamiltonian (to a file)
    read:  parse_hamiltonian (from a file) -> encode_assignment ->
           evaluate_energy -> verify_assignment, at the known optimal point
    """
    name = "waves_compile"
    capture = ()
    sizes = (10, 20, 30, 40)
    ops_per_pass = 2 * len(sizes)

    def __init__(self, seed: int, work: Path):
        self.seed = seed          # the family is deterministic; the seed is recorded only
        self.work = work
        self.docs: list[_Doc] = []

    def setup(self) -> None:
        """Generate each document, its reference model and Hamiltonian, its
        known optimal point (checked here), and its polynomial file."""
        self.work.mkdir(parents=True, exist_ok=True)
        for k in self.sizes:
            inst = waves.waves(k)
            model = prune_model(expand_model(inst))
            h = compile_hamiltonian(model)
            point = waves.optimal_point(model, k)
            optimum = waves.optimum(k)
            lifted = encode_assignment(h, model, point)
            scale = checks.energy_scale(h, lifted)
            if not (checks.residual_ok(model, point.values)
                    and checks.close(checks.objective(model, point.values), optimum)
                    and checks.energy_close(evaluate_energy(h, lifted), optimum, scale)):
                raise SetupError(f"waves({k}): the known optimal point is not feasible "
                                 f"at cost {optimum} with equal energy")
            buf = io.StringIO()
            export_hamiltonian(h, buf, metadata=DEVICE_METADATA)
            poly = self.work / f"waves-{k}.poly"
            poly.write_text(buf.getvalue(), encoding="utf-8", newline="\n")
            self.docs.append(_Doc(k, inst, model, point, h, scale, poly, buf.getvalue()))

    def timed(self, i: int) -> dict:
        ham, exp, ins = hamflow.hamiltonian, hamflow.expansion, hamflow.instance
        write_s = read_s = 0.0
        runs = []
        for doc in self.docs:
            dest = self.work / f"out-{doc.k}.poly"
            start = time.perf_counter()
            parsed = ins.parse_instance(ins.serialize_instance(doc.inst))
            report = ins.validate_instance(parsed)
            model = exp.prune_model(exp.expand_model(parsed))
            h = ham.compile_hamiltonian(model)
            db = ham.dynamic_range_db(h)
            with dest.open("w", encoding="utf-8", newline="\n") as fh:
                ham.export_hamiltonian(h, fh, metadata=DEVICE_METADATA)
            mid = time.perf_counter()
            h_read = ham.parse_hamiltonian(doc.poly.read_text(encoding="utf-8"))
            point = ham.encode_assignment(doc.h, doc.model, doc.point)
            energy = ham.evaluate_energy(h_read, point)
            feasibility = exp.verify_assignment(doc.model, doc.point)
            end = time.perf_counter()
            write_s += mid - start
            read_s += end - mid
            runs.append((doc, parsed, report, model, h, db, dest, h_read, energy, feasibility))
        return {"wall": write_s + read_s, "write_s": write_s, "read_s": read_s, "runs": runs}

    def check(self, raw: dict, calls: dict[str, list]) -> Outcome:
        outcome = Outcome(wall=raw["wall"], attempted=self.ops_per_pass,
                          parts={"write_s": raw["write_s"], "read_s": raw["read_s"]})
        export_bytes = 0
        for doc, parsed, report, model, h, db, dest, h_read, energy, feasibility in raw["runs"]:
            written = dest.read_text(encoding="utf-8")
            export_bytes += len(written.encode("utf-8"))
            write_ok = (parsed == doc.inst and report.ok and model == doc.model
                        and h.num_variables == doc.h.num_variables and written == doc.poly_text
                        and checks.finite_text(written) and math.isfinite(db))
            again = io.StringIO()
            export_hamiltonian(h_read, again, metadata=DEVICE_METADATA)
            optimum = waves.optimum(doc.k)
            read_ok = (again.getvalue() == doc.poly_text and h_read.num_variables == doc.h.num_variables
                       and checks.energy_close(energy, optimum, doc.energy_scale)
                       and feasibility.feasible and not feasibility.bound_findings)
            outcome.failed += (not write_ok) + (not read_ok)
            outcome.cost_ratios.append(energy / optimum)
            outcome.feasible.append(feasibility.feasible)
            dest.unlink()
        outcome.counts = {"hamiltonian.export_bytes": export_bytes,
                          "hamiltonian.dynamic_range_db": raw["runs"][-1][5]}
        return outcome


WORKLOADS = {w.name: w for w in (CaseStudyAnneal, WavesExact, WavesCompile)}
