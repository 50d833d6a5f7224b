"""Measurement, correctness gate and report for one benchmark run.

A run warms up (imports, one tiny call of every harness entry point),
times the workload's set-up several times, then repeats the workload's
harness calls on the seed's scenarios for the requested seconds. With
tracing off it reports the end-to-end metrics; with tracing on it
alternates untraced and traced iterations and reports the per-layer
metrics per traced iteration.

Every iteration runs the same seeded scenarios, so every iteration must
emit byte-identical tables. Their sha256 digests are also kept in a
ledger under ``.bench_build/perfbench`` keyed by workload, seed and a
digest of the scenarios (not of the program sources), and a later run
with the same key must reproduce them, also after the program changed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import chainguide
from chainguide.harness import emit_results
from chainguide.models import build_model, estimate_constants
from chainguide.value import build_simplex_grid, solve_value

from spans import LAYERS, Tracer
from workloads import (
    VALUE_TOLERANCE,
    WORKLOADS,
    expected_rows,
    expected_spans,
    row_ok,
    samples,
)

# set-up is repeated at least this often, and until this much time has passed
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
clock = time.perf_counter


# -- machine -------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def machine():
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def scenarios_digest(scenarios):
    """Digest of the scenarios a run feeds the program."""
    payload = json.dumps([s.to_dict() for s in scenarios], sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


# -- phases --------------------------------------------------------------------


def setup_once(workload, seed):
    """One set-up: the public calls the harness makes before any trial."""
    times = {}
    start = clock()
    model = build_model(workload.model)
    times["build_model"] = clock() - start
    start = clock()
    constants = estimate_constants(model, seed=seed).constants
    times["estimate_constants"] = clock() - start
    start = clock()
    grid = build_simplex_grid(model.dimension, workload.value_grid["n_x"])
    times["build_simplex_grid"] = clock() - start
    start = clock()
    field = solve_value(model, workload.value_grid["n_t"], grid, constants)
    times["solve_value"] = clock() - start
    return field, times


def warm_up(workload, seed):
    """One tiny untimed iteration; a call that raises there raises again when timed."""
    run_iteration([
        (call, call.make(seed, **{k: v for k, v in workload.warmup.items()
                                  if k in call.scenario}))
        for call in workload.calls])


def run_iteration(jobs):
    """Every harness call once; a call that raises yields its traceback."""
    outcomes = []
    for call, scenario in jobs:
        try:
            outcomes.append((call.run(scenario), None))
        except Exception:  # the run reports the failure and goes on
            outcomes.append((None, traceback.format_exc()))
    return outcomes


def timed_loop(jobs, seconds, tracer=None):
    """Repeat the calls until ``seconds`` have passed.

    Without a tracer every iteration is untraced and there is at least
    one. With a tracer, untraced and traced iterations alternate, so that
    both kinds see the same drift in machine speed, and there is at least
    one of each. Returns the untraced and traced iteration times, every
    iteration's outcomes, and the CPU time of the traced iterations.
    """
    walls = {False: [], True: []}
    iterations = []
    traced_cpu_s = 0.0
    start = clock()
    while not walls[tracer is not None] or clock() - start < seconds:
        traced = tracer is not None and len(walls[True]) < len(walls[False])
        if traced:
            tracer.install()
        cpu_start = time.process_time()
        begin = clock()
        try:
            outcomes = run_iteration(jobs)
        finally:
            wall = clock() - begin
            if traced:
                traced_cpu_s += time.process_time() - cpu_start
                tracer.uninstall()
        walls[traced].append(wall)
        iterations.append(outcomes)
        if any(error for _, error in outcomes):
            break
    return walls[False], walls[True], iterations, traced_cpu_s


# -- correctness ---------------------------------------------------------------


class Gate:
    """Operation counts and correctness problems gathered over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        self.problems.append(message)

    @property
    def correct(self):
        return not self.problems


def check_iterations(gate, jobs, iterations, out_dir, stem):
    """Count operations, hash every emitted table, check tables repeat."""
    digests = None
    for outcomes in iterations:
        current = []
        for (call, scenario), (result, error) in zip(jobs, outcomes):
            rows = expected_rows(scenario)
            gate.attempted += rows
            if error is not None:
                gate.failed += rows
                gate.fail(f"{call.label} raised:\n{error}")
                current.append(None)
                continue
            if len(result.rows) != rows:
                gate.fail(f"{call.label} emitted {len(result.rows)} rows, expected {rows}")
            gate.failed += max(rows - len(result.rows), 0)
            gate.failed += sum(not row_ok(result.kind, row) for row in result.rows)
            table, summary = emit_results(result, out_dir / f"{stem}-{call.label}")
            current.append(hashlib.sha256(Path(table).read_bytes()).hexdigest())
            os.remove(table)
            os.remove(summary)
        if digests is None:
            digests = current
        elif current != digests:
            gate.fail("iterations of one seed emitted different tables")
    return digests


def check_ledger(gate, ledger_path, digests):
    """The tables of one (workload, seed, scenarios) must match earlier runs."""
    if ledger_path.exists():
        recorded = json.loads(ledger_path.read_text(encoding="utf-8"))["csv_sha256"]
        if recorded != digests:
            gate.fail(f"tables differ from an earlier run of this seed: {recorded} != {digests}")
        return
    tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"csv_sha256": digests}) + "\n", encoding="utf-8")
    os.replace(tmp, ledger_path)


def verdicts(jobs, iterations):
    """What each call concluded, from the first iteration (all are identical)."""
    out = {}
    for (call, _), (result, error) in zip(jobs, iterations[0]):
        if error is not None:
            continue
        entry = {"passed": result.passed}
        if result.kind == "experiment":
            summary = result.summary
            entry.update({
                "gap_slopes": summary["gap_slopes"],
                "slope_ok": summary["slope_ok"],
                "bounds_ok": summary["bounds_ok"],
                "guide_violations_ok": summary["guide_violations_ok"],
                "mean_gaps": {f"M={round(1.0 / row['h'])}": row["mean_payoff"] - row["value_start"]
                              for row in result.rows},
            })
        elif result.kind == "oracle":
            entry["statistics"] = {row["check"]: float(row["statistic"]) for row in result.rows}
        elif result.kind == "lemma2":
            entry["violations"] = result.summary["violations"]
        out[call.label] = entry
    return out


# -- metrics -------------------------------------------------------------------


def iteration_samples(jobs, iterations):
    counts = []
    for outcomes in iterations:
        counts.append(sum(samples(scenario, result)
                          for (_, scenario), (result, error) in zip(jobs, outcomes)
                          if error is None))
    return counts


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


SPAN_METRICS = (
    "chain.simulate_chain", "chain.master_evolve", "chain.sample_final_distribution",
    "simplex.LatticeState", "strategy.run_episodes", "strategy.extremal_indices",
    "guide.advance_guides", "value.solve_value", "value.interpolate",
    "models.estimate_constants", "models.rates",
)


def layer_metrics(tracer, per, cpu_s, overhead_s):
    """Per-layer metrics per traced iteration, as {name: (value, unit)}."""
    out = {}
    for name in SPAN_METRICS:
        stat = tracer.get(name)
        out[f"{name}.calls"] = (stat.calls / per, "count")
        out[f"{name}.self_s"] = (stat.self_s / per, "s")
    durations = tracer.get("chain.simulate_chain").durations or [math.nan]
    p50, p99 = np.percentile(np.asarray(durations) * 1e6, [50, 99])
    out["chain.simulate_chain.call_us_p50"] = (float(p50), "us")
    out["chain.simulate_chain.call_us_p99"] = (float(p99), "us")
    out["chain.candidates"] = (tracer.get("chain.simulate_chain").amount / per, "count")
    out["guide.advance_guides.rows"] = (tracer.get("guide.advance_guides").amount / per, "count")
    out["value.interpolate.points"] = (tracer.get("value.interpolate").amount / per, "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.layer_self_s(layer) / per, "s")
    out["cpu_s"] = (cpu_s / per, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def select(declared, computed, gate):
    """The declared metrics, in declared order, with their measured values."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in computed:
            gate.fail(f"metric {name} was not measured")
            continue
        value, unit = computed[name]
        if unit != spec["unit"]:
            gate.fail(f"metric {name} is measured in {unit}, declared in {spec['unit']}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


# -- one run -------------------------------------------------------------------


def run(args, root, spec):
    """Measure one workload; print the report and return the result object."""
    workload = WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    gate = Gate()

    warm_up(workload, seed)

    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPEATS
           or sum(sum(times.values()) for times in setup_times) < SETUP_MIN_SECONDS):
        field, times = setup_once(workload, seed)
        setup_times.append(times)
    setup_totals = [sum(times.values()) for times in setup_times]
    value_abs_err = None
    if workload.value_reference is not None:
        point, exact = workload.value_reference
        value_abs_err = abs(field.eval(0.0, np.asarray(point)) - exact)
        if not value_abs_err <= VALUE_TOLERANCE:
            gate.fail(f"value_abs_err {value_abs_err:.3g} exceeds {VALUE_TOLERANCE}")
    del field

    jobs = [(call, call.make(seed)) for call in workload.calls]
    report = {}
    if args.trace:
        tracer = Tracer()
        walls, traced_walls, iterations, cpu_s = timed_loop(jobs, args.seconds, tracer)
        # a call that raised stops the loop, possibly before a traced iteration;
        # the gate then already marks the run as not correct
        per = max(len(traced_walls), 1)
        overhead = (statistics.median(traced_walls) - statistics.median(walls)
                    if traced_walls else 0.0)
        computed = layer_metrics(tracer, per, cpu_s, overhead)
        # reported, not gated: a change that solves or simulates differently
        # with the same outputs is still correct
        report["span_calls_per_iteration"] = {
            name: {"seen": tracer.get(name).calls / per, "expected_today": expected}
            for name, expected in expected_spans(workload).items()}
        report["spans_per_iteration"] = tracer.table(per)
        report["traced_iteration_wall_s"] = traced_walls
        declared = spec["per_layer"]
    else:
        walls, _, iterations, _ = timed_loop(jobs, args.seconds)
        rates = [n / wall for n, wall in zip(iteration_samples(jobs, iterations), walls)]
        computed = {
            "wall_s": (statistics.median(walls), "s"),
            "mc_samples_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setup_totals), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        declared = spec["end_to_end"]

    stem = f"{workload.name}-seed{seed}-pid{os.getpid()}"
    digests = check_iterations(gate, jobs, iterations, out_dir, stem)
    if gate.correct:
        key = scenarios_digest([scenario for _, scenario in jobs])[:16]
        ledger = out_dir / f"{workload.name}-seed{seed}-{key}.json"
        check_ledger(gate, ledger, digests)

    metrics = select(declared, computed, gate)
    fail_ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    report.update({
        "workload": workload.name,
        "why": why,
        "seed": seed,
        "trace": int(args.trace),
        "machine": machine(),
        "library_version": chainguide.__version__,
        "iterations": len(walls),
        "iteration_wall_s": walls,
        "setup_s_each": setup_totals,
        "setup_phase_s": {phase: statistics.median(times[phase] for times in setup_times)
                          for phase in setup_times[0]},
        "fail_ratio": fail_ratio,
        "value_abs_err": value_abs_err,
        "csv_sha256": dict(zip((call.label for call in workload.calls), digests or [])),
        "verdicts": verdicts(jobs, iterations),
        "problems": gate.problems,
    })

    lines = [f"workload {workload.name} seed {seed} trace {int(args.trace)}",
             f"why: {why}",
             "machine: " + " ".join(f"{k}={v}" for k, v in report["machine"].items())]
    for name, entry in metrics.items():
        lines.append(f"{name} {entry['value']:.6g} {entry['unit']}")
    lines.append(f"fail_ratio {fail_ratio:.6g} ratio ({gate.failed}/{gate.attempted} rows)")
    if value_abs_err is not None:
        lines.append(f"value_abs_err {value_abs_err:.6g} abs (<= {VALUE_TOLERANCE})")
    for problem in gate.problems:
        lines.append("PROBLEM: " + problem)
    lines.append("report " + json.dumps(report, default=float))
    print("\n".join(lines))
    return {"correct": gate.correct, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics}
