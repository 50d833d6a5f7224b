"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (bypassing capture so the line shows
in plain pytest output). The heavy Monte Carlo experiments are shared
module-scoped fixtures; everything is seeded and deterministic.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from conftest import record_acceptance

from chainguide.chain import (
    dynkin_residual,
    master_evolve,
    sample_final_distribution,
)
from chainguide.cli import main as cli_main
from chainguide.harness import (
    Scenario,
    run_corollary_experiment,
    run_lemma1_check,
    run_lemma2_check,
    run_theorem1_experiment,
)
from chainguide.models import (
    ThreeTypeRotorModel,
    TwoTypeModel,
    coupling_constants,
    estimate_constants,
    validate_rate_model,
)
from chainguide.simplex import round_to_lattice
from chainguide.value import SimplexGrid, build_simplex_grid, solve_value

SEED = 20240711
WORKERS = 2


def announce(number, passed, detail):
    line = f"ACCEPTANCE {number:>2}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line, file=sys.__stdout__, flush=True)
    record_acceptance(number, passed, detail)


@pytest.fixture(scope="module")
def guarantee_result():
    scenario = Scenario.from_dict({
        "model": "two-type",
        "particle_counts": [20, 40, 80, 160],
        "partition_steps": [200],
        "initial_state": [1.0, 0.0],
        "trials": 2000,
        "adversaries": [{"kind": "extremal"}],
        "value_grid": {"n_x": 200, "n_t": 200},
        "seed": SEED,
    })
    start = time.monotonic()
    result = run_theorem1_experiment(scenario, workers=WORKERS)
    return result, time.monotonic() - start


def test_criterion_1_kolmogorov_validity():
    start = time.monotonic()
    reports = {
        "two-type": validate_rate_model(TwoTypeModel(), samples=10_000, seed=SEED),
        "three-type": validate_rate_model(ThreeTypeRotorModel(), samples=10_000,
                                          seed=SEED + 1),
    }
    elapsed = time.monotonic() - start
    ok = all(r.passed and r.max_row_sum_dev <= 1e-12 and r.min_off_diagonal >= 0.0
             for r in reports.values()) and elapsed < 5.0
    detail = ", ".join(
        f"{name}: rowsum_dev={r.max_row_sum_dev:.2e}, min_offdiag={r.min_off_diagonal:.2e}"
        for name, r in reports.items()) + f" ({elapsed:.1f}s)"
    announce(1, ok, detail)
    assert ok


def test_criterion_2_simulator_oracle_equivalence():
    start = time.monotonic()
    model = TwoTypeModel()
    trials = 100_000
    y4 = round_to_lattice([1.0, 0.0], 4)
    empirical = sample_final_distribution(model, 0.0, 1.0, y4, 1.0, 0.0,
                                          trials=trials, seed=SEED)
    oracle = master_evolve(model, 0.0, 1.0, y4, 1.0, 0.0)
    tv = 0.5 * float(np.abs(empirical - oracle).sum())

    # single particle: exact conversion probability 1 - exp(-1)
    y1 = round_to_lattice([1.0, 0.0], 1)
    emp1 = sample_final_distribution(model, 0.0, 1.0, y1, 1.0, 0.0,
                                     trials=trials, seed=SEED + 1)
    p_true = 1.0 - math.exp(-1.0)
    p_hat = emp1[SimplexGrid(2, 1).node_index(round_to_lattice([0.0, 1.0], 1))]
    se = math.sqrt(p_true * (1.0 - p_true) / trials)
    elapsed = time.monotonic() - start
    ok = tv <= 0.01 and abs(p_hat - p_true) <= 3.0 * se and elapsed < 60.0
    announce(2, ok, f"TV={tv:.5f} (<=0.01), M=1: {p_hat:.5f} vs {p_true:.5f} "
                    f"within {3*se:.5f} ({elapsed:.1f}s)")
    assert ok


def test_criterion_3_expectation_identity():
    start = time.monotonic()
    model = TwoTypeModel()
    residual = dynkin_residual(model, lambda x: x[0], 0.0, 0.5,
                               round_to_lattice([0.5, 0.5], 4), 1.0, 0.0,
                               ode_step=0.002)
    elapsed = time.monotonic() - start
    ok = residual <= 1e-8 and elapsed < 5.0
    announce(3, ok, f"residual={residual:.3e} (<=1e-8) ({elapsed:.1f}s)")
    assert ok


def test_criterion_4_transition_expansion():
    start = time.monotonic()
    scenario = Scenario.from_dict({
        "model": "two-type",
        "particle_counts": [4],
        "initial_state": [0.5, 0.5],
        "seed": SEED,
        "lemma1": {"particle_count": 4, "state": [2, 2], "u": 1.0, "v": 0.0,
                   "deltas": [0.02, 0.01, 0.005], "min_ratio": 3.0},
    })
    result = run_lemma1_check(scenario)
    elapsed = time.monotonic() - start
    ratios = [row["residual_ratio"] for row in result.rows
              if row["residual_ratio"] is not None]
    two_jump_ok = all(row["ok"] for row in result.rows if row["target"] == "two_jump")
    ok = result.passed and all(r >= 3.0 for r in ratios) and two_jump_ok and elapsed < 30.0
    announce(4, ok, f"residual ratios {['%.2f' % r for r in ratios]} (>=3), "
                    f"two-jump bounded ({elapsed:.1f}s)")
    assert ok


def test_criterion_5_value_convergence():
    start = time.monotonic()
    model = TwoTypeModel()
    target = 0.5 + 0.5 * math.exp(-2.0)
    errors = {}
    for n in (200, 400):
        field = solve_value(model, n, build_simplex_grid(2, n))
        errors[n] = abs(field.eval(0.0, np.array([1.0, 0.0])) - target)
    elapsed = time.monotonic() - start
    ok = errors[200] <= 0.01 and errors[400] <= 0.6 * errors[200] and elapsed < 120.0
    announce(5, ok, f"err200={errors[200]:.5f} (<=0.01), "
                    f"err400={errors[400]:.5f} (<=0.6*err200={0.6*errors[200]:.5f}) "
                    f"({elapsed:.1f}s)")
    assert ok


def test_criterion_6_one_step_coupling():
    start = time.monotonic()
    scenario = Scenario.from_dict({
        "model": "two-type",
        "particle_counts": [20],
        "initial_state": [1.0, 0.0],
        "adversaries": [{"kind": "extremal"}, {"kind": "constant", "value": 1.0},
                        {"kind": "random"}, {"kind": "greedy"}],
        "value_grid": {"n_x": 200, "n_t": 200},
        "seed": SEED,
        "lemma2": {"particle_count": 20, "pairs": 100,
                   "deltas": [0.02, 0.01, 0.005], "trials_per_pair": 10_000},
    })
    model = TwoTypeModel()
    constants = estimate_constants(model, seed=SEED).constants
    beta, c_gain = coupling_constants(model, constants)
    result = run_lemma2_check(scenario)
    elapsed = time.monotonic() - start
    at_001 = [row for row in result.rows if row["delta"] == 0.01]
    violations_001 = sum(row["violation"] for row in at_001)
    ok = (beta == 4.0 and c_gain == 8.0 and result.passed
          and result.summary["violations"] == 0 and violations_001 == 0
          and elapsed < 300.0)
    announce(6, ok, f"beta={beta}, C={c_gain}, violations={result.summary['violations']} "
                    f"over {len(result.rows)} checks "
                    f"({len(at_001)} at delta=0.01) ({elapsed:.1f}s)")
    assert ok


def test_criterion_7_mean_payoff_bound_and_scaling(guarantee_result):
    result, elapsed = guarantee_result
    mean_ok = all(row["mean_ok"] for row in result.rows)
    slopes = {k: v for k, v in result.summary["gap_slopes"].items()
              if k.startswith("extremal")}
    slope = next(iter(slopes.values()))
    slope_ok = slope is not None and 0.3 <= slope <= 0.7
    ok = mean_ok and slope_ok and elapsed < 600.0
    gaps = [f"h={row['h']:.4g}:gap={row['mean_payoff']-row['value_start']:+.4f}"
            for row in result.rows]
    announce(7, ok, f"all mean bounds hold, slope={slope if slope is None else round(slope, 3)} "
                    f"in [0.3,0.7]; {', '.join(gaps)} ({elapsed:.0f}s)")
    assert ok


def test_criterion_8_exceedance_bound(guarantee_result):
    result, elapsed = guarantee_result
    ok = all(row["exceed_ok"] for row in result.rows)
    vacuous = [row["h"] for row in result.rows if row["exceed_vacuous"]]
    details = ", ".join(
        f"h={row['h']:.4g}: p={row['exceed_prob']:.4f} <= {row['exceed_bound']:.4f}"
        + (" (vacuous)" if row["exceed_vacuous"] else "")
        for row in result.rows)
    announce(8, ok, details + (f"; vacuous at h in {vacuous}" if vacuous else ""))
    assert ok


def test_criterion_9_second_player_mirror():
    scenario = Scenario.from_dict({
        "model": "two-type",
        "particle_counts": [20, 40, 80, 160],
        "partition_steps": [200],
        "initial_state": [1.0, 0.0],
        "trials": 2000,
        "adversaries": [{"kind": "constant", "value": 0.0},
                        {"kind": "constant", "value": 0.5},
                        {"kind": "constant", "value": 1.0}],
        "value_grid": {"n_x": 200, "n_t": 200},
        "seed": SEED + 2,
    })
    start = time.monotonic()
    result = run_corollary_experiment(scenario, workers=WORKERS)
    elapsed = time.monotonic() - start
    ok = all(row["mean_ok"] for row in result.rows) and elapsed < 600.0
    worst = min(row["mean_payoff"] - (row["mean_bound"] - 2 * row["sem"])
                for row in result.rows)
    announce(9, ok, f"{len(result.rows)} configurations, worst slack {worst:+.4f} "
                    f"({elapsed:.0f}s)")
    assert ok


def test_criterion_10_guide_monotonicity(guarantee_result):
    result, _ = guarantee_result
    fractions = [row["guide_violation_fraction"] for row in result.rows]
    ok = all(f <= 0.01 for f in fractions)
    announce(10, ok, f"violation fractions {['%.4f' % f for f in fractions]} (<=0.01)")
    assert ok


def test_criterion_11_reproducibility(tmp_path):
    scenario = {
        "model": "two-type",
        "particle_counts": [20, 40],
        # two partitions pool two trial blocks, so the 2-worker run forks a pool
        "partition_steps": [100, 50],
        "initial_state": [1.0, 0.0],
        "trials": 150,
        "adversaries": [{"kind": "extremal"}],
        "value_grid": {"n_x": 100, "n_t": 100},
        "seed": SEED + 3,
    }
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(scenario))
    start = time.monotonic()
    code_a = cli_main(["experiment", "--scenario", str(scen_path),
                       "--out", str(tmp_path / "single")])
    code_b = cli_main(["experiment", "--scenario", str(scen_path),
                       "--out", str(tmp_path / "multi"), "--workers", "2"])
    elapsed = time.monotonic() - start
    csv_same = (tmp_path / "single.csv").read_bytes() == (tmp_path / "multi.csv").read_bytes()
    json_same = (tmp_path / "single.json").read_bytes() == (tmp_path / "multi.json").read_bytes()
    ok = code_a == code_b and csv_same and json_same
    announce(11, ok, f"single vs multi worker: csv identical={csv_same}, "
                     f"summary identical={json_same} ({elapsed:.0f}s)")
    assert ok
