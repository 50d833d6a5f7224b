import json

import numpy as np
import pytest

from chainguide import harness
from chainguide.harness import (
    Scenario,
    ScenarioError,
    _exact_squared_distance,
    _one_step_squared_distance,
    adversary_label,
    emit_results,
    run_corollary_experiment,
    run_lemma1_check,
    run_lemma2_check,
    run_oracle_check,
    run_simulate,
    run_theorem1_experiment,
    run_value,
)
from chainguide.chain import RateBoundError, simulate_chain
from chainguide.models import (
    ThreeTypeRotorModel,
    TwoTypeModel,
    coupling_constants,
    estimate_constants,
)


def small_scenario(**overrides):
    base = {
        "model": "two-type",
        "particle_counts": [10, 20],
        "partition_steps": [40],
        "initial_state": [1.0, 0.0],
        "trials": 60,
        "adversaries": [{"kind": "extremal"}],
        "value_grid": {"n_x": 60, "n_t": 60},
        "seed": 3,
    }
    base.update(overrides)
    return Scenario.from_dict(base)


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"model": "two-type", "bogus": 1})
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"model": "two-type", "value_grid": {"nx": 10}})
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"model": "two-type", "adversaries": [{"kind": "nope"}]})
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"model": "two-type", "adversaries": [{"kind": "constant"}]})
    with pytest.raises(ScenarioError):
        Scenario.from_dict({})


def test_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"model": "two-type", "trials": 7}))
    scen = Scenario.load(path)
    assert scen.trials == 7
    assert scen.particle_counts == [20, 40, 80, 160]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        Scenario.load(bad)


def test_adversary_labels():
    assert adversary_label({"kind": "extremal"}) == "extremal"
    assert adversary_label({"kind": "constant", "value": 0.5}) == "constant(0.5)"


def test_lemma1_check_two_type():
    scen = small_scenario(lemma1={"particle_count": 4, "state": [2, 2],
                                  "u": 1.0, "v": 0.0})
    result = run_lemma1_check(scen)
    assert result.passed
    by_target = {}
    for row in result.rows:
        by_target.setdefault(row["target"], []).append(row)
    # leading term of the only live jump at delta=0.01: counts_1 * Q_12 * delta
    jump = {row["delta"]: row for row in by_target["jump_0_to_1"]}
    assert jump[0.01]["leading_term"] == pytest.approx(0.02, abs=1e-15)
    # second-order correction only
    assert jump[0.01]["probability"] == pytest.approx(0.02, abs=5e-4)
    # second-order residual decay
    for row in jump.values():
        if row["residual_ratio"] is not None:
            assert row["residual_ratio"] >= 3.0
    # the v-driven reverse jump never fires with v = 0
    reverse = {row["delta"]: row for row in by_target["jump_1_to_0"]}
    assert all(row["probability"] <= 1e-12 for row in reverse.values())
    # two-jump mass is quadratically small
    for row in by_target["two_jump"]:
        assert row["probability"] <= row["two_jump_bound"]


def test_lemma1_three_type_time_dependent():
    # frozen-coefficient leading terms still leave a second-order residual
    # when the rates move with t
    scen = small_scenario(model="three-type",
                          lemma1={"particle_count": 5, "state": [2, 2, 1],
                                  "u": 1.0, "v": 1.0,
                                  "deltas": [0.02, 0.01, 0.005]})
    result = run_lemma1_check(scen)
    assert result.passed
    ratios = [row["residual_ratio"] for row in result.rows
              if row["residual_ratio"] is not None]
    assert ratios and all(r >= 3.0 for r in ratios)


def test_lemma1_zero_model_is_exact():
    scen = small_scenario(model="zero", lemma1={"particle_count": 4, "state": [2, 2]})
    result = run_lemma1_check(scen)
    assert result.passed
    stay = [row for row in result.rows if row["target"] == "stay"]
    assert all(row["probability"] == 1.0 for row in stay)
    assert all(row["residual"] == 0.0 for row in stay)


def test_one_step_kernel_matches_exact_oracle():
    model = TwoTypeModel()
    constants = estimate_constants(model, seed=0).constants
    counts0 = np.array([10, 10], dtype=np.int64)
    w_plus = np.array([0.45, 0.55])
    rng = np.random.default_rng(21)
    v_idx = np.full(20000, 2, dtype=np.int64)  # v = 1
    mc_mean, mc_sem = _one_step_squared_distance(
        model, constants.k, 0.1, 0.02, counts0, 2, v_idx, w_plus, 20000, rng)
    exact = _exact_squared_distance(model, 0.1, 0.02, counts0,
                                    1.0, 1.0, w_plus)
    assert abs(mc_mean - exact) <= 3.5 * mc_sem


def test_one_step_kernel_coincident_start_noise_only():
    # starting the guide exactly on the chain leaves only the jump-noise term:
    # E||X - w||^2 <= C*h*delta plus the o(delta) allowance
    model = TwoTypeModel()
    constants = estimate_constants(model, seed=0).constants
    _, c_gain = coupling_constants(model, constants)
    counts0 = np.array([10, 10], dtype=np.int64)
    w_plus = counts0 / 20
    delta, h = 0.01, 1 / 20
    rng = np.random.default_rng(33)
    v_idx = np.full(20000, 2, dtype=np.int64)
    mc_mean, mc_sem = _one_step_squared_distance(
        model, constants.k, 0.0, delta, counts0, 2, v_idx, w_plus, 20000, rng)
    assert mc_mean <= c_gain * h * delta + 3 * mc_sem
    # and the noise term is genuinely present
    exact = _exact_squared_distance(model, 0.0, delta, counts0,
                                    1.0, 1.0, w_plus)
    assert exact > 0.0
    assert abs(mc_mean - exact) <= 3.5 * mc_sem


def _reference_one_step_counts(model, k_bound, t0, delta, counts0, u_idx, v_idx, rng):
    """The shared-generator one-step loop the batched kernel replaced: final counts."""
    d = model.dimension
    total = int(counts0.sum())
    lam = (d - 1) * k_bound * total
    counts = np.tile(counts0.astype(float), (v_idx.size, 1))
    t = np.full(v_idx.size, float(t0))
    active = np.arange(v_idx.size)
    while active.size:
        t[active] = t[active] + rng.exponential(1.0 / lam, size=active.size)
        active = active[t[active] < t0 + delta]
        if not active.size:
            break
        xs = counts[active] / total
        cdf = np.cumsum(xs, axis=1)
        draw = rng.random(active.size) * cdf[:, -1]
        i_sel = np.minimum((draw[:, None] >= cdf).sum(axis=1), d - 1)
        j_off = rng.integers(0, d - 1, size=active.size)
        j_sel = j_off + (j_off >= i_sel)
        rates = model.rate_matrix_multi(t[active], xs, model.u_grid.values()[u_idx],
                                        model.v_grid.values()[v_idx[active]])
        q = rates[np.arange(active.size), i_sel, j_sel]
        acc = np.flatnonzero(rng.random(active.size) * k_bound < q)
        counts[active[acc], i_sel[acc]] -= 1.0
        counts[active[acc], j_sel[acc]] += 1.0
    return counts


@pytest.mark.parametrize("model, counts0", [
    (TwoTypeModel(), np.array([12, 8])),
    (ThreeTypeRotorModel(), np.array([7, 9, 4])),
])
def test_one_step_kernel_reproduces_shared_stream(model, counts0):
    v_idx = np.random.default_rng(5).integers(0, len(model.v_grid), size=400)
    expect = _reference_one_step_counts(model, model.declared_k, 0.3, 0.05, counts0, 1,
                                        v_idx, np.random.default_rng(9))
    counts = np.tile(counts0, (400, 1))
    simulate_chain(model, 0.3, 0.3 + 0.05, counts, model.u_grid[1], model.v_grid.values()[v_idx],
                   np.random.default_rng(9), rate_bound=model.declared_k, record_events=False)
    assert np.array_equal(counts, expect)


def test_one_step_kernel_rate_bound_error():
    model = TwoTypeModel()
    v_idx = np.full(500, 2, dtype=np.int64)  # v = 1 exceeds the claimed bound
    with pytest.raises(RateBoundError):
        _one_step_squared_distance(model, 0.5, 0.1, 0.02, np.array([10, 10]), 2, v_idx,
                                   np.array([0.5, 0.5]), 500, np.random.default_rng(2))


def test_lemma2_check_small():
    scen = small_scenario(
        adversaries=[{"kind": "extremal"}, {"kind": "constant", "value": 1.0},
                     {"kind": "random"}, {"kind": "greedy"}],
        lemma2={"particle_count": 20, "pairs": 8, "deltas": [0.02, 0.01],
                "trials_per_pair": 1500},
    )
    result = run_lemma2_check(scen)
    assert result.passed
    assert result.summary["violations"] == 0
    assert len(result.rows) == 8 * 2 * 4
    for row in result.rows:
        # Monte Carlo agrees with the exact oracle well inside the allowance
        assert abs(row["mc_mean"] - row["exact_mean"]) <= 5 * max(row["mc_sem"], 1e-6)
    # allowances decay linearly with delta (time-homogeneous model)
    allow = result.summary["model_allowance_per_delta"]
    assert allow["0.01"] < allow["0.02"]


def test_oracle_check_small():
    scen = small_scenario(
        particle_counts=[4],
        oracle={"trials": 4000, "u": 1.0, "v": 0.0, "tv_tolerance": 0.05,
                "dynkin": {"coordinate": 0, "elapsed": 0.5}},
    )
    result = run_oracle_check(scen)
    assert result.passed
    checks = {row["check"]: row for row in result.rows}
    assert checks["expectation_identity_residual"]["statistic"] <= 1e-8
    assert checks["tv_distance(M=4)"]["ok"]


def test_oracle_dynkin_window_stays_before_the_horizon(monkeypatch):
    windows = []

    def dynkin_residual(model, f, t0, t1, *args, **kwargs):
        windows.append((t0, t1, model.horizon))
        return 0.0

    monkeypatch.setattr(harness, "dynkin_residual", dynkin_residual)
    scen = small_scenario(model="three-type", initial_state=[0.4, 0.4, 0.2],
                          particle_counts=[3], start_time=0.9,
                          oracle={"trials": 200, "unit_check": False, "tv_tolerance": 1.0})
    run_oracle_check(scen)
    [(t0, t1, horizon)] = windows
    assert t0 == 0.9 and t0 < t1 <= horizon


def test_experiment_rows_and_bounds():
    scen = small_scenario(trials=80)
    result = run_theorem1_experiment(scen, workers=1)
    assert len(result.rows) == 2  # two particle counts, one adversary
    assert result.summary["bounds_ok"]
    assert result.summary["guide_violations_ok"]
    for row in result.rows:
        assert row["mean_ok"]
        assert set(row) == set(result.columns)
        assert row["d_const"] == pytest.approx(8.0)  # 2 d^2 K T
        assert row["mean_bound"] == pytest.approx(
            row["value_start"] + row["r"] * np.sqrt(row["d_const"] * row["h"]))


def test_experiment_single_and_multi_worker_identical(tmp_path):
    scen = small_scenario(trials=50, particle_counts=[10])
    a = run_theorem1_experiment(scen, workers=1)
    b = run_theorem1_experiment(scen, workers=2)
    pa = emit_results(a, tmp_path / "a")
    pb = emit_results(b, tmp_path / "b")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert pa[0].endswith(".csv") and pb[1].endswith(".json")


def test_corollary_bounds_hold():
    scen = small_scenario(
        trials=80,
        adversaries=[{"kind": "constant", "value": 0.0},
                     {"kind": "constant", "value": 1.0}],
    )
    result = run_corollary_experiment(scen, workers=1)
    assert result.passed
    for row in result.rows:
        assert row["mean_payoff"] >= row["mean_bound"] - 2 * row["sem"] - 1e-12


def test_zero_model_experiment_trivial():
    scen = small_scenario(model="zero", particle_counts=[10], trials=30,
                          adversaries=[{"kind": "constant", "value": 0.0}])
    result = run_theorem1_experiment(scen, workers=1)
    row = result.rows[0]
    # nothing jumps: payoff is the start fraction, exactly the value
    assert row["mean_payoff"] == 1.0
    assert row["value_start"] == 1.0
    assert row["sem"] == 0.0
    assert row["mean_ok"] and row["exceed_ok"]


def test_both_extremal_players_sit_between_bounds():
    scen = small_scenario(trials=150, particle_counts=[20], partition_steps=[60])
    result = run_theorem1_experiment(scen, workers=1)
    row = result.rows[0]
    spread = row["r"] * np.sqrt(row["d_const"] * row["h"])
    assert row["mean_payoff"] <= row["value_start"] + spread + 2 * row["sem"]
    assert row["mean_payoff"] >= row["value_start"] - spread - 2 * row["sem"]


def test_emit_results_empty_and_deterministic(tmp_path):
    from chainguide.harness import ExperimentResult

    empty = ExperimentResult("lemma1", ["a", "b"], [], {"kind": "lemma1",
                                                        "passed": True}, True)
    table, summary = emit_results(empty, tmp_path / "empty")
    assert open(table).read() == "a,b\n"
    payload = json.loads(open(summary).read())
    assert payload["rows"] == []
    # identical re-emission
    emit_results(empty, tmp_path / "empty2")
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "empty2.csv").read_bytes()


def test_emit_results_column_discipline(tmp_path):
    scen = small_scenario(trials=30, particle_counts=[10])
    result = run_theorem1_experiment(scen, workers=1)
    table, _ = emit_results(result, tmp_path / "exp")
    lines = open(table).read().splitlines()
    header = lines[0].split(",")
    assert header == result.columns
    assert all(len(line.split(",")) == len(header) for line in lines[1:])
    assert len(lines) == 1 + len(result.rows)


def test_run_value_exports_field(tmp_path):
    scen = small_scenario(value_grid={"n_x": 50, "n_t": 50})
    out = tmp_path / "field.json"
    result = run_value(scen, export_field=str(out))
    assert result.passed
    assert out.exists()
    from chainguide.value import ValueField

    field = ValueField.load(out)
    assert field.grid.resolution == 50
    assert result.rows[0]["value_start"] == pytest.approx(
        field.eval(0.0, np.array([1.0, 0.0])), abs=1e-12)


def test_run_simulate_records():
    scen = small_scenario(simulate={"episodes": 3, "record_jumps": True,
                                    "particle_count": 10,
                                    "partition_step_count": 20})
    result = run_simulate(scen)
    assert result.passed
    assert len(result.rows) == 3
    assert len(result.summary["records"]) == 3
    rec = result.summary["records"][0]
    assert len(rec["counts"]) == 21
    assert "jumps" in rec
