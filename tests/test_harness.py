import json
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainguide import chain, harness
from chainguide.harness import (
    Scenario,
    ScenarioError,
    _lemma_step,
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
from chainguide.chain import RateBoundError, master_evolve, simulate_chain
from chainguide.strategy import ControlWithGuideStrategy, Partition, run_episodes
from chainguide.value import SimplexGrid
from chainguide.models import (
    ControlGrid,
    RateModel,
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


def _exact_squared_distance(model, t0, delta, counts, u, v, w_plus):
    """Exact E||X(t0 + delta) - w_plus||^2 from the law master_evolve gives at lemma 2's step."""
    dist = master_evolve(model, t0, t0 + delta, counts, u, v,
                         ode_step=_lemma_step(model, delta, int(np.sum(counts))))
    return float(dist.probs @ np.sum((dist.space.nodes - w_plus) ** 2, axis=1))


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


class UniformJumps(RateModel):
    """Any dimension: every particle jumps to each other type at rate u."""

    name = "uniform-jumps"
    horizon = 1.0
    declared_k = 1.0

    def __init__(self, dimension):
        self.dimension = dimension
        self.u_grid = ControlGrid((0.5, 1.0))
        self.v_grid = ControlGrid((0.0, 1.0))

    def rate_matrix(self, t, x, u, v):
        d = self.dimension
        return np.asarray(u)[..., None, None] * (np.ones((d, d)) - d * np.eye(d))

    def terminal_payoff(self, x):
        return np.asarray(x, dtype=float)[..., 0]


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 6), data=st.data())
def test_one_step_squared_distance_equals_the_row_sum_reference(d, data):
    model = UniformJumps(d)
    counts0 = np.array(data.draw(st.lists(st.integers(0, 12), min_size=d, max_size=d)
                                 .filter(any)), dtype=np.int64)
    w_plus = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(d))
    trials = data.draw(st.integers(2, 60))
    v_idx = np.zeros(trials, dtype=np.int64)
    mean, sem = _one_step_squared_distance(model, 1.0, 0.2, 0.3, counts0, 1, v_idx, w_plus,
                                           trials, np.random.default_rng(d))
    counts = np.tile(counts0, (trials, 1))
    simulate_chain(model, 0.2, 0.5, counts, 1.0, 0.0, np.random.default_rng(d),
                   rate_bound=1.0, record_events=False)
    sq = np.sum((counts / int(counts0.sum()) - w_plus) ** 2, axis=1)
    assert mean == float(np.sum(sq) / trials)
    assert sem == float(np.std(sq, ddof=1) / math.sqrt(trials))


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


def _spy_on_law_batches(monkeypatch):
    """Record every ``_evolve_laws`` call of the harness: its times, batch, step and RK4 steps."""
    calls = []
    rk4_calls = []
    rk4 = chain.rk4_step
    monkeypatch.setattr(chain, "rk4_step", lambda *args: rk4_calls.append(1) or rk4(*args))
    evolve = harness._evolve_laws

    def spy(gen, t0, t1, p, u, v, step):
        before = len(rk4_calls)
        laws = evolve(gen, t0, t1, p, u, v, step)
        calls.append((t0, t1, p.shape, step, len(rk4_calls) - before))
        return laws

    monkeypatch.setattr(harness, "_evolve_laws", spy)
    return calls


def test_lemma2_evolves_each_delta_in_one_batch_and_one_loop_per_step_count(monkeypatch):
    # the benchmark's lemma-2 shape, with fewer one-step draws
    calls = _spy_on_law_batches(monkeypatch)
    deltas = [0.02, 0.01, 0.005]
    scen = small_scenario(
        particle_counts=[20],
        adversaries=[{"kind": "extremal"}, {"kind": "constant", "value": 1.0},
                     {"kind": "random"}, {"kind": "greedy"}],
        value_grid={"n_x": 200, "n_t": 200}, seed=1,
        lemma2={"particle_count": 20, "pairs": 20, "deltas": deltas, "trials_per_pair": 200})
    result = run_lemma2_check(scen)
    assert len(result.rows) == 20 * 3 * 4
    assert [step for _, _, _, step, _ in calls] == [
        _lemma_step(TwoTypeModel(), delta, 20, result.summary["constants"]["k"])
        for delta in deltas]
    mixed = 0
    for t0, t1, shape, step, rk4_steps in calls:
        # every pair's laws: at least the random reply's whole v grid per pair
        assert t0.shape == t1.shape == (shape[0], 1) and shape[0] >= 20 * 3
        counts = np.unique(np.ceil((t1 - t0) / step))
        assert rk4_steps == counts.sum()
        mixed += counts.size > 1
    # (t0 + delta) - t0 rounds to either side of delta: some pairs take a step more
    assert mixed


@pytest.mark.parametrize("adversaries", [
    [{"kind": "extremal"}, {"kind": "constant", "value": 1.0}],
    [{"kind": "random"}, {"kind": "extremal"}],
])
def test_lemma2_law_blocks_stay_within_the_solve_block(monkeypatch, adversaries):
    calls = _spy_on_law_batches(monkeypatch)
    total = 73
    nodes = SimplexGrid(3, total).node_count
    assert nodes > harness.SOLVE_BLOCK_POINTS / 3
    pairs = 5
    scen = small_scenario(
        model="three-type", particle_counts=[total], initial_state=[0.4, 0.4, 0.2],
        adversaries=adversaries, value_grid={"n_x": 8, "n_t": 8},
        lemma2={"particle_count": total, "pairs": pairs, "deltas": [0.005],
                "trials_per_pair": 20})
    assert len(run_lemma2_check(scen).rows) == pairs * len(adversaries)
    # one pair's laws: the whole v grid for a random reply, else one per adversary
    one_pair = 3 if {"kind": "random"} in adversaries else len(adversaries)
    assert len(calls) > 1
    for _, _, (batch, n), _, _ in calls:
        assert n == nodes
        assert batch * n <= max(one_pair * n, harness.SOLVE_BLOCK_POINTS)


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


def _reference_experiment_rows(scenario, seat, block_trials):
    """Per-configuration figures from one ``run_episodes`` call per trial block, run in order.

    Configuration c is the c-th (partition steps, particle count, adversary)
    in that nesting order. The trials of the configurations that share a
    partition and an adversary are listed configuration by configuration
    and cut into blocks of ``block_trials``; the block that starts at entry
    lo of that list draws from (seed, partition steps, adversary index, lo).
    """
    scenario, model, constants, field, starts = harness._setup(
        scenario, scenario.particle_counts, adversary_seat=3 - seat)
    n = scenario.trials
    configs = [(m_steps, particle_count, adv_index)
               for m_steps in scenario.partition_steps
               for particle_count in scenario.particle_counts
               for adv_index in range(len(scenario.adversaries))]
    outcomes = {}
    for m_steps in scenario.partition_steps:
        for adv_index, adv in enumerate(scenario.adversaries):
            group = [c for c, (ms, _, ai) in enumerate(configs)
                     if (ms, ai) == (m_steps, adv_index)]
            ys = np.array([starts[configs[c][1]] for c in group for _ in range(n)])
            partition = Partition.uniform(scenario.start_time, model.horizon, m_steps)
            guided = ControlWithGuideStrategy(*harness._seat_view(seat, field, model),
                                              constants)
            adversary = harness._build_adversary(
                adv, *harness._seat_view(3 - seat, field, model), constants)
            players = (guided, adversary) if seat == 1 else (adversary, guided)
            parts = []
            for lo in range(0, len(ys), block_trials):
                rng = np.random.default_rng([scenario.seed, m_steps, adv_index, lo])
                batch = run_episodes(model, ys[lo:lo + block_trials], partition, *players,
                                     rng, rate_bound=constants.k)
                parts.append((batch.payoffs, batch.violation_fraction1,
                              batch.violation_fraction2))
            joined = [np.concatenate(column).reshape(len(group), n) for column in zip(*parts)]
            for row, c in enumerate(group):
                outcomes[c] = [column[row] for column in joined]
    rows = []
    for c, (_, particle_count, adv_index) in enumerate(configs):
        payoffs, viol1, viol2 = outcomes[c]
        own, opp = (viol1, viol2) if seat == 1 else (viol2, viol1)
        rows.append({
            "h": 1.0 / particle_count,
            "adversary": adversary_label(scenario.adversaries[adv_index]),
            "mean_payoff": float(np.sum(payoffs) / n),
            "sem": float(np.std(payoffs, ddof=1) / math.sqrt(n)),
            "guide_violation_fraction": float(np.sum(own) / n),
            "opp_guide_violation_fraction": float(np.sum(opp) / n),
        })
    return rows


@settings(max_examples=8, deadline=None)
@given(seat=st.sampled_from([1, 2]), workers=st.sampled_from([1, 2]),
       trials=st.integers(2, 7), block_trials=st.integers(1, 5), seed=st.integers(0, 50))
def test_pooled_trial_blocks_match_one_batch_per_configuration(seat, workers, trials,
                                                               block_trials, seed):
    # a repeated particle count, two partitions and a block size that splits
    # configurations: every block mixes totals and configurations, and each
    # block's figures are those of one batch on its own keyed stream
    scen = small_scenario(
        particle_counts=[20, 20, 7], partition_steps=[3, 2], trials=trials, seed=seed,
        adversaries=[{"kind": "random"}, {"kind": "greedy"}, {"kind": "extremal"}],
        value_grid={"n_x": 20, "n_t": 20})
    run = run_theorem1_experiment if seat == 1 else run_corollary_experiment
    with pytest.MonkeyPatch.context() as patch:
        # 17 hull candidates per guide on the two-type grids
        patch.setattr(harness, "SOLVE_BLOCK_POINTS", 17 * block_trials)
        rows = run(scen, workers=workers).rows
    expected = _reference_experiment_rows(scen, seat, block_trials)
    assert [{key: row[key] for key in expected[0]} for row in rows] == expected


@pytest.mark.parametrize("seat", [1, 2])
def test_collect_trials_same_with_and_without_a_pool(seat):
    # 3 configurations x 5 trials in one group, cut into blocks of 10 and 5;
    # a cut that halved the trials for two workers would give 8 and 7
    scen = small_scenario(particle_counts=[10, 20, 7], partition_steps=[4], trials=5,
                          adversaries=[{"kind": "random"}], value_grid={"n_x": 20, "n_t": 20})
    setup = harness._setup(scen, scen.particle_counts, adversary_seat=3 - seat)
    configs = [(4, count, 0) for count in scen.particle_counts]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "SOLVE_BLOCK_POINTS", 17 * 10)
        alone = harness._collect_trials(setup, configs, seat, 1)
        pooled = harness._collect_trials(setup, configs, seat, 2)
    assert alone.shape == (3, 3, 5)
    assert alone.tobytes() == pooled.tobytes()


def _spy_on_fork_pools(monkeypatch):
    """Record the process count of every pool the fork context starts."""
    pools = []
    fork = multiprocessing.get_context("fork")
    start_pool = fork.Pool
    monkeypatch.setattr(type(fork), "Pool", lambda self, processes, **kwargs:
                        pools.append(processes) or start_pool(processes, **kwargs))
    return pools


def test_one_block_experiment_forks_no_pool(monkeypatch):
    # 2 configurations x 50 trials fit one block of 481: one task, run inline
    pools = _spy_on_fork_pools(monkeypatch)
    blocks = []
    run_block = harness._run_trial_block
    monkeypatch.setattr(harness, "_run_trial_block",
                        lambda setup, *task: blocks.append(task) or run_block(setup, *task))
    rows = run_theorem1_experiment(small_scenario(trials=50), workers=2).rows
    assert pools == []
    assert [(lo, len(block)) for _, _, _, lo, block in blocks] == [(0, 100)]
    assert len(rows) == 2


def test_experiment_split_over_blocks_same_on_one_and_two_workers(tmp_path, monkeypatch):
    # blocks of 10 trials cut 2 configurations x 12 trials into 3 tasks for 2 workers
    scen = small_scenario(trials=12, value_grid={"n_x": 20, "n_t": 20})
    pools = _spy_on_fork_pools(monkeypatch)
    monkeypatch.setattr(harness, "SOLVE_BLOCK_POINTS", 17 * 10)
    one = run_theorem1_experiment(scen, workers=1)
    assert pools == []
    two = run_theorem1_experiment(scen, workers=2)
    assert pools == [2]
    emit_results(one, tmp_path / "one")
    emit_results(two, tmp_path / "two")
    for suffix in (".csv", ".json"):
        assert ((tmp_path / f"one{suffix}").read_bytes()
                == (tmp_path / f"two{suffix}").read_bytes())


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
    # the episodes are one batch on the stream keyed by (seed, 0)
    _, model, constants, field, starts = harness._setup(scen, (10,), adversary_seat=2)
    batch = run_episodes(model, np.tile(starts[10], (3, 1)), Partition.uniform(0.0, 1.0, 20),
                         ControlWithGuideStrategy(field, model, constants),
                         harness._build_adversary(scen.adversaries[0],
                                                  *harness._seat_view(2, field, model),
                                                  constants),
                         np.random.default_rng([scen.seed, 0]), rate_bound=constants.k,
                         record=True, record_jumps=True)
    assert [row["payoff"] for row in result.rows] == batch.payoffs.tolist()
    assert [r["counts"] for r in result.summary["records"]] == [
        r.counts.tolist() for r in batch.records]
