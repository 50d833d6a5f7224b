import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainguide import models
from chainguide.chain import RateBoundError, simulate_chain
from chainguide.guide import advance_guides
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, ZeroModel, isaacs_gap, mirrored
from chainguide.simplex import project_rows
from chainguide.strategy import (
    GREEDY_PROBE,
    JUMP_KEYS,
    ConstantPolicy,
    ControlWithGuideStrategy,
    GreedyPolicy,
    Partition,
    RandomPolicy,
    extremal_indices,
    run_episodes,
)
from chainguide.value import ValueField, build_simplex_grid, solve_value


@pytest.fixture(scope="module")
def two_type_setup():
    model = TwoTypeModel()
    field = solve_value(model, 100, build_simplex_grid(2, 100))
    return model, field


def test_partition_basics():
    p = Partition.uniform(0.0, 1.0, 4)
    assert p.steps == 4
    assert p.diameter == pytest.approx(0.25)
    with pytest.raises(ValueError):
        Partition([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        Partition([0.0])


def pair_values(model, t, xs, guides):
    """(u, reply v) control values of each row, read off the two grids."""
    own, reply = extremal_indices(model, t, np.atleast_2d(xs), np.atleast_2d(guides))
    return list(zip(model.u_grid.values()[own], model.v_grid.values()[reply]))



def test_extremal_controls_examples():
    model = TwoTypeModel()
    xs = np.array([[0.5, 0.5], [0.6, 0.4], [0.4, 0.6]])
    # zero displacement: objective vanishes, lowest grid indices win;
    # chain above guide: push down with u=1, adversary pushes up with v=1;
    # chain below guide: signs flip
    assert pair_values(model, 0.0, xs, np.full((3, 2), 0.5)) == [
        (0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]


def test_extremal_controls_brute_force_certificates():
    model = ThreeTypeRotorModel()
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.dirichlet(np.ones(3))
        w = rng.dirichlet(np.ones(3))
        t = rng.uniform(0, 1)
        own, reply = extremal_indices(model, t, x[None, :], w[None, :])
        s = models.control_surface(model, t, x[None, :], (x - w)[None, :])[0]
        ui, vi = int(own[0]), int(reply[0])
        # optimality certificates of the two enumeration orders
        assert np.all(s[ui].max() <= s.max(axis=1) + 1e-15)
        assert np.all(s[:, vi].min() >= s.min(axis=0).max() - 1e-15)
        # saddle inequality whenever the enumeration orders agree
        if isaacs_gap(model, t, x, x - w) == 0.0:
            assert np.all(s[ui, :][None, :] <= s[:, vi][:, None] + 1e-12)


@pytest.mark.parametrize("model", [TwoTypeModel(), ThreeTypeRotorModel()])
def test_extremal_indices_match_the_short_axis_formula(model):
    # the column-wise selection against argmin(max) / argmax(min) over the
    # surface's short axes, ties included
    rng = np.random.default_rng([model.dimension, 31])
    d = model.dimension
    tied_own = tied_reply = 0
    for _ in range(200):
        n = int(rng.integers(1, 40))
        # small lattice totals leave types empty, where controls acting on
        # them tie, and a guide on the chain ties every control
        xs = rng.multinomial(4, rng.dirichlet(np.ones(d)), size=n) / 4
        guides = rng.dirichlet(np.ones(d), size=n)
        on_chain = rng.random(n) < 0.3
        guides[on_chain] = xs[on_chain]
        t = float(rng.uniform(0.0, model.horizon))
        surface = models.control_surface(model, t, xs, xs - guides)
        worst, best = surface.max(axis=2), surface.min(axis=1)
        own, reply = extremal_indices(model, t, xs, guides)
        assert np.array_equal(own, np.argmin(worst, axis=1))
        assert np.array_equal(reply, np.argmax(best, axis=1))
        tied_own += np.sum(np.sum(worst == worst.min(axis=1, keepdims=True), axis=1) > 1)
        tied_reply += np.sum(np.sum(best == best.max(axis=1, keepdims=True), axis=1) > 1)
    assert tied_own > 0 and tied_reply > 0


def test_extremal_selection_scale_invariant():
    model = TwoTypeModel()
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = rng.dirichlet(np.ones(2))
        w = rng.dirichlet(np.ones(2))
        t = rng.uniform(0, 1)
        nearby = x + 0.013 * (w - x) / max(np.linalg.norm(w - x), 1e-12)
        assert pair_values(model, t, x, w) == pair_values(model, t, x, nearby)


def test_second_player_selection_mirrors():
    model = TwoTypeModel()
    xs = np.array([[0.6, 0.4], [0.4, 0.6]])
    # player 2 is player 1 on the mirror, so the pairs read (v, anticipated u).
    # Chain above player 2's guide: player 2 pulls x1 down with v=0 and
    # expects u=0; chain below: push up with v=1, anticipated u=1
    assert pair_values(mirrored(model), 0.0, xs, np.full((2, 2), 0.5)) == [
        (0.0, 0.0), (1.0, 1.0)]


def test_strategy_selector_matches_displacement_sign(two_type_setup):
    model, field = two_type_setup
    strat = ControlWithGuideStrategy(field, model)
    # equal start: lowest-index control; chain above guide: drain type 1
    values, _, _ = strat.select_batch(0.0, np.array([[0.5, 0.5], [0.55, 0.45]]),
                                      np.full((2, 2), 0.5))
    assert list(values) == [0.0, 1.0]
    # determinism
    a = strat.select_batch(0.3, np.array([[0.7, 0.3]]), np.array([[0.6, 0.4]]))
    b = strat.select_batch(0.3, np.array([[0.7, 0.3]]), np.array([[0.6, 0.4]]))
    assert all(np.array_equal(p, q) for p, q in zip(a, b))


def test_strategy_role_enforced(two_type_setup):
    model, field = two_type_setup
    y = [5, 5]
    partition = Partition.uniform(0, 1, 5)
    # player 2 on the model itself, and player 1 on the mirror, are both refused
    with pytest.raises(ValueError, match="player 2"):
        run_episodes(model, y, partition, 1.0, ControlWithGuideStrategy(field, model),
                     np.random.default_rng(0))
    with pytest.raises(ValueError, match="player 1"):
        run_episodes(model, y, partition,
                     ControlWithGuideStrategy(field.negated(), mirrored(model)), 1.0,
                     np.random.default_rng(0))


def test_zero_model_episode_is_static():
    model = ZeroModel()
    field = solve_value(model, 10, build_simplex_grid(2, 10))
    strat = ControlWithGuideStrategy(field, model)
    batch = run_episodes(model, [3, 1], Partition.uniform(0, 1, 10),
                         strat, 0.0, np.random.default_rng(1), record=True)
    trace = batch.trace
    assert trace["counts"].shape == (1, 11, 2)
    assert np.all(trace["counts"] == [3, 1])
    assert np.allclose(trace["guide1"], [0.75, 0.25])
    assert batch.payoffs[0] == 0.75
    assert not trace["violations1"].any()
    assert trace["jump_rows"].size == 0


def test_episode_counts_conserved_and_payoff_consistent(two_type_setup):
    model, field = two_type_setup
    strat = ControlWithGuideStrategy(field, model)
    batch = run_episodes(model, [20, 0], Partition.uniform(0, 1, 50),
                         strat, ConstantPolicy(1.0), np.random.default_rng(5), record=True)
    trace = batch.trace
    counts = trace["counts"][0]
    assert np.all(counts.sum(axis=1) == 20)
    assert batch.payoffs[0] == pytest.approx(counts[-1, 0] / 20, abs=1e-12)
    # controls come from the grids
    assert set(np.unique(trace["controls_u"])) <= set(model.u_grid.points)
    assert np.all(trace["controls_v"] == 1.0)
    # jump log is consistent with the per-step counts
    assert trace["jump_rows"].size == batch.accepted > 0
    assert np.all(trace["jump_from"] != trace["jump_to"])
    final = counts[0] + np.bincount(trace["jump_to"], minlength=2) \
        - np.bincount(trace["jump_from"], minlength=2)
    assert np.array_equal(final, counts[-1])


def test_batched_episodes_match_sequential_runs(two_type_setup):
    model, field = two_type_setup
    strat1 = ControlWithGuideStrategy(field, model)
    strat2 = ControlWithGuideStrategy(field.negated(), mirrored(model))
    y = [16, 4]
    partition = Partition.uniform(0.0, 1.0, 25)

    # extremal against extremal draws only in the chain: each trial of the
    # batch matches a one-row chain step by step with the batch's kernel
    batch = run_episodes(model, np.tile(y, (6, 1)), partition, strat1, strat2,
                         np.random.default_rng(77), record=True)
    trace = batch.trace
    assert trace["counts"].shape == (6, partition.steps + 1, 2)
    replay = np.random.default_rng(77)
    counts = np.tile(y, (6, 1))
    for k in range(partition.steps):
        simulate_chain(model, partition.times[k], partition.times[k + 1], counts,
                       trace["controls_u"][:, k], trace["controls_v"][:, k], replay)
        assert np.array_equal(counts, trace["counts"][:, k + 1])
    assert np.array_equal(batch.payoffs, counts[:, 0] / 20)


def test_both_guides_private_and_recorded(two_type_setup):
    model, field = two_type_setup
    strat1 = ControlWithGuideStrategy(field, model)
    strat2 = ControlWithGuideStrategy(field.negated(), mirrored(model))
    trace = run_episodes(model, [10, 10], Partition.uniform(0, 1, 20),
                         strat1, strat2, np.random.default_rng(9), record=True).trace
    assert trace["guide1"].shape == trace["guide2"].shape == (1, 21, 2)
    for p in (1, 2):
        assert trace[f"guide{p}_values"].shape == trace[f"violations{p}"].shape == (1, 20)
    guide1, guide2 = trace["guide1"][0], trace["guide2"][0]
    # both start on the chain
    assert np.allclose(guide1[0], [0.5, 0.5])
    assert np.allclose(guide2[0], [0.5, 0.5])
    # guides move on the full simplex, not the lattice
    assert guide1[5] in guide1


def test_random_policy_reproducible(two_type_setup):
    model, field = two_type_setup
    y = [10, 10]
    partition = Partition.uniform(0.0, 1.0, 10)
    pol = RandomPolicy(model.v_grid)
    starts = np.tile(y, (5, 1))
    a = run_episodes(model, starts, partition, 1.0, pol, np.random.default_rng([4, 0]),
                     record=True)
    b = run_episodes(model, starts, partition, 1.0, pol, np.random.default_rng([4, 0]))
    assert np.array_equal(a.payoffs, b.payoffs)
    # each step draws one grid-index vector over the batch, before the chain's draws
    rng = np.random.default_rng([4, 0])
    first = model.v_grid.values()[rng.integers(len(model.v_grid), size=5)]
    assert np.array_equal(a.trace["controls_v"][:, 0], first)


def test_greedy_policy_pushes_payoff(two_type_setup):
    model, field = two_type_setup
    pol = GreedyPolicy(mirrored(model))
    counts = np.array([[10, 10], [20, 0]])
    vals = pol.step_values(0.0, counts, 20, None)
    # raising x1 raises the payoff, so greedy picks the top v where v can act;
    # with no type-2 mass the v-row ties and the lowest grid index wins
    assert list(vals) == [1.0, 0.0]
    pol1 = GreedyPolicy(model)
    vals = pol1.step_values(0.0, counts, 20, None)
    assert np.all(vals == 1.0)  # u = 1 drains x1 fastest


def test_greedy_reads_the_chain_state_as_counts_over_total():
    # a near tie: the worst-case gains of v = 0 and v = 0.25 differ in the
    # last bit, and counts * 0.1 gives x0 = 0.6000000000000001, which flips
    # the pick to v = 0
    model = ThreeTypeRotorModel(u_levels=(0, 0.25), v_levels=(0, 0.25))
    counts = np.array([[6, 4, 0]])
    assert not np.array_equal(counts / 10, counts * 0.1)
    pol = GreedyPolicy(mirrored(model))
    assert list(pol.step_values(0.0, counts, 10, None)) == [0.25]
    assert list(pol.step_values(0.0, counts, np.array([[10]]), None)) == [0.25]


LEVELS = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                  min_size=2, max_size=4, unique=True)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([TwoTypeModel, ThreeTypeRotorModel]), LEVELS, LEVELS,
       st.integers(0, 2**32 - 1))
def test_second_role_is_first_role_on_mirrored_model(model_cls, u_levels, v_levels, seed):
    base = model_cls(u_levels=u_levels, v_levels=v_levels)
    mirror = mirrored(base)
    assert mirrored(mirror) is base
    d = base.dimension
    rng = np.random.default_rng(seed)
    grid = build_simplex_grid(d, 10)
    times = np.linspace(0.0, base.horizon, 6)
    field = ValueField(grid, times, rng.uniform(size=(times.size, grid.node_count)))
    n, total = 4, 10
    counts = rng.multinomial(total, rng.dirichlet(np.ones(d)), size=n)
    xs = counts / total  # the chain state as the episode runner forms it
    guides = rng.dirichlet(np.ones(d), size=n)
    t = float(rng.uniform(0.0, 0.9))

    # the mirror swaps the seats exactly
    drifts = base.drift_grid_multi(t, xs)
    assert np.array_equal(mirror.drift_grid_multi(t, xs), np.swapaxes(drifts, 1, 2))
    assert np.array_equal(mirror.rate_matrix_grid_multi(t, xs),
                          np.swapaxes(base.rate_matrix_grid_multi(t, xs), 1, 2))
    assert np.array_equal(mirror.terminal_payoff(xs), -base.terminal_payoff(xs))

    # player 2's extremal pair stated on the base surface: the v that
    # minimizes the worst growth over u, the u that maximizes the best
    surface = models.control_surface(base, t, xs, xs - guides)
    own, reply = extremal_indices(mirror, t, xs, guides)
    assert np.array_equal(own, np.argmin(surface.max(axis=1), axis=1))
    assert np.array_equal(reply, np.argmax(surface.min(axis=2), axis=1))

    # player 2's greedy v raises the base payoff most against the worst u
    probes = xs[:, None, None, :] + GREEDY_PROBE * drifts
    project_rows(probes)
    gains = base.terminal_payoff(probes) - base.terminal_payoff(xs)[:, None, None]
    greedy = GreedyPolicy(mirror).step_values(t, counts, total, None)
    assert np.array_equal(greedy, base.v_grid.values()[np.argmax(gains.min(axis=1), axis=1)])

    # player 2's guide reads the negated field: every reading is the
    # negated reading of the base field, and a flag means the base value fell
    fixed = rng.integers(len(base.u_grid), size=n)
    slack = float(rng.uniform(0.0, 0.01))
    ends, start, end, flags, _ = advance_guides(field.negated(), mirror, t, t + 0.05,
                                                guides, fixed, slack)
    base_start = field.eval_batch(t, guides)
    base_end = field.eval_batch(t + 0.05, ends)
    assert np.array_equal(start, -base_start)
    assert np.array_equal(end, -base_end)
    assert np.array_equal(flags, base_end < base_start - slack)

    # player 2 in the base game is player 1 in the mirrored game: the random
    # player 1 of the base game and the random player 2 of the mirror draw
    # the same vector from the same shared stream each step
    y = counts[:3]
    partition = Partition.uniform(0.0, base.horizon, 5)
    guided = ControlWithGuideStrategy(field.negated(), mirror)
    batch = run_episodes(base, y, partition, RandomPolicy(base.u_grid), guided,
                         np.random.default_rng([seed, 0]), record=True)
    m_batch = run_episodes(mirror, y, partition, guided, RandomPolicy(mirror.v_grid),
                           np.random.default_rng([seed, 0]), record=True)
    assert np.array_equal(batch.payoffs, -m_batch.payoffs)
    assert np.array_equal(batch.violation_fraction2, m_batch.violation_fraction1)
    assert np.array_equal(batch.violation_fraction1, m_batch.violation_fraction2)
    trace, m_trace = batch.trace, m_batch.trace
    assert np.array_equal(trace["controls_v"], m_trace["controls_u"])
    assert np.array_equal(trace["guide2"], m_trace["guide1"])
    # recorded as readings of the base field
    assert np.array_equal(trace["guide2_values"], -m_trace["guide1_values"])


def test_mean_payoff_tracks_value(two_type_setup):
    # a light statistical pull: with both extremal-shift strategies the mean
    # payoff should sit near the game value
    model, field = two_type_setup
    strat1 = ControlWithGuideStrategy(field, model)
    strat2 = ControlWithGuideStrategy(field.negated(), mirrored(model))
    y = [40, 0]
    partition = Partition.uniform(0.0, 1.0, 50)
    batch = run_episodes(model, np.tile(y, (200, 1)), partition, strat1, strat2,
                         np.random.default_rng(101))
    target = 0.5 + 0.5 * np.exp(-2.0)
    sem = batch.payoffs.std(ddof=1) / np.sqrt(batch.payoffs.size)
    assert abs(batch.payoffs.mean() - target) <= 0.06 + 3 * sem
    assert batch.violation_fraction1.mean() <= 0.05
    assert batch.violation_fraction2.mean() <= 0.05


def test_trajectory_record_serialization(two_type_setup):
    # the trace is plain arrays, each of which turns into JSON through tolist
    model, field = two_type_setup
    strat = ControlWithGuideStrategy(field, model)
    batch = run_episodes(model, [8, 2], Partition.uniform(0, 1, 5),
                         strat, 0.5, np.random.default_rng(13), record=True)
    payload = json.loads(json.dumps({key: a.tolist() for key, a in batch.trace.items()}))
    assert set(payload) == {"counts", "controls_u", "controls_v",
                            "guide1", "guide1_values", "violations1", *JUMP_KEYS}
    assert sum(payload["counts"][0][0]) == 10
    assert len(payload["counts"][0]) == 6
    assert len(payload["controls_u"][0]) == 5
    assert all(isinstance(t, float) for t in payload["jump_times"])
    assert all(isinstance(r, int) for r in payload["jump_rows"])
    assert isinstance(batch.payoffs.tolist()[0], float)


class SampledKTwoType(TwoTypeModel):
    """Declares no rate bound, so K must be sampled."""

    def __init__(self):
        super().__init__()
        self.declared_k = None


def test_rate_bound_resolved_once_per_run(monkeypatch):
    calls = []
    real = models.estimate_constants

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(models, "estimate_constants", counting)
    run_episodes(SampledKTwoType(), np.tile([3, 2], (5, 1)), Partition.uniform(0.0, 1.0, 20),
                 1.0, 0.5, np.random.default_rng(2))
    assert len(calls) <= 1


def test_run_episodes_rate_bound_error():
    model = TwoTypeModel()
    model.declared_k = 0.5  # lie: actual rates reach 1.0
    with pytest.raises(RateBoundError):
        run_episodes(model, np.tile([5, 5], (10, 1)), Partition.uniform(0.0, 1.0, 10),
                     1.0, 1.0, np.random.default_rng(1))


def test_episode_batch_thinning_tallies():
    model = TwoTypeModel()
    partition = Partition.uniform(0.0, 1.0, 10)
    starts = np.tile([6, 2], (8, 1))
    batch = run_episodes(model, starts, partition, 1.0, 0.5, np.random.default_rng(6))
    # candidates arrive at rate (d-1) K M = 8 over unit time, per trial
    assert 0 < batch.accepted <= batch.candidates
    assert batch.candidates == pytest.approx(8 * 8, rel=0.5)
    assert batch.max_rate_ratio == 1.0
    # the tallies sum the kernel's tallies over the steps
    rng, counts = np.random.default_rng(6), starts.copy()
    steps = [simulate_chain(model, partition.times[k], partition.times[k + 1], counts, 1.0, 0.5,
                            rng) for k in range(partition.steps)]
    assert batch.candidates == sum(s.candidates for s in steps)
    assert batch.accepted == sum(s.accepted for s in steps)


@pytest.fixture(scope="module")
def small_fields():
    """Each bundled model with a coarse solved field, keyed by dimension."""
    fields = {}
    for model in (TwoTypeModel(), ThreeTypeRotorModel()):
        fields[model.dimension] = (model, solve_value(model, 12, build_simplex_grid(
            model.dimension, 12)))
    return fields


def _side(kind, player, model, field, value):
    """Player ``player``'s side of ``kind``, built on its own seat's model."""
    seat = model if player == 1 else mirrored(model)
    if kind == "guided":
        return ControlWithGuideStrategy(field if player == 1 else field.negated(), seat)
    if kind == "random":
        return RandomPolicy(seat.u_grid)
    if kind == "greedy":
        return GreedyPolicy(seat)
    return value


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_recorded_trace_replays_and_changes_nothing(small_fields, data):
    d = data.draw(st.sampled_from([2, 3]))
    model, field = small_fields[d]
    kinds = ("guided", "random", "greedy", "constant")
    sides = [_side(data.draw(st.sampled_from(kinds)), p, model, field,
                   data.draw(st.sampled_from([0.0, 0.5, 1.0]))) for p in (1, 2)]
    # mixed totals, each row positive
    starts = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 6), min_size=d, max_size=d).filter(lambda row: sum(row) > 0),
        min_size=1, max_size=5)), dtype=np.int64)
    n = len(starts)
    partition = Partition.uniform(data.draw(st.sampled_from([0.0, 0.3])), model.horizon,
                                  data.draw(st.integers(1, 6)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    batch = run_episodes(model, starts, partition, *sides, np.random.default_rng(seed),
                         record=True)
    plain = run_episodes(model, starts, partition, *sides, np.random.default_rng(seed))

    # recording changes no result
    for name in ("payoffs", "violation_fraction1", "violation_fraction2"):
        assert np.array_equal(getattr(batch, name), getattr(plain, name))
    for name in ("candidates", "accepted", "max_rate_ratio"):
        assert getattr(batch, name) == getattr(plain, name)

    trace = batch.trace
    times = partition.times
    assert trace["counts"].shape == (n, partition.steps + 1, d)
    assert np.array_equal(trace["counts"][:, 0], starts)
    assert trace["jump_rows"].size == batch.accepted
    for r in range(n):
        mine = trace["jump_rows"] == r
        jump_times = trace["jump_times"][mine]
        assert np.all(np.diff(jump_times) > 0.0)
        assert np.all((jump_times > times[0]) & (jump_times <= times[-1]))
        # replaying the row's jumps from its start gives its counts at every partition time
        state = starts[r].copy()
        ends = np.searchsorted(jump_times, times[1:], side="right")
        done = 0
        for k, end in enumerate(ends):
            np.subtract.at(state, trace["jump_from"][mine][done:end], 1)
            np.add.at(state, trace["jump_to"][mine][done:end], 1)
            done = end
            assert np.array_equal(state, trace["counts"][r, k + 1])
