import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainguide import models
from chainguide.chain import RateBoundError
from chainguide.guide import advance_guides
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, ZeroModel, isaacs_gap, mirrored
from chainguide.simplex import project_rows
from chainguide.strategy import (
    GREEDY_PROBE,
    ConstantPolicy,
    ControlWithGuideStrategy,
    GreedyPolicy,
    Partition,
    RandomPolicy,
    TrajectoryRecord,
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
                     [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="player 1"):
        run_episodes(model, y, partition,
                     ControlWithGuideStrategy(field.negated(), mirrored(model)), 1.0,
                     [np.random.default_rng(0)])


def test_zero_model_episode_is_static():
    model = ZeroModel()
    field = solve_value(model, 10, build_simplex_grid(2, 10))
    strat = ControlWithGuideStrategy(field, model)
    record = run_episodes(model, [3, 1], Partition.uniform(0, 1, 10),
                          strat, 0.0, [np.random.default_rng(1)], record=True).records[0]
    assert np.all(record.counts == [3, 1])
    assert np.allclose(record.guide1, [0.75, 0.25])
    assert record.payoff == 0.75
    assert not record.violations1.any()


def test_episode_counts_conserved_and_payoff_consistent(two_type_setup):
    model, field = two_type_setup
    strat = ControlWithGuideStrategy(field, model)
    record = run_episodes(model, [20, 0], Partition.uniform(0, 1, 50),
                          strat, ConstantPolicy(1.0), [np.random.default_rng(5)],
                          record_jumps=True).records[0]
    assert np.all(record.counts.sum(axis=1) == 20)
    assert record.payoff == pytest.approx(record.counts[-1, 0] / 20, abs=1e-12)
    # controls come from the grids
    assert set(np.unique(record.controls_u)) <= set(model.u_grid.points)
    assert np.all(record.controls_v == 1.0)
    # jump log is consistent with the per-step counts
    assert all(e.from_type != e.to_type for e in record.jumps)


def test_batched_episodes_match_sequential_runs(two_type_setup):
    model, field = two_type_setup
    strat1 = ControlWithGuideStrategy(field, model)
    strat2 = ControlWithGuideStrategy(field.negated(), mirrored(model))
    y = [16, 4]
    partition = Partition.uniform(0.0, 1.0, 25)

    def seeded(n):
        return [np.random.default_rng([77, i]) for i in range(n)]

    batch = run_episodes(model, y, partition, strat1, strat2, seeded(6))
    singles = []
    for i in range(6):
        one = run_episodes(model, y, partition, strat1, strat2,
                           [np.random.default_rng([77, i])])
        singles.append(one.payoffs[0])
    assert np.array_equal(batch.payoffs, np.array(singles))


def test_both_guides_private_and_recorded(two_type_setup):
    model, field = two_type_setup
    strat1 = ControlWithGuideStrategy(field, model)
    strat2 = ControlWithGuideStrategy(field.negated(), mirrored(model))
    record = run_episodes(model, [10, 10], Partition.uniform(0, 1, 20),
                          strat1, strat2, [np.random.default_rng(9)], record=True).records[0]
    assert record.guide1 is not None and record.guide2 is not None
    assert record.guide1.shape == record.guide2.shape == (21, 2)
    # both start on the chain
    assert np.allclose(record.guide1[0], [0.5, 0.5])
    assert np.allclose(record.guide2[0], [0.5, 0.5])
    # guides move on the full simplex, not the lattice
    assert record.guide1[5] in record.guide1


def test_random_policy_reproducible(two_type_setup):
    model, field = two_type_setup
    y = [10, 10]
    partition = Partition.uniform(0.0, 1.0, 10)
    pol = RandomPolicy(model.v_grid)
    a = run_episodes(model, y, partition, 1.0, pol, [np.random.default_rng([4, 0])])
    b = run_episodes(model, y, partition, 1.0, pol, [np.random.default_rng([4, 0])])
    assert np.array_equal(a.payoffs, b.payoffs)


def test_greedy_policy_pushes_payoff(two_type_setup):
    model, field = two_type_setup
    pol = GreedyPolicy(mirrored(model))
    counts = np.array([[10, 10], [20, 0]])
    vals = pol.step_values(0.0, counts, 0.05, [None, None])
    # raising x1 raises the payoff, so greedy picks the top v where v can act;
    # with no type-2 mass the v-row ties and the lowest grid index wins
    assert list(vals) == [1.0, 0.0]
    pol1 = GreedyPolicy(model)
    vals = pol1.step_values(0.0, counts, 0.05, [None, None])
    assert np.all(vals == 1.0)  # u = 1 drains x1 fastest


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
    n, h = 4, 0.1
    counts = rng.multinomial(10, rng.dirichlet(np.ones(d)), size=n)
    xs = counts * h  # the chain state as the episode runner forms it
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
    greedy = GreedyPolicy(mirror).step_values(t, counts, h, [None] * n)
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

    # player 2 in the base game is player 1 in the mirrored game
    y = counts[0]
    partition = Partition.uniform(0.0, base.horizon, 5)
    guided = ControlWithGuideStrategy(field.negated(), mirror)
    batch = run_episodes(base, y, partition, RandomPolicy(base.u_grid), guided,
                         [np.random.default_rng([seed, i]) for i in range(3)], record=True)
    m_batch = run_episodes(mirror, y, partition, guided, RandomPolicy(mirror.v_grid),
                           [np.random.default_rng([seed, i]) for i in range(3)], record=True)
    assert np.array_equal(batch.payoffs, -m_batch.payoffs)
    assert np.array_equal(batch.violation_fraction2, m_batch.violation_fraction1)
    assert np.array_equal(batch.violation_fraction1, m_batch.violation_fraction2)
    for rec, m_rec in zip(batch.records, m_batch.records):
        assert np.array_equal(rec.controls_v, m_rec.controls_u)
        assert np.array_equal(rec.guide2, m_rec.guide1)
        # recorded as readings of the base field
        assert np.array_equal(rec.guide2_values, -m_rec.guide1_values)


def test_mean_payoff_tracks_value(two_type_setup):
    # a light statistical pull: with both extremal-shift strategies the mean
    # payoff should sit near the game value
    model, field = two_type_setup
    strat1 = ControlWithGuideStrategy(field, model)
    strat2 = ControlWithGuideStrategy(field.negated(), mirrored(model))
    y = [40, 0]
    partition = Partition.uniform(0.0, 1.0, 50)
    rngs = [np.random.default_rng([101, i]) for i in range(200)]
    batch = run_episodes(model, y, partition, strat1, strat2, rngs)
    target = 0.5 + 0.5 * np.exp(-2.0)
    sem = batch.payoffs.std(ddof=1) / np.sqrt(len(rngs))
    assert abs(batch.payoffs.mean() - target) <= 0.06 + 3 * sem
    assert batch.violation_fraction1.mean() <= 0.05
    assert batch.violation_fraction2.mean() <= 0.05


def test_trajectory_record_serialization(two_type_setup):
    model, field = two_type_setup
    strat = ControlWithGuideStrategy(field, model)
    record = run_episodes(model, [8, 2], Partition.uniform(0, 1, 5),
                          strat, 0.5, [np.random.default_rng(13)],
                          record_jumps=True).records[0]
    payload = record.to_dict()
    assert payload["total"] == 10
    assert len(payload["counts"]) == 6
    assert len(payload["controls_u"]) == 5
    assert "guide1" in payload and "guide2" not in payload
    assert isinstance(payload["payoff"], float)


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
    rngs = [np.random.default_rng([2, i]) for i in range(5)]
    run_episodes(SampledKTwoType(), [3, 2], Partition.uniform(0.0, 1.0, 20),
                 1.0, 0.5, rngs)
    assert len(calls) <= 1


def test_run_episodes_rate_bound_error():
    model = TwoTypeModel()
    model.declared_k = 0.5  # lie: actual rates reach 1.0
    rngs = [np.random.default_rng([1, i]) for i in range(10)]
    with pytest.raises(RateBoundError):
        run_episodes(model, [5, 5], Partition.uniform(0.0, 1.0, 10),
                     1.0, 1.0, rngs)


def test_episode_batch_thinning_tallies():
    model = TwoTypeModel()
    partition = Partition.uniform(0.0, 1.0, 10)
    rngs = [np.random.default_rng([6, i]) for i in range(8)]
    batch = run_episodes(model, [6, 2], partition, 1.0, 0.5, rngs)
    # candidates arrive at rate (d-1) K M = 8 over unit time, per trial
    assert 0 < batch.accepted <= batch.candidates
    assert batch.candidates == pytest.approx(8 * 8, rel=0.5)
    assert batch.max_rate_ratio == 1.0
    singles = [run_episodes(model, [6, 2], partition, 1.0, 0.5,
                            [np.random.default_rng([6, i])]) for i in range(8)]
    assert batch.candidates == sum(s.candidates for s in singles)
    assert batch.accepted == sum(s.accepted for s in singles)
