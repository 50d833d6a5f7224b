import numpy as np
import pytest

from chainguide import models
from chainguide.chain import RateBoundError
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, ZeroModel, isaacs_gap
from chainguide.simplex import LatticeState
from chainguide.strategy import (
    ConstantPolicy,
    ControlWithGuideStrategy,
    GreedyPolicy,
    Partition,
    RandomPolicy,
    TrajectoryRecord,
    displacement_surface,
    extremal_controls,
    run_episode,
    run_episodes,
)
from chainguide.value import build_simplex_grid, solve_value


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


def test_extremal_controls_examples():
    model = TwoTypeModel()
    # zero displacement: objective vanishes, lowest grid indices win
    u, v = extremal_controls(model, 0.0, np.array([0.5, 0.5]), np.array([0.5, 0.5]), "first")
    assert (u, v) == (0.0, 0.0)
    # chain above guide: push down with u=1; adversary pushes up with v=1
    u, v = extremal_controls(model, 0.0, np.array([0.6, 0.4]), np.array([0.5, 0.5]), "first")
    assert (u, v) == (1.0, 1.0)
    # chain below guide: signs flip
    u, v = extremal_controls(model, 0.0, np.array([0.4, 0.6]), np.array([0.5, 0.5]), "first")
    assert (u, v) == (0.0, 0.0)


def test_extremal_controls_brute_force_certificates():
    model = ThreeTypeRotorModel()
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.dirichlet(np.ones(3))
        w = rng.dirichlet(np.ones(3))
        t = rng.uniform(0, 1)
        u_star, v_star = extremal_controls(model, t, x, w, "first")
        s = displacement_surface(model, t, x[None, :], (x - w)[None, :])[0]
        ui = model.u_grid.index_of(u_star)
        vi = model.v_grid.index_of(v_star)
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
        base = extremal_controls(model, t, x, w, "first")
        nearby = x + 0.013 * (w - x) / max(np.linalg.norm(w - x), 1e-12)
        shrunk = extremal_controls(model, t, x, nearby, "first")
        assert base == shrunk


def test_second_player_selection_mirrors():
    model = TwoTypeModel()
    # chain above player 2's guide: she pulls x1 down with v=0 and expects u=0
    v, u = extremal_controls(model, 0.0, np.array([0.6, 0.4]), np.array([0.5, 0.5]), "second")
    assert v == 0.0
    assert u == 0.0
    # chain below: push up with v=1, anticipated u=1
    v, u = extremal_controls(model, 0.0, np.array([0.4, 0.6]), np.array([0.5, 0.5]), "second")
    assert v == 1.0
    assert u == 1.0


def test_strategy_selector_matches_displacement_sign(two_type_setup):
    model, field = two_type_setup
    strat = ControlWithGuideStrategy(field, model, "first")
    # equal start: lowest-index control
    assert strat.control(0.0, np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    # chain above guide: drain type 1
    assert strat.control(0.0, np.array([0.55, 0.45]), np.array([0.5, 0.5])) == 1.0
    # determinism
    a = strat.control(0.3, np.array([0.7, 0.3]), np.array([0.6, 0.4]))
    b = strat.control(0.3, np.array([0.7, 0.3]), np.array([0.6, 0.4]))
    assert a == b


def test_strategy_role_enforced(two_type_setup):
    model, field = two_type_setup
    strat = ControlWithGuideStrategy(field, model, "second")
    with pytest.raises(ValueError):
        run_episode(model, LatticeState([5, 5]), Partition.uniform(0, 1, 5),
                    strat, 1.0, np.random.default_rng(0))


def test_zero_model_episode_is_static():
    model = ZeroModel()
    field = solve_value(model, 10, build_simplex_grid(2, 10))
    strat = ControlWithGuideStrategy(field, model, "first")
    record = run_episode(model, LatticeState([3, 1]), Partition.uniform(0, 1, 10),
                        strat, 0.0, np.random.default_rng(1))
    assert np.all(record.counts == [3, 1])
    assert np.allclose(record.guide1, [0.75, 0.25])
    assert record.payoff == 0.75
    assert not record.violations1.any()


def test_episode_counts_conserved_and_payoff_consistent(two_type_setup):
    model, field = two_type_setup
    strat = ControlWithGuideStrategy(field, model, "first")
    record = run_episode(model, LatticeState([20, 0]), Partition.uniform(0, 1, 50),
                        strat, ConstantPolicy(1.0), np.random.default_rng(5),
                        record_jumps=True)
    assert np.all(record.counts.sum(axis=1) == 20)
    assert record.payoff == pytest.approx(record.counts[-1, 0] / 20, abs=1e-12)
    # controls come from the grids
    assert set(np.unique(record.controls_u)) <= set(model.u_grid.points)
    assert np.all(record.controls_v == 1.0)
    # jump log is consistent with the per-step counts
    assert all(e.from_type != e.to_type for e in record.jumps)


def test_batched_episodes_match_sequential_runs(two_type_setup):
    model, field = two_type_setup
    strat1 = ControlWithGuideStrategy(field, model, "first")
    strat2 = ControlWithGuideStrategy(field, model, "second")
    y = LatticeState([16, 4])
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
    strat1 = ControlWithGuideStrategy(field, model, "first")
    strat2 = ControlWithGuideStrategy(field, model, "second")
    record = run_episode(model, LatticeState([10, 10]), Partition.uniform(0, 1, 20),
                        strat1, strat2, np.random.default_rng(9))
    assert record.guide1 is not None and record.guide2 is not None
    assert record.guide1.shape == record.guide2.shape == (21, 2)
    # both start on the chain
    assert np.allclose(record.guide1[0], [0.5, 0.5])
    assert np.allclose(record.guide2[0], [0.5, 0.5])
    # guides move on the full simplex, not the lattice
    assert record.guide1[5] in record.guide1


def test_random_policy_reproducible(two_type_setup):
    model, field = two_type_setup
    y = LatticeState([10, 10])
    partition = Partition.uniform(0.0, 1.0, 10)
    pol = RandomPolicy(model.v_grid)
    a = run_episodes(model, y, partition, 1.0, pol, [np.random.default_rng([4, 0])])
    b = run_episodes(model, y, partition, 1.0, pol, [np.random.default_rng([4, 0])])
    assert np.array_equal(a.payoffs, b.payoffs)


def test_greedy_policy_pushes_payoff(two_type_setup):
    model, field = two_type_setup
    pol = GreedyPolicy(model, "second")
    counts = np.array([[10, 10], [20, 0]])
    vals = pol.step_values(0.0, counts, 0.05, [None, None])
    # raising x1 raises the payoff, so greedy picks the top v where v can act;
    # with no type-2 mass the v-row ties and the lowest grid index wins
    assert list(vals) == [1.0, 0.0]
    pol1 = GreedyPolicy(model, "first")
    vals = pol1.step_values(0.0, counts, 0.05, [None, None])
    assert np.all(vals == 1.0)  # u = 1 drains x1 fastest


def test_mean_payoff_tracks_value(two_type_setup):
    # a light statistical pull: with both extremal-shift strategies the mean
    # payoff should sit near the game value
    model, field = two_type_setup
    strat1 = ControlWithGuideStrategy(field, model, "first")
    strat2 = ControlWithGuideStrategy(field, model, "second")
    y = LatticeState([40, 0])
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
    strat = ControlWithGuideStrategy(field, model, "first")
    record = run_episode(model, LatticeState([8, 2]), Partition.uniform(0, 1, 5),
                        strat, 0.5, np.random.default_rng(13), record_jumps=True)
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
    run_episodes(SampledKTwoType(), LatticeState([3, 2]), Partition.uniform(0.0, 1.0, 20),
                 1.0, 0.5, rngs)
    assert len(calls) <= 1


def test_run_episodes_rate_bound_error():
    model = TwoTypeModel()
    model.declared_k = 0.5  # lie: actual rates reach 1.0
    rngs = [np.random.default_rng([1, i]) for i in range(10)]
    with pytest.raises(RateBoundError):
        run_episodes(model, LatticeState([5, 5]), Partition.uniform(0.0, 1.0, 10),
                     1.0, 1.0, rngs)


def test_episode_batch_thinning_tallies():
    model = TwoTypeModel()
    partition = Partition.uniform(0.0, 1.0, 10)
    rngs = [np.random.default_rng([6, i]) for i in range(8)]
    batch = run_episodes(model, LatticeState([6, 2]), partition, 1.0, 0.5, rngs)
    # candidates arrive at rate (d-1) K M = 8 over unit time, per trial
    assert 0 < batch.accepted <= batch.candidates
    assert batch.candidates == pytest.approx(8 * 8, rel=0.5)
    assert batch.max_rate_ratio == 1.0
    singles = [run_episodes(model, LatticeState([6, 2]), partition, 1.0, 0.5,
                            [np.random.default_rng([6, i])]) for i in range(8)]
    assert batch.candidates == sum(s.candidates for s in singles)
    assert batch.accepted == sum(s.accepted for s in singles)
