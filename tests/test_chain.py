import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainguide.chain import (
    ChainBatch,
    Distribution,
    IntegrationError,
    JumpEvent,
    PathSample,
    RateBoundError,
    dynkin_residual,
    empirical_transition,
    lattice_space,
    master_evolve,
    sample_final_distribution,
    simulate_chain,
    tv_distance,
)
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, ZeroModel
from chainguide.simplex import LatticeState


def two_state_absorb_prob(elapsed):
    """P(the single particle has converted) when u=1, v=0: 1 - exp(-t)."""
    return 1.0 - math.exp(-elapsed)


def test_jump_event_validation():
    with pytest.raises(ValueError):
        JumpEvent(0.1, 1, 1)
    with pytest.raises(ValueError):
        PathSample(LatticeState([1, 0]), 0.0, 1.0,
                   events=[JumpEvent(0.5, 0, 1), JumpEvent(0.4, 1, 0)])


def test_path_state_at_is_right_continuous():
    path = PathSample(LatticeState([2, 0]), 0.0, 1.0,
                      events=[JumpEvent(0.25, 0, 1), JumpEvent(0.75, 0, 1)])
    assert list(path.state_at(0.1).counts) == [2, 0]
    assert list(path.state_at(0.25).counts) == [1, 1]
    assert list(path.state_at(0.74).counts) == [1, 1]
    assert list(path.state_at(1.0).counts) == [0, 2]
    assert list(path.final_counts()) == [0, 2]


def test_zero_model_never_jumps():
    rng = np.random.default_rng(0)
    path = simulate_chain(ZeroModel(), 0.0, 1.0, LatticeState([3, 1]), 1.0, 0.0, rng)
    assert path.events == []
    assert list(path.state_at(1.0).counts) == [3, 1]


def test_counts_conserved_along_path():
    rng = np.random.default_rng(7)
    model = TwoTypeModel()
    path = simulate_chain(model, 0.0, 1.0, LatticeState([5, 5]), 1.0, 1.0, rng)
    for t in np.linspace(0, 1, 13):
        state = path.state_at(t)
        assert state.total == 10
        assert np.all(state.counts >= 0)


def test_single_particle_conversion_matches_closed_form():
    model = TwoTypeModel()
    trials = 20000
    converted = 0
    for trial in range(trials):
        rng = np.random.default_rng([123, trial])
        path = simulate_chain(model, 0.0, 1.0, LatticeState([1, 0]), 1.0, 0.0, rng,
                              record_events=False)
        if path.final_counts()[1] == 1:
            converted += 1
    p_hat = converted / trials
    p_true = two_state_absorb_prob(1.0)
    se = math.sqrt(p_true * (1 - p_true) / trials)
    assert abs(p_hat - p_true) <= 3 * se


def test_candidate_count_bounded_by_dominating_rate():
    model = TwoTypeModel()
    y = LatticeState([10, 10])
    lam = (model.dimension - 1) * model.declared_k * y.total  # = 20
    total_candidates = 0
    trials = 2000
    for trial in range(trials):
        rng = np.random.default_rng([9, trial])
        path = simulate_chain(model, 0.0, 0.5, y, 1.0, 1.0, rng, record_events=False)
        total_candidates += path.candidates
    mean = total_candidates / trials
    # candidates are Poisson(lam * 0.5); accepted jumps are a subset
    assert mean == pytest.approx(lam * 0.5, rel=0.05)


def test_policies_receive_time_and_counts():
    model = TwoTypeModel()
    seen = []

    def u_policy(t, counts):
        seen.append((t, counts.copy()))
        return 1.0

    rng = np.random.default_rng(3)
    simulate_chain(model, 0.0, 1.0, LatticeState([4, 0]), u_policy, 0.0, rng)
    assert seen
    assert all(0.0 < t < 1.0 for t, _ in seen)


def test_rate_bound_violation_aborts():
    model = TwoTypeModel()
    model.declared_k = 0.5  # lie: actual rates reach 1.0
    with pytest.raises(RateBoundError):
        for trial in range(50):
            rng = np.random.default_rng([1, trial])
            simulate_chain(model, 0.0, 1.0, LatticeState([5, 5]), 1.0, 1.0, rng)


def test_distribution_validation():
    space = lattice_space(2, 4)
    with pytest.raises(ValueError):
        Distribution(space, np.array([0.5, 0.5, 0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Distribution(space, np.array([1.1, -0.1, 0.0, 0.0, 0.0]))
    d = Distribution.point_mass(space, LatticeState([2, 2]))
    assert d.prob_of(LatticeState([2, 2])) == 1.0


def test_master_evolve_zero_model_is_identity():
    space = lattice_space(2, 4)
    dist = Distribution.point_mass(space, LatticeState([1, 3]))
    out = master_evolve(ZeroModel(), 0.0, 1.0, dist, 1.0, 0.0)
    assert np.allclose(out.probs, dist.probs, atol=1e-15)


def test_master_evolve_two_state_closed_form():
    model = TwoTypeModel()
    space = lattice_space(2, 1)
    dist = Distribution.point_mass(space, LatticeState([1, 0]))
    out = master_evolve(model, 0.0, 1.0, dist, 1.0, 0.0)
    assert out.prob_of(LatticeState([0, 1])) == pytest.approx(two_state_absorb_prob(1.0), abs=1e-9)
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_master_evolve_conserves_mass():
    model = TwoTypeModel()
    space = lattice_space(2, 6)
    dist = Distribution.point_mass(space, LatticeState([6, 0]))
    out = master_evolve(model, 0.0, 1.0, dist, 1.0, 0.5)
    assert abs(out.probs.sum() - 1.0) <= 1e-10
    assert out.probs.min() >= 0.0


def test_master_evolve_flags_bad_steps():
    class StiffModel(TwoTypeModel):
        def rate_matrix(self, t, x, u, v):
            return 40.0 * super().rate_matrix(t, x, u, v)

    model = StiffModel()
    space = lattice_space(2, 8)
    dist = Distribution.point_mass(space, LatticeState([8, 0]))
    with pytest.raises(IntegrationError):
        master_evolve(model, 0.0, 1.0, dist, 1.0, 1.0, ode_step=0.2)


def test_simulator_matches_master_equation_tv():
    model = TwoTypeModel()
    y = LatticeState([4, 0])
    emp, _ = sample_final_distribution(model, 0.0, 1.0, y, 1.0, 0.0, trials=20000, seed=42)
    space = emp.space
    oracle = master_evolve(model, 0.0, 1.0, Distribution.point_mass(space, y), 1.0, 0.0)
    assert tv_distance(emp, oracle) <= 0.02


class DoubledTwoType(TwoTypeModel):
    """Redefines rate_matrix only: every derived form must follow it."""

    def __init__(self):
        super().__init__()
        self.declared_k = 2.0
        self.declared_l = 4.0

    def rate_matrix(self, t, x, u, v):
        return 2.0 * super().rate_matrix(t, x, u, v)


def test_rate_matrix_override_reaches_every_form():
    model = DoubledTwoType()
    base = TwoTypeModel()
    rng = np.random.default_rng(3)
    xs = rng.dirichlet(np.ones(2), size=6)
    ts = rng.uniform(0.0, 1.0, size=6)
    us = rng.choice(base.u_grid.points, size=6)
    vs = rng.choice(base.v_grid.points, size=6)
    assert np.allclose(model.rate_matrix_multi(ts, xs, us, vs),
                       2.0 * base.rate_matrix_multi(ts, xs, us, vs))
    assert np.allclose(model.drift(ts, xs, us, vs), 2.0 * base.drift(ts, xs, us, vs))
    assert np.allclose(model.drift_grid_multi(ts, xs), 2.0 * base.drift_grid_multi(ts, xs))
    # the simulator reads rate_matrix and the oracle the per-row form
    y = LatticeState([4, 0])
    emp, _ = sample_final_distribution(model, 0.0, 1.0, y, 1.0, 0.0, trials=20000, seed=42)
    oracle = master_evolve(model, 0.0, 1.0, Distribution.point_mass(emp.space, y), 1.0, 0.0)
    assert tv_distance(emp, oracle) <= 0.02


def test_simulator_matches_oracle_time_dependent_model():
    from chainguide.models import ThreeTypeRotorModel

    model = ThreeTypeRotorModel()
    y = LatticeState([2, 1, 1])
    emp, _ = sample_final_distribution(model, 0.0, 1.0, y, 1.0, 1.0, trials=20000, seed=11)
    oracle = master_evolve(model, 0.0, 1.0, Distribution.point_mass(emp.space, y), 1.0, 1.0)
    assert tv_distance(emp, oracle) <= 0.02


def test_dynkin_residual_zero_rates():
    assert dynkin_residual(ZeroModel(), lambda x: x[0], 0.0, 0.5,
                           LatticeState([2, 2]), 1.0, 0.0) == 0.0


def test_dynkin_residual_constant_function():
    model = TwoTypeModel()
    res = dynkin_residual(model, lambda x: 3.0, 0.0, 0.5, LatticeState([2, 2]), 1.0, 0.0)
    assert res <= 1e-12


def test_dynkin_residual_two_type():
    model = TwoTypeModel()
    res = dynkin_residual(model, lambda x: x[0], 0.0, 0.5, LatticeState([2, 2]), 1.0, 0.0,
                          ode_step=0.002)
    assert res <= 1e-8


def test_empirical_transition_zero_model():
    table = empirical_transition(ZeroModel(), 0.0, LatticeState([2, 2]), 0.05, 1.0, 0.0,
                                 trials=200, seed=5)
    assert table.stay_prob == 1.0
    assert table.other_prob == 0.0


def test_empirical_transition_leading_order():
    model = TwoTypeModel()
    xi = LatticeState([2, 2])
    delta = 0.05
    trials = 40000
    table = empirical_transition(model, 0.0, xi, delta, 1.0, 0.0, trials=trials, seed=17)
    # jump 1->2 runs at rate counts_1 * Q_12 = 2; oracle leading term is delta*2
    space = lattice_space(2, 4)
    oracle = master_evolve(model, 0.0, delta, Distribution.point_mass(space, xi), 1.0, 0.0)
    p_exact = oracle.prob_of(LatticeState([1, 3]))
    prob, se = table.neighbor_probs[(0, 1)]
    assert abs(prob - p_exact) <= 3 * se + 1e-12
    assert abs(p_exact - delta * 2.0) <= 4.0 * delta ** 2
    # mass two or more jumps away is second order in the duration
    assert table.other_prob <= 10.0 * (delta * 4.0) ** 2 + 3 * table.other_se


def _reference_one_trial(model, t0, t1, start, u, v, rng):
    """The one-trial thinning loop the batched kernel replaced: (final counts, candidates)."""
    d = model.dimension
    k = model.declared_k
    counts = np.asarray(start, dtype=float).copy()
    inv_total = 1.0 / counts.sum()
    lam = (d - 1) * k * counts.sum()
    t, candidates = float(t0), 0
    while True:
        t += rng.exponential(1.0 / lam)
        if t >= t1:
            break
        candidates += 1
        x = counts * inv_total
        cdf = np.cumsum(x)
        i = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), d - 1)
        j = int(rng.integers(d - 1))
        j += j >= i
        if rng.random() * k < float(model.rate_matrix(t, x, u, v)[i, j]):
            counts[i] -= 1.0
            counts[j] += 1.0
    return counts.astype(np.int64), candidates


def _one_row_runs(model, t0, t1, starts, us, vs, seeds):
    finals, candidates = [], 0
    for start, u, v, seed in zip(starts, us, vs, seeds):
        path = simulate_chain(model, t0, t1, LatticeState(start), u, v,
                              np.random.default_rng(seed), record_events=False)
        finals.append(path.final_counts())
        candidates += path.candidates
    return np.array(finals), candidates


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_composition_never_changes_results(data):
    model = data.draw(st.sampled_from([TwoTypeModel(), ThreeTypeRotorModel()]))
    d = model.dimension
    n = data.draw(st.integers(1, 6))
    total = data.draw(st.integers(1, 12))
    starts = []
    for _ in range(n):
        cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=d - 1,
                                         max_size=d - 1)))
        starts.append(np.diff([0, *cuts, total]))
    starts = np.array(starts, dtype=np.int64)
    us = np.array(data.draw(st.lists(st.sampled_from(model.u_grid.points),
                                     min_size=n, max_size=n)))
    vs = np.array(data.draw(st.lists(st.sampled_from(model.v_grid.points),
                                     min_size=n, max_size=n)))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n))
    t0 = data.draw(st.floats(0.0, 0.5))
    t1 = t0 + data.draw(st.floats(0.01, 0.5))
    expect, expect_candidates = _one_row_runs(model, t0, t1, starts, us, vs, seeds)
    reference = [_reference_one_trial(model, t0, t1, start, u, v, np.random.default_rng(s))
                 for start, u, v, s in zip(starts, us, vs, seeds)]
    assert np.array_equal(expect, [final for final, _ in reference])
    assert expect_candidates == sum(c for _, c in reference)

    counts = starts.copy()
    batch = simulate_chain(model, t0, t1, counts, us, vs,
                           [np.random.default_rng(s) for s in seeds], record_events=False)
    assert isinstance(batch, ChainBatch)
    assert np.array_equal(counts, expect)
    assert batch.candidates == expect_candidates
    assert 0 <= batch.accepted <= batch.candidates

    cuts = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=3))) | {n})
    lo, split_candidates = 0, 0
    counts = starts.copy()
    for hi in cuts:
        part = simulate_chain(model, t0, t1, counts[lo:hi], us[lo:hi], vs[lo:hi],
                              [np.random.default_rng(s) for s in seeds[lo:hi]],
                              record_events=False)
        split_candidates += part.candidates
        lo = hi
    assert np.array_equal(counts, expect)
    assert split_candidates == expect_candidates


def test_batch_tallies_and_events():
    model = TwoTypeModel()
    counts = np.array([[3, 1], [0, 4], [2, 2]], dtype=np.int64)
    rngs = [np.random.default_rng([4, r]) for r in range(3)]
    batch = simulate_chain(model, 0.0, 1.0, counts, 1.0, 1.0, rngs)
    # u = v = K = 1: every candidate has rate exactly K and is accepted
    assert batch.accepted == batch.candidates > 0
    assert batch.max_rate_ratio == 1.0
    assert sum(len(events) for events in batch.events) == batch.accepted
    for r, start in enumerate([[3, 1], [0, 4], [2, 2]]):
        path = PathSample(LatticeState(start), 0.0, 1.0, events=batch.events[r])
        assert np.array_equal(path.final_counts(), counts[r])


def test_batch_rejects_mixed_totals():
    with pytest.raises(ValueError):
        simulate_chain(TwoTypeModel(), 0.0, 1.0, np.array([[1, 1], [2, 1]]), 1.0, 1.0,
                       [np.random.default_rng(0), np.random.default_rng(1)])


def test_sample_final_distribution_rate_bound_error():
    model = TwoTypeModel()
    model.declared_k = 0.5  # lie: actual rates reach 1.0
    with pytest.raises(RateBoundError):
        sample_final_distribution(model, 0.0, 1.0, LatticeState([5, 5]), 1.0, 1.0,
                                  trials=50, seed=1)
