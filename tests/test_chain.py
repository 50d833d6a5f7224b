import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainguide.chain import (
    ChainBatch,
    Distribution,
    IntegrationError,
    JumpEvent,
    RateBoundError,
    dynkin_residual,
    master_evolve,
    sample_final_distribution,
    simulate_chain,
    tv_distance,
)
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, ZeroModel
from chainguide.simplex import LatticeState, check_counts
from chainguide.strategy import Partition, run_episodes
from chainguide.value import SimplexGrid


def two_state_absorb_prob(elapsed):
    """P(the single particle has converted) when u=1, v=0: 1 - exp(-t)."""
    return 1.0 - math.exp(-elapsed)


def _trial_rngs(seed, trials):
    """Per-row generators keyed by (seed, trial): row r draws trial r's own stream."""
    return [np.random.default_rng([seed, trial]) for trial in range(trials)]


def _replay(start, events):
    """Counts after each recorded jump of one row, starting from ``start``."""
    counts = np.array(start)
    states = []
    for e in events:
        counts[e.from_type] -= 1
        counts[e.to_type] += 1
        states.append(counts.copy())
    return states


def test_jump_event_validation():
    with pytest.raises(ValueError):
        JumpEvent(0.1, 1, 1)


def test_zero_model_never_jumps():
    counts = np.array([[3, 1]])
    batch = simulate_chain(ZeroModel(), 0.0, 1.0, counts, 1.0, 0.0,
                           [np.random.default_rng(0)])
    assert batch.events == [[]]
    assert counts.tolist() == [[3, 1]]


def test_counts_conserved_along_path():
    model = TwoTypeModel()
    counts = np.array([[5, 5]])
    batch = simulate_chain(model, 0.0, 1.0, counts, 1.0, 1.0, [np.random.default_rng(7)])
    states = _replay([5, 5], batch.events[0])
    assert states
    for state in states:
        assert state.sum() == 10
        assert np.all(state >= 0)
    assert np.array_equal(states[-1], counts[0])


def test_single_particle_conversion_matches_closed_form():
    model = TwoTypeModel()
    trials = 20000
    counts = np.tile([1, 0], (trials, 1))
    simulate_chain(model, 0.0, 1.0, counts, 1.0, 0.0, _trial_rngs(123, trials),
                   record_events=False)
    p_hat = np.count_nonzero(counts[:, 1] == 1) / trials
    p_true = two_state_absorb_prob(1.0)
    se = math.sqrt(p_true * (1 - p_true) / trials)
    assert abs(p_hat - p_true) <= 3 * se


def test_candidate_count_bounded_by_dominating_rate():
    model = TwoTypeModel()
    lam = (model.dimension - 1) * model.declared_k * 20  # = 20
    trials = 2000
    batch = simulate_chain(model, 0.0, 0.5, np.tile([10, 10], (trials, 1)), 1.0, 1.0,
                           _trial_rngs(9, trials), record_events=False)
    mean = batch.candidates / trials
    # candidates are Poisson(lam * 0.5); accepted jumps are a subset
    assert mean == pytest.approx(lam * 0.5, rel=0.05)


def test_rate_bound_violation_aborts():
    model = TwoTypeModel()
    model.declared_k = 0.5  # lie: actual rates reach 1.0
    with pytest.raises(RateBoundError):
        simulate_chain(model, 0.0, 1.0, np.tile([5, 5], (50, 1)), 1.0, 1.0, _trial_rngs(1, 50))


def test_kernel_takes_only_the_batch_form():
    model = TwoTypeModel()
    with pytest.raises(ValueError):
        simulate_chain(model, 0.0, 1.0, [[1, 1]], 1.0, 1.0,
                       [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        simulate_chain(model, 0.0, 1.0, np.array([1, 1]), 1.0, 1.0,
                       [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        simulate_chain(model, 0.0, 1.0, np.array([[1, 1], [2, 0]]), 1.0, 1.0,
                       [np.random.default_rng(0)])


def test_distribution_validation():
    space = SimplexGrid(2, 4)
    with pytest.raises(ValueError):
        Distribution(space, np.array([0.5, 0.5, 0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Distribution(space, np.array([1.1, -0.1, 0.0, 0.0, 0.0]))
    d = Distribution.point_mass(space, [2, 2])
    assert d.prob_of([2, 2]) == 1.0


def test_master_evolve_zero_model_is_identity():
    space = SimplexGrid(2, 4)
    dist = Distribution.point_mass(space, [1, 3])
    out = master_evolve(ZeroModel(), 0.0, 1.0, dist, 1.0, 0.0)
    assert np.allclose(out.probs, dist.probs, atol=1e-15)


def test_master_evolve_two_state_closed_form():
    model = TwoTypeModel()
    space = SimplexGrid(2, 1)
    dist = Distribution.point_mass(space, [1, 0])
    out = master_evolve(model, 0.0, 1.0, dist, 1.0, 0.0)
    assert out.prob_of([0, 1]) == pytest.approx(two_state_absorb_prob(1.0), abs=1e-9)
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_master_evolve_conserves_mass():
    model = TwoTypeModel()
    space = SimplexGrid(2, 6)
    dist = Distribution.point_mass(space, [6, 0])
    out = master_evolve(model, 0.0, 1.0, dist, 1.0, 0.5)
    assert abs(out.probs.sum() - 1.0) <= 1e-10
    assert out.probs.min() >= 0.0


def test_master_evolve_flags_bad_steps():
    class StiffModel(TwoTypeModel):
        def rate_matrix(self, t, x, u, v):
            return 40.0 * super().rate_matrix(t, x, u, v)

    model = StiffModel()
    space = SimplexGrid(2, 8)
    dist = Distribution.point_mass(space, [8, 0])
    with pytest.raises(IntegrationError):
        master_evolve(model, 0.0, 1.0, dist, 1.0, 1.0, ode_step=0.2)


def test_simulator_matches_master_equation_tv():
    model = TwoTypeModel()
    y = [4, 0]
    emp = sample_final_distribution(model, 0.0, 1.0, y, 1.0, 0.0, trials=20000, seed=42)
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
    y = [4, 0]
    emp = sample_final_distribution(model, 0.0, 1.0, y, 1.0, 0.0, trials=20000, seed=42)
    oracle = master_evolve(model, 0.0, 1.0, Distribution.point_mass(emp.space, y), 1.0, 0.0)
    assert tv_distance(emp, oracle) <= 0.02


def test_simulator_matches_oracle_time_dependent_model():
    from chainguide.models import ThreeTypeRotorModel

    model = ThreeTypeRotorModel()
    y = [2, 1, 1]
    emp = sample_final_distribution(model, 0.0, 1.0, y, 1.0, 1.0, trials=20000, seed=11)
    oracle = master_evolve(model, 0.0, 1.0, Distribution.point_mass(emp.space, y), 1.0, 1.0)
    assert tv_distance(emp, oracle) <= 0.02


def test_dynkin_residual_zero_rates():
    assert dynkin_residual(ZeroModel(), lambda x: x[0], 0.0, 0.5,
                           [2, 2], 1.0, 0.0) == 0.0


def test_dynkin_residual_constant_function():
    model = TwoTypeModel()
    res = dynkin_residual(model, lambda x: 3.0, 0.0, 0.5, [2, 2], 1.0, 0.0)
    assert res <= 1e-12


def test_dynkin_residual_two_type():
    model = TwoTypeModel()
    res = dynkin_residual(model, lambda x: x[0], 0.0, 0.5, [2, 2], 1.0, 0.0,
                          ode_step=0.002)
    assert res <= 1e-8


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
        counts = start[None, :].copy()
        run = simulate_chain(model, t0, t1, counts, u, v, [np.random.default_rng(seed)],
                             record_events=False)
        finals.append(counts[0])
        candidates += run.candidates
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
        times = [e.time for e in batch.events[r]]
        assert all(0.0 < t < 1.0 for t in times)
        assert all(a < b for a, b in zip(times, times[1:]))
        states = _replay(start, batch.events[r])
        assert np.array_equal(states[-1] if states else start, counts[r])


def test_batch_rejects_mixed_totals():
    with pytest.raises(ValueError):
        simulate_chain(TwoTypeModel(), 0.0, 1.0, np.array([[1, 1], [2, 1]]), 1.0, 1.0,
                       [np.random.default_rng(0), np.random.default_rng(1)])


def test_sample_final_distribution_rate_bound_error():
    model = TwoTypeModel()
    model.declared_k = 0.5  # lie: actual rates reach 1.0
    with pytest.raises(RateBoundError):
        sample_final_distribution(model, 0.0, 1.0, [5, 5], 1.0, 1.0,
                                  trials=50, seed=1)


def _corrupt(counts, kind):
    """A state input that is not a count row of ``counts``'s length, built from it."""
    d = len(counts)
    if kind == "non-integer":
        return [counts[0] + 0.5] + counts[1:]
    if kind == "negative":
        return [sum(counts) + 1] + [0] * (d - 2) + [-1]
    if kind == "wrong-length":
        return counts + [0]
    if kind == "zero-total":
        return [0] * d
    if kind == "mixed-totals":
        return [counts, [counts[0] + 1] + counts[1:]]
    return LatticeState(counts)


STATE_ENTRY_POINTS = {
    "check_counts": lambda model, y: check_counts(y, model.dimension),
    "run_episodes": lambda model, y: run_episodes(
        model, y, Partition.uniform(0.0, 1.0, 2), 1.0, 0.5, [np.random.default_rng(0)]),
    "sample_final_distribution": lambda model, y: sample_final_distribution(
        model, 0.0, 1.0, y, 1.0, 0.5, trials=2, seed=0),
    "dynkin_residual": lambda model, y: dynkin_residual(
        model, lambda x: x[0], 0.0, 0.1, y, 1.0, 0.5),
    "Distribution.point_mass": lambda model, y: Distribution.point_mass(
        SimplexGrid(model.dimension, 4), y),
    "node_index": lambda model, y: SimplexGrid(model.dimension, 4).node_index(y),
    # the kernel advances its batch in place, so it takes an integer array only
    "simulate_chain": lambda model, y: simulate_chain(
        model, 0.0, 1.0, y if isinstance(y, LatticeState) else np.array(y, ndmin=2),
        1.0, 0.5, np.random.default_rng(0)),
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([TwoTypeModel(), ThreeTypeRotorModel()]), st.data())
def test_one_state_form_checked_at_every_entry_point(model, data):
    # the rows of total 4 are the lattice the node-index entry points read
    parts = data.draw(st.lists(st.integers(0, 4), min_size=model.dimension - 1,
                               max_size=model.dimension - 1).filter(lambda p: sum(p) <= 4))
    counts = parts + [4 - sum(parts)]
    kind = data.draw(st.sampled_from(["non-integer", "negative", "wrong-length",
                                      "zero-total", "mixed-totals", "LatticeState"]))
    bad = _corrupt(counts, kind)
    for name, call in STATE_ENTRY_POINTS.items():
        with pytest.raises(ValueError):
            call(model, bad)
            pytest.fail(f"{name} took a {kind} state")

    # a list, a tuple and an int64 array of one state give the same bytes
    forms = [counts, tuple(counts), np.array(counts, dtype=np.int64)]
    partition = Partition.uniform(0.0, 1.0, 4)
    payoffs = [run_episodes(model, y, partition, 1.0, 0.5,
                            [np.random.default_rng([5, i]) for i in range(3)]).payoffs.tobytes()
               for y in forms]
    probs = [sample_final_distribution(model, 0.0, 1.0, y, 1.0, 0.5, trials=20,
                                       seed=5).probs.tobytes() for y in forms]
    assert payoffs[0] == payoffs[1] == payoffs[2]
    assert probs[0] == probs[1] == probs[2]
