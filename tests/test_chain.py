import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainguide.chain import (
    ChainBatch,
    IntegrationError,
    RateBoundError,
    _evolve_laws,
    _LatticeGenerator,
    _source_types,
    default_ode_step,
    dynkin_residual,
    master_evolve,
    sample_final_distribution,
    simulate_chain,
)
from chainguide.harness import Scenario, ScenarioError, _run_trial_block, _setup
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, ZeroModel
from chainguide.simplex import LatticeState, check_counts
from chainguide.models import mirrored
from chainguide.strategy import ControlWithGuideStrategy, Partition, RandomPolicy, run_episodes
from chainguide.value import SimplexGrid


def two_state_absorb_prob(elapsed):
    """P(the single particle has converted) when u=1, v=0: 1 - exp(-t)."""
    return 1.0 - math.exp(-elapsed)


def _replay(start, jumps, row):
    """Counts after each recorded jump of batch row ``row``, starting from ``start``."""
    rows, _, from_types, to_types = jumps
    mine = rows == row
    counts = np.array(start)
    states = []
    for i, j in zip(from_types[mine], to_types[mine]):
        counts[i] -= 1
        counts[j] += 1
        states.append(counts.copy())
    return states


def test_jump_event_validation():
    # no recorded jump has from == to, and every type is on the model
    model = ThreeTypeRotorModel()
    batch = simulate_chain(model, 0.0, 1.0, np.tile([4, 3, 3], (20, 1)), 1.0, 0.0,
                           np.random.default_rng(3), record_events=True)
    rows, times, from_types, to_types = batch.jumps
    assert rows.size == times.size == from_types.size == to_types.size == batch.accepted > 0
    assert np.all(from_types != to_types)
    assert set(from_types.tolist()) | set(to_types.tolist()) <= {0, 1, 2}


def test_zero_model_never_jumps():
    counts = np.array([[3, 1]])
    batch = simulate_chain(ZeroModel(), 0.0, 1.0, counts, 1.0, 0.0,
                           np.random.default_rng(0), record_events=True)
    assert all(a.size == 0 for a in batch.jumps)
    assert counts.tolist() == [[3, 1]]
    # without recording the batch carries no jumps
    assert simulate_chain(ZeroModel(), 0.0, 1.0, counts, 1.0, 0.0,
                          np.random.default_rng(0)).jumps is None


def test_counts_conserved_along_path():
    model = TwoTypeModel()
    counts = np.array([[5, 5]])
    batch = simulate_chain(model, 0.0, 1.0, counts, 1.0, 1.0, np.random.default_rng(7),
                           record_events=True)
    states = _replay([5, 5], batch.jumps, 0)
    assert states
    for state in states:
        assert state.sum() == 10
        assert np.all(state >= 0)
    assert np.array_equal(states[-1], counts[0])


def test_single_particle_conversion_matches_closed_form():
    model = TwoTypeModel()
    trials = 20000
    counts = np.tile([1, 0], (trials, 1))
    simulate_chain(model, 0.0, 1.0, counts, 1.0, 0.0, np.random.default_rng(123))
    p_hat = np.count_nonzero(counts[:, 1] == 1) / trials
    p_true = two_state_absorb_prob(1.0)
    se = math.sqrt(p_true * (1 - p_true) / trials)
    assert abs(p_hat - p_true) <= 3 * se


def test_candidate_count_bounded_by_dominating_rate():
    model = TwoTypeModel()
    lam = (model.dimension - 1) * model.declared_k * 20  # = 20
    trials = 2000
    batch = simulate_chain(model, 0.0, 0.5, np.tile([10, 10], (trials, 1)), 1.0, 1.0,
                           np.random.default_rng(9))
    mean = batch.candidates / trials
    # candidates are Poisson(lam * 0.5); accepted jumps are a subset
    assert mean == pytest.approx(lam * 0.5, rel=0.05)


def test_rate_bound_violation_aborts():
    model = TwoTypeModel()
    model.declared_k = 0.5  # lie: actual rates reach 1.0
    with pytest.raises(RateBoundError):
        simulate_chain(model, 0.0, 1.0, np.tile([5, 5], (50, 1)), 1.0, 1.0, np.random.default_rng(1))


def test_kernel_takes_only_the_batch_form():
    model = TwoTypeModel()
    with pytest.raises(ValueError):
        simulate_chain(model, 0.0, 1.0, [[1, 1]], 1.0, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        simulate_chain(model, 0.0, 1.0, np.array([1, 1]), 1.0, 1.0, np.random.default_rng(0))
    # one generator per row is not a layout the kernel takes
    with pytest.raises(ValueError, match="one shared Generator"):
        simulate_chain(model, 0.0, 1.0, np.array([[1, 1], [2, 0]]), 1.0, 1.0,
                       [np.random.default_rng(0), np.random.default_rng(1)])


def test_master_evolve_zero_model_is_identity():
    out = master_evolve(ZeroModel(), 0.0, 1.0, [1, 3], 1.0, 0.0)
    start = np.zeros(5)
    start[SimplexGrid(2, 4).node_index([1, 3])] = 1.0
    assert out.shape == (5,)
    assert np.allclose(out, start, atol=1e-15)


def test_master_evolve_two_state_closed_form():
    model = TwoTypeModel()
    out = master_evolve(model, 0.0, 1.0, [1, 0], 1.0, 0.0)
    absorbed = out[SimplexGrid(2, 1).node_index([0, 1])]
    assert absorbed == pytest.approx(two_state_absorb_prob(1.0), abs=1e-9)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_master_evolve_conserves_mass():
    model = TwoTypeModel()
    out = master_evolve(model, 0.0, 1.0, [6, 0], 1.0, 0.5)
    assert abs(out.sum() - 1.0) <= 1e-10
    assert out.min() >= 0.0


def test_master_evolve_flags_bad_steps():
    class StiffModel(TwoTypeModel):
        def rate_matrix(self, t, x, u, v):
            return 40.0 * super().rate_matrix(t, x, u, v)

    model = StiffModel()
    with pytest.raises(IntegrationError):
        master_evolve(model, 0.0, 1.0, [8, 0], 1.0, 1.0, ode_step=0.2)


@pytest.mark.parametrize("step", [-0.1, 0.0, math.nan, math.inf])
def test_master_evolve_rejects_a_bad_step(step):
    # a negative step used to run one RK4 step over the whole span, and 0 or
    # NaN failed with an unrelated error
    with pytest.raises(ValueError, match="positive and finite"):
        master_evolve(TwoTypeModel(), 0.0, 1.0, [2, 0], 0.0, 1.0, ode_step=step)


@pytest.mark.parametrize("model", [TwoTypeModel(), ThreeTypeRotorModel()])
@pytest.mark.parametrize("total", [1, 5, 20])
def test_batched_laws_equal_per_reply_master_evolve(model, total):
    grid = SimplexGrid(model.dimension, total)
    gen = _LatticeGenerator(model, grid)
    rng = np.random.default_rng([model.dimension, total, 26])
    pairs = [(u, v) for u in model.u_grid.points for v in model.v_grid.points]
    us = np.array([[u] for u, _ in pairs])
    vs = np.array([[v] for _, v in pairs])
    for t0, delta in ((0.0, 0.02), (0.37, 0.005), (0.8, 0.2)):
        node = int(rng.integers(grid.node_count))
        y = grid.counts[node]
        step = min(0.002, delta / 10.0)
        want = [master_evolve(model, t0, t0 + delta, y, u, v, ode_step=step)
                for u, v in pairs]
        starts = np.zeros((len(pairs), grid.node_count))
        starts[:, node] = 1.0
        # master_evolve's span is t1 - t0, here (t0 + delta) - t0
        span = (t0 + delta) - t0
        # both controls as columns, and one u with a column of replies as lemma 2 uses
        laws = _evolve_laws(gen, t0, span, starts, us, vs, step)
        for b in range(len(pairs)):
            assert laws[b].tobytes() == want[b].tobytes()
        u = model.u_grid.points[-1]
        replies = [b for b, (pu, _) in enumerate(pairs) if pu == u]
        laws = _evolve_laws(gen, t0, span, starts[replies], u, vs[replies], step)
        for row, b in enumerate(replies):
            assert laws[row].tobytes() == want[b].tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_law_batch_rows_equal_each_law_evolved_alone(data):
    # random small models and control levels; laws of a batch share nothing
    # but the lattice, so each row must be the law evolved on its own
    level = st.floats(0.0, 1.0, allow_subnormal=False)
    make = data.draw(st.sampled_from([TwoTypeModel, ThreeTypeRotorModel]))
    model = make(u_levels=data.draw(st.lists(level, min_size=1, max_size=3, unique=True)),
                 v_levels=data.draw(st.lists(level, min_size=1, max_size=3, unique=True)))
    total = data.draw(st.integers(1, 6))
    batch = data.draw(st.integers(1, 5))
    t0 = data.draw(st.floats(0.0, 0.9))
    t1 = t0 + data.draw(st.floats(1e-3, 0.1))
    span = t1 - t0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grid = SimplexGrid(model.dimension, total)
    gen = _LatticeGenerator(model, grid)
    step = default_ode_step(model, total)
    laws = rng.dirichlet(np.ones(grid.node_count), size=batch)
    node = int(rng.integers(grid.node_count))
    laws[0] = 0.0
    laws[0, node] = 1.0
    us = rng.choice(model.u_grid.values(), size=(batch, 1))
    vs = rng.choice(model.v_grid.values(), size=(batch, 1))
    got = _evolve_laws(gen, t0, span, laws, us, vs, step)
    for b in range(batch):
        alone = _evolve_laws(gen, t0, span, laws[b], us[b, 0], vs[b, 0], step)
        assert got[b].tobytes() == alone.tobytes()
        one = _evolve_laws(gen, t0, span, laws[b:b + 1], us[b:b + 1], vs[b:b + 1], step)
        assert got[b].tobytes() == one[0].tobytes()
    want = master_evolve(model, t0, t1, grid.counts[node], us[0, 0], vs[0, 0], ode_step=step)
    assert want.tobytes() == got[0].tobytes()
    # per-law start times under the call's one span, a few ulps off n steps
    n = data.draw(st.integers(1, 12))
    t0s = rng.uniform(0.0, 0.9, size=(batch, 1))
    span = float(t0s[0, 0] + n * step) - float(t0s[0, 0])
    got = _evolve_laws(gen, t0s, span, laws, us, vs, step)
    for b in range(batch):
        alone = _evolve_laws(gen, float(t0s[b, 0]), span, laws[b], us[b, 0], vs[b, 0], step)
        assert got[b].tobytes() == alone.tobytes()


_BLOCK_SCENARIO = {"model": "two-type", "particle_counts": [6, 9], "partition_steps": [3],
                   "initial_state": [0.7, 0.3], "trials": 4,
                   "adversaries": [{"kind": "extremal"}, {"kind": "random"}],
                   "value_grid": {"n_x": 8, "n_t": 8}}


@functools.cache
def _block_setup(seat):
    return _setup(Scenario.from_dict(_BLOCK_SCENARIO), [6, 9], adversary_seat=3 - seat)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**40), m_steps=st.integers(1, 4), lo=st.integers(0, 10**6),
       seat=st.sampled_from([1, 2]),
       block=st.lists(st.tuples(st.integers(0, 1), st.sampled_from([6, 9]), st.integers(0, 3)),
                      min_size=1, max_size=4))
def test_trial_generators_equal_default_rng(seed, m_steps, lo, seat, block):
    # a trial block draws everything from default_rng([seed, m_steps, adversary, lo])
    setup = _block_setup(seat)
    setup = setup._replace(scenario=dataclasses.replace(setup.scenario, seed=seed))
    scenario, model, constants, field, starts = setup
    adv_index = 1  # the random adversary draws from the block's stream every step
    got = _run_trial_block(setup, m_steps, adv_index, seat, lo, block)
    guided, adversary = (ControlWithGuideStrategy(field, model, constants),
                         RandomPolicy(mirrored(model).u_grid))
    if seat == 2:
        guided = ControlWithGuideStrategy(field.negated(), mirrored(model), constants)
        adversary = RandomPolicy(model.u_grid)
    players = (guided, adversary) if seat == 1 else (adversary, guided)
    batch = run_episodes(model, [starts[count] for _, count, _ in block],
                         Partition.uniform(0.0, 1.0, m_steps), *players,
                         np.random.default_rng([seed, m_steps, adv_index, lo]),
                         rate_bound=constants.k)
    want = (batch.payoffs, batch.violation_fraction1, batch.violation_fraction2)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


# (seed, partition steps): the scenario entries of a block key
# [seed, m_steps, adversary, lo]; adversary and lo are built as indices
@pytest.mark.parametrize("prefix, keys", [
    ([-1], [3]),
    ([0.5], [3]),
    ([True], [3]),
    ([1], [0]),
    ([1], [2.5]),
])
def test_trial_generators_reject_bad_keys(prefix, keys):
    # a block key never holds a negative or non-integer entry: the scenario refuses it at load
    with pytest.raises(ScenarioError):
        Scenario.from_dict(dict(_BLOCK_SCENARIO, seed=prefix[0], partition_steps=keys))


@pytest.mark.parametrize("d", [3, 4])
def test_source_pick_equals_the_summed_comparison(d):
    rng = np.random.default_rng(d)
    counts = rng.integers(0, 4, size=(2000, d))
    counts[:, 0] += 1
    xs = counts / counts.sum(axis=1, keepdims=True)
    src = rng.random(2000)
    # draws that land exactly on a cumulative share, where >= decides the type
    cdf = np.cumsum(xs, axis=1)
    src[:200] = cdf[:200, 1] / cdf[:200, -1]
    src[200:300] = 0.0
    draw = src * cdf[:, -1]
    old = np.minimum((draw[:, None] >= cdf).sum(axis=1), d - 1)
    new = _source_types(xs, src)
    assert new.dtype == old.dtype
    assert np.array_equal(new, old)
    assert set(np.unique(new)) == set(range(d))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 6), data=st.data())
def test_source_pick_equals_the_cumsum_reference_bit_for_bit(d, data):
    rows = data.draw(st.integers(1, 40))
    counts = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 30), min_size=d, max_size=d).filter(any),
        min_size=rows, max_size=rows)))
    xs = counts / counts.sum(axis=1, keepdims=True)
    cdf = np.cumsum(xs, axis=1)
    src = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                      min_size=rows, max_size=rows)))
    # draws that land exactly on a cumulative share, where >= decides the type
    on_share = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    col = data.draw(st.integers(0, d - 1))
    src = np.where(on_share, cdf[:, col] / cdf[:, -1], src)
    draw = src * cdf[:, -1]
    old = np.minimum((draw[:, None] >= cdf).sum(axis=1), d - 1)
    new = _source_types(xs, src)
    assert new.dtype == old.dtype
    assert np.array_equal(new, old)


@pytest.mark.parametrize("model, y", [(TwoTypeModel(), [3, 1]), (ThreeTypeRotorModel(), [2, 1, 2])])
def test_sample_final_distribution_is_one_shared_stream_tile(model, y):
    trials = 700
    emp = sample_final_distribution(model, 0.1, 0.9, y, 1.0, 0.5, trials=trials, seed=8)
    finals = np.tile(np.array(y, dtype=np.int64), (trials, 1))
    simulate_chain(model, 0.1, 0.9, finals, 1.0, 0.5, np.random.default_rng(8))
    grid = SimplexGrid(model.dimension, sum(y))
    expect = np.bincount(grid.node_index(finals), minlength=grid.node_count) / trials
    assert emp.tobytes() == expect.tobytes()


def test_sample_final_distribution_needs_a_trial():
    # zero trials used to give an all-NaN law with only a RuntimeWarning
    with pytest.raises(ValueError, match="at least one trial"):
        sample_final_distribution(TwoTypeModel(), 0, 1, [2, 0], 1, 0, trials=0, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_evolve_laws_rejects_a_non_finite_law(bad):
    # a NaN law used to pass the mass and sign checks, which compare false
    class BrokenRates(TwoTypeModel):
        def rate_matrix(self, t, x, u, v):
            return np.full_like(super().rate_matrix(t, x, u, v), bad)

    model = BrokenRates()
    grid = SimplexGrid(2, 3)
    starts = np.zeros((2, grid.node_count))
    starts[:, 0] = 1.0
    # an infinite rate times an empty source is NaN, which numpy warns about
    with np.errstate(invalid="ignore"):
        with pytest.raises(IntegrationError, match="not finite"):
            _evolve_laws(_LatticeGenerator(model, grid), 0.0, 0.01, starts, 1.0,
                         np.array([[0.0], [1.0]]), 0.002)
        with pytest.raises(IntegrationError, match="not finite"):
            master_evolve(model, 0.0, 0.01, [3, 0], 1.0, 0.0, ode_step=0.002)


def test_simulator_matches_master_equation_tv():
    model = TwoTypeModel()
    y = [4, 0]
    emp = sample_final_distribution(model, 0.0, 1.0, y, 1.0, 0.0, trials=20000, seed=42)
    oracle = master_evolve(model, 0.0, 1.0, y, 1.0, 0.0)
    assert 0.5 * np.abs(emp - oracle).sum() <= 0.02


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
    oracle = master_evolve(model, 0.0, 1.0, y, 1.0, 0.0)
    assert 0.5 * np.abs(emp - oracle).sum() <= 0.02


def test_simulator_matches_oracle_time_dependent_model():
    from chainguide.models import ThreeTypeRotorModel

    model = ThreeTypeRotorModel()
    y = [2, 1, 1]
    emp = sample_final_distribution(model, 0.0, 1.0, y, 1.0, 1.0, trials=20000, seed=11)
    oracle = master_evolve(model, 0.0, 1.0, y, 1.0, 1.0)
    assert 0.5 * np.abs(emp - oracle).sum() <= 0.02


ONE_STEP_TRIALS = 4000


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_step_kernel_with_per_row_v_matches_master_evolve_in_tv(data):
    # random small models; one count row tiled over the trials, each row with
    # its own v, as lemma 2's one-step check runs them. Given the rows' v, the
    # exact law of the tile is the mixture of each v's master_evolve law at
    # the rows' shares. The tolerance is fixed from the trial count n and
    # the node count N alone: the expected TV of n independent draws is at
    # most sqrt(N / n) / 2, and one draw moves the TV by at most 1 / n, so by
    # McDiarmid's inequality it exceeds that by sqrt(ln(1e6) / (2 n)) with
    # probability at most 1e-6
    level = st.floats(0.0, 1.0, allow_subnormal=False)
    make = data.draw(st.sampled_from([TwoTypeModel, ThreeTypeRotorModel]))
    model = make(u_levels=data.draw(st.lists(level, min_size=1, max_size=3, unique=True)),
                 v_levels=data.draw(st.lists(level, min_size=1, max_size=3, unique=True)))
    grid = SimplexGrid(model.dimension, data.draw(st.integers(1, 6)))
    y = grid.counts[data.draw(st.integers(0, grid.node_count - 1))]
    t0 = data.draw(st.floats(0.0, 0.9))
    t1 = t0 + data.draw(st.floats(0.01, 0.1))
    u = data.draw(st.sampled_from(model.u_grid.points))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = ONE_STEP_TRIALS
    v_idx = rng.integers(0, len(model.v_grid), size=n)
    finals = np.tile(y, (n, 1))
    simulate_chain(model, t0, t1, finals, u, model.v_grid.values()[v_idx], rng)
    empirical = np.bincount(grid.node_index(finals), minlength=grid.node_count) / n
    shares = np.bincount(v_idx, minlength=len(model.v_grid)) / n
    exact = sum(share * master_evolve(model, t0, t1, y, u, v)
                for share, v in zip(shares, model.v_grid.values()))
    tolerance = 0.5 * math.sqrt(grid.node_count / n) + math.sqrt(math.log(1e6) / (2 * n))
    assert 0.5 * np.abs(empirical - exact).sum() <= tolerance


def test_dynkin_residual_zero_rates():
    assert dynkin_residual(ZeroModel(), lambda x: x[0], 0.0, 0.5,
                           [2, 2], 1.0, 0.0) == 0.0


def test_dynkin_residual_constant_function():
    model = TwoTypeModel()
    res = dynkin_residual(model, lambda x: 3.0, 0.0, 0.5, [2, 2], 1.0, 0.0)
    assert res <= 1e-12


@pytest.mark.parametrize("step", [-0.1, 0.0, math.nan, math.inf])
def test_dynkin_residual_rejects_a_bad_step(step):
    # -0.1 used to integrate [0, 1] in two steps and return 0.000713, 0 raised
    # ZeroDivisionError and NaN a cast error
    with pytest.raises(ValueError, match="positive and finite"):
        dynkin_residual(TwoTypeModel(), lambda x: x[0], 0.0, 1.0, [2, 0], 0.0, 1.0,
                        ode_step=step)


def test_dynkin_residual_two_type():
    model = TwoTypeModel()
    res = dynkin_residual(model, lambda x: x[0], 0.0, 0.5, [2, 2], 1.0, 0.0,
                          ode_step=0.002)
    assert res <= 1e-8


class _ReferenceOperator:
    """The per-control operator the lattice generator replaced: (u, v) fixed when built."""

    def __init__(self, model, space, u, v):
        self.model = model
        self.space = space
        self.u = u
        self.v = v
        self.xs = space.nodes
        counts = space.counts
        d = model.dimension
        self.pairs = []
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                valid = counts[:, i] >= 1
                moved = counts[valid].copy()
                moved[:, i] -= 1
                moved[:, j] += 1
                self.pairs.append((i, j, valid, space.node_index(moved)))

    def rates(self, t):
        q = self.model.rate_matrix(t, self.xs, self.u, self.v)
        out = []
        counts = self.space.counts
        for i, j, valid, to_idx in self.pairs:
            out.append((valid, to_idx, counts[:, i] * q[..., i, j]))
        return out

    def apply(self, t, p):
        out = np.zeros_like(p)
        for valid, to_idx, rate in self.rates(t):
            flux = rate * p
            out -= flux
            np.add.at(out, to_idx, flux[valid])
        return out

    def generator_on(self, t, fvals):
        out = np.zeros_like(fvals)
        for valid, to_idx, rate in self.rates(t):
            diff = np.zeros_like(fvals)
            diff[valid] = fvals[to_idx] - fvals[valid]
            out += rate * diff
        return out


@pytest.mark.parametrize("model", [TwoTypeModel(), ThreeTypeRotorModel()])
@pytest.mark.parametrize("total", [1, 2, 5])
def test_lattice_generator_matches_per_control_operators(model, total):
    rng = np.random.default_rng([model.dimension, total])
    grid = SimplexGrid(model.dimension, total)
    gen = _LatticeGenerator(model, grid)
    n = grid.node_count
    for u in model.u_grid.points:
        for v in model.v_grid.points:
            ref = _ReferenceOperator(model, grid, u, v)
            t = float(rng.uniform(0.0, model.horizon))
            p = rng.dirichlet(np.ones(n))
            f = rng.standard_normal(n)
            want_forward = ref.apply(t, p).tobytes()
            want_backward = ref.generator_on(t, f).tobytes()
            # the same pair as numbers and as per-node arrays of one control
            for uu, vv in ((u, v), (np.full(n, u), np.full(n, v))):
                assert gen.forward(t, p, uu, vv).tobytes() == want_forward
                assert gen.backward(t, f, uu, vv).tobytes() == want_backward


@pytest.mark.parametrize("model", [TwoTypeModel(), ThreeTypeRotorModel()])
@pytest.mark.parametrize("total", [1, 4])
def test_backward_rows_equal_one_vector_calls(model, total):
    rng = np.random.default_rng([model.dimension, total, 6])
    grid = SimplexGrid(model.dimension, total)
    gen = _LatticeGenerator(model, grid)
    n = grid.node_count
    t = float(rng.uniform(0.0, model.horizon))
    f = rng.standard_normal((4, n))
    # controls as numbers and as per-node arrays
    for u, v in ((model.u_grid.points[-1], model.v_grid.points[1]),
                 (rng.choice(model.u_grid.values(), size=n),
                  rng.choice(model.v_grid.values(), size=n))):
        rows = gen.backward(t, f, u, v)
        assert rows.shape == f.shape
        for b in range(f.shape[0]):
            assert rows[b].tobytes() == gen.backward(t, f[b], u, v).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("total", range(1, 9))
def test_neighbour_tables_have_distinct_targets(d, total):
    # forward's scatter adds each flux once, as np.add.at would, only if no
    # two sources of one move i -> j share a target
    gen = _LatticeGenerator(ZeroModel(dimension=d), SimplexGrid(d, total))
    assert len(gen.pairs) == d * (d - 1)
    for i, j, valid, to_idx in gen.pairs:
        assert to_idx.size == np.count_nonzero(valid)
        assert np.unique(to_idx).size == to_idx.size


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([TwoTypeModel(), ThreeTypeRotorModel()]), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_lattice_generator_is_a_generator(model, total, seed):
    rng = np.random.default_rng(seed)
    grid = SimplexGrid(model.dimension, total)
    gen = _LatticeGenerator(model, grid)
    n = grid.node_count
    t = float(rng.uniform(0.0, model.horizon))
    # per-node controls drawn from the grids: a feedback the generator must accept
    u = rng.choice(model.u_grid.values(), size=n)
    v = rng.choice(model.v_grid.values(), size=n)
    p = rng.dirichlet(np.ones(n))
    f = rng.standard_normal(n)
    forward = gen.forward(t, p, u, v)
    assert abs(forward.sum()) <= 1e-12
    assert not gen.backward(t, np.full(n, 2.5), u, v).any()
    assert abs(p @ gen.backward(t, f, u, v) - forward @ f) <= 1e-12


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
        run = simulate_chain(model, t0, t1, counts, u, v, np.random.default_rng(seed))
        finals.append(counts[0])
        candidates += run.candidates
    return np.array(finals), candidates


def _reference_shared_rounds(model, t0, t1, starts, us, vs, rng):
    """The shared-stream kernel restated row by row within each round: (final counts, candidates).

    Every round draws one vector per quantity over its live rows, in the
    kernel's order: the gaps (of every row in the first round), then the
    source uniforms, the target offsets and the accept uniforms; the next
    gaps follow the round's jumps.
    """
    d = model.dimension
    k = model.declared_k
    counts = np.array(starts, dtype=np.int64)
    totals = counts.sum(axis=1)
    scales = 1.0 / ((d - 1) * k * totals)
    times = t0 + scales * rng.standard_exponential(len(counts))
    live = [r for r in range(len(counts)) if times[r] < t1]
    candidates = 0
    while live:
        n = len(live)
        draws = zip(live, rng.random(n), rng.integers(0, d - 1, size=n), rng.random(n))
        for r, src, offset, accept in draws:
            x = counts[r] / totals[r]
            cdf = np.cumsum(x)
            i = min(int(np.searchsorted(cdf, src * cdf[-1], side="right")), d - 1)
            j = int(offset) + (offset >= i)
            if accept * k < float(model.rate_matrix(times[r], x, us[r], vs[r])[i, j]):
                counts[r, i] -= 1
                counts[r, j] += 1
        candidates += n
        for r, gap in zip(live, rng.standard_exponential(n)):
            times[r] = times[r] + scales[r] * gap
        live = [r for r in live if times[r] < t1]
    return counts, candidates


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_composition_never_changes_results(data):
    # a batch's result is a function of its rows and its one generator: a
    # one-row batch is the one-trial loop, and any batch is the round-by-round
    # reference with every row drawing from the shared vectors
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
    batch = simulate_chain(model, t0, t1, counts, us, vs, np.random.default_rng(seeds[0]))
    assert isinstance(batch, ChainBatch)
    want, want_candidates = _reference_shared_rounds(model, t0, t1, starts, us, vs,
                                                     np.random.default_rng(seeds[0]))
    assert np.array_equal(counts, want)
    assert batch.candidates == want_candidates
    assert 0 <= batch.accepted <= batch.candidates

    # the parts of a split batch are batches of their own, each on its own stream
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=3))) | {n})
    lo = 0
    counts = starts.copy()
    for part, hi in enumerate(cuts):
        simulate_chain(model, t0, t1, counts[lo:hi], us[lo:hi], vs[lo:hi],
                       np.random.default_rng([part, *seeds]))
        want, _ = _reference_shared_rounds(model, t0, t1, starts[lo:hi], us[lo:hi], vs[lo:hi],
                                           np.random.default_rng([part, *seeds]))
        assert np.array_equal(counts[lo:hi], want)
        lo = hi


def test_batch_tallies_and_events():
    model = TwoTypeModel()
    counts = np.array([[3, 1], [0, 4], [2, 2]], dtype=np.int64)
    batch = simulate_chain(model, 0.0, 1.0, counts, 1.0, 1.0, np.random.default_rng(4),
                           record_events=True)
    # u = v = K = 1: every candidate has rate exactly K and is accepted
    assert batch.accepted == batch.candidates > 0
    assert batch.max_rate_ratio == 1.0
    rows, jump_times = batch.jumps[:2]
    assert rows.size == batch.accepted
    for r, start in enumerate([[3, 1], [0, 4], [2, 2]]):
        times = jump_times[rows == r]
        assert np.all((0.0 < times) & (times < 1.0))
        assert np.all(np.diff(times) > 0.0)
        states = _replay(start, batch.jumps, r)
        assert np.array_equal(states[-1] if states else start, counts[r])


@pytest.mark.parametrize("model", [TwoTypeModel(), ThreeTypeRotorModel()])
def test_batch_mixed_totals_run_row_by_row(model):
    # rows of one batch may differ in particle total
    d = model.dimension
    starts = np.array([[1] * (d - 1) + [1], [2] + [0] * (d - 1), [7] * d, [0] * (d - 1) + [30]],
                      dtype=np.int64)
    totals = starts.sum(axis=1)
    # rows interleave their draws on the shared stream, each at its own
    # dominating rate, and keep their totals
    counts = starts.copy()
    batch = simulate_chain(model, 0.1, 0.9, counts, 0.5, 0.25, np.random.default_rng(6),
                           record_events=True)
    n = len(starts)
    want, candidates = _reference_shared_rounds(model, 0.1, 0.9, starts, [0.5] * n,
                                                [0.25] * n, np.random.default_rng(6))
    assert np.array_equal(counts, want)
    assert candidates == batch.candidates
    assert np.array_equal(counts.sum(axis=1), totals)
    assert counts.min() >= 0
    for r in range(n):
        states = _replay(starts[r], batch.jumps, r)
        assert np.array_equal(states[-1] if states else starts[r], counts[r])


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
    if kind == "batch":
        # a second row of the same total: a batch that only a single-row check rejects
        other = list(counts)
        i = counts.index(max(counts))
        other[i] -= 1
        other[(i + 1) % d] += 1
        return [counts, other]
    return LatticeState(counts)


STATE_ENTRY_POINTS = {
    "check_counts": lambda model, y: check_counts(y, model.dimension),
    "run_episodes": lambda model, y: run_episodes(
        model, y, Partition.uniform(0.0, 1.0, 2), 1.0, 0.5, np.random.default_rng(0)),
    "sample_final_distribution": lambda model, y: sample_final_distribution(
        model, 0.0, 1.0, y, 1.0, 0.5, trials=2, seed=0),
    "dynkin_residual": lambda model, y: dynkin_residual(
        model, lambda x: x[0], 0.0, 0.1, y, 1.0, 0.5),
    "master_evolve": lambda model, y: master_evolve(model, 0.0, 0.1, y, 1.0, 0.5),
    "node_index": lambda model, y: SimplexGrid(model.dimension, 4).node_index(y),
    # the kernel advances its batch in place, so it takes an integer array only
    "simulate_chain": lambda model, y: simulate_chain(
        model, 0.0, 1.0, y if isinstance(y, LatticeState) else np.array(y, ndmin=2),
        1.0, 0.5, np.random.default_rng(0)),
}


# the entry points that take a batch of rows, each row with its own total; the
# node-index entry points read one lattice, so they still need one total
MIXED_TOTAL_BATCHES = {"check_counts", "run_episodes", "simulate_chain"}
SAME_TOTAL_BATCHES = MIXED_TOTAL_BATCHES | {"node_index"}
# the oracles start from one row and say so when given a batch
ORACLE_ENTRY_POINTS = {"master_evolve", "sample_final_distribution", "dynkin_residual"}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([TwoTypeModel(), ThreeTypeRotorModel()]), st.data())
def test_one_state_form_checked_at_every_entry_point(model, data):
    # the rows of total 4 are the lattice the node-index entry points read
    parts = data.draw(st.lists(st.integers(0, 4), min_size=model.dimension - 1,
                               max_size=model.dimension - 1).filter(lambda p: sum(p) <= 4))
    counts = parts + [4 - sum(parts)]
    kind = data.draw(st.sampled_from(["non-integer", "negative", "wrong-length",
                                      "zero-total", "mixed-totals", "batch", "LatticeState"]))
    bad = _corrupt(counts, kind)
    for name, call in STATE_ENTRY_POINTS.items():
        if (kind == "mixed-totals" and name in MIXED_TOTAL_BATCHES
                or kind == "batch" and name in SAME_TOTAL_BATCHES):
            call(model, bad)  # a batch, whether or not its rows differ in total
            continue
        batch = kind in ("mixed-totals", "batch") and name in ORACLE_ENTRY_POINTS
        with pytest.raises(ValueError, match="single count row" if batch else None):
            call(model, bad)
            pytest.fail(f"{name} took a {kind} state")

    # a list, a tuple and an int64 array of one state give the same bytes
    forms = [counts, tuple(counts), np.array(counts, dtype=np.int64)]
    partition = Partition.uniform(0.0, 1.0, 4)
    payoffs = [run_episodes(model, y, partition, 1.0, 0.5,
                            np.random.default_rng(5)).payoffs.tobytes()
               for y in forms]
    probs = [sample_final_distribution(model, 0.0, 1.0, y, 1.0, 0.5, trials=20,
                                       seed=5).tobytes() for y in forms]
    assert payoffs[0] == payoffs[1] == payoffs[2]
    assert probs[0] == probs[1] == probs[2]
