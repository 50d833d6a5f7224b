from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainguide.guide import LAM_POINTS, ODE_STEP, CandidateFamily, _flow, advance_guides
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, ZeroModel, mirrored
from chainguide.strategy import ControlWithGuideStrategy, Partition
from chainguide.value import ValueField, build_simplex_grid, solve_value


def saturated_mix_fraction(x1_start, elapsed):
    return 0.5 + (x1_start - 0.5) * np.exp(-2.0 * elapsed)


@pytest.fixture(scope="module")
def two_type_field():
    model = TwoTypeModel()
    return model, solve_value(model, 150, build_simplex_grid(2, 150))


def advance_one(field, model, t0, t1, w, reply, slack=None):
    """One-row ``advance_guides`` with the reply v given as a grid value.

    Without a ``slack`` the strategy's per-step slack is used. Returns
    (endpoint, value_start, value_end, violation, candidate) of the row.
    """
    if slack is None:
        slack = ControlWithGuideStrategy(field, model).step_slack(t0, t1)
    reply_idx = model.v_grid.index_of(reply)
    out = advance_guides(field, model, t0, t1, np.asarray(w, dtype=float)[None, :],
                         np.array([reply_idx]), slack)
    return tuple(part[0] for part in out)


def characteristic(model, t0, t1, x0, u, v, ode_step=ODE_STEP):
    """The flow dx/dt = xQ(t, x, u, v) from x0 under held controls, by the guide's RK4."""
    def velocity(t, x):
        return model.drift(t, x, u, v)

    return _flow(velocity, t0, t1, np.array([x0], dtype=float), ode_step, "characteristic")[0]


def test_characteristic_zero_model_is_constant():
    x0 = np.array([0.3, 0.7])
    out = characteristic(ZeroModel(), 0.0, 1.0, x0, 1.0, 1.0)
    assert np.allclose(out, x0, atol=1e-15)


def test_characteristic_matches_closed_form():
    model = TwoTypeModel()
    out = characteristic(model, 0.0, 1.0, [1.0, 0.0], 1.0, 1.0, ode_step=0.01)
    assert out[0] == pytest.approx(saturated_mix_fraction(1.0, 1.0), abs=1e-6)
    assert out.sum() == pytest.approx(1.0, abs=1e-10)


def test_characteristic_time_dependent_schedules():
    model = TwoTypeModel()

    # u switches off halfway: x1' = -x1 on [0, 1/2], then x1' = 0 (v stays 0)
    def velocity(t, x):
        return model.drift(t, x, 1.0 if t < 0.5 else 0.0, 0.0)

    out = _flow(velocity, 0.0, 1.0, np.array([[1.0, 0.0]]), 0.005, "characteristic")[0]
    # stage sampling smears the control switch across one step
    assert out[0] == pytest.approx(np.exp(-0.5), abs=2e-3)


def test_flow_takes_no_extra_substep_for_round_off():
    # a uniform 100-step partition of [0, 1] used to take 180 substeps
    calls = []

    def velocity(t, x):
        calls.append(t)
        return np.zeros_like(x)

    def substeps(t0, t1):
        calls.clear()
        _flow(velocity, t0, t1, np.array([[0.5, 0.5]]), ODE_STEP, "flow")
        return len(calls) // 4  # four RK4 stages per substep

    times = Partition.uniform(0.0, 1.0, 100).times
    assert [substeps(a, b) for a, b in zip(times[:-1], times[1:])] == [1] * 100
    assert substeps(0.0, 0.015) == 2


def test_characteristic_three_type_stays_on_simplex():
    model = ThreeTypeRotorModel()
    out = characteristic(model, 0.0, 1.0, [0.2, 0.5, 0.3], 1.0, 0.5, ode_step=0.005)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_candidate_family_layout():
    fam = CandidateFamily.build(3)
    # three pure controls first, then two adjacent pairs at the seven interior
    # weights of a nine-point grid: the end weights only copy pure controls
    assert LAM_POINTS == 9
    assert fam.count == 3 + 2 * 7
    assert list(fam.weight[:3]) == [1.0, 1.0, 1.0]
    assert list(fam.first_idx[:3]) == list(fam.second_idx[:3]) == [0, 1, 2]
    interior = np.linspace(0.0, 1.0, LAM_POINTS)[1:-1]
    assert np.array_equal(fam.weight[3:], np.tile(interior, 2))
    assert list(fam.first_idx[3:]) == [0] * 7 + [1] * 7
    assert list(fam.second_idx[3:]) == [1] * 7 + [2] * 7
    # built once per grid size and shared, so nothing may write to it
    assert CandidateFamily.build(3) is fam
    for arr in (fam.first_idx, fam.second_idx, fam.weight):
        assert not arr.flags.writeable
    assert CandidateFamily.build(1).count == 1


def test_guide_advance_first_descends_value(two_type_field):
    model, field = two_type_field
    # from the all-type-1 corner the exact value is preserved along u = 1 and
    # falls along anything the scheme might prefer; the numeric field may
    # wobble within the per-step slack but must not be flagged
    w, v0, v1, violation, _ = advance_one(field, model, 0.0, 0.01, [1.0, 0.0], 1.0)
    assert not violation
    assert v1 <= v0 + 1e-4
    assert w[0] == pytest.approx(saturated_mix_fraction(1.0, 0.01), abs=1e-4)


def test_guide_advance_second_climbs_value(two_type_field):
    model, field = two_type_field
    # from the all-type-2 corner player 2 pushes mass back toward type 1;
    # on the mirror it descends the negated field
    w, v0, v1, violation, _ = advance_one(field.negated(), mirrored(model), 0.0, 0.01,
                                          [0.0, 1.0], 1.0)
    assert not violation
    assert -v1 >= -v0 - 1e-4
    assert w[0] == pytest.approx(0.01, abs=1e-4)


def test_guide_advance_zero_model_stays_put():
    model = ZeroModel()
    grid = build_simplex_grid(2, 20)
    field = solve_value(model, 20, grid)
    w0 = np.array([0.35, 0.65])
    w, v0, v1, violation, _ = advance_one(field, model, 0.0, 0.05, w0, 0.0)
    assert np.allclose(w, w0, atol=1e-12)
    assert not violation
    assert v1 == pytest.approx(v0, abs=1e-12)


def test_guide_constant_field_picks_lowest_index(two_type_field):
    model, _ = two_type_field
    grid = build_simplex_grid(2, 30)
    times = np.linspace(0.0, 1.0, 31)
    flat = ValueField(grid, times, np.full((31, grid.node_count), 0.4))
    w, _, _, violation, candidate = advance_one(flat, model, 0.0, 0.02, [0.6, 0.4], 0.5)
    # every candidate ties at 0.4, so the first pure control (u = 0) wins
    assert candidate == 0
    expect = characteristic(model, 0.0, 0.02, [0.6, 0.4], 0.0, 0.5)
    assert np.allclose(w, expect, atol=1e-12)
    assert not violation


def test_guide_speed_bound(two_type_field):
    model, field = two_type_field
    rng = np.random.default_rng(8)
    k = model.declared_k
    for _ in range(25):
        w = rng.dirichlet(np.ones(2))
        dt = rng.uniform(0.002, 0.05)
        t0 = rng.uniform(0.0, 1.0 - dt)
        v_star = rng.choice(model.v_grid.points)
        end = advance_one(field, model, t0, t0 + dt, w, v_star)[0]
        assert np.linalg.norm(end - w) <= k * np.sqrt(2) * dt + 1e-9


def test_guide_violation_flagged_not_fatal(two_type_field):
    model, _ = two_type_field
    grid = build_simplex_grid(2, 40)
    times = np.linspace(0.0, 1.0, 41)
    # the payoff frozen in time is not a supersolution: from the all-type-2
    # corner the adversary's v = 1 pushes x1 (and hence the field) up no
    # matter which u-mixture the hull offers
    frozen = ValueField(grid, times, np.tile(grid.nodes[:, 0], (41, 1)))
    _, v0, v1, violation, _ = advance_one(frozen, model, 0.0, 0.2, [0.0, 1.0], 1.0, slack=0.0)
    assert violation
    assert v1 > v0


def test_mirror_symmetry_of_guide_advances(two_type_field):
    model, field = two_type_field
    # the type swap: exchange the two types and replace the payoff x0 by
    # 1 - x1. On the swapped field player 1's advance must match the
    # coordinate swap of player 2's advance (player 1's on the mirrored
    # model with the negated field) on the original field.
    swapped = ValueField(field.grid, field.times, 1.0 - field.table[:, ::-1])
    w = np.array([0.8, 0.2])
    a_w, _, a_v1, _, a_cand = advance_one(field.negated(), mirrored(model), 0.2, 0.22, w, 1.0)
    b_w, _, b_v1, _, b_cand = advance_one(swapped, model, 0.2, 0.22, w[::-1], 1.0)
    assert b_cand == a_cand
    assert np.allclose(b_w, a_w[::-1], atol=1e-9)
    assert b_v1 == pytest.approx(1.0 + a_v1, abs=1e-9)


@lru_cache(maxsize=2)
def small_field(model_cls):
    model = model_cls()
    n = 40 if model.dimension == 2 else 12
    return model, solve_value(model, n, build_simplex_grid(model.dimension, n))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_advance_guides_rows_match_one_row_calls(data):
    base, base_field = small_field(data.draw(st.sampled_from([TwoTypeModel, ThreeTypeRotorModel])))
    # player 1's view of the game, or player 2's: player 1's on the mirror
    field, model = data.draw(st.sampled_from([(base_field, base),
                                              (base_field.negated(), mirrored(base))]))
    d = model.dimension
    n = data.draw(st.integers(1, 6))
    weights = st.floats(0.0, 1.0, allow_nan=False)
    guides = np.array(data.draw(st.lists(st.lists(weights, min_size=d, max_size=d)
                                         .filter(lambda row: sum(row) > 0.01),
                                         min_size=n, max_size=n)))
    guides /= guides.sum(axis=1, keepdims=True)
    replies = np.array(data.draw(st.lists(st.integers(0, len(model.v_grid) - 1),
                                          min_size=n, max_size=n)))
    t0 = data.draw(st.floats(0.0, 0.9))
    t1 = t0 + data.draw(st.floats(0.002, 0.1))
    slack = data.draw(st.floats(0.0, 0.01))
    batch = advance_guides(field, model, t0, t1, guides, replies, slack)
    for r in range(n):
        row = advance_guides(field, model, t0, t1, guides[r:r + 1], replies[r:r + 1], slack)
        for whole, single in zip(batch, row):
            assert np.array_equal(whole[r:r + 1], single)
