import numpy as np
import pytest

from chainguide.guide import (
    CandidateFamily,
    GuideState,
    guide_advance,
    init_guide,
    integrate_characteristic,
)
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, ZeroModel
from chainguide.value import ValueField, build_simplex_grid, solve_value


def saturated_mix_fraction(x1_start, elapsed):
    return 0.5 + (x1_start - 0.5) * np.exp(-2.0 * elapsed)


@pytest.fixture(scope="module")
def two_type_field():
    model = TwoTypeModel()
    return model, solve_value(model, 150, build_simplex_grid(2, 150))


def test_init_guide_is_identity():
    g = init_guide(0.0, np.array([1.0, 0.0]))
    assert g.t == 0.0
    assert np.array_equal(g.w, [1.0, 0.0])
    g = init_guide(0.5, np.array([0.25, 0.75]))
    assert np.array_equal(g.w, [0.25, 0.75])


def test_characteristic_zero_model_is_constant():
    x0 = np.array([0.3, 0.7])
    out = integrate_characteristic(ZeroModel(), 0.0, 1.0, x0, 1.0, 1.0)
    assert np.allclose(out, x0, atol=1e-15)


def test_characteristic_matches_closed_form():
    model = TwoTypeModel()
    out = integrate_characteristic(model, 0.0, 1.0, np.array([1.0, 0.0]), 1.0, 1.0,
                                   ode_step=0.01)
    assert out[0] == pytest.approx(saturated_mix_fraction(1.0, 1.0), abs=1e-6)
    assert out.sum() == pytest.approx(1.0, abs=1e-10)


def test_characteristic_time_dependent_schedules():
    model = TwoTypeModel()
    # u switches off halfway: x1' = -x1 on [0, 1/2], then x1' = 0 (v stays 0)
    out = integrate_characteristic(model, 0.0, 1.0, np.array([1.0, 0.0]),
                                   lambda t: 1.0 if t < 0.5 else 0.0, 0.0,
                                   ode_step=0.005)
    # stage sampling smears the control switch across one step
    assert out[0] == pytest.approx(np.exp(-0.5), abs=2e-3)


def test_characteristic_three_type_stays_on_simplex():
    model = ThreeTypeRotorModel()
    out = integrate_characteristic(model, 0.0, 1.0, np.array([0.2, 0.5, 0.3]), 1.0, 0.5,
                                   ode_step=0.005)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_candidate_family_layout():
    fam = CandidateFamily.build(3, lam_points=9)
    # three pure controls first, then two adjacent pairs with nine weights
    assert fam.count == 3 + 2 * 9
    assert list(fam.weight[:3]) == [1.0, 1.0, 1.0]
    assert fam.first_idx[0] == fam.second_idx[0] == 0


def test_guide_advance_first_descends_value(two_type_field):
    model, field = two_type_field
    # from the all-type-1 corner the exact value is preserved along u = 1 and
    # falls along anything the scheme might prefer; the numeric field may
    # wobble within the per-step slack but must not be flagged
    step = guide_advance(field, model, 0.0, 0.01, np.array([1.0, 0.0]), 1.0, "first")
    assert not step.violation
    assert step.value_end <= step.value_start + 1e-4
    assert step.state.w[0] == pytest.approx(saturated_mix_fraction(1.0, 0.01), abs=1e-4)


def test_guide_advance_second_climbs_value(two_type_field):
    model, field = two_type_field
    # from the all-type-2 corner player 2 pushes mass back toward type 1
    step = guide_advance(field, model, 0.0, 0.01, np.array([0.0, 1.0]), 1.0, "second")
    assert not step.violation
    assert step.value_end >= step.value_start - 1e-4
    assert step.state.w[0] == pytest.approx(0.01, abs=1e-4)


def test_guide_advance_zero_model_stays_put():
    model = ZeroModel()
    grid = build_simplex_grid(2, 20)
    field = solve_value(model, 20, grid)
    w0 = np.array([0.35, 0.65])
    step = guide_advance(field, model, 0.0, 0.05, w0, 0.0, "first")
    assert np.allclose(step.state.w, w0, atol=1e-12)
    assert not step.violation
    assert step.value_end == pytest.approx(step.value_start, abs=1e-12)


def test_guide_constant_field_picks_lowest_index(two_type_field):
    model, _ = two_type_field
    grid = build_simplex_grid(2, 30)
    times = np.linspace(0.0, 1.0, 31)
    flat = ValueField(grid, times, np.full((31, grid.node_count), 0.4))
    step = guide_advance(flat, model, 0.0, 0.02, np.array([0.6, 0.4]), 0.5, "first")
    # every candidate ties at 0.4, so the first pure control (u = 0) wins
    assert step.candidate == 0
    expect = integrate_characteristic(model, 0.0, 0.02, np.array([0.6, 0.4]), 0.0, 0.5)
    assert np.allclose(step.state.w, expect, atol=1e-12)
    assert not step.violation


def test_guide_speed_bound(two_type_field):
    model, field = two_type_field
    rng = np.random.default_rng(8)
    k = model.declared_k
    for _ in range(25):
        w = rng.dirichlet(np.ones(2))
        dt = rng.uniform(0.002, 0.05)
        t0 = rng.uniform(0.0, 1.0 - dt)
        v_star = rng.choice(model.v_grid.points)
        step = guide_advance(field, model, t0, t0 + dt, w, v_star, "first")
        assert np.linalg.norm(step.state.w - w) <= k * np.sqrt(2) * dt + 1e-9


def test_guide_violation_flagged_not_fatal(two_type_field):
    model, _ = two_type_field
    grid = build_simplex_grid(2, 40)
    times = np.linspace(0.0, 1.0, 41)
    # the payoff frozen in time is not a supersolution: from the all-type-2
    # corner the adversary's v = 1 pushes x1 (and hence the field) up no
    # matter which u-mixture the hull offers
    frozen = ValueField(grid, times, np.tile(grid.nodes[:, 0], (41, 1)))
    step = guide_advance(frozen, model, 0.0, 0.2, np.array([0.0, 1.0]), 1.0, "first",
                               slack=0.0)
    assert step.violation
    assert step.value_end > step.value_start


def test_mirror_symmetry_of_guide_advances(two_type_field):
    model, field = two_type_field
    # mirror: swap the two types and negate the payoff. On the mirrored
    # field the first player's advance must match the coordinate swap of
    # the second player's advance on the original field.
    mirror_table = 1.0 - field.table[:, ::-1]
    mirror = ValueField(field.grid, field.times, mirror_table)
    w = np.array([0.8, 0.2])
    a = rev = guide_advance(field, model, 0.2, 0.22, w, 1.0, "second")
    b = guide_advance(mirror, model, 0.2, 0.22, w[::-1], 1.0, "first")
    assert b.candidate == a.candidate
    assert np.allclose(b.state.w, a.state.w[::-1], atol=1e-9)
    assert b.value_end == pytest.approx(1.0 - a.value_end, abs=1e-9)


def test_guide_advance_reads_integer_reply_as_grid_value():
    # the reply is always a grid value: reply=1 is v=1, not grid index 1 (v=0.5)
    model = TwoTypeModel()
    field = solve_value(model, 40, build_simplex_grid(2, 40))
    w = np.array([0.0, 1.0])
    by_int = guide_advance(field, model, 0.0, 0.05, w, 1, "first")
    by_float = guide_advance(field, model, 0.0, 0.05, w, 1.0, "first")
    assert np.array_equal(by_int.state.w, by_float.state.w)
    assert by_int.state.w[0] == pytest.approx(0.0476, abs=1e-3)
    with pytest.raises(ValueError):
        guide_advance(field, model, 0.0, 0.05, w, 2, "first")
