import numpy as np
import pytest

from chainguide.models import ThreeTypeRotorModel, TwoTypeModel
from chainguide.simplex import random_simplex_points
from chainguide.value import (
    SimplexGrid,
    ValueField,
    build_simplex_grid,
    monotonicity_tolerance,
    solve_value,
    verify_supersolution,
)


def saturated_mix_fraction(x1_start, elapsed):
    """Closed form of the two-type flow under both controls at their ceilings.

    dx1/dt = -x1 + (1 - x1) = 1 - 2*x1, solved exactly.
    """
    return 0.5 + (x1_start - 0.5) * np.exp(-2.0 * elapsed)


def euler_mix_fraction(x1_start, elapsed, steps=200_000):
    """Independent check of the closed form by brute-force forward integration."""
    x = x1_start
    dt = elapsed / steps
    for _ in range(steps):
        x += dt * (1.0 - 2.0 * x)
    return x


def test_closed_form_matches_forward_integration():
    assert saturated_mix_fraction(1.0, 1.0) == pytest.approx(euler_mix_fraction(1.0, 1.0), abs=1e-5)
    assert saturated_mix_fraction(0.25, 0.7) == pytest.approx(euler_mix_fraction(0.25, 0.7), abs=1e-5)


def test_grid_node_counts():
    assert build_simplex_grid(2, 4).node_count == 5
    assert build_simplex_grid(3, 2).node_count == 6
    assert build_simplex_grid(2, 200).node_count == 201


def test_grid_node_index_roundtrip():
    grid = build_simplex_grid(3, 5)
    idx = grid.node_index(grid.counts)
    assert np.array_equal(idx, np.arange(grid.node_count))


@pytest.mark.parametrize("d,n", [(2, 7), (3, 6), (4, 5)])
def test_interpolation_exact_at_nodes(d, n):
    grid = build_simplex_grid(d, n)
    rng = np.random.default_rng(1)
    values = rng.standard_normal(grid.node_count)
    got = grid.interpolate(values, grid.nodes)
    assert np.allclose(got, values, atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 9), (3, 6), (4, 4)])
def test_interpolation_reproduces_affine_functions(d, n):
    grid = build_simplex_grid(d, n)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(d)
    offset = rng.standard_normal()
    values = grid.nodes @ coeffs + offset
    pts = random_simplex_points(rng, 300, d)
    got = grid.interpolate(values, pts)
    assert np.allclose(got, pts @ coeffs + offset, atol=1e-10)


@pytest.mark.parametrize("d,n", [(2, 6), (3, 5), (4, 4)])
def test_interpolation_is_convex_combination(d, n):
    grid = build_simplex_grid(d, n)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(grid.node_count)
    pts = random_simplex_points(rng, 500, d)
    got = grid.interpolate(values, pts)
    assert np.all(got <= values.max() + 1e-12)
    assert np.all(got >= values.min() - 1e-12)


def test_boundary_slice_is_terminal_payoff():
    model = TwoTypeModel()
    grid = build_simplex_grid(2, 50)
    field = solve_value(model, 50, grid)
    assert np.array_equal(field.table[-1], grid.nodes[:, 0])
    # node + slice-time evaluation returns the table entry exactly
    assert field.eval(field.times[-1], grid.nodes[7]) == field.table[-1][7]
    assert field.eval(field.times[3], grid.nodes[11]) == pytest.approx(field.table[3][11], abs=1e-14)


def test_two_type_value_matches_closed_form():
    model = TwoTypeModel()
    grid = build_simplex_grid(2, 200)
    field = solve_value(model, 200, grid)
    target = saturated_mix_fraction(1.0, 1.0)  # 0.567667...
    assert field.eval(0.0, np.array([1.0, 0.0])) == pytest.approx(target, abs=0.01)
    assert field.eval(0.0, np.array([0.5, 0.5])) == pytest.approx(0.5, abs=0.01)
    # interior positions and times follow the same closed form
    assert field.eval(0.4, np.array([0.8, 0.2])) == pytest.approx(
        saturated_mix_fraction(0.8, 0.6), abs=0.01)


def test_value_error_shrinks_when_grids_refine():
    model = TwoTypeModel()
    target = saturated_mix_fraction(1.0, 1.0)
    errors = {}
    for n in (100, 200):
        field = solve_value(model, n, build_simplex_grid(2, n))
        errors[n] = abs(field.eval(0.0, np.array([1.0, 0.0])) - target)
    assert errors[200] <= 0.75 * errors[100]


def test_constant_payoff_preserved():
    class FlatPayoff(TwoTypeModel):
        def terminal_payoff(self, x):
            return np.full(np.shape(x)[:-1], 0.25)

    field = solve_value(FlatPayoff(), 40, build_simplex_grid(2, 40))
    assert np.allclose(field.table, 0.25, atol=1e-12)


def test_scheme_monotone_in_terminal_payoff():
    base = TwoTypeModel()

    class ShiftedPayoff(TwoTypeModel):
        def terminal_payoff(self, x):
            return super().terminal_payoff(x) + 0.1

    grid = build_simplex_grid(2, 30)
    low = solve_value(base, 30, grid)
    high = solve_value(ShiftedPayoff(), 30, grid)
    assert np.all(high.table >= low.table - 1e-12)


def test_three_type_solver_runs_and_is_bounded():
    model = ThreeTypeRotorModel()
    grid = build_simplex_grid(3, 16)
    field = solve_value(model, 64, grid)
    assert field.table.min() >= -1e-12
    assert field.table.max() <= 1.0 + 1e-12
    # from all-type-2 the 2->3 flow runs at rate >= 0.3 whatever player 1 does
    assert field.eval(0.0, np.array([0.0, 1.0, 0.0])) > 0.1
    # from all-type-1 player 1 shuts the gate out of type 1 entirely
    assert field.eval(0.0, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-9)


def test_solver_rejects_overlong_time_step():
    model = TwoTypeModel(horizon=10.0)
    with pytest.raises(ValueError):
        solve_value(model, 5, build_simplex_grid(2, 10))


def test_eval_value_time_interpolation_linear():
    model = TwoTypeModel()
    field = solve_value(model, 10, build_simplex_grid(2, 10))
    x = np.array([0.7, 0.3])
    t0, t1 = field.times[4], field.times[5]
    mid = 0.5 * (t0 + t1)
    expect = 0.5 * (field.eval(t0, x) + field.eval(t1, x))
    assert field.eval(mid, x) == pytest.approx(expect, abs=1e-12)


def test_field_save_load_roundtrip(tmp_path):
    model = TwoTypeModel()
    field = solve_value(model, 12, build_simplex_grid(2, 12))
    path = tmp_path / "field.json"
    field.save(path)
    loaded = ValueField.load(path)
    assert np.array_equal(loaded.table, field.table)
    assert np.array_equal(loaded.times, field.times)
    # byte-identical re-export
    path2 = tmp_path / "field2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_field_load_rejects_uneven_times_and_non_finite_values():
    payload = ValueField(build_simplex_grid(2, 4), np.linspace(0.0, 1.0, 4),
                         np.repeat(np.arange(4.0)[:, None], 5, axis=1)).to_dict()
    assert ValueField.from_dict(payload).eval(0.5, [0.5, 0.5]) == pytest.approx(1.5)
    # uneven slices: a uniform-step bracket would read t=0.5 as the last slice
    with pytest.raises(ValueError, match="evenly spaced"):
        ValueField.from_dict(dict(payload, times=[0.0, 0.1, 0.5, 1.0]))
    with pytest.raises(ValueError, match="evenly spaced"):
        ValueField.from_dict(dict(payload, times=[0.0, 0.5, 0.5, 1.0]))
    for bad in (float("nan"), float("inf")):
        values = [list(row) for row in payload["values"]]
        values[2][3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ValueField.from_dict(dict(payload, values=values))


def test_field_load_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        ValueField.load(path)


def test_supersolution_checks():
    model = TwoTypeModel()
    grid = build_simplex_grid(2, 120)
    field = solve_value(model, 120, grid)
    report = verify_supersolution(field, model, samples=150, step=0.01, seed=4)
    assert report.passed, (report.violations, report.worst_slack, report.tolerance)

    # a constant field with constant payoff passes trivially
    flat = ValueField(grid, field.times, np.full_like(field.table, 0.3))
    report = verify_supersolution(flat, model, samples=50, step=0.01, seed=5, tolerance=1e-9)
    assert report.passed

    # freezing the terminal payoff in time is not a supersolution: below the
    # 50/50 mix an adversarial v raises x1 faster than u can drain it, and a
    # supersolution has to survive every step length
    frozen = ValueField(grid, field.times, np.tile(grid.nodes[:, 0], (field.times.size, 1)))
    report = verify_supersolution(frozen, model, samples=150, step=0.2, seed=6)
    assert report.violations > 0
    report = verify_supersolution(field, model, samples=80, step=0.2, seed=6)
    assert report.passed


def test_monotonicity_tolerance_scale():
    model = TwoTypeModel()
    field = solve_value(model, 100, build_simplex_grid(2, 100))
    tol = monotonicity_tolerance(field, 1.0)
    assert tol == pytest.approx(5.0 * np.sqrt(2) * (1 / 100 + 1 / 100))
