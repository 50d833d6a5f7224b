import copy
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chainguide import value
from chainguide.guide import advance_guides
from chainguide.models import (
    ControlGrid,
    RateModel,
    ThreeTypeRotorModel,
    TwoTypeModel,
    mirrored,
)
from chainguide.simplex import ProjectionError, project_rows, random_simplex_points
from chainguide.value import (
    SNAP_ULPS,
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


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 30))
def test_node_index_inverts_enumeration(d, n):
    grid = SimplexGrid(d, n)
    assert np.array_equal(grid.node_index(grid.counts), np.arange(grid.node_count))


@pytest.mark.parametrize("counts", [[0, 5], [-1, 5], [1, 1, 2], [1.5, 2.5]],
                         ids=["wrong-total", "negative-count", "wrong-dimension",
                              "fractional-count"])
def test_node_index_rejects_off_lattice_counts(counts):
    space = SimplexGrid(2, 4)
    with pytest.raises(ValueError):
        space.node_index(np.array([counts]))
    # an off-lattice state used to read the probability of another node; a
    # law is read at node_index, so one row must be refused as a batch is
    with pytest.raises(ValueError):
        space.node_index(counts)


def _reference_snap(s, n):
    nearest = np.rint(s)
    return np.where(np.abs(s - nearest) <= SNAP_ULPS * np.spacing(float(n)), nearest, s)


def _reference_stencil(grid, points):
    """The radix-key, searchsorted and argsort stencil the rank table replaced.

    For d >= 3 points (m, d) returns the vertex indices (m, d), the weights
    (m, d) and a mask (m, d) of the vertices that step off the simplex (they
    carry weight exactly 0 and are read at node 0).
    """
    x = np.asarray(points, dtype=float)
    m, d = x.shape
    n = grid.resolution
    radix = (n + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys = grid.counts @ radix
    s = _reference_snap(np.clip(n * np.cumsum(x[:, : d - 1], axis=1), 0.0, float(n)), n)
    g = np.floor(s).astype(np.int64)
    f = s - g
    # descending fractional parts; a stable sort of the reversed columns
    # puts the larger column first on an exact tie
    order = (d - 2) - np.argsort(-f[:, ::-1], axis=1, kind="stable")
    f_sorted = np.take_along_axis(f, order, axis=1)
    lam = np.empty((m, d))
    lam[:, 0] = 1.0 - f_sorted[:, 0]
    lam[:, 1 : d - 1] = f_sorted[:, : d - 2] - f_sorted[:, 1:]
    lam[:, d - 1] = f_sorted[:, d - 2]
    verts = np.empty((m, d, d - 1), dtype=np.int64)
    verts[:, 0, :] = g
    rows = np.arange(m)
    for k in range(1, d):
        verts[:, k, :] = verts[:, k - 1, :]
        verts[rows, k, order[:, k - 1]] += 1
    counts = np.empty((m, d, d), dtype=np.int64)
    counts[:, :, 0] = verts[:, :, 0]
    counts[:, :, 1 : d - 1] = np.diff(verts, axis=2)
    counts[:, :, d - 1] = n - verts[:, :, d - 2]
    off = counts.min(axis=2) < 0
    lam = np.where(off, 0.0, lam)
    counts = np.where(off[:, :, None], grid.counts[0], counts)
    idx = np.searchsorted(keys, counts.reshape(-1, d) @ radix).reshape(m, d)
    return idx, lam, off


def _kernel_stencil(grid, points):
    """The (m, d) vertex indices and weights of ``grid._kuhn_walk``'s rows, for d >= 3."""
    vertex, f, steps = grid._kuhn_walk(points)
    k = f.shape[0]
    idx = np.cumsum(np.vstack([vertex, steps]), axis=0).T
    lam = np.empty((f.shape[1], k + 1))
    lam[:, 0] = 1.0 - f[0]
    for j in range(1, k):
        lam[:, j] = f[j - 1] - f[j]
    lam[:, k] = f[k - 1]
    return idx, lam


def _reference_interpolate(grid, values, points):
    x = np.asarray(points, dtype=float)
    n = grid.resolution
    if x.shape[1] == 2:
        s = _reference_snap(np.clip(n * x[:, 0], 0.0, float(n)), n)
        g = np.minimum(np.floor(s).astype(np.int64), n - 1)
        f = s - g
        return values[g] * (1.0 - f) + values[g + 1] * f
    idx, lam, _ = _reference_stencil(grid, x)
    return np.einsum("mk,mk->m", lam, values[idx])


@st.composite
def grid_points(draw):
    """A grid and simplex points on its vertices, edges, faces, interior, near nodes and ties.

    A tie point shares one nonzero fractional part among two or more of its
    scaled cumulative coordinates, which is where the stencil's tie rule
    decides the vertex walk.
    """
    d = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, {2: 60, 3: 25, 4: 12, 5: 8}[d]))
    grid = SimplexGrid(d, n)
    node = st.integers(0, grid.node_count - 1)
    unit = st.floats(0.0, 1.0)
    points = []
    kinds = ["vertex", "edge", "face", "interior", "near", "tie"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=25)):
        c = grid.counts[draw(node)]
        if kind == "vertex":
            points.append(c / n)
        elif kind == "edge":
            # towards the neighbour that moves one particle between two types
            i, j = draw(st.permutations(range(d)))[:2]
            step = np.zeros(d)
            if c[i] > 0:
                step[i], step[j] = -1.0, 1.0
            points.append((c + draw(unit) * step) / n)
        elif kind in ("face", "interior"):
            w = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
            if kind == "face":
                w[draw(st.integers(0, d - 1))] = 0.0
            points.append(w / w.sum() if w.sum() > 0 else c / n)
        elif kind == "near":
            jitter = np.array(draw(st.lists(st.floats(-1e-12, 1e-12), min_size=d, max_size=d)))
            points.append(c / n + jitter)
        else:
            # a dyadic shared part usually survives n * cumsum exactly; columns
            # the clamp makes equal tie exactly through zero coordinates
            s = np.cumsum(c[:-1]).astype(float)
            tied = draw(st.sets(st.integers(0, d - 2), min_size=min(2, d - 1)))
            s[sorted(tied)] += draw(st.integers(1, 7)) / 8.0
            s = np.maximum.accumulate(np.minimum(s, n))
            points.append(np.diff(s, prepend=0.0, append=float(n)) / n)
    points = np.array(points)
    project_rows(points)
    return grid, points


@settings(max_examples=150, deadline=None)
@given(grid_points(), st.integers(0, 2**32 - 1))
def test_interpolation_matches_reference_stencil_bit_for_bit(case, seed):
    grid, points = case
    values = np.random.default_rng(seed).standard_normal(grid.node_count)
    got = grid.interpolate(values, points)
    assert got.tobytes() == _reference_interpolate(grid, values, points).tobytes()
    if grid.dimension > 2:
        # the vertex walk itself, which the values cannot show where a tie
        # leaves a vertex with weight 0: every on-simplex vertex must agree
        idx, lam = _kernel_stencil(grid, points)
        ref_idx, ref_lam, off = _reference_stencil(grid, points)
        assert lam.tobytes() == ref_lam.tobytes()
        assert np.array_equal(idx[~off], ref_idx[~off])


@pytest.mark.parametrize("d,n", [(3, 6), (4, 5), (5, 4)])
def test_interpolated_sum_of_zeros_is_positive_zero(d, n):
    # node values <= 0 with exact zeros of both signs: at a node or on an edge
    # between zero nodes every term is a zero, and einsum's sum of zeros is +0.0
    grid = SimplexGrid(d, n)
    rng = np.random.default_rng(d)
    values = -np.abs(rng.standard_normal(grid.node_count))
    zero = rng.random(grid.node_count) < 0.5
    values[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    points = [grid.nodes]
    for i in range(d):
        for j in range(d):
            if i != j:
                step = np.zeros(d)
                step[i], step[j] = -1.0, 1.0
                counts = grid.counts[grid.counts[:, i] > 0]
                points.extend((counts + t * step) / n for t in (0.25, 0.5))
    points = np.vstack(points)
    got = grid.interpolate(values, points)
    assert got.tobytes() == _reference_interpolate(grid, values, points).tobytes()
    assert np.count_nonzero(got == 0.0) > grid.node_count // 4
    assert not np.signbit(got[got == 0.0]).any()


@settings(max_examples=100, deadline=None)
@given(grid_points(), st.integers(0, 2**32 - 1))
def test_a_stencil_applied_to_many_value_rows_equals_interpolation(case, seed):
    # the value solve of a model with rates constant in t forms a block's
    # stencil once and applies it to every later slice's node values
    grid, points = case
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(grid.node_count) for _ in range(2)]
    # zeros of both signs, so that some points add up only zeros
    signed = -np.abs(rng.standard_normal(grid.node_count))
    zero = rng.random(grid.node_count) < 0.5
    signed[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    rows.append(signed)
    stencil = grid._stencil(np.asarray(points, dtype=float))
    for values in rows + rows[:1]:
        got = grid._apply(values, stencil)
        assert got.tobytes() == grid.interpolate(values, points).tobytes()
        assert got.tobytes() == _reference_interpolate(grid, values, points).tobytes()


@settings(max_examples=100, deadline=None)
@given(grid_points(), st.integers(0, 2**32 - 1))
def test_interpolation_does_not_depend_on_the_point_layout(case, seed):
    # the value solve hands over column-major (Fortran-order) points
    grid, points = case
    columns = np.asfortranarray(points)
    values = np.random.default_rng(seed).standard_normal(grid.node_count)
    want = grid.interpolate(values, points)
    assert grid.interpolate(values, columns).tobytes() == want.tobytes()
    if grid.dimension > 2:
        idx, lam = _kernel_stencil(grid, points)
        col_idx, col_lam = _kernel_stencil(grid, columns)
        assert col_idx.tobytes() == idx.tobytes()
        assert col_lam.tobytes() == lam.tobytes()


@settings(max_examples=100, deadline=None)
@given(grid_points(), st.integers(0, 2**32 - 1))
# an edge point within 1e-9 / n of a node, which a wider snap moved onto the node
@example((SimplexGrid(5, 7), np.array([[0.0, 0.0, 1.27e-10, 0.0, 1.0 - 1.27e-10]])), 0)
def test_interpolation_is_affine_exact_and_convex(case, seed):
    grid, points = case
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(grid.dimension)
    offset = rng.standard_normal()
    affine = grid.interpolate(grid.nodes @ coeffs + offset, points)
    assert np.allclose(affine, points @ coeffs + offset, rtol=0.0, atol=1e-10)
    values = rng.standard_normal(grid.node_count)
    got = grid.interpolate(values, points)
    assert np.all(got <= values.max() + 1e-12)
    assert np.all(got >= values.min() - 1e-12)


@pytest.mark.parametrize("d,n", [(2, 7), (3, 6), (4, 5)])
def test_interpolation_exact_at_nodes(d, n):
    grid = build_simplex_grid(d, n)
    rng = np.random.default_rng(1)
    values = rng.standard_normal(grid.node_count)
    got = grid.interpolate(values, grid.nodes)
    assert np.allclose(got, values, atol=1e-12)
    # integer node values are read as floats
    assert np.array_equal(grid.interpolate(np.arange(grid.node_count), grid.nodes),
                          np.arange(grid.node_count))


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


@pytest.mark.parametrize("model, n_x", [(TwoTypeModel(), 20), (ThreeTypeRotorModel(), 8)])
def test_field_read_at_a_non_finite_point_raises(model, n_x):
    # a NaN used to reach the integer cast and fail with an IndexError
    field = solve_value(model, 5, build_simplex_grid(model.dimension, n_x))
    for bad in (np.nan, np.inf):
        point = np.full(model.dimension, 1.0 / model.dimension)
        point[-1] = bad
        with pytest.raises(ValueError, match="non-finite point"):
            field.eval(0.3, point)
    points = np.full((4, model.dimension), 1.0 / model.dimension)
    points[2, 0] = np.nan
    with pytest.raises(ValueError, match=r"\(row 2\)"):
        field.eval_batch(0.3, points)


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


class LeakyModel(RateModel):
    """A negative rate from the last type to type 0 before t = 0.45 leaves the simplex.

    The exit is widest, delta * u = 0.1 at n_t = 10, at the all-last-type
    node, which is node 0 and so in the first block of a slice.
    """

    name = "leaky"
    horizon = 1.0
    declared_k = 1.0

    def __init__(self, dimension):
        self.dimension = dimension
        self.u_grid = ControlGrid((0.0, 1.0))
        self.v_grid = ControlGrid((0.0, 0.5, 1.0))

    def rate_matrix(self, t, x, u, v):
        s = -u * (np.asarray(t) < 0.45)
        q = np.zeros(np.broadcast(s, v).shape + (self.dimension,) * 2)
        q[..., -1, 0] = s
        q[..., -1, -1] = -s
        return q

    def terminal_payoff(self, x):
        return np.asarray(x, dtype=float)[..., 0]


# (model, n_x, n_t) on d = 2 and 3, with 3 x 3 controls; the lattices have 31 and 91 nodes
BLOCK_CASES = ((TwoTypeModel(), 30, 20), (ThreeTypeRotorModel(), 12, 10))
WHOLE = 10**9  # block points beyond any lattice here: one block per slice


def _solve_in_blocks(model, n_x, n_t, points):
    with mock.patch.object(value, "SOLVE_BLOCK_POINTS", points):
        return solve_value(model, n_t, build_simplex_grid(model.dimension, n_x))


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(BLOCK_CASES), points=st.integers(1, 1000))
@example(case=BLOCK_CASES[0], points=1)  # under one node's 9 points: one node per block
@example(case=BLOCK_CASES[1], points=1)
@example(case=BLOCK_CASES[0], points=9 * 7)  # 7 nodes, which divides neither lattice
@example(case=BLOCK_CASES[1], points=9 * 7)
@example(case=BLOCK_CASES[1], points=9 * 91)  # exactly the whole lattice
def test_solve_is_byte_identical_in_any_node_block(case, points):
    whole = _solve_in_blocks(*case, WHOLE)
    assert _solve_in_blocks(*case, points).table.tobytes() == whole.table.tobytes()


class SteadyRotor(ThreeTypeRotorModel):
    """Three-type with its pulses held at their t = 1/4 levels, so its rates are constant in t."""

    name = "steady-rotor"
    gamma_rate = 0.0

    @staticmethod
    def _pulse(t):
        return 0.8

    @staticmethod
    def _counter_pulse(t):
        return 0.75


class MisdeclaredRotor(ThreeTypeRotorModel):
    """Three-type declaring rates constant in t, which its pulses break at every slice."""

    name = "misdeclared-rotor"
    gamma_rate = 0.0


class SwitchingTwoType(TwoTypeModel):
    """Two-type declaring rates constant in t (as it inherits), whose u rates halve before t = 0.45."""

    name = "switching-two-type"

    @staticmethod
    def _scale(t):
        return np.where(np.asarray(t) < 0.45, 0.5, 1.0)

    def rate_matrix(self, t, x, u, v):
        return super().rate_matrix(t, x, u * self._scale(t), v)

    def drift(self, t, x, u, v):
        return super().drift(t, x, u * self._scale(t), v)


# name: (model, n_x, n_t, stencils of the whole lattice); a model declaring
# gamma_rate = 0 forms a block's stencil again only on a slice whose drift
# differs from the one it was formed at
KEPT_CASES = {
    "two-type-200": (TwoTypeModel(), 200, 200, 1),
    "two-type-400": (TwoTypeModel(), 400, 400, 1),
    "mirrored(two-type)": (mirrored(TwoTypeModel()), 200, 200, 1),
    "steady-rotor": (SteadyRotor(), 16, 16, 1),
    # n_t = 20: the rates switch once, between slices 9 and 8
    "switching-two-type": (SwitchingTwoType(), 30, 20, 2),
    "misdeclared-rotor": (MisdeclaredRotor(), 12, 10, 10),
}


@pytest.mark.parametrize("points", [1, WHOLE], ids=["one-node", "whole"])
@pytest.mark.parametrize("name", sorted(KEPT_CASES))
def test_kept_stencil_solve_is_byte_identical_to_the_per_slice_solve(name, points):
    model, n_x, n_t, per_block = KEPT_CASES[name]
    assert model.gamma_rate == 0
    undeclared = copy.copy(model)
    undeclared.gamma_rate = None
    # the per-slice solve gives the same bytes in any block (the test above)
    want = _solve_in_blocks(undeclared, n_x, n_t, WHOLE).table.tobytes()
    with mock.patch.object(SimplexGrid, "_stencil", autospec=True,
                           side_effect=SimplexGrid._stencil) as stencil:
        got = _solve_in_blocks(model, n_x, n_t, points).table.tobytes()
    assert got == want
    if points == WHOLE:
        assert stencil.call_count == per_block
    else:
        # a node whose zero coordinates hide the t-dependent rates (the
        # all-type-2 node of the rotor) keeps its stencil even so
        blocks = n_x + 1 if model.dimension == 2 else (n_x + 1) * (n_x + 2) // 2
        assert blocks + (per_block > 1) <= stencil.call_count <= per_block * blocks


@pytest.mark.parametrize("d", [2, 3])
def test_simplex_exit_raises_at_the_same_slice_in_any_block(d):
    # n_t = 10: slice 4 (t = 0.4) is the first one the backward solve meets
    # before t = 0.45, and the reported displacement is the worst of all blocks
    for points in (1, 6 * 7, WHOLE):
        with pytest.raises(ProjectionError, match=r"by 1\.000e-01 at slice 4$"):
            _solve_in_blocks(LeakyModel(d), 10, 10, points)


class NanDriftModel(LeakyModel):
    """LeakyModel with every rate NaN before t = 0.45, so its drift turns NaN there."""

    name = "nan-drift"

    def rate_matrix(self, t, x, u, v):
        q = super().rate_matrix(t, x, u, v)
        return np.where(np.asarray(t)[..., None, None] < 0.45, np.nan, q)


@pytest.mark.parametrize("d", [2, 3])
def test_nan_drift_raises_projection_error(d):
    # a NaN displacement used to pass the projection check: the solve then
    # failed elsewhere and a guide flow could return NaN endpoints
    model = NanDriftModel(d)
    for points in (1, WHOLE):
        with pytest.raises(ProjectionError, match=r"by inf at slice 4$"):
            _solve_in_blocks(model, 10, 10, points)
    grid = build_simplex_grid(d, 10)
    field = ValueField(grid, np.linspace(0.0, 1.0, 11), np.zeros((11, grid.node_count)))
    guides = np.full((2, d), 1.0 / d)
    with pytest.raises(ProjectionError, match="guide hull trajectory left the simplex by inf"):
        advance_guides(field, model, 0.1, 0.2, guides, np.array([0, 2]), 0.0)


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


def test_field_load_rejects_malformed_payloads(tmp_path):
    good = ValueField(build_simplex_grid(2, 4), np.linspace(0.0, 1.0, 3),
                      np.zeros((3, 5))).to_dict()
    bad = {
        "not-a-mapping": [good],
        "missing-times": {k: v for k, v in good.items() if k != "times"},
        "missing-horizon": {k: v for k, v in good.items() if k != "horizon"},
        "string-dimension": dict(good, dimension="2"),
        "float-resolution": dict(good, resolution=4.0),
        "string-horizon": dict(good, horizon="1.0"),
        "mapping-times": dict(good, times={"t": 1.0}),
        "mapping-values": dict(good, values=[[{}] * 5] * 3),
        # the stored horizon used to be ignored: this loaded as horizon 1
        "horizon-not-last-time": dict(good, horizon=5.0),
    }
    path = tmp_path / "field.json"
    for name, payload in bad.items():
        with pytest.raises(ValueError):
            ValueField.from_dict(payload)
            pytest.fail(name)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            ValueField.load(path)
            pytest.fail(name)
    path.write_text(json.dumps(dict(good, horizon=1)))
    assert ValueField.load(path).horizon == 1.0


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
