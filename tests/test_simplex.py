import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from chainguide.simplex import (
    PROJECTION_LIMIT,
    LatticeState,
    project_rows,
    round_to_lattice,
)
from chainguide.value import LATTICE_CAP, LatticeCapError, SimplexGrid


def recursive_lattice_counts(d, total):
    """Reference enumeration: every composition of `total` into d parts, lexicographic."""
    out = np.zeros((comb(total + d - 1, d - 1), d), dtype=np.int64)
    row = 0
    current = np.zeros(d, dtype=np.int64)

    def fill(pos, remaining):
        nonlocal row
        if pos == d - 1:
            current[pos] = remaining
            out[row] = current
            row += 1
            return
        for value in range(remaining + 1):
            current[pos] = value
            fill(pos + 1, remaining - value)

    fill(0, total)
    return out


def test_simplex_point_clips_tiny_negatives():
    p = np.array([[1.0 + 1e-13, -1e-13]])
    assert project_rows(p) <= 1e-12
    assert p[0, 1] == 0.0
    assert abs(p.sum() - 1.0) <= 1e-10


def test_simplex_point_rejects_material_negatives():
    # the returned measure is what callers hold against PROJECTION_LIMIT
    assert project_rows(np.array([[1.1, -0.1]])) == pytest.approx(0.1)
    assert project_rows(np.array([[1.1, -0.1]])) > PROJECTION_LIMIT


def test_simplex_point_renormalizes():
    p = np.array([[0.3, 0.7 + 5e-8]])
    assert project_rows(p) == pytest.approx(5e-8, rel=1e-6)
    assert abs(p.sum() - 1.0) <= 1e-10


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=5))
def test_simplex_point_from_positive_weights(weights):
    arr = np.asarray(weights)
    p = (arr / arr.sum())[None, :]
    assert project_rows(p) <= 1e-12
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-10


def test_project_reports_displacement():
    rows = np.array([[0.5, 0.5 + 1e-9], [0.25, 0.75]])
    assert project_rows(rows) == pytest.approx(1e-9, rel=1e-6)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-15)
    # the measure is the worst row's: a clipped negative or a total off by 0.1
    assert project_rows(np.array([[0.5, 0.5], [0.5, 0.6]])) == pytest.approx(0.1)
    assert project_rows(np.array([[0.5, 0.5], [1.02, -0.02]])) == pytest.approx(0.02)


def test_project_reports_a_nan_row_as_infinitely_far():
    # max(0.0, nan) is 0.0, so a NaN displacement would pass every limit check
    assert project_rows(np.array([[np.nan, 1.0], [0.5, 0.5]])) == math.inf
    assert project_rows(np.array([[0.5, 0.5], [0.25, np.nan]])) == math.inf


def project_rows_by_np_sum(points):
    """Reference projection: the row totals from numpy's own ``sum(axis=-1)``."""
    lowest = float(points.min())
    np.maximum(points, 0.0, out=points)
    total = points.sum(axis=-1, keepdims=True)
    points /= total
    return max(-lowest, float(np.max(np.abs(total - 1.0))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_project_rows_matches_np_sum_byte_for_byte(data):
    d = data.draw(st.integers(2, 7))
    lead = data.draw(st.sampled_from([(), (5,), (40,), (3, 4)]))
    coordinate = st.one_of(st.just(0.0), st.floats(min_value=-1e-3, max_value=1.0))
    points = data.draw(arrays(np.float64, lead + (d,), elements=coordinate))
    points[..., 0] += 0.01  # every row keeps a positive total
    want = points.copy()
    assert project_rows(points) == project_rows_by_np_sum(want)
    assert points.tobytes() == want.tobytes()


def test_project_rows_sums_a_long_vector_as_numpy_does():
    # a 21-entry distribution (master_evolve's two-type lattice at 20 particles)
    # whose left-to-right total rounds differently from numpy's pairwise sum
    p = np.random.default_rng(3).random(21)
    p /= p.sum()
    left_to_right = 0.0
    for entry in p:
        left_to_right += entry
    assert left_to_right != p.sum()
    want = p.copy()
    assert project_rows(p) == project_rows_by_np_sum(want)
    assert p.tobytes() == want.tobytes()


def test_lattice_state_basics():
    # the class is kept for the benchmark tracer only; its check is check_counts
    s = LatticeState([2, 2])
    assert s.total == 4
    assert s.counts.dtype == np.int64 and s.counts.tolist() == [2, 2]
    with pytest.raises(ValueError):
        LatticeState([2.5, 1.5])
    with pytest.raises(ValueError):
        LatticeState([-1, 5])


def test_enumerate_lattice_counts_and_order():
    grid = SimplexGrid(2, 4)
    assert [tuple(row) for row in grid.counts] == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    assert SimplexGrid(3, 2).node_count == 6
    assert SimplexGrid(2, 1).node_count == 2


@pytest.mark.parametrize("d,total", [(2, 7), (3, 5), (4, 3)])
def test_enumeration_matches_composition_count(d, total):
    counts = SimplexGrid(d, total).counts
    assert counts.shape == (comb(total + d - 1, d - 1), d)
    assert np.all(counts.sum(axis=1) == total)
    # lexicographic and duplicate-free
    keys = [tuple(row) for row in counts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 30))
def test_enumeration_matches_recursive_reference(d, n):
    grid = SimplexGrid(d, n)
    reference = recursive_lattice_counts(d, n)
    assert grid.counts.dtype == reference.dtype
    assert grid.counts.shape == reference.shape
    assert grid.counts.tobytes() == reference.tobytes()
    assert np.array_equal(grid.node_index(grid.counts), np.arange(grid.node_count))


def test_enumeration_cap():
    assert comb(4 + 1000 - 1, 3) > LATTICE_CAP
    with pytest.raises(LatticeCapError):
        SimplexGrid(4, 1000)


def test_round_to_lattice_preserves_total_and_is_nearest():
    y = round_to_lattice([1.0, 0.0], 20)
    assert y.dtype == np.int64 and not y.flags.writeable
    assert list(y) == [20, 0]
    y = round_to_lattice([0.4999, 0.5001], 3)
    assert y.sum() == 3
    # largest remainder: 3*0.5001 = 1.5003 gets the extra particle
    assert list(y) == [1, 2]


@given(st.integers(min_value=1, max_value=50), st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=4))
def test_round_to_lattice_total_preserved(total, weights):
    w = np.asarray(weights)
    state = round_to_lattice(w / w.sum(), total)
    assert state.sum() == total
    assert np.all(np.abs(state - w / w.sum() * total) < 1.0 + 1e-9)
