"""Grid approximation of the limiting game value on [0, T] x simplex.

The solver runs a backward semi-Lagrangian recursion: at each time slice
and node it takes the min over player-1 controls of the max over player-2
controls of the interpolated next-slice value at the Euler-shifted point.
A slice is solved in blocks of nodes, SOLVE_BLOCK_POINTS shifted points at
a time, so that the drift, shift, projection, interpolation and min-max
temporaries of one block stay in cache instead of each taking megabytes
of fresh pages. Every node's value is computed from its own shifted
points alone, so the table is byte-identical whatever the block size, and
the simplex-exit check takes the largest displacement over the whole slice.
The scheme is monotone because interpolation only forms convex
combinations of node values; that property is what the guide-monotonicity
machinery leans on, so the interpolation here is exact barycentric
interpolation on the Freudenthal-Kuhn triangulation of the lattice simplex.

Nodes are the compositions c of the resolution n into d nonnegative
counts, enumerated lexicographically by stars and bars: the k-th
(d - 1)-subset of n + d - 1 slots, in ``itertools.combinations`` order,
places the bars, and the gaps between consecutive bars are the counts.
The inverse, a node's index, is a sum over its cumulative counts
s_k = c_0 + ... + c_k: by the hockey-stick identity, the nodes before c
number

    N - 1 - sum_{k < d-1} C(n - s_k + d - 2 - k, d - 1 - k),

so one integer table rank[k, s] (with the constant N - 1 folded into row
0) turns ``node_index`` into a gather and a sum. In cumulative
coordinates a Kuhn simplex is walked from its base vertex floor(n * s) by
raising one coordinate at a time, in the order of descending fractional
parts, so each further vertex adds step[k, s] = rank[k, s + 1] - rank[k, s]
to the index. A vertex whose raised coordinate already sat at n lies off
the simplex; it always has barycentric weight exactly 0, and step[k, n] = 0
keeps its index on a valid node, so no vertex needs masking.

The walk order needs no sort. Pairwise comparisons of the fractional parts
give each coordinate the walk step that raises it: of columns a < b, b goes
first when f_b >= f_a, so an exact tie raises the larger column first and
keeps every vertex on the lattice. Vertex j is the base index plus the step
of every column raised before j. The weights need only the descending
fractional parts, which a network of exact max/min yields whatever the ties.
Scaled coordinates within SNAP_ULPS ulps of the resolution of a lattice
value are snapped onto it. That absorbs the round-off of n times a
cumulative sum at a node and is small enough that a genuine point next to a
node keeps its own weights, so affine functions stay reproduced there.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb

import numpy as np

from .guide import CandidateFamily
from .models import resolve_k
from .simplex import (
    PROJECTION_LIMIT,
    ProjectionError,
    as_coords,
    check_counts,
    project_rows,
    random_simplex_points,
)

FORMAT_NAME = "chainguide-value-field"
FORMAT_VERSION = 1
MONOTONICITY_SCALE = 5.0  # scheme-error constant of the monotonicity tolerance
SNAP_ULPS = 4  # snap radius of interpolation, in ulps of the grid resolution
LATTICE_CAP = 10**6  # most nodes a lattice may have; checked before any allocation
SOLVE_BLOCK_POINTS = 8192  # shifted points per block of a value-solve slice


class LatticeCapError(ValueError):
    """The requested lattice has more nodes than LATTICE_CAP."""


def lattice_size(dimension, resolution):
    """Node count of the lattice: the compositions of ``resolution`` into ``dimension`` parts."""
    return comb(resolution + dimension - 1, dimension - 1)


class SimplexGrid:
    """The count lattice at a given resolution: its nodes, their ranks, and interpolation.

    ``counts`` has one row per node, in lexicographic order; ``nodes`` is
    ``counts / resolution``, the lattice on the probability simplex.
    """

    def __init__(self, dimension, resolution):
        if resolution < 1:
            raise ValueError("grid resolution must be at least 1")
        if dimension < 2:
            raise ValueError("dimension must be at least 2")
        # comb rejects non-integer sizes before anything is allocated
        size = lattice_size(dimension, resolution)
        self.dimension = d = int(dimension)
        self.resolution = n = int(resolution)
        if size > LATTICE_CAP:
            raise LatticeCapError(f"lattice of dimension {d} at resolution {n} has "
                                  f"{size} nodes, cap is {LATTICE_CAP}")
        # stars and bars (module docstring), with end bars at -1 and n + d - 1
        bars = np.full((size, d + 1), -1, dtype=np.int64)
        bars[:, -1] = n + d - 1
        bars[:, 1:-1] = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n + d - 1), d - 1)),
            dtype=np.int64, count=size * (d - 1)).reshape(size, d - 1)
        self.counts = np.diff(bars, axis=1) - 1
        self.nodes = self.counts / float(n)
        # index = sum_k rank[k, s_k] over cumulative counts s_k = c_0 + ... + c_k
        rank = np.array([[-comb(n - s + d - 2 - k, d - 1 - k) for s in range(n + 1)]
                         for k in range(d - 1)], dtype=np.int64)
        rank[0] += self.node_count - 1
        self._rank = rank
        # index change when s_k rises by one; 0 at s_k = n keeps a stepped-out
        # vertex on a valid node (such vertices carry weight exactly 0)
        self._step = np.zeros_like(rank)
        self._step[:, :n] = np.diff(rank, axis=1)

    @property
    def node_count(self):
        return self.counts.shape[0]

    def node_index(self, counts):
        """Index of each count row in enumeration order; off-lattice rows raise."""
        c = check_counts(counts, self.dimension)
        if np.any(c.sum(axis=-1) != self.resolution):
            raise ValueError(f"counts must sum to {self.resolution}")
        s = np.cumsum(c[..., :-1], axis=-1)
        return self._rank[np.arange(self.dimension - 1), s].sum(axis=-1)

    def interpolate(self, values, points):
        """Barycentric interpolation of node `values` at simplex `points` (m, d).

        Points are assumed to lie on the simplex (clip and renormalize
        first if they might not). The result at every point is a convex
        combination of node values, and affine functions are reproduced up
        to round-off: a scaled coordinate is moved onto a lattice value only
        within SNAP_ULPS ulps of the resolution.
        """
        x = np.asarray(points, dtype=float)
        m, d = x.shape
        n = self.resolution
        if d != self.dimension:
            raise ValueError("point dimension does not match the grid")
        if d == 2:
            s = _snap(np.clip(n * x[:, 0], 0.0, float(n)), n)
            g = np.minimum(np.floor(s).astype(np.int64), n - 1)
            f = s - g
            # enumeration is lexicographic in counts = (n - s_cum..., ...); for d=2
            # node (c0, c1) has index c0
            lo = values[g]
            hi = values[g + 1]
            return lo * (1.0 - f) + hi * f
        idx, lam = self._kuhn_stencil(x)
        return np.einsum("mk,mk->m", lam, values[idx])

    def _kuhn_stencil(self, x):
        """Vertex indices and barycentric weights, both (m, d), of points x for d >= 3."""
        m, d = x.shape
        n = self.resolution
        k = d - 1
        cum = np.empty((m, k))
        cum[:, 0] = x[:, 0]
        for c in range(1, k):
            np.add(cum[:, c - 1], x[:, c], out=cum[:, c])
        s = _snap(np.clip(n * cum, 0.0, float(n)), n)
        g = np.floor(s).astype(np.int64)
        f = s - g
        # the walk raises cumulative coordinates in descending order of their
        # fractional parts; turn[:, c] is the walk step that raises column c.
        # An exact tie raises the larger column first, so that vertex prefixes
        # stay monotone in cumulative coordinates
        turn = np.zeros((m, k), dtype=np.int64)
        for a in range(k):
            for b in range(a + 1, k):
                b_first = f[:, b] >= f[:, a]
                turn[:, a] += b_first
                turn[:, b] += ~b_first
        # the descending fractional parts themselves do not depend on how ties
        # are broken: an odd-even transposition network of exact max/min
        f_sorted = f.copy()
        for r in range(k):
            for a in range(r % 2, k - 1, 2):
                hi = np.maximum(f_sorted[:, a], f_sorted[:, a + 1])
                np.minimum(f_sorted[:, a], f_sorted[:, a + 1], out=f_sorted[:, a + 1])
                f_sorted[:, a] = hi
        lam = np.empty((m, d))
        lam[:, 0] = 1.0 - f_sorted[:, 0]
        lam[:, 1:k] = f_sorted[:, : k - 1] - f_sorted[:, 1:]
        lam[:, k] = f_sorted[:, k - 1]

        # flat positions of (c, g_c) in the rank and step tables; vertex 0 is
        # the base node and vertex j has raised every column with turn < j
        at = g + np.arange(k) * (n + 1)
        ranks = self._rank.take(at)
        steps = self._step.take(at)
        idx = np.empty((m, d), dtype=np.int64)
        idx[:, 0] = ranks[:, 0]
        for c in range(1, k):
            idx[:, 0] += ranks[:, c]
        for j in range(1, d):
            idx[:, j] = idx[:, 0]
            for c in range(k):
                idx[:, j] += steps[:, c] * (turn[:, c] < j)
        return idx, lam


def _snap(s, n):
    """Round scaled coordinates in [0, n] sitting within round-off of a lattice value."""
    nearest = np.rint(s)
    return np.where(np.abs(s - nearest) <= SNAP_ULPS * np.spacing(float(n)), nearest, s)


def build_simplex_grid(d, n_x):
    if n_x < 2:
        raise ValueError("value grids need resolution at least 2")
    return SimplexGrid(d, n_x)


@dataclass
class ValueField:
    """Discretized value: uniform time slices by simplex-grid node values."""

    grid: SimplexGrid
    times: np.ndarray
    table: np.ndarray  # (len(times), node_count)

    def __post_init__(self):
        # _bracket reads a time slice off a uniform step, so the times must be one
        self.times = np.asarray(self.times, dtype=float)
        self.table = np.asarray(self.table, dtype=float)
        steps = np.diff(self.times)
        if (self.times.ndim != 1 or self.times.size < 2 or not np.all(np.isfinite(steps))
                or np.any(steps <= 0.0) or np.ptp(steps) > 1e-9 * steps[0]):
            raise ValueError("value-field times must be strictly increasing and evenly spaced")
        if self.table.shape != (self.times.size, self.grid.node_count):
            raise ValueError("value table shape does not match the grids")
        if not np.all(np.isfinite(self.table)):
            raise ValueError("value table has non-finite entries")

    @property
    def horizon(self):
        return float(self.times[-1])

    @property
    def slice_count(self):
        return self.times.size - 1

    def _bracket(self, t):
        dt = self.times[1] - self.times[0]
        pos = (float(t) - self.times[0]) / dt
        k = int(np.floor(pos))
        k = min(max(k, 0), self.times.size - 1)
        w = pos - k
        if k >= self.times.size - 1:
            return self.times.size - 1, self.times.size - 1, 0.0
        if w <= 1e-12:
            return k, k, 0.0
        return k, k + 1, w

    def eval_batch(self, t, points):
        """Values at one time for many simplex points."""
        k0, k1, w = self._bracket(t)
        lo = self.grid.interpolate(self.table[k0], points)
        if w == 0.0:
            return lo
        hi = self.grid.interpolate(self.table[k1], points)
        return lo * (1.0 - w) + hi * w

    def eval(self, t, x):
        coords = as_coords(x, self.grid.dimension)
        return float(self.eval_batch(t, coords[None, :])[0])

    def negated(self):
        """The field of the negated payoff, as the mirrored game's player 1 reads it.

        Interpolation forms only weighted sums of node values, so every
        reading of the negated field is the negated reading, bit for bit
        (up to the sign of a zero that node values of both signs cancel to).
        """
        return ValueField(self.grid, self.times, -self.table)

    def to_dict(self):
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "dimension": self.grid.dimension,
            "resolution": self.grid.resolution,
            "horizon": self.horizon,
            "times": self.times.tolist(),
            "values": [row.tolist() for row in self.table],
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @staticmethod
    def from_dict(payload):
        """The field a ``to_dict`` payload describes; raises ValueError on any other payload."""
        if not isinstance(payload, dict):
            raise ValueError("a value-field payload must be a mapping")
        if payload.get("format") != FORMAT_NAME:
            raise ValueError("not a value-field file")
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported value-field version {payload.get('version')!r}")
        try:
            field = ValueField(SimplexGrid(payload["dimension"], payload["resolution"]),
                               payload["times"], payload["values"])
            horizon = payload["horizon"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed value-field payload: {exc!r}") from None
        if horizon != field.horizon:
            raise ValueError(f"value-field horizon {horizon!r} differs from its last time")
        return field

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return ValueField.from_dict(json.load(fh))


def check_step(model, step, k_bound, interpolated=True, what="time step"):
    """Raise ValueError unless a step along xQ, rates at most K, stays on the simplex.

    Coordinates stay nonnegative up to round-off while step*(d-1)*K <= 1; Euler
    shifts that are ``interpolated`` also need step*K*sqrt(d) <= 1 to stay in reach.
    """
    d = model.dimension
    if step * (d - 1) * k_bound > 1.0 or (interpolated and step * k_bound * np.sqrt(d) > 1.0):
        raise ValueError(f"{what} {step:.4g} too large for rate bound {k_bound:.4g}")


def solve_value(model, n_t, grid, constants=None):
    """Backward min-max recursion for the game value on the grid.

    The time step horizon/n_t must pass ``check_step``. A slice whose
    shifted points leave the simplex by more than PROJECTION_LIMIT raises
    ``ProjectionError`` once all its blocks are done.
    """
    if n_t < 1:
        raise ValueError("need at least one time slice")
    d = model.dimension
    if grid.dimension != d:
        raise ValueError("grid dimension does not match the model")
    k_bound = resolve_k(model, constants)
    delta = model.horizon / n_t
    check_step(model, delta, k_bound)
    times = np.linspace(0.0, model.horizon, n_t + 1)
    nodes = grid.nodes
    table = np.empty((n_t + 1, grid.node_count))
    table[n_t] = model.terminal_payoff(nodes)
    nu = len(model.u_grid)
    nv = len(model.v_grid)
    block = max(1, SOLVE_BLOCK_POINTS // (nu * nv))
    for k in range(n_t - 1, -1, -1):
        worst = 0.0
        for lo in range(0, grid.node_count, block):
            x = nodes[lo:lo + block]
            shifted = x[:, None, None, :] + delta * model.drift_grid_multi(times[k], x)
            flat = shifted.reshape(-1, d)
            worst = max(worst, project_rows(flat))
            vals = grid.interpolate(table[k + 1], flat).reshape(-1, nu, nv)
            # min over u of max over v, one control column at a time
            top = vals[:, :, 0]
            for b in range(1, nv):
                top = np.maximum(top, vals[:, :, b])
            out = table[k, lo:lo + block]
            out[:] = top[:, 0]
            for a in range(1, nu):
                np.minimum(out, top[:, a], out=out)
        if worst > PROJECTION_LIMIT:
            raise ProjectionError(
                f"drift left the simplex by {worst:.3e} at slice {k}")
    return ValueField(grid, times, table)


def monotonicity_tolerance(field, k_bound):
    """Scheme-error allowance for treating the numeric field as a super/subsolution."""
    d = field.grid.dimension
    n_x = field.grid.resolution
    n_t = field.slice_count
    return MONOTONICITY_SCALE * k_bound * np.sqrt(d) * (1.0 / n_x + field.horizon / n_t)


@dataclass
class MonotonicityReport:
    """Outcome of sampled one-step descent checks of a candidate supersolution."""

    samples: int
    checked: int
    violations: int
    worst_slack: float
    tolerance: float

    @property
    def passed(self):
        return self.violations == 0


def verify_supersolution(field, model, samples=200, step=0.01, seed=0,
                         tolerance=None, constants=None):
    """Check that every adversary move admits a value-non-increasing response.

    For sampled (t, x) and each v on the grid, searches player-1 responses
    (grid controls plus adjacent-pair drift mixtures) for one whose Euler
    endpoint does not increase the interpolated value by more than the
    tolerance. Reports violations; a genuine supersolution surrogate on an
    adequate grid yields none.
    """
    rng = np.random.default_rng(seed)
    d = model.dimension
    if tolerance is None:
        tolerance = monotonicity_tolerance(field, resolve_k(model, constants))
    horizon = field.horizon
    ts = rng.uniform(0.0, max(horizon - step, 0.0), size=samples)
    xs = random_simplex_points(rng, samples, d)
    family = CandidateFamily.build(len(model.u_grid))
    weight = family.weight[:, None]
    violations = 0
    checked = 0
    worst = -np.inf
    for i in range(samples):
        t0 = float(ts[i])
        x0 = xs[i]
        base = field.eval(t0, x0)
        drifts = model.drift_grid_multi(t0, x0[None, :])[0]  # (nu, nv, d)
        for b in range(len(model.v_grid)):
            du = drifts[:, b, :]
            mixed = weight * du[family.first_idx] + (1.0 - weight) * du[family.second_idx]
            endpoints = x0[None, :] + step * mixed
            project_rows(endpoints)
            vals = field.eval_batch(t0 + step, endpoints)
            slack = float(vals.min() - base)
            worst = max(worst, slack)
            checked += 1
            if slack > tolerance:
                violations += 1
    return MonotonicityReport(samples, checked, violations, worst, float(tolerance))
