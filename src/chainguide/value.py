"""Grid approximation of the limiting game value on [0, T] x simplex.

The solver runs a backward semi-Lagrangian recursion: at each time slice
and node it takes the min over player-1 controls of the max over player-2
controls of the interpolated next-slice value at the Euler-shifted point.
The scheme is monotone because interpolation only forms convex
combinations of node values; that property is what the guide-monotonicity
machinery leans on, so the interpolation here is exact barycentric
interpolation on the standard triangulation of the lattice simplex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
import numpy as np

from .guide import CandidateFamily
from .models import resolve_k
from .simplex import (
    PROJECTION_LIMIT,
    ProjectionError,
    as_coords,
    enumerate_lattice_counts,
    project_rows,
    random_simplex_points,
)

FORMAT_NAME = "chainguide-value-field"
FORMAT_VERSION = 1
MONOTONICITY_SCALE = 5.0  # scheme-error constant of the monotonicity tolerance


class SimplexGrid:
    """Nodes of the lattice simplex at a given resolution, with interpolation."""

    def __init__(self, dimension, resolution, cap=10**6):
        if resolution < 1:
            raise ValueError("grid resolution must be at least 1")
        self.dimension = int(dimension)
        self.resolution = int(resolution)
        self.counts = enumerate_lattice_counts(dimension, resolution, cap=cap)
        self.nodes = self.counts / float(resolution)
        # big-endian radix keys are ascending because enumeration is lexicographic
        radix = (resolution + 1) ** np.arange(dimension - 1, -1, -1, dtype=np.int64)
        self._radix = radix
        self._keys = self.counts @ radix

    @property
    def node_count(self):
        return self.counts.shape[0]

    def node_index(self, counts):
        """Index of each count row in enumeration order."""
        keys = np.asarray(counts, dtype=np.int64) @ self._radix
        return np.searchsorted(self._keys, keys)

    def interpolate(self, values, points):
        """Barycentric interpolation of node `values` at simplex `points` (m, d).

        Points are assumed to lie on the simplex (clip and renormalize
        first if they might not). The result at every point is a convex
        combination of node values, and affine functions are reproduced
        exactly.
        """
        x = np.asarray(points, dtype=float)
        m, d = x.shape
        n = self.resolution
        if d != self.dimension:
            raise ValueError("point dimension does not match the grid")
        if d == 2:
            s = _snap(np.clip(n * x[:, 0], 0.0, float(n)))
            g = np.minimum(np.floor(s).astype(np.int64), n - 1)
            f = s - g
            # enumeration is lexicographic in counts = (n - s_cum..., ...); for d=2
            # node (c0, c1) has index c0
            lo = values[g]
            hi = values[g + 1]
            return lo * (1.0 - f) + hi * f

        s = _snap(np.clip(n * np.cumsum(x[:, : d - 1], axis=1), 0.0, float(n)))
        g = np.floor(s).astype(np.int64)
        f = s - g
        # order fractional parts descending; exact ties prefer the larger
        # column so that vertex prefixes stay monotone in cumulative coords
        rev = f[:, ::-1]
        order = (d - 2) - np.argsort(-rev, axis=1, kind="stable")
        f_sorted = np.take_along_axis(f, order, axis=1)
        lam = np.empty((m, d))
        lam[:, 0] = 1.0 - f_sorted[:, 0]
        if d > 2:
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
        if d > 2:
            counts[:, :, 1 : d - 1] = np.diff(verts, axis=2)
        counts[:, :, d - 1] = n - verts[:, :, d - 2]
        bad = counts.min(axis=2) < 0
        if np.any(bad):
            # out-of-range vertices only ever carry zero weight
            lam = np.where(bad, 0.0, lam)
            counts = np.where(bad[:, :, None], self.counts[0], counts)
        idx = self.node_index(counts.reshape(-1, d)).reshape(m, d)
        return np.einsum("mk,mk->m", lam, values[idx])


def _snap(s, tol=1e-9):
    """Round scaled coordinates sitting within round-off of a lattice value."""
    nearest = np.rint(s)
    return np.where(np.abs(s - nearest) < tol, nearest, s)


def build_simplex_grid(d, n_x, cap=10**6):
    if n_x < 2:
        raise ValueError("value grids need resolution at least 2")
    return SimplexGrid(d, n_x, cap=cap)


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
        if payload.get("format") != FORMAT_NAME:
            raise ValueError("not a value-field file")
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported value-field version {payload.get('version')!r}")
        grid = SimplexGrid(payload["dimension"], payload["resolution"])
        return ValueField(grid, payload["times"], payload["values"])

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return ValueField.from_dict(json.load(fh))


def solve_value(model, n_t, grid, constants=None):
    """Backward min-max recursion for the game value on the grid.

    The time step must be small enough that Euler shifts stay within
    interpolation reach of the simplex; with a rate bound K this holds
    when delta*K*sqrt(d) <= 1 (and delta*(d-1)*K <= 1 keeps the shifted
    points inside up to round-off), both enforced here.
    """
    if n_t < 1:
        raise ValueError("need at least one time slice")
    d = model.dimension
    if grid.dimension != d:
        raise ValueError("grid dimension does not match the model")
    k_bound = resolve_k(model, constants)
    delta = model.horizon / n_t
    if delta * k_bound * np.sqrt(d) > 1.0 or delta * (d - 1) * k_bound > 1.0:
        raise ValueError(
            f"time step {delta:.4g} too large for rate bound {k_bound:.4g}; refine n_t")
    times = np.linspace(0.0, model.horizon, n_t + 1)
    nodes = grid.nodes
    n_nodes = grid.node_count
    table = np.empty((n_t + 1, n_nodes))
    table[n_t] = model.terminal_payoff(nodes)
    nu = len(model.u_grid)
    nv = len(model.v_grid)
    for k in range(n_t - 1, -1, -1):
        drifts = model.drift_grid_multi(times[k], nodes)
        shifted = nodes[:, None, None, :] + delta * drifts
        flat = shifted.reshape(-1, d)
        worst = project_rows(flat)
        vals = grid.interpolate(table[k + 1], flat).reshape(n_nodes, nu, nv)
        table[k] = vals.max(axis=2).min(axis=1)
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
