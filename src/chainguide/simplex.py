"""Probability-simplex points and chain states, which are particle-count rows.

The population state of M particles is a row of per-type counts, an int64
array whose point counts/M on the probability simplex lies on the lattice
of spacing h = 1/M. ``check_counts`` is the one check of such rows,
wherever a state enters the library. This module also holds rounding onto
the lattice and the projection and integration helpers shared by every
layer. The lattice as a whole, enumerated and ranked, is ``value.SimplexGrid``.
"""

from __future__ import annotations

import numpy as np

PROJECTION_LIMIT = 1e-6  # larger displacements indicate a real simplex exit


class ProjectionError(ValueError):
    """A point was too far outside the simplex to be attributed to round-off."""


def project_rows(points):
    """In-place clip+renormalize for a batch of row vectors.

    Returns how far the rows were off the simplex: the largest clipped
    negative coordinate or deviation of a row total from 1.
    """
    lowest = float(points.min())
    np.maximum(points, 0.0, out=points)
    d = points.shape[-1]
    if d < 8:
        # numpy adds a row this short left to right as well, so the column
        # adds round identically and skip the reduction's set-up cost; from 8
        # entries on it sums pairwise, in another order
        total = points[..., :1].copy()
        for c in range(1, d):
            total += points[..., c:c + 1]
    else:
        total = points.sum(axis=-1, keepdims=True)
    points /= total
    return max(-lowest, float(np.max(np.abs(total - 1.0))))


def rk4_step(rate, t, y, dt):
    """One classic fourth-order Runge-Kutta step of dy/dt = rate(t, y)."""
    k1 = rate(t, y)
    k2 = rate(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rate(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rate(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def as_coords(x, d=None):
    """Return an array-like point as a float ndarray of coordinates."""
    arr = np.asarray(x, dtype=float)
    if d is not None and arr.shape[-1] != d:
        raise ValueError(f"expected a point of dimension {d}, got {arr.shape[-1]}")
    return arr


def check_counts(counts, dimension):
    """Count rows of shape (..., dimension) as int64; raises ValueError unless they are states.

    Entries must be nonnegative integer values and rows must share one
    positive particle total. An empty batch passes.
    """
    raw = np.asarray(counts)
    if raw.ndim == 0 or raw.shape[-1] != dimension:
        raise ValueError(f"count rows must have {dimension} entries")
    if raw.dtype.kind not in "iuf":
        raise ValueError("counts must be integers")
    with np.errstate(invalid="ignore"):
        rows = raw.astype(np.int64, copy=False)
    # a fraction, a non-finite or an out-of-range entry does not survive the cast
    if rows is not raw and np.any(rows != raw):
        raise ValueError("counts must be integers")
    if np.any(rows < 0):
        raise ValueError("particle counts must be nonnegative")
    totals = rows.sum(axis=-1)
    if totals.size and (np.any(totals != totals.flat[0]) or totals.flat[0] <= 0):
        raise ValueError("count rows need one positive particle total")
    return rows


class LatticeState:
    """A count row in an object that no library function takes or builds.

    Kept only because ``perfbench/spans.py`` patches its ``__init__`` and
    ``tests/test_tracer_contract.py`` installs that tracer.
    """

    def __init__(self, counts):
        self.counts = check_counts(counts, np.shape(counts)[-1])
        self.total = int(self.counts.sum())


def round_to_lattice(point, total):
    """Largest-remainder rounding of total*point onto the count lattice: a read-only int64 row.

    Deterministic (remainder ties broken by lowest coordinate index) and
    always preserves the total.
    """
    scaled = as_coords(point) * total
    base = np.floor(scaled).astype(np.int64)
    shortfall = int(total - base.sum())
    if shortfall:
        remainders = scaled - base
        # stable argsort on negated remainders: ties go to the lowest index
        order = np.argsort(-remainders, kind="stable")
        base[order[:shortfall]] += 1
    base.flags.writeable = False
    return base


def random_simplex_points(rng, n, d):
    """Uniform samples on the simplex (flat Dirichlet)."""
    return rng.dirichlet(np.ones(d), size=n)
