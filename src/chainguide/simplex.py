"""Probability-simplex points and single lattice states.

The population state of the particle system lives on the probability
simplex; with a finite particle count it is confined to the sub-lattice of
points whose coordinates are integer multiples of 1/total. This module
holds one such state (``LatticeState``), rounding onto the lattice, and the
projection and integration helpers shared by every layer. The lattice as a
whole, enumerated and ranked, is ``value.SimplexGrid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class LatticeState:
    """Particle counts per type; the normalized point counts/total is the chain state."""

    counts: np.ndarray
    total: int = field(default=0)

    def __init__(self, counts, total=None):
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("lattice state needs a 1-d count vector of length >= 2")
        if np.any(arr < 0):
            raise ValueError("particle counts must be nonnegative")
        computed = int(arr.sum())
        if total is not None and int(total) != computed:
            raise ValueError(f"counts sum to {computed}, not the declared total {total}")
        if computed <= 0:
            raise ValueError("total particle count must be positive")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "total", computed)

    @property
    def dimension(self):
        return self.counts.size

    @property
    def spacing(self):
        """Lattice spacing h = 1/total."""
        return 1.0 / self.total

    def coords(self):
        return self.counts / self.total

    def jump(self, i, j):
        """Move one particle from type i to type j."""
        if i == j:
            raise ValueError("jump requires distinct types")
        if self.counts[i] < 1:
            raise ValueError(f"no particle of type {i} to move")
        counts = self.counts.copy()
        counts[i] -= 1
        counts[j] += 1
        return LatticeState(counts)

    def __eq__(self, other):
        if not isinstance(other, LatticeState):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)

    def __hash__(self):
        return hash(self.counts.tobytes())


def round_to_lattice(point, total):
    """Largest-remainder rounding of total*point onto the count lattice.

    Deterministic (remainder ties broken by lowest coordinate index) and
    always preserves the total.
    """
    coords = as_coords(point)
    scaled = coords * total
    base = np.floor(scaled).astype(np.int64)
    shortfall = int(total - base.sum())
    if shortfall:
        remainders = scaled - base
        # stable argsort on negated remainders: ties go to the lowest index
        order = np.argsort(-remainders, kind="stable")
        base[order[:shortfall]] += 1
    return LatticeState(base)


def random_simplex_points(rng, n, d):
    """Uniform samples on the simplex (flat Dirichlet)."""
    return rng.dirichlet(np.ones(d), size=n)
