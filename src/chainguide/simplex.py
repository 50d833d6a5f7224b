"""Probability-simplex state types and lattice utilities.

The population state of the particle system lives on the probability
simplex; with a finite particle count it is confined to the sub-lattice of
points whose coordinates are integer multiples of 1/total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

CLIP_SLACK = 1e-12       # negative coordinates tolerated before clipping
SUM_TOL = 1e-10          # coordinates must sum to 1 within this after construction
PROJECTION_LIMIT = 1e-6  # larger displacements indicate a real simplex exit


class ProjectionError(ValueError):
    """A point was too far outside the simplex to be attributed to round-off."""


class LatticeCapError(ValueError):
    """Requested lattice enumeration exceeds the configured state-count cap."""


def project_to_simplex(coords, limit=PROJECTION_LIMIT):
    """Clip small negatives and renormalize; return (projected, displacement).

    Raises ProjectionError if the input is farther than `limit` from its
    projection (Euclidean distance), which indicates the caller's dynamics
    genuinely left the simplex rather than drifted by round-off.
    """
    arr = np.asarray(coords, dtype=float)
    clipped = np.maximum(arr, 0.0)
    total = clipped.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ProjectionError("cannot project a point with non-positive mass onto the simplex")
    out = clipped / total
    displacement = np.linalg.norm(out - arr, axis=-1)
    worst = float(np.max(displacement))
    if worst > limit:
        raise ProjectionError(
            f"projection displacement {worst:.3e} exceeds limit {limit:.1e}"
        )
    return out, displacement


def project_rows(points):
    """In-place clip+renormalize for a batch of row vectors.

    Returns how far the rows were off the simplex: the largest clipped
    negative coordinate or deviation of a row total from 1.
    """
    lowest = float(points.min())
    np.maximum(points, 0.0, out=points)
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


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector: the normalized population state.

    Construction clips coordinates down to -1e-12 of numerical slack and
    renormalizes; anything farther outside the simplex raises.
    """

    coords: np.ndarray

    def __init__(self, coords):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("simplex point needs a 1-d vector of length >= 2")
        if np.min(arr) < -PROJECTION_LIMIT:
            raise ProjectionError(f"coordinate {np.min(arr):.3e} is too negative")
        projected, _ = project_to_simplex(arr)
        if abs(projected.sum() - 1.0) > SUM_TOL:
            raise ProjectionError("coordinates do not sum to 1 after renormalization")
        projected.flags.writeable = False
        object.__setattr__(self, "coords", projected)

    @property
    def dimension(self):
        return self.coords.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coords, dtype=dtype)

    def __eq__(self, other):
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)


def as_coords(x, d=None):
    """Accept a SimplexPoint or array-like; return a float ndarray of coordinates."""
    arr = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=float)
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

    def to_point(self):
        return SimplexPoint(self.counts / self.total)

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


def lattice_size(d, total):
    """Number of lattice states: compositions of `total` into d parts."""
    return comb(total + d - 1, d - 1)


def enumerate_lattice_counts(d, total, cap=10**6):
    """All compositions of `total` into d nonnegative parts, lexicographic, as an int array."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if total < 1:
        raise ValueError("total particle count must be at least 1")
    size = lattice_size(d, total)
    if size > cap:
        raise LatticeCapError(
            f"lattice of dimension {d} with {total} particles has {size} states, cap is {cap}"
        )
    out = np.zeros((size, d), dtype=np.int64)
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


def enumerate_lattice(d, total, cap=10**6):
    """All lattice states with the given particle count, lexicographic order."""
    return [LatticeState(c) for c in enumerate_lattice_counts(d, total, cap=cap)]


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


def single_jump_neighbors(state):
    """Ordered (i, j, neighbor) triples reachable by moving one particle."""
    d = state.dimension
    out = []
    for i in range(d):
        if state.counts[i] < 1:
            continue
        for j in range(d):
            if j != i:
                out.append((i, j, state.jump(i, j)))
    return out


def random_simplex_points(rng, n, d):
    """Uniform samples on the simplex (flat Dirichlet)."""
    return rng.dirichlet(np.ones(d), size=n)
