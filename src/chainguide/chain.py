"""Jump-chain simulation and the exact distribution oracle.

The particle chain jumps one particle at a time: a move of type i to type j
occurs at instantaneous rate counts_i * Q_ij(t, x, u, v) (equivalently
x_i Q_ij / h). Simulation is exact by thinning against the constant
dominating rate (d-1) K / h: candidate times arrive as a Poisson stream at
the dominating rate, the source type is sampled from the current mix, the
target type uniformly, and the candidate is accepted with probability
Q_ij / K. For enumerable lattices the forward equations are integrated
directly and serve as the oracle the simulator is validated against.

``simulate_chain`` is the one thinning kernel, with one input form: an
(n, d) integer count array of n chains, advanced in place under per-row
controls that are held constant over the interval, as a stepwise
strategy holds its control between partition times. One trial is a
(1, d) batch. The kernel runs one candidate round at a time: every live
row draws its next candidate, then source choice, the rate-bound check,
acceptance and the count update run vectorized over the round.

Randomness comes in one of two layouts. With a list of n generators, row
r draws from its own generator in a fixed order: the exponential gap,
then (if the candidate falls inside the interval) the source uniform, the
target offset ``integers(d - 1)`` and the accept uniform. The rates draw
nothing, so a row's draws and its path do not depend on which other rows
share its batch: batch composition never changes results. With one
shared Generator, every round draws one vector per quantity over its
live rows, so a row's path depends on the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import resolve_k
from .simplex import check_counts, project_rows, rk4_step
from .value import SimplexGrid

PROB_SUM_TOL = 1e-10
NEGATIVE_PROB_TOL = 1e-9


# generators of independent trials are made this many at a time, so a large
# trial count never holds all of its generators at once
TRIAL_BLOCK = 512


class RateBoundError(RuntimeError):
    """The model produced a rate above its declared bound; thinning is unsound."""


class IntegrationError(RuntimeError):
    """The forward-equation integrator produced an invalid distribution."""


@dataclass(frozen=True)
class JumpEvent:
    time: float
    from_type: int
    to_type: int

    def __post_init__(self):
        if self.from_type == self.to_type:
            raise ValueError("jump must move between distinct types")


@dataclass
class ChainBatch:
    """A batch of chains advanced over one interval, with its thinning tallies."""

    counts: np.ndarray             # (n, d) counts at the interval end: the caller's array
    candidates: int = 0            # thinning candidates drawn
    accepted: int = 0              # candidates accepted as jumps
    max_rate_ratio: float = 0.0    # largest candidate rate over the bound K
    events: Optional[list] = None  # per-row JumpEvent lists, when recorded


def _row_rounds(rngs, t0, t1, scale, d):
    """Candidate rounds with one generator per row, each row in its own fixed draw order.

    Row r draws from ``rngs[r]`` only: the exponential gap, then (while the
    candidate falls before t1) the source uniform, the target offset and the
    accept uniform. Yields (rows, times, source uniforms, target offsets,
    accept uniforms) over the rows whose next candidate falls before t1.
    """
    times = [float(t0)] * len(rngs)
    active = range(len(rngs))
    while True:
        rows, src, offset, accept = [], [], [], []
        for r in active:
            rng = rngs[r]
            t = times[r] + rng.exponential(scale)
            times[r] = t
            if t < t1:
                rows.append(r)
                src.append(rng.random())
                # integers(1) returns 0 without drawing, so d = 2 skips the call
                offset.append(rng.integers(d - 1) if d > 2 else 0)
                accept.append(rng.random())
        if not rows:
            return
        active = rows
        yield (np.array(rows), np.array([times[r] for r in rows]), np.array(src),
               np.array(offset, dtype=np.int64), np.array(accept))


def _shared_rounds(rng, n, t0, t1, scale, d):
    """Candidate rounds from one generator: each round draws vectors over its rows."""
    times = np.full(n, float(t0))
    active = np.arange(n)
    while True:
        times[active] = times[active] + rng.exponential(scale, size=active.size)
        active = active[times[active] < t1]
        if not active.size:
            return
        k = active.size
        yield active, times[active], rng.random(k), rng.integers(0, d - 1, size=k), rng.random(k)


def simulate_chain(model, t0, t1, counts, u, v, rng, rate_bound=None, record_events=True):
    """Simulate a batch of chains over [t0, t1] by thinning; returns a ChainBatch.

    ``counts`` is an (n, d) integer array of nonnegative counts with one
    particle total, advanced in place. ``u`` and ``v`` are the controls,
    constant over the interval: a number for every row or an array of n
    per-row values. ``rng`` is either a list of n generators, one per row,
    or one shared Generator (see the module docstring for both layouts).

    Raises RateBoundError if the model ever produces an off-diagonal rate
    above the bound K used for thinning (``rate_bound``, else the model's
    K) or a negative one.
    """
    # the batch is advanced in place, so it must already be an integer array
    if not (isinstance(counts, np.ndarray) and counts.ndim == 2
            and np.issubdtype(counts.dtype, np.integer)):
        raise ValueError("a batch of chains is an integer (n, d) count array")
    check_counts(counts, model.dimension)
    n, d = counts.shape
    if not t0 < t1 <= model.horizon + 1e-12:
        raise ValueError("need t0 < t1 <= horizon")
    shared = isinstance(rng, np.random.Generator)
    if not shared and len(rng) != n:
        raise ValueError("need one generator per row, or one shared Generator")
    k_bound = resolve_k(model) if rate_bound is None else rate_bound
    total = int(counts[0].sum()) if n else 0
    lam = (d - 1) * k_bound * total
    out = ChainBatch(counts, events=[[] for _ in range(n)] if record_events else None)
    if not (n and lam > 0.0):
        return out
    if shared:
        rounds = _shared_rounds(rng, n, t0, t1, 1.0 / lam, d)
    else:
        rounds = _row_rounds(rng, t0, t1, 1.0 / lam, d)
    u_rows = np.broadcast_to(np.asarray(u, dtype=float), (n,))
    v_rows = np.broadcast_to(np.asarray(v, dtype=float), (n,))
    for rows, times, src, offset, accept_u in rounds:
        xs = counts[rows] / total
        # source type from the current mix, target uniform among the rest
        cdf = np.cumsum(xs, axis=1)
        draw = src * cdf[:, -1]
        i_sel = np.minimum((draw[:, None] >= cdf).sum(axis=1), d - 1)
        j_sel = offset + (offset >= i_sel)
        q = model.rate_matrix_multi(times, xs, u_rows[rows], v_rows[rows])[
            np.arange(rows.size), i_sel, j_sel]
        bad = (q > k_bound * (1.0 + 1e-9)) | (q < 0.0)
        if bad.any():
            b = int(np.flatnonzero(bad)[0])
            raise RateBoundError(
                f"rate Q[{i_sel[b]},{j_sel[b]}]={q[b]:.6g} outside [0, {k_bound:.6g}] "
                f"at t={times[b]:.6g}, x={xs[b]}")
        hit = np.flatnonzero(accept_u * k_bound < q)
        r_acc, i_acc, j_acc = rows[hit], i_sel[hit], j_sel[hit]
        counts[r_acc, i_acc] -= 1
        counts[r_acc, j_acc] += 1
        if record_events:
            for r, t, i, j in zip(r_acc.tolist(), times[hit].tolist(),
                                  i_acc.tolist(), j_acc.tolist()):
                out.events[r].append(JumpEvent(t, i, j))
        out.candidates += rows.size
        out.accepted += hit.size
        out.max_rate_ratio = max(out.max_rate_ratio, float(q.max()) / k_bound)
    return out


@dataclass
class Distribution:
    """Probability weights over an enumerated lattice."""

    space: SimplexGrid
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.space.node_count,):
            raise ValueError("probability vector does not match the state space")
        if p.min() < -NEGATIVE_PROB_TOL:
            raise ValueError(f"negative probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum():.12f}")
        self.probs = p

    def prob_of(self, counts):
        return float(self.probs[self.space.node_index(counts)])

    @staticmethod
    def point_mass(space, counts):
        probs = np.zeros(space.node_count)
        probs[space.node_index(counts)] = 1.0
        return Distribution(space, probs)


def tv_distance(a, b):
    """Total-variation distance between two distributions on the same space."""
    if a.space is not b.space and not np.array_equal(a.space.counts, b.space.counts):
        raise ValueError("distributions live on different spaces")
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


class _ForwardOperator:
    """Precomputed jump bookkeeping for one lattice and constant controls; applies the generator."""

    def __init__(self, model, space, u, v):
        self.model = model
        self.space = space
        self.u = u
        self.v = v
        self.xs = space.nodes
        counts = space.counts
        d = model.dimension
        self.pairs = []
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                valid = counts[:, i] >= 1
                moved = counts[valid].copy()
                moved[:, i] -= 1
                moved[:, j] += 1
                self.pairs.append((i, j, valid, space.node_index(moved)))

    def rates(self, t):
        """counts_i * Q_ij for every state and ordered pair, as a list."""
        # q may omit the state axis when the rates do not depend on the state
        q = self.model.rate_matrix(t, self.xs, self.u, self.v)
        out = []
        counts = self.space.counts
        for i, j, valid, to_idx in self.pairs:
            out.append((valid, to_idx, counts[:, i] * q[..., i, j]))
        return out

    def apply(self, t, p):
        out = np.zeros_like(p)
        for valid, to_idx, rate in self.rates(t):
            flux = rate * p
            out -= flux
            np.add.at(out, to_idx, flux[valid])
        return out

    def generator_on(self, t, fvals):
        """(L f)(z) for every state z at time t."""
        out = np.zeros_like(fvals)
        for valid, to_idx, rate in self.rates(t):
            diff = np.zeros_like(fvals)
            diff[valid] = fvals[to_idx] - fvals[valid]
            out += rate * diff
        return out


def default_ode_step(model, total):
    k = resolve_k(model)
    if k <= 0.0:
        return 0.01
    return min(0.01, 0.1 / (total * k))


def master_evolve(model, t0, t1, dist0, u, v, ode_step=None):
    """Exact forward evolution of a lattice distribution under constant controls.

    Classic fourth-order fixed-step integration; the state spaces this
    oracle is meant for are tiny, so accuracy wins over speed.
    """
    if t1 < t0:
        raise ValueError("need t1 >= t0")
    space = dist0.space
    op = _ForwardOperator(model, space, u, v)
    h = ode_step if ode_step is not None else default_ode_step(model, space.resolution)
    span = t1 - t0
    if span == 0.0:
        return Distribution(space, dist0.probs.copy())
    steps = max(1, math.ceil(span / h))
    dt = span / steps
    p = dist0.probs.copy()
    t = t0
    for _ in range(steps):
        p = rk4_step(op.apply, t, p, dt)
        t += dt
    if p.min() < -NEGATIVE_PROB_TOL:
        raise IntegrationError(
            f"negative probability {p.min():.3e}; reduce the integrator step")
    drift = abs(p.sum() - 1.0)
    if drift > PROB_SUM_TOL:
        raise IntegrationError(f"probability mass drifted by {drift:.3e}")
    project_rows(p)
    return Distribution(space, p)


def dynkin_residual(model, f, t0, t1, y, u, v, ode_step=0.002):
    """Gap in the expectation identity E f(X_t1) = f(y) + int E (L f)(X_s) ds.

    Both sides come from the forward-equation oracle: the left from the
    integrated distribution, the right from composite Simpson quadrature of
    the generator term along the stored trajectory, started from the count
    row ``y``. The residual therefore measures integrator consistency only.
    """
    y = check_counts(y, model.dimension)
    total = int(y.sum())
    space = SimplexGrid(model.dimension, total)
    op = _ForwardOperator(model, space, u, v)
    fvals = np.array([float(f(x)) for x in space.nodes])
    span = t1 - t0
    if span <= 0.0:
        raise ValueError("need t1 > t0")
    steps = max(2, math.ceil(span / ode_step))
    if steps % 2:
        steps += 1
    dt = span / steps
    p = Distribution.point_mass(space, y).probs
    times = t0 + dt * np.arange(steps + 1)
    integrand = np.empty(steps + 1)
    integrand[0] = p @ op.generator_on(times[0], fvals)
    for step in range(steps):
        p = rk4_step(op.apply, times[step], p, dt)
        integrand[step + 1] = p @ op.generator_on(times[step + 1], fvals)
    # composite Simpson over the stored (even) grid
    integral = (dt / 3.0) * (integrand[0] + integrand[-1]
                             + 4.0 * integrand[1:-1:2].sum()
                             + 2.0 * integrand[2:-1:2].sum())
    expected_end = float(p @ fvals)
    start = float(f(y / total))
    return abs(expected_end - start - integral)


def sample_final_distribution(model, t0, t1, y, u, v, trials, seed, rate_bound=None):
    """Empirical law of the chain state at t1 over independent trials.

    Trial i starts from the count row ``y`` and draws from its own generator keyed by
    (seed, i); the generators are made TRIAL_BLOCK at a time. Results
    depend neither on execution order nor on the block size.
    """
    y = check_counts(y, model.dimension)
    k_bound = resolve_k(model) if rate_bound is None else rate_bound
    finals = np.tile(y, (trials, 1))
    for lo in range(0, trials, TRIAL_BLOCK):
        hi = min(lo + TRIAL_BLOCK, trials)
        rngs = [np.random.default_rng([seed, trial]) for trial in range(lo, hi)]
        simulate_chain(model, t0, t1, finals[lo:hi], u, v, rngs,
                       rate_bound=k_bound, record_events=False)
    space = SimplexGrid(model.dimension, int(y.sum()))
    hits = np.bincount(space.node_index(finals), minlength=space.node_count)
    return Distribution(space, hits / trials)
