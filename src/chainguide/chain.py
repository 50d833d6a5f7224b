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
(n, d) integer count array of n chains, each with its own particle total
and so its own dominating rate, advanced in place under per-row
controls that are held constant over the interval, as a stepwise
strategy holds its control between partition times. One trial is a
(1, d) batch. The kernel runs one candidate round at a time: every live
row draws its next candidate, then source choice, the rate-bound check,
acceptance and the count update run vectorized over the round.

All randomness of a call comes from one shared Generator: every round
draws one vector per quantity over its live rows (the exponential gaps,
the source uniforms, the target offsets ``integers(d - 1)`` and the
accept uniforms), so a row's path depends on the whole batch and on the
generator's state, not on the row alone. The episode paths of the
harness run each trial block on a generator keyed by the block, whose
rows the scenario fixes, so results do not depend on the worker count.
``sample_final_distribution`` and lemma 2's one-step check draw one whole
tile of trials from one generator in the same way.

The oracle side evolves exact laws with one RK4 loop, ``_evolve_laws``,
which advances a batch of laws on one lattice generator at once, each
law with its own start time, end time and control pair; ``master_evolve``
is that loop for one law. Lemma 2's check evolves every pair's replies at
one step length in one call. The generator applies L with one fancy add
per move type, since a move i -> j sends distinct sources to distinct
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import resolve_k
from .simplex import check_counts, project_rows, rk4_step, row_totals
from .value import SimplexGrid

PROB_SUM_TOL = 1e-10
NEGATIVE_PROB_TOL = 1e-9


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


def _shared_rounds(rng, t0, t1, scales, d):
    """Candidate rounds from one generator: each round draws vectors over its rows."""
    # the first round covers every row, so it needs no gathers; scaling a
    # standard exponential is bit-equal to exponential(scales) and cheaper
    times = float(t0) + scales * rng.standard_exponential(scales.size)
    active = np.flatnonzero(times < t1)
    while active.size:
        k = active.size
        yield active, times[active], rng.random(k), rng.integers(0, d - 1, size=k), rng.random(k)
        times[active] = times[active] + scales[active] * rng.standard_exponential(k)
        active = active[times[active] < t1]


def _source_types(xs, src):
    """Source type of each candidate: the first type whose cumulative share exceeds src.

    The cumulative shares are added column by column, in a cumsum's order,
    so they round as ``np.cumsum(xs, axis=1)`` does. Shares never decrease,
    so the type is the number of leading shares the draw reaches, which is
    at most d - 1 when the last share is left out.
    """
    d = xs.shape[1]
    shares = [xs[:, 0]]
    for c in range(1, d):
        shares.append(shares[-1] + xs[:, c])
    draw = src * shares[-1]
    picked = (draw >= shares[0]).astype(np.int64)
    for share in shares[1:-1]:
        picked += draw >= share
    return picked


def simulate_chain(model, t0, t1, counts, u, v, rng, rate_bound=None, record_events=True):
    """Simulate a batch of chains over [t0, t1] by thinning; returns a ChainBatch.

    ``counts`` is an (n, d) integer array of nonnegative counts, advanced
    in place; each row has its own positive particle total. ``u`` and ``v``
    are the controls, constant over the interval: a number for every row or
    an array of n per-row values. Every row draws from the one shared
    Generator ``rng`` (see the module docstring).

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
    if not isinstance(rng, np.random.Generator):
        raise ValueError("a batch of chains draws from one shared Generator")
    k_bound = resolve_k(model) if rate_bound is None else rate_bound
    out = ChainBatch(counts, events=[[] for _ in range(n)] if record_events else None)
    if not (n and (d - 1) * k_bound > 0.0):
        return out
    totals = row_totals(counts)
    # candidates of row r arrive at the dominating rate (d - 1) K totals[r]
    scales = 1.0 / ((d - 1) * k_bound * totals)
    u_rows = np.broadcast_to(np.asarray(u, dtype=float), (n,))
    v_rows = np.broadcast_to(np.asarray(v, dtype=float), (n,))
    for rows, times, src, offset, accept_u in _shared_rounds(rng, t0, t1, scales, d):
        # the mix as (d, k) rows, one divide per type, read through its (k, d) view
        row_total = totals[rows]
        mix = np.empty((d, rows.size))
        for c in range(d):
            np.divide(counts[rows, c], row_total, out=mix[c])
        xs = mix.T
        # source type from the current mix, target uniform among the rest
        i_sel = _source_types(xs, src)
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
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
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


class _LatticeGenerator:
    """The chain's generator L on one count lattice, applied at any (t, u, v).

    The d(d-1) single-jump neighbour tables are built once; u and v are
    numbers or per-node arrays, as ``rate_matrix`` broadcasts them.
    """

    def __init__(self, model, grid):
        self.model = model
        self.grid = grid
        counts = grid.counts
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
                self.pairs.append((i, j, valid, grid.node_index(moved)))

    def _jumps(self, t, u, v):
        """(valid sources, target indices, counts_i * Q_ij) for every ordered pair i != j."""
        # q may omit the state axis when the rates do not depend on the state
        q = self.model.rate_matrix(t, self.grid.nodes, u, v)
        counts = self.grid.counts
        for i, j, valid, to_idx in self.pairs:
            yield valid, to_idx, counts[:, i] * q[..., i, j]

    def forward(self, t, p, u, v):
        """p L: the right side of the forward equations for the law p (N,) or laws p (B, N)."""
        out = np.zeros_like(p)
        for valid, to_idx, rate in self._jumps(t, u, v):
            flux = rate * p
            out -= flux
            # a jump i -> j moves each source to its own target, so the targets
            # are distinct and one fancy add gives each the single add of np.add.at
            out[..., to_idx] += flux[..., valid]
        return out

    def backward(self, t, f, u, v):
        """(L f)(z) at every node z for the node values f (N,) or value rows f (..., N)."""
        out = np.zeros_like(f)
        for valid, to_idx, rate in self._jumps(t, u, v):
            diff = np.zeros_like(f)
            diff[..., valid] = f[..., to_idx] - f[..., valid]
            out += rate * diff
        return out


def _start_row(y, dimension):
    """An oracle's start state: one count row, checked; a batch of rows raises."""
    y = check_counts(y, dimension)
    if y.ndim != 1:
        raise ValueError("an oracle starts from a single count row, not a batch")
    return y


def default_ode_step(model, total, rate_bound=None):
    """RK4 step for the forward equations of ``total`` particles: at most 0.1 / (total K)."""
    k = resolve_k(model) if rate_bound is None else rate_bound
    if k <= 0.0:
        return 0.01
    return min(0.01, 0.1 / (total * k))


def _check_ode_step(ode_step):
    if not (math.isfinite(ode_step) and ode_step > 0.0):
        raise ValueError(f"the integrator step must be positive and finite, got {ode_step!r}")


def _evolve_laws(gen, t0, t1, p, u, v, ode_step):
    """RK4 of the forward equations on ``gen``'s lattice: the laws at t1 of the laws ``p`` at t0.

    ``p`` is one law (N,) or a batch (B, N). ``t0``, ``t1``, ``u`` and ``v``
    are numbers or (B, 1) columns: each law may have its own span and its
    own control pair. A law's span is cut into max(1, ceil(span / ode_step))
    equal steps, and a zero span leaves the law as it is; laws with
    different step counts run in separate loops, one loop per count. Each
    law's result is the one a batch of one would give, bit for bit.
    """
    _check_ode_step(ode_step)
    span = np.subtract(t1, t0)
    steps = np.where(span == 0.0, 0, np.maximum(1, np.ceil(span / ode_step)))
    counts = np.unique(steps)
    if counts.size > 1:
        out = np.empty_like(p)
        for count in counts:
            rows = steps[:, 0] == count
            t0_r, t1_r, u_r, v_r = (a[rows] if np.ndim(a) == 2 else a for a in (t0, t1, u, v))
            out[rows] = _evolve_laws(gen, t0_r, t1_r, p[rows], u_r, v_r, ode_step)
        return out
    if counts[0] == 0:
        return p
    dt = span / counts[0]
    t = t0
    for _ in range(int(counts[0])):
        p = rk4_step(lambda s, q: gen.forward(s, q, u, v), t, p, dt)
        t = t + dt  # not in place: t0 may be the caller's column
    if p.min() < -NEGATIVE_PROB_TOL:
        raise IntegrationError(
            f"negative probability {p.min():.3e}; reduce the integrator step")
    drift = float(np.max(np.abs(p.sum(axis=-1) - 1.0)))
    if drift > PROB_SUM_TOL:
        raise IntegrationError(f"probability mass drifted by {drift:.3e}")
    project_rows(p)
    return p


def master_evolve(model, t0, t1, y, u, v, ode_step=None):
    """Exact law at t1 of the chain started at the count row ``y`` at t0, under constant controls.

    Classic fourth-order fixed-step integration; the state spaces this
    oracle is meant for are tiny, so accuracy wins over speed.
    """
    if t1 < t0:
        raise ValueError("need t1 >= t0")
    y = _start_row(y, model.dimension)
    grid = SimplexGrid(model.dimension, int(y.sum()))
    h = ode_step if ode_step is not None else default_ode_step(model, grid.resolution)
    start = Distribution.point_mass(grid, y).probs
    return Distribution(grid, _evolve_laws(_LatticeGenerator(model, grid), t0, t1, start,
                                           u, v, h))


def dynkin_residual(model, f, t0, t1, y, u, v, ode_step=0.002):
    """Gap in the expectation identity E f(X_t1) = f(y) + int E (L f)(X_s) ds.

    Both sides come from the forward-equation oracle: the left from the
    integrated distribution, the right from composite Simpson quadrature of
    the generator term along the stored trajectory, started from the count
    row ``y``. The residual therefore measures integrator consistency only.
    ``ode_step`` must be positive and finite.
    """
    _check_ode_step(ode_step)
    y = _start_row(y, model.dimension)
    total = int(y.sum())
    grid = SimplexGrid(model.dimension, total)
    gen = _LatticeGenerator(model, grid)
    fvals = np.array([float(f(x)) for x in grid.nodes])
    span = t1 - t0
    if span <= 0.0:
        raise ValueError("need t1 > t0")
    steps = max(2, math.ceil(span / min(ode_step, default_ode_step(model, total))))
    if steps % 2:
        steps += 1
    dt = span / steps
    p = Distribution.point_mass(grid, y).probs
    times = t0 + dt * np.arange(steps + 1)
    integrand = np.empty(steps + 1)
    integrand[0] = p @ gen.backward(times[0], fvals, u, v)
    for step in range(steps):
        p = rk4_step(lambda s, q: gen.forward(s, q, u, v), times[step], p, dt)
        integrand[step + 1] = p @ gen.backward(times[step + 1], fvals, u, v)
    # composite Simpson over the stored (even) grid
    integral = (dt / 3.0) * (integrand[0] + integrand[-1]
                             + 4.0 * integrand[1:-1:2].sum()
                             + 2.0 * integrand[2:-1:2].sum())
    expected_end = float(p @ fvals)
    start = float(f(y / total))
    return abs(expected_end - start - integral)


def sample_final_distribution(model, t0, t1, y, u, v, trials, seed, rate_bound=None):
    """Empirical law of the chain state at t1 over independent trials.

    Every trial starts from the count row ``y``. All trials advance as one
    (trials, d) batch in one ``simulate_chain`` call on the shared generator
    ``np.random.default_rng(seed)``, so the law depends on the trial count
    as a whole: the first k trials of a larger run do not repeat a run of k
    trials. ``trials`` must be at least 1.
    """
    y = _start_row(y, model.dimension)
    if trials < 1:
        raise ValueError("need at least one trial")
    finals = np.tile(y, (trials, 1))
    simulate_chain(model, t0, t1, finals, u, v, np.random.default_rng(seed),
                   rate_bound=rate_bound, record_events=False)
    space = SimplexGrid(model.dimension, int(y.sum()))
    hits = np.bincount(space.node_index(finals), minlength=space.node_count)
    return Distribution(space, hits / trials)
