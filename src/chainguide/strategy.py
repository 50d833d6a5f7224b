"""Extremal-shift strategies and the coupled chain/guide episode runner.

At each correction time the strategy measures the displacement between the
chain state and its guide and picks the grid control that pushes the chain
back toward the guide against the worst announced reply; the announced
reply in turn drives the guide update. Episodes advance the chain by exact
thinned simulation between corrections while each strategy side maintains
its own private guide.

The episode runner is written over batches of trials: per-trial randomness
comes from per-trial generators, and the deterministic numpy work
(extremal selection, guide integration, value interpolation) is vectorized
across the batch. Each trial's outputs depend only on its own generator,
so results are independent of batch composition and worker layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import simulate_chain
from .guide import advance_guides
from .models import resolve_k, role_grids
from .simplex import LatticeState, project_rows
from .value import monotonicity_tolerance


@dataclass(frozen=True)
class Partition:
    """Correction times for stepwise control formation."""

    times: np.ndarray

    def __init__(self, times):
        arr = np.asarray(times, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a partition needs at least two times")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("partition times must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "times", arr)

    @staticmethod
    def uniform(start, end, steps):
        if steps < 1:
            raise ValueError("need at least one step")
        return Partition(np.linspace(start, end, steps + 1))

    @property
    def steps(self):
        return self.times.size - 1

    @property
    def diameter(self):
        return float(np.max(np.diff(self.times)))


# -- extremal-shift control selection -----------------------------------------


def displacement_surface(model, t, xs, disps):
    """<disp, x Q(t, x, u, v)> over the grids for a batch: (n, nu, nv)."""
    drifts = model.drift_grid_multi(t, xs)
    return np.einsum("nuvd,nd->nuv", drifts, disps)


def extremal_indices(model, t, xs, guides, role):
    """Grid indices of the shift control and the announced reply, batched.

    Role "first": own u minimizes the worst-case displacement growth
    (min over u of max over v), the announced v maximizes the best-case
    growth (max over v of min over u). Role "second" swaps the players.
    Ties resolve to the lowest grid index.
    """
    xs = np.asarray(xs, dtype=float)
    disps = xs - np.asarray(guides, dtype=float)
    surface = displacement_surface(model, t, xs, disps)
    if role == "first":
        own = np.argmin(surface.max(axis=2), axis=1)
        reply = np.argmax(surface.min(axis=1), axis=1)
    elif role == "second":
        own = np.argmin(surface.max(axis=1), axis=1)
        reply = np.argmax(surface.min(axis=2), axis=1)
    else:
        raise ValueError("role must be 'first' or 'second'")
    return own, reply


# -- strategies ----------------------------------------------------------------


class ControlWithGuideStrategy:
    """Extremal-shift control with a deterministic guide for one player.

    Both calls take a batch of n trials (one trial is n = 1).
    ``select_batch(t, xs, guides)`` picks, for each row, the grid control
    that shifts the chain state toward its guide against the worst reply,
    and the reply the guide update then holds fixed.
    ``advance_batch(t_plus, t, guides, reply_idx)`` rides each guide along
    the value-monotone drift hull over [t, t_plus]. The object is immutable
    and stateless; the episode runner owns the guide positions, so one
    strategy instance can serve any number of concurrent episodes.
    """

    def __init__(self, field, model, role, constants=None):
        if role not in ("first", "second"):
            raise ValueError("role must be 'first' or 'second'")
        self.field = field
        self.model = model
        self.role = role
        self.value_slack = float(monotonicity_tolerance(field, resolve_k(model, constants)))

    @property
    def own_grid(self):
        return role_grids(self.model, self.role)[0]

    def step_slack(self, t_star, t_plus):
        return self.value_slack * (t_plus - t_star) / self.field.horizon

    def select_batch(self, t, xs, guides):
        """Own control values (n,), their grid indices and the reply indices."""
        own, reply = extremal_indices(self.model, t, xs, guides, self.role)
        return self.own_grid.values()[own], own, reply

    def advance_batch(self, t_plus, t, guides, reply_idx):
        """``advance_guides`` over [t, t_plus] at this strategy's step slack."""
        return advance_guides(self.field, self.model, t, t_plus, guides, reply_idx,
                              self.role, slack=self.step_slack(t, t_plus))


# -- plain control policies -----------------------------------------------------


class ControlPolicy:
    """Stepwise control process for one side: may read (t, state), not controls."""

    def step_values(self, t, counts, h, rngs):
        """Control value per trial at the start of a partition step."""
        raise NotImplementedError


class ConstantPolicy(ControlPolicy):
    def __init__(self, value):
        self.value = float(value)

    def step_values(self, t, counts, h, rngs):
        return np.full(len(rngs), self.value)


class RandomPolicy(ControlPolicy):
    """Redraws a uniform grid control each step, independently per trial."""

    def __init__(self, grid):
        self.values = grid.values()

    def step_values(self, t, counts, h, rngs):
        idx = np.fromiter((rng.integers(self.values.size) for rng in rngs),
                          dtype=np.int64, count=len(rngs))
        return self.values[idx]


class GreedyPolicy(ControlPolicy):
    """One-step greedy payoff pusher: steepest payoff drift against the worst reply."""

    def __init__(self, model, role, probe=1e-4):
        self.model = model
        self.role = role
        self.probe = float(probe)

    def step_values(self, t, counts, h, rngs):
        xs = counts * h
        drifts = self.model.drift_grid_multi(t, xs)
        probes = xs[:, None, None, :] + self.probe * drifts
        project_rows(probes)
        gains = (self.model.terminal_payoff(probes)
                 - self.model.terminal_payoff(xs)[:, None, None])
        if self.role == "second":
            idx = np.argmax(gains.min(axis=1), axis=1)
            return self.model.v_grid.values()[idx]
        idx = np.argmin(gains.max(axis=2), axis=1)
        return self.model.u_grid.values()[idx]


def as_side(side):
    """Promote plain numbers to constant policies; pass strategies through."""
    if isinstance(side, (ControlWithGuideStrategy, ControlPolicy)):
        return side
    return ConstantPolicy(float(side))


# -- episodes --------------------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """One coupled realization of the chain, guides, controls and payoff."""

    partition: Partition
    counts: np.ndarray                     # (steps+1, d) lattice counts
    total: int
    controls_u: np.ndarray                 # (steps,)
    controls_v: np.ndarray                 # (steps,)
    payoff: float
    guide1: Optional[np.ndarray] = None    # (steps+1, d) simplex coords
    guide2: Optional[np.ndarray] = None
    guide1_values: Optional[np.ndarray] = None   # (steps,) field reading at updates
    guide2_values: Optional[np.ndarray] = None
    violations1: Optional[np.ndarray] = None     # (steps,) bool
    violations2: Optional[np.ndarray] = None
    jumps: Optional[list] = None

    def states(self):
        return self.counts / self.total

    def to_dict(self):
        payload = {
            "times": self.partition.times.tolist(),
            "total": self.total,
            "counts": self.counts.tolist(),
            "controls_u": self.controls_u.tolist(),
            "controls_v": self.controls_v.tolist(),
            "payoff": self.payoff,
        }
        for name in ("guide1", "guide2", "guide1_values", "guide2_values",
                     "violations1", "violations2"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = np.asarray(value).tolist()
        if self.jumps is not None:
            payload["jumps"] = [(e.time, e.from_type, e.to_type) for e in self.jumps]
        return payload


@dataclass
class EpisodeBatch:
    """Per-trial episode outcomes plus aggregate guide and thinning diagnostics."""

    payoffs: np.ndarray
    violation_fraction1: np.ndarray
    violation_fraction2: np.ndarray
    records: Optional[list] = None
    candidates: int = 0            # thinning candidates over all trials and steps
    accepted: int = 0              # of which accepted as jumps
    max_rate_ratio: float = 0.0    # largest candidate rate over the bound K


def run_episodes(model, y, partition, player1, player2, rngs,
                 rate_bound=None, record=False, record_jumps=False):
    """Run one episode per generator in ``rngs``; see ``run_episode``.

    All trials share the start state and partition. Strategy sides are
    vectorized across trials; chain randomness is consumed strictly from
    each trial's own generator, so per-trial results do not depend on how
    trials are grouped into batches.
    """
    if not isinstance(y, LatticeState):
        y = LatticeState(y)
    times = partition.times
    if times[-1] > model.horizon + 1e-12:
        raise ValueError("partition extends past the model horizon")
    side1 = as_side(player1)
    side2 = as_side(player2)
    strat1 = side1 if isinstance(side1, ControlWithGuideStrategy) else None
    strat2 = side2 if isinstance(side2, ControlWithGuideStrategy) else None
    if strat1 is not None and strat1.role != "first":
        raise ValueError("player1 strategy must have role 'first'")
    if strat2 is not None and strat2.role != "second":
        raise ValueError("player2 strategy must have role 'second'")

    n = len(rngs)
    d = model.dimension
    total = y.total
    h = 1.0 / total
    steps = partition.steps
    counts = np.tile(y.counts.astype(np.int64), (n, 1))
    start = y.coords()
    guides1 = np.tile(start, (n, 1)) if strat1 is not None else None
    guides2 = np.tile(start, (n, 1)) if strat2 is not None else None
    viol1 = np.zeros(n, dtype=np.int64)
    viol2 = np.zeros(n, dtype=np.int64)

    recording = record or record_jumps
    if recording:
        rec_counts = np.empty((n, steps + 1, d), dtype=np.int64)
        rec_counts[:, 0] = counts
        rec_u = np.empty((n, steps))
        rec_v = np.empty((n, steps))
        rec_g1 = np.empty((n, steps + 1, d)) if strat1 is not None else None
        rec_g2 = np.empty((n, steps + 1, d)) if strat2 is not None else None
        rec_g1v = np.empty((n, steps)) if strat1 is not None else None
        rec_g2v = np.empty((n, steps)) if strat2 is not None else None
        rec_f1 = np.zeros((n, steps), dtype=bool) if strat1 is not None else None
        rec_f2 = np.zeros((n, steps), dtype=bool) if strat2 is not None else None
        rec_jumps = [[] for _ in range(n)] if record_jumps else None
        if rec_g1 is not None:
            rec_g1[:, 0] = guides1
        if rec_g2 is not None:
            rec_g2[:, 0] = guides2

    k_bound = resolve_k(model) if rate_bound is None else rate_bound
    candidates = accepted = 0
    max_rate_ratio = 0.0
    for k in range(steps):
        t0 = float(times[k])
        t1 = float(times[k + 1])
        xs = counts * h

        if strat1 is not None:
            u_vals, _, reply1 = strat1.select_batch(t0, xs, guides1)
        else:
            u_vals = side1.step_values(t0, counts, h, rngs)
        if strat2 is not None:
            v_vals, _, reply2 = strat2.select_batch(t0, xs, guides2)
        else:
            v_vals = side2.step_values(t0, counts, h, rngs)

        # the chain advances under the step controls, each trial drawing
        # from its own generator
        chains = simulate_chain(model, t0, t1, counts, u_vals, v_vals, rngs,
                                rate_bound=k_bound, record_events=record_jumps)
        candidates += chains.candidates
        accepted += chains.accepted
        max_rate_ratio = max(max_rate_ratio, chains.max_rate_ratio)
        if record_jumps:
            for jumps, events in zip(rec_jumps, chains.events):
                jumps.extend(events)

        # guide updates read the pre-step chain state
        if strat1 is not None:
            guides1, _, g1v, flags1, _ = strat1.advance_batch(t1, t0, guides1, reply1)
            viol1 += flags1
        if strat2 is not None:
            guides2, _, g2v, flags2, _ = strat2.advance_batch(t1, t0, guides2, reply2)
            viol2 += flags2

        if recording:
            rec_counts[:, k + 1] = counts
            rec_u[:, k] = u_vals
            rec_v[:, k] = v_vals
            if strat1 is not None:
                rec_g1[:, k + 1] = guides1
                rec_g1v[:, k] = g1v
                rec_f1[:, k] = flags1
            if strat2 is not None:
                rec_g2[:, k + 1] = guides2
                rec_g2v[:, k] = g2v
                rec_f2[:, k] = flags2

    payoffs = model.terminal_payoff(counts * h)
    batch = EpisodeBatch(
        payoffs=payoffs,
        violation_fraction1=viol1 / steps,
        violation_fraction2=viol2 / steps,
        candidates=candidates,
        accepted=accepted,
        max_rate_ratio=max_rate_ratio,
    )
    if recording:
        batch.records = [
            TrajectoryRecord(
                partition=partition,
                counts=rec_counts[i],
                total=total,
                controls_u=rec_u[i],
                controls_v=rec_v[i],
                payoff=float(payoffs[i]),
                guide1=rec_g1[i] if rec_g1 is not None else None,
                guide2=rec_g2[i] if rec_g2 is not None else None,
                guide1_values=rec_g1v[i] if rec_g1v is not None else None,
                guide2_values=rec_g2v[i] if rec_g2v is not None else None,
                violations1=rec_f1[i] if rec_f1 is not None else None,
                violations2=rec_f2[i] if rec_f2 is not None else None,
                jumps=rec_jumps[i] if record_jumps else None,
            )
            for i in range(n)
        ]
    return batch


def run_episode(model, y, partition, player1, player2, rng,
                rate_bound=None, record_jumps=False):
    """One coupled episode; returns a TrajectoryRecord.

    Each side is a ControlWithGuideStrategy, a ControlPolicy, or a plain
    number (constant control). Strategy-side controls are held constant on
    each partition step; guide updates read the chain state from the start
    of the step they span.
    """
    batch = run_episodes(model, y, partition, player1, player2, [rng],
                         rate_bound=rate_bound, record=True, record_jumps=record_jumps)
    return batch.records[0]
