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
across the batch. A batch may mix particle totals, each row keeping its
own lattice spacing. Each trial's outputs depend only on its own
generator, so results are independent of batch composition and worker
layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import simulate_chain
from .guide import advance_guides
from .models import control_surface, mirrored, resolve_k
from .simplex import check_counts, project_rows
from .value import monotonicity_tolerance

GREEDY_PROBE = 1e-4  # Euler step of the greedy policy's one-step payoff probe


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


def extremal_indices(model, t, xs, guides):
    """Grid indices of player 1's shift control u and the announced reply v, batched.

    The u minimizes the worst-case displacement growth (min over u of max
    over v) and the announced v maximizes the best-case growth (max over v
    of min over u): player 1 shifts the chain toward its guide. Ties
    resolve to the lowest grid index.
    """
    xs = np.asarray(xs, dtype=float)
    disps = xs - np.asarray(guides, dtype=float)
    surface = control_surface(model, t, xs, disps)
    own = np.argmin(surface.max(axis=2), axis=1)
    reply = np.argmax(surface.min(axis=1), axis=1)
    return own, reply


# -- strategies ----------------------------------------------------------------


class ControlWithGuideStrategy:
    """Player 1's extremal-shift control with a deterministic guide.

    Player 2's strategy is this one built on ``mirrored(model)`` with the
    negated field (``field.negated()``).

    Both calls take a batch of n trials (one trial is n = 1).
    ``select_batch(t, xs, guides)`` picks, for each row, the grid control
    that shifts the chain state toward its guide against the worst reply,
    and the reply the guide update then holds fixed.
    ``advance_batch(t_plus, t, guides, reply_idx)`` rides each guide along
    the value-monotone drift hull over [t, t_plus]. The object is immutable
    and stateless; the episode runner owns the guide positions, so one
    strategy instance can serve any number of concurrent episodes.
    """

    def __init__(self, field, model, constants=None):
        self.field = field
        self.model = model
        self.value_slack = float(monotonicity_tolerance(field, resolve_k(model, constants)))

    def step_slack(self, t_star, t_plus):
        return self.value_slack * (t_plus - t_star) / self.field.horizon

    def select_batch(self, t, xs, guides):
        """Control values u (n,), their grid indices and the reply indices."""
        own, reply = extremal_indices(self.model, t, xs, guides)
        return self.model.u_grid.values()[own], own, reply

    def advance_batch(self, t_plus, t, guides, reply_idx):
        """``advance_guides`` over [t, t_plus] at this strategy's step slack."""
        return advance_guides(self.field, self.model, t, t_plus, guides, reply_idx,
                              slack=self.step_slack(t, t_plus))


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
    """Player 1's one-step greedy payoff pusher: steepest payoff descent against the worst reply.

    Player 2's greedy policy is this one on ``mirrored(model)``.
    """

    def __init__(self, model):
        self.model = model

    def step_values(self, t, counts, h, rngs):
        xs = counts * h
        drifts = self.model.drift_grid_multi(t, xs)
        probes = xs[:, None, None, :] + GREEDY_PROBE * drifts
        project_rows(probes)
        gains = (self.model.terminal_payoff(probes)
                 - self.model.terminal_payoff(xs)[:, None, None])
        # the u whose worst reply raises the payoff least
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
    counts: np.ndarray                     # (steps+1, d) count rows
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

    def to_dict(self):
        payload = {
            "times": self.partition.times.tolist(),
            "total": int(self.counts[0].sum()),
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
    """Run one coupled episode per generator in ``rngs`` from the count rows ``y``.

    Each side is a ControlWithGuideStrategy, a ControlPolicy, or a plain
    number (constant control). Player 1's guided strategy must be built on
    ``model`` and player 2's on ``mirrored(model)``; player 2's guide
    values are recorded negated back, as readings of ``model``'s field.
    Strategy-side controls are held constant on each partition step; guide
    updates read the chain state from the start of the step they span.

    ``y`` is one count row that every trial starts from, or one row per
    generator; rows may differ in particle total. All trials share the
    partition. Strategy sides are vectorized across trials; chain
    randomness is consumed strictly from each trial's own generator, so
    per-trial results do not depend on how trials are grouped into batches.
    With ``record`` the batch carries one TrajectoryRecord per trial.
    """
    y = check_counts(y, model.dimension)
    times = partition.times
    if times[-1] > model.horizon + 1e-12:
        raise ValueError("partition extends past the model horizon")
    # per-player lists; player 1 goes first in every loop, so policy draws
    # from the trial generators keep their order
    sides = [as_side(player1), as_side(player2)]
    strats = [s if isinstance(s, ControlWithGuideStrategy) else None for s in sides]
    if strats[0] is not None and strats[0].model is not model:
        raise ValueError("player 1's strategy must be built on the episode's model")
    if strats[1] is not None and mirrored(strats[1].model) is not model:
        raise ValueError("player 2's strategy must be built on mirrored(model)")

    n = len(rngs)
    d = model.dimension
    if y.ndim != 1 and y.shape[:-1] != (n,):
        raise ValueError("start from one count row, or from one row per generator")
    counts = np.array(np.broadcast_to(y, (n, d)))
    totals = counts.sum(axis=1, keepdims=True)
    h = 1.0 / totals  # (n, 1): each row's lattice spacing
    steps = partition.steps
    guides = [counts / totals if s is not None else None for s in strats]
    viol = [np.zeros(n, dtype=np.int64) for _ in strats]
    replies = [None, None]

    recording = record or record_jumps
    if recording:
        rec_counts = np.empty((n, steps + 1, d), dtype=np.int64)
        rec_counts[:, 0] = counts
        rec_u = np.empty((n, steps))
        rec_v = np.empty((n, steps))
        rec_guides = [None, None]
        rec_values = [None, None]
        rec_flags = [None, None]
        for p, strat in enumerate(strats):
            if strat is not None:
                rec_guides[p] = np.empty((n, steps + 1, d))
                rec_guides[p][:, 0] = guides[p]
                rec_values[p] = np.empty((n, steps))
                rec_flags[p] = np.zeros((n, steps), dtype=bool)
        rec_jumps = [[] for _ in range(n)] if record_jumps else None

    k_bound = resolve_k(model) if rate_bound is None else rate_bound
    candidates = accepted = 0
    max_rate_ratio = 0.0
    for k in range(steps):
        t0 = float(times[k])
        t1 = float(times[k + 1])
        xs = counts * h

        controls = []
        for p, (side, strat) in enumerate(zip(sides, strats)):
            if strat is not None:
                vals, _, replies[p] = strat.select_batch(t0, xs, guides[p])
            else:
                vals = side.step_values(t0, counts, h, rngs)
            controls.append(vals)
        u_vals, v_vals = controls

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
        for p, strat in enumerate(strats):
            if strat is not None:
                guides[p], _, guide_values, flags, _ = strat.advance_batch(
                    t1, t0, guides[p], replies[p])
                viol[p] += flags
                if recording:
                    rec_guides[p][:, k + 1] = guides[p]
                    # player 2 reads the negated field of the mirror
                    rec_values[p][:, k] = guide_values if p == 0 else -guide_values
                    rec_flags[p][:, k] = flags

        if recording:
            rec_counts[:, k + 1] = counts
            rec_u[:, k] = u_vals
            rec_v[:, k] = v_vals

    payoffs = model.terminal_payoff(counts * h)
    batch = EpisodeBatch(
        payoffs=payoffs,
        violation_fraction1=viol[0] / steps,
        violation_fraction2=viol[1] / steps,
        candidates=candidates,
        accepted=accepted,
        max_rate_ratio=max_rate_ratio,
    )
    if recording:
        batch.records = []
        for i in range(n):
            guide, values, flags = ([None if a is None else a[i] for a in arrays]
                                    for arrays in (rec_guides, rec_values, rec_flags))
            batch.records.append(TrajectoryRecord(
                partition=partition,
                counts=rec_counts[i],
                controls_u=rec_u[i],
                controls_v=rec_v[i],
                payoff=float(payoffs[i]),
                guide1=guide[0],
                guide2=guide[1],
                guide1_values=values[0],
                guide2_values=values[1],
                violations1=flags[0],
                violations2=flags[1],
                jumps=rec_jumps[i] if record_jumps else None,
            ))
    return batch
