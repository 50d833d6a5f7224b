"""Extremal-shift strategies and the coupled chain/guide episode runner.

At each correction time the strategy measures the displacement between the
chain state and its guide and picks the grid control that pushes the chain
back toward the guide against the worst announced reply; the announced
reply in turn drives the guide update. Episodes advance the chain by exact
thinned simulation between corrections while each strategy side maintains
its own private guide.

The episode runner is written over batches of trials: the whole batch
draws from one shared generator (the chain's thinning rounds and the
random policy's per-step control vector), and the deterministic numpy
work (extremal selection, guide integration, value interpolation) is
vectorized across the batch. A batch may mix particle totals, each row
keeping its own lattice spacing. A trial's outputs therefore depend on
the batch it runs in and on the batch's generator; the harness fixes both
from the scenario alone, so results do not depend on the worker layout.
"""

from __future__ import annotations

import functools
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

    The grids are short, so the max, the min and the arg-extrema run
    column by column over the batch rather than as short-axis reductions.
    """
    xs = np.asarray(xs, dtype=float)
    disps = xs - np.asarray(guides, dtype=float)
    surface = control_surface(model, t, xs, disps)
    nu, nv = surface.shape[1:]
    worst = functools.reduce(np.maximum, (surface[:, :, j] for j in range(nv)))
    best = functools.reduce(np.minimum, (surface[:, i, :] for i in range(nu)))
    own = _first_extremum([worst[:, i] for i in range(nu)], np.less)
    reply = _first_extremum([best[:, j] for j in range(nv)], np.greater)
    return own, reply


def _first_extremum(columns, beats):
    """Per row, the index of the first column that ``beats`` every earlier one.

    A strict ``beats`` keeps the earlier column on a tie, so ``np.less``
    gives ``argmin`` and ``np.greater`` gives ``argmax`` on finite values.
    """
    lead = columns[0]
    idx = np.zeros(lead.shape, dtype=np.int64)
    for i, column in enumerate(columns[1:], start=1):
        ahead = beats(column, lead)
        idx[ahead] = i
        lead = np.where(ahead, column, lead)
    return idx


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

    def step_values(self, t, counts, totals, rng):
        """Control value per trial at the start of a partition step.

        ``counts`` is the (n, d) batch, ``totals`` its (n, 1) particle
        totals and ``rng`` the batch's shared generator.
        """
        raise NotImplementedError


class ConstantPolicy(ControlPolicy):
    def __init__(self, value):
        self.value = float(value)

    def step_values(self, t, counts, totals, rng):
        return np.full(len(counts), self.value)


class RandomPolicy(ControlPolicy):
    """Redraws a uniform grid control each step, independently per trial."""

    def __init__(self, grid):
        self.values = grid.values()

    def step_values(self, t, counts, totals, rng):
        return self.values[rng.integers(self.values.size, size=len(counts))]


class GreedyPolicy(ControlPolicy):
    """Player 1's one-step greedy payoff pusher: steepest payoff descent against the worst reply.

    Player 2's greedy policy is this one on ``mirrored(model)``.
    """

    def __init__(self, model):
        self.model = model

    def step_values(self, t, counts, totals, rng):
        xs = counts / totals
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


# the trace keys of the jump arrays, in ``ChainBatch.jumps`` order
JUMP_KEYS = ("jump_rows", "jump_times", "jump_from", "jump_to")


@dataclass
class EpisodeBatch:
    """Per-trial episode outcomes plus aggregate guide and thinning diagnostics.

    ``trace`` is None unless the batch was run with ``record``. Then it
    maps names to arrays whose leading axis is the trial, n trials of
    ``steps`` partition steps in d types:

    - ``counts``: (n, steps + 1, d) int64 count rows at every partition time;
    - ``controls_u``, ``controls_v``: (n, steps) control values of each step;
    - for each guided player p (1 or 2): ``guide<p>``, (n, steps + 1, d)
      simplex coordinates at every partition time; ``guide<p>_values``,
      (n, steps) field readings at the updates, player 2's negated back
      as readings of the model's field; ``violations<p>``, (n, steps) bool;
    - ``jump_rows``, ``jump_times``, ``jump_from``, ``jump_to``: (J,)
      arrays of every accepted jump in draw order, the trial row, time,
      from type and to type; a row's jumps are in time order.
    """

    payoffs: np.ndarray
    violation_fraction1: np.ndarray
    violation_fraction2: np.ndarray
    trace: Optional[dict] = None
    candidates: int = 0            # thinning candidates over all trials and steps
    accepted: int = 0              # of which accepted as jumps
    max_rate_ratio: float = 0.0    # largest candidate rate over the bound K


def run_episodes(model, y, partition, player1, player2, rng, rate_bound=None, record=False):
    """Run one coupled episode per count row of ``y`` on the shared generator ``rng``.

    Each side is a ControlWithGuideStrategy, a ControlPolicy, or a plain
    number (constant control). Player 1's guided strategy must be built on
    ``model`` and player 2's on ``mirrored(model)``; player 2's guide
    values are recorded negated back, as readings of ``model``'s field.
    Strategy-side controls are held constant on each partition step; guide
    updates read the chain state from the start of the step they span.

    ``y`` is an (n, d) start batch, one count row per trial (a single row
    is one trial); rows may differ in particle total, and x = counts /
    total is formed by one division per row. All trials share the
    partition. Strategy sides are vectorized across trials, and every
    random draw of the batch comes from ``rng``: per step, player 1's
    policy draws first, then player 2's, then the chain. So a trial's
    result depends on the whole batch and the generator, not on the trial
    alone. With ``record`` the batch's ``trace`` holds the episodes'
    counts, controls, guides and jumps as arrays (see ``EpisodeBatch``);
    recording draws nothing, so it changes no result.
    """
    y = check_counts(y, model.dimension)
    times = partition.times
    if times[-1] > model.horizon + 1e-12:
        raise ValueError("partition extends past the model horizon")
    # per-player lists; player 1 goes first in every loop, so policy draws
    # from the shared generator keep their order
    sides = [as_side(player1), as_side(player2)]
    strats = [s if isinstance(s, ControlWithGuideStrategy) else None for s in sides]
    if strats[0] is not None and strats[0].model is not model:
        raise ValueError("player 1's strategy must be built on the episode's model")
    if strats[1] is not None and mirrored(strats[1].model) is not model:
        raise ValueError("player 2's strategy must be built on mirrored(model)")

    counts = np.array(y, ndmin=2)
    n, d = counts.shape
    totals = counts.sum(axis=1, keepdims=True)
    steps = partition.steps
    guides = [counts / totals if s is not None else None for s in strats]
    viol = [np.zeros(n, dtype=np.int64) for _ in strats]
    replies = [None, None]

    trace = None
    if record:
        trace = {"counts": np.empty((n, steps + 1, d), dtype=np.int64),
                 "controls_u": np.empty((n, steps)), "controls_v": np.empty((n, steps))}
        trace["counts"][:, 0] = counts
        for p, strat in enumerate(strats, start=1):
            if strat is not None:
                trace[f"guide{p}"] = np.empty((n, steps + 1, d))
                trace[f"guide{p}"][:, 0] = guides[p - 1]
                trace[f"guide{p}_values"] = np.empty((n, steps))
                trace[f"violations{p}"] = np.zeros((n, steps), dtype=bool)
        step_jumps = []

    k_bound = resolve_k(model) if rate_bound is None else rate_bound
    candidates = accepted = 0
    max_rate_ratio = 0.0
    for k in range(steps):
        t0 = float(times[k])
        t1 = float(times[k + 1])
        xs = counts / totals

        controls = []
        for p, (side, strat) in enumerate(zip(sides, strats)):
            if strat is not None:
                vals, _, replies[p] = strat.select_batch(t0, xs, guides[p])
            else:
                vals = side.step_values(t0, counts, totals, rng)
            controls.append(vals)
        u_vals, v_vals = controls

        # the chain advances under the step controls
        chains = simulate_chain(model, t0, t1, counts, u_vals, v_vals, rng,
                                rate_bound=k_bound, record_events=record)
        candidates += chains.candidates
        accepted += chains.accepted
        max_rate_ratio = max(max_rate_ratio, chains.max_rate_ratio)

        # guide updates read the pre-step chain state
        for p, strat in enumerate(strats):
            if strat is not None:
                guides[p], _, guide_values, flags, _ = strat.advance_batch(
                    t1, t0, guides[p], replies[p])
                viol[p] += flags
                if record:
                    trace[f"guide{p + 1}"][:, k + 1] = guides[p]
                    # player 2 reads the negated field of the mirror
                    trace[f"guide{p + 1}_values"][:, k] = (guide_values if p == 0
                                                           else -guide_values)
                    trace[f"violations{p + 1}"][:, k] = flags

        if record:
            trace["counts"][:, k + 1] = counts
            trace["controls_u"][:, k] = u_vals
            trace["controls_v"][:, k] = v_vals
            step_jumps.append(chains.jumps)

    if record:
        trace.update(zip(JUMP_KEYS, map(np.concatenate, zip(*step_jumps))))
    return EpisodeBatch(
        payoffs=model.terminal_payoff(counts / totals),
        violation_fraction1=viol[0] / steps,
        violation_fraction2=viol[1] / steps,
        trace=trace,
        candidates=candidates,
        accepted=accepted,
        max_rate_ratio=max_rate_ratio,
    )
