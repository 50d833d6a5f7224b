"""Deterministic guide dynamics.

The guide is the auxiliary model state each player tracks alongside the
noisy chain. Between control corrections it rides the convex hull of the
drift vectors available with the opponent's announced control held fixed,
choosing a hull trajectory that keeps the interpolated game value from
rising. The rule is stated for player 1; player 2's guide is player 1's
on the mirrored model with the negated field. The hull is approximated by a
finite candidate family: each pure grid control plus mixtures of adjacent
pairs at evenly spaced interior weights (the end weights would only repeat
pure controls). One admissible monotone trajectory is all the construction
needs, so a coarse family suffices within the tolerance already conceded to
grid error. The family depends only on the grid size and is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simplex import PROJECTION_LIMIT, ProjectionError, project_rows, rk4_step, rk4_step_count

ODE_STEP = 0.01   # RK4 step of the guide flow
LAM_POINTS = 9    # even weight grid on [0, 1] of the hull family's adjacent-pair mixtures


def _flow(velocity, t0, t1, states, ode_step, what):
    """RK4 rows over [t0, t1], each step followed by a clip-and-renormalize projection."""
    span = float(t1) - float(t0)
    steps = rk4_step_count(span, ode_step)
    dt = span / steps
    t = float(t0)
    worst = 0.0
    for _ in range(steps):
        states = rk4_step(velocity, t, states, dt)
        worst = max(worst, project_rows(states))
        t += dt
    if worst > PROJECTION_LIMIT:
        raise ProjectionError(f"{what} left the simplex by {worst:.3e}")
    return states


@dataclass(frozen=True)
class CandidateFamily:
    """Finite inner approximation of the drift hull over one player's grid.

    Candidates are the pure grid controls (listed first, so value ties
    resolve to the lowest grid index) followed by adjacent-pair mixtures
    at the interior weights of an even LAM_POINTS-point grid on [0, 1].
    The end weights 0 and 1 are left out: those mixtures are bitwise copies
    of pure candidates and would lose every tie to them. One family serves
    every call for a grid size, so its arrays are read-only.
    """

    first_idx: np.ndarray
    second_idx: np.ndarray
    weight: np.ndarray

    @staticmethod
    @lru_cache(maxsize=None)
    def build(grid_size):
        lams = np.linspace(0.0, 1.0, LAM_POINTS)[1:-1]
        pairs = np.arange(grid_size - 1)
        first = np.concatenate([np.arange(grid_size), np.repeat(pairs, lams.size)])
        second = np.concatenate([np.arange(grid_size), np.repeat(pairs + 1, lams.size)])
        weight = np.concatenate([np.ones(grid_size), np.tile(lams, pairs.size)])
        for arr in (first, second, weight):
            arr.flags.writeable = False
        return CandidateFamily(first, second, weight)

    @property
    def count(self):
        return self.weight.size


@lru_cache(maxsize=32)
def _hull_rows(u_levels, n, d):
    """The candidate-major hull rows of ``n`` guides that depend only on the u grid.

    Returns (u_a, u_b, lam, rest): each row's first control, the second
    control of the mixture rows, and the mixture weights and their
    complements at the full (rows, d) shape (a broadcast (rows, 1)
    multiply is slower). One set serves every call with the same u levels,
    n and d, so the arrays are read-only.
    """
    u_values = np.array(u_levels)
    family = CandidateFamily.build(u_values.size)
    pure = u_values.size
    u_a = np.repeat(u_values[family.first_idx], n)
    u_b = np.repeat(u_values[family.second_idx[pure:]], n)
    lam = np.repeat(family.weight[pure:], n)[:, None] * np.ones(d)
    rest = 1.0 - lam
    for arr in (u_a, u_b, lam, rest):
        arr.flags.writeable = False
    return u_a, u_b, lam, rest


def advance_guides(field, model, t0, t1, guides, fixed_idx, slack):
    """Advance a batch of player 1's guides over [t0, t1] with the reply v fixed.

    ``guides`` is (n, d); ``fixed_idx`` gives each row's announced v as a
    grid index (the reply of rule-(12) extremal selection). Every candidate
    hull trajectory over the u grid is integrated and the one with the
    least interpolated value at t1 wins, ties going to the lowest candidate
    index. All candidates of all rows are integrated as one batch, with one
    drift call over every row and one more over the mixture rows per
    velocity evaluation. Rows whose best candidate still raises the value
    by more than ``slack`` are flagged, not rejected.

    Returns (endpoints (n, d), value_start (n,), value_end (n,),
    violation (n,), candidate index (n,)).
    """
    guides = np.asarray(guides, dtype=float)
    n, d = guides.shape
    u_values = model.u_grid.values()
    fixed = model.v_grid.values()[fixed_idx]
    family = CandidateFamily.build(u_values.size)
    nc = family.count
    span = float(t1) - float(t0)
    if span <= 0.0:
        raise ValueError("need t1 > t0")

    # candidate-major rows: row c*n + r is candidate c of trial r, and the
    # pure candidates come first. A pure candidate's velocity, 1 * f + 0 * f,
    # is f itself, so one drift call over every row serves the pure rows and
    # a second runs on the mixture rows only
    states = np.tile(guides, (nc, 1))
    v = np.tile(fixed, nc)
    u_a, u_b, lam, rest = _hull_rows(tuple(u_values.tolist()), n, d)
    mix = slice(u_values.size * n, None)
    v_mix = v[mix]

    def velocity(t, x):
        out = model.drift(t, x, u_a, v)
        out[mix] = lam * out[mix] + rest * model.drift(t, x[mix], u_b, v_mix)
        return out

    states = _flow(velocity, t0, t1, states, ODE_STEP, "guide hull trajectory")

    value_start = field.eval_batch(t0, guides)
    end_values = field.eval_batch(t1, states).reshape(nc, n)
    # over axis 0, so ties still go to the lowest candidate index
    best = np.argmin(end_values, axis=0)
    rows = np.arange(n)
    value_end = end_values[best, rows]
    endpoints = states.reshape(nc, n, d)[best, rows]
    violation = value_end > value_start + slack
    return endpoints, value_start, value_end, violation, best
