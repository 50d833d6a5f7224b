"""Deterministic guide dynamics.

The guide is the auxiliary model state each player tracks alongside the
noisy chain. Between control corrections it rides the convex hull of the
drift vectors available with the opponent's announced control held fixed,
choosing a hull trajectory that keeps the interpolated game value from
rising (player 1) or falling (player 2). The hull is approximated by a
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

from .models import as_uv, role_grids, role_sign
from .simplex import PROJECTION_LIMIT, ProjectionError, as_coords, project_rows, rk4_step

ODE_STEP = 0.01   # RK4 step of the guide flow
LAM_POINTS = 9    # even weight grid on [0, 1] of the hull family's adjacent-pair mixtures


def _as_schedule(control):
    if callable(control):
        return control
    value = float(control)
    return lambda t: value


def integrate_characteristic(model, t0, t1, x0, u_schedule, v_schedule, ode_step=ODE_STEP):
    """Integrate the deterministic flow dx/dt = x Q(t, x, u(t), v(t)).

    Schedules are callables of time (constants are promoted); they are
    sampled at the stage times of a fourth-order fixed-step integrator.
    Every step ends with a clip-and-renormalize projection; a displacement
    above PROJECTION_LIMIT raises, since the exact flow never leaves the simplex.
    """
    u_fn = _as_schedule(u_schedule)
    v_fn = _as_schedule(v_schedule)
    span = float(t1) - float(t0)
    if span < 0.0:
        raise ValueError("need t1 >= t0")
    x = as_coords(x0, model.dimension)[None, :].copy()
    if span == 0.0:
        return x[0]

    def velocity(t, state):
        return model.drift(t, state, u_fn(t), v_fn(t))

    return _flow(velocity, t0, t1, x, ode_step, "characteristic")[0]


def _flow(velocity, t0, t1, states, ode_step, what):
    """RK4 rows over [t0, t1], each step followed by a clip-and-renormalize projection."""
    span = float(t1) - float(t0)
    steps = max(1, int(np.ceil(span / ode_step)))
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


def advance_guides(field, model, t0, t1, guides, fixed_idx, role, slack):
    """Advance a batch of guides over [t0, t1] with the opposing control fixed.

    ``guides`` is (n, d); ``fixed_idx`` gives each row's announced opposing
    control as a grid index (the v of rule-(12) extremal selection for
    player 1, the u of the mirrored rule for player 2). Every candidate
    hull trajectory is integrated and the one optimizing the interpolated
    value at t1 wins: minimized for role "first", maximized for "second".
    Rows whose best candidate still moves the value the wrong way by more
    than ``slack`` are flagged, not rejected.

    Returns (endpoints (n, d), value_start (n,), value_end (n,),
    violation (n,), candidate index (n,)).
    """
    guides = np.asarray(guides, dtype=float)
    n, d = guides.shape
    sign = role_sign(role)
    own_grid, fixed_grid = role_grids(model, role)
    own_values = own_grid.values()
    fixed_values = fixed_grid.values()[fixed_idx]
    family = CandidateFamily.build(own_values.size)
    nc = family.count
    span = float(t1) - float(t0)
    if span <= 0.0:
        raise ValueError("need t1 > t0")

    # tile trial rows per candidate: row r*nc + c is candidate c of trial r
    states = np.repeat(guides, nc, axis=0)
    fixed = np.repeat(fixed_values, nc)
    uv_a = as_uv(role, np.tile(own_values[family.first_idx], n), fixed)
    uv_b = as_uv(role, np.tile(own_values[family.second_idx], n), fixed)
    lam = np.tile(family.weight, n)[:, None]

    def velocity(t, x):
        return lam * model.drift(t, x, *uv_a) + (1.0 - lam) * model.drift(t, x, *uv_b)

    states = _flow(velocity, t0, t1, states, ODE_STEP, "guide hull trajectory")

    value_start = field.eval_batch(t0, guides)
    end_values = field.eval_batch(t1, states).reshape(n, nc)
    best = np.argmin(sign * end_values, axis=1)
    rows = np.arange(n)
    value_end = end_values[rows, best]
    endpoints = states.reshape(n, nc, d)[rows, best]
    violation = sign * value_end > sign * value_start + slack
    return endpoints, value_start, value_end, violation, best
