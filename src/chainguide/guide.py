"""Deterministic guide dynamics.

The guide is the auxiliary model state each player tracks alongside the
noisy chain. Between control corrections it rides the convex hull of the
drift vectors available with the opponent's announced control held fixed,
choosing a hull trajectory that keeps the interpolated game value from
rising (player 1) or falling (player 2). The hull is approximated by a
finite candidate family: each pure grid control plus evenly spaced
mixtures of adjacent pairs; one admissible monotone trajectory is all the
construction needs, so a coarse family suffices within the tolerance
already conceded to grid error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import resolve_k, role_grids
from .simplex import ProjectionError, as_coords, project_rows, rk4_step
from .value import monotonicity_tolerance

GUIDE_PROJECTION_LIMIT = 1e-6


@dataclass(frozen=True)
class GuideState:
    """Guide position and the correction time it belongs to."""

    w: np.ndarray
    t: float

    def __init__(self, w, t):
        arr = np.asarray(w, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "w", arr)
        object.__setattr__(self, "t", float(t))


@dataclass(frozen=True)
class GuideStep:
    """One guide advance plus its value bookkeeping."""

    state: GuideState
    value_start: float
    value_end: float
    violation: bool
    candidate: int


def init_guide(s, y):
    """Start the guide exactly on the chain's initial state."""
    return GuideState(as_coords(y), s)


def _as_schedule(control):
    if callable(control):
        return control
    value = float(control)
    return lambda t: value


def integrate_characteristic(model, t0, t1, x0, u_schedule, v_schedule, ode_step=0.01):
    """Integrate the deterministic flow dx/dt = x Q(t, x, u(t), v(t)).

    Schedules are callables of time (constants are promoted); they are
    sampled at the stage times of a fourth-order fixed-step integrator.
    Every step ends with a clip-and-renormalize projection; a displacement
    above 1e-6 raises, since the exact flow never leaves the simplex.
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
    if worst > GUIDE_PROJECTION_LIMIT:
        raise ProjectionError(f"{what} left the simplex by {worst:.3e}")
    return states


@dataclass(frozen=True)
class CandidateFamily:
    """Finite inner approximation of the drift hull over one player's grid.

    Candidates are the pure grid controls (listed first, so value ties
    resolve to the lowest grid index) followed by adjacent-pair mixtures
    with evenly spaced weights.
    """

    first_idx: np.ndarray
    second_idx: np.ndarray
    weight: np.ndarray

    @staticmethod
    def build(grid_size, lam_points=9):
        first = list(range(grid_size))
        second = list(range(grid_size))
        weight = [1.0] * grid_size
        lams = np.linspace(0.0, 1.0, lam_points)
        for a in range(grid_size - 1):
            for lam in lams:
                first.append(a)
                second.append(a + 1)
                weight.append(float(lam))
        return CandidateFamily(np.asarray(first), np.asarray(second), np.asarray(weight))

    @property
    def count(self):
        return self.weight.size


def advance_guides(field, model, t0, t1, guides, fixed_idx, role,
                   slack, ode_step=0.01, lam_points=9):
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
    own_grid, fixed_grid = role_grids(model, role)
    own_values = own_grid.values()
    fixed_values = fixed_grid.values()[fixed_idx]
    family = CandidateFamily.build(own_values.size, lam_points)
    nc = family.count
    span = float(t1) - float(t0)
    if span <= 0.0:
        raise ValueError("need t1 > t0")

    # tile trial rows per candidate: row r*nc + c is candidate c of trial r
    states = np.repeat(guides, nc, axis=0)
    mix_a = np.tile(own_values[family.first_idx], n)
    mix_b = np.tile(own_values[family.second_idx], n)
    lam = np.tile(family.weight, n)
    fixed = np.repeat(fixed_values, nc)

    def velocity(t, x):
        return _hull_drift(model, t, x, mix_a, mix_b, lam, fixed, role)

    states = _flow(velocity, t0, t1, states, ode_step, "guide hull trajectory")

    value_start = field.eval_batch(t0, guides)
    end_values = field.eval_batch(t1, states).reshape(n, nc)
    if role == "first":
        best = np.argmin(end_values, axis=1)
    else:
        best = np.argmax(end_values, axis=1)
    rows = np.arange(n)
    value_end = end_values[rows, best]
    endpoints = states.reshape(n, nc, d)[rows, best]
    if role == "first":
        violation = value_end > value_start + slack
    else:
        violation = value_end < value_start - slack
    return endpoints, value_start, value_end, violation, best


def _hull_drift(model, t, states, mix_a, mix_b, lam, fixed, role):
    if role == "first":
        da = model.drift(t, states, mix_a, fixed)
        db = model.drift(t, states, mix_b, fixed)
    else:
        da = model.drift(t, states, fixed, mix_a)
        db = model.drift(t, states, fixed, mix_b)
    return lam[:, None] * da + (1.0 - lam[:, None]) * db


def _default_step_slack(field, model, t0, t1, constants):
    eps = monotonicity_tolerance(field, resolve_k(model, constants))
    return eps * (t1 - t0) / field.horizon


def guide_advance(field, model, t_star, t_plus, w_star, reply, role,
                  slack=None, constants=None, ode_step=0.01, lam_points=9):
    """One guide update with the opponent's announced ``reply`` held fixed.

    Role "first" rides the u-hull with v = ``reply`` and keeps the value
    from rising; role "second" rides the v-hull with u = ``reply`` and
    keeps it from falling. ``reply`` is a value on the opponent's grid, also
    when given as an integer.
    """
    reply = role_grids(model, role)[1].index_of(reply)
    if slack is None:
        slack = _default_step_slack(field, model, t_star, t_plus, constants)
    w = as_coords(w_star, model.dimension)
    endpoints, v0, v1, violation, cand = advance_guides(
        field, model, t_star, t_plus, w[None, :], np.array([reply]), role,
        slack=slack, ode_step=ode_step, lam_points=lam_points)
    return GuideStep(GuideState(endpoints[0], t_plus), float(v0[0]), float(v1[0]),
                     bool(violation[0]), int(cand[0]))
