"""Controlled rate-matrix models on the probability simplex.

A model supplies the transition-rate matrix Q(t, x, u, v) of the particle
system (a Kolmogorov matrix: nonnegative off-diagonals, zero row sums), the
control grids of both players, and the terminal payoff. Player 1 plays the
u grid and minimizes the expected terminal payoff; player 2 plays the v
grid and maximizes it.

Player 2's problem is player 1's on ``mirrored(model)``: u and v swapped
and the payoff negated. So the paper's corollary for the maximizing player
is its main theorem read through the mirror, and every rule downstream is
stated once, for player 1. Swapping arguments and negating round nothing,
so player 2's play on a model is player 1's on its mirror bit for bit.

A custom model implements two hooks, ``rate_matrix(t, x, u, v)`` and
``terminal_payoff(x)``, both broadcasting over leading axes, so that one
statement of the rates serves the single-candidate calls of the simulator
and the thousands of states per call of the solver and guide paths. The
grid, per-row and drift forms are derived from them; ``drift`` may be
overridden with a closed form when the derived one is too slow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .simplex import as_coords, project_rows, random_simplex_points

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ControlGrid:
    """Finite ordered set of control values for one player."""

    points: tuple

    def __init__(self, points):
        pts = tuple(float(p) for p in points)
        if not pts:
            raise ValueError("control grid must be non-empty")
        if len(set(pts)) != len(pts):
            raise ValueError("control grid points must be distinct")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def values(self):
        return np.asarray(self.points, dtype=float)

    def index_of(self, value, tol=1e-12):
        for i, p in enumerate(self.points):
            if abs(p - float(value)) <= tol:
                return i
        raise ValueError(f"{value!r} is not a grid point")


@dataclass(frozen=True)
class GammaTable:
    """Sampled modulus of continuity of the rates in time: delta -> max |Q(t+delta)-Q(t)|."""

    deltas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if d.shape != v.shape or d.ndim != 1 or d.size == 0:
            raise ValueError("gamma table needs matching 1-d delta and value arrays")
        if np.any(np.diff(d) <= 0):
            raise ValueError("gamma table deltas must be strictly increasing")
        if np.any(np.diff(v) < 0) or v[0] < 0:
            raise ValueError("gamma table values must be nonnegative and nondecreasing")
        d.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "deltas", d)
        object.__setattr__(self, "values", v)

    def at(self, delta):
        """Conservative lookup: value at the smallest tabulated delta >= the request."""
        if delta <= 0.0:
            return 0.0
        idx = int(np.searchsorted(self.deltas, delta, side="left"))
        if idx >= self.deltas.size:
            # beyond the table: extrapolate with the final slope, never downward
            last = self.values[-1]
            slope = last / self.deltas[-1] if self.deltas[-1] > 0 else 0.0
            return float(last + slope * (delta - self.deltas[-1]))
        return float(self.values[idx])

    @staticmethod
    def zero():
        return GammaTable(np.array([1.0]), np.array([0.0]))

    @staticmethod
    def linear(rate, deltas=None):
        d = np.asarray(deltas if deltas is not None else [1e-4, 1e-3, 1e-2, 1e-1, 1.0])
        return GammaTable(d, rate * d)


@dataclass(frozen=True)
class ModelConstants:
    """Bounds used by the coupling and guarantee checks.

    k bounds every |Q_ij|, l is a Lipschitz constant of y -> yQ on the
    simplex, r a Lipschitz constant of the terminal payoff, gamma a modulus
    of continuity of the rates in t.
    """

    k: float
    l: float
    r: float
    gamma: GammaTable = field(default_factory=GammaTable.zero)

    def __post_init__(self):
        if min(self.k, self.l, self.r) < 0:
            raise ValueError("model constants must be nonnegative")


class RateModel:
    """Base class for controlled rate-matrix models.

    Subclasses set ``dimension``, ``horizon``, ``u_grid`` and ``v_grid``
    and implement ``rate_matrix`` and ``terminal_payoff``. Both broadcast
    over leading axes: t, u and v are scalars or arrays of a leading shape
    S and x has shape S + (d,). ``rate_matrix`` returns S + (d, d) and may
    leave out or keep at size 1 the axes its rates do not depend on;
    ``terminal_payoff`` returns S. Every other form (the grid form, the
    per-row form and the drift xQ) is derived from these two hooks.

    ``drift`` may be overridden with a closed form for speed. A subclass
    that redefines ``rate_matrix`` without redefining ``drift`` gets the
    derived drift back, so an inherited closed form never describes other
    rates than the model's own.

    Optional exact-constant declarations (``declared_k`` etc.) take
    precedence over sampled estimates; ``gamma_rate`` declares
    |Q(t') - Q(t)| <= gamma_rate * |t' - t|.
    """

    name = "custom"
    dimension: int
    horizon: float
    u_grid: ControlGrid
    v_grid: ControlGrid
    declared_k: Optional[float] = None
    declared_l: Optional[float] = None
    declared_r: Optional[float] = None
    gamma_rate: Optional[float] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "rate_matrix" in vars(cls) and "drift" not in vars(cls):
            cls.drift = RateModel.drift

    # -- required -----------------------------------------------------------
    def rate_matrix(self, t, x, u, v):
        """Rate matrix Q(t, x, u, v), broadcast over leading axes: S + (d, d)."""
        raise NotImplementedError

    def terminal_payoff(self, x):
        """Terminal payoff of x, broadcast over leading axes: S."""
        raise NotImplementedError

    # -- optional -----------------------------------------------------------
    def drift(self, t, x, u, v):
        """Velocity xQ(t, x, u, v) of the normalized state: S + (d,)."""
        x = np.asarray(x, dtype=float)
        q = self.rate_matrix(t, x, u, v)
        d = x.shape[-1]
        if q.shape[:-2] != x.shape[:-1]:
            lead = np.broadcast_shapes(x.shape[:-1], q.shape[:-2])
            x = np.broadcast_to(x, lead + (d,))
            q = np.broadcast_to(q, lead + (d, d))
        # one flat row axis: einsum's broadcast ("...") loop is about twice as
        # slow on the value grid, and the flat contraction rounds identically
        rows = np.einsum("ni,nij->nj", x.reshape(-1, d), q.reshape(-1, d, d))
        return rows.reshape(x.shape)

    # -- derived forms ------------------------------------------------------
    def rate_matrix_multi(self, t, xs, u, v):
        """Q at many states: (n, d, d); t, u and v scalar or per row."""
        xs = np.asarray(xs, dtype=float)
        return np.broadcast_to(self.rate_matrix(t, xs, u, v), xs.shape + xs.shape[-1:])

    def rate_matrix_grid_multi(self, t, xs):
        """Q over the control grids at many states: (n, nu, nv, d, d); t scalar or (n,)."""
        args, shape = self._grid_args(t, xs)
        return np.broadcast_to(self.rate_matrix(*args), shape + (self.dimension,) * 2)

    def drift_grid_multi(self, t, xs):
        """xQ over the control grids at many states: (n, nu, nv, d); t scalar or (n,)."""
        args, shape = self._grid_args(t, xs)
        return np.broadcast_to(self.drift(*args), shape + (self.dimension,))

    def _grid_args(self, t, xs):
        xs = np.asarray(xs, dtype=float)
        uu = self.u_grid.values()
        vv = self.v_grid.values()
        args = (np.asarray(t, dtype=float)[..., None, None], xs[:, None, None, :], uu[:, None], vv)
        return args, (xs.shape[0], uu.size, vv.size)


# -- the mirror ----------------------------------------------------------------


class MirroredModel(RateModel):
    """``base`` with the players' seats swapped and the payoff negated.

    Player 1 of the mirror is player 2 of ``base``: it plays ``base.v_grid``
    and, by minimizing the negated payoff, maximizes the base payoff. The
    declared constants carry over, since swapping the controls and negating
    the payoff change no bound.
    """

    def __init__(self, base):
        self.base = base
        self.name = f"mirrored({base.name})"
        self.dimension = base.dimension
        self.horizon = base.horizon
        self.u_grid, self.v_grid = base.v_grid, base.u_grid
        self.declared_k = base.declared_k
        self.declared_l = base.declared_l
        self.declared_r = base.declared_r
        self.gamma_rate = base.gamma_rate

    def rate_matrix(self, t, x, u, v):
        return self.base.rate_matrix(t, x, v, u)

    def drift(self, t, x, u, v):
        return self.base.drift(t, x, v, u)

    def terminal_payoff(self, x):
        return -self.base.terminal_payoff(x)


def mirrored(model):
    """The game player 2 of ``model`` plays as player 1; its own inverse."""
    return model.base if isinstance(model, MirroredModel) else MirroredModel(model)


# -- derived quantities --------------------------------------------------------


def resolve_k(model, constants=None):
    """The rate bound K: ``constants.k``, else the declared bound, else a sampled estimate."""
    if constants is not None:
        return constants.k
    if model.declared_k is not None:
        return model.declared_k
    return estimate_constants(model).constants.k


def control_surface(model, t, x, xi):
    """<xi, xQ(t, x, u, v)> over the control grids as an (nu, nv) array."""
    coords = as_coords(x, model.dimension)
    drifts = model.drift_grid_multi(t, coords[None, :])[0]
    return drifts @ np.asarray(xi, dtype=float)


def hamiltonian(model, t, x, xi):
    """min over u of max over v of <xi, xQ(t, x, u, v)> on the grids."""
    s = control_surface(model, t, x, xi)
    return float(s.max(axis=1).min())


def isaacs_gap(model, t, x, xi):
    """Gap between the two enumeration orders of the control surface (always >= 0)."""
    s = control_surface(model, t, x, xi)
    return float(s.max(axis=1).min() - s.min(axis=0).max())


# -- structural validation -----------------------------------------------------


@dataclass
class RateModelReport:
    """Outcome of sampling-based structural checks of a rate model."""

    samples: int
    max_row_sum_dev: float
    min_off_diagonal: float
    worst_row_sum_sample: tuple
    worst_off_diagonal_sample: tuple
    passed: bool
    failure: Optional[str] = None


def validate_rate_model(model, samples, seed=0, row_sum_tol=ROW_SUM_TOL):
    """Check the Kolmogorov-matrix conditions at random (t, x) samples.

    Every control-grid pair is evaluated at each sampled (t, x). Passes iff
    the worst |row sum| is within tolerance and no off-diagonal is negative.
    """
    rng = np.random.default_rng(seed)
    d = model.dimension
    off_mask = ~np.eye(d, dtype=bool)
    max_dev = 0.0
    min_off = np.inf
    worst_dev_sample = None
    worst_off_sample = None
    remaining = int(samples)
    while remaining > 0:
        chunk = min(remaining, 2048)
        remaining -= chunk
        ts = rng.uniform(0.0, model.horizon, size=chunk)
        xs = random_simplex_points(rng, chunk, d)
        try:
            rates = model.rate_matrix_grid_multi(ts, xs)
        except Exception:
            tup = _locate_eval_failure(model, ts, xs)
            return RateModelReport(samples, np.nan, np.nan, tup, tup, False,
                                   failure=f"evaluation failed at {tup}")
        row_sums = rates.sum(axis=-1)
        dev = np.abs(row_sums)
        flat = int(np.argmax(dev))
        if dev.flat[flat] > max_dev:
            max_dev = float(dev.flat[flat])
            worst_dev_sample = _unravel_sample(model, ts, xs, dev.shape, flat)
        offs = np.where(off_mask[None, None, None], rates, np.inf)
        flat = int(np.argmin(offs))
        if offs.flat[flat] < min_off:
            min_off = float(offs.flat[flat])
            worst_off_sample = _unravel_sample(model, ts, xs, offs.shape[:3], flat // (d * d))
    passed = max_dev <= row_sum_tol and min_off >= 0.0
    failure = None
    if min_off < 0.0:
        failure = "negative off-diagonal"
    elif max_dev > row_sum_tol:
        failure = "row sums deviate from zero"
    return RateModelReport(int(samples), max_dev, float(min_off),
                           worst_dev_sample, worst_off_sample, passed, failure)


def _unravel_sample(model, ts, xs, shape, flat_index):
    idx = np.unravel_index(flat_index, shape)
    n = idx[0]
    return (float(ts[n]), xs[n].copy(),
            model.u_grid[idx[1]] if len(idx) > 1 else None,
            model.v_grid[idx[2]] if len(idx) > 2 else None)


def _locate_eval_failure(model, ts, xs):
    for t, x in zip(ts, xs):
        for u in model.u_grid.points:
            for v in model.v_grid.points:
                try:
                    model.rate_matrix(t, x, u, v)
                except Exception:
                    return (float(t), x.copy(), u, v)
    return (float(ts[0]), xs[0].copy(), None, None)


# -- constants estimation --------------------------------------------------------


@dataclass(frozen=True)
class SamplingSpec:
    """How hard to sample when estimating model constants."""

    samples: int = 4096
    pair_samples: int = 4096
    fd_spacing: float = 1e-4
    gamma_deltas: tuple = (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1.0)


@dataclass
class ConstantsReport:
    constants: ModelConstants
    sampled: dict
    declared: dict
    witnesses: dict


def estimate_constants(model, spec=SamplingSpec(), seed=0):
    """Estimate (K, L, R, gamma) by sampling; declared exact values win.

    K is the largest sampled |Q_ij|, L the steepest sampled slope of
    y -> yQ between simplex points, R the analogous slope of the payoff.
    The witnesses record where each maximum was attained.
    """
    rng = np.random.default_rng(seed)
    d = model.dimension
    witnesses = {}

    ts = rng.uniform(0.0, model.horizon, size=spec.samples)
    xs = random_simplex_points(rng, spec.samples, d)
    rates = model.rate_matrix_grid_multi(ts, xs)
    mags = np.abs(rates)
    flat = int(np.argmax(mags))
    sampled_k = float(mags.flat[flat])
    witnesses["k"] = _unravel_sample(model, ts, xs, mags.shape[:3], flat // (d * d))

    m = spec.pair_samples
    y1 = random_simplex_points(rng, m, d)
    y2 = np.empty_like(y1)
    half = m // 2
    y2[:half] = random_simplex_points(rng, half, d)
    noise = rng.standard_normal((m - half, d))
    noise -= noise.mean(axis=1, keepdims=True)
    nearby = y1[half:] + spec.fd_spacing * noise
    project_rows(nearby)
    y2[half:] = nearby
    tp = rng.uniform(0.0, model.horizon, size=m)
    gap = np.linalg.norm(y1 - y2, axis=1)
    ok = gap > 1e-12
    d1 = model.drift_grid_multi(tp, y1)
    d2 = model.drift_grid_multi(tp, y2)
    slopes = np.linalg.norm(d1 - d2, axis=-1) / np.where(ok, gap, np.inf)[:, None, None]
    flat = int(np.argmax(slopes))
    sampled_l = float(slopes.flat[flat])
    idx = np.unravel_index(flat, slopes.shape)
    witnesses["l"] = (float(tp[idx[0]]), y1[idx[0]].copy(), y2[idx[0]].copy(),
                      model.u_grid[idx[1]], model.v_grid[idx[2]])

    s1 = model.terminal_payoff(y1)
    s2 = model.terminal_payoff(y2)
    payoff_slopes = np.abs(s1 - s2) / np.where(ok, gap, np.inf)
    flat = int(np.argmax(payoff_slopes))
    sampled_r = float(payoff_slopes[flat])
    witnesses["r"] = (y1[flat].copy(), y2[flat].copy())

    if model.gamma_rate is not None:
        gamma = GammaTable.linear(model.gamma_rate)
        sampled_gamma = None
    else:
        deltas = np.array([dl for dl in spec.gamma_deltas if dl <= model.horizon] or [model.horizon])
        values = np.zeros_like(deltas)
        n = max(spec.samples // max(deltas.size, 1), 64)
        running = 0.0
        for i, dl in enumerate(deltas):
            t0 = rng.uniform(0.0, max(model.horizon - dl, 0.0), size=n)
            xg = random_simplex_points(rng, n, d)
            r0 = model.rate_matrix_grid_multi(t0, xg)
            r1 = model.rate_matrix_grid_multi(t0 + dl, xg)
            running = max(running, float(np.max(np.abs(r1 - r0))))
            values[i] = running
        gamma = GammaTable(deltas, values)
        sampled_gamma = gamma

    declared = {"k": model.declared_k, "l": model.declared_l, "r": model.declared_r}
    constants = ModelConstants(
        k=model.declared_k if model.declared_k is not None else sampled_k,
        l=model.declared_l if model.declared_l is not None else sampled_l,
        r=model.declared_r if model.declared_r is not None else sampled_r,
        gamma=gamma,
    )
    sampled = {"k": sampled_k, "l": sampled_l, "r": sampled_r, "gamma": sampled_gamma}
    return ConstantsReport(constants, sampled, declared, witnesses)


def coupling_constants(model, constants):
    """Growth rate and noise coefficient of the one-step coupling estimate."""
    beta = 2.0 * constants.l
    c = 2.0 * model.dimension ** 2 * constants.k
    return beta, c


def modulus_rho(model, constants, delta):
    """Joint (t, y) modulus of y -> yQ over |t'-t| <= delta, ||y'-y|| <= delta*K*sqrt(d)."""
    d = model.dimension
    return constants.l * constants.k * np.sqrt(d) * delta + np.sqrt(d) * constants.gamma.at(delta)


def coupling_allowance(model, constants, h, delta):
    """Model-derived o(1) coefficient for the residual term of the one-step estimate.

    Scales the second-order single-step expansion error (which grows like
    1/h) and the drift modulus into the per-delta allowance used when the
    coupling inequality is checked at finite step sizes.
    """
    d = model.dimension
    alpha = 2.0 * constants.k ** 2 * d ** 2 * delta / h + 2.0 * d * constants.gamma.at(delta) / h
    return 6.0 * d ** 3 * alpha + np.sqrt(2.0 * d) * modulus_rho(model, constants, delta)


# -- bundled models --------------------------------------------------------------


class ZeroModel(RateModel):
    """Q identically zero: nothing ever jumps. Useful as a degenerate baseline."""

    name = "zero"
    declared_k = 0.0
    declared_l = 0.0
    declared_r = 1.0
    gamma_rate = 0.0

    def __init__(self, dimension=2, horizon=1.0, payoff_coordinate=0):
        self.dimension = int(dimension)
        self.horizon = float(horizon)
        self.u_grid = ControlGrid((0.0, 1.0))
        self.v_grid = ControlGrid((0.0, 1.0))
        self.payoff_coordinate = int(payoff_coordinate)
        if not 0 <= self.payoff_coordinate < self.dimension or self.dimension < 2:
            raise ValueError("need dimension >= 2 and 0 <= payoff_coordinate < dimension")

    def rate_matrix(self, t, x, u, v):
        return np.zeros(np.broadcast(u, v).shape + (self.dimension, self.dimension))

    def terminal_payoff(self, x):
        return np.asarray(x, dtype=float)[..., self.payoff_coordinate]


class TwoTypeModel(RateModel):
    """Two particle types with directly opposed conversion controls.

    Player 1's control u is the conversion rate of type-1 particles into
    type 2; player 2's control v converts type 2 back into type 1. The
    payoff is the final fraction of type-1 particles, so player 1 drains
    type 1 and player 2 replenishes it. With unit control ceilings the
    saturated flow contracts toward the 50/50 mix at rate 2, which gives
    this model a closed-form optimal trajectory used heavily in tests.
    """

    name = "two-type"
    dimension = 2

    def __init__(self, horizon=1.0, u_levels=(0.0, 0.5, 1.0), v_levels=(0.0, 0.5, 1.0)):
        self.horizon = float(horizon)
        self.u_grid = ControlGrid(u_levels)
        self.v_grid = ControlGrid(v_levels)
        u_max = max(abs(p) for p in self.u_grid.points)
        v_max = max(abs(p) for p in self.v_grid.points)
        if min(self.u_grid.points) < 0 or min(self.v_grid.points) < 0:
            raise ValueError("conversion rates must be nonnegative")
        self.declared_k = max(u_max, v_max)
        self.declared_l = u_max + v_max
        self.declared_r = 1.0
        self.gamma_rate = 0.0

    def rate_matrix(self, t, x, u, v):
        # rates depend on the controls only; the simulator calls this per
        # thinning candidate, so the leading shape is taken from u and v alone
        q = np.empty(np.broadcast(u, v).shape + (2, 2))
        q[..., 0, 0] = -u
        q[..., 0, 1] = u
        q[..., 1, 0] = v
        q[..., 1, 1] = -v
        return q

    def drift(self, t, x, u, v):
        # closed form of xQ: the derived einsum form is far slower on the
        # guide and value-solve paths. Rounding is symmetric, so column 1,
        # x0*u - x1*v, is the negated flow; subtracting it from +0.0 also
        # gives an exact zero the einsum's + sign
        x = np.asarray(x, dtype=float)
        flow = -x[..., 0] * u + x[..., 1] * v
        out = np.empty(flow.shape + (2,))
        out[..., 0] = flow
        np.subtract(0.0, flow, out=out[..., 1])
        return out

    def terminal_payoff(self, x):
        return np.asarray(x, dtype=float)[..., 0]


class ThreeTypeRotorModel(RateModel):
    """Three types in a time-modulated, state-coupled conversion cycle.

    Exercises the time-inhomogeneous and mean-field-coupled code paths:
    the 1->2 and 3->1 rates breathe periodically in t, the 2->3 rate grows
    with the current type-1 mass, and the 2->1 rate is damped by the type-3
    mass. Player 1 (u) feeds the cycle toward type 3, player 2 (v) pulls
    mass back toward type 1; the payoff is the final type-3 fraction.
    """

    name = "three-type"
    dimension = 3
    declared_k = 1.0
    declared_r = 1.0
    gamma_rate = 0.5 * np.pi  # |dQ/dt| <= pi/2 for every entry

    def __init__(self, horizon=1.0, u_levels=(0.0, 0.5, 1.0), v_levels=(0.0, 0.5, 1.0)):
        self.horizon = float(horizon)
        self.u_grid = ControlGrid(u_levels)
        self.v_grid = ControlGrid(v_levels)
        if max(self.u_grid.points) > 1.0 or max(self.v_grid.points) > 1.0 or \
           min(self.u_grid.points) < 0.0 or min(self.v_grid.points) < 0.0:
            raise ValueError("control levels must lie in [0, 1] for the declared rate bound")

    @staticmethod
    def _pulse(t):
        s = np.sin(np.pi * np.asarray(t))
        return 0.6 + 0.4 * s * s

    @staticmethod
    def _counter_pulse(t):
        c = np.cos(np.pi * np.asarray(t))
        return 0.5 + 0.5 * c * c

    def _rates(self, t, x, u, v):
        """The four off-diagonal rates (q01, q12, q10, q20), each in its own broadcast shape."""
        return (u * self._pulse(t), 0.3 + 0.5 * u * x[..., 0],
                0.2 * v * (1.0 - x[..., 2]), v * self._counter_pulse(t))

    def rate_matrix(self, t, x, u, v):
        x = np.asarray(x, dtype=float)
        q01, q12, q10, q20 = self._rates(t, x, u, v)
        q = np.zeros(np.broadcast(q01, q12, q10, q20).shape + (3, 3))
        q[..., 0, 1] = q01
        q[..., 1, 2] = q12
        q[..., 1, 0] = q10
        q[..., 2, 0] = q20
        q[..., 0, 0] = -q[..., 0, 1]
        q[..., 1, 1] = -(q[..., 1, 0] + q[..., 1, 2])
        q[..., 2, 2] = -q[..., 2, 0]
        return q

    def drift(self, t, x, u, v):
        # closed form of xQ without the (..., 3, 3) rate tensor. Column j is
        # x0*Q0j + x1*Q1j + x2*Q2j added left to right, zero entries included,
        # the einsum's order, so on nonnegative coordinates both agree byte for byte
        x = np.asarray(x, dtype=float)
        q01, q12, q10, q20 = self._rates(t, x, u, v)
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        out = np.empty(np.broadcast(x0, q01, q12, q10, q20).shape + (3,))
        out[..., 0] = x0 * -q01 + x1 * q10 + x2 * q20
        out[..., 1] = x0 * q01 + x1 * -(q10 + q12) + x2 * 0.0
        out[..., 2] = x0 * 0.0 + x1 * q12 + x2 * -q20
        return out

    def terminal_payoff(self, x):
        return np.asarray(x, dtype=float)[..., 2]


# -- registry ---------------------------------------------------------------------

MODEL_REGISTRY: dict[str, Callable[..., RateModel]] = {}


def register_model(name, factory):
    """Register a model factory; scenario files select models by this name."""
    MODEL_REGISTRY[name] = factory


def build_model(name, params=None):
    if name not in MODEL_REGISTRY:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ValueError(f"unknown model {name!r}; registered models: {known}")
    return MODEL_REGISTRY[name](**(params or {}))


register_model("zero", ZeroModel)
register_model("two-type", TwoTypeModel)
register_model("three-type", ThreeTypeRotorModel)
