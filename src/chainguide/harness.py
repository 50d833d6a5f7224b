"""Scenario-driven Monte Carlo experiments and verification checks.

Everything here is deterministic for a fixed scenario seed: each block of
trials draws from one generator keyed by the block, the blocks are cut
from the scenario alone, aggregation happens over arrays assembled in
trial order, and the emitted files contain no timestamps or
environment-dependent content, so reruns and different worker counts
produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import asdict, dataclass, field as dataclass_field
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .chain import (
    _evolve_laws,
    _LatticeGenerator,
    default_ode_step,
    dynkin_residual,
    master_evolve,
    sample_final_distribution,
    simulate_chain,
)
from .guide import ODE_STEP, CandidateFamily, advance_guides
from .models import (
    ModelConstants,
    RateModel,
    build_model,
    coupling_allowance,
    coupling_constants,
    estimate_constants,
    mirrored,
)
from .simplex import rk4_step_count, round_to_lattice
from .strategy import (
    ConstantPolicy,
    ControlWithGuideStrategy,
    GreedyPolicy,
    Partition,
    RandomPolicy,
    extremal_indices,
    run_episodes,
)
from .value import (
    LATTICE_CAP,
    SOLVE_BLOCK_POINTS,
    SimplexGrid,
    ValueField,
    build_simplex_grid,
    check_step,
    lattice_size,
    solve_value,
    verify_supersolution,
)

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

# the most work one command may imply, in expected thinning candidates,
# partition steps times episode rows and RK4 node-steps (steps times lattice
# nodes); checked before anything runs
WORK_BUDGET = 10**8
# a thinning round, an episode block's partition step (guide advance and
# control choice) and an RK4 step each pay a fixed cost, so a narrow one
# counts as this wide: the fixed cost over the cost per row or per node,
# timed with timeit on a 2-core Xeon. A round took about 40-55 us plus
# 66-100 ns per candidate, an RK4 step about 67-190 us plus 0.12-0.4 us per
# node. A lemma-1 run of 186 780 two-node RK4 steps took about 118 us per
# step, some 1200 candidates' time. A partition step of a one-trial
# two-type block at M = 20 took about 450 us, some 4000 candidates' time
THINNING_FLOOR_ROWS = 500
RK4_FLOOR_NODES = 1200
STEP_FLOOR_ROWS = 4000


class ScenarioError(ValueError):
    """A scenario file failed validation."""


_ADVERSARY_KEYS = {"kind", "value"}
# every adversary kind, and how to build it as player 1 of its view (field, model)
_ADVERSARIES = {
    "extremal": lambda spec, field, model, constants: ControlWithGuideStrategy(
        field, model, constants),
    "constant": lambda spec, field, model, constants: ConstantPolicy(spec["value"]),
    "random": lambda spec, field, model, constants: RandomPolicy(model.u_grid),
    "greedy": lambda spec, field, model, constants: GreedyPolicy(model),
}
_TOP_KEYS = {
    "model", "model_params", "particle_counts", "partition_steps",
    "initial_state", "start_time", "trials", "adversaries", "value_grid",
    "seed", "out", "lemma1", "lemma2", "oracle", "simulate",
}
_VALUE_GRID_KEYS = {"n_x", "n_t"}


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value):
    return ((_is_int(value) or isinstance(value, (float, np.floating)))
            and math.isfinite(value))


def _positive_ints(value, name):
    if _is_int(value):
        value = [int(value)]
    if not (isinstance(value, list) and value and all(_is_int(v) and v >= 1 for v in value)):
        raise ScenarioError(f"{name} must be a non-empty list of positive integers")
    return value


_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_INDEX = (lambda v: _is_int(v) and v >= 0, "a nonnegative integer")
_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_DELTAS = (lambda v: (isinstance(v, list) and bool(v) and all(_is_number(x) and x > 0 for x in v)
                      and len(set(v)) == len(v)), "a non-empty list of distinct positive numbers")
_COUNTS = (lambda v: (isinstance(v, list) and all(_is_int(c) and c >= 0 for c in v)
                      and sum(v) > 0), "nonnegative integer counts with a positive total")
_MAPPING = (lambda v: isinstance(v, dict), "a mapping")

# every key a sub-section may carry, with the check its value must pass
_LEMMA1_SPEC = {"particle_count": _POSITIVE_INT, "state": _COUNTS, "u": _NUMBER,
                "v": _NUMBER, "deltas": _DELTAS, "min_ratio": _NUMBER}
_LEMMA2_SPEC = {"particle_count": _POSITIVE_INT, "pairs": _POSITIVE_INT, "deltas": _DELTAS,
                "trials_per_pair": _POSITIVE_INT}
_ORACLE_SPEC = {"particle_count": _POSITIVE_INT, "trials": _POSITIVE_INT, "u": _NUMBER,
                "v": _NUMBER, "elapsed": _POSITIVE, "tv_tolerance": _NUMBER,
                "unit_check": _FLAG, "dynkin": _MAPPING}
_DYNKIN_SPEC = {"coordinate": _INDEX, "elapsed": _POSITIVE, "ode_step": _POSITIVE,
                "tolerance": _NUMBER, "particle_count": _POSITIVE_INT}
_SIMULATE_SPEC = {"episodes": _POSITIVE_INT, "record_jumps": _FLAG,
                  "adversary_index": _INDEX, "particle_count": _POSITIVE_INT,
                  "partition_step_count": _POSITIVE_INT}


def _check_section(mapping, spec, where):
    _check_keys(mapping, set(spec), where)
    for key, value in mapping.items():
        valid, meaning = spec[key]
        if not valid(value):
            raise ScenarioError(f"{where}.{key} must be {meaning}, got {value!r}")


def _check_on_grid(value, grid, where):
    try:
        grid.index_of(value)
    except ValueError:
        raise ScenarioError(f"{where} must be a point of the control grid "
                            f"{list(grid.points)}, got {value!r}") from None


def _check_lattice(dimension, total, where):
    """A lattice the scenario asks for must be within LATTICE_CAP nodes."""
    nodes = lattice_size(dimension, total)
    if nodes > LATTICE_CAP:
        raise ScenarioError(f"{where} {total} needs a count lattice of {nodes} nodes over "
                            f"{dimension} types; the cap is {LATTICE_CAP}")


@dataclass
class Scenario:
    """Resolved experiment configuration (file keys mirror the field names)."""

    model: str
    model_params: dict = dataclass_field(default_factory=dict)
    particle_counts: list = dataclass_field(default_factory=lambda: [20, 40, 80, 160])
    partition_steps: list = dataclass_field(default_factory=lambda: [200])
    initial_state: list = dataclass_field(default_factory=lambda: [1.0, 0.0])
    start_time: float = 0.0
    trials: int = 2000
    adversaries: list = dataclass_field(default_factory=lambda: [{"kind": "extremal"}])
    value_grid: dict = dataclass_field(default_factory=lambda: {"n_x": 200, "n_t": 200})
    seed: int = 0
    out: Optional[str] = None
    lemma1: dict = dataclass_field(default_factory=dict)
    lemma2: dict = dataclass_field(default_factory=dict)
    oracle: dict = dataclass_field(default_factory=dict)
    simulate: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        self.particle_counts = _positive_ints(self.particle_counts, "particle_counts")
        self.partition_steps = _positive_ints(self.partition_steps, "partition_steps")
        if not _is_int(self.trials) or self.trials < 1:
            raise ScenarioError("trials must be a positive integer")
        if not _is_int(self.seed) or self.seed < 0:
            raise ScenarioError("seed must be a nonnegative integer")
        if self.out is not None and not isinstance(self.out, str):
            raise ScenarioError("out must be a path prefix string")
        if not isinstance(self.model_params, dict):
            raise ScenarioError("model_params must be a mapping")
        try:
            model = build_model(self.model, self.model_params)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"cannot build model {self.model!r}: {exc}") from exc
        if not (_is_number(model.horizon) and model.horizon > 0):
            raise ScenarioError(f"model horizon must be positive and finite, got {model.horizon}")
        state = self.initial_state
        if not (isinstance(state, (list, tuple)) and len(state) >= 2
                and all(_is_number(c) and c >= 0 for c in state)
                and abs(sum(state) - 1.0) <= 1e-6):
            raise ScenarioError("initial_state must be nonnegative numbers summing to 1")
        if not (_is_number(self.start_time) and 0 <= self.start_time < model.horizon):
            raise ScenarioError(f"start_time must lie in [0, {model.horizon})")
        _check_keys(self.value_grid, _VALUE_GRID_KEYS, "value_grid")
        n_x, n_t = (self.value_grid.get(key) for key in ("n_x", "n_t"))
        if not (_is_int(n_x) and n_x >= 2 and _is_int(n_t) and n_t >= 1):
            raise ScenarioError("value_grid needs integers n_x >= 2 and n_t >= 1")
        _check_lattice(model.dimension, n_x, "value_grid.n_x")
        if not (isinstance(self.adversaries, list) and self.adversaries):
            raise ScenarioError("adversaries must be a non-empty list")
        for adv in self.adversaries:
            _check_keys(adv, _ADVERSARY_KEYS, "adversaries")
            if not (isinstance(adv.get("kind"), str) and adv["kind"] in _ADVERSARIES):
                raise ScenarioError(f"unknown adversary kind {adv.get('kind')!r}")
            if adv["kind"] == "constant" and not _is_number(adv.get("value")):
                raise ScenarioError("constant adversary needs a numeric 'value'")
        _check_section(self.lemma1, _LEMMA1_SPEC, "lemma1")
        _check_section(self.lemma2, _LEMMA2_SPEC, "lemma2")
        _check_section(self.oracle, _ORACLE_SPEC, "oracle")
        _check_section(self.oracle.get("dynkin", {}), _DYNKIN_SPEC, "oracle.dynkin")
        _check_section(self.simulate, _SIMULATE_SPEC, "simulate")
        if "state" in self.lemma1:
            state = self.lemma1["state"]
            if len(state) != model.dimension:
                raise ScenarioError(f"lemma1.state must have {model.dimension} counts")
            if self.lemma1.get("particle_count", sum(state)) != sum(state):
                raise ScenarioError(
                    f"lemma1.particle_count must equal sum(lemma1.state) = {sum(state)}")
        # the lattice totals a section states outright; a command that falls
        # back on particle_counts[0] checks that total in _setup
        lemma1_total = (sum(self.lemma1["state"]) if "state" in self.lemma1
                        else self.lemma1.get("particle_count"))
        for where, total in (
                ("oracle.particle_count", self.oracle.get("particle_count")),
                ("oracle.dynkin.particle_count",
                 self.oracle.get("dynkin", {}).get("particle_count")),
                ("lemma1 particle total", lemma1_total),
                ("lemma2.particle_count", self.lemma2.get("particle_count"))):
            if total is not None:
                _check_lattice(model.dimension, total, where)
        if self.oracle.get("dynkin", {}).get("coordinate", 0) >= model.dimension:
            raise ScenarioError(f"oracle.dynkin.coordinate must be below {model.dimension}")
        if self.simulate.get("adversary_index", 0) >= len(self.adversaries):
            raise ScenarioError(
                f"simulate.adversary_index must be below {len(self.adversaries)}")
        for key, grid in (("u", model.u_grid), ("v", model.v_grid)):
            for where, section in (("oracle", self.oracle), ("lemma1", self.lemma1)):
                if key in section:
                    _check_on_grid(section[key], grid, f"{where}.{key}")
        for key, section in (("oracle", self.oracle),
                             ("oracle.dynkin", self.oracle.get("dynkin", {}))):
            if self.start_time + section.get("elapsed", 0.0) > model.horizon + 1e-12:
                raise ScenarioError(
                    f"start_time + {key}.elapsed must not pass the horizon {model.horizon}")
        if max(self.lemma2.get("deltas", [0.0])) > model.horizon:
            raise ScenarioError(f"lemma2.deltas must not exceed the horizon {model.horizon}")

    @staticmethod
    def from_dict(payload):
        if not isinstance(payload, dict):
            raise ScenarioError("scenario must be a mapping")
        _check_keys(payload, _TOP_KEYS, "scenario")
        if "model" not in payload:
            raise ScenarioError("scenario needs a 'model' name")
        return Scenario(**payload)

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ScenarioError(f"scenario file is not valid UTF-8 JSON: {exc}") from exc
        return Scenario.from_dict(payload)

    def to_dict(self):
        return asdict(self)


@dataclass
class ExperimentResult:
    """Rows plus summary for one command run; emitted as a table and a summary file."""

    kind: str
    columns: list
    rows: list
    summary: dict
    passed: bool


def _result(kind, scenario, columns, rows, passed, **extra):
    """A command's result; every summary leads with the same keys and ends with ``passed``."""
    passed = bool(passed)
    summary = {"kind": kind, "library_version": __version__,
               "scenario": scenario.to_dict(), **extra, "passed": passed}
    return ExperimentResult(kind, columns, rows, summary, passed)


def _thinning_work(model, k, trials, total, span):
    """Expected thinning candidates of ``trials`` chains of ``total`` particles over ``span``.

    Each candidate round is counted at least THINNING_FLOOR_ROWS wide.
    """
    return max(trials, THINNING_FLOOR_ROWS) * (model.dimension - 1) * k * total * span


def _step_work(steps, trials, block):
    """Rows of ``steps`` partition steps of ``trials`` trials in blocks of ``block``.

    Each step of each block is counted at least STEP_FLOOR_ROWS wide.
    """
    full, rest = divmod(trials, block)
    floor = STEP_FLOOR_ROWS
    return steps * (full * max(block, floor) + (rest and max(rest, floor)))


def _sem(samples):
    """Standard error of the mean of ``samples``: 0 for one sample, which shows no spread."""
    n = samples.size
    return float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _rk4_work(model, total, span, step, laws=1):
    """Node-steps of RK4 over ``span`` for ``laws`` laws on the lattice of ``total`` particles.

    Each step is counted at least RK4_FLOOR_NODES wide.
    """
    return rk4_step_count(span, step) * max(laws * lattice_size(model.dimension, total),
                                            RK4_FLOOR_NODES)


class _ExperimentSetup(NamedTuple):
    """What a command's work shares: built, checked and solved once."""

    scenario: Scenario
    model: RateModel
    constants: ModelConstants
    field: Optional[ValueField]
    starts: dict  # particle total -> the start mix rounded onto its lattice, a count row


def _setup(scenario, totals=(), adversary_seat=None, solve=True, lattices=(), work=None):
    """Build the model, check the scenario against it, then estimate and solve.

    Every check on the scenario alone runs before ``estimate_constants``: a
    command that rounds the start mix (``totals`` non-empty) needs one
    coordinate per type, a constant adversary in ``adversary_seat`` (1 or 2)
    must play a point of that player's control grid, and the particle
    totals whose whole count lattice the command enumerates (``lattices``)
    must be within the lattice cap. The estimate and the solve bracket the
    checks of the guides' RK4 step (with ``adversary_seat``), the time step
    and the command's implied work, ``work(model, K)``, against WORK_BUDGET.
    """
    model = build_model(scenario.model, scenario.model_params)
    for total in lattices:
        _check_lattice(model.dimension, total, "particle total")
    if totals and len(scenario.initial_state) != model.dimension:
        raise ScenarioError(f"initial_state has {len(scenario.initial_state)} coordinates, "
                            f"model {scenario.model!r} has {model.dimension} types")
    if adversary_seat is not None:
        grid = (model.u_grid, model.v_grid)[adversary_seat - 1]
        for spec in scenario.adversaries:
            if spec["kind"] == "constant":
                _check_on_grid(spec["value"], grid,
                               f"constant adversary (player {adversary_seat})")
    starts = {total: round_to_lattice(scenario.initial_state, total) for total in totals}
    constants = estimate_constants(model, seed=scenario.seed).constants
    try:
        if adversary_seat is not None:
            check_step(model, ODE_STEP, constants.k, interpolated=False, what="guide RK4 step")
        if solve:
            check_step(model, model.horizon / scenario.value_grid["n_t"], constants.k,
                       what="value_grid.n_t time step")
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    implied = work(model, constants.k) if work is not None else 0
    if implied > WORK_BUDGET:
        raise ScenarioError(f"the scenario implies about {implied:.3g} thinning candidates, "
                            f"partition-step rows and RK4 node-steps at K = "
                            f"{constants.k:.6g}; the budget is {WORK_BUDGET:.0e}")
    field = None
    if solve:
        grid = build_simplex_grid(model.dimension, scenario.value_grid["n_x"])
        field = solve_value(model, scenario.value_grid["n_t"], grid, constants)
    return _ExperimentSetup(scenario, model, constants, field, starts)


def adversary_label(spec):
    if spec["kind"] == "constant":
        return f"constant({spec['value']})"
    return spec["kind"]


def _seat_view(seat, field, model):
    """(field, model) of the game the player in ``seat`` plays as player 1.

    Player 2 maximizes the payoff of ``model``, which is player 1's problem
    on ``mirrored(model)`` read with the negated field.
    """
    if seat == 1:
        return field, model
    return field.negated(), mirrored(model)


def _build_adversary(spec, field, model, constants):
    """The adversary of ``spec`` as player 1 of its view ``(field, model)``."""
    return _ADVERSARIES[spec["kind"]](spec, field, model, constants)


# -- experiment trial fan-out -----------------------------------------------------


# the setup of the experiment a pool worker serves; set once per worker process
_worker_setup = None


def _init_worker(setup):
    global _worker_setup
    _worker_setup = setup


def _run_trial_block(setup, m_steps, adv_index, seat, lo, block):
    """Run one block of trials as one episode batch, the guided player in ``seat``.

    ``block`` lists (configuration index, particle count, trial) entries of
    configurations that share ``m_steps`` and the adversary, and starts at
    entry ``lo`` of their pooled trial list. The whole block draws from one
    generator, ``np.random.default_rng([seed, m_steps, adv_index, lo])``,
    so a trial's results depend on its block; ``_collect_trials`` cuts the
    blocks from the scenario alone.
    """
    scenario, model, constants, field, starts = setup
    partition = Partition.uniform(scenario.start_time, model.horizon, m_steps)
    guided = ControlWithGuideStrategy(*_seat_view(seat, field, model), constants)
    adversary = _build_adversary(scenario.adversaries[adv_index],
                                 *_seat_view(3 - seat, field, model), constants)
    player1, player2 = (guided, adversary) if seat == 1 else (adversary, guided)
    ys = np.array([starts[particle_count] for _, particle_count, _ in block])
    rng = np.random.default_rng([scenario.seed, m_steps, adv_index, lo])
    batch = run_episodes(model, ys, partition, player1, player2, rng,
                         rate_bound=constants.k)
    return batch.payoffs, batch.violation_fraction1, batch.violation_fraction2


def _worker_entry(args):
    return _run_trial_block(_worker_setup, *args)


def _block_trials(model, seat):
    """Trials per episode block: SOLVE_BLOCK_POINTS over the guided player's hull candidates."""
    grid = (model.u_grid, model.v_grid)[seat - 1]
    return SOLVE_BLOCK_POINTS // CandidateFamily.build(len(grid)).count


def _collect_trials(setup, configs, seat, workers):
    """Per-configuration (payoffs, viol1, viol2) arrays, each (configurations, trials).

    ``configs`` lists (partition steps, particle count, adversary index) in
    configuration-index order. The trials of every configuration that
    shares (partition steps, adversary) are pooled and cut into blocks of
    ``_block_trials`` trials, the last block taking
    the remainder. The cut depends on the scenario alone, never on the
    worker count; each block is one task on its own keyed generator. The
    tasks go to a pool of min(workers, tasks) forked processes, or run in
    this process when that is one.
    """
    scenario, model, _, _, _ = setup
    trials = scenario.trials
    groups = {}
    for config_index, (m_steps, particle_count, adv_index) in enumerate(configs):
        groups.setdefault((m_steps, adv_index), []).extend(
            (config_index, particle_count, trial) for trial in range(trials))
    tasks = []
    for (m_steps, adv_index), units in groups.items():
        size = min(_block_trials(model, seat), len(units))
        tasks.extend((m_steps, adv_index, seat, lo, units[lo:lo + size])
                     for lo in range(0, len(units), size))
    processes = min(workers, len(tasks))
    if processes > 1:
        # forked workers inherit the setup instead of rebuilding or unpickling it
        pool = multiprocessing.get_context("fork").Pool(
            processes, initializer=_init_worker, initargs=(setup,))
        try:
            results = pool.map(_worker_entry, tasks)
        finally:
            pool.close()
            pool.join()
    else:
        results = [_run_trial_block(setup, *task) for task in tasks]
    outcomes = np.empty((3, len(configs), trials))
    for task, block_outcomes in zip(tasks, results):
        config_index, _, trial = np.array(task[-1]).T
        outcomes[:, config_index, trial] = block_outcomes
    return outcomes


EXPERIMENT_COLUMNS = [
    "h", "partition_diameter", "adversary", "trials", "mean_payoff", "sem",
    "value_start", "k", "l", "r", "d_const", "mean_bound", "mean_ok",
    "exceed_threshold", "exceed_prob", "exceed_ci", "exceed_bound",
    "exceed_vacuous", "exceed_ok", "guide_violation_fraction",
    "opp_guide_violation_fraction",
]

GAP_SLOPE_WINDOW = (0.3, 0.7)
GUIDE_VIOLATION_LIMIT = 0.01


def run_theorem1_experiment(scenario, workers=1):
    """Guarantee experiment for the minimizing player's guided strategy.

    For every (particle count, partition, adversary) configuration, runs
    the trials, then checks the mean-payoff bound
    mean <= value + R*sqrt(D*h) + 2*SEM and the tail bound
    P(payoff >= value + R*(D*h)^(1/3)) <= (D*h)^(1/3) (reported as vacuous
    when the right side reaches 1). The fitted log-log slope of the mean
    gap against h and the guide-violation fractions are carried in the
    summary.
    """
    return _run_bound_experiment(scenario, 1, workers)


def run_corollary_experiment(scenario, workers=1):
    """Mirrored guarantee experiment for the maximizing player."""
    return _run_bound_experiment(scenario, 2, workers)


def _run_bound_experiment(scenario, seat, workers):
    """The guided player in ``seat`` against each adversary, its bounds on its signed payoff."""
    runs = len(scenario.partition_steps) * len(scenario.adversaries) * scenario.trials
    # each (partition steps, adversary) pools the trials of every particle count
    steps = len(scenario.adversaries) * sum(scenario.partition_steps)
    pooled = len(scenario.particle_counts) * scenario.trials
    setup = _setup(scenario, scenario.particle_counts, adversary_seat=3 - seat,
                   work=lambda model, k: sum(
                       _thinning_work(model, k, runs, total, model.horizon - scenario.start_time)
                       for total in scenario.particle_counts)
                   + _step_work(steps, pooled, _block_trials(model, seat)))
    _, model, constants, field, starts = setup
    _, c_gain = coupling_constants(model, constants)
    d_const = c_gain * model.horizon
    r_const = constants.r
    # player 2 minimizes the negated payoff; negation is exact, so the
    # corollary gets the same figures as a separate branch would
    sign = 1.0 if seat == 1 else -1.0

    configs = [(m_steps, particle_count, adv_index)
               for m_steps in scenario.partition_steps
               for particle_count in scenario.particle_counts
               for adv_index in range(len(scenario.adversaries))]
    outcomes = _collect_trials(setup, configs, seat, workers)

    rows = []
    gap_groups = {}
    for config_index, (m_steps, particle_count, adv_index) in enumerate(configs):
        adv = scenario.adversaries[adv_index]
        h = 1.0 / particle_count
        val0 = field.eval(scenario.start_time,
                          starts[particle_count] / particle_count)
        payoffs, viol1, viol2 = outcomes[:, config_index]
        n = payoffs.size
        mean = float(np.sum(payoffs) / n)
        sem = _sem(payoffs)
        spread = r_const * math.sqrt(d_const * h)
        tail = (d_const * h) ** (1.0 / 3.0)
        mean_bound = val0 + sign * spread
        mean_ok = sign * mean <= sign * mean_bound + 2.0 * sem
        threshold = val0 + sign * (r_const * tail)
        exceed_count = int(np.sum(sign * payoffs >= sign * threshold))
        gap = sign * (mean - val0)
        own_viol, opp_viol = (float(np.sum(v) / n) for v in
                              ((viol1, viol2) if seat == 1 else (viol2, viol1)))
        exceed_prob = exceed_count / n
        exceed_ci = Z_95 * math.sqrt(exceed_prob * (1.0 - exceed_prob) / n)
        # the tail bound says nothing once its right side reaches 1,
        # nor at zero (a rate-free model sits exactly on the threshold)
        vacuous = tail >= 1.0 or tail <= 0.0
        exceed_ok = bool(vacuous or exceed_prob <= tail + exceed_ci)
        label = adversary_label(adv)
        rows.append({
            "h": h,
            "partition_diameter": (model.horizon - scenario.start_time) / m_steps,
            "adversary": label,
            "trials": n,
            "mean_payoff": mean,
            "sem": sem,
            "value_start": val0,
            "k": constants.k,
            "l": constants.l,
            "r": r_const,
            "d_const": d_const,
            "mean_bound": mean_bound,
            "mean_ok": bool(mean_ok),
            "exceed_threshold": threshold,
            "exceed_prob": exceed_prob,
            "exceed_ci": exceed_ci,
            "exceed_bound": tail,
            "exceed_vacuous": bool(vacuous),
            "exceed_ok": exceed_ok,
            "guide_violation_fraction": own_viol,
            "opp_guide_violation_fraction": opp_viol,
        })
        gap_groups.setdefault((label, m_steps), []).append((h, gap))

    slopes = {}
    multi_h = {}
    for (label, m_steps), points in sorted(gap_groups.items()):
        hs = np.array([p[0] for p in points])
        gaps = np.array([p[1] for p in points])
        key = f"{label}|steps={m_steps}"
        multi_h[key] = np.unique(hs).size >= 2
        if multi_h[key] and np.all(gaps > 0.0):
            slopes[key] = float(_log_log_fit(hs, gaps)[0])
        else:
            slopes[key] = None

    bounds_ok = all(r["mean_ok"] and r["exceed_ok"] for r in rows)
    viol_ok = all(r["guide_violation_fraction"] <= GUIDE_VIOLATION_LIMIT for r in rows)
    # the shrinking-gap scaling is only assessable against the strongest
    # adversary and needs several particle counts
    slope_checks = {}
    if seat == 1:
        for key, slope in slopes.items():
            if key.startswith("extremal|") and multi_h[key]:
                slope_checks[key] = (slope is not None
                                     and GAP_SLOPE_WINDOW[0] <= slope <= GAP_SLOPE_WINDOW[1])
    slope_ok = all(slope_checks.values()) if slope_checks else True
    return _result(
        "experiment" if seat == 1 else "corollary", scenario, EXPERIMENT_COLUMNS, rows,
        bounds_ok and viol_ok and slope_ok,
        constants={"k": constants.k, "l": constants.l, "r": constants.r,
                   "beta": 2.0 * constants.l, "c": c_gain, "d": d_const},
        gap_slopes=slopes, slope_window=list(GAP_SLOPE_WINDOW), slope_ok=slope_ok,
        bounds_ok=bounds_ok, guide_violations_ok=viol_ok)


def _log_log_fit(x, y):
    """Least-squares (slope, intercept) of log y against log x."""
    return np.polyfit(np.log(x), np.log(y), 1)


# -- short-time transition-expansion check -----------------------------------------


LEMMA1_COLUMNS = [
    "delta", "target", "probability", "leading_term", "residual",
    "residual_ratio", "two_jump_bound", "ok",
]


def run_lemma1_check(scenario):
    """Compare oracle one-step transition probabilities with their leading terms.

    Single-jump probabilities should match (delta/h) * x_i * Q_ij with a
    second-order residual: halving delta must shrink the residual by at
    least the configured ratio. States two or more jumps away must carry
    at most a quadratic amount of mass.
    """
    cfg = scenario.lemma1
    total = int(cfg.get("particle_count", scenario.particle_counts[0]))
    totals = () if "state" in cfg else (total,)
    m = sum(cfg["state"]) if "state" in cfg else total
    deltas = sorted(cfg.get("deltas", [0.02, 0.01, 0.005]), reverse=True)
    _, model, constants, _, starts = _setup(
        scenario, totals, solve=False, lattices=totals,
        work=lambda model, k: sum(_rk4_work(model, m, delta, _lemma_step(model, delta, m, k))
                                  for delta in deltas))
    # Scenario checked a stated lemma1.state against the model
    counts = np.array(cfg["state"], dtype=np.int64) if "state" in cfg else starts[total]
    u = float(cfg.get("u", max(model.u_grid.points)))
    v = float(cfg.get("v", min(model.v_grid.points)))
    min_ratio = float(cfg.get("min_ratio", 3.0))
    t0 = scenario.start_time
    d = model.dimension
    h = 1.0 / m
    rates = model.rate_matrix(t0, counts / m, u, v)
    # the targets: the start state, each single-jump neighbour i -> j, and
    # the rest of the lattice; a target's leading term is lead + delta * coeff
    moves = [(i, j) for i in range(d) if counts[i] >= 1 for j in range(d) if j != i]
    names = ["stay"] + [f"jump_{i}_to_{j}" for i, j in moves] + ["two_jump"]
    states = np.tile(counts, (len(moves) + 1, 1))
    for row, (i, j) in enumerate(moves, 1):
        states[row, i] -= 1
        states[row, j] += 1
    nodes = SimplexGrid(d, m).node_index(states)
    coeffs = np.array([float(np.sum(counts * np.diag(rates)))]
                      + [counts[i] * rates[i, j] for i, j in moves] + [0.0])

    # (deltas, targets) tables; the start state and its neighbours are read
    # off each delta's exact law, the rest is what their mass leaves
    probs = np.zeros((len(deltas), len(names)))
    for idx, delta in enumerate(deltas):
        probs[idx, :-1] = master_evolve(model, t0, t0 + delta, counts, u, v,
                                        ode_step=_lemma_step(model, delta, m, constants.k))[nodes]
    # cumsum adds left to right whatever the neighbour count; sum would not
    single = np.cumsum(probs[:, 1:-1], axis=1)[:, -1]
    probs[:, -1] = np.maximum(0.0, 1.0 - probs[:, 0] - single)
    leads = np.array(deltas)[:, None] * coeffs
    leads[:, 0] += 1.0
    residuals = np.abs(probs - leads)

    rows = []
    for col, name in enumerate(names):
        for idx, delta in enumerate(deltas):
            p, residual = probs[idx, col].item(), residuals[idx, col].item()
            ratio = bound = None
            if name == "two_jump":
                bound = 10.0 * (delta * (d - 1) * constants.k / h) ** 2
                ok = p <= bound
            else:
                nxt = residuals[idx + 1, col] if idx + 1 < len(deltas) else 0.0
                ratio = residual / nxt.item() if nxt > 1e-13 else None
                ok = ratio is None or ratio >= min_ratio
            rows.append({
                "delta": delta, "target": name, "probability": p,
                "leading_term": leads[idx, col].item(), "residual": residual,
                "residual_ratio": ratio, "two_jump_bound": bound, "ok": bool(ok),
            })
    return _result("lemma1", scenario, LEMMA1_COLUMNS, rows, all(row["ok"] for row in rows),
                   state=counts.tolist(), controls={"u": u, "v": v}, min_ratio=min_ratio)


def _lemma_step(model, delta, total, rate_bound=None):
    """RK4 step for a lemma oracle's exact law over ``delta`` on ``total`` particles."""
    # RK4 on the forward equations is stable only while the step times the
    # largest total jump rate, about M K, stays small
    return min(0.002, delta / 10.0, default_ode_step(model, total, rate_bound))


# -- one-step chain/guide coupling check --------------------------------------------


LEMMA2_COLUMNS = [
    "delta", "adversary", "pair", "start_gap_sq", "mc_mean", "mc_sem",
    "exact_mean", "rhs_base", "allowance", "violation",
]


def _one_step_squared_distance(model, k_bound, t0, delta, counts0, u_idx, v_idx,
                               w_plus, trials, rng):
    """Thinned one-step simulation of E||X(t0+delta) - w_plus||^2 over ``trials`` chains.

    ``v_idx`` is a per-trial array of grid indices (the adversary control is
    constant within the step). All trials share the generator ``rng``, each
    candidate round drawing one vector per quantity, so the estimate is
    reproducible for a fixed generator state.
    """
    counts = np.tile(np.asarray(counts0, dtype=np.int64), (trials, 1))
    simulate_chain(model, t0, t0 + delta, counts, model.u_grid.values()[u_idx],
                   model.v_grid.values()[v_idx], rng, rate_bound=k_bound)
    total = int(np.sum(counts0))
    # one column at a time: on rows shorter than 8 entries numpy's sum also
    # adds left to right, so column adds round the same and skip the
    # short-axis broadcast and reduction
    sq = (counts[:, 0] / total - w_plus[0]) ** 2
    for c in range(1, counts.shape[1]):
        sq += (counts[:, c] / total - w_plus[c]) ** 2
    return float(np.sum(sq) / trials), _sem(sq)


def _replies(adversary, t, counts, total, grid):
    """``adversary``'s reply on ``grid`` at each (t, counts) row, or None if it plays every index.

    An extremal adversary's guide starts on the chain state; any other
    control policy is read at the rows' start.
    """
    if isinstance(adversary, RandomPolicy):
        return None
    if isinstance(adversary, ControlWithGuideStrategy):
        xs = counts / total
        return adversary.select_batch(t, xs, xs)[1]
    return np.array([grid.index_of(value)
                     for value in adversary.step_values(t, counts, total, None)])


def run_lemma2_check(scenario):
    """One-step coupling estimate: extremal shift keeps the chain near the guide.

    For sampled (t, chain state, guide state) triples and every adversary,
    verifies E||X(t+delta) - w_plus||^2 <= (1 + beta*delta)*||x - w||^2
    + C*h*delta + allowance, with beta = 2L, C = 2 d^2 K, and the allowance
    the model-derived o(delta) coefficient plus three standard errors of
    the Monte Carlo mean. The exact oracle value accompanies every row.

    The pairs are (pairs, ...) arrays: the guided player's extremal
    controls come from one batched call at the pairs' own times, and each
    adversary, built once as player 1 of the mirrored game, gives its
    replies in one call. A random reply plays every v, so its exact mean
    averages the v grid. The exact laws of every pair's needed replies are
    evolved first, each delta in one ``_evolve_laws`` call over the span
    delta, with per-law start times and controls. The call is cut into blocks of
    at most max(one pair's laws, SOLVE_BLOCK_POINTS // lattice nodes) laws,
    so a large lattice holds no more than one pair's batch at a time. The
    Monte Carlo rows then run pair by pair, delta by delta, on their keyed
    streams.
    """
    cfg = scenario.lemma2
    total = int(cfg.get("particle_count", scenario.particle_counts[0]))
    pairs = int(cfg.get("pairs", 100))
    deltas = sorted(cfg.get("deltas", [0.02, 0.01, 0.005]), reverse=True)
    trials = int(cfg.get("trials_per_pair", 10_000))
    # per pair and step: every adversary's one-step draws, and the exact law
    # of every reply on the v grid at most
    _, model, constants, field, _ = _setup(
        scenario, adversary_seat=2, lattices=(total,),
        work=lambda model, k: sum(
            pairs * len(scenario.adversaries) * _thinning_work(model, k, trials, total, delta)
            + _rk4_work(model, total, delta, _lemma_step(model, delta, total, k),
                        laws=pairs * len(model.v_grid))
            for delta in deltas))
    beta, c_gain = coupling_constants(model, constants)
    h = 1.0 / total
    d = model.dimension
    space = SimplexGrid(d, total)
    nv = len(model.v_grid)
    allowances = [float(coupling_allowance(model, constants, h, delta)) for delta in deltas]

    pair_rng = np.random.default_rng([scenario.seed, 90001])
    t_stars = pair_rng.uniform(0.0, model.horizon - max(deltas), size=pairs)
    state_idx = pair_rng.integers(0, space.node_count, size=pairs)
    guides = pair_rng.dirichlet(np.ones(d), size=pairs)
    counts0 = space.counts[state_idx]
    xs = counts0 / total
    start_gap_sq = np.sum((xs - guides) ** 2, axis=1)
    u_idx, v_star = extremal_indices(model, t_stars, xs, guides)
    # the guide's endpoint at t + delta: (pairs, deltas, d)
    w_plus = np.array([[advance_guides(field, model, t0, t0 + delta, guides[p:p + 1],
                                       v_star[p:p + 1], slack=np.inf)[0][0]
                        for delta in deltas] for p, t0 in enumerate(t_stars.tolist())])
    # each adversary's replies, the same at every delta
    view = _seat_view(2, field, model)
    replies = [_replies(_build_adversary(adv, *view, constants), t_stars, counts0, total,
                        model.v_grid)
               for adv in scenario.adversaries]

    # the exact law of every reply a pair needs: law b belongs to pair
    # law_pair[b] and plays reply law_v[b]
    needed = np.zeros((pairs, nv), dtype=bool)
    for reply in replies:
        if reply is None:
            needed[:] = True
        else:
            needed[np.arange(pairs), reply] = True
    law_pair, law_v = np.nonzero(needed)
    law_t0 = t_stars[law_pair, None]
    law_u = model.u_grid.values()[u_idx][law_pair, None]
    law_node = state_idx[law_pair]
    block = max(int(needed.sum(axis=1).max()), SOLVE_BLOCK_POINTS // space.node_count)
    gen = _LatticeGenerator(model, space)
    exact = np.full((pairs, len(deltas), nv), np.nan)
    for di, delta in enumerate(deltas):
        step = _lemma_step(model, delta, total, constants.k)
        for lo in range(0, law_v.size, block):
            part = slice(lo, lo + block)
            starts = np.zeros((law_v[part].size, space.node_count))
            starts[np.arange(starts.shape[0]), law_node[part]] = 1.0
            laws = _evolve_laws(gen, law_t0[part], delta, starts, law_u[part],
                                model.v_grid.values()[law_v[part]][:, None], step)
            for b, (p, v_idx) in enumerate(zip(law_pair[part].tolist(), law_v[part].tolist())):
                sq = np.sum((space.nodes - w_plus[p, di]) ** 2, axis=1)
                # row by row: a (B, N) @ (N,) product may add in another order
                exact[p, di, v_idx] = float(laws[b] @ sq)

    rows = []
    kappa_hat = {delta: 0.0 for delta in deltas}
    violations = 0
    for p in range(pairs):
        gap_sq = float(start_gap_sq[p])
        for di, delta in enumerate(deltas):
            rhs_base = (1.0 + beta * delta) * gap_sq + c_gain * h * delta
            for adv_idx, (adv, reply) in enumerate(zip(scenario.adversaries, replies)):
                rng = np.random.default_rng([scenario.seed, 90002, p, di, adv_idx])
                if reply is None:
                    v_trial_idx = rng.integers(0, nv, size=trials)
                    exact_mean = float(np.mean(exact[p, di]))
                else:
                    v_trial_idx = np.full(trials, reply[p], dtype=np.int64)
                    exact_mean = float(exact[p, di, reply[p]])
                mc_mean, mc_sem = _one_step_squared_distance(
                    model, constants.k, float(t_stars[p]), delta, counts0[p], u_idx[p],
                    v_trial_idx, w_plus[p, di], trials, rng)
                allowance = allowances[di] * delta + 3.0 * mc_sem
                violated = mc_mean > rhs_base + allowance
                violations += int(violated)
                kappa_hat[delta] = max(
                    kappa_hat[delta],
                    max(0.0, (mc_mean - rhs_base - 3.0 * mc_sem)) / delta)
                rows.append({
                    "delta": delta,
                    "adversary": adversary_label(adv),
                    "pair": p,
                    "start_gap_sq": gap_sq,
                    "mc_mean": mc_mean,
                    "mc_sem": mc_sem,
                    "exact_mean": exact_mean,
                    "rhs_base": rhs_base,
                    "allowance": allowance,
                    "violation": bool(violated),
                })

    return _result(
        "lemma2", scenario, LEMMA2_COLUMNS, rows, violations == 0,
        constants={"k": constants.k, "l": constants.l, "beta": beta, "c": c_gain},
        pairs=pairs, trials_per_pair=trials, deltas=deltas, violations=violations,
        empirical_kappa_per_delta={str(dl): kappa_hat[dl] for dl in deltas},
        model_allowance_per_delta={str(dl): a for dl, a in zip(deltas, allowances)},
        kappa_power_fit=_fit_power_law(kappa_hat))


def _fit_power_law(kappa_hat):
    """Least-squares a*delta^p fit of the positive empirical residual slopes."""
    positive = [dl for dl, k in kappa_hat.items() if k > 0.0]
    if len(positive) < 2:
        return None
    slope, intercept = _log_log_fit(np.array(positive),
                                    np.array([kappa_hat[dl] for dl in positive]))
    return {"exponent": float(slope), "scale": float(np.exp(intercept))}


# -- simulator-against-oracle check ---------------------------------------------


ORACLE_COLUMNS = ["check", "statistic", "tolerance", "ok"]


def run_oracle_check(scenario):
    """Simulator-versus-forward-equation agreement at desk scale.

    Total-variation distance between the empirical terminal law and the
    integrated distribution, a single-particle transition probability
    cross-check, and the expectation-identity residual.
    """
    cfg = scenario.oracle
    dyn = cfg.get("dynkin", {})
    total = int(cfg.get("particle_count", scenario.particle_counts[0]))
    dyn_total = int(dyn.get("particle_count", total))
    trials = int(cfg.get("trials", 100_000))
    t0 = scenario.start_time
    dyn_step = float(dyn.get("ode_step", 0.002))

    def work(model, k):
        """Both terminal laws' draws and forward equations, and the Dynkin residual's RK4."""
        span = cfg.get("elapsed", model.horizon - t0)
        units = _rk4_work(model, dyn_total, dyn.get("elapsed", min(0.5, model.horizon - t0)),
                          min(dyn_step, default_ode_step(model, dyn_total, k)))
        for m in (total, 1) if cfg.get("unit_check", True) else (total,):
            units += (_thinning_work(model, k, trials, m, span)
                      + _rk4_work(model, m, span, default_ode_step(model, m, k)))
        return units

    _, model, constants, _, starts = _setup(scenario, (total, 1, dyn_total), solve=False,
                                            lattices=(total, dyn_total), work=work)
    u = float(cfg.get("u", max(model.u_grid.points)))
    v = float(cfg.get("v", min(model.v_grid.points)))
    elapsed = float(cfg.get("elapsed", model.horizon - t0))
    tv_tol = float(cfg.get("tv_tolerance", 0.01))
    rows = []

    def laws(counts, seed):
        """The simulated and the exact law at t0 + elapsed of the chain started at ``counts``."""
        empirical = sample_final_distribution(model, t0, t0 + elapsed, counts, u, v, trials,
                                              seed=seed, rate_bound=constants.k)
        return empirical, master_evolve(model, t0, t0 + elapsed, counts, u, v)

    empirical, oracle = laws(starts[total], scenario.seed)
    tv = 0.5 * float(np.abs(empirical - oracle).sum())
    rows.append({"check": f"tv_distance(M={total})", "statistic": tv,
                 "tolerance": tv_tol, "ok": bool(tv <= tv_tol)})

    if cfg.get("unit_check", True):
        emp1, oracle1 = laws(starts[1], scenario.seed + 1)
        se = np.sqrt(np.maximum(oracle1 * (1.0 - oracle1), 1e-12) / trials)
        dev = np.abs(emp1 - oracle1)
        rows.append({"check": "single_particle_within_3se", "statistic": float(np.max(dev / se)),
                     "tolerance": 3.0, "ok": bool(np.all(dev <= 3.0 * se))})

    coord = int(dyn.get("coordinate", 0))
    dyn_elapsed = float(dyn.get("elapsed", min(0.5, model.horizon - t0)))
    dyn_tol = float(dyn.get("tolerance", 1e-8))
    residual = dynkin_residual(
        model, lambda x: x[coord], t0, t0 + dyn_elapsed, starts[dyn_total], u, v,
        ode_step=dyn_step)
    rows.append({"check": "expectation_identity_residual", "statistic": residual,
                 "tolerance": dyn_tol, "ok": bool(residual <= dyn_tol)})

    return _result("oracle", scenario, ORACLE_COLUMNS, rows, all(r["ok"] for r in rows),
                   controls={"u": u, "v": v})


# -- value solve and episode recording --------------------------------------------


VALUE_COLUMNS = ["n_x", "n_t", "value_start", "supersolution_violations",
                 "supersolution_tolerance", "ok"]


def run_value(scenario, export_field=None):
    """Solve the value field, optionally export it, and sanity-check descent."""
    total = scenario.particle_counts[0]
    _, model, constants, field, starts = _setup(scenario, (total,))
    n_x = scenario.value_grid["n_x"]
    n_t = scenario.value_grid["n_t"]
    report = verify_supersolution(field, model, samples=200, step=model.horizon / n_t,
                                  seed=scenario.seed, constants=constants)
    val0 = field.eval(scenario.start_time, starts[total] / total)
    if export_field:
        os.makedirs(os.path.dirname(os.path.abspath(export_field)), exist_ok=True)
        field.save(export_field)
    rows = [{
        "n_x": n_x, "n_t": n_t, "value_start": val0,
        "supersolution_violations": report.violations,
        "supersolution_tolerance": report.tolerance,
        "ok": bool(report.passed),
    }]
    return _result("value", scenario, VALUE_COLUMNS, rows, report.passed,
                   value_start=val0, exported_field=export_field)


SIMULATE_COLUMNS = ["episode", "payoff", "guide_violation_fraction",
                    "opp_guide_violation_fraction", "jump_count"]


def run_simulate(scenario):
    """Record a handful of fully logged episodes for inspection."""
    cfg = scenario.simulate
    adv = scenario.adversaries[int(cfg.get("adversary_index", 0))]
    total = int(cfg.get("particle_count", scenario.particle_counts[0]))
    episodes = int(cfg.get("episodes", 5))
    steps = int(cfg.get("partition_step_count", scenario.partition_steps[0]))
    _, model, constants, field, starts = _setup(
        scenario, (total,), adversary_seat=2,
        work=lambda model, k: (_thinning_work(model, k, episodes, total,
                                              model.horizon - scenario.start_time)
                               + _step_work(steps, episodes, episodes)))
    record_jumps = bool(cfg.get("record_jumps", True))
    partition = Partition.uniform(scenario.start_time, model.horizon, steps)
    player1 = ControlWithGuideStrategy(field, model, constants)
    player2 = _build_adversary(adv, *_seat_view(2, field, model), constants)
    batch = run_episodes(model, np.tile(starts[total], (episodes, 1)), partition, player1,
                         player2, np.random.default_rng([scenario.seed, 0]),
                         rate_bound=constants.k, record=True)
    trace = batch.trace
    times = partition.times.tolist()
    rows, records = [], []
    for i in range(episodes):
        payoff = float(batch.payoffs[i])
        record = {
            "times": times,
            "total": int(trace["counts"][i, 0].sum()),
            "counts": trace["counts"][i].tolist(),
            "controls_u": trace["controls_u"][i].tolist(),
            "controls_v": trace["controls_v"][i].tolist(),
            "payoff": payoff,
        }
        for key in ("guide1", "guide2", "guide1_values", "guide2_values",
                    "violations1", "violations2"):
            if key in trace:
                record[key] = trace[key][i].tolist()
        if record_jumps:
            mine = trace["jump_rows"] == i
            record["jumps"] = list(zip(*(trace[key][mine].tolist()
                                         for key in ("jump_times", "jump_from", "jump_to"))))
        rows.append({
            "episode": i,
            "payoff": payoff,
            "guide_violation_fraction": float(batch.violation_fraction1[i]),
            "opp_guide_violation_fraction": float(batch.violation_fraction2[i]),
            "jump_count": len(record["jumps"]) if record_jumps else None,
        })
        records.append(record)
    return _result("simulate", scenario, SIMULATE_COLUMNS, rows, True,
                   adversary=adversary_label(adv), records=records)


# -- emission ----------------------------------------------------------------------


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_results(result, out_base):
    """Write the delimited table and the structured summary for one run.

    ``out_base`` is a path prefix: the table goes to ``<out_base>.csv`` and
    the summary to ``<out_base>.json``. Output is bitwise deterministic for
    a fixed scenario and seed: no timestamps, floats rendered by shortest
    round-trip decimal, LF line endings.
    """
    out_base = str(out_base)
    parent = os.path.dirname(os.path.abspath(out_base))
    os.makedirs(parent, exist_ok=True)
    table_path = out_base + ".csv"
    summary_path = out_base + ".json"
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(result.columns) + "\n")
        for row in result.rows:
            fh.write(",".join(_format_cell(row.get(col)) for col in result.columns) + "\n")
    payload = dict(result.summary)
    payload["columns"] = result.columns
    payload["rows"] = result.rows
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False, default=_json_default)
        fh.write("\n")
    return table_path, summary_path


def _json_default(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")
