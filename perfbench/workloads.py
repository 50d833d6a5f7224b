"""The benchmark's workloads: generated scenarios and their harness calls.

A workload is a model set-up (timed as ``setup_s``) plus a list of harness
calls, each on a scenario generated from the workload seed. The seed is
the scenario seed, so one seed always gives the same inputs and the same
emitted tables. Every call runs single-process (``workers=1``).

An operation is one emitted row: a configuration row of a guarantee
experiment or a check row of the oracle workload. A row fails when its
row-level check is false; a call that raises fails every row it should
have produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from chainguide import harness
from chainguide.harness import Scenario

# criterion 2 accepts a total-variation distance of 0.01 at 100 000 draws;
# the oracle workload draws fewer and scales the tolerance by sqrt(n0 / n)
# so that the check keeps the same strictness in standard errors
ORACLE_REFERENCE_TRIALS = 100_000
ORACLE_REFERENCE_TV = 0.01

# V(0, [1, 0]) of the two-type model: the saturated flow contracts toward
# the 50/50 mix at rate 2 (criterion 5)
TWO_TYPE_VALUE = 0.5 + 0.5 * math.exp(-2.0)
VALUE_TOLERANCE = 0.01


@dataclass(frozen=True)
class Call:
    """One harness entry point on one scenario."""

    label: str
    entry: str  # name of the entry point in chainguide.harness
    scenario: dict
    kwargs: dict = field(default_factory=dict)

    def run(self, scenario):
        # looked up per call, so that a traced run sees the wrapped entry point
        return getattr(harness, self.entry)(scenario, **self.kwargs)

    def make(self, seed, **overrides):
        return Scenario.from_dict(dict(self.scenario, seed=seed, **overrides))


@dataclass(frozen=True)
class Workload:
    """A model set-up and the harness calls of one iteration.

    Why each workload was chosen is its ``why`` in BENCHMARK.json.
    """

    name: str
    model: str
    value_grid: dict
    calls: tuple
    # tiny stand-ins for the scenario keys, run once untimed to warm up
    warmup: dict
    value_reference: Optional[tuple] = None  # (point, exact value) checked at t=0


def _experiment(model, particle_counts, steps, initial_state, trials, grid):
    return {
        "model": model,
        "particle_counts": particle_counts,
        "partition_steps": [steps],
        "initial_state": initial_state,
        "trials": trials,
        "adversaries": [{"kind": "extremal"}],
        "value_grid": {"n_x": grid, "n_t": grid},
    }


ORACLE_TRIALS = 10_000

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="guarantee-2type",
            model="two-type",
            value_grid={"n_x": 200, "n_t": 200},
            calls=(Call("experiment", "run_theorem1_experiment",
                        _experiment("two-type", [20, 40, 80, 160], 200, [1.0, 0.0],
                                    100, 200), {"workers": 1}),),
            warmup={"particle_counts": [4], "partition_steps": [4], "trials": 2,
                    "value_grid": {"n_x": 8, "n_t": 8}},
            value_reference=([1.0, 0.0], TWO_TYPE_VALUE),
        ),
        Workload(
            name="guarantee-3type",
            model="three-type",
            value_grid={"n_x": 100, "n_t": 100},
            calls=(Call("experiment", "run_theorem1_experiment",
                        _experiment("three-type", [20, 80], 100, [0.4, 0.4, 0.2],
                                    100, 100), {"workers": 1}),),
            warmup={"particle_counts": [4], "partition_steps": [4], "trials": 2,
                    "value_grid": {"n_x": 8, "n_t": 8}},
        ),
        Workload(
            name="oracle-2type",
            model="two-type",
            value_grid={"n_x": 200, "n_t": 200},
            calls=(
                Call("oracle", "run_oracle_check", {
                    "model": "two-type",
                    "particle_counts": [4],
                    "initial_state": [1.0, 0.0],
                    "oracle": {
                        "particle_count": 4,
                        "trials": ORACLE_TRIALS,
                        "tv_tolerance": ORACLE_REFERENCE_TV * math.sqrt(
                            ORACLE_REFERENCE_TRIALS / ORACLE_TRIALS),
                    },
                }),
                Call("lemma2", "run_lemma2_check", {
                    "model": "two-type",
                    "particle_counts": [20],
                    "initial_state": [1.0, 0.0],
                    "adversaries": [{"kind": "extremal"},
                                    {"kind": "constant", "value": 1.0},
                                    {"kind": "random"}, {"kind": "greedy"}],
                    "value_grid": {"n_x": 200, "n_t": 200},
                    "lemma2": {"particle_count": 20, "pairs": 20,
                               "deltas": [0.02, 0.01, 0.005],
                               "trials_per_pair": 10_000},
                }),
            ),
            warmup={"oracle": {"particle_count": 4, "trials": 50},
                    "lemma2": {"particle_count": 20, "pairs": 1,
                               "deltas": [0.02], "trials_per_pair": 50},
                    "value_grid": {"n_x": 8, "n_t": 8}},
        ),
    )
}


# -- per-call bookkeeping -------------------------------------------------------


def expected_rows(scenario):
    """Rows a harness call on ``scenario`` emits when it completes."""
    if scenario.lemma2:
        cfg = scenario.lemma2
        return int(cfg["pairs"]) * len(cfg["deltas"]) * len(scenario.adversaries)
    if scenario.oracle:
        return 3  # terminal law at M, terminal law at M=1, Dynkin residual
    return (len(scenario.partition_steps) * len(scenario.particle_counts)
            * len(scenario.adversaries))


def row_ok(kind, row):
    """The row-level check of one emitted row."""
    if kind == "experiment":
        return bool(row["mean_ok"] and row["exceed_ok"])
    if kind == "lemma2":
        return not row["violation"]
    return bool(row["ok"])


def samples(scenario, result):
    """Monte Carlo samples one completed call drew.

    Guarantee experiments: episodes (trials x configurations). Oracle
    check: terminal-law draws. Lemma-2 check: one-step draws.
    """
    if result.kind == "lemma2":
        return len(result.rows) * int(scenario.lemma2["trials_per_pair"])
    if result.kind == "oracle":
        return 2 * int(scenario.oracle["trials"])  # at M and at M=1
    return sum(int(row["trials"]) for row in result.rows)


def expected_spans(workload):
    """Per-iteration span counts of the program as the benchmark was defined.

    A traced run reports them next to the counts it saw, without gating:
    a later program may solve or simulate differently with the same outputs.

    Guarantee experiments solve the value once outside and once per
    configuration, and call ``simulate_chain`` once per trial per partition
    step per configuration. The oracle check draws one chain per terminal
    law trial at M=4 and at M=1; the lemma-2 check solves once.
    """
    solves = 0
    chains = 0
    for call in workload.calls:
        scenario = call.make(0)
        if scenario.lemma2:
            solves += 1
        elif scenario.oracle:
            chains += 2 * int(scenario.oracle["trials"])
        else:
            per_steps = len(scenario.particle_counts) * len(scenario.adversaries)
            solves += expected_rows(scenario) + 1
            chains += scenario.trials * sum(scenario.partition_steps) * per_steps
    return {"value.solve_value": solves, "chain.simulate_chain": chains}
