"""The benchmark's tracer still sees the kernels it times by name.

``perfbench/spans.py`` wraps ``chain.simulate_chain`` wherever chainguide
binds it and sums each result's ``candidates``; it wraps
``SimplexGrid.interpolate`` on the class and sums the points; it also wraps
``chain.master_evolve``, whose calls and self time ``perfbench/bench.py``
reports. A chain path, a value reader or an exact-law path that stopped
going through those names would leave the traced per-layer figures empty.
The tracer module is only imported here; the benchmark is not run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from chainguide import chain, guide, harness, strategy, value
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, estimate_constants

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def _episodes():
    strategy.run_episodes(TwoTypeModel(), np.tile([6, 2], (4, 1)),
                          strategy.Partition.uniform(0.0, 1.0, 5), 1.0, 0.5,
                          np.random.default_rng(1))


def _terminal_law():
    chain.sample_final_distribution(TwoTypeModel(), 0.0, 1.0, [3, 1],
                                    1.0, 0.0, trials=20, seed=3)


def _one_step():
    model = TwoTypeModel()
    k = estimate_constants(model, seed=0).constants.k
    harness._one_step_squared_distance(model, k, 0.1, 0.05, np.array([5, 5]), 2,
                                       np.full(30, 2, dtype=np.int64),
                                       np.array([0.5, 0.5]), 30, np.random.default_rng(4))


@pytest.mark.parametrize("path", [_episodes, _terminal_law, _one_step])
def test_chain_paths_call_the_traced_kernel(tracer, path):
    path()
    stat = tracer.get("chain.simulate_chain")
    assert stat.calls > 0
    assert type(stat.amount) is int and stat.amount > 0
    assert len(stat.durations) == stat.calls


def test_value_readers_call_the_traced_interpolation(tracer):
    model = ThreeTypeRotorModel()
    n_t = 12
    grid = value.build_simplex_grid(3, 8)
    field = value.solve_value(model, n_t, grid)
    stat = tracer.get("value.interpolate")
    # one stencil per time slice over every node and control pair
    assert stat.calls == n_t
    assert stat.amount == n_t * grid.node_count * len(model.u_grid) * len(model.v_grid)

    calls, points = stat.calls, stat.amount
    guides = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    guide.advance_guides(field, model, 0.1, 0.15, guides, np.array([0, 1]), 0.0)
    assert stat.calls > calls and stat.amount > points


def test_exact_law_paths_call_the_traced_oracle(tracer):
    # lemma 1 reads one exact law per delta through master_evolve; lemma 2
    # evolves its laws in batches through the private chain._evolve_laws,
    # whose RK4 time the tracer still sees under simplex.rk4_step
    scenario = harness.Scenario.from_dict({
        "model": "two-type", "particle_counts": [4], "initial_state": [0.5, 0.5],
        "lemma1": {"deltas": [0.02, 0.01]}})
    harness.run_lemma1_check(scenario)
    assert tracer.get("chain.master_evolve").calls == 2
