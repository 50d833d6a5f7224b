"""Two-player controlled interacting-particle chains and their limiting game.

Simulates the finitely-many-particles Markov chain under both players'
controls, solves the limiting deterministic game's value on a simplex
grid, realizes guide-based extremal-shift strategies for either player,
and verifies the near-optimality and coupling estimates by Monte Carlo
against exact small-instance oracles.
"""

__version__ = "0.1.0"

from .simplex import LatticeState, enumerate_lattice, round_to_lattice
from .models import (
    ControlGrid,
    ModelConstants,
    RateModel,
    build_model,
    estimate_constants,
    hamiltonian,
    isaacs_gap,
    register_model,
    validate_rate_model,
)
from .chain import (
    Distribution,
    dynkin_residual,
    lattice_space,
    master_evolve,
    simulate_chain,
)
from .value import (
    SimplexGrid,
    ValueField,
    build_simplex_grid,
    solve_value,
    verify_supersolution,
)
from .guide import integrate_characteristic
from .strategy import (
    ControlWithGuideStrategy,
    Partition,
    TrajectoryRecord,
    run_episode,
    run_episodes,
)
from .harness import (
    ExperimentResult,
    Scenario,
    emit_results,
    run_corollary_experiment,
    run_lemma1_check,
    run_lemma2_check,
    run_oracle_check,
    run_theorem1_experiment,
)

__all__ = [
    "__version__",
    "LatticeState", "enumerate_lattice", "round_to_lattice",
    "ControlGrid", "ModelConstants", "RateModel", "build_model",
    "estimate_constants", "hamiltonian", "isaacs_gap", "register_model",
    "validate_rate_model",
    "Distribution", "dynkin_residual", "lattice_space", "master_evolve",
    "simulate_chain",
    "SimplexGrid", "ValueField", "build_simplex_grid", "solve_value",
    "verify_supersolution",
    "integrate_characteristic",
    "ControlWithGuideStrategy", "Partition", "TrajectoryRecord",
    "run_episode", "run_episodes",
    "ExperimentResult", "Scenario", "emit_results", "run_corollary_experiment",
    "run_lemma1_check", "run_lemma2_check", "run_oracle_check",
    "run_theorem1_experiment",
]
