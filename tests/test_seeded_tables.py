"""Seeded command tables and solved value tables, pinned by digest.

Each command case runs one command on a small scenario through
``emit_results`` and compares the sha256 of the CSV table with a pinned
digest. The ``experiment`` and ``simulate`` digests were taken when the
episode paths moved from keyed per-trial generators to one keyed shared
generator per trial block and began to form the chain state as counts /
total, both of which change the draws on purpose. The ``oracle`` digests
were taken when ``sample_final_distribution`` moved from keyed per-trial
generators to one shared generator per call, which changes the draws on
purpose. The
``check-lemma2`` digests were taken when the guide flow stopped adding an
RK4 substep for round-off in a span that is a whole number of steps,
which changes the guide endpoints lemma 2 compares against. The
``check-lemma1`` digests were taken before the exact oracle's laws became
plain probability arrays, a change that must not move a byte.

The CSV of ``simulate`` holds only each episode's payoff, violation
fractions and jump count, so each simulate case also compares the sha256
of the emitted JSON summary, whose ``records`` hold every episode's
counts, guides, guide values, violations, controls and jumps. Those
digests were taken, with ``simulate.record_jumps`` on and off, before the
episode runner began to record episodes as arrays with a leading trial
axis in place of per-trial objects, a change that must not move a byte.

The CSV of ``check-lemma2`` leaves out the summary's
``empirical_kappa_per_delta``, ``model_allowance_per_delta`` and
``kappa_power_fit``, so each lemma 2 case also compares the sha256 of the
emitted JSON summary. Those digests were taken before lemma 2 began to set
up its pairs as arrays and to read each adversary's reply from the built
adversary, a change that must not move a byte.

Each value case compares the sha256 of ``solve_value(...).table.tobytes()``
with the digest the same solve gave before the solve moved to column-major
node blocks (one flat ``drift`` call per block and a column-major Kuhn
stencil). That change keeps every float operation and its order, so the
bytes must not move: on three-type, on its mirror, on two-type, and on a
three-type model that declares only its rates, whose derived
``RateModel.drift`` contracts the column-major points. The experiment
digests pin the whole guarantee path that reads those tables. The
two-type digest at n_x = n_t = 400 was taken before the solve began to
keep a block's interpolation stencils across the slices of a model that
declares rates constant in t, which must not move a byte either.

A change that moves seeded draws on purpose replaces the constants below
and records the old and new digests in CHANGES.md.
"""

import copy
import hashlib

import pytest

from chainguide.harness import (
    Scenario,
    emit_results,
    run_lemma1_check,
    run_lemma2_check,
    run_oracle_check,
    run_simulate,
    run_theorem1_experiment,
)
from chainguide.models import ThreeTypeRotorModel, TwoTypeModel, mirrored
from chainguide.value import build_simplex_grid, solve_value

ADVERSARIES = [{"kind": "extremal"}, {"kind": "constant", "value": 1.0},
               {"kind": "random"}, {"kind": "greedy"}]

SCENARIOS = {
    "two-type": {
        "model": "two-type", "particle_counts": [10], "partition_steps": [20],
        "initial_state": [0.7, 0.3], "trials": 10, "adversaries": ADVERSARIES,
        "value_grid": {"n_x": 40, "n_t": 40}, "seed": 5,
        "oracle": {"particle_count": 4, "trials": 2000, "tv_tolerance": 0.05},
        "lemma2": {"pairs": 3, "trials_per_pair": 300},
        "simulate": {"episodes": 3, "adversary_index": 2},
    },
    "three-type": {
        "model": "three-type", "particle_counts": [8], "partition_steps": [10],
        "initial_state": [0.4, 0.4, 0.2], "trials": 10, "adversaries": ADVERSARIES,
        "value_grid": {"n_x": 12, "n_t": 12}, "seed": 7,
        "oracle": {"particle_count": 3, "trials": 1000, "tv_tolerance": 0.1},
        "lemma2": {"pairs": 2, "trials_per_pair": 200},
        "simulate": {"episodes": 2, "adversary_index": 3},
    },
}

COMMANDS = {"experiment": run_theorem1_experiment, "oracle": run_oracle_check,
            "check-lemma1": run_lemma1_check, "check-lemma2": run_lemma2_check,
            "simulate": run_simulate}

DIGESTS = {
    ("two-type", "experiment"):
        "944fae69d71dc49c20846a50cf8d670978fb724a9f25152e3e567f78fde6a1d2",
    ("two-type", "oracle"):
        "261d80c23dbedce3baeaebd996b0c3f12701304766c9c92fe6b8da877df78eb6",
    ("two-type", "check-lemma1"):
        "6f473e86c15c310503a21b90015cf3a976e46ac20ade2ecf116310631cb12467",
    ("two-type", "check-lemma2"):
        "5e353ec24619e7f354816f06438c8dc4b62868980b65ea1040d2c6685f94778e",
    ("two-type", "simulate"):
        "62c76957882e4e6501b0035ee80653ecda5261bf78dc675cdd6f1aa15b7a4346",
    ("three-type", "experiment"):
        "2892ea240f896291940c4f5ba01e82da5d6d4927eb867c55465764f791d9310d",
    ("three-type", "oracle"):
        "aaea77cd3cf00d9717bcc563b7923c8158b077c606739abc42589131c5690bb5",
    ("three-type", "check-lemma1"):
        "a6ba92648bb31074111506503e0b6793d911808ca0f8094e76db86d626e0c579",
    ("three-type", "check-lemma2"):
        "7bfb432e74caff4775d5c53f6be48d7e3aa0f6c3f926f296b50a008eb2caedbf",
    ("three-type", "simulate"):
        "f69d3e9da26113f1c621095edb183d0a04ed32981a1d67132dee0feb2ef14687",
}


@pytest.mark.parametrize("model, command", sorted(DIGESTS))
def test_seeded_table_digest(tmp_path, model, command):
    result = COMMANDS[command](Scenario.from_dict(SCENARIOS[model]))
    assert result.passed
    table, _ = emit_results(result, tmp_path / f"{model}-{command}")
    with open(table, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DIGESTS[(model, command)]


# (model, simulate.record_jumps): sha256 of the emitted JSON summary
SIMULATE_SUMMARY_DIGESTS = {
    ("two-type", True):
        "6755a03a0c58d5e93d4210f928954ecd92ebef14dafb07cce477f031cdca63ca",
    ("two-type", False):
        "952d3d8b718307c279cb154af8652ea9cae0eac76fa4ba0266ac7abeb8bd5aa5",
    ("three-type", True):
        "abd49fa7883c72da011a6efc773ae55e6570f2282346fa850eb025dfd0e72c70",
    ("three-type", False):
        "1a713633a9c1dd0f1f97bfd6e52b519f2402b2d10523294fbf3ab5a87de27c75",
}


@pytest.mark.parametrize("model, record_jumps", sorted(SIMULATE_SUMMARY_DIGESTS))
def test_simulate_summary_digest(tmp_path, model, record_jumps):
    spec = copy.deepcopy(SCENARIOS[model])
    spec["simulate"]["record_jumps"] = record_jumps
    _, summary = emit_results(run_simulate(Scenario.from_dict(spec)), tmp_path / model)
    with open(summary, "rb") as fh:
        assert (hashlib.sha256(fh.read()).hexdigest()
                == SIMULATE_SUMMARY_DIGESTS[(model, record_jumps)])


# model: sha256 of the emitted check-lemma2 JSON summary
LEMMA2_SUMMARY_DIGESTS = {
    "two-type": "d9ef370caa52d986729dd1dee3b55708e0ae29ac2001fe3e76df1b8b89ce770a",
    "three-type": "b6f881c8bee5ceec51a0177fb7957dad823246a03dede03a8a080573aa3636ff",
}


@pytest.mark.parametrize("model", sorted(LEMMA2_SUMMARY_DIGESTS))
def test_lemma2_summary_digest(tmp_path, model):
    result = run_lemma2_check(Scenario.from_dict(SCENARIOS[model]))
    _, summary = emit_results(result, tmp_path / model)
    with open(summary, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == LEMMA2_SUMMARY_DIGESTS[model]


class RatesOnlyRotor(ThreeTypeRotorModel):
    """Three-type with its rates redefined as they are, so it drops the closed-form drift."""

    def rate_matrix(self, t, x, u, v):
        return super().rate_matrix(t, x, u, v)


# name: (model, n_x, n_t, sha256 of the solved table's bytes)
VALUE_TABLES = {
    "three-type": (ThreeTypeRotorModel(), 100, 100,
                   "4822327442e7161175105af2cc4a62c9586d8f8662ffc74d12dc4ef887a2a7b9"),
    "mirrored(three-type)": (mirrored(ThreeTypeRotorModel()), 100, 100,
                             "e554ba3e0883171b8ab96c4391d4e23dbd2e46150ba3d47d97f1223d1824c266"),
    "two-type": (TwoTypeModel(), 200, 200,
                 "951c796167b6b85536b5823cb024dc7a1a1635044953d71b9d11affb168eecea"),
    "two-type-400": (TwoTypeModel(), 400, 400,
                     "693dfe5998f1b36bfa6546c4b8a69d7e359d63c9f25d4c73c72cc78f4b034f96"),
    "rates-only three-type": (RatesOnlyRotor(), 30, 30,
                              "7a52e3abcd4403877d1625e8819e5cca30c38c8a9051e39a9d912791f3f87ead"),
}


def test_rates_only_rotor_uses_the_derived_drift():
    assert RatesOnlyRotor.drift is not ThreeTypeRotorModel.drift


@pytest.mark.parametrize("name", sorted(VALUE_TABLES))
def test_solved_value_table_digest(name):
    model, n_x, n_t, digest = VALUE_TABLES[name]
    field = solve_value(model, n_t, build_simplex_grid(model.dimension, n_x))
    assert hashlib.sha256(field.table.tobytes()).hexdigest() == digest
