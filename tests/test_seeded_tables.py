"""The seeded tables of the oracle, lemma-2 and simulate commands, pinned by digest.

Each case runs one command on a small scenario through ``emit_results``
and compares the sha256 of the CSV table with the digest the same
scenario gave before the per-trial generators were built by
``chain.trial_generators`` and lemma 2's exact laws were evolved in
batches. Both changes keep every stream and every float, so the tables
must not move.

ROADMAP item 7 (counter-based random streams) changes these digests on
purpose. The change that lands it replaces the constants below and
records the old and new digests in CHANGES.md.
"""

import hashlib

import pytest

from chainguide.harness import (
    Scenario,
    emit_results,
    run_lemma2_check,
    run_oracle_check,
    run_simulate,
)

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

COMMANDS = {"oracle": run_oracle_check, "check-lemma2": run_lemma2_check,
            "simulate": run_simulate}

DIGESTS = {
    ("two-type", "oracle"):
        "333fe9fc4bf8a42192196832612aaefc1184be423e3dc1269831e6db6bf737c6",
    ("two-type", "check-lemma2"):
        "8cae7e6497bf414667c86df46568bbb040c98959cc93340523932b950a6abdf6",
    ("two-type", "simulate"):
        "50134550c692266f6435d41da18946163ee85b26143453aad4b052491138ae1a",
    ("three-type", "oracle"):
        "b6fad59292d686cbe24610ef219b479a9067b6ce2f96918ea643c7a5f587de2e",
    ("three-type", "check-lemma2"):
        "535ed4dd5c63ac59027476ebb6383c57c0ab5cb1c0b986213af9f149ee1d7570",
    ("three-type", "simulate"):
        "78dba363e305d2dca717c30fe61ee04bfb865583c611644661ff10775704b3f1",
}


@pytest.mark.parametrize("model, command", sorted(DIGESTS))
def test_seeded_table_digest(tmp_path, model, command):
    result = COMMANDS[command](Scenario.from_dict(SCENARIOS[model]))
    assert result.passed
    table, _ = emit_results(result, tmp_path / f"{model}-{command}")
    with open(table, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DIGESTS[(model, command)]
