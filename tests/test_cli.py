import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from chainguide import harness
from chainguide.cli import COMMANDS, main
from chainguide.models import build_model


def write_scenario(tmp_path, **overrides):
    payload = {
        "model": "two-type",
        "particle_counts": [10],
        "partition_steps": [25],
        "initial_state": [1.0, 0.0],
        "trials": 40,
        "adversaries": [{"kind": "constant", "value": 1.0}],
        "value_grid": {"n_x": 50, "n_t": 50},
        "seed": 11,
    }
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


# a scenario head on which 2000 particles (2 003 001 nodes) exceed the lattice cap
THREE_TYPE = {"model": "three-type", "initial_state": [0.4, 0.4, 0.2]}


@pytest.fixture
def no_value_solve(monkeypatch):
    """A scenario that exits 2 must be rejected before the value solve."""
    def solve_value(*args, **kwargs):
        raise AssertionError("solve_value reached on a bad scenario")
    monkeypatch.setattr(harness, "solve_value", solve_value)


def test_cli_requires_known_scenario_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": "two-type", "unknown_key": 1}))
    code = main(["experiment", "--scenario", str(path)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"model": "nope"},
    {"value_grid": {"n_x": 50}},
    {"initial_state": [0.2, 0.3, 0.5]},
    {"trials": "5"},
    {"particle_counts": []},
    {"model_params": {"bogus": 1}},
    {"seed": -1},
    {"start_time": 1.0},
    {"initial_state": [0.7, 0.7]},
    {"adversaries": [{"kind": "constant", "value": "x"}]},
    {"adversaries": [{"kind": ["extremal"]}]},
    {"lemma1": {"state": [1, 2, 3]}},
    {"lemma2": {"deltas": "x"}},
    {"simulate": {"adversary_index": 5}},
    {"lemma2": {"acceptance_delta": 0.01}},
    {"start_time": 0.5, "oracle": {"elapsed": 0.8}},
    {"lemma2": {"deltas": [2.0, 0.01]}},
    {"oracle": {"u": 5.0}},
    {"oracle": {"v": 0.25}},
    {"lemma1": {"deltas": [0.02, 0.01, 0.02]}},
    {"lemma2": {"deltas": [0.01, 0.01]}},
    {"start_time": 0.5, "oracle": {"dynkin": {"elapsed": 0.8}}},
    {"lemma1": {"particle_count": 10, "state": [2, 2]}},
    {**THREE_TYPE, "value_grid": {"n_x": 2000, "n_t": 10}},
    {**THREE_TYPE, "oracle": {"particle_count": 2000}},
    {**THREE_TYPE, "oracle": {"dynkin": {"particle_count": 2000}}},
    {**THREE_TYPE, "lemma1": {"particle_count": 2000}},
    {**THREE_TYPE, "lemma1": {"state": [2000, 0, 0]}},
    {**THREE_TYPE, "lemma2": {"particle_count": 2000}},
    {"model": "zero", "model_params": {"payoff_coordinate": 5}},
    {"model": "zero", "model_params": {"dimension": 0}},
], ids=["unknown-model", "value-grid-without-n_t", "3d-state-on-two-type",
        "string-trials", "no-particle-counts", "bogus-model-param", "negative-seed",
        "start-at-horizon", "state-not-a-mix", "string-constant-value", "list-adversary-kind",
        "3d-lemma1-state-on-two-type", "string-lemma2-deltas", "missing-adversary-index",
        "unread-lemma2-acceptance-delta", "oracle-elapsed-past-horizon",
        "lemma2-delta-past-horizon", "off-grid-oracle-u", "off-grid-oracle-v",
        "duplicate-lemma1-deltas", "duplicate-lemma2-deltas", "dynkin-elapsed-past-horizon",
        "lemma1-particle-count-not-state-total", "over-cap-value-grid",
        "over-cap-oracle-total", "over-cap-dynkin-total", "over-cap-lemma1-total",
        "over-cap-lemma1-state", "over-cap-lemma2-total", "zero-payoff-coordinate-past-dimension",
        "zero-dimension-0"])
def test_cli_bad_scenario_exits_2(tmp_path, capsys, no_value_solve, overrides):
    scen = write_scenario(tmp_path, **overrides)
    # every command here reads the start state (check-lemma2 draws its own)
    for command in ("value", "experiment", "oracle", "simulate", "check-lemma1"):
        assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("commands,overrides", [
    (("value", "experiment", "simulate", "check-lemma2"),
     {**THREE_TYPE, "value_grid": {"n_x": 8, "n_t": 1}}),
    # the value step 1/600 passes at K = 300; the guides' fixed 0.01 does not
    (("experiment", "corollary", "simulate", "check-lemma2"),
     {"model_params": {"u_levels": [0, 300]}, "value_grid": {"n_x": 8, "n_t": 600}}),
], ids=["value-time-step", "guide-ode-step"])
def test_cli_step_too_large_for_the_rate_bound_exits_2(tmp_path, capsys, no_value_solve,
                                                       commands, overrides):
    scen = write_scenario(tmp_path, adversaries=[{"kind": "extremal"}], **overrides)
    for command in commands:
        assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("text", [
    b'{"model": "two-type", "model_params": {"horizon": 1e400}}',
    b'\xff\xfe{"model": "two-type"}',
], ids=["infinite-horizon", "not-utf-8"])
def test_cli_unloadable_scenario_text_exits_2(tmp_path, capsys, no_value_solve, text):
    scen = tmp_path / "scenario.json"
    scen.write_bytes(text)
    for command in COMMANDS:
        assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_cli_over_cap_default_lattice_total_exits_2(tmp_path, capsys, no_value_solve):
    # the oracle and lemma sections fall back on particle_counts[0], which only
    # the commands that enumerate its whole lattice must keep under the cap
    scen = write_scenario(tmp_path, **THREE_TYPE, particle_counts=[2000])
    for command in ("oracle", "check-lemma1", "check-lemma2"):
        assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: particle total 2000") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_cli_off_grid_constant_adversary_exits_2(tmp_path, capsys, no_value_solve):
    # simulate plays only the first adversary but checks every listed one
    scen = write_scenario(tmp_path, adversaries=[{"kind": "extremal"},
                                                 {"kind": "constant", "value": 3.0}],
                          lemma2={"particle_count": 10, "pairs": 2, "deltas": [0.01],
                                  "trials_per_pair": 50})
    for command in ("experiment", "corollary", "check-lemma2", "simulate"):
        assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_cli_constant_adversary_checked_on_its_seat_grid(tmp_path, capsys):
    # 2.0 is one of player 1's controls only: the corollary's adversary may play it
    scen = write_scenario(tmp_path, model_params={"u_levels": [0.0, 2.0]},
                          adversaries=[{"kind": "constant", "value": 2.0}])
    assert main(["experiment", "--scenario", str(scen), "--out", str(tmp_path / "a")]) == 2
    assert "error: " in capsys.readouterr().err
    assert main(["corollary", "--scenario", str(scen), "--out", str(tmp_path / "b")]) != 2
    assert (tmp_path / "b.csv").exists()


def test_cli_workers_must_be_positive(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--scenario", str(scen), "--workers", "0"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_cli_oracle_from_a_later_start_time(tmp_path):
    # elapsed defaults to the time left before the horizon
    scen = write_scenario(tmp_path, particle_counts=[4], start_time=0.5,
                          oracle={"trials": 2000, "u": 1.0, "v": 0.0, "tv_tolerance": 0.06})
    assert main(["oracle", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o.csv").exists()


def test_cli_default_out_is_results_kind(tmp_path, monkeypatch):
    scen = write_scenario(tmp_path, lemma1={"particle_count": 4, "state": [2, 2]})
    monkeypatch.chdir(tmp_path)
    assert main(["check-lemma1", "--scenario", str(scen)]) == 0
    assert (tmp_path / "results" / "lemma1.csv").exists()
    assert (tmp_path / "results" / "lemma1.json").exists()


def test_cli_missing_file(tmp_path):
    assert main(["oracle", "--scenario", str(tmp_path / "nope.json")]) == 2


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    scen = write_scenario(tmp_path, lemma1={"particle_count": 4, "state": [2, 2]})
    # a path below a regular file can be neither made nor written
    blocked = scen / "out"
    assert main(["check-lemma1", "--scenario", str(scen), "--out", str(blocked)]) == 2
    assert main(["value", "--scenario", str(scen), "--out", str(tmp_path / "v"),
                 "--export-field", str(blocked / "field.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and err.count("\n") == 2


def test_cli_value_with_export(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out" / "value"
    field_path = tmp_path / "out" / "field.json"
    code = main(["value", "--scenario", str(scen), "--out", str(out),
                 "--export-field", str(field_path)])
    assert code == 0
    assert (tmp_path / "out" / "value.csv").exists()
    assert (tmp_path / "out" / "value.json").exists()
    assert field_path.exists()
    assert "pass" in capsys.readouterr().out


def test_cli_experiment_and_seed_override(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["experiment", "--scenario", str(scen), "--out", str(out_a)]) == 0
    assert main(["experiment", "--scenario", str(scen), "--out", str(out_b)]) == 0
    # same seed: byte-identical outputs
    assert out_a.with_suffix(".csv").read_bytes() == out_b.with_suffix(".csv").read_bytes()
    assert out_a.with_suffix(".json").read_bytes() == out_b.with_suffix(".json").read_bytes()
    # different seed: different trials
    assert main(["experiment", "--scenario", str(scen), "--seed", "99",
                 "--out", str(out_c)]) == 0
    assert out_a.with_suffix(".csv").read_bytes() != out_c.with_suffix(".csv").read_bytes()
    # the override is validated like the scenario seed
    capsys.readouterr()
    assert main(["experiment", "--scenario", str(scen), "--seed", "-1",
                 "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "d.csv").exists()


def test_cli_check_commands(tmp_path):
    scen = write_scenario(
        tmp_path,
        particle_counts=[4],
        lemma1={"particle_count": 4, "state": [2, 2], "u": 1.0, "v": 0.0},
        lemma2={"particle_count": 10, "pairs": 4, "deltas": [0.02, 0.01],
                "trials_per_pair": 500},
        oracle={"trials": 2000, "u": 1.0, "v": 0.0, "tv_tolerance": 0.06},
    )
    for command in ("check-lemma1", "check-lemma2", "oracle"):
        out = tmp_path / command
        assert main([command, "--scenario", str(scen), "--out", str(out)]) == 0
        summary = json.loads((tmp_path / f"{command}.json").read_text())
        assert summary["passed"] is True
        assert summary["library_version"]


def test_cli_simulate(tmp_path):
    scen = write_scenario(tmp_path, simulate={"episodes": 2, "record_jumps": True})
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "sim.json").read_text())
    assert len(summary["records"]) == 2


def test_cli_exit_code_reflects_failures(tmp_path):
    # an impossible tolerance forces the oracle check to fail -> exit 1
    scen = write_scenario(tmp_path, particle_counts=[4],
                          oracle={"trials": 500, "u": 1.0, "v": 0.0,
                                  "tv_tolerance": 1e-9, "unit_check": False})
    assert main(["oracle", "--scenario", str(scen), "--out",
                 str(tmp_path / "fail")]) == 1


def test_cli_lemma1_at_a_large_rate_bound_fails_without_a_traceback(tmp_path):
    # with M K = 4e4 a fixed 0.002 RK4 step blows up the forward equations;
    # the K-aware step does not, and the lemma's leading terms then fail
    scen = write_scenario(tmp_path, particle_counts=[4], model_params={"u_levels": [0, 1e4]})
    assert main(["check-lemma1", "--scenario", str(scen), "--out", str(tmp_path / "l1")]) == 1


@pytest.mark.parametrize("command, overrides", [
    # at K = 1e6 the oracle's thinning and forward equations ran for minutes
    ("oracle", {"particle_counts": [4], "model_params": {"u_levels": [0, 1e6]},
                "oracle": {"trials": 10, "u": 1e6}}),
    ("experiment", {"trials": 10**6, "particle_counts": [200]}),
    ("corollary", {"trials": 10**6, "particle_counts": [200]}),
    ("simulate", {"simulate": {"episodes": 10**8}}),
    ("check-lemma1", {"particle_counts": [4], "model_params": {"u_levels": [0, 1e9]}}),
    ("check-lemma2", {"lemma2": {"pairs": 1000, "trials_per_pair": 10**6}}),
    # about 7e7 candidates and node-steps counted one for one, but 8e6 RK4
    # steps on a 5-node lattice, each paying its set-up cost: minutes of work
    ("oracle", {"particle_counts": [4],
                "model_params": {"u_levels": [0, 2e5], "v_levels": [0, 1]},
                "oracle": {"trials": 10, "u": 2e5, "v": 0}}),
    # 1.4e7 RK4 steps on the 5-node lattice: 7e7 node-steps counted one for one
    ("check-lemma1", {"particle_counts": [4], "model_params": {"u_levels": [0, 1e7]}}),
    # 186 780 RK4 steps on the 2-node lattice ran about 22 s, some 118 us a
    # step, while each step counted 500 nodes wide: 9.3e7 units
    ("check-lemma1", {"particle_counts": [1], "model_params": {"v_levels": [533654.29, 0.0]}}),
])
def test_cli_work_over_budget_exits_2_before_running(tmp_path, capsys, no_value_solve,
                                                     command, overrides):
    scen = write_scenario(tmp_path, **overrides)
    start = time.monotonic()
    assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1
    assert time.monotonic() - start < 5.0
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, overrides", [
    ("experiment", {}),
    ("corollary", {}),
    ("simulate", {"simulate": {"episodes": 1}}),
])
def test_cli_partition_steps_count_against_the_budget(tmp_path, capsys, no_value_solve,
                                                      command, overrides):
    # one trial implies almost no thinning, but each of a million partition
    # steps pays the fixed cost of a step: about 8 minutes of work
    scen = write_scenario(tmp_path, trials=1, partition_steps=[10**6], **overrides)
    start = time.monotonic()
    assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert "budget" in capsys.readouterr().err
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("steps", [2 * 10**5, 10**5])
def test_cli_partition_steps_are_priced_at_their_fixed_cost(tmp_path, capsys, no_value_solve,
                                                            steps):
    # a partition step of a one-trial block costs about 0.4 ms, some 4000
    # thinning candidates' time: 10^5 steps ran for about 40 s while each
    # step counted only 500 rows
    scen = write_scenario(tmp_path, trials=1, particle_counts=[20], partition_steps=[steps])
    start = time.monotonic()
    assert main(["experiment", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert "budget" in capsys.readouterr().err
    assert time.monotonic() - start < 1.0


@st.composite
def fuzzed_scenarios(draw):
    """Small scenarios over every model, with horizons, controls and grids near their limits.

    Control levels reach 1e6, a rate bound at which every command should
    refuse the scenario at load. The oracle and lemma sections are small
    and fixed, and the episodes are one trial over two partition steps, so
    a scenario either runs in a moment or is refused.
    """
    model = draw(st.sampled_from(["two-type", "three-type", "zero"]))
    params = {}
    if draw(st.booleans()):
        params["horizon"] = draw(st.sampled_from([0.0, -1.0, float("inf")])
                                 | st.floats(0.05, 3.0))
    dimension = {"two-type": 2, "three-type": 3}.get(model, 2)
    levels = st.lists(st.floats(0.0, 1e3) | st.just(1e6), min_size=1, max_size=3, unique=True)
    if model == "zero":
        if draw(st.booleans()):
            dimension = params["dimension"] = draw(st.integers(-1, 5))
        if draw(st.booleans()):
            params["payoff_coordinate"] = draw(st.integers(-1, 5))
    else:
        for key in ("u_levels", "v_levels"):
            if draw(st.booleans()):
                params[key] = draw(levels)
    state = [0.0] * max(dimension, 2)
    state[draw(st.integers(0, len(state) - 1))] = 1.0
    particles = draw(st.integers(1, 6))
    return {
        "model": model,
        "model_params": params,
        "particle_counts": [particles],
        "partition_steps": [2],
        "initial_state": state,
        "start_time": draw(st.sampled_from([0.0]) | st.floats(0.0, 2.0)),
        "trials": 1,
        "adversaries": [draw(st.sampled_from([
            {"kind": "extremal"}, {"kind": "random"}, {"kind": "greedy"},
            {"kind": "constant", "value": 0.0}, {"kind": "constant", "value": 1.0}]))],
        "value_grid": {"n_x": draw(st.integers(2, 10)), "n_t": draw(st.integers(1, 10))},
        "simulate": {"episodes": 1, "partition_step_count": 2, "particle_count": particles,
                     "record_jumps": draw(st.booleans())},
        "oracle": {"trials": 20, "elapsed": 0.05, "dynkin": {"elapsed": 0.05}},
        "lemma2": {"pairs": 1, "trials_per_pair": 20, "deltas": [0.01]},
    }


@settings(max_examples=80, deadline=None)
@given(fuzzed_scenarios())
@example({**THREE_TYPE, "value_grid": {"n_x": 8, "n_t": 1}})
@example({"model": "two-type", "model_params": {"horizon": float("inf")}})
@example({"model": "zero", "model_params": {"payoff_coordinate": 5}})
@example({"model": "two-type", "model_params": {"u_levels": [0.0, 1e6]}, "particle_counts": [4],
          "simulate": {"record_jumps": False}})
@example({"model": "two-type", "model_params": {"u_levels": [0.25, 0.5]}, "particle_counts": [2],
          "partition_steps": [2], "trials": 1, "value_grid": {"n_x": 4, "n_t": 4},
          "adversaries": [{"kind": "constant", "value": 1.0}]})
def test_cli_fuzzed_scenarios_exit_0_1_or_2(payload):
    # main raises on a traceback; every other outcome is an exit code
    with tempfile.TemporaryDirectory() as tmp:
        scen = Path(tmp) / "scenario.json"
        scen.write_text(json.dumps(payload))
        codes = {command: main([command, "--scenario", str(scen), "--out", str(Path(tmp) / "out")])
                 for command in ("value", "experiment", "corollary", "simulate", "oracle",
                                 "check-lemma1", "check-lemma2")}
    assert set(codes.values()) <= {0, 1, 2}
    # a constant adversary must play a point of its seat's grid: v against
    # the experiment's guided player 1, u against the corollary's player 2
    spec = payload.get("adversaries", [{}])[0]
    if spec.get("kind") == "constant":
        for command, seat_grid in (("experiment", "v_grid"), ("corollary", "u_grid")):
            try:
                getattr(build_model(payload["model"], payload.get("model_params")),
                        seat_grid).index_of(spec["value"])
            except (TypeError, ValueError):
                assert codes[command] == 2
