"""The public surface: the exported names, the README's library example and the runtime imports."""

import ast
import re
import sys
from pathlib import Path

import chainguide
from chainguide import harness
from chainguide.cli import COMMANDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in chainguide.__all__ if not hasattr(chainguide, name)]
    assert missing == []
    assert len(set(chainguide.__all__)) == len(chainguide.__all__)
    assert {"mirrored", "run_episodes"} <= set(chainguide.__all__)
    assert not {"run_episode", "integrate_characteristic"} & set(dir(chainguide))
    # a chain state is a count row; the class is kept for the benchmark tracer only
    assert "LatticeState" not in chainguide.__all__
    # an exact or empirical law is a plain probability array; its wrapper is gone
    from chainguide import chain, strategy
    for gone in ("Distribution", "tv_distance"):
        assert gone not in chainguide.__all__
        assert not hasattr(chainguide, gone) and not hasattr(chain, gone)
    # an episode and its jumps are recorded as arrays; their per-trial objects are gone
    assert "TrajectoryRecord" not in chainguide.__all__
    assert not hasattr(chainguide, "TrajectoryRecord") and not hasattr(strategy, "TrajectoryRecord")
    assert not hasattr(chain, "JumpEvent")


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    payoff, value = map(float, capsys.readouterr().out.split())
    assert 0.0 <= payoff <= 1.0
    assert 0.0 <= value <= 1.0


def test_readme_scenario_table_lists_the_accepted_section_keys():
    specs = {"lemma1": harness._LEMMA1_SPEC, "lemma2": harness._LEMMA2_SPEC,
             "oracle": harness._ORACLE_SPEC, "simulate": harness._SIMULATE_SPEC}
    rows = dict(re.findall(r"^\| `(\w+)` \| `\{(.*?)\}` \|", README.read_text(encoding="utf-8"),
                           re.M))
    for section, spec in specs.items():
        # a nested sub-section is listed as name{...}
        listed = {key.split("{")[0] for key in rows[section].split(", ")}
        assert listed == set(spec), section


def test_readme_command_block_matches_cli():
    lines = re.findall(r"^chainguide (\S+) +--scenario scen\.json(.*)$",
                       README.read_text(encoding="utf-8"), re.M)
    listed = {name: set(re.findall(r"--[\w-]+", rest)) for name, rest in lines}
    assert len(listed) == len(lines)
    assert listed == {name: {flag for flag, _ in command.flags}
                      for name, command in COMMANDS.items()}


def test_src_imports_only_stdlib_and_numpy():
    # numpy is the one runtime dependency in pyproject.toml
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imported = set()
    for path in sorted((README.parent / "src" / "chainguide").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert imported
    assert sorted((name, module) for name, module in imported if module not in allowed) == []


def test_lattice_state_named_only_in_simplex():
    # the one state form: no other module takes, builds or tests for the class
    naming = set()
    for path in sorted((README.parent / "src" / "chainguide").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            # a Name's id, an Attribute's attr, an import alias's or a definition's name
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            if "LatticeState" in names:
                naming.add(path.name)
    assert naming == {"simplex.py"}


def test_rk4_step_named_only_by_the_law_loop_and_the_guide_flow():
    # one RK4 loop for the exact laws, which the Dynkin residual reads, and
    # one for the guides: no other function calls, aliases or passes rk4_step
    naming = set()

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if "rk4_step" in {getattr(node, "id", None), getattr(node, "attr", None)}:
            naming.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted((README.parent / "src" / "chainguide").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, None)
    assert naming == {("chain.py", "_law_steps"), ("guide.py", "_flow")}
