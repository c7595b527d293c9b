"""The machine table (``repro.machines``) is the one machine dispatch
point.

* An AST scan of ``src/repro/``: outside ``machines.py`` no module
  compares anything against the literal machine names ``"diag"`` /
  ``"ooo"`` or writes them into a tuple, list, set or dict key — every
  such branch reads the table instead.
* The table's entries are coherent, and each entry's methods build,
  run and account a machine the way the rest of the system relies on.
"""

import ast
import pathlib

import pytest

from repro.asm import assemble
from repro.faults.injector import ALL_SITES
from repro.machines import MACHINES, Machine, machine

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
NAMES = {"diag", "ooo"}


def _is_name(node):
    return isinstance(node, ast.Constant) and node.value in NAMES


def machine_name_branches(source):
    """``(line, description)`` for every comparison against, or
    collection of, a literal machine name in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for operand in operands:
                elements = operand.elts if isinstance(
                    operand, (ast.Tuple, ast.List, ast.Set)) \
                    else [operand]
                if any(_is_name(e) for e in elements):
                    found.append((node.lineno, "comparison"))
                    break
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            if any(_is_name(e) for e in node.elts):
                found.append((node.lineno, "collection"))
        elif isinstance(node, ast.Dict):
            if any(key is not None and _is_name(key) for key in node.keys):
                found.append((node.lineno, "dict key"))
    return found


@pytest.mark.parametrize("source", [
    'if machine == "diag": pass',
    'x = "ooo" != machine',
    'ok = machine in ("diag", "ooo")',
    'ok = machine not in ["ooo"]',
    'MACHINES = ("diag", "ooo")',
    'DEFAULT = {"diag": "F4C32", "ooo": "ooo8"}',
])
def test_scanner_catches_name_branches(source):
    assert machine_name_branches(source)


@pytest.mark.parametrize("source", [
    'run(machine="diag")',
    'def f(machine="diag"): pass',
    'registry.group("ooo")',
    'choices = ("both", *MACHINES)',
])
def test_scanner_allows_plain_uses(source):
    assert not machine_name_branches(source)


def test_one_machine_dispatch_point():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "machines.py":
            continue
        for line, kind in machine_name_branches(path.read_text()):
            offenders.append(f"{path.relative_to(SRC)}:{line} ({kind})")
    assert not offenders, (
        "machine-name branches outside repro/machines.py — read the "
        "MACHINES table instead:\n" + "\n".join(offenders))


# ------------------------------------------------------------- the table

def test_entries_are_coherent():
    assert set(MACHINES) == NAMES
    assert [name for name in MACHINES] == ["diag", "ooo"]
    assert sum(entry.baseline for entry in MACHINES.values()) == 1
    assert len({entry.pid for entry in MACHINES.values()}) \
        == len(MACHINES)
    for name, entry in MACHINES.items():
        assert isinstance(entry, Machine) and entry.name == name
        assert entry.default_config in entry.presets
        assert set(entry.sites) <= set(ALL_SITES)
        for preset in entry.presets:
            assert entry.config(preset).name == preset
        with pytest.raises(AttributeError):
            entry.name = "other"   # frozen


@pytest.mark.parametrize("name", [3, None, "vliw", "DIAG"])
def test_lookup_rejects_non_machines(name):
    with pytest.raises(ValueError):
        machine(name)


def test_only_an_overridable_machine_takes_overrides():
    for entry in MACHINES.values():
        if entry.overridable:
            cfg = entry.config(None, {"flush_penalty": 7})
            assert cfg.flush_penalty == 7
        else:
            with pytest.raises(ValueError):
                entry.config(None, {"flush_penalty": 7})


@pytest.mark.parametrize("name", list(MACHINES))
@pytest.mark.parametrize("threads", [1, 2])
def test_build_runs_and_accounts(name, threads):
    entry = MACHINES[name]
    cfg = entry.config()
    program = assemble("addi x5, x0, 7\nebreak\n")
    built = entry.build(cfg, program, threads)
    assert len(built.engines) == threads
    result = built.sim.run(max_cycles=10_000)
    assert result.halted
    assert all(engine.arch.x[5] == 7 for engine in built.engines)
    registry = entry.collect(result, built.hierarchies)
    assert registry.as_dict()["sim.halted"] == 1
    assert entry.energy(cfg, result, built.hierarchies,
                        threads).total_j > 0
    assert set(entry.extra(result.stats)) >= {"mispredicts"}
