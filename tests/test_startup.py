"""What a CLI process loads before it parses its arguments and while it runs
one subcommand, the records that replaced dataclasses, and a lint of the
names each module imports and defines."""

import argparse
import ast
import gc
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import capauction
from capauction.analysis import optimize_cap_and_price
from capauction.auction import Analysis, AuctionParams
from capauction.bounds import verify_sellout_factor
from capauction.cli import COMMANDS, build_parser, main
from capauction.equilibrium import find_grid_equilibria
from capauction.instances import NAMED_INSTANCES, demand_reduction, generate
from capauction.io import save_instance
from capauction.model import ValidationError
from oracles import enumerate_scenarios, quadratic

SRC = str(Path(capauction.__file__).resolve().parent.parent)

# Each of these is imported only by the subcommands that use it.
NOT_AT_STARTUP = ("dataclasses", "inspect", "csv")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_subcommand_module():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import capauction.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, check=True
    ).stdout.split()
    # Each subcommand's arguments are declared by its handler's module,
    # which the parser imports only for that subcommand.
    assert [name for name in loaded if name.split(".")[0] == "capauction"] == [
        "capauction", "capauction.cli", "capauction.model",
    ]
    assert [name for name in NOT_AT_STARTUP if name in loaded] == []


# Package modules each subcommand's process must not load. No process
# loads `capauction.cli` as a module: `python -m` runs it as `__main__`, so
# importing it again would compile it a second time.
NOT_LOADED_BY = {
    "evaluate": ("bounds", "equilibrium", "instances", "cli"),
    "optimize": ("bounds", "equilibrium", "instances", "cli"),
    "verify": ("equilibrium", "instances", "cli"),
    "equilibrium": ("analysis", "bounds", "instances", "cli"),
    # These two read no scenario, so they need no `auction`.
    "examples": ("auction", "analysis", "bounds", "equilibrium", "cli"),
    "generate": ("auction", "analysis", "bounds", "equilibrium", "cli"),
}
# Definitions an `equilibrium` process must not compile: the sweeps and the
# `optimize` and `evaluate` handlers. (`cli`, run as `__main__`, imports
# only the running subcommand's module.)
SWEEP_CODE = {"optimize_cap_and_price", "optimize_safe", "cmd_optimize", "cmd_evaluate"}


# How `python -m capauction.cli` starts the CLI.
AS_MAIN = "runpy.run_module('capauction.cli', run_name='__main__', alter_sys=True)\n"


def _console_script() -> str:
    """How the installed `capauction` script starts the CLI: it calls the
    entry point that pyproject.toml's [project.scripts] names."""
    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^capauction = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"from {module} import {function}\nsys.exit({function}())\n"


def _at_exit(tmp_path, argv, expression: str, start: str = AS_MAIN) -> str:
    """What `expression` reads at exit, by an atexit hook, in a CLI process
    that `start` begins and that runs `argv` in a directory where
    instance.json holds demand_reduction."""
    save_instance(demand_reduction(), tmp_path / "instance.json")
    probe = (
        "import atexit, gc, runpy, sys\n"
        f"atexit.register(lambda: print({expression}, file=sys.stderr))\n"
        "sys.argv = ['capauction', *sys.argv[1:]]\n"
        + start
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=ENV, cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stderr


def _loaded_by(tmp_path, argv) -> list[str]:
    """The modules a CLI process running `argv` has loaded when it exits."""
    return _at_exit(tmp_path, argv, "' '.join(sorted(sys.modules))").split()


@pytest.mark.parametrize("start", ["python -m", "console script"])
def test_cli_process_exits_with_the_collector_off_and_its_objects_frozen(tmp_path, start):
    state = _at_exit(tmp_path, ["equilibrium", "instance.json", "--cap", "2", "--floor", "9"],
                     "gc.isenabled(), gc.get_freeze_count() > 0",
                     AS_MAIN if start == "python -m" else _console_script())
    assert state == "False True\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_was(tmp_path, capsys, enabled):
    save_instance(demand_reduction(), tmp_path / "instance.json")
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main(["equilibrium", str(tmp_path / "instance.json"), "--cap", "2",
                     "--floor", "9"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()


@pytest.mark.parametrize("argv", [
    ["evaluate", "instance.json", "--cap", "2", "--floor", "9"],
    ["optimize", "instance.json", "--out", "report.csv"],
    ["optimize", "instance.json", "--no-ceiling"],
    ["verify", "instance.json", "--which", "all"],
    ["equilibrium", "instance.json", "--cap", "2", "--floor", "9"],
    ["examples", "logscale", "-n", "3", "--out", "written.json"],
    ["generate", "--seed", "7", "--out", "written.json"],
])
def test_subcommand_process_loads_only_its_own_modules(tmp_path, argv):
    loaded = _loaded_by(tmp_path, argv)
    owner = next(module for name, module, _ in COMMANDS if name == argv[0])
    assert f"capauction.{owner}" in loaded
    assert [m for m in NOT_LOADED_BY[argv[0]] if f"capauction.{m}" in loaded] == []


@pytest.mark.parametrize("options", [[], ["--out", "report.csv"]])
def test_equilibrium_process_compiles_no_sweep(tmp_path, options):
    loaded = _loaded_by(
        tmp_path, ["equilibrium", "instance.json", "--cap", "2", "--floor", "9", *options]
    )
    package = {f"capauction.{name[:-3]}": tree for name, tree in _parsed(PACKAGE).items()}
    defined = {
        (module, statement.name)
        for module in loaded if module in package
        for statement in package[module].body
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
    }
    assert {name for _, name in defined} & SWEEP_CODE == set()
    assert ("capauction.equilibrium", "cmd_equilibrium") in defined


def test_examples_choices_are_the_named_instances():
    parser = build_parser(["examples"])
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    name = next(a for a in commands.choices["examples"]._actions if a.dest == "name")
    assert tuple(name.choices) == NAMED_INSTANCES


def test_auction_params_repr_is_unchanged():
    assert repr(AuctionParams(2, 1)) == (
        "AuctionParams(cap=2, floor=Fraction(1, 1), ceiling=None, pricing='lowest-winning')"
    )


def test_auction_params_coerces_and_validates():
    assert AuctionParams(1, "3/2").floor == F(3, 2)
    assert AuctionParams(cap=1, floor=0, ceiling="5/2").ceiling == F(5, 2)
    for cap in (2.5, True, "2"):
        with pytest.raises(ValidationError, match="cap must be an integer"):
            AuctionParams(cap, 0)


def _records():
    instance = demand_reduction()
    analysis = Analysis(instance)
    params = AuctionParams(2, 9, None, "highest-losing")
    report = find_grid_equilibria(instance, params)
    return [
        quadratic(1),
        instance,
        params,
        enumerate_scenarios(instance)[0],
        optimize_cap_and_price(analysis, allow_ceiling=False),
        verify_sellout_factor(analysis),
        report,
    ]


def test_records_are_read_only():
    for record in _records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_generated_instances_hash_and_compare_by_value():
    assert generate(4) == generate(4) and hash(generate(4)) == hash(generate(4))
    assert generate(4) != generate(5)


PACKAGE = Path(capauction.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _parsed(directory: Path) -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(directory.glob("*.py"))
    }


def _loads(node: ast.AST) -> set[str]:
    """Every name `node` reads: bare names and attribute names."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store))
        or isinstance(sub, ast.Attribute)
    }


def test_every_module_level_import_is_read():
    unused = []
    for directory in (PACKAGE, TESTS):
        for name, tree in _parsed(directory).items():
            read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
            for statement in tree.body:
                if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                    continue
                if isinstance(statement, (ast.Import, ast.ImportFrom)):
                    for alias in statement.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound not in read:
                            unused.append(f"{directory.name}/{name}: {bound}")
    assert unused == []


def test_every_package_definition_is_read_by_package_code():
    """A top-level function or class that only tests call belongs in the
    tests (`oracles.py`)."""
    statements = [s for tree in _parsed(PACKAGE).values() for s in tree.body]
    unread = []
    for name, tree in _parsed(PACKAGE).items():
        for statement in tree.body:
            if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(statement.name in _loads(s) for s in statements if s is not statement):
                unread.append(f"{name}: {statement.name}")
    assert unread == []


def test_the_package_root_re_exports_nothing():
    """Each name is imported from the module that defines it: the root
    binds only its version, and tests import only modules from it."""
    _, *body = _parsed(PACKAGE)["__init__.py"].body  # after the docstring
    assert [ast.unparse(getattr(s, "targets", s)[0]) for s in body] == ["__version__"]
    modules = {name[:-3] for name in _parsed(PACKAGE)} - {"__init__"}
    from_root = {
        alias.name
        for tree in _parsed(TESTS).values()
        for statement in ast.walk(tree)
        if isinstance(statement, ast.ImportFrom) and statement.module == "capauction"
        for alias in statement.names
    }
    assert from_root and from_root <= modules


# The Fraction clearing oracle and the scenario rows it clears, which live
# in the tests (`oracles.py`): the package clears through
# `auction.clear_valid` alone and reads welfare from the integer tables.
ORACLE_ONLY = {
    "run_auction", "clear", "Outcome", "welfare_of", "enumerate_scenarios", "ScenarioRow",
}


def test_no_package_module_defines_the_clearing_oracle():
    defined = {
        (name, statement.name)
        for name, tree in _parsed(PACKAGE).items()
        for statement in ast.walk(tree)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
    }
    assert {(name, d) for name, d in defined if d in ORACLE_ONLY} == set()


def _static(method: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list)


def test_every_package_method_is_read_by_package_code():
    """A method or property that only tests read belongs in the tests too;
    Python calls the dunder methods itself. A static method is read only
    as `ClassName.name`, so a read of another class's method of the same
    name does not count for it."""
    trees = _parsed(PACKAGE)
    attributes = [
        sub for tree in trees.values() for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)
    ]
    unread = []
    for tree in trees.values():
        for cls in (sub for sub in ast.walk(tree) if isinstance(sub, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                    continue
                own = {id(sub) for sub in ast.walk(method)}
                if not any(
                    a.attr == method.name and id(a) not in own
                    and (not _static(method) or getattr(a.value, "id", None) == cls.name)
                    for a in attributes
                ):
                    unread.append(f"{cls.name}.{method.name}")
    assert unread == []
