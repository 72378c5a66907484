"""The package's public names are exactly the ones it lists, its numpy
calls are ones that the oldest numpy it allows has, and its string enums
spell as their values, with members bound to names only where they are
defined.  Only ``dsl.source_tree`` touches the process-wide parse cache,
``dsl.evaluate`` checks its fuel in one place, ``frozen.Frozen`` alone
defines ``==`` and ``hash``, ``cli._read`` alone opens files, and importing
the package generates no code."""
import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import opencomp

_STRING_ENUMS = [
    opencomp.EvalKind, opencomp.MatchResult, opencomp.Mode, opencomp.Side,
    opencomp.ClassKind, opencomp.Aggregator,
]

# Names that numpy 2 added to its main namespace.  pyproject.toml allows
# numpy 1.24 on, which has none of them.
_NUMPY_2_NAMES = {
    "bitwise_count", "unique_values", "unique_counts", "unique_inverse",
    "unique_all", "concat", "isdtype", "vecdot", "matvec", "vecmat",
    "cumulative_sum", "cumulative_prod", "permute_dims", "matrix_transpose",
    "astype", "unstack", "trapezoid", "pow", "acos", "acosh", "asin", "asinh",
    "atan", "atan2", "atanh", "bitwise_left_shift", "bitwise_right_shift",
    "bitwise_invert", "strings", "_core",
}


def test_star_import_binds_exactly_all():
    names: dict = {}
    exec("from opencomp import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(opencomp.__all__)
    assert len(set(opencomp.__all__)) == len(opencomp.__all__)


def test_every_public_name_is_listed():
    public = {
        name for name, value in vars(opencomp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(opencomp.__all__)


def test_no_numpy_2_only_name_is_used():
    used = []
    for path in sorted(Path(opencomp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and node.attr in _NUMPY_2_NAMES
            ):
                used.append(f"{path.name}:{node.lineno} np.{node.attr}")
    assert used == []


def _modules() -> list[tuple[str, ast.Module]]:
    return [
        (path.stem, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(Path(opencomp.__file__).parent.glob("*.py"))
    ]


@pytest.mark.parametrize(
    "member", [m for kind in _STRING_ENUMS for m in kind], ids=repr
)
def test_a_string_enum_member_spells_as_its_value(member):
    assert str(member) == format(member, "") == f"{member}" == member.value


def test_no_class_mixes_str_into_enum_by_hand():
    mixed = [
        f"{name}.{node.name}"
        for name, tree in _modules() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and {"str", "Enum"} <= {ast.unparse(base).split(".")[-1] for base in node.bases}
    ]
    assert mixed == []


def test_enum_members_are_bound_to_names_only_where_defined():
    # A module-level ``_NAME = Kind.MEMBER`` (or a tuple of them) outside
    # the module that defines ``Kind``: other modules import the binding.
    modules = _modules()
    enums = {
        node.name: name for name, tree in modules for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith("Enum") for base in node.bases)
    }
    stray = []
    for name, tree in modules:
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            value = node.value
            for item in value.elts if isinstance(value, ast.Tuple) else [value]:
                if (
                    isinstance(item, ast.Attribute)
                    and isinstance(item.value, ast.Name)
                    and enums.get(item.value.id, name) != name
                ):
                    stray.append(f"{name}:{node.lineno} {ast.unparse(item)}")
    assert stray == []


_PARSE_CACHE = {"_trees", "_held"}


def test_only_source_tree_touches_the_parse_cache():
    # ``dsl._trees`` and ``dsl._held`` are named by their module-level
    # bindings and inside ``source_tree``, and nowhere else in the package,
    # so the process-wide cache has one reader and one writer.
    stray = []
    for name, tree in _modules():
        allowed = set()
        if name == "dsl":
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    allowed.update(id(target) for target in targets)
                elif isinstance(node, ast.FunctionDef) and node.name == "source_tree":
                    allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named = name == "dsl" and node.id in _PARSE_CACHE
            elif isinstance(node, ast.Attribute):
                named = node.attr in _PARSE_CACHE
            elif isinstance(node, ast.ImportFrom):
                named = any(alias.name in _PARSE_CACHE for alias in node.names)
            else:
                continue
            if named and id(node) not in allowed:
                stray.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert stray == []


def test_evaluate_checks_fuel_in_one_place():
    # Every step but a level's finish costs fuel, and one test before both
    # kinds of step stops a level that has none left.
    tree = dict(_modules())["dsl"]
    evaluate = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "evaluate"
    )
    checks = [
        node.lineno for node in ast.walk(evaluate)
        if isinstance(node, ast.Compare) and ast.unparse(node) == "g >= limit"
    ]
    assert len(checks) == 1, checks


def test_value_rules_are_defined_once():
    # ``Frozen`` states ``==`` and ``hash`` for every slot class, array
    # fields included; only ``GameTable`` copies through its constructor.
    defined: dict[str, set[str]] = {"__eq__": set(), "__hash__": set(),
                                    "__reduce__": set()}
    for _, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign):  # ``__hash__ = None``
                    names = [ast.unparse(target) for target in node.targets]
                else:
                    continue
                for name in names:
                    if name in defined:
                        defined[name].add(cls.name)
    assert defined == {"__eq__": {"Frozen"}, "__hash__": {"Frozen"},
                       "__reduce__": {"Frozen", "GameTable"}}


# What ``import opencomp`` loads of the package.  A module loaded only on
# first use would move its import cost out of start-up, not save it.
_IMPORTED = {
    "opencomp", "opencomp.arena", "opencomp.bundled", "opencomp.classify",
    "opencomp.crosstable", "opencomp.demos", "opencomp.dsl", "opencomp.errors",
    "opencomp.game_core", "opencomp.mixed", "opencomp.series",
}


def test_import_loads_every_module_and_no_dataclasses():
    # In a fresh interpreter: ``dataclasses`` writes and compiles the methods
    # of each class it decorates, on every import.
    src = str(Path(opencomp.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, opencomp; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "dataclasses" not in loaded
    assert _IMPORTED <= set(loaded)


_FILE_READS = {"open", "read_text", "read_bytes"}


def test_files_are_read_in_one_place():
    # Only ``cli._read`` opens files, so every input is read by one rule:
    # its bytes, one newline translation, UTF-8.
    reads = []
    for name, tree in _modules():
        reader = set()
        if name == "cli":
            read = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_read"
            )
            reader = {id(node) for node in ast.walk(read)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in _FILE_READS:
                reads.append((id(node) in reader, f"{name}:{node.lineno} {called}"))
    assert reads and [where for inside, where in reads if not inside] == []


def test_no_module_calls_exec_or_eval():
    calls = [
        f"{name}:{node.lineno} {ast.unparse(node.func)}"
        for name, tree in _modules() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval")
    ]
    assert calls == []
