"""The package's public names are exactly the ones it lists, and its
numpy calls are ones that the oldest numpy it allows has."""
import ast
import types
from pathlib import Path

import opencomp

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
