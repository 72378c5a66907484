"""The package's public names are exactly the ones it lists."""
import types

import opencomp


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
