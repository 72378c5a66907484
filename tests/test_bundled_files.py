"""The data files at the repository root are copies of ``opencomp.bundled``.

``bundled.py`` is the one source; ``games/``, ``learners/`` and
``crosstables/`` exist so the CLI can be pointed at files.  These tests fail
as soon as a copy drifts from its source.
"""
import pytest

from opencomp import CATALOG, ENGINES3_TEXT, dice, pennies, rps, serialize_game

from conftest import REPO_ROOT


@pytest.mark.parametrize("builder", [rps, dice, pennies], ids=lambda b: b.__name__)
def test_game_file_is_the_serialized_builder(builder):
    path = REPO_ROOT / "games" / f"{builder.__name__}.gm"
    assert path.read_text() == serialize_game(builder())


def test_game_files_are_exactly_the_builders():
    names = {path.stem for path in (REPO_ROOT / "games").glob("*.gm")}
    assert names == {"rps", "dice", "pennies"}


def test_learner_files_are_exactly_the_catalog():
    files = {path.stem: path for path in (REPO_ROOT / "learners").glob("*.lrn")}
    assert sorted(files) == sorted(name for name, _ in CATALOG)
    for name, source in CATALOG:
        assert files[name].read_text() == f"learner {name}\n{source}\n"


def test_crosstable_file_is_the_bundled_text():
    path = REPO_ROOT / "crosstables" / "engines3.ct"
    assert path.read_text() == ENGINES3_TEXT
