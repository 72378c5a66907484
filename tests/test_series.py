import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import game_tables
from opencomp import (
    Aggregator, GameTable, ShapeMismatchError, compose_series, dice, pennies,
    role_swapped, rps,
)


def table(rows, name="t", symmetric=False):
    return GameTable(
        name=name, entries=np.array(rows, dtype=np.int8), symmetric_flag=symmetric
    )


def dice3():
    entries = np.sign(
        np.arange(1, 4)[:, None] - np.arange(1, 4)[None, :]
    ).astype(np.int8)
    return GameTable(name="dice3", entries=entries, symmetric_flag=True)


class TestCompose:
    def test_single_game_is_the_identity(self):
        game = rps()
        assert compose_series([game]) is game
        assert compose_series([game], Aggregator.LEX) is game

    def test_rps_with_its_mirror_cancels(self):
        combined = compose_series([rps(), role_swapped(rps())], Aggregator.SUM_SIGN)
        assert not combined.entries.any()
        assert combined.symmetric_flag

    def test_lex_takes_the_first_decisive_game(self):
        combined = compose_series([rps(), dice3()], Aggregator.LEX)
        assert np.array_equal(combined.entries, rps().entries)
        flipped = compose_series([dice3(), rps()], Aggregator.LEX)
        assert np.array_equal(flipped.entries, dice3().entries)

    def test_lex_on_all_draw_prefix_falls_through(self):
        zeros = table([[0, 0], [0, 0]], symmetric=True)
        second = table([[0, 1], [-1, 0]], symmetric=True)
        combined = compose_series([zeros, second], Aggregator.LEX)
        assert np.array_equal(combined.entries, second.entries)

    def test_sum_sign_outcomes(self):
        win_heavy = [table([[1]]), table([[1]]), table([[-1]])]
        assert compose_series(win_heavy).entries[0, 0] == 1
        balanced = [table([[1]]), table([[-1]]), table([[0]])]
        assert compose_series(balanced).entries[0, 0] == 0

    def test_string_aggregator_names(self):
        games = [rps(), rps()]
        assert np.array_equal(
            compose_series(games, "sum").entries,
            compose_series(games, Aggregator.SUM_SIGN).entries,
        )
        for unknown in ("best_of", "majority"):
            with pytest.raises(ValueError):
                compose_series(games, unknown)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            compose_series([rps(), dice()])

    def test_empty_series(self):
        with pytest.raises(ValueError):
            compose_series([])

    def test_symmetry_flag_follows_the_inputs(self):
        sym = compose_series([rps(), rps()])
        assert sym.symmetric_flag
        mixed = compose_series([pennies(), pennies()])
        assert not mixed.symmetric_flag

    def test_labels_come_from_the_first_game(self):
        combined = compose_series([rps(), rps()])
        assert combined.labels_rows == ("R", "P", "S")

    def test_default_name_concatenates(self):
        assert compose_series([rps(), rps()]).name == "series-rps-rps"

    @given(st.lists(game_tables(max_side=3), min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_composed_entries_stay_in_range(self, games):
        shaped = [
            GameTable(name=f"g{i}", entries=np.resize(
                game.entries, games[0].entries.shape).astype(np.int8))
            for i, game in enumerate(games)
        ]
        for rule in Aggregator:
            # at least two games, so a table is composed
            combined = compose_series(shaped + shaped[:1], rule)
            assert set(np.unique(combined.entries)) <= {-1, 0, 1}


@pytest.mark.parametrize("rule", list(Aggregator))
@pytest.mark.parametrize("count", [3, 5])
def test_composing_holds_a_few_bytes_a_cell(rule, count):
    # The games are folded into one table, not stacked: an int32 total and
    # the int8 result for the sum, the result and one game's mask for lex,
    # whatever the number of games.
    n = 600
    rng = np.random.default_rng(count)
    games = []
    for i in range(count):
        upper = np.triu(rng.integers(-1, 2, (n, n), dtype=np.int8), 1)
        games.append(table(upper - upper.T, name=f"g{i}", symmetric=True))
    tracemalloc.start()
    try:
        compose_series(games, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * n
