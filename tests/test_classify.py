import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_cycles, brute_dominator, brute_nash, game_tables, symmetric_tables,
)
from opencomp import (
    ClassKind, GameTable, NotSymmetricError, Side, best_response, classify,
    dice, find_cycles, find_dominator, is_strongly_intransitive, pennies,
    pure_nash, render_classification, render_cycles, rps,
)


def table(rows, symmetric=False, name="t"):
    return GameTable(
        name=name, entries=np.array(rows, dtype=np.int8),
        symmetric_flag=symmetric,
    )


def rpsls():
    """Five-strategy circulant: each strategy beats the next two."""
    n = 5
    entries = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        entries[i, (i + 1) % n] = 1
        entries[i, (i + 2) % n] = 1
        entries[(i + 1) % n, i] = -1
        entries[(i + 2) % n, i] = -1
    return GameTable(name="rpsls", entries=entries, symmetric_flag=True)


class TestClassify:
    def test_rps_strongly_intransitive(self):
        result = classify(rps())
        assert result.kind is ClassKind.STRONGLY_INTRANSITIVE
        assert result.dominator is None
        assert result.witnesses.beats_row == {1: 2, 2: 3, 3: 1}
        assert result.witnesses.beats_col == {1: 2, 2: 3, 3: 1}

    def test_dice_weak_domination(self):
        result = classify(dice())
        assert result.kind is ClassKind.WEAK_DOMINATION
        assert result.dominator == 6

    def test_strict_domination(self):
        game = table([[1, 1], [-1, 0]])
        result = classify(game)
        assert result.kind is ClassKind.STRICT_DOMINATION
        assert result.dominator == 1

    def test_strict_takes_precedence_over_weak(self):
        game = table([[0, 1], [1, 1]])
        result = classify(game)
        assert result.kind is ClassKind.STRICT_DOMINATION
        assert result.dominator == 2

    def test_lowest_strict_dominator_wins(self):
        game = table([[1, 1], [1, 1]])
        assert classify(game).dominator == 1

    def test_other(self):
        game = table([[0, -1], [-1, 0]])
        result = classify(game)
        assert result.kind is ClassKind.OTHER
        assert result.dominator is None
        assert result.witnesses is None

    def test_find_dominator_modes(self):
        game = table([[0, 1], [1, 1]])
        assert find_dominator(game, strict=True) == 2
        # the weak scan is independent of the strict one and row 1 qualifies
        assert find_dominator(game, strict=False) == 1
        assert find_dominator(dice(), strict=True) is None
        assert find_dominator(dice(), strict=False) == 6

    def test_strong_intransitivity_needs_both_directions(self):
        # every row has a loss, but no column is ever beaten: column 1
        # wins every pairing
        game = table([[-1, 0], [-1, 0]])
        verdict, witnesses = is_strongly_intransitive(game)
        assert not verdict and witnesses is None

    @given(st.one_of(game_tables(max_side=6), symmetric_tables(max_side=6)))
    @settings(max_examples=120)
    def test_find_dominator_matches_brute_force(self, game):
        for strict in (True, False):
            assert find_dominator(game, strict) == brute_dominator(game, strict)

    @pytest.mark.parametrize("shape, symmetric", [
        ((300, 300), True), ((300, 500), False), ((700, 90), False),
    ])
    def test_witnesses_are_the_first_defeats_across_blocks(self, shape, symmetric):
        # Tables of several blocks of rows (and, transposed, of columns).
        rng = np.random.default_rng(sum(shape))
        entries = rng.integers(-1, 2, shape, dtype=np.int8)
        if symmetric:
            upper = np.triu(entries, 1)
            entries = upper - upper.T
        game = table(entries, symmetric)
        verdict, witnesses = is_strongly_intransitive(game)
        assert verdict
        rows, cols = entries.tolist(), entries.T.tolist()
        assert witnesses.beats_row == {
            i: row.index(-1) + 1 for i, row in enumerate(rows, 1)
        }
        assert witnesses.beats_col == {
            j: col.index(1) + 1 for j, col in enumerate(cols, 1)
        }

    def test_witnesses_use_lowest_indices(self):
        verdict, witnesses = is_strongly_intransitive(rpsls())
        assert verdict
        # strategy 1 beats 2 and 3 in the circulant, so its first defeat
        # comes from 4 on both axes
        assert witnesses.beats_row[1] == 4
        assert witnesses.beats_col[1] == 4


class TestPureNash:
    def test_bundled(self):
        assert pure_nash(rps()) == []
        assert pure_nash(pennies()) == []
        cells = pure_nash(dice())
        assert [(c.i, c.j) for c in cells] == [(6, 6)]

    def test_cell_order_is_row_major(self):
        game = table([[0, 0], [0, 0]])
        assert [(c.i, c.j) for c in pure_nash(game)] == [
            (1, 1), (1, 2), (2, 1), (2, 2)
        ]

    @given(game_tables(max_side=5))
    @settings(max_examples=80)
    def test_matches_brute_force(self, game):
        assert [(c.i, c.j) for c in pure_nash(game)] == brute_nash(game)

    @given(st.one_of(
        symmetric_tables(max_side=6),
        # Constant columns, all-draw tables among them: every row's minimum
        # is some column's maximum, so every row may hold a cell.
        st.tuples(
            st.integers(1, 6), st.lists(st.integers(-1, 1), min_size=1, max_size=6)
        ).map(lambda shape: table([shape[1]] * shape[0])),
    ))
    @settings(max_examples=160)
    def test_matches_brute_force_on_symmetric_and_constant_column_tables(self, game):
        assert [(c.i, c.j) for c in pure_nash(game)] == brute_nash(game)

    @given(game_tables(max_side=6))
    @settings(max_examples=80)
    def test_strong_intransitivity_excludes_pure_nash(self, game):
        if classify(game).kind is ClassKind.STRONGLY_INTRANSITIVE:
            assert pure_nash(game) == []

    @given(symmetric_tables(max_side=6))
    @settings(max_examples=80)
    def test_weak_dominator_cell_is_nash_on_symmetric_tables(self, game):
        result = classify(game)
        if result.kind is ClassKind.WEAK_DOMINATION:
            d = result.dominator
            assert (d, d) in [(c.i, c.j) for c in pure_nash(game)]


class TestScratch:
    """At 2000 strategies, classification and the equilibrium search hold
    no table-sized temporaries: each traced peak stays under a tenth of a
    byte a cell."""

    N = 2000

    @staticmethod
    def _peak(call, *args) -> int:
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _antisymmetric(self, seed: int | None) -> GameTable:
        """A random table, or with no seed the one where each strategy
        beats every later one."""
        shape = (self.N, self.N)
        if seed is None:
            upper = np.triu(np.ones(shape, dtype=np.int8), 1)
        else:
            rng = np.random.default_rng(seed)
            upper = np.triu(rng.integers(-1, 2, shape, dtype=np.int8), 1)
        return GameTable(name="big", entries=upper - upper.T, symmetric_flag=True)

    def test_pure_nash(self):
        game = self._antisymmetric(0)
        assert self._peak(pure_nash, game) < 0.1 * self.N ** 2

    @pytest.mark.parametrize("strict", [True, False])
    def test_find_dominator(self, strict):
        game = self._antisymmetric(1)
        assert self._peak(find_dominator, game, strict) < 0.1 * self.N ** 2

    def test_is_strongly_intransitive_on_a_transitive_table(self):
        game = self._antisymmetric(None)
        assert self._peak(is_strongly_intransitive, game) < 0.1 * self.N ** 2

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_is_strongly_intransitive_on_a_random_table(self, symmetric):
        if symmetric:
            game = self._antisymmetric(2)
        else:
            rng = np.random.default_rng(3)
            game = GameTable(name="big", entries=rng.integers(-1, 2, (self.N, self.N)))
        assert is_strongly_intransitive(game)[0]
        assert self._peak(is_strongly_intransitive, game) < 0.1 * self.N ** 2


class TestBestResponse:
    def test_row_side(self):
        assert best_response(rps(), Side.ROW, 1) == 2
        assert best_response(rps(), Side.ROW, 3) == 1
        assert best_response(dice(), Side.ROW, 3) == 4

    def test_col_side(self):
        assert best_response(rps(), Side.COL, 2) == 3
        assert best_response(pennies(), Side.COL, 1) == 2

    def test_ties_break_low(self):
        game = table([[0, 0], [0, 0]])
        assert best_response(game, Side.ROW, 1) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            best_response(rps(), Side.ROW, 0)
        with pytest.raises(IndexError):
            best_response(rps(), Side.COL, 4)

    @pytest.mark.parametrize("side, count, reply", [
        (Side.ROW, 3, 2),  # the row seat answers the table's 3 columns
        (Side.COL, 2, 1),  # the column seat answers its 2 rows
    ])
    def test_each_seat_answers_the_other_sides_range(self, side, count, reply):
        game = table([[1, -1, 0], [-1, 1, 1]])
        assert best_response(game, side, count) == reply
        for bad in (0, count + 1):
            with pytest.raises(IndexError) as err:
                best_response(game, side, bad)
            assert str(err.value) == f"opponent strategy {bad} out of range 1..{count}"


class TestCycles:
    def test_rps_triplet(self):
        assert find_cycles(rps(), max_len=3) == [(1, 2, 3)]

    def test_dice_has_none(self):
        assert find_cycles(dice(), max_len=5) == []

    def test_rpsls_triples(self):
        cycles = find_cycles(rpsls(), max_len=3)
        assert len(cycles) == 5
        assert all(len(c) == 3 for c in cycles)

    def test_longer_cycles_sorted_after_short(self):
        cycles = find_cycles(rpsls(), max_len=5)
        lengths = [len(c) for c in cycles]
        assert lengths == sorted(lengths)
        assert cycles[:5] == find_cycles(rpsls(), max_len=3)

    def test_requires_symmetric_table(self):
        with pytest.raises(NotSymmetricError):
            find_cycles(pennies())
        unflagged = GameTable(name="u", entries=rps().entries)
        with pytest.raises(NotSymmetricError):
            find_cycles(unflagged)

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            find_cycles(rps(), max_len=2)
        with pytest.raises(ValueError):
            find_cycles(rps(), max_len=6)

    @given(symmetric_tables(max_side=6), st.sampled_from([3, 4, 5]))
    @settings(max_examples=60)
    def test_matches_brute_force(self, game, max_len):
        assert find_cycles(game, max_len=max_len) == brute_cycles(game, max_len)


class TestRendering:
    def test_classification_text(self):
        text = render_classification(rps(), classify(rps()))
        lines = text.splitlines()
        assert lines[0] == "game=rps"
        assert lines[1] == "classification=StronglyIntransitive"
        assert lines[2] == "dominator=none"
        assert "witness row R -> P" in lines
        assert "witness col S -> R" in lines

    def test_cycles_text(self):
        text = render_cycles(rps(), find_cycles(rps()))
        assert text.splitlines() == [
            "game=rps",
            "cycles=1",
            "cycle: R -> P -> S -> R",
        ]
