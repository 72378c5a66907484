import copy
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, brute_game_count, game_tables, symmetric_tables
from game_side_oracle import is_symmetric
from opencomp import (
    MAX_STRATEGIES, GameTable, InvariantError, Outcome, ParseError, Side,
    dice, enumerate_game_count, outcome, parse_game, pennies,
    role_swapped, rps, serialize_game,
)
from opencomp import game_core
from opencomp.crosstable import parse_crosstable, to_game
from opencomp.series import compose_series
from opencomp.game_core import is_label

# Mostly words that can stand in a game file, often words that cannot:
# empty, holding whitespace or a line break, or holding '#'.
_NAMES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5),
    st.sampled_from(["R", "row", "1:", "+1", "game", "\u00e9", "\ufeff"]),
    st.sampled_from(["", "a b", "a\tb", "#", "a#b", "\x1c", "\x85", "\u2028"]),
)


class TestGameTable:
    def test_basic_properties(self):
        game = rps()
        assert game.rows == 3 and game.cols == 3
        assert game.symmetric_flag
        assert game.row_name(1) == "R"
        assert game.col_name(3) == "S"
        assert game.side_count(Side.ROW) == 3

    def test_unlabeled_names_fall_back_to_indices(self):
        game = dice()
        assert game.row_name(6) == "6"
        assert game.col_name(1) == "1"

    def test_entries_are_read_only(self):
        game = rps()
        with pytest.raises(ValueError):
            game.entries[0, 0] = 1

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(InvariantError):
            GameTable(name="bad", entries=np.array([[2]]))

    @pytest.mark.parametrize("entries", [
        np.array([[256]]), [[0.5]], np.array([[np.nan]]), [[1.9]], [[257]],
    ], ids=["wraps-to-0", "half", "nan", "truncates-to-1", "overflows-int8"])
    def test_rejects_entries_before_the_int8_cast(self, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match=r"entries must be -1, 0 or \+1"):
                GameTable(name="bad", entries=entries)

    def test_whole_floats_and_bools_are_entries(self):
        game = GameTable(name="f", entries=[[1.0, -1.0]])
        assert game.entries.dtype == np.int8
        assert game.entries.tolist() == [[1, -1]]
        assert GameTable(name="b", entries=[[True, False]]).entries.tolist() == [[1, 0]]

    def test_rejects_non_2d(self):
        with pytest.raises(InvariantError):
            GameTable(name="bad", entries=np.array([0, 1]))

    def test_rejects_oversized_side(self):
        entries = np.zeros((MAX_STRATEGIES + 1, 1), dtype=np.int8)
        with pytest.raises(InvariantError):
            GameTable(name="big", entries=entries)

    def test_symmetric_flag_requires_antisymmetry(self):
        entries = np.array([[0, 1], [1, 0]], dtype=np.int8)
        with pytest.raises(InvariantError):
            GameTable(name="bad", entries=entries, symmetric_flag=True)

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 6), (3, 4), (5, 6), (6, 6)])
    def test_checks_span_row_blocks(self, monkeypatch, i, j):
        # Two rows per block: the flipped cell's mirror sits in another block
        # unless the two share one, and the last block is a single row.
        monkeypatch.setattr(game_core, "_BLOCK_CELLS", 2 * 7)
        upper = np.triu(np.random.default_rng(1).integers(-1, 2, (7, 7)), 1)
        entries = upper - upper.T
        game = GameTable(name="ok", entries=entries, symmetric_flag=True)
        assert game.entries.tolist() == entries.tolist()
        broken = entries.copy()
        broken[i, j] = 1 if broken[i, j] != 1 else 0
        with pytest.raises(InvariantError, match="antisymmetric"):
            GameTable(name="bad", entries=broken, symmetric_flag=True)
        broken[j, i] = 2
        with pytest.raises(InvariantError, match=r"entries must be -1, 0 or \+1"):
            GameTable(name="bad", entries=broken, symmetric_flag=True)

    def test_a_large_table_peaks_at_little_over_its_copy(self):
        # The checks go a block of rows at a time, so beside the stored int8
        # copy they hold no full-size mask or transposed temporary.
        upper = np.triu(
            np.random.default_rng(0).integers(-1, 2, (3000, 3000), dtype=np.int8), 1
        )
        entries = upper - upper.T
        del upper
        tracemalloc.start()
        try:
            GameTable(name="big", entries=entries, symmetric_flag=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * entries.nbytes

    def test_a_large_file_parses_without_a_copy_of_its_lines(self):
        # The payoff rows come from the text a block at a time, so the parse
        # holds the int8 table, not a list of every line, which alone is
        # about three bytes a cell.
        n = 3000
        upper = np.triu(
            np.random.default_rng(1).integers(-1, 2, (n, n), dtype=np.int8), 1
        )
        table = GameTable(name="big", entries=upper - upper.T, symmetric_flag=True)
        text = serialize_game(table)
        del upper, table
        tracemalloc.start()
        try:
            parse_game(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n

    def test_a_parsed_table_keeps_the_array_it_decoded(self):
        # The decoded table is handed to GameTable, checked and kept: the
        # parse peaks at one int8 table and the blocks' scratch, with no
        # second copy of the table.
        n = 3000
        upper = np.triu(
            np.random.default_rng(2).integers(-1, 2, (n, n), dtype=np.int8), 1
        )
        table = GameTable(name="big", entries=upper - upper.T, symmetric_flag=True)
        text = serialize_game(table)
        del upper
        tracemalloc.start()
        try:
            parsed = parse_game(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n
        assert parsed == table
        assert not parsed.entries.flags.writeable

    def test_the_constructor_copies_a_callers_array(self):
        entries = np.array([[0, 1], [-1, 0]], dtype=np.int8)
        game = GameTable(name="g", entries=entries, symmetric_flag=True)
        entries[0, 1] = 0
        assert game.entries[0, 1] == 1
        assert entries.flags.writeable and not game.entries.flags.writeable

    @pytest.mark.parametrize("text, message", [
        ("game g\nsymmetric true\nrows 2 cols 2\nrow 1: 0 +1\nrow 2: +1 0\n",
         "g: symmetric table must be antisymmetric"),
        ("game g\nsymmetric true\nrows 1 cols 2\nrow 1: 0 +1\n",
         "g: symmetric table must be square"),
    ], ids=["not-antisymmetric", "not-square"])
    def test_a_parsed_table_is_checked_as_a_built_one(self, text, message):
        with pytest.raises(InvariantError) as err:
            parse_game(text)
        assert str(err.value) == message

    def test_symmetric_flag_requires_square(self):
        entries = np.zeros((2, 3), dtype=np.int8)
        with pytest.raises(InvariantError):
            GameTable(name="bad", entries=entries, symmetric_flag=True)

    @pytest.mark.parametrize("shape, labels, message", [
        ((0, 3), {}, "game table needs at least one strategy per side"),
        ((3, 0), {}, "game table needs at least one strategy per side"),
        ((2, 3), {"labels_cols": ("a", "b")},
         "labels_cols length does not match column count"),
        ((2, 3), {"labels_rows": ("a", "b"), "labels_cols": ("a", "b", "c", "d")},
         "labels_cols length does not match column count"),
    ], ids=["no-rows", "no-cols", "too-few-col-labels", "too-many-col-labels"])
    def test_empty_sides_and_column_label_counts_are_checked(
        self, shape, labels, message
    ):
        with pytest.raises(InvariantError) as err:
            GameTable(name="bad", entries=np.zeros(shape, dtype=np.int8), **labels)
        assert str(err.value) == message

    def test_label_length_checked(self):
        with pytest.raises(InvariantError):
            GameTable(
                name="bad", entries=np.zeros((2, 2), dtype=np.int8),
                labels_rows=("a",),
            )

    @pytest.mark.parametrize("name, labels", [
        ("my game", None),
        ("", None),
        ("g#1", None),
        ("g", ("Stock fish", "B")),
        ("g", ("", "B")),
        ("g", ("A#1", "B")),
        ("g", ("A\u2028", "B")),  # a line break to splitlines()
    ])
    def test_name_and_labels_must_be_one_word_without_a_hash(self, name, labels):
        with pytest.raises(InvariantError, match="must be one word with no '#'"):
            GameTable(
                name=name, entries=np.zeros((2, 2), dtype=np.int8),
                labels_rows=labels, labels_cols=labels,
            )

    def test_equality(self):
        assert rps() == rps()
        assert rps() != dice()
        relabeled = GameTable(
            name="rps", entries=rps().entries, symmetric_flag=True,
            labels_rows=("x", "y", "z"), labels_cols=("x", "y", "z"),
        )
        assert relabeled != rps()

    def test_labels_given_as_lists_are_kept_as_tuples(self):
        rows, cols = ["R", "P", "S"], ["r", "p", "s"]
        game = GameTable(
            name="g", entries=rps().entries, labels_rows=rows, labels_cols=cols
        )
        rows.append("X")
        cols[0] = "Y"
        assert game.labels_rows == ("R", "P", "S")
        assert game.labels_cols == ("r", "p", "s")
        assert parse_game(serialize_game(game)) == game

    def test_opposite_side(self):
        assert Side.ROW.opposite is Side.COL
        assert Side.COL.opposite is Side.ROW

    @pytest.mark.parametrize("side", list(Side))
    def test_opposite_twice_is_the_same_side(self, side):
        assert side.opposite.opposite is side

    @pytest.mark.parametrize("build", [
        lambda: GameTable("direct", np.zeros((2, 5), dtype=np.int8)),
        lambda: parse_game(serialize_game(pennies())),
        lambda: to_game(parse_crosstable("names,A,B,C\nA,,0.7,0.2\nB,0.3,,\nC,0.8,,\n")),
        lambda: compose_series([dice(), role_swapped(dice())]),
    ], ids=["direct", "parse_game", "to_game", "compose_series"])
    @pytest.mark.parametrize("clone", [
        lambda table: table, copy.copy, copy.deepcopy,
        lambda table: pickle.loads(pickle.dumps(table)),
    ], ids=["original", "copy", "deepcopy", "pickle"])
    def test_seat_counts_match_the_entries(self, build, clone):
        game = clone(build())
        n_rows, n_cols = game.entries.shape
        assert (game.rows, game.cols) == (n_rows, n_cols)
        assert (game.side_count(Side.ROW), game.side_count(Side.COL)) == (n_rows, n_cols)
        assert type(game.rows) is int and type(game.cols) is int


class TestOutcome:
    def test_values(self):
        game = rps()
        assert outcome(game, 1, 1) is Outcome.DRAW
        assert outcome(game, 2, 1) is Outcome.WIN
        assert outcome(game, 1, 2) is Outcome.LOSS

    def test_out_of_range(self):
        game = rps()
        with pytest.raises(IndexError):
            outcome(game, 0, 1)
        with pytest.raises(IndexError):
            outcome(game, 1, 4)

    def test_pennies_is_seat_sensitive(self):
        game = pennies()
        assert outcome(game, 1, 1) is Outcome.WIN
        assert outcome(game, 1, 2) is Outcome.LOSS


class TestSymmetry:
    def test_is_symmetric_checks_entries_not_flag(self):
        # The oracle's cycle searches rely on it to read the entries.
        assert is_symmetric(rps())
        assert not is_symmetric(pennies())
        unflagged = GameTable(name="u", entries=rps().entries)
        assert is_symmetric(unflagged)

    def test_role_swapped_negates(self):
        game = rps()
        swapped = role_swapped(game)
        assert np.array_equal(swapped.entries, -game.entries)
        assert swapped.name == "rps-swapped"
        assert swapped.symmetric_flag
        back = role_swapped(swapped)
        assert np.array_equal(back.entries, game.entries)


class TestParseSerialize:
    def test_bundled_round_trips(self):
        for game in (rps(), dice(), pennies()):
            text = serialize_game(game)
            assert parse_game(text) == game
            assert serialize_game(parse_game(text)) == text

    def test_word_entry_tokens(self):
        text = (
            "game words\n"
            "symmetric false\n"
            "rows 2 cols 2\n"
            "row 1: w l\n"
            "row 2: d w\n"
        )
        game = parse_game(text)
        assert np.array_equal(
            game.entries, np.array([[1, -1], [0, 1]], dtype=np.int8)
        )

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a comment\n"
            "game c\n\n"
            "symmetric false\n"
            "rows 1 cols 1\n"
            "# another\n"
            "row 1: 0\n"
        )
        assert parse_game(text).name == "c"

    def test_missing_header_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_game("symmetric true\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("last", ["5", "0"])
    def test_lines_end_only_at_newlines(self, last):
        # Every break but "\n" is whitespace inside a line, so this text is
        # one line, which has more than a name after 'game'.
        text = f"game x\x0csymmetric true\x1crows 1 cols 1\x85row 1: {last}\n"
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert str(err.value) == "'game' takes exactly one name token (line 1)"

    @pytest.mark.parametrize("brk", [
        "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ], ids=["cr", "vt", "ff", "fs", "gs", "rs", "nel", "u2028", "u2029"])
    def test_other_line_breaks_are_whitespace(self, brk):
        text = serialize_game(rps())
        with pytest.raises(ParseError) as err:
            parse_game(text.replace("\n", brk, 1))
        assert err.value.line == 1
        # Between the words of a line they separate words, as a space does.
        spaced = text.replace("row 2: ", f"row{brk}2:{brk}").replace(" -1", f"{brk}-1")
        assert parse_game(spaced) == rps()

    def test_crlf_files_read_as_lf_files(self):
        text = serialize_game(dice())
        assert parse_game(text.replace("\n", "\r\n")) == dice()

    @pytest.mark.parametrize("counts", [
        "rows \u0663 cols 0_3", "rows 3 cols 0_3", "rows \u0663 cols 3",
        "rows +3 cols 3",
    ])
    def test_counts_are_ascii_digits(self, counts):
        text = serialize_game(rps()).replace("rows 3 cols 3", counts)
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert err.value.line == 3
        assert "counts must be integers" in str(err.value)

    @pytest.mark.parametrize("counts", ["rows -3 cols 3", "rows 3 cols -0"])
    def test_a_negative_count_is_not_positive(self, counts):
        text = serialize_game(rps()).replace("rows 3 cols 3", counts)
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert err.value.line == 3
        assert "counts must be positive" in str(err.value)

    def test_bad_entry_token(self):
        text = "game b\nsymmetric false\nrows 1 cols 2\nrow 1: 0 2\n"
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert err.value.line == 4

    def test_wrong_entry_count(self):
        text = "game b\nsymmetric false\nrows 1 cols 2\nrow 1: 0\n"
        with pytest.raises(ParseError):
            parse_game(text)

    def test_row_lines_must_be_in_order(self):
        text = (
            "game b\nsymmetric false\nrows 2 cols 1\n"
            "row 2: 0\nrow 1: 0\n"
        )
        with pytest.raises(ParseError):
            parse_game(text)

    def test_label_count_mismatch(self):
        text = (
            "game b\nsymmetric false\nrows 2 cols 2\n"
            "labels_rows only_one\n"
            "row 1: 0 0\nrow 2: 0 0\n"
        )
        with pytest.raises(ParseError):
            parse_game(text)

    def test_symmetric_claim_is_checked(self):
        text = (
            "game b\nsymmetric true\nrows 2 cols 2\n"
            "row 1: 0 +1\nrow 2: +1 0\n"
        )
        with pytest.raises(InvariantError):
            parse_game(text)

    def test_trailing_garbage_rejected(self):
        text = serialize_game(rps()) + "extra\n"
        with pytest.raises(ParseError):
            parse_game(text)

    @given(game_tables(max_side=5))
    @settings(max_examples=60)
    def test_round_trip_property(self, game):
        text = serialize_game(game)
        again = parse_game(text)
        assert again == game
        assert serialize_game(again) == text

    @given(
        st.one_of(game_tables(max_side=4), symmetric_tables(max_side=4)),
        _NAMES, st.booleans(), st.booleans(), st.data(),
    )
    @settings(max_examples=150)
    def test_every_table_that_constructs_round_trips(
        self, game, name, with_rows, with_cols, data
    ):
        def labels(count, present):
            if not present:
                return None
            return tuple(data.draw(st.lists(_NAMES, min_size=count, max_size=count)))

        rows, cols = labels(game.rows, with_rows), labels(game.cols, with_cols)
        try:
            table = GameTable(
                name=name, entries=game.entries, symmetric_flag=game.symmetric_flag,
                labels_rows=rows, labels_cols=cols,
            )
        except InvariantError:
            assert not all(map(is_label, [name, *(rows or ()), *(cols or ())]))
            return
        assert parse_game(serialize_game(table)) == table

    @given(game_tables(max_side=4), st.booleans())
    @settings(max_examples=40)
    def test_round_trip_with_labels(self, game, label_cols):
        labels_rows = tuple(f"r{i}" for i in range(game.rows))
        labels_cols = tuple(f"c{j}" for j in range(game.cols)) if label_cols else None
        labeled = GameTable(
            name="lab", entries=game.entries,
            labels_rows=labels_rows, labels_cols=labels_cols,
        )
        assert parse_game(serialize_game(labeled)) == labeled


def _parsed(text):
    """What ``parse_game`` makes of ``text``: the table, or its error."""
    try:
        return parse_game(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


class TestParseBytes:
    """``parse_game`` of UTF-8 bytes reads them as their decoded text."""

    @pytest.mark.parametrize(
        "path", sorted(REPO_ROOT.glob("games/*.gm")), ids=lambda path: path.name
    )
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_bundled_files(self, path, end):
        data = path.read_bytes().replace(b"\n", end)
        assert _parsed(data) == _parsed(data.decode())

    @given(st.one_of(game_tables(max_side=7), symmetric_tables(max_side=7)))
    @settings(max_examples=60)
    def test_tables_of_several_row_blocks(self, game):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game_core, "_BLOCK_CELLS", 2 * 7)
            data = serialize_game(game).encode()
            assert _parsed(data) == game
            # The last row's last entry spoiled, and row 1's line broken in two.
            spoiled = data[:-1] + b"2\n"
            assert _parsed(spoiled) == _parsed(spoiled.decode())
            broken = data.replace(b": ", b":\n", 1)
            assert _parsed(broken) == _parsed(broken.decode())

    @pytest.mark.parametrize("text", [
        "game \u00e9t\u00e9\nsymmetric false\nrows 1 cols 2\n"
        "labels_rows \u0663\nlabels_cols \u00e9 \U0001f600\nrow 1: 0 w # \u00fc\n",
        "game x\x0csymmetric true\x1crows 1 cols 1\x85row 1: 0\n",
        "game x\nsymmetric\u2028false\nrows 1 cols 1\nrow\u00a01: \u2029d\n",
        "\ufeffgame x\nsymmetric false\nrows 1 cols 1\nrow 1: 0\n",
        "", "#\n", "game x\nsymmetric false\nrows 1 cols 1\nrow 1: \u0661\n",
    ], ids=["labels", "breaks", "wide-spaces", "bom", "empty", "comment", "digit"])
    def test_texts_beyond_ascii(self, text):
        assert _parsed(text.encode()) == _parsed(text)

    @pytest.mark.parametrize("data, line", [
        (b"game x\nsymmetric \xff\n", 2),
        (b"game x\nsymmetric false\nrows 1 cols 1\nrow 1: 0 # \xe2\x82\n", 4),
        (b"\xc3(", 1),
    ], ids=["stray", "cut-short-in-a-comment", "bad-continuation"])
    def test_a_line_that_is_not_utf8_is_a_parse_error(self, data, line):
        with pytest.raises(ParseError) as err:
            parse_game(data)
        assert err.value.line == line
        assert str(err.value).startswith("invalid UTF-8: ")


class TestEnumeration:
    def test_small_counts_exact(self):
        shapes = [
            (rows, cols)
            for rows in range(1, 10)
            for cols in range(1, 10)
            if rows * cols <= 9
        ]
        for rows, cols in shapes:
            assert enumerate_game_count(rows, cols) == brute_game_count(rows, cols)

    def test_large_shapes_use_closed_form(self):
        assert enumerate_game_count(5, 5) == 3 ** 25

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            enumerate_game_count(0, 3)
        with pytest.raises(ValueError):
            enumerate_game_count(3, MAX_STRATEGIES + 1)
