import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencomp import (
    ENGINES3_TEXT, ComplementarityViolation, Crosstable, ParseError,
    find_cycles, ingest_crosstable, parse_crosstable, parse_game,
    serialize_game, to_game,
)
from opencomp import crosstable, game_core

_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_BREAK_IDS = ["cr", "vt", "ff", "fs", "gs", "rs", "nel", "u2028", "u2029"]


class TestParse:
    def test_engines_table(self):
        table = parse_crosstable(ENGINES3_TEXT)
        assert table.names == ("Stockfish", "FatFritz", "Houdini")
        assert table.scores[0, 1] == pytest.approx(0.55)
        assert table.scores[1, 0] == pytest.approx(0.45)
        assert np.isnan(table.scores).sum() == 3  # the diagonal

    def test_header_must_lead_with_names(self):
        with pytest.raises(ParseError) as err:
            parse_crosstable("engines,A,B\nA,,0.5\nB,0.5,\n")
        assert err.value.line == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse_crosstable("names,A,A\nA,,0.5\nA,0.5,\n")

    def test_row_order_must_match_header(self):
        text = "names,A,B\nB,,0.5\nA,0.5,\n"
        with pytest.raises(ParseError) as err:
            parse_crosstable(text)
        assert err.value.line == 2

    def test_cell_count_checked(self):
        with pytest.raises(ParseError):
            parse_crosstable("names,A,B\nA,,0.5,9\nB,0.5,\n")

    def test_row_count_checked(self):
        with pytest.raises(ParseError):
            parse_crosstable("names,A,B\nA,,0.5\n")

    def test_diagonal_must_be_empty(self):
        with pytest.raises(ParseError):
            parse_crosstable("names,A,B\nA,0.5,0.5\nB,0.5,\n")

    def test_scores_stay_in_range(self):
        with pytest.raises(ParseError):
            parse_crosstable("names,A,B\nA,,1.5\nB,-0.5,\n")

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_crosstable("names,A,B\nA,,half\nB,0.5,\n")

    def test_complementarity_enforced(self):
        with pytest.raises(ComplementarityViolation):
            parse_crosstable("names,A,B\nA,,0.6\nB,0.6,\n")

    def test_blank_lines_keep_the_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_crosstable("names,a,b\n\na,,0.5\nb,0.5,x\n")
        assert err.value.line == 4
        with pytest.raises(ParseError) as err:
            parse_crosstable("\n\nnames,A,A\nA,,0.5\nA,0.5,\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("old, new, line, message", [
        ("Stockfish,,0.55", "Stockfish,,0.5_5", 2, "bad score '0.5_5'"),
        ("FatFritz,0.45", "FatFritz,\u0660.\u0664\u0665", 3,
         "bad score '\u0660.\u0664\u0665'"),
        ("Houdini,0.55", "Houdini,\uff10.55", 4, "bad score '\uff10.55'"),
        # the diagonal is checked first, as for any other cell
        ("FatFritz,0.45,", "FatFritz,0.45,0_5", 3, "diagonal cells must be empty"),
    ], ids=["underscore", "arabic-indic-digits", "fullwidth-digit", "diagonal"])
    def test_scores_are_ascii_numbers(self, old, new, line, message):
        text = ENGINES3_TEXT.replace(old, new)
        with pytest.raises(ParseError) as err:
            parse_crosstable(text)
        assert err.value.line == line
        assert str(err.value) == f"{message} (line {line})"

    def test_lines_end_only_at_newlines(self):
        # One line: its header holds the names "B\x0bA", "" and "x\x0bB".
        with pytest.raises(ParseError) as err:
            parse_crosstable("names,A,B\x0bA,,x\x0bB,0.5,\n")
        assert str(err.value) == "duplicate names in header (line 1)"

    @pytest.mark.parametrize("brk", _BREAKS, ids=_BREAK_IDS)
    def test_other_line_breaks_are_whitespace(self, brk):
        scores = parse_crosstable(ENGINES3_TEXT).scores
        padded = ENGINES3_TEXT.replace(",0.55,", f",{brk}0.55{brk},").replace(
            "FatFritz,0.45", f"{brk}FatFritz{brk},0.45"
        )
        assert parse_crosstable(padded).scores.tobytes() == scores.tobytes()
        with pytest.raises(ParseError) as err:
            parse_crosstable(ENGINES3_TEXT.replace("\n", brk))
        assert str(err.value) == "duplicate names in header (line 1)"

    def test_crlf_files_read_as_lf_files(self, monkeypatch):
        # Each line's content is stripped before it is decoded, so no cell
        # ends in "\r", and every score takes the byte kernel.
        passed = []
        other_scores = crosstable._other_scores

        def spy(data, starts, lengths, at, out):
            passed.extend(starts)
            return other_scores(data, starts, lengths, at, out)

        monkeypatch.setattr(crosstable, "_other_scores", spy)
        table = parse_crosstable(ENGINES3_TEXT.replace("\n", "\r\n"))
        assert passed == []
        assert table.names == ("Stockfish", "FatFritz", "Houdini")
        plain = parse_crosstable(ENGINES3_TEXT)
        assert table.scores.tobytes() == plain.scores.tobytes()

    def test_non_ascii_names_and_padding_are_fine(self):
        text = ENGINES3_TEXT.replace("Houdini", "H\u00f6udini").replace(
            ",0.45,", ",\u00a00.45\u3000,"
        )
        table = parse_crosstable(text)
        assert table.names[2] == "H\u00f6udini"
        assert np.array_equal(
            table.scores, parse_crosstable(ENGINES3_TEXT).scores, equal_nan=True
        )

    @pytest.mark.parametrize("text, line", [
        ("names,Stock fish,B\nStock fish,,0.7\nB,0.3,\n", 1),
        ("names,,B\n,,0.7\nB,0.3,\n", 1),
        ("\nnames,A#1,B\nA#1,,0.7\nB,0.3,\n", 2),
    ], ids=["space", "empty", "hash"])
    def test_names_must_be_game_labels(self, text, line):
        # Each would become a label that a game file cannot read back.
        with pytest.raises(ParseError, match="must be one word with no '#'") as err:
            ingest_crosstable(text)
        assert err.value.line == line

    def test_complementarity_tolerates_rounding(self):
        table = parse_crosstable("names,A,B\nA,,0.5500004\nB,0.4499997,\n")
        assert table.scores[0, 1] == pytest.approx(0.5500004)

    @pytest.mark.parametrize("names, shape", [
        (("A", "B"), (2, 3)), (("A", "B"), (3, 3)), (("A",), (1,)), ((), (1, 1)),
    ], ids=["wide", "too-many-rows", "flat", "no-names"])
    def test_scores_must_be_n_by_n(self, names, shape):
        with pytest.raises(ValueError) as err:
            Crosstable(names=names, scores=np.zeros(shape))
        assert type(err.value) is ValueError
        assert str(err.value) == "scores must be square and match the name count"

    def test_scores_are_read_only_and_a_callers_array_is_copied(self):
        assert not parse_crosstable(ENGINES3_TEXT).scores.flags.writeable
        scores = np.array([[np.nan, 0.7], [0.3, np.nan]])
        table = Crosstable(names=("A", "B"), scores=scores)
        scores[0, 1] = 0.2
        assert table.scores[0, 1] == 0.7
        assert not table.scores.flags.writeable

    def test_names_given_as_a_list_are_kept_as_a_tuple(self):
        names = ["A", "B"]
        table = Crosstable(names=names, scores=[[np.nan, 0.7], [0.3, np.nan]])
        names.append("C")
        assert table.names == ("A", "B")
        game = to_game(table, name="ab")
        assert parse_game(serialize_game(game)) == game

    def test_ingest_peaks_near_two_score_matrices(self):
        # The decoded scores, which the table keeps, and one block of rows
        # of the checks' float temporaries, most of a second matrix at this
        # size; the lines of the text come one block at a time.
        n = 400
        rng = np.random.default_rng(0)
        upper = np.triu(rng.integers(0, 1001, (n, n)), 1)
        milli = upper + (1000 - upper.T) * np.tri(n, k=-1, dtype=int)
        names = [f"e{a}" for a in range(n)]
        lines = ["names," + ",".join(names)]
        for a in range(n):
            cells = [f"{milli[a, b] / 1000:.3f}" for b in range(n)]
            cells[a] = ""
            lines.append(",".join([names[a], *cells]))
        text = "\n".join(lines) + "\n"
        del lines
        tracemalloc.start()
        try:
            ingest_crosstable(text, margin=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * np.dtype(np.float64).itemsize

    def test_parsing_peaks_below_two_score_matrices(self):
        # The decoded scores and one block of rows of the complementarity
        # check's one float buffer: 163 rows at this size, 0.41 of a matrix.
        n = 400
        rng = np.random.default_rng(1)
        upper = rng.integers(0, 1001, (n, n))
        milli = np.triu(upper, 1) + np.tril(1000 - upper.T, -1)
        names = [f"e{a}" for a in range(n)]
        rows = [
            ",".join([names[a], *(
                "" if a == b else f"{milli[a, b] / 1000:.3f}" for b in range(n)
            )])
            for a in range(n)
        ]
        text = "\n".join(["names," + ",".join(names), *rows]) + "\n"
        del rows
        tracemalloc.start()
        try:
            parse_crosstable(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * n * n * np.dtype(np.float64).itemsize

    def test_ingest_peaks_within_two_score_matrices(self):
        # Thresholding builds a block's scores in one buffer, so ingesting
        # peaks no higher than the parse before it, about 1.9 matrices here.
        n = 400
        rng = np.random.default_rng(0)
        upper = np.triu(rng.integers(0, 1001, (n, n)), 1)
        milli = upper + (1000 - upper.T) * np.tri(n, k=-1, dtype=int)
        names = [f"e{a}" for a in range(n)]
        rows = [
            ",".join([names[a], *(
                "" if a == b else f"{milli[a, b] / 1000:.3f}" for b in range(n)
            )])
            for a in range(n)
        ]
        text = "\n".join(["names," + ",".join(names), *rows]) + "\n"
        del rows
        tracemalloc.start()
        try:
            ingest_crosstable(text, margin=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * n * n * np.dtype(np.float64).itemsize


def _decoded(monkeypatch, cells: list[str]) -> tuple[list[str], list[str], int]:
    """``cells`` decoded as the one row of a block: each value as
    ``float.hex``, the stripped cells that went past the byte kernel to
    ``np.loadtxt``, and the count of blanks."""
    passed = []
    other_scores = crosstable._other_scores

    def spy(data, starts, lengths, at, out):
        passed.extend(
            data[a:a + size].tobytes().decode(errors="surrogatepass").strip()
            for a, size in zip(starts, lengths)
        )
        return other_scores(data, starts, lengths, at, out)

    monkeypatch.setattr(crosstable, "_other_scores", spy)
    out = np.empty((1, len(cells)))
    blanks = crosstable._decode(("a",), [(2, ",".join(["a", *cells]))], out)
    return [value.hex() for value in out[0]], passed, blanks


def _hex(cell: str) -> str:
    return float(cell.strip() or "nan").hex()


class TestDecoder:
    def test_every_length_and_dot_position(self, monkeypatch):
        cells = []
        for digits in ("98765432", "01234567", "50000009"):
            for size in range(1, 9):
                cells.append(digits[:size])
                # size - 1 digits and a dot, before, between or after them
                cells += [
                    digits[:dot] + "." + digits[dot:size - 1]
                    for dot in range(size) if size > 1
                ]
        assert {len(cell) for cell in cells} == set(range(1, 9))
        hexes, passed, blanks = _decoded(monkeypatch, cells)
        assert hexes == [_hex(cell) for cell in cells]
        assert (passed, blanks) == ([], 0)

    def test_every_cell_of_zeros_sevens_and_dots(self, monkeypatch):
        # Plain exactly when a cell has at most one dot and some digit.
        cells = [
            "".join(chars) for size in range(1, 9)
            for chars in itertools.product("0.7", repeat=size)
        ]
        plain = {cell for cell in cells if cell.count(".") < min(2, len(cell))}
        hexes, passed, _ = _decoded(monkeypatch, sorted(plain))
        assert hexes == [_hex(cell) for cell in sorted(plain)]
        assert passed == []
        with pytest.raises(ValueError):
            _decoded(monkeypatch, cells)
        assert passed == [cell for cell in cells if cell not in plain]

    def test_leading_zeros_and_a_dot_at_either_end(self, monkeypatch):
        cells = [
            "0", "00", "00000000", "00000001", "0000000.", "0.000000", "0.",
            "1.", ".5", ".0000001", "007.5", "1.000000", "0.1", "0.3", "0.7",
        ]
        hexes, passed, blanks = _decoded(monkeypatch, cells)
        assert hexes == [_hex(cell) for cell in cells]
        assert (passed, blanks) == ([], 0)

    @pytest.mark.parametrize("cell", [".", "..", "0.5.5", "1..", ".5."])
    def test_dots_without_one_number_are_bad_scores(self, cell):
        with pytest.raises(ParseError) as err:
            parse_crosstable(ENGINES3_TEXT.replace(",,0.55", f",,{cell}", 1))
        assert str(err.value) == f"bad score '{cell}' (line 2)"

    @pytest.mark.parametrize("last", [".1234567", "00000001", "1", ""])
    def test_the_last_cell_of_a_block(self, monkeypatch, last):
        # Its word reads past the final "\n" into the padding.
        cells = ["0.25", "1", last]
        hexes, passed, blanks = _decoded(monkeypatch, cells)
        assert hexes == [_hex(cell) for cell in cells]
        assert (passed, blanks) == ([], int(last == ""))

    def test_eight_byte_cells_end_blocks_of_one_row(self, monkeypatch):
        monkeypatch.setattr(game_core, "_BLOCK_CELLS", 8 * 3)
        assert crosstable.row_blocks(3, 8 * 3) == [(0, 1), (1, 2), (2, 3)]
        text = "names,a,b,c\na,,,.1234567\nb,,,00000001\nc,,0.,\n"
        scores = parse_crosstable(text).scores
        assert [scores[0, 2].hex(), scores[1, 2].hex(), scores[2, 1].hex()] == [
            _hex(".1234567"), _hex("1"), _hex("0"),
        ]

    def test_other_cells_take_the_general_path(self, monkeypatch):
        cells = [
            "0.1234567", "000000001", "+0.5", "-0", "1e0", "\t0.5", " 0.5 ",
            "0.5\t", "\u30000.5\xa0", "0.5\x1c", "  ", "\t", "", "1",
        ]
        hexes, passed, blanks = _decoded(monkeypatch, cells)
        assert hexes == [_hex(cell) for cell in cells]
        assert passed == [cell.strip() for cell in cells[:-2]]
        assert blanks == 3

    def test_a_literal_nan_is_no_blank(self, monkeypatch):
        hexes, passed, blanks = _decoded(monkeypatch, ["nan", ""])
        assert (hexes, passed, blanks) == (["nan", "nan"], ["nan"], 1)

    def test_every_whitespace_is_stripped_or_blank(self, monkeypatch):
        # "\r" too, which np.loadtxt alone would take for a line end; blanks
        # side by side each count.
        spaces = [
            " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
            "\u2028", "\u3000",
        ]
        cells = [*spaces, " \r\t", *(f"{c}0.25{c}" for c in spaces), "0.5"]
        hexes, passed, blanks = _decoded(monkeypatch, cells)
        assert hexes == [_hex(cell) for cell in cells]
        assert passed == [cell.strip() for cell in cells[:-1]]
        assert blanks == len(spaces) + 1

    @pytest.mark.parametrize("spelling", ["{:.8f}", " {:.3f}", "{:.3f}"])
    def test_a_few_calls_a_row_whatever_the_spelling(self, spelling):
        # Cells the kernel cannot read are cut out and read a block at a
        # time, not one by one.
        n = 100
        rng = np.random.default_rng(0)
        upper = np.triu(rng.integers(0, 1001, (n, n)), 1)
        milli = upper + (1000 - upper.T) * np.tri(n, k=-1, dtype=int)
        names = [f"e{a}" for a in range(n)]
        lines = ["names," + ",".join(names)]
        for a in range(n):
            cells = [spelling.format(milli[a, b] / 1000) for b in range(n)]
            cells[a] = ""
            lines.append(",".join([names[a], *cells]))
        text = "\n".join(lines) + "\n"
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            scores = parse_crosstable(text).scores
        finally:
            sys.setprofile(None)
        assert calls < 20 * n
        assert scores[0, 1] == milli[0, 1] / 1000


class TestToGame:
    def test_zero_margin_makes_every_gap_count(self):
        game = to_game(parse_crosstable(ENGINES3_TEXT), margin=0.0)
        off_diagonal = game.entries[~np.eye(3, dtype=bool)]
        assert np.all(off_diagonal != 0)

    def test_cycle_appears_at_narrow_margin(self):
        game = ingest_crosstable(ENGINES3_TEXT, margin=0.01, name="engines3")
        assert find_cycles(game) == [(1, 3, 2)]

    def test_wide_margin_erases_the_cycle(self):
        game = ingest_crosstable(ENGINES3_TEXT, margin=0.06, name="engines3")
        assert not game.entries.any()
        assert find_cycles(game) == []

    def test_one_sided_score_uses_the_complement(self):
        game = ingest_crosstable("names,A,B\nA,,0.7\nB,,\n", margin=0.1)
        assert game.entries[0, 1] == 1
        assert game.entries[1, 0] == -1

    def test_missing_pair_is_a_draw(self):
        game = ingest_crosstable("names,A,B\nA,,\nB,,\n")
        assert not game.entries.any()

    def test_margin_validated(self):
        table = parse_crosstable(ENGINES3_TEXT)
        with pytest.raises(ValueError):
            to_game(table, margin=-0.1)
        with pytest.raises(ValueError):
            to_game(table, margin=0.5)

    def test_names_become_labels(self):
        game = ingest_crosstable(ENGINES3_TEXT, name="engines3")
        assert game.name == "engines3"
        assert game.labels_rows == ("Stockfish", "FatFritz", "Houdini")
        assert game.symmetric_flag

    def test_boundary_score_is_a_draw(self):
        # exactly on the threshold counts as inside the draw band
        game = ingest_crosstable("names,A,B\nA,,0.6\nB,0.4,\n", margin=0.1)
        assert game.entries[0, 1] == 0


@st.composite
def score_tables(draw):
    n = draw(st.integers(2, 5))
    names = tuple(f"p{i}" for i in range(n))
    scores = np.full((n, n), np.nan)
    for a in range(n):
        for b in range(a + 1, n):
            value = draw(
                st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
            )
            scores[a, b] = round(value, 3)
            scores[b, a] = round(1.0 - scores[a, b], 3)
    lines = ["names," + ",".join(names)]
    for a in range(n):
        cells = [names[a]]
        for b in range(n):
            cells.append("" if a == b else f"{scores[a, b]:.3f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestProperties:
    @given(score_tables(), st.floats(0.0, 0.49))
    @settings(max_examples=60)
    def test_result_is_always_antisymmetric(self, text, margin):
        game = ingest_crosstable(text, margin=margin)
        assert np.array_equal(game.entries, -game.entries.T)

    @given(score_tables(), st.floats(0.0, 0.2), st.floats(0.0, 0.29))
    @settings(max_examples=60)
    def test_widening_the_margin_only_adds_draws(self, text, low, gap):
        narrow = ingest_crosstable(text, margin=low)
        wide = ingest_crosstable(text, margin=low + gap)
        changed = narrow.entries != wide.entries
        assert np.all(wide.entries[changed] == 0)

    @given(score_tables())
    @settings(max_examples=40)
    def test_round_trip_through_parse(self, text):
        table = parse_crosstable(text)
        assert len(table.names) == table.scores.shape[0]
