import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencomp import (
    ENGINES3_TEXT, ComplementarityViolation, ParseError, find_cycles,
    ingest_crosstable, parse_crosstable, to_game,
)


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
