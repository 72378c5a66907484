"""The numpy game-side readers and searches against the loops they replaced.

``game_side_oracle.py`` keeps the per-cell versions of ``parse_crosstable``,
``to_game``, ``parse_game``, ``serialize_game`` and ``find_cycles``.  The
library must agree with them on every output and, for rejected input, on
the exception type, its message and its line.  Two rules are new and are
tested on their own (``test_crosstable.py``, ``test_game_core.py``): numbers
in game files and crosstables are ASCII only, and crosstable errors carry
the real line number when blank lines precede them.  Random and mutated
inputs here therefore hold no blank lines, underscores or non-ASCII
characters; the one-row edits below put them only where the oracle reads
them as the library does: in names, padding and entry separators.  The
block-walk test puts lines with no content between rows, and checks a
crosstable's error lines against the real lines, not the oracle's.
"""
import importlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import game_side_oracle as oracle
from conftest import game_tables, symmetric_tables
from opencomp import (
    ComplementarityViolation, GameTable, ParseError, find_cycles,
    is_strongly_intransitive, parse_crosstable, parse_game, rps, serialize_game,
    to_game,
)
from opencomp import crosstable, game_core
from opencomp.game_core import is_label
from test_hostile_files import _mutated

# The module: the package exports a function of the same name.
classify_module = importlib.import_module("opencomp.classify")
_MARGINS = st.one_of(
    st.sampled_from([0.0, 0.003, 0.01, 0.05, 0.1, 0.25, 0.499]),
    st.floats(0.0, 0.4999),
)
# Largest leading block searched for each cycle length, so that the
# oracle's walk stays quick.
_CYCLE_BLOCK = {3: 40, 4: 24, 5: 14}


def _outcome(read, *args):
    try:
        return "ok", read(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _same_crosstable(new, old) -> bool:
    if new[0] != "ok" or old[0] != "ok":
        return new == old
    return new[1].names == old[1].names and np.array_equal(
        new[1].scores, old[1].scores, equal_nan=True
    )


def _plain(text: str) -> str:
    """``text`` without non-ASCII characters, underscores or blank lines."""
    text = "".join(ch for ch in text if ch.isascii() and ch != "_")
    return "".join(line + "\n" for line in text.splitlines() if line.strip())


def _check_cycles(game: GameTable, max_len: int):
    k = min(game.rows, _CYCLE_BLOCK[max_len])
    block = GameTable(name=game.name, entries=game.entries[:k, :k], symmetric_flag=True)
    assert find_cycles(block, max_len) == oracle.find_cycles(block, max_len)


def _check_game(game: GameTable):
    text = serialize_game(game)
    assert text == oracle.serialize_game(game)
    assert parse_game(text) == oracle.parse_game(text) == game


_BAD_SCORES = ["1.001", "-0.001", "1.5", "nan", "inf", "-inf", "1e400", "x", "0.5.5", "0x1", "--1"]


@st.composite
def crosstable_texts(draw, max_n: int = 40):
    """Tables with complementary, one-sided and missing pairs, scores near
    every threshold, assorted spellings and padding, and now and then a
    pair that is not complementary or a cell that is no score at all (the
    diagonal included)."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bad_cells = draw(st.sampled_from([0, 0, 1, 3]))
    kinds = draw(st.sampled_from([
        [1.0, 0, 0, 0, 0], [0.6, 0.15, 0.15, 0.1, 0], [0.3, 0.3, 0.2, 0.2, 0],
        [0.9, 0, 0, 0.05, 0.05], [0, 0, 0, 1.0, 0],
    ]))
    spellings = ["{:.3f}", "{}", " {:.3f}", "{:.3f} ", "{:.4f}", "{:.3e}"]

    def spell(milli: int) -> str:
        return spellings[rng.integers(len(spellings))].format(milli / 1000)

    cells = [[""] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            near_even = rng.random() < 0.5
            k = int(rng.integers(470, 531) if near_even else rng.integers(0, 1001))
            kind = rng.choice(5, p=kinds)  # both, upper, lower, none, clash
            if kind in (0, 1, 4):
                cells[a][b] = spell(k)
            if kind in (0, 2, 4):
                clash = int(rng.integers(1, 6)) * (-1) ** int(rng.integers(2))
                cells[b][a] = spell(min(1000, max(0, 1000 - k + (clash if kind == 4 else 0))))
    for _ in range(bad_cells):
        a, b = rng.integers(n, size=2)
        cells[a][b] = _BAD_SCORES[rng.integers(len(_BAD_SCORES))]
    names = [f"p{i}" for i in range(n)]
    lines = ["names," + ",".join(names)]
    lines += [",".join([names[a], *cells[a]]) for a in range(n)]
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None)
@given(crosstable_texts(), _MARGINS, st.sampled_from([3, 4, 5]))
def test_random_tables_match_the_oracle(text, margin, max_len):
    new = _outcome(parse_crosstable, text)
    assert _same_crosstable(new, _outcome(oracle.parse_crosstable, text))
    if new[0] != "ok":
        return
    game = to_game(new[1], margin=margin, name="t")
    assert game == oracle.to_game(new[1], margin=margin, name="t")
    _check_game(game)
    _check_cycles(game, max_len)


@st.composite
def game_texts(draw):
    """Game files with every entry spelling and now and then a few tokens
    that are no entry, several to a row."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spellings = np.array(["+1", "0", "-1", "w", "d", "l", "1", "+0", "x", "W"])
    bad = draw(st.sampled_from([0.0, 0.0, 0.02, 0.2]))
    weights = np.r_[np.full(6, (1 - bad) / 6), np.full(4, bad / 4)]
    lines = ["game g", "symmetric false", f"rows {rows} cols {cols}"]
    for i in range(1, rows + 1):
        lines.append(f"row {i}: " + " ".join(rng.choice(spellings, cols, p=weights)))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(game_texts())
def test_random_game_files_match_the_oracle(text):
    new = _outcome(parse_game, text)
    assert new == _outcome(oracle.parse_game, text)
    if new[0] == "ok":
        _check_game(new[1])


@settings(max_examples=150, deadline=None)
@given(text=_mutated("crosstables/*.ct").map(_plain), margin=_MARGINS)
@example(
    text="names,Stockfish,FatFritz,\nStockfish,,0.55,0.45\n"
    "FatFritz,0.45,,0.55\n,0.55,0.45,\n",
    margin=0.0,
)
def test_mutated_crosstables_match_the_oracle(text, margin):
    new = _outcome(parse_crosstable, text)
    old = _outcome(oracle.parse_crosstable, text)
    if not _same_crosstable(new, old):
        # Only the name rule may differ: the oracle reads any name, the
        # library only one that a game file reads back as a label.
        assert old[0] == "ok"
        bad = [name for name in old[1].names if not is_label(name)]
        assert bad
        assert new == (
            ParseError, f"name {bad[0]!r} must be one word with no '#' (line 1)", 1
        )
        return
    if new[0] == "ok":
        game = to_game(new[1], margin=margin)
        assert game == oracle.to_game(new[1], margin=margin)
        _check_game(game)
        _check_cycles(game, 3)


# Cells of the bytes a number is spelled with, and a few that are none:
# plain cells, too long, signed, with an exponent, padded or underscored.
# The diagonal is mostly blank, so that the scores beside it are read.
_SHORT_CELLS = st.one_of(st.just(""), st.text("0123456789.+-e _\t", max_size=10))
_DIAGONAL_CELLS = st.one_of(st.text(" \t", max_size=2), _SHORT_CELLS)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_SHORT_CELLS, min_size=6, max_size=6),
    st.lists(_DIAGONAL_CELLS, min_size=3, max_size=3),
)
def test_short_cells_of_number_bytes_match_the_oracle(cells, diagonal):
    rows = [[name, *cells[2 * i:2 * i + 2]] for i, name in enumerate("abc")]
    for i, row in enumerate(rows):
        row.insert(i + 1, diagonal[i])
    text = _crosstable_text(rows)
    new = _outcome(parse_crosstable, text)
    old = _outcome(oracle.parse_crosstable, text)
    if new[0] == old[0] == "ok":
        assert new[1].scores.tobytes() == old[1].scores.tobytes()
    elif new != old:
        # Only the ASCII-number rule may differ: float() also reads a
        # number with underscores.
        cell = re.fullmatch(r"bad score '(.*)' \(line \d\)", new[1]).group(1)
        assert new[0] is ParseError and "_" in cell
        float(cell)


@settings(max_examples=150, deadline=None)
@given(text=_mutated("games/*.gm").map(_plain))
def test_mutated_game_files_match_the_oracle(text):
    new = _outcome(parse_game, text)
    old = _outcome(oracle.parse_game, text)
    if new != old:
        # Only the count rule may differ: int() also reads a count with a
        # plus sign, an underscore or another script's digits.
        line = new[2]
        assert new == (
            ParseError, f"row and column counts must be integers (line {line})", line
        )
        counts = text.splitlines()[line - 1].split("#")[0].split()[1::2]
        assert any(
            count.startswith("+") or "_" in count or not count.isascii()
            for count in counts
        )
        return
    if new[0] == "ok":
        _check_game(new[1])
        if new[1].symmetric_flag:
            _check_cycles(new[1], 4)


# One-row edits of a large canonical file.  Each edited table goes through
# the table decoder, and a table it rejects through the per-row checks that
# word the error; the edit alone decides which.
_N = 120


def _score_cells(n: int, seed: int) -> list[list[str]]:
    """Rows ``[name, score...]`` of a complementary table in three-decimal
    spelling, with a few one-sided and absent pairs."""
    rng = np.random.default_rng(seed)
    cells = [[f"p{a}"] + [""] * n for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            k = int(rng.integers(0, 1001))
            kind = rng.choice(3, p=[0.9, 0.05, 0.05])  # both, upper, none
            if kind < 2:
                cells[a][b + 1] = f"{k / 1000:.3f}"
            if kind == 0:
                cells[b][a + 1] = f"{1 - k / 1000:.3f}"
    return cells


def _crosstable_text(cells: list[list[str]]) -> str:
    header = "names," + ",".join(row[0].strip() for row in cells)
    return "\n".join([header] + [",".join(row) for row in cells]) + "\n"


def _set(a: int, b: int, value: str, partner: str | None = None):
    def edit(cells):
        cells[a][b + 1] = value
        if partner is not None:
            cells[b][a + 1] = partner
    return edit


def _pad_name(cells):
    cells[60][0] = " p60 "


def _pad_score(cells):
    cells[60][5] = f" {cells[60][5]} "


def _blank_run(cells):
    cells[60][10:13] = ["", "", ""]


def _blank_row(cells):
    cells[60][1:] = [""] * _N


def _swap_rows(cells):
    cells[60], cells[61] = cells[61], cells[60]


def _extra_column(cells):
    cells[60].append("0.5")


def _missing_column(cells):
    cells[60].pop()


def _trailing_comma(cells):
    cells[60][-1] += ","


def _last_cell_blank(cells):
    cells[60][-1] = ""


def _rename(name: str):
    def edit(cells):
        cells[60][0] = name
    return edit


def _unicode_pad(cells):
    cells[60][5] = f"\u3000{cells[60][5]}\xa0"


_CROSSTABLE_EDITS = {
    "nan": _set(60, 3, "nan"),
    "inf": _set(60, 3, "inf"),
    "nan on the diagonal": _set(60, 60, "nan"),
    "score on the diagonal": _set(60, 60, "0.5"),
    "out of range": _set(60, 3, "1.5"),
    "whitespace only": _set(60, 3, "  "),
    "nul byte": _set(60, 3, "0.5\x00"),
    "hex": _set(60, 3, "0x1"),
    "padded score": _pad_score,
    "padded name": _pad_name,
    "rows out of order": _swap_rows,
    "extra column": _extra_column,
    "missing column": _missing_column,
    "blank run": _blank_run,
    "blank row": _blank_row,
    "trailing comma": _trailing_comma,
    "last cell blank": _last_cell_blank,
    "minus zero": _set(60, 3, "-0", "1"),
    "exponent": _set(60, 3, "1e0", "0"),
    "no leading digit": _set(60, 3, ".5", ".5"),
    "not complementary": _set(60, 3, "0.4", "0.5"),
    "underscore in a name": _rename("p_60"),
    "non-ASCII name": _rename("p\u00e960"),
    "Unicode padding": _unicode_pad,
    "tab-only cell": _set(60, 3, "\t"),
}


@pytest.mark.parametrize("edit", _CROSSTABLE_EDITS.values(), ids=_CROSSTABLE_EDITS)
def test_crosstable_edits_match_the_oracle(edit):
    cells = _score_cells(_N, seed=1)
    edit(cells)
    text = _crosstable_text(cells)
    new = _outcome(parse_crosstable, text)
    assert _same_crosstable(new, _outcome(oracle.parse_crosstable, text))
    if new[0] == "ok":
        _check_game(to_game(new[1], margin=0.01))


def _game_text(n: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(-1, 2, size=(n, n)), 1)
    table = GameTable(name="g", entries=upper - upper.T, symmetric_flag=True)
    return serialize_game(table)


def _on_row(i: int, edit):
    """``edit`` applied to the line of payoff row ``i``."""
    def apply(text: str) -> str:
        lines = text.splitlines()
        line = 2 + i  # three header lines, then row 1
        lines[line] = edit(lines[line])
        return "\n".join(lines) + "\n"
    return apply


_SPELLED = {"+1": "w", "0": "d", "-1": "l"}


def _alias_last(line: str) -> str:
    head, token = line.rsplit(" ", 1)
    return f"{head} {_SPELLED[token]}"


def _as_letters(glue: str):
    """The row's entries as the letters a, b and c, each after ``glue``:
    one-byte tokens that are no entry."""
    letters = {"+1": "c", "0": "b", "-1": "a"}

    def edit(line: str) -> str:
        head, tokens = line.split(":")
        return head + ":" + "".join(glue + letters[tok] for tok in tokens.split())
    return edit


def _entry_moved_down(i: int):
    """Payoff row ``i``'s last entry moved to the end of row ``i + 1``, so
    that the two rows still hold as many entries as before."""
    def apply(text: str) -> str:
        lines = text.splitlines()
        line = 2 + i  # three header lines, then row 1
        lines[line], token = lines[line].rsplit(" ", 1)
        lines[line + 1] += f" {token}"
        return "\n".join(lines) + "\n"
    return apply


def _between_entries(glue: str):
    """The row with ``glue`` for each space between its entries."""
    def edit(line: str) -> str:
        head, body = line.split(": ", 1)
        return f"{head}: {body.replace(' ', glue)}"
    return edit


_GAME_EDITS = {
    "double space": _on_row(50, lambda line: line.replace(" ", "  ", 3)),
    "tab": _on_row(50, lambda line: line.replace(" ", "\t", 3)),
    "aliases": _on_row(50, lambda line: " ".join(
        _SPELLED.get(tok, tok) for tok in line.split(" "))),
    "glued signs": _on_row(50, lambda line: line.replace(" -", "-", 1)),
    "glued junk": _on_row(50, lambda line: line.replace(" -1", "x", 1)),
    "glued letter": _on_row(50, lambda line: line.replace(" 0", " 0w", 1)),
    "placeholder letters": _on_row(50, _as_letters(" ")),
    "glued placeholder letters": _on_row(50, _as_letters("")),
    "leading zero": _on_row(50, lambda line: line.replace("row ", "row 0", 1)),
    "comment": _on_row(50, lambda line: line + " # noted"),
    "stray sign": _on_row(50, lambda line: line.replace(" +1", " +1 +", 1)),
    "unsigned one": _on_row(50, lambda line: line.replace("+1", "1", 1)),
    "alias in the last row": _on_row(100, _alias_last),
    "alias in the first row": _on_row(1, _alias_last),
    "U+3000 between entries": _on_row(50, _between_entries("\u3000")),
    "U+001F between entries": _on_row(50, _between_entries("\x1f")),
    "entry moved to the next row": _entry_moved_down(50),
}


_GAME_HEAD = "game x\nsymmetric false\nrows 2 cols 2\n"


@pytest.mark.parametrize("text, expected", [
    ("game x\n", "symmetric"),
    ("game x  # no more\n\n", "symmetric"),
    ("game x\nsymmetric true\n", "rows"),
    (_GAME_HEAD, "row"),
    (_GAME_HEAD + "row 1: +1 0\n", "row"),
    (_GAME_HEAD + "labels_rows a b\nlabels_cols c d\nrow 1: w l\n# row 2\n", "row"),
], ids=["after-name", "after-comment", "after-symmetric", "no-rows",
        "before-last-row", "labelled-before-last-row"])
def test_game_files_that_end_early_match_the_oracle(text, expected):
    new = _outcome(parse_game, text)
    assert new == (ParseError, f"unexpected end of input, expected '{expected}'", None)
    assert new == _outcome(oracle.parse_game, text)


@pytest.mark.parametrize("text", ["", "\n", " \n\t\n", "\r\n  \r\n"],
                         ids=["empty", "newline", "blank-lines", "crlf-blank-lines"])
def test_empty_crosstables_match_the_oracle(text):
    new = _outcome(parse_crosstable, text)
    assert new == (ParseError, "empty crosstable", None)
    assert new == _outcome(oracle.parse_crosstable, text)


@pytest.mark.parametrize("edit", _GAME_EDITS.values(), ids=_GAME_EDITS)
def test_game_edits_match_the_oracle(edit):
    base = _game_text(100, seed=2)
    text = edit(base)
    assert text != base
    new = _outcome(parse_game, text)
    assert new == _outcome(oracle.parse_game, text)
    if new[0] == "ok":
        _check_game(new[1])


def _edited(text: str, *edits) -> str:
    for edit in edits:
        text = edit(text)
    return text


def test_valid_files_of_every_spelling_need_no_row_checks(monkeypatch):
    """The per-row checks only word errors; every valid file, however it
    is spelled, is read by the table decoders alone."""
    def unused(*args):
        raise AssertionError("the per-row checks ran on a valid file")

    monkeypatch.setattr(crosstable, "_row_error", unused)
    monkeypatch.setattr(game_core, "_row_error", unused)
    cells = _score_cells(50, seed=3)
    cells[7][0], cells[8][0] = "p_7", "H\u00f6udini"
    cells[9][4] = f" {cells[9][4]}\t"
    cells[10][5] = f"\u3000{cells[10][5]}\xa0"
    cells[11][3] = "\t"
    for edited in (_score_cells(50, seed=3), cells):
        text = _crosstable_text(edited)
        want = ("ok", oracle.parse_crosstable(text))
        assert _same_crosstable(("ok", parse_crosstable(text)), want)

    base = _game_text(50, seed=4)
    spelled = _edited(
        base,
        _on_row(1, _alias_last),
        _on_row(2, _between_entries("\t")),
        _on_row(3, _between_entries("  ")),
        _on_row(4, _between_entries("\x1f")),
        _on_row(5, _between_entries("\u3000")),
        _on_row(6, _between_entries(" \t\u3000 ")),
        _on_row(7, lambda line: line + " # noted"),
        _on_row(50, lambda line: line + "\t#"),
    )
    for text in (base, _GAME_EDITS["aliases"](base), spelled):
        assert parse_game(text) == oracle.parse_game(text)


@pytest.mark.parametrize("rows_per_block", [1, 2, 7])
def test_game_rows_across_block_boundaries(monkeypatch, rows_per_block):
    """With a block of one, two or seven rows, a 100-row file spans many
    blocks; it must still read as the oracle reads it, and an invalid
    token in the first row of a block, or an entry moved across a block
    boundary, must be reported on its line."""
    monkeypatch.setattr(game_core, "_BLOCK_CELLS", rows_per_block * 100)
    text = _game_text(100, seed=5)
    assert parse_game(text) == oracle.parse_game(text)
    aliased = _on_row(rows_per_block + 1, _alias_last)(text)
    assert parse_game(aliased) == oracle.parse_game(aliased)
    bad_texts = [
        _on_row(row, lambda line: line.replace(" 0", " 2", 1))(text)
        for row in (1, rows_per_block + 1, 3 * rows_per_block + 1, 99)
    ]
    bad_texts.append(_entry_moved_down(rows_per_block)(text))
    for bad in bad_texts:
        want = _outcome(oracle.parse_game, bad)
        assert want[0] is ParseError
        assert _outcome(parse_game, bad) == want


@pytest.mark.parametrize("rows_per_block", [1, 2, 7])
def test_characters_beyond_ascii_across_block_boundaries(monkeypatch, rows_per_block):
    """Each row of a block ends where the lengths of the rows before it
    say.  Wide spaces between entries, in the last row of a block and the
    first of the next, read as the oracle reads them without the per-row
    checks; a character beyond ASCII that is no space, there or after
    them, is reported as the oracle reports it, on its line."""
    monkeypatch.setattr(game_core, "_BLOCK_CELLS", rows_per_block * 100)
    k = rows_per_block
    text = _game_text(100, seed=7)
    wide = _edited(
        text,
        _on_row(k, _between_entries("\xa0")),
        _on_row(k + 1, _between_entries(" \u3000")),
        _on_row(2 * k + 1, _between_entries("\u3000\xa0")),
    )

    def unused(*args):
        raise AssertionError("the per-row checks ran on a valid file")

    with monkeypatch.context() as patched:
        patched.setattr(game_core, "_row_error", unused)
        assert parse_game(wide) == oracle.parse_game(wide)
    edits = [
        lambda line: line.rsplit(None, 1)[0] + " \u00e9",  # the last entry
        lambda line: line.replace(": ", ": +1 \u00e9 ", 1),  # two more
        lambda line: line.replace(": ", ": \u00e9", 1),  # in the first
    ]
    for row in (k, k + 1, 2 * k + 2, 100):
        for edit in edits:
            bad = _on_row(row, edit)(wide)
            want = _outcome(oracle.parse_game, bad)
            assert want[0] is ParseError
            assert _outcome(parse_game, bad) == want


@pytest.mark.parametrize("rows_per_block", [1, 2, 7])
def test_crosstable_rows_across_block_boundaries(monkeypatch, rows_per_block):
    """With a block of one, two or seven rows, the complementarity check and
    the thresholding of a 120-engine table span many blocks.  A clash in the
    first row of a later block, or the first of two clashes in row-major
    order, must be reported as the oracle reports it, and absent and
    one-sided pairs in later blocks must threshold as the oracle does."""
    monkeypatch.setattr(game_core, "_BLOCK_CELLS", rows_per_block * _N)
    k = 3 * rows_per_block  # the first row of the fourth block
    sparse = [
        _set(k, k + 1, ""), _set(k + 1, k, ""),  # absent
        _set(k, _N - 1, ""), _set(_N - 1, k, "0.250"),  # only the lower side
        _set(k + 1, _N - 2, "0.750"), _set(_N - 2, k + 1, ""),  # only the upper
        _set(_N - 2, _N - 1, ""), _set(_N - 1, _N - 2, "0.900"),
    ]
    clashes = [
        [_set(k, k + 2, "0.4", "0.5")],
        [_set(rows_per_block, _N - 1, "0.4", "0.5")],
        # Row-major, the far clash in the earlier row comes first, though
        # its lower cell sits in the last block.
        [_set(k + 1, k + 2, "0.4", "0.5"), _set(k, _N - 1, "0.3", "0.5")],
        [_set(k + 2, k + 1, "0.4", "0.5"), _set(_N - 1, k, "0.3", "0.5")],
    ]
    for edits in [sparse, *clashes]:
        cells = _score_cells(_N, seed=6)
        for edit in edits:
            edit(cells)
        text = _crosstable_text(cells)
        new = _outcome(parse_crosstable, text)
        old = _outcome(oracle.parse_crosstable, text)
        assert _same_crosstable(new, old)
        if edits is sparse:
            for margin in (0.0, 0.01, 0.3):
                game = to_game(new[1], margin=margin)
                assert game == oracle.to_game(old[1], margin=margin)
        else:
            assert new[0] is ComplementarityViolation


# Lines with no content: empty, whitespace alone, a comment alone (in a game
# file; a crosstable has no comments) and a lone "\r", whitespace within a
# line.
_FILLERS = ["", "   ", "\t", "# note", "\r"]


def _filled(text: str, fillers: list[str]) -> str:
    """``text`` with a filler after each line, cycling through ``fillers``,
    and a run of all of them after the first line."""
    lines = []
    for k, line in enumerate(text.split("\n")[:-1]):
        lines.append(line)
        lines += fillers if k == 0 else [fillers[k % len(fillers)]]
    return "\n".join(lines) + "\n"


def _real_line(text: str, start: str) -> int:
    return next(
        lineno for lineno, line in enumerate(text.split("\n"), start=1)
        if line.startswith(start)
    )


@pytest.mark.parametrize("rows_per_block", [1, 2, 7])
def test_lines_with_no_content_across_block_boundaries(monkeypatch, rows_per_block):
    """Empty, blank, comment-only and lone "\\r" lines between the rows, and
    comments after them, with blocks of one, two or seven rows.  A game
    file reads as the oracle reads it, valid or not, line numbers included.
    A crosstable's scores match the oracle's bit for bit, and a bad row
    after such lines is named by its real line, which the oracle, counting
    only lines with content, does not give."""
    n = 30
    k = 3 * rows_per_block + 1  # the first row of the fourth block
    monkeypatch.setattr(game_core, "_BLOCK_CELLS", rows_per_block * n)
    base = _game_text(n, seed=7)
    games = [
        base,
        base.replace("\n", "\r\n"),
        _on_row(k, _alias_last)(base),
        _on_row(k, lambda line: line.replace(" 0", " 2", 1))(base),
        _on_row(k, lambda line: line.replace(f"row {k}:", f"row {k + 1}:"))(base),
        _on_row(n, lambda line: line.rsplit(" ", 1)[0])(base),
        _entry_moved_down(k - 1)(base),
        base[:base.rindex("row")],  # the last row missing
        base + "extra\n",
    ]
    comments = [
        _on_row(i, lambda line: line + "  # after") for i in range(1, n + 1, 3)
    ]
    for edited in games:
        filled = _filled(_edited(edited, *comments), _FILLERS)
        for text in (filled, filled.replace("\n", "\r\n")):
            assert _outcome(parse_game, text) == _outcome(oracle.parse_game, text)

    # The decoder's blocks are those of a table eight times as wide.
    monkeypatch.setattr(game_core, "_BLOCK_CELLS", rows_per_block * 8 * n)
    blanks = [filler for filler in _FILLERS if not filler.strip()]
    filled = _filled(_crosstable_text(_score_cells(n, seed=8)), blanks)
    want = oracle.parse_crosstable(filled).scores.tobytes()
    for text in (filled, filled.replace("\n", "\r\n")):
        assert parse_crosstable(text).scores.tobytes() == want

    def comment_after(cells):
        cells[k][-1] += " # note"

    def swapped(cells):
        cells[k], cells[k + 1] = cells[k + 1], cells[k]

    for edit in (_set(k, 2, "1.5"), _set(k, k, "0.5"), comment_after, swapped):
        cells = _score_cells(n, seed=8)
        edit(cells)
        bad = _filled(_crosstable_text(cells), blanks)
        kind, message, counted = _outcome(oracle.parse_crosstable, bad)
        assert kind is ParseError
        line = _real_line(bad, cells[k][0] + ",")
        assert line > counted
        message = message.removesuffix(f" (line {counted})")
        assert _outcome(parse_crosstable, bad) == (kind, f"{message} (line {line})", line)
        # A comment-only line is a row here, and the row count is checked
        # before any row.
        extra = bad.replace("\n\n", "\n# note\n", 1)
        want = (ParseError, f"expected {n} score rows after the header, found {n + 1}", None)
        assert _outcome(parse_crosstable, extra) == want
        assert _outcome(oracle.parse_crosstable, extra) == want


# ---------------------------------------------------------------------------
# Cycle listing on bit-packed rows, witness maps and one-line tables


def _sparse_symmetric(n: int, decisive: float, seed: int) -> GameTable:
    """A seeded symmetric table in which a ``decisive`` share of pairings
    has a winner, either way with equal odds."""
    rng = np.random.default_rng(seed)
    draw = rng.choice([-1, 0, 1], size=(n, n), p=[decisive / 2, 1 - decisive, decisive / 2])
    upper = np.triu(draw, 1)
    return GameTable(name="s", entries=upper - upper.T, symmetric_flag=True)


def _ranked(n: int, seed: int) -> np.ndarray:
    """A seeded near-transitive symmetric table, strongest strategy first:
    a stronger strategy wins unless noise draws or reverses a close pair."""
    rng = np.random.default_rng(seed)
    lead = (np.arange(n)[None, :] - np.arange(n)[:, None]) / n
    score = lead + rng.normal(0.0, 0.02, (n, n))
    upper = np.triu(np.where(score > 0.02, 1, np.where(score < -0.02, -1, 0)), 1)
    return upper - upper.T


@pytest.mark.parametrize("paths_per_block", [1, 2, 7])
@pytest.mark.parametrize("max_len", [3, 4, 5])
def test_cycles_across_block_boundaries(monkeypatch, paths_per_block, max_len):
    """With a block of one, two or seven paths, every step of the listing
    spans many blocks; the list must still be the oracle's, in order."""
    n = _CYCLE_BLOCK[max_len]
    game = _sparse_symmetric(n, decisive=0.8, seed=max_len)
    want = oracle.find_cycles(game, max_len)
    assert len(want) > 3 * n
    monkeypatch.setattr(classify_module, "_BLOCK_CELLS", paths_per_block * n)
    assert find_cycles(game, max_len) == want


def test_cycles_of_a_300_strategy_table():
    game = _sparse_symmetric(300, decisive=0.2, seed=300)
    cycles = find_cycles(game, max_len=3)
    assert cycles == oracle.find_cycles(game, max_len=3)
    beats = (game.entries.T == 1).astype(np.int64)
    assert len(cycles) == np.trace(beats @ beats @ beats) // 3 > 1000


def test_cycle_listing_memory_stays_near_the_walks():
    """The listing grows paths a block at a time, so its peak stays within
    twice the recursive walk's even when a table has 478,670 paths to grow.

    The weakest-first numbering gives each start hundreds of climbing
    successors (the walk would take hours over its n^3/6 paths there); the
    walk's peak is measured on the strongest-first numbering of the same
    table, which has the same edges and cycles, and the walk's memory (the
    table, one successor array per strategy and the cycle list) does not
    depend on the numbering."""
    entries = _ranked(1000, seed=5)
    strongest_first = GameTable(name="s", entries=entries, symmetric_flag=True)
    weakest_first = GameTable(name="w", entries=entries[::-1, ::-1], symmetric_flag=True)

    def peak(search, game):
        tracemalloc.start()
        try:
            found = search(game, max_len=3)
            return len(found), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    count, walk_peak = peak(oracle.find_cycles_walk, strongest_first)
    assert count > 1000
    for game in (strongest_first, weakest_first):
        found, listing_peak = peak(find_cycles, game)
        assert found == count
        assert listing_peak < 2 * walk_peak


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 12), (12, 1), (1000, 1)])
def test_one_line_tables_serialize_as_the_oracle(rows, cols):
    rng = np.random.default_rng(rows + cols)
    for entries in (
        np.zeros((rows, cols)), np.ones((rows, cols)), -np.ones((rows, cols)),
        rng.integers(-1, 2, size=(rows, cols)),
    ):
        game = GameTable(name="g", entries=entries)
        assert serialize_game(game) == oracle.serialize_game(game)
        assert parse_game(serialize_game(game)) == game


@given(st.one_of(game_tables(max_side=8), symmetric_tables(max_side=8)))
@settings(max_examples=200)
@example(rps())
@example(GameTable(name="safe-row", entries=np.array([[0, 1], [-1, 1]])))
@example(GameTable(name="unbeaten-column", entries=np.array([[0, -1], [-1, 1]])))
def test_strong_intransitivity_matches_the_oracle(game):
    assert is_strongly_intransitive(game) == oracle.is_strongly_intransitive(game)
