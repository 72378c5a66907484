"""Turning empirical score crosstables into win/draw/loss games.

The input format is the comma-separated table league reports tend to use:
a header line ``names,A,B,C`` followed by one line per player holding its
score (fraction of points taken) against each column opponent, diagonal
left empty.  Scores of a pair must be complementary, s(a,b) + s(b,a) = 1,
within a small tolerance.  A margin parameter decides how far from an even
0.5 a score must be before it counts as a win rather than a draw; widening
the margin can erase narrow intransitive cycles, which is the phenomenon
the bundled engine table demonstrates.  Scores are plain ASCII numbers.

Every table's text is decoded whole, by one ``np.loadtxt`` call fed a line
at a time: each line's name is checked and split off with one
``str.partition``, and its blank cells become ``nan`` in one ``str.replace``
(two, only where blanks sit side by side).  A wrong cell count stops
``np.loadtxt``, or fails the final shape check when every row has it.  Only
a table that fails is scanned row by row and cell by cell, to report its
first error.
The complementarity check and the thresholding then go a block of rows at a
time (``game_core.row_blocks``), each block against its mirror columns from
the diagonal on, so beside the score matrix they hold only one block's
temporaries and the int8 table being built.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import ComplementarityViolation, ParseError
from .game_core import GameTable, is_label, row_blocks

_COMPLEMENT_TOL = 1e-6
_BLANK_CELL = re.compile(r"(?<=,)\s+(?=,)")


@dataclass(frozen=True)
class Crosstable:
    """Raw parsed scores: names plus a square matrix with NaN where empty."""

    names: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)  # so a caller's list cannot rename players
        object.__setattr__(self, "names", names)
        scores = np.asarray(self.scores, dtype=np.float64)
        n = len(names)
        if scores.shape != (n, n):
            raise ValueError("scores must be square and match the name count")
        scores = scores.copy()
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


def parse_crosstable(text: str) -> Crosstable:
    """Parse the CSV-ish crosstable format; errors carry line numbers.

    Raises ComplementarityViolation when a pair's two scores are present
    and do not sum to 1 within tolerance.
    """
    numbered = enumerate(text.splitlines(), start=1)
    lines = [(lineno, line) for lineno, line in numbered if line and not line.isspace()]
    if not lines:
        raise ParseError("empty crosstable")
    header_line, header = lines[0]
    header = [cell.strip() for cell in header.split(",")]
    if header[0] != "names" or len(header) < 2:
        raise ParseError("header must be 'names,<name>,...'", line=header_line)
    names = tuple(header[1:])
    if len(set(names)) != len(names):
        raise ParseError("duplicate names in header", line=header_line)
    n = len(names)
    if len(lines) != n + 1:
        raise ParseError(
            f"expected {n} score rows after the header, found {len(lines) - 1}"
        )

    scores = _scores(names, lines[1:])
    del lines  # a copy of the text, freed before ``Crosstable`` copies the scores
    # Each block of rows against its mirror columns from the diagonal on:
    # the blocks go in row order, so the first clash found is the first in
    # row-major order.  A pair with a NaN sums to NaN, which never clashes.
    for start, stop in row_blocks(n, n):
        total = scores[start:stop, start:] + scores[start:, start:stop].T
        clash = np.argwhere(np.triu(np.abs(total - 1.0) > _COMPLEMENT_TOL, 1))
        if clash.size:
            i, j = clash[0]
            raise ComplementarityViolation(
                f"scores for {names[start + i]} vs {names[start + j]} sum to "
                f"{total[i, j]:.6f}, expected 1"
            )
    # Checked last: a name only matters once it becomes a game label, which
    # must read back from a game file.
    bad = next((name for name in names if not is_label(name)), None)
    if bad is not None:
        raise ParseError(
            f"name {bad!r} must be one word with no '#'", line=header_line
        )
    return Crosstable(names=names, scores=scores)


def _scores(names: tuple[str, ...], rows: list[tuple[int, str]]) -> np.ndarray:
    """The score matrix of ``rows``, NaN where a cell is blank, decoded by
    one ``np.loadtxt`` call.  Any fault goes to ``_row_error`` to be worded."""
    n = len(names)
    filled = 0

    def nan_filled():
        # A row with a wrong name stops the call, and so does a cell count
        # that differs from the first row's; the shape check below catches a
        # count that is wrong in every row.  Blank cells, framed by a comma
        # on each side, become "nan"; their count tells them from a literal
        # nan, an error.  Within a line, ASCII text holds no whitespace but
        # " ", "\t" and "\x1f".
        nonlocal filled
        for name, (_, line) in zip(names, rows):
            head, comma, cells = line.partition(",")
            if not comma or head.strip() != name:
                raise ValueError(f"row {name!r} is malformed")
            framed = f",{cells},"
            if not cells.isascii() or " " in cells or "\t" in cells or "\x1f" in cells:
                framed = _BLANK_CELL.sub("", framed)
            full = framed.replace(",,", ",nan,")
            if ",," in full:  # two blanks side by side
                full = full.replace(",,", ",nan,")
            filled += (len(full) - len(framed)) // 3
            yield full[1:-1]

    try:
        scores = np.loadtxt(
            nan_filled(), delimiter=",", comments=None, max_rows=n, ndmin=2
        )
        in_range = np.count_nonzero((scores >= 0) & (scores <= 1))
        if (
            scores.shape == (n, n)
            and in_range + filled == n * n
            and np.isnan(np.diagonal(scores)).all()
        ):
            return scores
    except ValueError:
        pass
    _row_error(names, rows)


def _row_error(names: tuple[str, ...], rows: list[tuple[int, str]]) -> NoReturn:
    """Raise the ParseError of the first bad row, checked cell by cell."""
    n = len(names)
    for row, (lineno, line) in enumerate(rows):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != n + 1:
            raise ParseError(
                f"expected {n + 1} cells, found {len(cells)}", line=lineno
            )
        if cells[0] != names[row]:
            raise ParseError(
                f"row name '{cells[0]}' does not match header order "
                f"('{names[row]}' expected)", line=lineno,
            )
        for col, cell in enumerate(cells[1:]):
            if cell == "":
                continue
            if row == col:
                raise ParseError("diagonal cells must be empty", line=lineno)
            if not cell.isascii() or "_" in cell:
                raise ParseError(f"bad score '{cell}'", line=lineno)
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"bad score '{cell}'", line=lineno) from None
            if not 0.0 <= value <= 1.0:
                raise ParseError(f"score {value} outside [0, 1]", line=lineno)
    raise AssertionError("the score decoder rejected a valid table")


def to_game(
    crosstable: Crosstable, margin: float = 0.0, name: str = "crosstable"
) -> GameTable:
    """Threshold scores into a symmetric win/draw/loss table.

    A pair's outcome comes from the upper-triangle score (or the complement
    of the lower one if only that side is present; a fully absent pair is a
    draw): win above 0.5 + margin, loss below 0.5 - margin, draw between.
    The lower triangle is the mirror image, so the result is antisymmetric
    by construction even when a score sits exactly on a threshold.
    """
    if not 0.0 <= margin < 0.5:
        raise ValueError("margin must be in [0, 0.5)")
    s = crosstable.scores
    n = len(s)
    entries = np.zeros((n, n), dtype=np.int8)
    # The upper triangle, a block of rows at a time against the mirror
    # columns; a NaN score compares false both ways, so it is a draw.
    for start, stop in row_blocks(n, n):
        rows, mirror = s[start:stop, start:], s[start:, start:stop].T
        score = np.where(np.isnan(rows), 1.0 - mirror, rows)
        entry = (score > 0.5 + margin).view(np.int8)
        entry -= (score < 0.5 - margin).view(np.int8)
        entries[start:stop, start:] = np.triu(entry, 1)
    return GameTable(
        name=name,
        entries=entries - entries.T,
        symmetric_flag=True,
        labels_rows=crosstable.names,
        labels_cols=crosstable.names,
    )


def ingest_crosstable(
    text: str, margin: float = 0.0, name: str = "crosstable"
) -> GameTable:
    """Parse and threshold in one call."""
    return to_game(parse_crosstable(text), margin=margin, name=name)
