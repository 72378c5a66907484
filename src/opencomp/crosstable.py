"""Turning empirical score crosstables into win/draw/loss games.

The input format is the comma-separated table league reports tend to use:
a header line ``names,A,B,C`` followed by one line per player holding its
score (fraction of points taken) against each column opponent, diagonal
left empty.  Scores of a pair must be complementary, s(a,b) + s(b,a) = 1,
within a small tolerance.  A margin parameter decides how far from an even
0.5 a score must be before it counts as a win rather than a draw; widening
the margin can erase narrow intransitive cycles, which is the phenomenon
the bundled engine table demonstrates.  Scores are plain ASCII numbers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplementarityViolation, ParseError
from .game_core import GameTable, is_label

_COMPLEMENT_TOL = 1e-6


@dataclass(frozen=True)
class Crosstable:
    """Raw parsed scores: names plus a square matrix with NaN where empty."""

    names: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        n = len(self.names)
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
    lines = [(lineno, line) for lineno, line in numbered if line.strip()]
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

    scores = np.empty((n, n))
    for row, (lineno, line) in enumerate(lines[1:]):
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
        scores[row] = _row_scores(cells[1:], row, lineno)

    total = scores + scores.T
    clash = np.argwhere(np.triu(np.abs(total - 1.0) > _COMPLEMENT_TOL, 1))
    if clash.size:
        a, b = clash[0]
        raise ComplementarityViolation(
            f"scores for {names[a]} vs {names[b]} sum to "
            f"{total[a, b]:.6f}, expected 1"
        )
    # Checked last: a name only matters once it becomes a game label, which
    # must read back from a game file.
    bad = next((name for name in names if not is_label(name)), None)
    if bad is not None:
        raise ParseError(
            f"name {bad!r} must be one word with no '#'", line=header_line
        )
    return Crosstable(names=names, scores=scores)


def _row_scores(cells: list[str], row: int, lineno: int) -> np.ndarray:
    """One row's scores, NaN where empty, converted and checked in one go;
    a row that fails is scanned cell by cell for its first bad cell."""
    text = "".join(cells)
    if text.isascii() and "_" not in text and cells[row] == "":
        try:
            values = np.array([float(cell) if cell else np.nan for cell in cells])
        except ValueError:
            pass
        else:
            # Valid when every cell is either empty (NaN) or in range.
            if ((values >= 0) & (values <= 1)).sum() + cells.count("") == values.size:
                return values
    values = np.full(len(cells), np.nan)
    for col, cell in enumerate(cells):
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
        values[col] = value
    return values


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
    score = np.where(np.isnan(s), 1.0 - s.T, s)  # NaN when both are absent
    entries = np.triu(
        np.where(score > 0.5 + margin, 1, np.where(score < 0.5 - margin, -1, 0)), 1
    ).astype(np.int8)
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
