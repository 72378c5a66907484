"""Turning empirical score crosstables into win/draw/loss games.

The input format is the comma-separated table league reports tend to use:
a header line ``names,A,B,C`` followed by one line per player holding its
score (fraction of points taken) against each column opponent, diagonal
left empty.  Scores of a pair must be complementary, s(a,b) + s(b,a) = 1,
within a small tolerance.  A margin parameter decides how far from an even
0.5 a score must be before it counts as a win rather than a draw; widening
the margin can erase narrow intransitive cycles, which is the phenomenon
the bundled engine table demonstrates.  Scores are plain ASCII numbers.
Lines are read by ``game_core.content_lines``, the line rule game files
share, without its comment cut: lines end only at ``"\\n"``, any other line
break is whitespace within a line, and lines of whitespace alone are
skipped.  One walk counts the score rows, and a second hands them to the
decoder a block at a time, so no list of every line is kept.

Scores are decoded as bytes, a block of rows at a time: each row's name is
checked, and the commas and line ends give every cell's start and length.
A plain cell, 1-8 ASCII bytes of digits with at most one dot and at least
one digit, is read as one little-endian word, right-justified with zero
digits, its dot dropped, and its digits joined into an integer by three
multiply-shift steps within the word.  That integer divided by the power of
ten the dot stands for is ``float(cell)`` bit for bit: both operands are
exact doubles and the division rounds once.  A blank cell is NaN.  Every
other cell (padding, a sign, an exponent, more than 8 bytes, non-ASCII, a
literal ``nan``) is cut out of the block's bytes with the rest of them, and
one ``np.loadtxt`` call reads them all in its float syntax, stripping the
whitespace around each; a cell of whitespace alone is blank.  Only a table
with a wrong name or cell count, or a bad score, is scanned row by row and
cell by cell, to report its first error.  Each block's range and diagonal
are checked as it is decoded, so that scan reads only the faulty block.

The complementarity check and the thresholding then go a block of rows at a
time (``game_core.row_blocks``), each block against its mirror columns from
the diagonal on, so beside the score matrix they hold only one block's
temporaries and the int8 table being built.
"""
from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, NoReturn

import numpy as np

from .errors import ComplementarityViolation, ParseError
from .frozen import Frozen, _restore, _set
from .game_core import GameTable, content_lines, is_label, row_blocks

_COMPLEMENT_TOL = 1e-6
_BLANK_CELL = re.compile(r",\s+(?=,)")
# Words of eight bytes, read little-endian.  Once "0" is taken off every
# byte, a digit byte is 0-9 and a dot 0x1E.
_ZEROS = np.uint64(0x3030303030303030)
_DOTS = np.uint64(0x1E1E1E1E1E1E1E1E)
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_TOPS = np.uint64(0x8080808080808080)
_PAST_NINE = np.uint64(0x7676767676767676)
_ONES = np.uint64(0x0101010101010101)
# By the byte d that holds a right-justified word's dot, 8 where it has
# none: its digits, times ten once the dot is dropped, are the score times
# 10 ** (8 - d).
_SCALE = 10.0 ** np.arange(8, -1, -1)


class Crosstable(Frozen):
    """Raw parsed scores: names plus a square matrix with NaN where empty."""

    __slots__ = _fields = ("names", "scores")

    def __init__(self, names: tuple[str, ...], scores: np.ndarray):
        names = tuple(names)  # so a caller's list cannot rename players
        # A copy, so that a caller's array cannot change the scores.
        scores = np.array(scores, dtype=np.float64)
        n = len(names)
        if scores.shape != (n, n):
            raise ValueError("scores must be square and match the name count")
        scores.setflags(write=False)
        _set(self, "names", names)
        _set(self, "scores", scores)


def parse_crosstable(text: str) -> Crosstable:
    """Parse the CSV-ish crosstable format; errors carry line numbers.

    Raises ComplementarityViolation when a pair's two scores are present
    and do not sum to 1 within tolerance.
    """
    lines = content_lines(text)
    header_line, header = next(lines, (0, ""))
    if not header:
        raise ParseError("empty crosstable")
    header = [cell.strip() for cell in header.split(",")]
    if header[0] != "names" or len(header) < 2:
        raise ParseError("header must be 'names,<name>,...'", line=header_line)
    names = tuple(header[1:])
    if len(set(names)) != len(names):
        raise ParseError("duplicate names in header", line=header_line)
    n = len(names)
    found = sum(1 for _ in lines)
    if found != n:
        raise ParseError(f"expected {n} score rows after the header, found {found}")

    scores = _scores(names, islice(content_lines(text), 1, None))
    # Each block of rows against its mirror columns from the diagonal on, in
    # one buffer: the blocks go in row order, so the first clash found is the
    # first in row-major order.  The block's own square holds each pair
    # twice, with the same sum, and its first clash is the one above the
    # diagonal.  A pair with a NaN sums to NaN, which never clashes.
    for start, stop in row_blocks(n, n):
        gap = np.add(scores[start:stop, start:], scores[start:, start:stop].T)
        gap -= 1.0
        np.abs(gap, out=gap)
        clash = gap > _COMPLEMENT_TOL
        if clash.any():  # searched only in the block that fails
            a, b = np.argwhere(clash)[0] + start
            raise ComplementarityViolation(
                f"scores for {names[a]} vs {names[b]} sum to "
                f"{scores[a, b] + scores[b, a]:.6f}, expected 1"
            )
    # Checked last: a name only matters once it becomes a game label, which
    # must read back from a game file.
    bad = next((name for name in names if not is_label(name)), None)
    if bad is not None:
        raise ParseError(
            f"name {bad!r} must be one word with no '#'", line=header_line
        )
    # Kept without a copy, made read-only: nothing else holds the matrix.
    return _restore(Crosstable, (names, scores))


def _scores(names: tuple[str, ...], rows: Iterator[tuple[int, str]]) -> np.ndarray:
    """The score matrix of the ``len(names)`` lines of ``rows``, NaN where a
    cell is blank, decoded as bytes a block of rows at a time.  A faulty
    block goes to ``_row_error`` to be worded."""
    n = len(names)
    scores = np.empty((n, n))
    # The decoder holds about eight words a cell, so its blocks are those of
    # a table eight times as wide: 8 rows at 1000 engines, where both its
    # per-call cost and its scratch stay small.
    for start, stop in row_blocks(n, 8 * n):
        block = list(islice(rows, stop - start))
        out = scores[start:stop]
        try:  # blank cells and scores in [0, 1]
            counted = _decode(names[start:stop], block, out)
            counted += np.count_nonzero((out >= 0) & (out <= 1))
        except ValueError:
            counted = -1
        # A literal nan is neither blank nor in range.
        if counted != out.size or not np.isnan(np.diagonal(out, start)).all():
            _row_error(names, block, start)
    return scores


def _decode(
    names: tuple[str, ...], rows: list[tuple[int, str]], out: np.ndarray
) -> int:
    """Decode ``rows`` into ``out``, a row of scores each, NaN where a cell
    is blank, and return the number of blank cells.  ValueError for a wrong
    name or cell count, or a cell that is no number."""
    for name, (_, line) in zip(names, rows):
        # A line with no comma fails the cell count below, whatever this reads.
        if line[:line.find(",")].strip() != name:
            raise ValueError("row name")
    # The rows as bytes, each ended by "\n", then eight bytes of padding so
    # that a word can be read from any cell's start.
    text = "\n".join([line for _, line in rows] + ["\0" * 8])
    data = np.frombuffer(text.encode(errors="surrogatepass"), dtype=np.uint8)
    delimiter = data == ord(",")
    delimiter |= data == ord("\n")
    ends = np.flatnonzero(delimiter)
    width = out.shape[1] + 1  # the name and the scores
    row_ends = data[ends[width - 1::width]]
    if ends.size != len(rows) * width or (row_ends != ord("\n")).any():
        raise ValueError("cell count")
    ends = ends.reshape(-1, width)
    starts = ends[:, :-1] + 1
    lengths = ends[:, 1:] - starts
    plain = _plain_scores(data, starts, lengths, out)
    blank = lengths == 0
    out[blank] = np.nan
    plain |= blank
    other = np.flatnonzero(~plain)
    blanks = np.count_nonzero(blank)
    if other.size:
        blanks += _other_scores(
            data, starts.flat[other], lengths.flat[other], other, out.reshape(-1)
        )
    return blanks


def _plain_scores(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write to ``out`` the value of each plain cell of ``data``, 1-8 ASCII
    bytes of digits with at most one dot and at least one digit, and return
    where the cells are plain.  Elsewhere ``out`` holds junk."""
    # One little-endian word per byte offset: a cell's word holds its bytes,
    # then the bytes that follow it.
    words = np.ndarray((data.size - 7,), "<u8", data, 0, (1,))
    x = words.take(starts)
    # With "0" taken off every byte, a digit is 0-9 and a dot 0x1E.  Shifted
    # left, the word holds the cell right-justified: the bytes past it fall
    # off and zero digits come in.
    x ^= _ZEROS
    shift = np.subtract(8, lengths)
    shift <<= 3
    np.left_shift(x, shift.view(np.uint64), out=x)
    # 0x01 in each byte that holds a dot, by the exact zero-byte test.
    t = x ^ _DOTS
    dot = t & _LOW7
    dot += _LOW7
    dot |= t
    dot |= _LOW7
    np.invert(dot, out=dot)
    dot >>= 7
    # The dot dropped: the bytes after it move down one and a zero digit
    # comes in last, so the word holds the digits times ten.  A word with
    # no dot stays as it is.
    below = dot - 1
    np.left_shift(dot, 8, out=t)
    t -= 1
    np.invert(t, out=t)
    t &= x
    t >>= 8
    x &= below
    x |= t
    # Plain: every byte now a digit (0x76 added to a byte over 9 sets its
    # top bit), which a second dot is not, as it moved down with the rest;
    # and 1-8 bytes, at least one of them a digit.
    np.add(x, _PAST_NINE, out=t)
    t |= x
    t &= _TOPS
    plain = t == 0
    plain &= lengths <= 8
    plain &= lengths > (dot != 0)
    # The eight digits to an integer: each multiply and shift joins
    # neighbouring digits, then pairs, then fours.
    x *= 10 << 8 | 1
    x >>= 8
    x &= 0x00FF00FF00FF00FF
    x *= 100 << 16 | 1
    x >>= 16
    x &= 0x0000FFFF0000FFFF
    x *= 10000 << 32 | 1
    x >>= 32
    # The dot's byte d, 8 where there is none: the sum of the low bits of
    # the bytes below it, gathered into the top byte by one multiply.
    below &= _ONES
    below *= _ONES
    below >>= 56
    # Both operands are exact doubles and the division rounds once, so a
    # score equals float(cell) bit for bit.
    np.divide(x.view(np.int64), _SCALE.take(below), out=out)
    return plain


def _other_scores(
    data: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    cells: np.ndarray,
    out: np.ndarray,
) -> int:
    """Write to ``out`` at ``cells`` the scores of the cells of ``data`` at
    ``starts`` and ``lengths``: NaN where blank, else the float
    ``np.loadtxt`` reads, in one call over them all.  Returns the number of
    blanks."""
    # The cells' bytes cut out as one run, each ended by a comma: the index
    # of each byte steps on by one, and from a cell's delimiter to the next
    # cell's start.
    ends = np.cumsum(lengths + 1)
    index = np.ones(ends[-1], dtype=np.intp)
    index[0] = starts[0]
    index[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1]
    np.cumsum(index, out=index)
    cut = data[index]
    cut[ends - 1] = ord(",")
    # Within a line "\r" is whitespace, which np.loadtxt would take for a
    # line end; it strips all other whitespace around a number itself.
    cut[cut == ord("\r")] = ord(" ")
    # A cell of whitespace alone is blank, and becomes "nan"; their count
    # tells them from a literal nan, an error.
    full, blanks = _BLANK_CELL.subn(
        ",nan", "," + cut.tobytes().decode(errors="surrogatepass")
    )
    values = np.loadtxt([full[1:-1]], delimiter=",", comments=None, ndmin=1)
    if values.shape != cells.shape:
        raise ValueError("cell count")
    out[cells] = values
    return blanks


def _row_error(
    names: tuple[str, ...], rows: list[tuple[int, str]], first: int
) -> NoReturn:
    """Raise the ParseError of the first bad row among ``rows``, rows
    ``first`` on (0-based) of the table, checked cell by cell."""
    n = len(names)
    for row, (lineno, line) in enumerate(rows, start=first):
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
    # columns, in one score buffer: the mirror's complements, overwritten
    # where the row's score is present (a NaN is not equal to itself).  A
    # NaN left over compares false both ways, so it is a draw.  The lower
    # triangle is its negated mirror, written in place: left of the
    # block's square from the rows above it, done in earlier blocks, and
    # below the square's diagonal from the square, zeroed on and below it.
    for start, stop in row_blocks(n, n):
        rows, mirror = s[start:stop, start:], s[start:, start:stop].T
        score = np.subtract(1.0, mirror)
        np.copyto(score, rows, where=rows == rows)
        entry = (score > 0.5 + margin).view(np.int8)
        entry -= (score < 0.5 - margin).view(np.int8)
        entries[start:stop, start:] = entry
        np.negative(entries[:start, start:stop].T, out=entries[start:stop, :start])
        square = entries[start:stop, start:stop]
        np.copyto(square, 0, where=np.tri(stop - start, dtype=bool))
        square -= square.T
    return GameTable._holding(
        name, entries, True, crosstable.names, crosstable.names
    )


def ingest_crosstable(
    text: str, margin: float = 0.0, name: str = "crosstable"
) -> GameTable:
    """Parse and threshold in one call."""
    return to_game(parse_crosstable(text), margin=margin, name=name)
