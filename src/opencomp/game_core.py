"""Finite two-player win/draw/loss games in normal form.

A game is a payoff table for the first player: entry ``+1`` means the first
player's strategy wins the pairing, ``-1`` that it loses, ``0`` a draw.  A
table flagged symmetric describes a game where both players draw strategies
from the same set; its matrix must be antisymmetric with a zero diagonal.

Strategy indices are 1-based everywhere a human sees them (files, reports,
function arguments); the numpy array underneath is 0-based as usual.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum, StrEnum
from itertools import chain, islice
from typing import Iterator, NoReturn

import numpy as np

from .errors import InvariantError, ParseError

MAX_STRATEGIES = 10_000

_ENTRY_TOKENS = ("+1", "0", "-1", "w", "d", "l")
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")  # whitespace beyond ASCII
# Cells checked or decoded at a time, which bounds the scratch memory of
# every whole-table pass here and in ``crosstable``.
_BLOCK_CELLS = 1 << 16


class Outcome(IntEnum):
    """Result of one strategy pairing, seen from the first player."""

    LOSS = -1
    DRAW = 0
    WIN = 1


def row_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive blocks of rows that cover a table of
    the given shape, each of about ``_BLOCK_CELLS`` cells and at least one row."""
    step = max(1, _BLOCK_CELLS // n_cols)
    return [(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def content_lines(text: str, comment: str = "") -> Iterator[tuple[int, str]]:
    """The 1-based line number and stripped content of each line of ``text``
    that has content, read from the text one line at a time.

    This is the line rule of game files and crosstables: lines end only at
    ``"\\n"``, so any other line break is whitespace within a line, and a
    line of whitespace alone has no content.  With ``comment`` given, a line
    ends at its first ``comment`` too.
    """
    start = lineno = 0
    while start <= len(text):
        lineno += 1
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        cut = text.find(comment, start, end) if comment else -1
        content = text[start:end if cut < 0 else cut].strip()
        if content:
            yield lineno, content
        start = end + 1


def is_label(text: str) -> bool:
    """Whether ``text`` can be a game name or strategy label in a game file.

    It must be one word there: not empty, with no whitespace (which covers
    every line break) and no ``#``, which starts a comment.
    """
    return isinstance(text, str) and text.split() == [text] and "#" not in text


class Side(StrEnum):
    ROW = "row"
    COL = "col"

    @property
    def opposite(self) -> "Side":
        return _OPPOSITE[self]


# Read on every match, bound once: on Python 3.11 the enum metaclass
# defines ``__getattr__``, so a ``Side.ROW`` read is slow.
_ROW, _COL = Side.ROW, Side.COL
_OPPOSITE = {_ROW: _COL, _COL: _ROW}


@dataclass(frozen=True, eq=False)
class GameTable:
    """Immutable payoff table with optional strategy labels.

    The name and every label are one word without ``#`` (``is_label``), so
    that ``serialize_game`` writes a file ``parse_game`` reads back.

    ``symmetric_flag`` is a declaration, checked at construction: a symmetric
    table must be square and antisymmetric (``entries[i][j] == -entries[j][i]``,
    so the diagonal is all zero).  Asymmetric tables carry no such constraint;
    in particular a strategy may beat its own mirror there.

    ``rows`` and ``cols``, the strategy counts of the two seats, are plain
    ints set at construction.
    """

    name: str
    entries: np.ndarray
    symmetric_flag: bool = False
    labels_rows: tuple[str, ...] | None = None
    labels_cols: tuple[str, ...] | None = None

    def __post_init__(self, held: bool = False):
        raw = np.asarray(self.entries)
        if raw.ndim != 2:
            raise InvariantError("game table must be two-dimensional")
        nr, nc = raw.shape
        if nr < 1 or nc < 1:
            raise InvariantError("game table needs at least one strategy per side")
        if nr > MAX_STRATEGIES or nc > MAX_STRATEGIES:
            raise InvariantError(
                f"table exceeds the {MAX_STRATEGIES}-strategies-per-side limit"
            )
        # Checked a block of rows at a time, so no full-size mask is built,
        # and before the cast, which would wrap 256 to 0 and cut 0.5 to 0.
        # A held array (``_holding``) is kept, any other copied.
        blocks = row_blocks(nr, nc)
        arr = raw if held else np.empty((nr, nc), dtype=np.int8)
        for start, stop in blocks:
            block = raw[start:stop]
            if not ((block == -1) | (block == 0) | (block == 1)).all():
                raise InvariantError("entries must be -1, 0 or +1")
            if not held:
                arr[start:stop] = block
        # Kept as tuples, so a caller's list cannot relabel the table later.
        for field in ("labels_rows", "labels_cols"):
            if getattr(self, field) is not None:
                object.__setattr__(self, field, tuple(getattr(self, field)))
        if self.labels_rows is not None and len(self.labels_rows) != nr:
            raise InvariantError("labels_rows length does not match row count")
        if self.labels_cols is not None and len(self.labels_cols) != nc:
            raise InvariantError("labels_cols length does not match column count")
        for word in (self.name, *(self.labels_rows or ()), *(self.labels_cols or ())):
            if not is_label(word):
                raise InvariantError(
                    f"name or label {word!r} must be one word with no '#'"
                )
        if self.symmetric_flag:
            if nr != nc:
                raise InvariantError("symmetric table must be square")
            # Each block of rows against its mirror from the diagonal on,
            # which covers every pair once.
            for start, stop in blocks:
                rows = arr[start:stop, start:]
                if (rows != -arr[start:, start:stop].T).any():
                    raise InvariantError("symmetric table must be antisymmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "rows", nr)
        object.__setattr__(self, "cols", nc)
        # (seat, opponent index) -> best reply, filled by ``dsl.evaluate``
        # as its ``bestresp`` frames ask: at most rows + cols entries, and
        # dropped with the table.
        object.__setattr__(self, "_replies", {})
        # (target text, seat, adversary text) -> a finished ``sim`` run,
        # kept by ``dsl.evaluate``: at most ``dsl._SIM_MEMO_SIZE`` entries,
        # and dropped with the table.
        object.__setattr__(self, "_sims", {})

    @classmethod
    def _holding(cls, name, entries, symmetric_flag, labels_rows, labels_cols):
        """A table that keeps ``entries`` itself, made read-only, after every
        check the constructor makes: for an int8 array just built, which
        nothing else holds, so it needs no copy."""
        table = object.__new__(cls)
        vars(table).update(
            name=name, entries=entries, symmetric_flag=symmetric_flag,
            labels_rows=labels_rows, labels_cols=labels_cols,
        )
        table.__post_init__(held=True)
        return table

    def __reduce__(self):
        # Copies and pickles go through the constructor, so their entries
        # are read-only too, which a copied array would not be.  Their memos
        # start empty.
        return (type(self), (
            self.name, self.entries, self.symmetric_flag,
            self.labels_rows, self.labels_cols,
        ))

    def row_name(self, i: int) -> str:
        """Label of 1-based row ``i`` if the table has labels, else the index."""
        if self.labels_rows is not None:
            return self.labels_rows[i - 1]
        return str(i)

    def col_name(self, j: int) -> str:
        if self.labels_cols is not None:
            return self.labels_cols[j - 1]
        return str(j)

    def side_count(self, side: Side) -> int:
        return self.rows if side is _ROW else self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, GameTable):
            return NotImplemented
        return (
            self.name == other.name
            and self.symmetric_flag == other.symmetric_flag
            and self.labels_rows == other.labels_rows
            and self.labels_cols == other.labels_cols
            and np.array_equal(self.entries, other.entries)
        )

    __hash__ = None  # type: ignore[assignment]


# Outcome by cell value: a numpy cell hashes and compares as its int, and a
# dict read is cheaper than the enum's own lookup.
_OUTCOMES = {int(member): member for member in Outcome}


def outcome(table: GameTable, i: int, j: int) -> Outcome:
    """Payoff to the first player when row ``i`` meets column ``j`` (1-based)."""
    if not 1 <= i <= table.rows:
        raise IndexError(f"row index {i} out of range 1..{table.rows}")
    if not 1 <= j <= table.cols:
        raise IndexError(f"column index {j} out of range 1..{table.cols}")
    return _OUTCOMES[table.entries[i - 1, j - 1]]


def role_swapped(table: GameTable) -> GameTable:
    """The same pairings scored for the opposing player (every payoff negated).

    For a symmetric game this equals transposing the matrix, so a game summed
    with its role-swapped mirror cancels to the all-draw table.
    """
    return GameTable(
        name=f"{table.name}-swapped",
        entries=-np.asarray(table.entries, dtype=np.int8),
        symmetric_flag=table.symmetric_flag,
        labels_rows=table.labels_rows,
        labels_cols=table.labels_cols,
    )


def parse_game(text: str) -> GameTable:
    """Parse the plain-text game format.

    ::

        game <name>
        symmetric <true|false>
        rows <n> cols <m>
        labels_rows <l1> ... <ln>      (optional)
        labels_cols <l1> ... <lm>      (optional)
        row 1: <e1> ... <em>
        ...

    Entries are ``-1 0 +1`` or the aliases ``l d w``, split as ``str.split``
    splits.  ``#`` starts a comment.  Lines are read by ``content_lines``,
    a block of payoff rows at a time, so no list of every line is kept.
    Row heads are checked line by line and the row bodies decoded as bytes;
    a block with a bad row is checked token by token to report the first
    error's line.
    """
    lines = content_lines(text, "#")
    ahead = list(islice(lines, 1))  # the next line, none at the end

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal ahead
        if not ahead:
            raise ParseError(f"unexpected end of input, expected '{expected}'")
        lineno, content = ahead[0]
        parts = content.split()
        if parts[0] != expected:
            raise ParseError(f"expected '{expected}', got '{parts[0]}'", line=lineno)
        ahead = list(islice(lines, 1))
        return lineno, parts[1:]

    lineno, rest = take("game")
    if len(rest) != 1:
        raise ParseError("'game' takes exactly one name token", line=lineno)
    name = rest[0]

    lineno, rest = take("symmetric")
    if len(rest) != 1 or rest[0] not in ("true", "false"):
        raise ParseError("'symmetric' must be 'true' or 'false'", line=lineno)
    symmetric = rest[0] == "true"

    lineno, rest = take("rows")
    if len(rest) != 3 or rest[1] != "cols":
        raise ParseError("expected 'rows <n> cols <m>'", line=lineno)
    digits = [count.removeprefix("-") for count in rest[::2]]
    if not all(count.isascii() and count.isdigit() for count in digits):
        raise ParseError("row and column counts must be integers", line=lineno)
    nr, nc = _read_count(rest[0]), _read_count(rest[2])
    if nr < 1 or nc < 1:
        raise ParseError("row and column counts must be positive", line=lineno)
    if nr > MAX_STRATEGIES or nc > MAX_STRATEGIES:
        raise ParseError(
            f"table exceeds the {MAX_STRATEGIES}-strategies-per-side limit", line=lineno
        )

    labels = {}
    for keyword, count in (("labels_rows", nr), ("labels_cols", nc)):
        if ahead and ahead[0][1].split()[0] == keyword:
            lineno, rest = take(keyword)
            if len(rest) != count:
                raise ParseError(f"{keyword} needs exactly {count} labels", line=lineno)
            labels[keyword] = tuple(rest)

    entries = np.empty((nr, nc), dtype=np.int8)
    rows = chain(ahead, lines)
    for start, stop in row_blocks(nr, nc):
        block = list(islice(rows, stop - start))
        entries[start:stop] = _payoff_rows(block, start, stop, nc)

    for lineno, _ in rows:  # any line left over
        raise ParseError("trailing content after last row", line=lineno)

    try:
        return GameTable._holding(
            name, entries, symmetric,
            labels.get("labels_rows"), labels.get("labels_cols"),
        )
    except InvariantError as exc:
        # Surface broken declarations (symmetric but not antisymmetric) as
        # such rather than as generic parse failures.
        raise InvariantError(f"{name}: {exc}") from None


def _read_count(token: str) -> int:
    """A count spelled ``-?<ASCII digits>``.  int() refuses strings of over
    4300 digits, leading zeros included, so only the significant digits are
    read, and a count with more of them than the limit's as one past it."""
    digits = token.removeprefix("-").lstrip("0") or "0"
    too_long = len(digits) > len(str(MAX_STRATEGIES))
    size = MAX_STRATEGIES + 1 if too_long else int(digits)
    return -size if token.startswith("-") else size


def _payoff_rows(
    rows: list[tuple[int, str]], start: int, stop: int, nc: int
) -> np.ndarray:
    """The entries of payoff rows ``start + 1`` to ``stop``: their heads
    checked line by line, their bodies decoded as bytes.  Any fault in them,
    or fewer of them, goes to ``_row_error`` to be worded."""
    heads = [content.split(None, 2) + [""] for _, content in rows]
    want = [["row", f"{i}:"] for i in range(start + 1, stop + 1)]
    if [head[:2] for head in heads] != want:
        _row_error(rows, start + 1, nc)
    text = "\n".join(head[2] for head in heads) + "\n"
    if not text.isascii():
        text = _WIDE_SPACE.sub(" ", text)
    data = np.frombuffer(text.encode(errors="surrogatepass"), dtype=np.uint8)
    space = ((data - 9) <= 4) | ((data - 28) <= 4)  # bytes 9-13 and 28-32
    # An entry ends where a space follows a byte that is none; the two bytes
    # before its end (wrapping round to the final "\n") give its spelling.
    ends = np.flatnonzero(space[1:] > space[:-1])
    tail, sign = data.take(ends), data.take(ends - 1)
    letter = (tail == ord("0")) | (tail == ord("d"))
    letter |= (tail == ord("w")) | (tail == ord("l"))
    letter &= space.take(ends - 1)
    signed = (tail == ord("1")) & space.take(ends - 2)
    signed &= (sign == ord("+")) | (sign == ord("-"))
    row_ends = np.searchsorted(ends, np.flatnonzero(data == ord("\n")))
    if not (
        np.array_equal(row_ends, np.arange(1, len(rows) + 1) * nc)
        and (letter | signed).all()
    ):
        _row_error(rows, start + 1, nc)
    values = (tail == ord("w")).view(np.int8) - (tail == ord("l")).view(np.int8)
    values += (ord(",") - sign.view(np.int8)) * signed  # "+" and "-" flank ","
    return values.reshape(len(rows), nc)


def _row_error(rows: list[tuple[int, str]], first: int, nc: int) -> NoReturn:
    """Raise the ParseError of the first bad payoff row among ``rows``,
    numbered from ``first``, or of the input ending before them."""
    for i, (lineno, content) in enumerate(rows, start=first):
        word, *rest = content.split()
        if word != "row":
            raise ParseError(f"expected 'row', got '{word}'", line=lineno)
        if not rest or rest[0] != f"{i}:":
            raise ParseError(f"expected 'row {i}:' next", line=lineno)
        if len(rest) != nc + 1:
            raise ParseError(f"row {i} needs exactly {nc} entries", line=lineno)
        bad = next((tok for tok in rest[1:] if tok not in _ENTRY_TOKENS), None)
        if bad is not None:
            raise ParseError(f"invalid entry '{bad}'", line=lineno)
    raise ParseError("unexpected end of input, expected 'row'")


def serialize_game(table: GameTable) -> str:
    """Canonical text form: fixed field order, single spaces, ``+1 0 -1`` spelling.

    ``parse_game`` composed with this function is the identity on canonical
    files, and byte-identical output is guaranteed for equal tables.  The
    payoff rows are written as one byte grid: each row's ``row <i>: `` head
    and three bytes per entry (sign, digit, space), with commas padding the
    heads to one width and standing for the sign of ``0``; one pass drops
    the commas.
    """
    out = [f"game {table.name}"]
    out.append(f"symmetric {'true' if table.symmetric_flag else 'false'}")
    out.append(f"rows {table.rows} cols {table.cols}")
    if table.labels_rows is not None:
        out.append("labels_rows " + " ".join(table.labels_rows))
    if table.labels_cols is not None:
        out.append("labels_cols " + " ".join(table.labels_cols))
    entries = table.entries
    width = len(f"row {table.rows}: ")
    heads = "".join(f"row {i}: ".ljust(width, ",") for i in range(1, table.rows + 1))
    grid = np.empty((table.rows, width + 3 * table.cols), dtype=np.uint8)
    grid[:, :width] = np.frombuffer(heads.encode(), dtype=np.uint8).reshape(-1, width)
    grid[:, width::3] = ord(",") - entries  # "+", ",", "-" for +1, 0, -1
    grid[:, width + 1::3] = ord("0") + np.abs(entries)
    grid[:, width + 2::3] = ord(" ")
    grid[:, -1] = ord("\n")
    body = grid.tobytes().replace(b",", b"").decode()
    return "\n".join(out) + "\n" + body


def table_cells(n_rows: int, n_cols: int) -> int:
    """Number of cells of a payoff table of the given shape; ValueError if
    the shape is not one a table can have."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("both dimensions must be at least 1")
    if n_rows > MAX_STRATEGIES or n_cols > MAX_STRATEGIES:
        raise ValueError(f"dimensions are capped at {MAX_STRATEGIES}")
    return n_rows * n_cols


def enumerate_game_count(n_rows: int, n_cols: int) -> int:
    """Number of distinct payoff tables of the given shape: each cell is
    independently -1, 0 or 1, so 3**cells."""
    return 3 ** table_cells(n_rows, n_cols)
