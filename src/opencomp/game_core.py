"""Finite two-player win/draw/loss games in normal form.

A game is a payoff table for the first player: entry ``+1`` means the first
player's strategy wins the pairing, ``-1`` that it loses, ``0`` a draw.  A
table flagged symmetric describes a game where both players draw strategies
from the same set; its matrix must be antisymmetric with a zero diagonal.

Strategy indices are 1-based everywhere a human sees them (files, reports,
function arguments); the numpy array underneath is 0-based as usual.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import InvariantError, ParseError

MAX_STRATEGIES = 10_000

_ENTRY_TOKENS = {"+1": 1, "0": 0, "-1": -1, "w": 1, "d": 0, "l": -1}


class Outcome(IntEnum):
    """Result of one strategy pairing, seen from the first player."""

    LOSS = -1
    DRAW = 0
    WIN = 1


def is_label(text: str) -> bool:
    """Whether ``text`` can be a game name or strategy label in a game file.

    It must be one word there: not empty, with no whitespace (which covers
    every line break) and no ``#``, which starts a comment.
    """
    return isinstance(text, str) and text.split() == [text] and "#" not in text


class Side(str, Enum):
    ROW = "row"
    COL = "col"

    @property
    def opposite(self) -> "Side":
        return Side.COL if self is Side.ROW else Side.ROW


@dataclass(frozen=True, eq=False)
class GameTable:
    """Immutable payoff table with optional strategy labels.

    The name and every label are one word without ``#`` (``is_label``), so
    that ``serialize_game`` writes a file ``parse_game`` reads back.

    ``symmetric_flag`` is a declaration, checked at construction: a symmetric
    table must be square and antisymmetric (``entries[i][j] == -entries[j][i]``,
    so the diagonal is all zero).  Asymmetric tables carry no such constraint;
    in particular a strategy may beat its own mirror there.
    """

    name: str
    entries: np.ndarray
    symmetric_flag: bool = False
    labels_rows: tuple[str, ...] | None = None
    labels_cols: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.int8)
        if arr.ndim != 2:
            raise InvariantError("game table must be two-dimensional")
        nr, nc = arr.shape
        if nr < 1 or nc < 1:
            raise InvariantError("game table needs at least one strategy per side")
        if nr > MAX_STRATEGIES or nc > MAX_STRATEGIES:
            raise InvariantError(
                f"table exceeds the {MAX_STRATEGIES}-strategies-per-side limit"
            )
        if not np.isin(arr, (-1, 0, 1)).all():
            raise InvariantError("entries must be -1, 0 or +1")
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
            if (arr != -arr.T).any():
                raise InvariantError("symmetric table must be antisymmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return int(self.entries.shape[0])

    @property
    def cols(self) -> int:
        return int(self.entries.shape[1])

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
        return self.rows if side is Side.ROW else self.cols

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


def outcome(table: GameTable, i: int, j: int) -> Outcome:
    """Payoff to the first player when row ``i`` meets column ``j`` (1-based)."""
    if not 1 <= i <= table.rows:
        raise IndexError(f"row index {i} out of range 1..{table.rows}")
    if not 1 <= j <= table.cols:
        raise IndexError(f"column index {j} out of range 1..{table.cols}")
    return Outcome(int(table.entries[i - 1, j - 1]))


def is_symmetric(table: GameTable) -> bool:
    """Whether the matrix itself is square and antisymmetric (ignores the flag)."""
    if table.rows != table.cols:
        return False
    return bool((table.entries == -table.entries.T).all())


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

    Entries are ``-1 0 +1`` or the aliases ``l d w``.  ``#`` starts a comment.
    """
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    pos = 0

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of input, expected '{expected}'")
        lineno, content = lines[pos]
        parts = content.split()
        if parts[0] != expected:
            raise ParseError(f"expected '{expected}', got '{parts[0]}'", line=lineno)
        pos += 1
        return lineno, parts[1:]

    def peek_keyword() -> str | None:
        if pos >= len(lines):
            return None
        return lines[pos][1].split()[0]

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
    nr, nc = int(rest[0]), int(rest[2])
    if nr < 1 or nc < 1:
        raise ParseError("row and column counts must be positive", line=lineno)
    if nr > MAX_STRATEGIES or nc > MAX_STRATEGIES:
        raise ParseError(
            f"table exceeds the {MAX_STRATEGIES}-strategies-per-side limit", line=lineno
        )

    labels_rows = labels_cols = None
    if peek_keyword() == "labels_rows":
        lineno, rest = take("labels_rows")
        if len(rest) != nr:
            raise ParseError(f"labels_rows needs exactly {nr} labels", line=lineno)
        labels_rows = tuple(rest)
    if peek_keyword() == "labels_cols":
        lineno, rest = take("labels_cols")
        if len(rest) != nc:
            raise ParseError(f"labels_cols needs exactly {nc} labels", line=lineno)
        labels_cols = tuple(rest)

    entries = np.zeros((nr, nc), dtype=np.int8)
    for i in range(1, nr + 1):
        lineno, rest = take("row")
        if len(rest) < 1 or rest[0] != f"{i}:":
            raise ParseError(f"expected 'row {i}:' next", line=lineno)
        cells = rest[1:]
        if len(cells) != nc:
            raise ParseError(f"row {i} needs exactly {nc} entries", line=lineno)
        values = list(map(_ENTRY_TOKENS.get, cells))
        if None in values:
            bad = next(tok for tok in cells if tok not in _ENTRY_TOKENS)
            raise ParseError(f"invalid entry '{bad}'", line=lineno)
        entries[i - 1] = values

    if pos < len(lines):
        raise ParseError("trailing content after last row", line=lines[pos][0])

    try:
        return GameTable(
            name=name,
            entries=entries,
            symmetric_flag=symmetric,
            labels_rows=labels_rows,
            labels_cols=labels_cols,
        )
    except InvariantError as exc:
        # Surface broken declarations (symmetric but not antisymmetric) as
        # such rather than as generic parse failures.
        raise InvariantError(f"{name}: {exc}") from None


def serialize_game(table: GameTable) -> str:
    """Canonical text form: fixed field order, single spaces, ``+1 0 -1`` spelling.

    ``parse_game`` composed with this function is the identity on canonical
    files, and byte-identical output is guaranteed for equal tables.
    """
    out = [f"game {table.name}"]
    out.append(f"symmetric {'true' if table.symmetric_flag else 'false'}")
    out.append(f"rows {table.rows} cols {table.cols}")
    if table.labels_rows is not None:
        out.append("labels_rows " + " ".join(table.labels_rows))
    if table.labels_cols is not None:
        out.append("labels_cols " + " ".join(table.labels_cols))
    letters = (table.entries + ord("b")).astype(np.uint8)  # a, b, c: -1, 0, +1
    for i, row in enumerate(letters, start=1):
        cells = " ".join(row.tobytes().decode()).replace("a", "-1")
        out.append(f"row {i}: " + cells.replace("b", "0").replace("c", "+1"))
    return "\n".join(out) + "\n"


def enumerate_game_count(n_rows: int, n_cols: int) -> int:
    """Number of distinct payoff tables of the given shape: each cell is
    independently -1, 0 or 1, so 3**cells."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("both dimensions must be at least 1")
    if n_rows > MAX_STRATEGIES or n_cols > MAX_STRATEGIES:
        raise ValueError(f"dimensions are capped at {MAX_STRATEGIES}")
    return 3 ** (n_rows * n_cols)
