"""Test-only oracle: the game-side readers and searches as they used to run.

``parse_crosstable``, ``to_game``, ``parse_game``, ``serialize_game`` and
``find_cycles`` are copied verbatim from the versions that looped over every
cell in Python, before whole-row and whole-table numpy operations replaced
those loops.  ``is_strongly_intransitive`` is copied verbatim from the
version that took one ``argmax`` per row and per column, and
``find_cycles_walk`` is the recursive walk over per-strategy successor
arrays that the bit-packed cycle listing replaced, renamed only.
``is_symmetric``, which they call, moved here verbatim from ``game_core``,
where nothing called it once ``find_cycles`` trusted the table's flag.
``fictitious_play`` is copied verbatim from the version that played one
round of numpy calls at a time, before whole runs of equal replies were
taken at once.  One rule changed since the copies were made, and the
oracle with it: ``parse_crosstable`` and ``parse_game`` end lines only at
``"\\n"``, where they used to split with ``str.splitlines``.  Tests compare
the library's functions against them on outputs, exception types, messages
and line numbers, and against the walk's memory peak.  Like the brute-force
oracles in ``conftest.py`` they are kept for reference and are deliberately
not optimised.
"""
from __future__ import annotations

import math

import numpy as np

from opencomp.crosstable import Crosstable
from opencomp.errors import (
    ComplementarityViolation, InvariantError, NotSymmetricError, ParseError,
)
from opencomp.classify import SIWitnesses
from opencomp.game_core import MAX_STRATEGIES, GameTable
from opencomp.mixed import FictitiousPlayResult, MixedStrategy

_COMPLEMENT_TOL = 1e-6
_ENTRY_TOKENS = {"+1": 1, "0": 0, "-1": -1, "w": 1, "d": 0, "l": -1}
_ENTRY_TEXT = {1: "+1", 0: "0", -1: "-1"}


def parse_crosstable(text: str) -> Crosstable:
    """Parse the CSV-ish crosstable format; errors carry line numbers.

    Raises ComplementarityViolation when a pair's two scores are present
    and do not sum to 1 within tolerance.
    """
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise ParseError("empty crosstable")
    header = [cell.strip() for cell in lines[0].split(",")]
    if header[0] != "names" or len(header) < 2:
        raise ParseError("header must be 'names,<name>,...'", line=1)
    names = tuple(header[1:])
    if len(set(names)) != len(names):
        raise ParseError("duplicate names in header", line=1)
    n = len(names)
    if len(lines) != n + 1:
        raise ParseError(
            f"expected {n} score rows after the header, found {len(lines) - 1}"
        )

    scores = np.full((n, n), np.nan)
    for row, line in enumerate(lines[1:]):
        lineno = row + 2
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
                raise ParseError(
                    "diagonal cells must be empty", line=lineno
                )
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"bad score '{cell}'", line=lineno
                ) from None
            if not 0.0 <= value <= 1.0:
                raise ParseError(
                    f"score {value} outside [0, 1]", line=lineno
                )
            scores[row, col] = value

    for a in range(n):
        for b in range(a + 1, n):
            ab, ba = scores[a, b], scores[b, a]
            if not np.isnan(ab) and not np.isnan(ba):
                if abs(ab + ba - 1.0) > _COMPLEMENT_TOL:
                    raise ComplementarityViolation(
                        f"scores for {names[a]} vs {names[b]} sum to "
                        f"{ab + ba:.6f}, expected 1"
                    )
    return Crosstable(names=names, scores=scores)


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
    n = len(crosstable.names)
    entries = np.zeros((n, n), dtype=np.int8)
    for a in range(n):
        for b in range(a + 1, n):
            score = crosstable.scores[a, b]
            if np.isnan(score):
                other = crosstable.scores[b, a]
                if np.isnan(other):
                    continue
                score = 1.0 - other
            if score > 0.5 + margin:
                entry = 1
            elif score < 0.5 - margin:
                entry = -1
            else:
                entry = 0
            entries[a, b] = entry
            entries[b, a] = -entry
    return GameTable(
        name=name,
        entries=entries,
        symmetric_flag=True,
        labels_rows=crosstable.names,
        labels_cols=crosstable.names,
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
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
    try:
        nr, nc = int(rest[0]), int(rest[2])
    except ValueError:
        raise ParseError("row and column counts must be integers", line=lineno) from None
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
        for j, tok in enumerate(cells):
            if tok not in _ENTRY_TOKENS:
                raise ParseError(f"invalid entry '{tok}'", line=lineno)
            entries[i - 1, j] = _ENTRY_TOKENS[tok]

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
    for i in range(table.rows):
        cells = " ".join(_ENTRY_TEXT[int(v)] for v in table.entries[i])
        out.append(f"row {i + 1}: {cells}")
    return "\n".join(out) + "\n"


def is_symmetric(table: GameTable) -> bool:
    """Whether the matrix itself is square and antisymmetric (ignores the flag)."""
    if table.rows != table.cols:
        return False
    return bool((table.entries == -table.entries.T).all())


def find_cycles(table: GameTable, max_len: int = 3) -> list[tuple[int, ...]]:
    """Simple cycles of length at most ``max_len`` in the dominance digraph.

    Only defined for symmetric tables.  The digraph has an edge ``i -> j``
    when strategy ``j`` beats strategy ``i`` (arrows point from loser to
    winner).  Each cycle is reported once, rotated so its smallest index comes
    first, and the list is sorted by length then lexicographically.  Cycles
    shorter than 3 cannot exist under antisymmetry.
    """
    if max_len not in (3, 4, 5):
        raise ValueError("max_len must be 3, 4 or 5")
    if not (table.symmetric_flag and is_symmetric(table)):
        raise NotSymmetricError("cycle search needs a symmetric table")
    n = table.rows
    entries = table.entries
    # successors[i] = strategies that beat i, i.e. edges i -> j.
    successors = [
        [j for j in range(n) if entries[j, i] == 1] for i in range(n)
    ]
    cycles: list[tuple[int, ...]] = []

    def walk(start: int, path: list[int]):
        last = path[-1]
        for nxt in successors[last]:
            if nxt == start and len(path) >= 3:
                cycles.append(tuple(p + 1 for p in path))
            elif nxt > start and nxt not in path and len(path) < max_len:
                path.append(nxt)
                walk(start, path)
                path.pop()

    for start in range(n):
        walk(start, [start])
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def find_cycles_walk(table: GameTable, max_len: int = 3) -> list[tuple[int, ...]]:
    """Simple cycles of length at most ``max_len`` in the dominance digraph.

    Only defined for symmetric tables.  The digraph has an edge ``i -> j``
    when strategy ``j`` beats strategy ``i`` (arrows point from loser to
    winner).  Each cycle is reported once, rotated so its smallest index comes
    first, and the list is sorted by length then lexicographically.  Cycles
    shorter than 3 cannot exist under antisymmetry.
    """
    if max_len not in (3, 4, 5):
        raise ValueError("max_len must be 3, 4 or 5")
    if not (table.symmetric_flag and is_symmetric(table)):
        raise NotSymmetricError("cycle search needs a symmetric table")
    # beaten_by[i, j]: strategy j beats strategy i, the edge i -> j.
    beaten_by = table.entries.T == 1
    successors = [np.flatnonzero(row) for row in beaten_by]
    cycles: list[tuple[int, ...]] = []

    def walk(start: int, path: list[int]):
        last = path[-1]
        if len(path) >= 3 and beaten_by[last, start]:
            cycles.append(tuple(p + 1 for p in path))
        if len(path) < max_len:
            succ = successors[last]
            for nxt in succ[succ.searchsorted(start, "right"):].tolist():
                if nxt not in path:
                    path.append(nxt)
                    walk(start, path)
                    path.pop()

    for start in range(table.rows):
        walk(start, [start])
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def is_strongly_intransitive(table: GameTable) -> tuple[bool, SIWitnesses | None]:
    entries = table.entries
    row_loses = (entries == -1).any(axis=1)
    col_beaten = (entries == 1).any(axis=0)
    if not (row_loses.all() and col_beaten.all()):
        return False, None
    beats_row = {
        i + 1: int(np.argmax(entries[i] == -1)) + 1 for i in range(table.rows)
    }
    beats_col = {
        j + 1: int(np.argmax(entries[:, j] == 1)) + 1 for j in range(table.cols)
    }
    return True, SIWitnesses(beats_row, beats_col)


def fictitious_play(
    game: GameTable,
    iterations: int = 100_000,
    tol: float = 1e-2,
) -> FictitiousPlayResult:
    """Run simultaneous fictitious play and report the best profile seen.

    Both players start having played strategy 1 once.  Stops early when the
    empirical profile's exploitability drops to ``tol``; otherwise runs the
    full iteration count and reports the lowest-exploitability profile
    encountered, with ``converged`` False.  Deterministic throughout.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    if math.isnan(tol):
        raise ValueError("tol must be a number, not NaN")
    payoff = game.entries

    counts1 = np.zeros(game.rows, dtype=np.int64)
    counts2 = np.zeros(game.cols, dtype=np.int64)
    counts1[0] = counts2[0] = 1
    # Exact running totals: payoff @ counts2 and counts1 @ payoff.
    row_sums = payoff[:, 0].astype(np.int64)
    col_sums = payoff[0].astype(np.int64)

    best = None  # (exploitability, p1 counts, p2 counts, value)
    for t in range(1, iterations + 1):
        # Both counts sum to t: exact integers and one rounding each, so
        # equal gaps compare equal and an exactly even value reads as 0.
        gap = max(0.0, (int(row_sums.max()) - int(col_sums.min())) / t)
        if best is None or gap < best[0]:
            value = int(counts1 @ row_sums) / (t * t)
            best = (gap, counts1.copy(), counts2.copy(), value)
        if gap <= tol:
            break
        reply1 = int(np.argmax(row_sums))
        reply2 = int(np.argmin(col_sums))
        counts1[reply1] += 1
        counts2[reply2] += 1
        row_sums += payoff[:, reply2]
        col_sums += payoff[reply1]

    # The first gap within tol is below every earlier one, so it is the best.
    gap, counts1, counts2, value = best
    return FictitiousPlayResult(
        p1=MixedStrategy(counts1 / counts1.sum()),
        p2=MixedStrategy(counts2 / counts2.sum()),
        value=value,
        exploitability=gap,
        iterations=t,
        converged=gap <= tol,
    )
