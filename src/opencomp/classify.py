"""Structural classification of game tables.

Four mutually exclusive kinds, checked in order:

* ``StrictDomination``: some row wins every pairing.
* ``WeakDomination``: no strict dominator, but some row never loses.
* ``StronglyIntransitive``: every row loses somewhere and every column is
  beaten somewhere, so no strategy is safe and no pure equilibrium exists.
* ``Other``: none of the above.

Strict domination cannot occur in a symmetric game (the diagonal draws), which
is why the weak variant exists; for antisymmetric tables a weak dominator row
``d`` always yields the pure equilibrium cell ``(d, d)``.  That guarantee does
not extend to arbitrary asymmetric tables.
"""
from __future__ import annotations

from enum import StrEnum
from typing import NamedTuple

import numpy as np

from .errors import NotSymmetricError
from .game_core import GameTable, Side, row_blocks


class ClassKind(StrEnum):
    STRICT_DOMINATION = "StrictDomination"
    WEAK_DOMINATION = "WeakDomination"
    STRONGLY_INTRANSITIVE = "StronglyIntransitive"
    OTHER = "Other"


class NashCell(NamedTuple):
    i: int
    j: int


class SIWitnesses(NamedTuple):
    """Lowest-index witness maps for strong intransitivity.

    ``beats_row[i]`` is a column that defeats row ``i``; ``beats_col[j]`` is a
    row that defeats column ``j``.  Both maps are total when the table is
    strongly intransitive.
    """

    beats_row: dict[int, int]
    beats_col: dict[int, int]


class Classification(NamedTuple):
    kind: ClassKind
    dominator: int | None = None
    witnesses: SIWitnesses | None = None


def find_dominator(table: GameTable, strict: bool) -> int | None:
    """Lowest 1-based row that wins everywhere (strict) or never loses."""
    idx = np.flatnonzero(table.entries.min(axis=1) >= (1 if strict else 0))
    return int(idx[0]) + 1 if idx.size else None


def is_strongly_intransitive(table: GameTable) -> tuple[bool, SIWitnesses | None]:
    entries = table.entries
    if not ((entries.min(axis=1) == -1).all() and (entries.max(axis=0) == 1).all()):
        return False, None
    beats_row = dict(enumerate(_first_index(entries, -1), 1))
    # Antisymmetry: row i beats column j just where row j loses to column i.
    beats_col = beats_row.copy() if table.symmetric_flag else dict(
        enumerate(_first_index(entries.T, 1), 1))
    return True, SIWitnesses(beats_row, beats_col)


def _first_index(lines: np.ndarray, value: int) -> list[int]:
    """The 1-based index of the first ``value`` in each row of ``lines``
    (1 where it has none), found a block of rows at a time, so no mask of
    the whole table is built."""
    firsts = [np.argmax(lines[start:stop] == value, axis=1)
              for start, stop in row_blocks(*lines.shape)]
    return (np.concatenate(firsts) + 1).tolist()


def classify(table: GameTable) -> Classification:
    d = find_dominator(table, strict=True)
    if d is not None:
        return Classification(ClassKind.STRICT_DOMINATION, dominator=d)
    d = find_dominator(table, strict=False)
    if d is not None:
        return Classification(ClassKind.WEAK_DOMINATION, dominator=d)
    si, witnesses = is_strongly_intransitive(table)
    if si:
        return Classification(ClassKind.STRONGLY_INTRANSITIVE, witnesses=witnesses)
    return Classification(ClassKind.OTHER)


def pure_nash(table: GameTable) -> list[NashCell]:
    """All cells that are simultaneously a column maximum and a row minimum.

    Returned in lexicographic (row-major) order, 1-based.
    """
    entries = table.entries
    col_max, row_min = entries.max(axis=0), entries.min(axis=1)
    rows = np.flatnonzero(np.isin(row_min, col_max))  # rows that can hold a cell
    found = entries[rows]
    hits = np.argwhere((found == col_max) & (found == row_min[rows, None]))
    return [NashCell(int(rows[i]) + 1, int(j) + 1) for i, j in hits]


def best_response(table: GameTable, side: Side, opponent_strategy: int) -> int:
    """Best reply for ``side`` against a known opposing strategy index.

    The row side maximizes the payoff down the opponent's column, the column
    side minimizes across the opponent's row.  This is total: a win if one
    exists, otherwise the best draw, otherwise the least bad loss.  Ties break
    to the lowest index.
    """
    side = Side(side)
    count = table.cols if side is Side.ROW else table.rows
    if not 1 <= opponent_strategy <= count:
        raise IndexError(
            f"opponent strategy {opponent_strategy} out of range 1..{count}"
        )
    if side is Side.ROW:
        return int(np.argmax(table.entries[:, opponent_strategy - 1])) + 1
    return int(np.argmin(table.entries[opponent_strategy - 1, :])) + 1


def find_cycles(table: GameTable, max_len: int = 3) -> list[tuple[int, ...]]:
    """Simple cycles of length at most ``max_len`` in the dominance digraph.

    Only defined for symmetric tables.  The digraph has an edge ``i -> j``
    when strategy ``j`` beats strategy ``i`` (arrows point from loser to
    winner).  Each cycle is reported once, rotated so its smallest index comes
    first, and the list is sorted by length then lexicographically.  Cycles
    shorter than 3 cannot exist under antisymmetry.

    Paths that climb from their smallest node are grown one node at a time,
    a block of paths at once, on bit-packed rows of the digraph; a k-cycle is
    a path of k - 1 nodes that one more edge leads back to its start.  Blocks
    are grown depth first, so each length comes out in lexicographic order
    and the list needs no sort.
    """
    if max_len not in (3, 4, 5):
        raise ValueError("max_len must be 3, 4 or 5")
    # Antisymmetry is also why no path needs a check for repeated nodes: a
    # path of at most 5 nodes that closes a cycle and rises above its start
    # could only repeat a node by taking an edge in both directions.
    if not table.symmetric_flag:
        raise NotSymmetricError("cycle search needs a symmetric table")
    n = table.rows
    # Row i of each: the edges i -> j to the strategies j that beat i, which
    # antisymmetry puts where row i loses; the nodes j > i; and the edges
    # j -> i back to i from those.
    successors = np.packbits(table.entries == -1, axis=1)
    later = np.packbits(~np.tri(n, dtype=bool), axis=1)
    closes = np.packbits(table.entries == 1, axis=1) & later
    packed = (successors, later, closes)
    found = {length: [] for length in range(3, max_len + 1)}
    _grow(np.arange(n)[:, None], max_len, packed, found)
    cycles = found[3]
    for length in range(4, max_len + 1):
        cycles.extend(found[length])
    return cycles


# A block holds at most this many paths times strategies, which bounds the
# packed temporaries of one step and the paths one block grows into, however
# many paths a table has.
_BLOCK_CELLS = 1 << 17


def _grow(
    paths: np.ndarray,
    max_len: int,
    packed: tuple[np.ndarray, np.ndarray, np.ndarray],
    found: dict[int, list[tuple[int, ...]]],
) -> None:
    """Append each k-cycle that continues one of ``paths`` (all of one
    length, in lexicographic order) to ``found[k]``, in order."""
    successors, later, closes = packed
    step = max(1, _BLOCK_CELLS // len(successors))
    for lo in range(0, len(paths), step):
        block = paths[lo:lo + step]
        nodes = block.shape[1]
        if nodes >= 2:
            cycles = _extend(block, successors, closes) + 1
            found[nodes + 1].extend(zip(*cycles.T.tolist()))
        if nodes < max_len - 1:
            _grow(_extend(block, successors, later), max_len, packed, found)


def _extend(paths: np.ndarray, successors: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each path followed by each node set in both its last node's packed
    ``successors`` row and its first node's packed ``mask`` row, in
    row-major order."""
    bits = successors[paths[:, -1]] & mask[paths[:, 0]]
    row, byte = np.nonzero(bits)
    hit, bit = np.nonzero(np.unpackbits(bits[row, byte][:, None], axis=1))
    return np.column_stack((paths[row[hit]], byte[hit] * 8 + bit))


def render_classification(table: GameTable, result: Classification) -> str:
    """Stable textual report used by the command-line front end."""
    lines = [f"game={table.name}"]
    lines.append(f"classification={result.kind}")
    lines.append(f"dominator={result.dominator if result.dominator else 'none'}")
    if result.witnesses is not None:
        for i in sorted(result.witnesses.beats_row):
            j = result.witnesses.beats_row[i]
            lines.append(f"witness row {table.row_name(i)} -> {table.col_name(j)}")
        for j in sorted(result.witnesses.beats_col):
            i = result.witnesses.beats_col[j]
            lines.append(f"witness col {table.col_name(j)} -> {table.row_name(i)}")
    return "\n".join(lines) + "\n"


def render_cycles(table: GameTable, cycles: list[tuple[int, ...]]) -> str:
    lines = [f"game={table.name}", f"cycles={len(cycles)}"]
    for cyc in cycles:
        names = [table.row_name(i) for i in cyc]
        names.append(table.row_name(cyc[0]))
        lines.append("cycle: " + " -> ".join(names))
    return "\n".join(lines) + "\n"
