"""Composing a series of games into a single aggregate game.

A series is played between the same two rosters: strategy i for player 1 in
the aggregate commits to playing its row i in every constituent game, and
likewise for player 2.  The aggregate cell is the per-game outcome vector
squashed by an aggregation rule.  All constituent tables must have the same
shape on both sides.
"""
from __future__ import annotations

from enum import StrEnum
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatchError
from .game_core import GameTable


class Aggregator(StrEnum):
    """How a vector of win/draw/loss outcomes collapses to one outcome.

    SUM_SIGN: sign of the summed payoffs, which with payoffs in
    {-1, 0, +1} is also the majority of wins over losses.  LEX: the first
    non-draw game decides, all draws is a draw.
    """

    SUM_SIGN = "sum"
    LEX = "lex"


def compose_series(
    games: Sequence[GameTable] | Iterable[GameTable],
    aggregator: Aggregator | str = Aggregator.SUM_SIGN,
) -> GameTable:
    """Collapse games played in a fixed order into one table.

    A single-game series composes to a table with the input's entries
    unchanged, whatever the rule.  Raises ShapeMismatchError if the
    constituent tables disagree in shape, ValueError on an empty series.
    """
    aggregator = Aggregator(aggregator)
    games = list(games)
    if not games:
        raise ValueError("a series needs at least one game")
    if len(games) == 1:
        return games[0]
    rows, cols = games[0].rows, games[0].cols
    for game in games[1:]:
        if game.rows != rows or game.cols != cols:
            raise ShapeMismatchError(
                f"series games must share a shape: {rows}x{cols} vs "
                f"{game.rows}x{game.cols} ({game.name})"
            )

    if aggregator is Aggregator.LEX:
        # The first non-draw game decides: written last to first, each game
        # over the cells it does not draw.
        entries = np.zeros((rows, cols), dtype=np.int8)
        for game in reversed(games):
            np.copyto(entries, game.entries, where=game.entries != 0)
    else:
        # Summed in place; no series that fits in memory overflows int32.
        total = np.zeros((rows, cols), dtype=np.int32)
        for game in games:
            total += game.entries
        entries = np.sign(total, out=total).astype(np.int8)

    # Both rules are odd functions of the layers, so antisymmetric layers
    # give an antisymmetric result; GameTable checks it all the same.  The
    # array was just built, so the table keeps it.
    return GameTable._holding(
        "series-" + "-".join(game.name for game in games), entries,
        all(game.symmetric_flag for game in games),
        games[0].labels_rows, games[0].labels_cols,
    )
