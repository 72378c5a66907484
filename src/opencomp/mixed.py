"""Mixed strategies and fictitious play for win/draw/loss tables.

Fictitious play here is the simultaneous, deterministic variant: each round
both players best-respond to the opponent's empirical mixture so far, ties
broken toward the lowest index, and both counts update at once.  The
payoffs against the mixtures are kept as exact integer sums, so tied
replies are equal and go to the lowest index exactly, never to whichever
one rounding favours.  For zero-sum games the empirical mixtures approach
the maxmin value; the per-round play itself may cycle forever
(rock-paper-scissors famously does), which is exactly the behavior the
intransitive examples lean on.

Play is not stepped a round at a time but a run of rounds at a time: while
both replies stay the same, the sums move by fixed steps, so the round at
which a rival reply takes over is solved for in integers, and the gap never
rises within the run, so its best round and its first round within the
tolerance are found by bisection.  A run costs a few numpy calls over one
row and one column, and runs are few: 316 in 100,000 rounds of
rock-paper-scissors.
"""
from __future__ import annotations

import bisect
import math
import operator
from typing import NamedTuple

import numpy as np

from .frozen import Frozen, _set
from .game_core import GameTable, row_blocks


class MixedStrategy(Frozen):
    """A probability vector over one side's strategies."""

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if np.any(weights < -1e-12):
            raise ValueError("weights must be non-negative")
        total = float(weights.sum())
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"weights must sum to 1, got {total}")
        weights = np.clip(weights, 0.0, None)
        weights = weights / weights.sum()
        weights.setflags(write=False)
        _set(self, "weights", weights)

    @staticmethod
    def uniform(n: int) -> "MixedStrategy":
        if n < 1:
            raise ValueError("a uniform mixture needs at least one strategy")
        return MixedStrategy(np.full(n, 1.0 / n))

    @staticmethod
    def pure(n: int, strategy: int) -> "MixedStrategy":
        """Point mass on a 1-based strategy index."""
        if not 1 <= strategy <= n:
            raise IndexError(f"strategy {strategy} out of range 1..{n}")
        weights = np.zeros(n)
        weights[strategy - 1] = 1.0
        return MixedStrategy(weights)


def exploitability(game: GameTable, p1: MixedStrategy, p2: MixedStrategy) -> float:
    """How far the profile is from mutual best response, never negative.

    Sum of what each player could gain by deviating to a best pure response.
    Zero exactly at an equilibrium of the zero-sum game.
    """
    if p1.weights.size != game.rows or p2.weights.size != game.cols:
        raise ValueError("mixture sizes must match the table")
    # A block of rows at a time, in float64: 8 bytes a cell of one block.
    best_vs_p2, vs_p1 = -np.inf, np.zeros(game.cols)
    for start, stop in row_blocks(game.rows, 8 * game.cols):
        payoff = game.entries[start:stop].astype(np.float64)
        best_vs_p2 = max(best_vs_p2, float(np.max(payoff @ p2.weights)))
        vs_p1 += p1.weights[start:stop] @ payoff
    return max(0.0, best_vs_p2 - float(np.min(vs_p1)))


class FictitiousPlayResult(NamedTuple):
    p1: MixedStrategy
    p2: MixedStrategy
    value: float
    exploitability: float
    iterations: int
    converged: bool


def fictitious_play(
    game: GameTable,
    iterations: int = 100_000,
    tol: float = 1e-2,
) -> FictitiousPlayResult:
    """Run simultaneous fictitious play and report the best profile seen.

    Both players start having played strategy 1 once.  Stops early when the
    empirical profile's exploitability drops to ``tol``; otherwise runs the
    full iteration count and reports the lowest-exploitability profile
    encountered, with ``converged`` False.  Deterministic throughout.  The
    cost grows with the number of runs of equal replies, not of rounds.
    ``iterations`` is at most 2**63 - 2, the most that bisection can index.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    iterations = operator.index(iterations)
    if iterations > 2**63 - 2:  # range(iterations + 1) must fit a C ssize_t
        raise ValueError(f"iterations must be at most {2**63 - 2}")
    if math.isnan(tol):
        raise ValueError("tol must be a number, not NaN")
    payoff = game.entries

    counts1 = np.zeros(game.rows, dtype=np.int64)
    counts2 = np.zeros(game.cols, dtype=np.int64)
    counts1[0] = counts2[0] = 1
    # Exact running totals: payoff @ counts2 and counts1 @ payoff.
    row_sums = payoff[:, 0].astype(np.int64)
    col_sums = payoff[0].astype(np.int64)

    t, best = 1, None  # (exploitability, round, p1 counts, p2 counts, row sums)
    while t <= iterations and (best is None or best[0] > tol):
        # One run: rounds t to stop - 1, all with the same two replies.
        # Through it the top row sum and the bottom column sum both move by
        # payoff[reply1, reply2] a round, so the gap's numerator is fixed and
        # the gap, numerator / round, never rises: the run's best round is
        # its last, or its first within tol, which ends the play.
        reply1, reply2 = int(np.argmax(row_sums)), int(np.argmin(col_sums))
        column = payoff[:, reply2].astype(np.int64)
        row = payoff[reply1].astype(np.int64)
        length = _held(row_sums, column, reply1, iterations + 1 - t)
        stop = t + _held(-col_sums, -row, reply2, length)
        numerator = int(row_sums[reply1]) - int(col_sums[reply2])
        stop = min(stop, _first_within(numerator, t, stop, tol) + 1)
        # Exact integers and one rounding, so equal gaps compare equal.
        gap = numerator / (stop - 1)
        if best is None or gap < best[0]:
            # The first round with that gap: rounding can give a few.
            at = _first_within(numerator, t, stop, gap)
            p1, p2 = counts1.copy(), counts2.copy()
            p1[reply1] += at - t
            p2[reply2] += at - t
            best = (gap, at, p1, p2, row_sums + (at - t) * column)
        counts1[reply1] += stop - t
        counts2[reply2] += stop - t
        row_sums += (stop - t) * column
        col_sums += (stop - t) * row
        t = stop

    # The first gap within tol is below every earlier one, so it is the best.
    gap, t, counts1, counts2, row_sums = best
    converged = gap <= tol
    # counts1 @ row_sums in Python ints, which cannot overflow; an exactly
    # even value reads as 0.
    value = sum(map(operator.mul, counts1.tolist(), row_sums.tolist())) / (t * t)
    return FictitiousPlayResult(
        p1=MixedStrategy(counts1 / counts1.sum()),
        p2=MixedStrategy(counts2 / counts2.sum()),
        value=value,
        exploitability=gap,
        iterations=t if converged else iterations,
        converged=converged,
    )


def _held(sums: np.ndarray, gains: np.ndarray, reply: int, rounds: int) -> int:
    """Rounds, at most ``rounds``, for which ``reply`` stays the first
    maximum of ``sums`` while every round adds ``gains`` to them.

    A rival d behind that gains r > 0 a round takes over after ceil(d / r)
    rounds if it comes before ``reply``, since ties go to the lower index,
    and after ceil((d + 1) / r) if it comes after.
    """
    trail = sums - sums[reply]
    trail[reply + 1:] -= 1
    rise = gains - gains[reply]
    gaining = rise > 0
    np.floor_divide(trail, rise, out=trail, where=gaining)
    return -int(trail.max(where=gaining, initial=-rounds))


def _first_within(numerator: int, start: int, stop: int, bound: float) -> int:
    """The first round t in ``start..stop - 1`` whose gap, numerator / t, is
    at most ``bound``, or ``stop`` if none is; the gap never rises with t."""
    return bisect.bisect_left(
        range(stop), -bound, start, key=lambda t: -(numerator / t)
    )
