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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game_core import GameTable


@dataclass(frozen=True)
class MixedStrategy:
    """A probability vector over one side's strategies."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
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
        object.__setattr__(self, "weights", weights)

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
    payoff = game.entries.astype(np.float64)
    best_vs_p2 = float(np.max(payoff @ p2.weights))
    worst_vs_p1 = float(np.min(p1.weights @ payoff))
    return max(0.0, best_vs_p2 - worst_vs_p1)


@dataclass(frozen=True)
class FictitiousPlayResult:
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
