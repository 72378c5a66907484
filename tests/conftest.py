"""Shared fixtures, independent oracles, and hypothesis strategies.

The oracles here are deliberately naive reimplementations (double loops,
full enumeration, simplex grids).  Tests compare the package's vectorized
or search-based answers against them.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from opencomp import GameTable, dsl

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def repo_root() -> Path:
    return REPO_ROOT


def pytest_collection_modifyitems(items):
    """Every test under ``tests/`` fails on any warning it leaves unhandled.

    The filter goes first, so a test's own ``filterwarnings`` marks still
    take precedence over it.
    """
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


def empty_parse_cache() -> None:
    """Empty the parse cache that every evaluation shares, so that parse
    counts start cold."""
    dsl._trees.clear()
    dsl._held = 0


# --------------------------------------------------------------------------
# Brute-force oracles


def brute_nash(table: GameTable) -> list[tuple[int, int]]:
    """Pure equilibrium cells by definition-chasing double loop, 1-based."""
    entries = table.entries
    cells = []
    for i in range(table.rows):
        for j in range(table.cols):
            value = entries[i, j]
            col_max = all(entries[k, j] <= value for k in range(table.rows))
            row_min = all(entries[i, l] >= value for l in range(table.cols))
            if col_max and row_min:
                cells.append((i + 1, j + 1))
    return cells


def brute_cycles(table: GameTable, max_len: int = 3) -> list[tuple[int, ...]]:
    """All beats-cycles up to max_len by checking every candidate tuple.

    Same canonical form as the library: the smallest index leads, cycles
    sorted by length then lexicographically.  Exponential, fine for n <= 7.
    """
    entries = table.entries
    n = table.rows

    def edge(i: int, j: int) -> bool:
        # i's strategy loses to j's: j beats i
        return entries[j, i] == 1

    found = []
    for length in range(3, max_len + 1):
        for combo in itertools.permutations(range(n), length):
            if combo[0] != min(combo):
                continue
            if all(
                edge(combo[k], combo[(k + 1) % length]) for k in range(length)
            ):
                found.append(tuple(c + 1 for c in combo))
    found.sort(key=lambda cyc: (len(cyc), cyc))
    return found


def brute_game_count(rows: int, cols: int) -> int:
    """Distinct payoff tables of one shape, by building every one of them."""
    tables = set()
    for cells in itertools.product((-1, 0, 1), repeat=rows * cols):
        tables.add(np.array(cells, dtype=np.int8).reshape(rows, cols).tobytes())
    return len(tables)


def grid_maxmin(table: GameTable, step: int = 100) -> float:
    """Maxmin value by grid search over row mixtures.

    ``step`` is the grid denominator: mixtures with weights k/step.  The
    inner minimum only needs pure columns.
    """
    payoff = table.entries.astype(np.float64)
    rows = table.rows
    best = -np.inf
    for split in itertools.combinations(range(step + rows - 1), rows - 1):
        counts = []
        prev = -1
        for cut in split:
            counts.append(cut - prev - 1)
            prev = cut
        counts.append(step + rows - 2 - prev)
        mix = np.array(counts, dtype=np.float64) / step
        worst = float(np.min(mix @ payoff))
        if worst > best:
            best = worst
    return best


def exact_fictitious_play(table: GameTable, iterations: int, tol: float):
    """Fictitious play by its documented rule, in exact rational arithmetic.

    Simultaneous play from strategy 1 on both sides, each reply the lowest
    index among the best responses to the opponent's empirical mixture, and
    the lowest-exploitability profile kept (the first of equals).  Returns
    ``(p1, p2, value, exploitability, iterations, converged)`` with the
    mixtures, value and exploitability as ``Fraction``s.
    """
    payoff = table.entries.tolist()
    counts1 = [1] + [0] * (table.rows - 1)
    counts2 = [1] + [0] * (table.cols - 1)
    best = None
    for t in range(1, iterations + 1):
        mix1 = [Fraction(c, t) for c in counts1]
        mix2 = [Fraction(c, t) for c in counts2]
        # payoff @ mix2 and mix1 @ payoff, each summed over the counts first
        vs_mix2 = [Fraction(sum(a * c for a, c in zip(row, counts2)), t)
                   for row in payoff]
        vs_mix1 = [Fraction(sum(c * row[j] for c, row in zip(counts1, payoff)), t)
                   for j in range(table.cols)]
        gap = max(Fraction(0), max(vs_mix2) - min(vs_mix1))
        if best is None or gap < best[3]:
            value = sum(w * v for w, v in zip(mix1, vs_mix2))
            best = (mix1, mix2, value, gap)
        if gap <= tol:
            return (*best, t, True)
        counts1[vs_mix2.index(max(vs_mix2))] += 1
        counts2[vs_mix1.index(min(vs_mix1))] += 1
    return (*best, iterations, False)


# --------------------------------------------------------------------------
# Hypothesis strategies


def entry_matrices(max_side: int = 6):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-1, 1), min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    )


def game_tables(max_side: int = 6):
    """Arbitrary tables, no symmetry promise."""
    return entry_matrices(max_side).map(
        lambda rows: GameTable(
            name="t", entries=np.array(rows, dtype=np.int8)
        )
    )


def symmetric_tables(max_side: int = 6):
    """Square antisymmetric tables carrying the symmetric flag."""

    def build(rows: list[list[int]]) -> GameTable:
        n = len(rows)
        entries = np.zeros((n, n), dtype=np.int8)
        for i in range(n):
            for j in range(i + 1, n):
                entries[i, j] = rows[i][j]
                entries[j, i] = -rows[i][j]
        return GameTable(name="s", entries=entries, symmetric_flag=True)

    return st.integers(1, max_side).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-1, 1), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ).map(build)


def random_table(rng: np.random.Generator, rows: int, cols: int) -> GameTable:
    entries = rng.integers(-1, 2, size=(rows, cols)).astype(np.int8)
    return GameTable(name="r", entries=entries)


def random_symmetric_table(rng: np.random.Generator, n: int) -> GameTable:
    upper = rng.integers(-1, 2, size=(n, n))
    entries = np.zeros((n, n), dtype=np.int8)
    iu = np.triu_indices(n, k=1)
    entries[iu] = upper[iu]
    entries.T[iu] = -upper[iu]
    return GameTable(name="rs", entries=entries, symmetric_flag=True)
