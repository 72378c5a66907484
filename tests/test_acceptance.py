"""The sign-off suite.

One test per advertised capability, each printing a single verdict line and
holding itself to a wall-clock budget.  These are intentionally end-to-end:
they exercise the public api the way the examples do, with independent
oracles (brute-force scans, grid search, explicit enumeration) standing in
as referees wherever a number could silently drift.
"""
import time

import numpy as np

from conftest import brute_nash, grid_maxmin, random_symmetric_table, random_table
from opencomp import (
    ENGINES3_TEXT, Aggregator, ClassKind, MatchResult, Mode, OracleWinner,
    ProgramLearner, build_defiance, build_exploiter, catalog_learners,
    classify, compose_series, dice, enumerate_game_count, fictitious_play,
    find_cycles, ingest_crosstable, pennies, pure_nash, render_report,
    role_swapped, rps, run_match, run_tournament,
)


def _verdict(number: int, start: float, budget: float) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s"
    print(f"[criterion {number}] PASS ({elapsed:.2f}s)")


def test_criterion_1_bundled_classification():
    start = time.monotonic()

    result = classify(rps())
    assert result.kind is ClassKind.STRONGLY_INTRANSITIVE

    result = classify(dice())
    assert result.kind is ClassKind.WEAK_DOMINATION
    assert result.dominator == 6

    assert find_cycles(rps(), max_len=3) == [(1, 2, 3)]
    assert find_cycles(dice(), max_len=3) == []

    _verdict(1, start, 1.0)


def test_criterion_2_classification_equilibrium_link():
    start = time.monotonic()
    rng = np.random.default_rng(20260822)

    checked = 0
    for _ in range(600):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        game = random_table(rng, rows, cols)
        cells = [(c.i, c.j) for c in pure_nash(game)]
        assert cells == brute_nash(game)
        result = classify(game)
        if result.kind is ClassKind.STRONGLY_INTRANSITIVE:
            assert cells == []
        if result.kind is ClassKind.STRICT_DOMINATION:
            assert any(i == result.dominator for i, _ in cells)
        checked += 1

    # the weak-domination claim needs the symmetric setting: a weakly
    # dominating row of an antisymmetric table always pins a pure
    # equilibrium on the diagonal, which is false for arbitrary tables
    for _ in range(600):
        n = int(rng.integers(2, 9))
        game = random_symmetric_table(rng, n)
        cells = [(c.i, c.j) for c in pure_nash(game)]
        assert cells == brute_nash(game)
        result = classify(game)
        if result.kind is ClassKind.STRONGLY_INTRANSITIVE:
            assert cells == []
        if result.kind in (ClassKind.STRICT_DOMINATION, ClassKind.WEAK_DOMINATION):
            assert any(i == result.dominator for i, _ in cells)
        checked += 1

    assert checked >= 1000
    _verdict(2, start, 30.0)


def test_criterion_3_no_universal_winner():
    start = time.monotonic()
    game = rps()

    exploiter = build_exploiter()
    halting = ("const_rock", "const_paper", "const_scissors",
               "counter_rock", "pick_paper")
    assert len(halting) >= 5
    for rival in catalog_learners():
        if rival.name not in halting:
            continue
        match = run_match(game, exploiter, rival, fuel=2000)
        assert match.result is MatchResult.WIN1, rival.name

    fuel = 1000
    budgeted = build_exploiter("counter_exploiter", sim_budget=fuel)
    upset = run_match(
        game, budgeted, exploiter, fuel=10 * fuel, fuel2=fuel,
        mode=Mode.DEADLINE,
    )
    assert upset.result is MatchResult.WIN1

    report = run_tournament(game, catalog_learners(), fuel=2000, mode=Mode.STRICT)
    assert report.universal_winner is None
    assert render_report(report).rstrip().endswith("universal_winner=none")

    _verdict(3, start, 10.0)


def test_criterion_4_oracle_and_defiance():
    start = time.monotonic()
    game = rps()
    oracle = OracleWinner()

    spin = run_match(game, oracle, ProgramLearner("loop", "loop"), fuel=2000)
    assert spin.result is MatchResult.WIN1
    assert spin.side1.witness is not None  # the non-halting proof travels

    for name in ("const_rock", "const_paper", "const_scissors"):
        rival = ProgramLearner(name, dict(
            const_rock="const 1", const_paper="const 2", const_scissors="const 3",
        )[name])
        match = run_match(game, oracle, rival, fuel=2000)
        assert match.result is MatchResult.WIN1

    stall = run_match(game, oracle, build_defiance(), fuel=2000, mode=Mode.STRICT)
    assert stall.result is MatchResult.UNDECIDED

    grower = build_defiance("grow2")
    for rival in catalog_learners():
        match = run_match(game, rival, grower, fuel=2000, mode=Mode.STRICT)
        assert match.result is not MatchResult.WIN1, rival.name

    _verdict(4, start, 10.0)


def test_criterion_5_enumeration_bound():
    start = time.monotonic()
    shapes = [
        (r, c)
        for r in range(1, 10)
        for c in range(1, 10)
        if r * c <= 9
    ]
    assert len(shapes) >= 20
    for rows, cols in shapes:
        assert enumerate_game_count(rows, cols) == 3 ** (rows * cols)
    _verdict(5, start, 60.0)


def test_criterion_6_mixed_solver():
    start = time.monotonic()

    result = fictitious_play(rps(), iterations=100_000, tol=1e-9)
    assert result.exploitability <= 1e-2
    assert np.all(np.abs(result.p1.weights - 1 / 3) <= 0.01)
    assert np.all(np.abs(result.p2.weights - 1 / 3) <= 0.01)
    assert abs(result.value - 0.0) <= 1e-2

    for game in (rps(), pennies()):  # the bundled games at 4x4 or smaller
        oracle = grid_maxmin(game, step=100)
        solved = fictitious_play(game, iterations=50_000, tol=1e-9)
        assert abs(solved.value - oracle) <= 1e-2 + 1e-9, game.name

    _verdict(6, start, 60.0)


def test_criterion_7_series_closure():
    start = time.monotonic()

    game = rps()
    cancelled = compose_series(
        [game, role_swapped(game)], Aggregator.SUM_SIGN
    )
    assert not cancelled.entries.any()

    for single in (rps(), dice(), pennies()):
        assert compose_series([single]) is single

    _verdict(7, start, 1.0)


def test_criterion_8_crosstable_cycle():
    start = time.monotonic()

    narrow = ingest_crosstable(ENGINES3_TEXT, margin=0.01, name="engines3")
    assert find_cycles(narrow, max_len=3) == [(1, 3, 2)]

    wide = ingest_crosstable(ENGINES3_TEXT, margin=0.06, name="engines3")
    assert not wide.entries.any()
    assert find_cycles(wide, max_len=3) == []

    _verdict(8, start, 1.0)


def test_criterion_9_deterministic_reports():
    start = time.monotonic()
    game = rps()
    learners = catalog_learners

    first = render_report(run_tournament(game, learners(), fuel=2000))
    second = render_report(run_tournament(game, learners(), fuel=2000))
    assert first == second

    _verdict(9, start, 30.0)
