"""Whole tournaments against the fingerprinting evaluator.

The simulation record lives on a ``GameTable`` for a whole tournament, so
single evaluations cannot show a record that one match leaves behind and a
later match misreads.  Here a seeded open field of generated programs, the
benchmark's own (``perfbench/gen.py``, imported read-only), plays its round
robin three times: with ``evaluate`` on a fresh table, again on that table
with its record warm, and with ``fingerprint_evaluate`` in its place in
``arena``, whose ``ProgramLearner`` plays every program, the oracle's rival
included.  Every match record must be equal: kinds, strategies, witnesses
and ``fuel_used``.

The same generated programs also check the paper's diagonal argument: a
rival that halts with fuel to spare loses to the exploiter, which
simulates it and best-responds to its play.
"""
import importlib
import importlib.util
import pkgutil
import random
import sys

import pytest

import opencomp
import opencomp.arena
from conftest import REPO_ROOT
from fingerprint_oracle import fingerprint_evaluate
from opencomp import (
    EXPLOITER_SOURCE, EvalEnv, EvalKind, Mode, OracleWinner, ProgramLearner,
    RuntimeFault, Side, best_response, build_exploiter, evaluate, parse_game,
    rps, run_tournament,
)

_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", REPO_ROOT / "perfbench" / "gen.py"
)
_gen = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gen)


def _learners(field) -> list:
    """The open-field workload's entrants."""
    return [ProgramLearner(name, text) for name, text in field.sources] + [
        build_exploiter("exploiter"),
        build_exploiter("exploiter_b200", sim_budget=200),
        build_exploiter("exploiter_b1000", sim_budget=1000),
        OracleWinner(),
    ]


def _play(game, learners):
    report = run_tournament(game, learners, fuel=_gen.FIELD_FUEL, mode=Mode.DEADLINE)
    return report.records


@pytest.mark.parametrize("seed", [7, 23])
def test_a_whole_field_plays_as_under_the_fingerprint_oracle(monkeypatch, seed):
    field = _gen.open_field(seed)
    learners = _learners(field)
    game = parse_game(field.game_text)
    cold = _play(game, learners)
    warm = _play(game, learners)
    monkeypatch.setattr(opencomp.arena, "evaluate", fingerprint_evaluate)
    expected = _play(parse_game(field.game_text), learners)
    assert len(expected) == len(learners) * (len(learners) - 1) // 2
    # Each kind that `evaluate` returns appears, so none goes unchecked.
    kinds = {side.outcome for record in expected
             for side in (record.side1, record.side2)}
    assert kinds >= {EvalKind.HALTED, EvalKind.FUEL_EXHAUSTED,
                     EvalKind.PROVEN_NONHALTING}
    assert cold == expected
    assert warm == cold


def test_only_dsl_and_arena_bind_evaluate():
    # So the one patch in ``arena`` above reaches every play.  ``__main__``
    # runs the command line when imported.
    binders = {
        info.name for info in pkgutil.iter_modules(opencomp.__path__)
        if info.name != "__main__"
        and "evaluate" in vars(importlib.import_module(f"opencomp.{info.name}"))
    }
    assert binders == {"dsl", "arena"}


# Fuel the exploiter spends around its simulation of the rival: ``match``
# and ``sim`` before the child starts; the match frame, ``bestresp``, ``k``
# and the reply after it ends.
_BEFORE, _AFTER = 2, 4


def _exploit(game, seat, rival, fuel):
    env = EvalEnv(game, seat, rival, EXPLOITER_SOURCE, fuel)
    result = evaluate(EXPLOITER_SOURCE, env)
    return result.kind, result.strategy, result.fuel_used


def test_the_exploiter_beats_every_generated_rival_that_halts_in_time():
    fuel = _gen.FIELD_FUEL
    games = [rps(), parse_game(_gen.open_field(7).game_text)]
    checked = 0
    for shape_seed in range(40):
        gen = _gen._ProgramGen(random.Random(shape_seed), random.Random(shape_seed))
        rivals = [gen.entrant(shape) for shape in _gen._SHAPES]
        for game in games:
            for seat in Side:
                for rival in rivals:
                    # The rival as the exploiter's simulation runs it.
                    env = EvalEnv(game, seat.opposite, EXPLOITER_SOURCE, rival,
                                  fuel - _BEFORE)
                    try:
                        run = evaluate(rival, env)
                    except RuntimeFault:
                        continue
                    if (run.kind is not EvalKind.HALTED
                            or run.fuel_used > fuel - _BEFORE - _AFTER
                            or not 1 <= run.strategy <= game.side_count(seat.opposite)):
                        continue
                    spent = _BEFORE + run.fuel_used + _AFTER
                    beaten = (EvalKind.HALTED,
                              best_response(game, seat, run.strategy), spent)
                    assert _exploit(game, seat, rival, fuel) == beaten, rival
                    # The spare fuel is exact: one step less is too little.
                    assert _exploit(game, seat, rival, spent) == beaten, rival
                    assert _exploit(game, seat, rival, spent - 1) == (
                        EvalKind.FUEL_EXHAUSTED, None, spent - 1
                    ), rival
                    checked += 1
    # 40 fields of 24 programs on two games, from both seats: 3,840 pairs.
    assert checked >= 1500
