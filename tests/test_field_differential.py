"""Whole tournaments against the fingerprinting evaluator.

The simulation record lives on a ``GameTable`` for a whole tournament, so
single evaluations cannot show a record that one match leaves behind and a
later match misreads.  Here a seeded open field of generated programs, the
benchmark's own (``perfbench/gen.py``, imported read-only), plays its round
robin three times: with ``evaluate`` on a fresh table, again on that table
with its record warm, and with ``fingerprint_evaluate`` in its place in
``arena`` and ``demos``.  Every match record must be equal: kinds,
strategies, witnesses and ``fuel_used``.
"""
import importlib.util
import sys

import pytest

import opencomp.arena
import opencomp.demos
from conftest import REPO_ROOT
from fingerprint_oracle import fingerprint_evaluate
from opencomp import (
    EvalKind, Mode, OracleWinner, ProgramLearner, build_exploiter, parse_game,
    run_tournament,
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
    monkeypatch.setattr(opencomp.demos, "evaluate", fingerprint_evaluate)
    expected = _play(parse_game(field.game_text), learners)
    assert len(expected) == len(learners) * (len(learners) - 1) // 2
    # Each kind that `evaluate` returns appears, so none goes unchecked.
    kinds = {side.outcome for record in expected
             for side in (record.side1, record.side2)}
    assert kinds >= {EvalKind.HALTED, EvalKind.FUEL_EXHAUSTED,
                     EvalKind.PROVEN_NONHALTING}
    assert cold == expected
    assert warm == cold
