"""Running learners against each other and adjudicating the results.

A learner publishes source text and, when asked, evaluates to a strategy
for its seat.  The arena runs both sides with the rival's published source
visible and records how each side's play ended as an ``EvalKind``: one of
the three kinds ``evaluate`` returns, RuntimeFault if the play raised, or
InvalidStrategy if it halted on a number that is not a strategy of its
seat.  Then it scores the pair of outcomes.  Non-halting rivals can still
lose: a learner that halts beats one whose non-halting was proven, and in
deadline mode it also beats one that merely ran out of fuel.  In strict
mode running out of fuel is never punished by itself, which is what leaves
room for mutually-simulating programs to force a standoff.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import StrEnum
from typing import NamedTuple

from .dsl import (
    _HALTED, _INVALID_STRATEGY, _RUNTIME_FAULT, EvalEnv, EvalKind, EvalResult,
    StrategyProgram, _tuple_new, evaluate, parse_program,
)
from .errors import RuntimeFault
from .game_core import _COL, _ROW, GameTable


class MatchResult(StrEnum):
    WIN1 = "Win1"
    WIN2 = "Win2"
    DRAW = "Draw"
    UNDECIDED = "Undecided"


class Mode(StrEnum):
    STRICT = "strict"
    DEADLINE = "deadline"


# Members read on every match, bound once: on Python 3.11 the enum
# metaclass defines ``__getattr__``, so each ``MatchResult.WIN1`` read
# takes the interpreter's slow attribute path.
_STRICT = Mode.STRICT
_WIN1, _WIN2 = MatchResult.WIN1, MatchResult.WIN2
_UNDECIDED = MatchResult.UNDECIDED


class Learner:
    """Anything that can publish source text and play a seat.

    ``source`` is what opponents get to simulate.  ``play`` receives the
    full environment (game, seat, both sources, fuel) and returns an
    evaluation result of one of the first three kinds (Halted,
    FuelExhausted, ProvenNonHalting), or raises RuntimeFault.  Subclasses
    are free to compute however they like, the published text does not
    have to be runnable.
    """

    name: str
    source: str

    def play(self, env: EvalEnv) -> EvalResult:
        raise NotImplementedError


class ProgramLearner(Learner):
    """A learner that is exactly its program: plays by evaluating it."""

    def __init__(self, name: str, program: StrategyProgram | str):
        if isinstance(program, str):
            program = parse_program(program)
        self.name = name
        self.program = program
        self.source = program.source

    def play(self, env: EvalEnv) -> EvalResult:
        return evaluate(self.program, env)

    def __repr__(self):
        return f"ProgramLearner({self.name!r})"


class SideRecord(NamedTuple):
    outcome: EvalKind
    strategy: int | None
    witness: tuple[int, int] | None
    fuel_used: int


class MatchRecord(NamedTuple):
    learner1: str
    learner2: str
    side1: SideRecord
    side2: SideRecord
    result: MatchResult


def _run_side(learner: Learner, env: EvalEnv) -> SideRecord:
    try:
        res = learner.play(env)
    except RuntimeFault as fault:
        res = EvalResult(_RUNTIME_FAULT, fuel_used=fault.fuel_used)
    kind, strategy = res.kind, None
    if kind is _HALTED:
        strategy = res.strategy
        limit = env.game.rows if env.side is _ROW else env.game.cols
        if not isinstance(strategy, int) or not 1 <= strategy <= limit:
            kind, strategy = _INVALID_STRATEGY, None
    return _tuple_new(SideRecord, (kind, strategy, res.witness, res.fuel_used))


# How far each outcome got: a fault or an invalid play, a play that never
# halted, a halt.  The higher rank wins; equal ranks are undecided.
_RANK = {
    EvalKind.RUNTIME_FAULT: 0, EvalKind.INVALID_STRATEGY: 0,
    EvalKind.FUEL_EXHAUSTED: 1, EvalKind.PROVEN_NONHALTING: 1,
    EvalKind.HALTED: 2,
}
# A halt against a play that merely ran out of fuel, undecided in strict mode.
_STANDOFF = {EvalKind.HALTED, EvalKind.FUEL_EXHAUSTED}
# The result of two halts, by the sign of the table's payoff to the row seat.
_BY_SIGN = {1: _WIN1, -1: _WIN2, 0: MatchResult.DRAW}


def adjudicate(
    game: GameTable,
    side1: SideRecord,
    side2: SideRecord,
    mode: Mode = Mode.STRICT,
) -> MatchResult:
    """Score one match from the two per-side outcomes.  Total: every
    combination of outcomes maps to exactly one result.

    Outcomes are ranked: RuntimeFault and InvalidStrategy lowest, then
    FuelExhausted and ProvenNonHalting, then Halted.  The higher rank wins
    and equal ranks are undecided, except that two halted strategies are
    scored by the table, and that under strict rules a halt against plain
    fuel exhaustion is undecided too.  A Halted record's strategy must be in
    range for its seat, as ``run_match`` makes it.
    """
    tag1, tag2 = side1.outcome, side2.outcome
    rank1, rank2 = _RANK[tag1], _RANK[tag2]
    if rank1 == rank2 == 2:
        return _BY_SIGN[game.entries[side1.strategy - 1, side2.strategy - 1]]
    if rank1 == rank2 or mode is _STRICT and {tag1, tag2} == _STANDOFF:
        return _UNDECIDED
    return _WIN1 if rank1 > rank2 else _WIN2


def run_match(
    game: GameTable,
    learner1: Learner,
    learner2: Learner,
    fuel: int = 100_000,
    mode: Mode | str = Mode.STRICT,
    fuel2: int | None = None,
) -> MatchRecord:
    """Play one match: learner1 takes the row seat, learner2 the column seat.

    ``fuel2`` optionally grants the column seat a different budget, for
    handicap experiments; by default both sides get ``fuel``.
    """
    if type(mode) is not Mode:
        mode = Mode(mode)
    # Fields in order: game, seat, opponent's source, own source, fuel.
    env1 = EvalEnv(game, _ROW, learner2.source, learner1.source, fuel)
    env2 = EvalEnv(game, _COL, learner1.source, learner2.source,
                   fuel if fuel2 is None else fuel2)
    side1 = _run_side(learner1, env1)
    side2 = _run_side(learner2, env2)
    result = adjudicate(game, side1, side2, mode)
    return _tuple_new(
        MatchRecord, (learner1.name, learner2.name, side1, side2, result)
    )


@dataclass(frozen=True)
class TournamentReport:
    game_name: str
    learner_names: tuple[str, ...]
    fuel: int
    mode: Mode
    records: tuple[MatchRecord, ...]
    tallies: dict  # name -> dict(wins, draws, losses, undecided)
    universal_winner: str | None


# The tally keys a result bumps for learner1 and learner2.
_TALLY_KEYS = {
    MatchResult.WIN1: ("wins", "losses"),
    MatchResult.WIN2: ("losses", "wins"),
    MatchResult.DRAW: ("draws", "draws"),
    MatchResult.UNDECIDED: ("undecided", "undecided"),
}


def run_tournament(
    game: GameTable,
    learners: list[Learner],
    fuel: int = 100_000,
    mode: Mode | str = Mode.STRICT,
) -> TournamentReport:
    """Round robin over every pair of distinct learners.

    On a symmetric game each unordered pair meets once, learner order
    deciding seats; otherwise both seatings are played.  Matches are played
    and reported in pair order, so the report is deterministic.

    The universal winner, if any, is the learner that won every match it
    appeared in (draws, undecided results, or any loss disqualify).  With
    fewer than two learners there are no matches and no winner.
    """
    mode = Mode(mode)
    names = [learner.name for learner in learners]
    if len(set(names)) != len(names):
        raise ValueError("learner names must be unique")
    # Checked before pairing, so it holds even when no match is played.
    if fuel < 0:
        raise ValueError("fuel must be non-negative")

    pairs = (
        itertools.combinations if game.symmetric_flag else itertools.permutations
    )(learners, 2)
    records = [
        run_match(game, first, second, fuel=fuel, mode=mode)
        for first, second in pairs
    ]

    tallies = {
        name: {"wins": 0, "draws": 0, "losses": 0, "undecided": 0}
        for name in names
    }
    for record in records:
        key1, key2 = _TALLY_KEYS[record.result]
        tallies[record.learner1][key1] += 1
        tallies[record.learner2][key2] += 1

    universal = next(
        (name for name, tally in tallies.items()
         if 0 < tally["wins"] == sum(tally.values())),
        None,
    )

    return TournamentReport(
        game_name=game.name,
        learner_names=tuple(names),
        fuel=fuel,
        mode=mode,
        records=tuple(records),
        tallies=tallies,
        universal_winner=universal,
    )


def render_match(record: MatchRecord) -> str:
    # ``!s`` converts a member with ``str.__str__`` at once; a plain field
    # would look up ``__format__`` first, twice the cost, on every line.
    return (
        f"match {record.learner1} vs {record.learner2}: "
        f"eval1={record.side1.outcome!s} eval2={record.side2.outcome!s} "
        f"result={record.result!s}"
    )


def render_report(report: TournamentReport) -> str:
    lines = [
        f"tournament game={report.game_name} learners={len(report.learner_names)} "
        f"fuel={report.fuel} mode={report.mode}"
    ]
    for record in report.records:
        lines.append(render_match(record))
    for name in report.learner_names:
        tally = report.tallies[name]
        lines.append(
            f"tally {name} wins={tally['wins']} draws={tally['draws']} "
            f"losses={tally['losses']} undecided={tally['undecided']}"
        )
    winner = report.universal_winner if report.universal_winner else "none"
    lines.append(f"universal_winner={winner}")
    return "\n".join(lines) + "\n"
