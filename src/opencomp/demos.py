"""Demonstrations of why open-source competitions have no champion.

Three stories, each backed by runnable matches:

1.  Round robin over the stock catalog: nobody wins everything.  Whatever a
    learner does, some rival blunts it: simulators stall each other out,
    and the state-grower burns fuel without ever being provably stuck.
2.  The exploiter (simulate the rival, best-respond) defeats every rival
    that halts within fuel and also the provably non-halting spinner.
3.  The exploiter is itself beatable: give a second exploiter a fixed
    simulation budget and more fuel, judge by deadline rules, and it wins
    by halting after watching the first one drown.

A fourth report runs the oracle, a learner whose published text is not a
program at all.  Rivals cannot simulate it, while it simulates them with
host-level resources.  It never loses, though the state-grower still drags
it to a standoff.
"""
from __future__ import annotations

from .arena import (
    Learner, MatchResult, Mode, ProgramLearner, _run_side, render_match,
    render_report, run_match, run_tournament,
)
from .bundled import EXPLOITER_SOURCE, catalog_learners, rps
from .classify import best_response
from .dsl import (
    _FUEL_EXHAUSTED, _HALTED, EvalEnv, EvalResult, StrategyProgram, source_tree,
)
from .game_core import _OPPOSITE

ORACLE_SOURCE = "oracle: simulates rivals with host resources; not a program."


def build_exploiter(
    name: str = "exploiter", sim_budget: int | None = None
) -> ProgramLearner:
    """The simulate-and-best-respond learner.

    With the default open-ended budget it pours all remaining fuel into the
    simulation; give it an integer budget to make the simulation's failure
    observable, at the price of predictability to others.
    """
    source = EXPLOITER_SOURCE
    if sim_budget is not None:
        source = source.replace("rest", str(sim_budget))
    return ProgramLearner(name, source)


def build_defiance(name: str = "defiance") -> ProgramLearner:
    """The state-grower: never halts, never repeats a state, defies proof."""
    return ProgramLearner(name, "grow")


class OracleWinner(Learner):
    """A learner that runs rivals but cannot be run by them.

    Its published source is deliberately not parseable, so any rival's
    simulation of it comes back empty-handed.  It records the rival's play
    as the arena does, in the rival's true environment (the rival sees this
    same unreadable text as its opponent), and answers by ``adjudicate``'s
    order of outcomes: it best-responds to Halted; it plays 1 against the
    outcomes a halt outranks in both modes (RuntimeFault, InvalidStrategy,
    ProvenNonHalting) and against an unreadable rival; and it gives up only
    when the rival burns the whole fuel budget unresolved, passing that
    FuelExhausted on.
    """

    def __init__(self, name: str = "oracle"):
        self.name = name
        self.source = ORACLE_SOURCE

    def play(self, env: EvalEnv) -> EvalResult:
        tree = source_tree(env.opponent_source)
        if tree is None:
            return EvalResult(_HALTED, strategy=1)
        rival_env = EvalEnv(
            game=env.game,
            side=_OPPOSITE[env.side],
            opponent_source=self.source,
            self_source=env.opponent_source,
            fuel=env.fuel,
        )
        rival = ProgramLearner("rival", StrategyProgram(env.opponent_source, tree))
        record = _run_side(rival, rival_env)
        if record.outcome is _FUEL_EXHAUSTED:
            return EvalResult(_FUEL_EXHAUSTED, fuel_used=record.fuel_used)
        reply = 1
        if record.outcome is _HALTED:
            reply = best_response(env.game, env.side, record.strategy)
        return EvalResult(_HALTED, reply, record.witness, record.fuel_used)

    def __repr__(self):
        return f"OracleWinner({self.name!r})"


def demo_no_universal(fuel: int = 3000) -> str:
    """Full-catalog round robin; the last line reports no universal winner."""
    report = run_tournament(rps(), catalog_learners(), fuel=fuel, mode=Mode.STRICT)
    lines = [
        "no universal winner: every member of the catalog fails to win at "
        "least one of its matches",
    ]
    return "\n".join(lines) + "\n" + render_report(report)


def demo_exploiter(fuel: int = 3000) -> str:
    """The exploiter runs the table on rivals it can actually read out."""
    game = rps()
    exploiter = build_exploiter()
    beatable = [
        learner for learner in catalog_learners()
        if learner.name in (
            "const_rock", "const_paper", "const_scissors",
            "counter_rock", "pick_paper", "loop",
        )
    ]
    lines = [
        "the exploiter simulates its rival and best-responds; every rival "
        "that halts (or provably never will) loses to it",
    ]
    wins = 0
    for rival in beatable:
        record = run_match(game, exploiter, rival, fuel=fuel, mode=Mode.STRICT)
        lines.append(render_match(record))
        if record.result is MatchResult.WIN1:
            wins += 1
    lines.append(f"exploiter_wins={wins}/{len(beatable)}")
    return "\n".join(lines) + "\n"


def demo_exploiter_exploited(fuel: int = 2000) -> str:
    """No learner is safe: the exploiter falls to a budgeted copy of itself.

    Two open-budget exploiters stall forever (strict rules call that
    undecided).  A second exploiter with a fixed simulation budget, extra
    fuel, and a deadline judge halts while the first is still simulating,
    and takes the match.
    """
    game = rps()
    open_ended = build_exploiter("exploiter")
    rival = build_exploiter("exploiter2")
    stalled = run_match(game, open_ended, rival, fuel=fuel, mode=Mode.STRICT)

    budgeted = build_exploiter("budget_exploiter", sim_budget=fuel)
    decided = run_match(
        game, budgeted, open_ended,
        fuel=10 * fuel, fuel2=fuel, mode=Mode.DEADLINE,
    )
    defeated = "true" if decided.result is MatchResult.WIN1 else "false"
    lines = [
        "two open-budget exploiters drown simulating each other:",
        render_match(stalled),
        "a budgeted exploiter with more fuel halts first and wins under "
        "deadline rules:",
        render_match(decided),
        f"exploiter_defeated={defeated}",
    ]
    return "\n".join(lines) + "\n"


def demo_oracle(fuel: int = 3000) -> str:
    """The unreadable oracle never loses; the state-grower still stalls it."""
    game = rps()
    oracle = OracleWinner()
    lines = [
        "the oracle's source is unreadable to rivals, while it simulates "
        "them with host resources; it never loses a match",
    ]
    losses = 0
    undecided = 0
    for rival in catalog_learners():
        record = run_match(game, oracle, rival, fuel=fuel, mode=Mode.STRICT)
        lines.append(render_match(record))
        if record.result is MatchResult.WIN2:
            losses += 1
        if record.result is MatchResult.UNDECIDED:
            undecided += 1
    lines.append(f"oracle_losses={losses} oracle_undecided={undecided}")
    return "\n".join(lines) + "\n"


def run_all_demos(fuel: int = 3000) -> str:
    sections = [
        demo_no_universal(fuel=fuel),
        demo_exploiter(fuel=fuel),
        demo_exploiter_exploited(fuel=max(500, fuel // 2)),
        demo_oracle(fuel=fuel),
    ]
    return "\n".join(sections)
