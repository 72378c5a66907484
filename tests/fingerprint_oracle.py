"""Test-only oracle: the fingerprinting evaluator the library used to run.

``fingerprint_evaluate`` is the small-step evaluator as it was before
non-halting came to be decided at the ``loop`` and ``grow`` nodes.  Every
step it records the full level state in a per-level ``seen`` dict; a
repeated state ends the run as proven non-halting.  ``grow`` is a
``("grow", n)`` control state that takes one step per unit of fuel, so it
never repeats.  Tests compare ``opencomp.dsl.evaluate`` against it on kind,
strategy, witness and ``fuel_used``.  Like the brute-force oracles in
``conftest.py`` it is kept for reference and is deliberately not optimised,
except that a state's key hashes each syntax node once per evaluation.
It parses every text itself, not through the library's parse cache.
"""
from __future__ import annotations

from dataclasses import dataclass

from opencomp.classify import best_response
from opencomp.dsl import (
    BestResp, EvalEnv, EvalKind, EvalResult, Expr, Grow, If, Literal, Loop,
    Match, ParseError, Sim, SimOut, Src, SrcOpp, SrcSelf, StrategyProgram,
    Var, _parse, pretty,
)
from opencomp.errors import RuntimeFault


@dataclass(frozen=True)
class _KBestResp:
    pass


@dataclass(frozen=True)
class _KMatch:
    var: str
    on_halted: Expr
    on_exhausted: Expr
    bindings: tuple


@dataclass(frozen=True)
class _KIfLeft:
    op: str
    right: Expr
    then: Expr
    otherwise: Expr
    bindings: tuple


@dataclass(frozen=True)
class _KIfRight:
    op: str
    left_value: int
    then: Expr
    otherwise: Expr
    bindings: tuple


class _FaultSignal(Exception):
    pass


class _Level:
    """One live evaluation: the top program or a nested simulation."""

    __slots__ = (
        "control", "kont", "side", "opp_source", "self_source",
        "limit", "start_g", "seen",
    )

    def __init__(self, control, side, opp_source, self_source, limit, start_g):
        self.control = control
        self.kont: tuple = ()
        self.side = side
        self.opp_source = opp_source
        self.self_source = self_source
        self.limit = limit          # absolute step count this level may reach
        self.start_g = start_g
        self.seen: dict = {}


_FRAMES = (_KBestResp, _KMatch, _KIfLeft, _KIfRight)


def _state_key(obj, tokens: dict, known: dict):
    """A key for a state component, equal exactly when the components are.

    Tuples and continuation frames are built afresh as the machine steps, so
    they are walked.  Anything else that is not a number or a string (syntax
    nodes, simulation views) stands as the index of the first equal object
    seen in ``tokens``, so each such object is hashed once, not on every
    step.  ``known`` keeps each object alive, so its ``id`` is not reused.
    """
    if isinstance(obj, tuple):
        return tuple(_state_key(x, tokens, known) for x in obj)
    if isinstance(obj, _FRAMES):
        return (type(obj),) + tuple(
            _state_key(getattr(obj, f), tokens, known)
            for f in obj.__dataclass_fields__
        )
    if obj is None or isinstance(obj, (int, str)):
        return obj
    hit = known.get(id(obj))
    if hit is None:
        hit = known[id(obj)] = (obj, tokens.setdefault(obj, len(tokens)))
    return hit[1]


def _lookup(bindings: tuple, name: str):
    for key, value in reversed(bindings):
        if key == name:
            return value
    raise _FaultSignal(f"unbound identifier '{name}'")


def fingerprint_evaluate(program: StrategyProgram | str, env: EvalEnv) -> EvalResult:
    """Run a program to completion, a fuel limit, or a non-halting proof.

    Deterministic: equal program and environment give equal results.  Raises
    RuntimeFault if the top-level program performs an invalid operation; the
    same inside a simulation is absorbed as an ``exhausted`` view.  The
    halted strategy index is reported as computed, range checking against
    the game is the caller's job.
    """
    if isinstance(program, str):
        program = StrategyProgram(program, _parse(program, 0))
    g = 0  # fuel consumed so far, shared by every nesting level
    parse_cache: dict[str, Expr | ParseError] = {}
    pretty_cache: dict[int, str] = {}
    tokens: dict = {}
    known: dict[int, tuple] = {}
    game = env.game

    root = _Level(
        control=("expr", program.ast, ()),
        side=env.side,
        opp_source=env.opponent_source,
        self_source=env.self_source,
        limit=env.fuel,
        start_g=0,
    )
    levels = [root]
    final = None

    def cached_parse(text: str):
        hit = parse_cache.get(text)
        if hit is None:
            try:
                hit = _parse(text, 0)
            except ParseError as exc:
                hit = exc
            parse_cache[text] = hit
        return hit

    def cached_pretty(node: Expr) -> str:
        hit = pretty_cache.get(id(node))
        if hit is None:
            hit = pretty(node)
            pretty_cache[id(node)] = hit
        return hit

    def src_text(src: Src, lvl: _Level) -> str:
        if isinstance(src, SrcOpp):
            return lvl.opp_source
        if isinstance(src, SrcSelf):
            return lvl.self_source
        return cached_pretty(src.program)

    def pop(result) -> None:
        nonlocal final
        levels.pop()
        if not levels:
            final = result
            return
        parent = levels[-1]
        if result[0] == "halted":
            parent.control = ("value", SimOut("halted", result[1]))
        else:
            parent.control = ("value", SimOut("exhausted"))

    while levels:
        lvl = levels[-1]
        control = lvl.control

        # A level that reached a bare value with nothing pending is done.
        # Finishing costs no fuel.
        if control[0] == "value" and not lvl.kont:
            value = control[1]
            if isinstance(value, SimOut):
                pop(("fault", "program finished without a strategy index"))
            else:
                pop(("halted", value))
            continue

        if g >= lvl.limit:
            pop(("exhausted",))
            continue

        # Repetition check on the full level state, fuel counters excluded.
        # States whose control is a pending simulation are skipped: their
        # future can depend on the fuel left, and structural evaluation
        # cannot revisit them anyway.
        if not (control[0] == "expr" and isinstance(control[1], Sim)):
            key = _state_key((control, lvl.kont), tokens, known)
            step_no = g - lvl.start_g + 1
            first = lvl.seen.get(key)
            if first is not None:
                pop(("proven", first, step_no))
                continue
            lvl.seen[key] = step_no

        g += 1
        try:
            if control[0] == "expr":
                node, bindings = control[1], control[2]
                if isinstance(node, Literal):
                    lvl.control = ("value", node.value)
                elif isinstance(node, Var):
                    lvl.control = ("value", _lookup(bindings, node.name))
                elif isinstance(node, Loop):
                    pass  # the single-state spinner: same state next step
                elif isinstance(node, Grow):
                    lvl.control = ("grow", 1)
                elif isinstance(node, BestResp):
                    lvl.kont = lvl.kont + (_KBestResp(),)
                    lvl.control = ("expr", node.arg, bindings)
                elif isinstance(node, Match):
                    lvl.kont = lvl.kont + (
                        _KMatch(node.var, node.on_halted, node.on_exhausted, bindings),
                    )
                    lvl.control = ("expr", node.scrutinee, bindings)
                elif isinstance(node, If):
                    lvl.kont = lvl.kont + (
                        _KIfLeft(node.op, node.right, node.then, node.otherwise, bindings),
                    )
                    lvl.control = ("expr", node.left, bindings)
                elif isinstance(node, Sim):
                    adversary = src_text(node.adversary, lvl)
                    if isinstance(node.target, SrcOpp):
                        text = lvl.opp_source
                        child_side = lvl.side.opposite
                    elif isinstance(node.target, SrcSelf):
                        text = lvl.self_source
                        child_side = lvl.side
                    else:
                        text = cached_pretty(node.target.program)
                        child_side = lvl.side
                    parsed = cached_parse(text)
                    if isinstance(parsed, ParseError):
                        # A rival whose source is not a runnable program
                        # yields nothing observable.
                        lvl.control = ("value", SimOut("exhausted"))
                    else:
                        if node.budget == "rest":
                            child_limit = lvl.limit
                        else:
                            child_limit = min(lvl.limit, g + node.budget)
                        lvl.control = ("await",)
                        levels.append(_Level(
                            control=("expr", parsed, ()),
                            side=child_side,
                            opp_source=adversary,
                            self_source=text,
                            limit=child_limit,
                            start_g=g,
                        ))
                else:  # pragma: no cover
                    raise _FaultSignal(f"unknown node {node!r}")
            elif control[0] == "grow":
                lvl.control = ("grow", control[1] + 1)
            else:  # a value meeting the top continuation frame
                value = control[1]
                frame = lvl.kont[-1]
                lvl.kont = lvl.kont[:-1]
                if isinstance(frame, _KBestResp):
                    if not isinstance(value, int):
                        raise _FaultSignal("best response applied to a non-index")
                    opp_count = game.side_count(lvl.side.opposite)
                    if not 1 <= value <= opp_count:
                        raise _FaultSignal(
                            f"best response to out-of-range strategy {value}"
                        )
                    lvl.control = ("value", best_response(game, lvl.side, value))
                elif isinstance(frame, _KMatch):
                    if not isinstance(value, SimOut):
                        raise _FaultSignal("match on a non-simulation value")
                    if value.tag == "halted":
                        bound = frame.bindings + ((frame.var, value.value),)
                        lvl.control = ("expr", frame.on_halted, bound)
                    else:
                        lvl.control = ("expr", frame.on_exhausted, frame.bindings)
                elif isinstance(frame, _KIfLeft):
                    if not isinstance(value, int):
                        raise _FaultSignal("comparison on a non-integer")
                    lvl.kont = lvl.kont + (
                        _KIfRight(frame.op, value, frame.then, frame.otherwise,
                                  frame.bindings),
                    )
                    lvl.control = ("expr", frame.right, frame.bindings)
                elif isinstance(frame, _KIfRight):
                    if not isinstance(value, int):
                        raise _FaultSignal("comparison on a non-integer")
                    left = frame.left_value
                    if frame.op == "==":
                        taken = left == value
                    elif frame.op == "<":
                        taken = left < value
                    else:
                        taken = left > value
                    lvl.control = (
                        "expr", frame.then if taken else frame.otherwise,
                        frame.bindings,
                    )
                else:  # pragma: no cover
                    raise _FaultSignal(f"unknown frame {frame!r}")
        except _FaultSignal as fault:
            pop(("fault", str(fault)))

    assert final is not None
    if final[0] == "halted":
        return EvalResult(EvalKind.HALTED, strategy=final[1], fuel_used=g)
    if final[0] == "exhausted":
        return EvalResult(EvalKind.FUEL_EXHAUSTED, fuel_used=g)
    if final[0] == "proven":
        return EvalResult(
            EvalKind.PROVEN_NONHALTING, witness=(final[1], final[2]), fuel_used=g
        )
    raise RuntimeFault(final[1], fuel_used=g)
