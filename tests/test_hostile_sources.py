"""Sources built to break the tokenizer or the prover's state sizing.

Each must fail as a positioned ParseError, or evaluate normally; inside
``sim`` an unparseable rival reads as ``exhausted`` and never takes the
simulating side down with it.
"""
import pytest

from opencomp import (
    EXPLOITER_SOURCE, EvalKind, Learner, ParseError, ProgramLearner,
    SideOutcome, evaluate, parse_program, rps, run_match, run_tournament,
)
from test_dsl import env_for

_DEEP_BESTRESP = "bestresp(" * 600 + "const 1" + ")" * 600
_DEEP_LOOP = f"if loop == {_DEEP_BESTRESP} then 1 else 2"

_UNPARSEABLE = {
    # superscript two: isdigit() accepts it, int() does not
    "superscript-digit": ("const ²", 7),
    # Arabic-Indic three: int() reads it as 3, so the source would not round-trip
    "arabic-indic-digit": ("const ٣", 7),
    # past Python's int-string conversion limit
    "5000-digit-literal": ("const " + "9" * 5000, 7),
    "19-digit-literal": ("const 1234567890123456789", 7),
    "non-ascii-identifier": (
        "match sim(opp, self, 9) { halted(é) => 1 | exhausted => 2 }", 34
    ),
}
_HOSTILE = {name: text for name, (text, _) in _UNPARSEABLE.items()}
_HOSTILE["600-deep-tree-at-loop"] = _DEEP_LOOP


@pytest.mark.parametrize(
    "text, column", _UNPARSEABLE.values(), ids=_UNPARSEABLE.keys()
)
def test_non_ascii_and_overlong_tokens_are_positioned_parse_errors(text, column):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (info.value.line, info.value.column) == (1, column)


def test_eighteen_digit_literal_is_accepted():
    assert parse_program("const 999999999999999999").ast.value == 10**18 - 1


def test_quoted_program_with_a_bad_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="inside quoted program"):
        parse_program('sim("const ٣", opp, 5)')


def test_deep_tree_at_loop_is_proven_without_recursion():
    result = evaluate(_DEEP_LOOP, env_for(fuel=100))
    assert result.kind is EvalKind.PROVEN_NONHALTING
    assert result.witness == (2, 3)
    assert result.fuel_used == 2


class _Publisher(Learner):
    """Publishes arbitrary text and plays ``const 1``."""

    def __init__(self, name, source):
        self.name = name
        self.source = source

    def play(self, env):
        return evaluate("const 1", env)


@pytest.mark.parametrize("text", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_exploiter_reads_a_hostile_rival_as_exhausted(text):
    result = evaluate(EXPLOITER_SOURCE, env_for(opponent=text, me=EXPLOITER_SOURCE))
    assert result.kind is EvalKind.HALTED
    assert result.strategy == 1

    record = run_match(
        rps(), ProgramLearner("exploiter", EXPLOITER_SOURCE),
        _Publisher("hostile", text), fuel=1000,
    )
    assert record.side1.outcome is SideOutcome.HALTED
    assert record.side1.strategy == 1


def test_tournament_with_hostile_entrants_completes():
    entrants = [ProgramLearner("exploiter", EXPLOITER_SOURCE)] + [
        _Publisher(name, text) for name, text in _HOSTILE.items()
    ]
    report = run_tournament(rps(), entrants, fuel=1000)
    assert len(report.records) == len(entrants) * (len(entrants) - 1) // 2
