"""Sources built to break the tokenizer, the parser or the prover.

Each must fail as a positioned ParseError, or evaluate normally; inside
``sim`` an unparseable rival reads as ``exhausted`` and never takes the
simulating side down with it.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencomp import (
    EXPLOITER_SOURCE, EvalKind, EvalResult, Learner, MatchResult, ParseError,
    ProgramLearner, catalog_learners, evaluate, parse_program,
    pretty, rps, run_match, run_tournament,
)
from opencomp.dsl import _MAX_NESTING
from test_dsl import env_for

_DEEP_BESTRESP = "bestresp(" * 600 + "const 1" + ")" * 600
_DEEP_LOOP = f"if loop == {_DEEP_BESTRESP} then 1 else 2"
# past the nesting bound, and deep enough to exhaust the interpreter's stack
# if the parser did not stop it
_DEEPER_BESTRESP = "bestresp(" * 1000 + "const 1" + ")" * 1000

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
_HOSTILE["1000-deep-bestresp"] = _DEEPER_BESTRESP


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


def test_nesting_past_the_bound_is_a_positioned_parse_error():
    with pytest.raises(ParseError, match="nested deeper than") as info:
        parse_program(_DEEPER_BESTRESP)
    # the first expression past the bound is the 642nd "bestresp("
    assert (info.value.line, info.value.column) == (1, 641 * 9 + 1)


def test_deep_tree_at_loop_is_proven_without_recursion():
    result = evaluate(_DEEP_LOOP, env_for(fuel=100))
    assert result.kind is EvalKind.PROVEN_NONHALTING
    assert result.witness == (2, 3)
    assert result.fuel_used == 2


# A 35 KB entrant of 600 chained budgeted simulations of its rival, and a
# 6.6 KB rival that stops at `loop` with a 300-deep `if` chain pending.  Each
# simulation finds the rival's `loop` after two steps, however large the
# state it leaves as it was, so the entrant pays five steps per link.
_CHAINED_SIMS = (
    "match sim(opp, self, 5) { halted(k) => k | exhausted => " * 600
    + "const 1" + " }" * 600
)
_LOOP_BEFORE_A_DEEP_IF = (
    "if loop == 1 then "
    + "if 1 == 1 then " * 300 + "const 1" + " else 2" * 300
    + " else 2"
)


def test_chained_sims_of_a_large_loop_state_are_proven_each_time():
    env = env_for(
        opponent=_LOOP_BEFORE_A_DEEP_IF, me=_CHAINED_SIMS, fuel=10_000
    )
    result = evaluate(_CHAINED_SIMS, env)
    assert (result.kind, result.strategy, result.fuel_used) == (
        EvalKind.HALTED, 1, 3001
    )


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
    assert record.side1.outcome is EvalKind.HALTED
    assert record.side1.strategy == 1


def test_tournament_with_hostile_entrants_completes():
    entrants = [ProgramLearner("exploiter", EXPLOITER_SOURCE)] + [
        _Publisher(name, text) for name, text in _HOSTILE.items()
    ]
    report = run_tournament(rps(), entrants, fuel=1000)
    assert len(report.records) == len(entrants) * (len(entrants) - 1) // 2


def test_catalog_tournament_with_a_deep_nesting_entrant_completes():
    entrants = catalog_learners() + [_Publisher("deep", _DEEPER_BESTRESP)]
    report = run_tournament(rps(), entrants, fuel=100_000)
    assert len(report.records) == len(entrants) * (len(entrants) - 1) // 2
    (record,) = [r for r in report.records if r.learner1 == "exploiter"]
    assert record.learner2 == "deep"
    assert record.side1.outcome is EvalKind.HALTED
    assert record.side1.strategy == 1  # read the rival as exhausted
    assert record.result is MatchResult.DRAW


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# Each wrapper puts an expression one or two levels deeper: (depth, template).
_WRAPPERS = {
    "bestresp": (1, "bestresp({})"),
    "if": (1, "if 1 == 1 then {} else 2"),
    "match": (1, "match sim(opp, self, 3) {{ halted(k) => {} | exhausted => 2 }}"),
    # match, then sim, then the quoted program's root
    "quote": (2, "match sim({}, opp, 5) {{ halted(k) => k | exhausted => 1 }}"),
}


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(["bestresp", "if", "match"]), min_size=1, max_size=6
    ),
    length=st.integers(_MAX_NESTING - 40, _MAX_NESTING + 40),
    quotes=st.lists(st.integers(0, _MAX_NESTING + 40), max_size=10),
)
def test_nesting_around_the_bound_parses_or_is_a_parse_error(kinds, length, quotes):
    text, depth = "const 1", 0
    for i in range(length):
        step, template = _WRAPPERS[kinds[i % len(kinds)]]
        text, depth = template.format(text), depth + step
        for _ in range(quotes.count(i)):
            step, template = _WRAPPERS["quote"]
            text, depth = template.format(_quote(text)), depth + step
    if depth <= _MAX_NESTING:
        tree = parse_program(text).ast
        assert parse_program(pretty(tree)).ast == tree
    else:
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_program(text)
    result = evaluate(EXPLOITER_SOURCE, env_for(opponent=text, fuel=3000))
    assert isinstance(result, EvalResult)


# 638 `bestresp(` inside a quote inside `match`: `const 1` sits at depth
# exactly _MAX_NESTING.
_AT_THE_BOUND = (
    "match sim("
    + _quote("bestresp(" * 638 + "const 1" + ")" * 638)
    + ", opp, 5000) { halted(k) => k | exhausted => 2 }"
)


def test_a_program_at_the_nesting_bound_runs_at_the_default_recursion_limit():
    # Outside hypothesis, which raises the recursion limit while a test runs.
    # Texts are compared, not trees: tree `==` takes about two frames per
    # level and would pass the default limit here.
    text = pretty(parse_program(_AT_THE_BOUND).ast)
    assert pretty(parse_program(text).ast) == text
    result = evaluate(_AT_THE_BOUND, env_for(me=_AT_THE_BOUND, fuel=10_000))
    assert (result.kind, result.strategy, result.fuel_used) == (
        EvalKind.HALTED, 3, 1281
    )
    result = evaluate(
        EXPLOITER_SOURCE,
        env_for(opponent=_AT_THE_BOUND, me=EXPLOITER_SOURCE, fuel=10_000),
    )
    assert (result.kind, result.strategy) == (EvalKind.HALTED, 1)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_program(_AT_THE_BOUND.replace("const 1", "bestresp(const 1)"))
