"""``evaluate`` against the fingerprinting evaluator it replaced.

The library decides ``loop`` and ``grow`` at their own node, and spends the
shared limit at once when a simulation repeats a live ancestor; the oracle
in ``fingerprint_oracle.py`` hashes the whole state on every step and runs
every level of a simulation tower.  They must agree on kind,
strategy, witness and ``fuel_used`` everywhere, faults included.
"""
import copy
import pickle
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import opencomp.dsl as dsl
from conftest import empty_parse_cache
from fingerprint_oracle import fingerprint_evaluate
from opencomp import (
    EXPLOITER_SOURCE, MIRROR_SOURCE, EvalKind, GameTable, RuntimeFault, Side,
    evaluate, parse_program, pennies, pretty, rps,
)
from opencomp.dsl import (
    BestResp, Grow, If, Literal, Loop, Match, Sim, SrcOpp, SrcQuoted, SrcSelf,
    Var,
)
from test_dsl import env_for, program_trees

_FUELS = st.one_of(
    st.sampled_from([0, 1, 2, 3, 5, 10, 50, 200, 1000]), st.integers(0, 300)
)
_OPPONENTS = st.one_of(
    st.sampled_from(["const 1", "const 2", "loop", "grow", EXPLOITER_SOURCE]),
    program_trees.map(pretty),
)


def _run(evaluator, source, env):
    try:
        result = evaluator(source, env)
    except RuntimeFault as fault:
        return ("fault", str(fault), fault.fuel_used)
    return (result.kind, result.strategy, result.witness, result.fuel_used)


def _both(source, env):
    return _run(evaluate, source, env), _run(fingerprint_evaluate, source, env)


@given(program_trees, _OPPONENTS, _FUELS)
@settings(max_examples=300, deadline=None)
def test_agrees_with_the_fingerprint_oracle(tree, opponent, fuel):
    source = pretty(tree)
    env = env_for(opponent=opponent, me=source, fuel=fuel)
    new, old = _both(source, env)
    assert new == old


@given(program_trees, _OPPONENTS, _FUELS)
@settings(max_examples=150, deadline=None)
def test_cold_and_warm_parse_cache_agree_with_the_oracle(tree, opponent, fuel):
    source = pretty(tree)
    env = env_for(opponent=opponent, me=source, fuel=fuel)
    expected = _run(fingerprint_evaluate, source, env)
    empty_parse_cache()
    cold = _run(evaluate, source, env)
    warm = _run(evaluate, source, env)
    assert cold == warm == expected


# One table for every example, so most examples read best replies from the
# memo that earlier ones filled.  Three rows against seven columns, so an
# index can be in range for one seat and out of range for the other, with
# ties for the lowest index to break.
_ASYMMETRIC = GameTable(name="a", entries=np.array([
    [1, -1, 0, 0, -1, 1, 0],
    [0, 1, -1, 0, 1, -1, 0],
    [-1, 1, 1, 0, 1, 1, -1],
], dtype=np.int8))


@given(program_trees, _OPPONENTS, _FUELS, st.sampled_from(list(Side)))
@settings(max_examples=300, deadline=None)
def test_an_asymmetric_game_agrees_with_the_oracle_in_both_seats(
    tree, opponent, fuel, side
):
    source = pretty(tree)
    env = env_for(opponent=opponent, me=source, fuel=fuel, side=side,
                  game=_ASYMMETRIC)
    new, old = _both(source, env)
    assert new == old


_IF_CHAIN = "if 1 == 1 then " * 300 + "const 1" + " else 2" * 300


@pytest.mark.parametrize("source, fuel, expected", [
    # Fuel runs out on the step right after reaching `loop`.
    ("loop", 1, (EvalKind.FUEL_EXHAUSTED, None, None, 1)),
    ("if loop == 1 then 1 else 2", 2, (EvalKind.FUEL_EXHAUSTED, None, None, 2)),
    # One more unit of fuel and the repeat is seen.
    ("loop", 2, (EvalKind.PROVEN_NONHALTING, None, (1, 2), 1)),
    ("if loop == 1 then 1 else 2", 3,
     (EvalKind.PROVEN_NONHALTING, None, (2, 3), 2)),
    ("loop", 40, (EvalKind.PROVEN_NONHALTING, None, (1, 2), 1)),
    ("grow", 0, (EvalKind.FUEL_EXHAUSTED, None, None, 0)),
    ("grow", 1, (EvalKind.FUEL_EXHAUSTED, None, None, 1)),
    # A child caught at `loop` by its own budget reads as exhausted.
    ('match sim("loop", opp, 1) { halted(k) => k | exhausted => 2 }', 50,
     (EvalKind.HALTED, 2, None, 5)),
    ('match sim("loop", opp, 2) { halted(k) => k | exhausted => 2 }', 50,
     (EvalKind.HALTED, 2, None, 5)),
    # However large the state that `loop` leaves as it was, the repeat is a
    # proof.
    ('if loop == 1 then sim("const 1", opp, 5) else 2', 40,
     (EvalKind.PROVEN_NONHALTING, None, (2, 3), 2)),
    (f'if loop == 1 then sim("{_IF_CHAIN}", opp, 5) else 2', 100_000,
     (EvalKind.PROVEN_NONHALTING, None, (2, 3), 2)),
], ids=[
    # Pinned, so a row keeps its name when rows are added or removed.  The
    # number before `expected` is the state-size cap the row once set.
    "loop-1-65536-expected0",
    "if loop == 1 then 1 else 2-2-65536-expected1",
    "loop-2-65536-expected2",
    "if loop == 1 then 1 else 2-3-65536-expected3",
    "loop-40-365-expected4",
    "grow-0-65536-expected6",
    "grow-1-65536-expected7",
    'match sim("loop", opp, 1) { halted(k) => k | exhausted => 2 }-50-65536-expected8',
    'match sim("loop", opp, 2) { halted(k) => k | exhausted => 2 }-50-65536-expected9',
    'if loop == 1 then sim("const 1", opp, 5) else 2-40-976-expected10',
    "loop-before-a-300-deep-quote",
])
def test_boundary_cases_match_the_oracle(source, fuel, expected):
    program = parse_program(source)
    env = env_for(me=source, fuel=fuel)
    for _ in range(2):  # the second time with every quote's text built
        new, old = _both(program, env)
        assert new == old == expected
        pretty(program.ast)


# Chains whose continuation holds hundreds of frames at once, each cut by
# fuel while the frames stack and while they unwind, and each run to its
# end.  The left-nested ``if``
# keeps frames whose left value is pending; the ``bestresp`` chain faults
# on its innermost index (rps has three strategies) with 639 frames above
# it; the ``match`` chain stacks its frames in the scrutinee, and each of
# its arms picks the next simulation's budget.
_DEEP = {
    "if": "if " * 640 + "1" + " == 1 then 1 else 2" * 640,
    "bestresp": "bestresp(" * 639 + "const 9" + ")" * 639,
    "match": "match " * 600 + "sim(opp, self, 1)"
    + " { halted(k) => sim(opp, self, 0) | exhausted => sim(opp, self, 1) }" * 599
    + " { halted(k) => k | exhausted => 2 }",
}


@pytest.fixture
def deep_hashing():
    """Room for the oracle, which hashes a syntax tree one frame per level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * dsl._MAX_NESTING)
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("chain, fuel, kind", [
    ("if", 600, EvalKind.FUEL_EXHAUSTED),
    ("if", 1000, EvalKind.FUEL_EXHAUSTED),
    ("if", 3201, EvalKind.HALTED),
    ("bestresp", 320, EvalKind.FUEL_EXHAUSTED),
    ("bestresp", 640, EvalKind.FUEL_EXHAUSTED),
    ("bestresp", 641, "fault"),
    ("bestresp", 100_000, "fault"),
    ("match", 300, EvalKind.FUEL_EXHAUSTED),
    ("match", 1050, EvalKind.FUEL_EXHAUSTED),
    ("match", 2101, EvalKind.HALTED),
])
def test_deep_continuations_match_the_oracle(deep_hashing, chain, fuel, kind):
    source = _DEEP[chain]
    program = parse_program(source)
    new, old = _both(program, env_for(me=source, fuel=fuel))
    assert new[0] == kind
    assert new == old


# Towers of mutual simulation: every program is built around a ``sim``, and
# most budgets are ``rest``, so most runs descend until a simulation repeats
# a live ancestor.  Quotes nest at most three deep, because each level of
# nesting doubles the backslashes in the text.
_TOWER_LEAVES = st.sampled_from([
    Literal(1), Literal(2), Literal(3, bare=True), Loop(), Grow(),
    BestResp(Literal(2)),
])
_QUOTED_LEAVES = st.sampled_from([Literal(2), Loop(), Grow()]).map(SrcQuoted)
_TOWER_BUDGETS = st.one_of(
    st.just("rest"), st.just("rest"), st.integers(0, 40), st.integers(100, 900)
)


def _towers(inner):
    srcs = st.one_of(
        st.just(SrcOpp()), st.just(SrcSelf()), inner.map(SrcQuoted), _QUOTED_LEAVES
    )
    sims = st.builds(Sim, srcs, srcs, _TOWER_BUDGETS)
    matches = st.builds(
        lambda sim, on_halted, on_exhausted: Match(sim, "k", on_halted, on_exhausted),
        sims,
        st.one_of(st.sampled_from([Var("k"), BestResp(Var("k"))]), _TOWER_LEAVES),
        st.one_of(_TOWER_LEAVES, sims),
    )
    return st.one_of(
        matches,
        sims,  # a bare sim: its level pops as a fault
        matches.map(BestResp),
        st.builds(
            lambda test, then, otherwise: If(test, "==", Literal(1), then, otherwise),
            matches, _TOWER_LEAVES, _TOWER_LEAVES,
        ),
    )


tower_trees = st.nothing()
for _ in range(3):
    tower_trees = _towers(tower_trees)

_TOWER_OPPONENTS = st.one_of(
    tower_trees.map(pretty),
    st.sampled_from([EXPLOITER_SOURCE, MIRROR_SOURCE, "const 2", "loop"]),
    st.none(),  # the program's own text
)
_TOWER_FUELS = st.one_of(
    st.sampled_from([0, 1, 2, 3, 7, 100, 1000]), st.integers(0, 400)
)


@given(tower_trees, _TOWER_OPPONENTS, _TOWER_FUELS)
@settings(max_examples=150, deadline=None)
def test_towers_agree_with_the_fingerprint_oracle(tree, opponent, fuel):
    source = pretty(tree)
    env = env_for(
        opponent=source if opponent is None else opponent, me=source, fuel=fuel
    )
    new, old = _both(source, env)
    assert new == old


@pytest.fixture
def child_runs(monkeypatch):
    """Counts the simulations ``evaluate`` runs on the tables the test
    makes, rather than reads from their records: a finished child run
    writes its table's record once, and the root writes none."""
    runs = []

    class Counted(dict):
        def __setitem__(self, key, value):
            runs.append(key)
            super().__setitem__(key, value)

    made = GameTable.__post_init__

    def post_init(self, *args, **kwargs):
        made(self, *args, **kwargs)
        object.__setattr__(self, "_sims", Counted())

    monkeypatch.setattr(GameTable, "__post_init__", post_init)
    return runs


def _arm(quote):
    return f'match sim(self, "{quote}", rest) {{ halted(j) => j | exhausted => 2 }}'


# The adversary cycles through three quoted programs: each level asks its
# opponent for an index and simulates itself against the next quote.
_PERIOD_3 = (
    "match sim(opp, opp, 5) { halted(k) => if k == 1 then " + _arm("const 2")
    + " else if k == 2 then " + _arm("const 3") + " else " + _arm("const 1")
    + " | exhausted => const 1 }"
)


# (source, opponent, the most levels a 3000-fuel run may push)
@pytest.mark.parametrize("source, opponent, most", [
    pytest.param(
        "match sim(self, opp, rest) { halted(k) => k | exhausted => const 1 }",
        "const 1", 3, id="period-1",
    ),
    # Every level finishes on a simulation's result and pops as a fault.
    pytest.param("sim(self, opp, rest)", "const 1", 3, id="period-1-bare"),
    pytest.param(EXPLOITER_SOURCE, MIRROR_SOURCE, 4, id="exploiter-vs-mirror"),
    pytest.param(MIRROR_SOURCE, EXPLOITER_SOURCE, 4, id="mirror-vs-exploiter"),
    pytest.param(EXPLOITER_SOURCE, EXPLOITER_SOURCE, 4, id="same-text"),
    pytest.param("sim(opp, self, rest)", EXPLOITER_SOURCE, 4, id="period-2-bare"),
    pytest.param(
        "match sim(opp, self, rest) { halted(k) => k | exhausted => grow }",
        "match sim(opp, self, rest) { halted(k) => loop | exhausted => 2 }",
        4, id="loop-and-grow-under-the-tower",
    ),
    # Plus the three finished 5-step probes of the opponent.
    pytest.param(_PERIOD_3, "const 1", 12, id="period-3-quoted"),
    # The tower shares an integer budget's limit, and the top level goes
    # on to halt after it.
    pytest.param(
        "match sim(self, opp, 300) { halted(k) => k | exhausted => const 3 }",
        MIRROR_SOURCE, 4, id="integer-budget-then-halt",
    ),
    # The second level's budget cuts its limit below the first's, so the
    # third level repeats the first's key but not its limit.
    pytest.param(
        "match sim(opp, self, 40) { halted(k) => bestresp(k) | exhausted => 1 }",
        "match sim(opp, self, 25) { halted(k) => bestresp(k) | exhausted => 2 }",
        5, id="budget-cuts-in",
    ),
])
@pytest.mark.parametrize("fuel", [0, 1, 7, 60, 3000])
def test_towers_collapse_and_agree_with_the_oracle(
    child_runs, source, opponent, most, fuel
):
    env = env_for(opponent=opponent, me=source, fuel=fuel)
    new = _run(evaluate, source, env)
    assert len(child_runs) <= most - 1  # every level but the root
    assert new == _run(fingerprint_evaluate, source, env)


# A level whose target, seat and adversary match a live level's is a
# repeat; these differ in one of them, or meet a finished level, and halt.
@pytest.mark.parametrize("program, me, opponent, game", [
    # At ROW the program simulates itself at COL, where it halts.
    pytest.param(
        "match sim(self, self, rest) { halted(k) => k | exhausted => 3 }",
        "if bestresp(1) == 1 then "
        "match sim(opp, self, rest) { halted(k) => k | exhausted => 2 } else 1",
        "const 1", pennies(), id="seat-differs",
    ),
    # The second level meets the third quote and halts.
    pytest.param(
        _PERIOD_3.replace(_arm("const 1"), "const 3"), None, "const 1", None,
        id="adversary-differs",
    ),
    # The second simulation repeats the first, which has already halted.
    pytest.param(
        "match sim(self, opp, rest) { halted(k) => "
        "match sim(self, opp, rest) { halted(j) => j | exhausted => 3 } "
        "| exhausted => 3 }",
        "const 2", "const 1", None, id="after-the-twin-returned",
    ),
])
def test_near_repeats_run_in_full(program, me, opponent, game):
    env = env_for(
        opponent=opponent, me=program if me is None else me, fuel=3000, game=game
    )
    new = _run(evaluate, program, env)
    assert new[0] is EvalKind.HALTED
    assert new == _run(fingerprint_evaluate, program, env)


def test_a_mutual_simulation_standoff_builds_a_handful_of_levels(child_runs):
    env = env_for(opponent=MIRROR_SOURCE, me=EXPLOITER_SOURCE, fuel=100_000)
    result = evaluate(EXPLOITER_SOURCE, env)
    assert result.kind is EvalKind.FUEL_EXHAUSTED
    assert result.fuel_used == 100_000
    assert len(child_runs) <= 3  # four levels, the root included


# Warm tables.  Each ``GameTable`` records the simulations its evaluations
# finish, so a sequence of evaluations on one table reads runs that earlier
# ones recorded.  The oracle keeps no record and runs each evaluation on a
# fresh copy of the table.


def _fresh(table: GameTable) -> GameTable:
    """The same game with nothing recorded on it."""
    return GameTable(name=table.name, entries=table.entries,
                     symmetric_flag=table.symmetric_flag)


def _on_warm_table(table, program, opponent, fuel, side):
    """``evaluate`` on ``table``, checked against the oracle on a fresh copy."""
    me = program if isinstance(program, str) else program.source
    warm = _run(evaluate, program, env_for(
        opponent=opponent, me=me, fuel=fuel, side=side, game=table))
    cold = _run(fingerprint_evaluate, program, env_for(
        opponent=opponent, me=me, fuel=fuel, side=side, game=_fresh(table)))
    assert warm == cold
    return warm


_WARM_SOURCES = st.one_of(
    program_trees.map(pretty),
    tower_trees.map(pretty),
    st.sampled_from([EXPLOITER_SOURCE, MIRROR_SOURCE, "const 2", "loop", "grow"]),
)
_WARM_PLAYS = st.tuples(
    st.integers(0, 2), st.integers(0, 2), _TOWER_FUELS, st.sampled_from(list(Side))
)


@given(
    st.lists(_WARM_SOURCES, min_size=1, max_size=3),
    st.lists(_WARM_PLAYS, min_size=2, max_size=8),
    st.sampled_from(["rps", "asymmetric"]),
)
@settings(max_examples=150, deadline=None)
def test_a_sequence_on_one_table_agrees_with_the_oracle(sources, plays, game):
    # A few sources meet each other again and again, in both seats and at
    # many fuels.  Each is parsed once, so its quotes are the same objects
    # from one evaluation to the next.
    table = _fresh(rps() if game == "rps" else _ASYMMETRIC)
    programs = [parse_program(source) for source in sources]
    for me, opponent, fuel, side in plays:
        program = programs[me % len(programs)]
        _on_warm_table(table, program, sources[opponent % len(sources)], fuel, side)


def _probe(budget: int) -> str:
    """Simulates the opponent against itself with ``budget`` and shows the
    result: its cost is the child's plus four steps."""
    return f"match sim(opp, opp, {budget}) {{ halted(k) => k | exhausted => 0 }}"


# Children that halt, prove, fault, end exactly at their limit (the bare
# ``sim`` finishes for free on the exhausted view it gets when ``grow`` has
# spent the limit), exhaust, or stand off against their own copy.
_ENDINGS = [
    "const 2",
    "bestresp(const 1)",
    "loop",
    "if loop == 1 then 1 else 2",
    "bestresp(const 9)",
    'sim("grow", self, rest)',
    "grow",
    "match sim(opp, opp, 6) { halted(k) => k | exhausted => 3 }",
    "match sim(opp, self, rest) { halted(k) => bestresp(k) | exhausted => 2 }",
    EXPLOITER_SOURCE,
    MIRROR_SOURCE,
]


@pytest.mark.parametrize("child", _ENDINGS)
def test_budgets_around_a_recorded_end_agree_with_the_oracle(child_runs, child):
    table = rps()
    for side in Side:
        # A generous budget records where the child ends: after c steps.
        first = _on_warm_table(table, _probe(500), child, 1000, side)
        ends = first[-1] - 4
        for budget in (ends - 1, ends, ends + 1, ends + 2, 0, 500):
            child_runs.clear()
            _on_warm_table(table, _probe(budget), child, 1000, side)
            if budget <= ends:
                assert not child_runs  # read from the record
        # The record of the longest run answers every smaller budget.
        budgets = {0, 1, ends // 3, ends // 2, ends - 1, ends}
        child_runs.clear()
        for budget in budgets:
            _on_warm_table(table, _probe(budget), child, 1000, side)
        assert not child_runs


_AT_LIMIT = (
    "match sim(opp, self, 100) { halted(k) => k | exhausted => "
    "match sim(opp, self, 200) { halted(j) => j | exhausted => const 1 } }"
)


def test_a_run_ended_at_its_limit_answers_no_larger_budget():
    # `sim("grow", self, rest)` faults for free once `grow` has spent its
    # limit, so the run with 100 fuel ends at 100, and the one with 200
    # must run again to end at 200.
    table = rps()
    program = parse_program(_AT_LIMIT)
    for side in Side:
        for _ in range(2):  # cold, then with both runs recorded
            result = _on_warm_table(
                table, program, 'sim("grow", self, rest)', 1000, side
            )
            assert result == (EvalKind.HALTED, 1, None, 307)


def _wide_quoting(leaves: int) -> str:
    """A program that simulates ``leaves`` distinct quoted programs, each
    once, in a balanced tree of ``if`` nodes; it halts with 1."""
    checks = [
        f'if match sim("const {i}", opp, 5) {{ halted(k) => k | exhausted => 0 }}'
        f" == {i} then 1 else 2"
        for i in range(1, leaves + 1)
    ]
    while len(checks) > 1:
        checks = [
            f"if {left} == 1 then {right} else 2"
            for left, right in zip(checks[::2], checks[1::2])
        ] + checks[len(checks) - len(checks) % 2:]
    return checks[0]


def test_the_record_stops_at_its_bound():
    source = _wide_quoting(dsl._SIM_MEMO_SIZE + 100)
    program = parse_program(source)
    table = rps()
    env = env_for(me=source, fuel=10 ** 6, game=table)
    first = _run(evaluate, program, env)
    assert len(table._sims) == dsl._SIM_MEMO_SIZE
    # Now the first keys are read from the record and the last are run.
    second = _run(evaluate, program, env)
    assert len(table._sims) == dsl._SIM_MEMO_SIZE
    assert first == second == _run(fingerprint_evaluate, program, env)
    assert first[:2] == (EvalKind.HALTED, 1)


def test_the_record_goes_with_its_table():
    table = rps()
    evaluate(EXPLOITER_SOURCE, env_for(me=EXPLOITER_SOURCE, game=table))
    assert table._sims
    ref = weakref.ref(table)
    del table
    assert ref() is None


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda table: pickle.loads(pickle.dumps(table)),
], ids=["copy", "deepcopy", "pickle"])
def test_a_copied_table_starts_with_no_record(clone):
    # A copy is built through the constructor, with its own empty memos.
    table = rps()
    env = env_for(me=EXPLOITER_SOURCE, game=table)
    evaluate(EXPLOITER_SOURCE, env)
    twin = clone(table)
    assert twin == table and table._sims and not twin._sims
    assert evaluate(EXPLOITER_SOURCE, env_for(me=EXPLOITER_SOURCE, game=twin)) == (
        evaluate(EXPLOITER_SOURCE, env)
    )


# Every source is keyed by its text, so sources of equal text share a
# record however they were written.
_PROBED = "match sim(opp, self, 9) { halted(k) => bestresp(k) | exhausted => 2 }"
# ``_probe(30)`` with the probed text quoted in place of ``opp``.
_QUOTING = f'match sim("{_PROBED}", opp, 30) {{ halted(k) => k | exhausted => 0 }}'


def test_separately_parsed_quotes_of_one_text_share_a_record(child_runs):
    table = rps()
    for _ in range(2):
        child_runs.clear()
        _on_warm_table(table, parse_program(_QUOTING), "const 1", 1000, Side.ROW)
    # The second parse's quote reads what the first one's run recorded.
    assert not child_runs


def test_a_quote_and_a_given_source_of_one_text_share_a_record(child_runs):
    table = rps()
    # The opponent's text, simulated at COL against itself...
    _on_warm_table(table, _probe(30), _PROBED, 1000, Side.ROW)
    child_runs.clear()
    # ...and the same text quoted at COL, against the same opponent.
    _on_warm_table(table, _QUOTING, _PROBED, 1000, Side.COL)
    assert not child_runs
