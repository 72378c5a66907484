"""The records an evaluation, a simulation and a match hand back.

The hot paths build ``EvalResult``, ``SimOut``, ``SideRecord`` and
``MatchRecord`` with ``tuple.__new__``, which checks neither type nor
arity.  So every path is checked here for exactly its named tuple, with
every field, and for the ``repr`` it has always had.
"""
import pytest

from opencomp import (
    ORACLE_SOURCE, EvalEnv, EvalResult, MatchRecord, OracleWinner,
    ProgramLearner, Side, SideRecord, evaluate, rps, run_match,
)
from opencomp.arena import _run_side
from opencomp.dsl import SimOut

_PROBE = "match sim(opp, self, 10) { halted(k) => bestresp(k) | exhausted => 1 }"


def _env(game, me, opponent="const 1"):
    return EvalEnv(game, Side.ROW, opponent, me, 50)


def _evaluated(source):
    return evaluate(source, _env(rps(), source))


def _side(source):
    return _run_side(ProgramLearner("p", source), _env(rps(), source))


def _oracle(opponent):
    return OracleWinner().play(_env(rps(), ORACLE_SOURCE, opponent))


def _simulated():
    """What the parent of a ``sim`` that halts saw, read from the record."""
    game = rps()
    evaluate(_PROBE, _env(game, _PROBE))
    (record,) = game._sims.values()
    return record[1]


def _match(first, second):
    return run_match(rps(), first, second, fuel=50)


_HALTED = "outcome=<EvalKind.HALTED: 'Halted'>"
_FAULT = "outcome=<EvalKind.RUNTIME_FAULT: 'RuntimeFault'>"
_INVALID = "outcome=<EvalKind.INVALID_STRATEGY: 'InvalidStrategy'>"

_CASES = [
    pytest.param(
        lambda: _evaluated("const 2"), EvalResult,
        "EvalResult(kind=<EvalKind.HALTED: 'Halted'>, strategy=2, witness=None,"
        " fuel_used=1)", id="evaluate-halted",
    ),
    pytest.param(
        lambda: _evaluated("grow"), EvalResult,
        "EvalResult(kind=<EvalKind.FUEL_EXHAUSTED: 'FuelExhausted'>, "
        "strategy=None, witness=None, fuel_used=50)", id="evaluate-exhausted",
    ),
    pytest.param(
        lambda: _evaluated("loop"), EvalResult,
        "EvalResult(kind=<EvalKind.PROVEN_NONHALTING: 'ProvenNonHalting'>, "
        "strategy=None, witness=(1, 2), fuel_used=1)", id="evaluate-proven",
    ),
    pytest.param(
        lambda: _evaluated(_PROBE), EvalResult,
        "EvalResult(kind=<EvalKind.HALTED: 'Halted'>, strategy=2, witness=None,"
        " fuel_used=7)", id="evaluate-after-a-sim",
    ),
    pytest.param(
        _simulated, SimOut, "SimOut(tag='halted', value=1)", id="sim-halted",
    ),
    pytest.param(
        lambda: _side("const 2"), SideRecord,
        f"SideRecord({_HALTED}, strategy=2, witness=None, fuel_used=1)",
        id="side-halted",
    ),
    pytest.param(
        lambda: _side("grow"), SideRecord,
        "SideRecord(outcome=<EvalKind.FUEL_EXHAUSTED: 'FuelExhausted'>, "
        "strategy=None, witness=None, fuel_used=50)", id="side-exhausted",
    ),
    pytest.param(
        lambda: _side("loop"), SideRecord,
        "SideRecord(outcome=<EvalKind.PROVEN_NONHALTING: 'ProvenNonHalting'>, "
        "strategy=None, witness=(1, 2), fuel_used=1)", id="side-proven",
    ),
    pytest.param(
        lambda: _side("bestresp(const 7)"), SideRecord,
        f"SideRecord({_FAULT}, strategy=None, witness=None, fuel_used=3)",
        id="side-fault",
    ),
    pytest.param(
        lambda: _side("sim(opp, self, rest)"), SideRecord,
        f"SideRecord({_FAULT}, strategy=None, witness=None, fuel_used=2)",
        id="side-fault-on-a-sim-value",
    ),
    pytest.param(
        lambda: _side("const 9"), SideRecord,
        f"SideRecord({_INVALID}, strategy=None, witness=None, fuel_used=1)",
        id="side-invalid-strategy",
    ),
    pytest.param(
        lambda: _oracle("const 2"), EvalResult,
        "EvalResult(kind=<EvalKind.HALTED: 'Halted'>, strategy=3, witness=None,"
        " fuel_used=1)", id="oracle-halted",
    ),
    pytest.param(
        lambda: _oracle("loop"), EvalResult,
        "EvalResult(kind=<EvalKind.HALTED: 'Halted'>, strategy=1, "
        "witness=(1, 2), fuel_used=1)", id="oracle-against-a-proof",
    ),
    pytest.param(
        lambda: _oracle("grow"), EvalResult,
        "EvalResult(kind=<EvalKind.FUEL_EXHAUSTED: 'FuelExhausted'>, "
        "strategy=None, witness=None, fuel_used=50)", id="oracle-exhausted",
    ),
    pytest.param(
        lambda: _match(OracleWinner(), ProgramLearner("two", "const 2")),
        MatchRecord,
        "MatchRecord(learner1='oracle', learner2='two', "
        f"side1=SideRecord({_HALTED}, strategy=3, witness=None, fuel_used=1), "
        f"side2=SideRecord({_HALTED}, strategy=2, witness=None, fuel_used=1), "
        "result=<MatchResult.WIN1: 'Win1'>)", id="match-oracle",
    ),
    pytest.param(
        lambda: _match(ProgramLearner("bad", "const 9"),
                       ProgramLearner("fault", "bestresp(const 7)")),
        MatchRecord,
        "MatchRecord(learner1='bad', learner2='fault', "
        f"side1=SideRecord({_INVALID}, strategy=None, witness=None, "
        "fuel_used=1), "
        f"side2=SideRecord({_FAULT}, strategy=None, witness=None, fuel_used=3),"
        " result=<MatchResult.UNDECIDED: 'Undecided'>)", id="match-undecided",
    ),
]


@pytest.mark.parametrize("make, kind, text", _CASES)
def test_each_path_returns_its_exact_record(make, kind, text):
    record = make()
    assert type(record) is kind
    assert len(record) == len(kind._fields)
    # Equal to the record the public constructor builds from its fields.
    assert record == kind(*record)
    assert repr(record) == text
    if kind is MatchRecord:
        for side in (record.side1, record.side2):
            assert type(side) is SideRecord
            assert len(side) == len(SideRecord._fields)
