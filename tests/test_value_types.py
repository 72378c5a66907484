"""The syntax-tree nodes and the library's records and tables: how they are
built, printed, compared, hashed, protected and copied.

Each reads and prints as the frozen dataclass it once was.  Nodes compare
by type and fields, a quote's text taking no part.  ``GameTable``,
``Crosstable`` and ``MixedStrategy`` compare their arrays cell by cell, NaN
equal to NaN, cannot be hashed, and keep their arrays read-only in copies.
"""
import copy
import pickle
import sys

import numpy as np
import pytest

from opencomp import (
    ENGINES3_TEXT, ClassKind, Classification, Crosstable, FictitiousPlayResult,
    GameTable, MixedStrategy, Mode, ProgramLearner, SIWitnesses, StrategyProgram,
    TournamentReport, classify, dice, fictitious_play, parse_crosstable,
    parse_program, rps, run_tournament,
)
from opencomp.dsl import (
    _MAX_NESTING, BestResp, Grow, If, Literal, Loop, Match, Sim, SrcOpp,
    SrcQuoted, SrcSelf, Var, _parse,
)

_SOURCE = (
    'match sim(opp, "const   2", rest) '
    "{ halted(k) => if k == 1 then bestresp(k) else 3 | exhausted => loop }"
)


def _report():
    learners = [ProgramLearner("a", "const 1"), ProgramLearner("b", "const 2")]
    return run_tournament(rps(), learners, fuel=10)


def _quote():
    return parse_program(_SOURCE).ast.scrutinee.adversary


# Each kind, built as the library builds it, and its repr.
_REPRS = [
    pytest.param(
        lambda: parse_program(_SOURCE),
        "StrategyProgram(source='match sim(opp, \"const   2\", rest) { halted(k) "
        "=> if k == 1 then bestresp(k) else 3 | exhausted => loop }', "
        "ast=Match(scrutinee=Sim(target=SrcOpp(), adversary=SrcQuoted("
        "program=Literal(value=2, bare=False)), budget='rest'), var='k', "
        "on_halted=If(left=Var(name='k'), op='==', right=Literal(value=1, "
        "bare=True), then=BestResp(arg=Var(name='k')), otherwise=Literal("
        "value=3, bare=True)), on_exhausted=Loop()))",
        id="program",
    ),
    pytest.param(
        lambda: Sim(SrcSelf(), SrcOpp(), 5),
        "Sim(target=SrcSelf(), adversary=SrcOpp(), budget=5)", id="sim",
    ),
    pytest.param(lambda: Grow(), "Grow()", id="grow"),
    pytest.param(
        rps,
        "GameTable(name='rps', entries=array([[ 0, -1,  1],\n"
        "       [ 1,  0, -1],\n"
        "       [-1,  1,  0]], dtype=int8), symmetric_flag=True, "
        "labels_rows=('R', 'P', 'S'), labels_cols=('R', 'P', 'S'))",
        id="game",
    ),
    pytest.param(
        lambda: GameTable("t", [[1]]),
        "GameTable(name='t', entries=array([[1]], dtype=int8), "
        "symmetric_flag=False, labels_rows=None, labels_cols=None)",
        id="game-defaults",
    ),
    pytest.param(
        lambda: parse_crosstable("names,A,B\nA,,0.5\nB,0.5,\n"),
        "Crosstable(names=('A', 'B'), scores=array([[nan, 0.5],\n"
        "       [0.5, nan]]))",
        id="crosstable",
    ),
    pytest.param(
        lambda: MixedStrategy.uniform(2),
        "MixedStrategy(weights=array([0.5, 0.5]))", id="mixture",
    ),
    pytest.param(
        lambda: classify(rps()),
        "Classification(kind=<ClassKind.STRONGLY_INTRANSITIVE: "
        "'StronglyIntransitive'>, dominator=None, witnesses=SIWitnesses("
        "beats_row={1: 2, 2: 3, 3: 1}, beats_col={1: 2, 2: 3, 3: 1}))",
        id="classification",
    ),
    pytest.param(
        lambda: fictitious_play(rps(), iterations=10),
        "FictitiousPlayResult(p1=MixedStrategy(weights=array([0.2, 0.3, 0.5])), "
        "p2=MixedStrategy(weights=array([0.2, 0.3, 0.5])), value=0.0, "
        "exploitability=0.4, iterations=10, converged=False)",
        id="fictitious-play",
    ),
    pytest.param(
        _report,
        "TournamentReport(game_name='rps', learner_names=('a', 'b'), fuel=10, "
        "mode=<Mode.STRICT: 'strict'>, records=(MatchRecord(learner1='a', "
        "learner2='b', side1=SideRecord(outcome=<EvalKind.HALTED: 'Halted'>, "
        "strategy=1, witness=None, fuel_used=1), side2=SideRecord(outcome="
        "<EvalKind.HALTED: 'Halted'>, strategy=2, witness=None, fuel_used=1), "
        "result=<MatchResult.WIN2: 'Win2'>),), tallies={'a': {'wins': 0, "
        "'draws': 0, 'losses': 1, 'undecided': 0}, 'b': {'wins': 1, 'draws': 0, "
        "'losses': 0, 'undecided': 0}}, universal_winner='b')",
        id="report",
    ),
]
# Each kind again, with one of its fields.
_BUILT = [
    (case.values[0], field) for case, field in zip(_REPRS, [
        "ast", "budget", "note", "entries", "name", "scores", "weights",
        "kind", "p1", "records",
    ])
] + [
    (_quote, "text"), (lambda: Var("k"), "name"), (SrcOpp, "note"),
    (lambda: parse_crosstable("names,A\nA,\n"), "names"),
    (lambda: MixedStrategy.pure(3, 2), "weights"),
]
_BUILDERS = [build for build, _ in _BUILT]


def _same(a, b) -> bool:
    """Equal values of the same type."""
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("build, text", _REPRS)
def test_repr_is_the_dataclass_text(build, text):
    assert repr(build()) == text


_TABLE = rps()
_WEIGHTS = np.array([0.25, 0.75])


@pytest.mark.parametrize("positional, keyword", [
    (lambda: Literal(5), lambda: Literal(value=5, bare=False)),
    (lambda: Literal(5, True), lambda: Literal(bare=True, value=5)),
    (lambda: Var("k"), lambda: Var(name="k")),
    (lambda: BestResp(Var("k")), lambda: BestResp(arg=Var("k"))),
    (lambda: SrcQuoted(Literal(2)),
     lambda: SrcQuoted(program=Literal(2), text="const 2")),
    (lambda: Sim(SrcOpp(), SrcSelf(), "rest"),
     lambda: Sim(budget="rest", adversary=SrcSelf(), target=SrcOpp())),
    (lambda: Match(Sim(SrcOpp(), SrcOpp(), 3), "k", Var("k"), Literal(1)),
     lambda: Match(scrutinee=Sim(SrcOpp(), SrcOpp(), 3), var="k",
                   on_halted=Var("k"), on_exhausted=Literal(1))),
    (lambda: If(Var("k"), "<", Literal(2), Grow(), Loop()),
     lambda: If(left=Var("k"), op="<", right=Literal(2), then=Grow(),
                otherwise=Loop())),
    (lambda: StrategyProgram("k", Var("k")),
     lambda: StrategyProgram(ast=Var("k"), source="k")),
    (lambda: GameTable("t", [[0, 1], [-1, 0]], True, ["x", "y"]),
     lambda: GameTable(name="t", entries=[[0, 1], [-1, 0]], symmetric_flag=True,
                       labels_rows=("x", "y"), labels_cols=None)),
    (lambda: GameTable("t", [[1]]),
     lambda: GameTable(name="t", entries=np.ones((1, 1)), symmetric_flag=False,
                       labels_rows=None, labels_cols=None)),
    (lambda: Crosstable(["A"], [[np.nan]]),
     lambda: Crosstable(scores=[[np.nan]], names=("A",))),
    (lambda: MixedStrategy(_WEIGHTS), lambda: MixedStrategy(weights=[0.25, 0.75])),
    (lambda: Classification(ClassKind.OTHER),
     lambda: Classification(kind=ClassKind.OTHER, dominator=None, witnesses=None)),
    (lambda: Classification(ClassKind.STRONGLY_INTRANSITIVE, None,
                            SIWitnesses({1: 2}, {1: 2})),
     lambda: Classification(witnesses=SIWitnesses({1: 2}, {1: 2}),
                            kind=ClassKind.STRONGLY_INTRANSITIVE)),
    (lambda: TournamentReport("g", ("a",), 3, Mode.DEADLINE, (), {}, None),
     lambda: TournamentReport(game_name="g", learner_names=("a",), fuel=3,
                              mode=Mode.DEADLINE, records=(), tallies={},
                              universal_winner=None)),
    (lambda: FictitiousPlayResult(MixedStrategy(_WEIGHTS), MixedStrategy([1.0]),
                                  0.5, 0.0, 7, True),
     lambda: FictitiousPlayResult(p1=MixedStrategy(_WEIGHTS),
                                  p2=MixedStrategy([1.0]), value=0.5,
                                  exploitability=0.0, iterations=7,
                                  converged=True)),
])
def test_keyword_positional_and_default_construction(positional, keyword):
    assert _same(positional(), keyword())


@pytest.mark.parametrize("kind, args", [
    (Literal, ()), (Var, ()), (BestResp, ()), (Sim, (SrcOpp(), SrcOpp())),
    (Match, (Loop(), "k", Loop())), (If, (Loop(), "<", Loop(), Loop())),
    (SrcQuoted, ()), (SrcOpp, (1,)), (SrcSelf, (1,)), (Loop, (1,)), (Grow, (1,)),
    (StrategyProgram, ("k",)), (GameTable, ("t",)), (Crosstable, (("A",),)),
    (MixedStrategy, ()), (Classification, ()),
    (FictitiousPlayResult, (1, 2, 3, 4, 5)),
    (TournamentReport, (1, 2, 3, 4, 5, 6)),
])
def test_a_missing_or_extra_argument_is_a_type_error(kind, args):
    with pytest.raises(TypeError):
        kind(*args)


def test_nodes_compare_by_type_and_fields():
    assert Loop() != Grow() and Grow() != Loop()
    assert SrcOpp() != SrcSelf() and SrcSelf() != SrcOpp()
    assert Loop() == Loop() and SrcOpp() == SrcOpp()
    assert Literal(1) != Literal(1, bare=True)
    assert Var("k") != "k" and Literal(1) != (1, False)
    assert BestResp(Literal(1)) != BestResp(Literal(2))
    # Built apart, equal, and with equal hashes.
    first, second = _parse(_SOURCE, 0), _parse(_SOURCE, 0)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert len({Loop(), Loop(), Grow(), SrcOpp(), SrcSelf(), SrcSelf()}) == 4


def test_a_quotes_text_is_outside_eq_hash_and_repr():
    spaced = _quote()
    plain = SrcQuoted(Literal(2))
    assert spaced.text == "const   2" and plain.text == "const 2"
    assert spaced == plain and hash(spaced) == hash(plain)
    assert repr(spaced) == repr(plain) == (
        "SrcQuoted(program=Literal(value=2, bare=False))"
    )
    assert SrcQuoted(Literal(2), "2") == plain != SrcQuoted(Literal(3))


@pytest.mark.parametrize("build, field", _BUILT)
def test_attributes_cannot_be_assigned_or_deleted(build, field):
    value = build()
    for name in (field, "note"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _same(build(), value)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("build", _BUILDERS)
def test_copies_are_equal_and_of_the_same_type(clone, build):
    value = build()
    twin = clone(value)
    assert type(twin) is type(value)
    assert _same(twin, value)
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_a_copied_quote_keeps_its_text(clone):
    assert clone(_quote()).text == "const   2"
    assert clone(parse_program(_SOURCE)).ast.scrutinee.adversary.text == "const   2"


def test_a_game_table_is_unhashable_and_compares_by_value():
    with pytest.raises(TypeError):
        hash(rps())
    assert rps() == rps() == GameTable(
        "rps", _TABLE.entries.astype(np.int64), True, ("R", "P", "S"), ("R", "P", "S")
    )
    assert rps() != GameTable("rps", _TABLE.entries, True)
    labels = ("R", "P", "S")
    assert rps() != GameTable("rps", -_TABLE.entries, True, labels, labels)


_CLONES = [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
]
_CLONE_IDS = ["copy", "deepcopy", "pickle"]
# Each kind that holds an array, and how to read the array.
_HOLDERS = [
    pytest.param(rps, lambda value: value.entries, id="game"),
    pytest.param(lambda: parse_crosstable(ENGINES3_TEXT), lambda value: value.scores,
                 id="crosstable"),
    pytest.param(lambda: MixedStrategy.uniform(3), lambda value: value.weights,
                 id="mixture"),
    pytest.param(lambda: fictitious_play(rps(), 100), lambda value: value.p1.weights,
                 id="fictitious-play"),
]


@pytest.mark.parametrize("build, array", _HOLDERS)
def test_values_holding_arrays_built_alike_compare_equal(build, array):
    first, second = build(), build()
    assert array(first) is not array(second)
    assert (first == second) is True and (first != second) is False


@pytest.mark.parametrize("clone", _CLONES, ids=_CLONE_IDS)
@pytest.mark.parametrize("build, array", _HOLDERS)
def test_copies_of_values_holding_arrays_compare_equal_and_stay_read_only(
    clone, build, array
):
    value = build()
    twin = clone(value)
    assert (twin == value) is True and (value == twin) is True
    assert not array(twin).flags.writeable
    with pytest.raises(ValueError):
        array(twin)[0] = 0


_THREE = "names,A,B,C\nA,,0.6,0.4\nB,0.4,,0.6\nC,0.6,0.4,\n"


@pytest.mark.parametrize("build, other", [
    (lambda: parse_crosstable(_THREE),
     lambda: parse_crosstable(_THREE.replace("0.6", "0.7").replace("0.4", "0.3"))),
    (lambda: parse_crosstable(_THREE),
     lambda: parse_crosstable(_THREE.replace("0.6,0.4,\n", ",0.4,\n")
                              .replace("A,,0.6,0.4", "A,,0.6,"))),
    (lambda: parse_crosstable(_THREE), lambda: parse_crosstable(_THREE.replace("C", "D"))),
    (lambda: parse_crosstable(_THREE), lambda: parse_crosstable("names,A\nA,\n")),
    (lambda: MixedStrategy.uniform(3), lambda: MixedStrategy.pure(3, 1)),
    (lambda: MixedStrategy.uniform(3), lambda: MixedStrategy.uniform(2)),
    (lambda: fictitious_play(rps(), 100), lambda: fictitious_play(rps(), 10)),
    (lambda: fictitious_play(rps(), 100), lambda: fictitious_play(dice(), 100)),
], ids=["scores", "blank-cell", "names", "size", "weights", "weight-count",
        "rounds", "game"])
def test_values_holding_different_arrays_compare_unequal(build, other):
    first, second = build(), other()
    assert (first == second) is False and (second == first) is False
    assert (first != second) is True


@pytest.mark.parametrize("build", [
    rps, lambda: parse_crosstable(ENGINES3_TEXT), lambda: MixedStrategy.uniform(3),
], ids=["game", "crosstable", "mixture"])
def test_values_holding_arrays_are_unhashable(build):
    with pytest.raises(TypeError):
        hash(build())


def _least_limit(op) -> int:
    """The lowest recursion limit under which ``op()`` runs."""
    old = sys.getrecursionlimit()
    low, high = 1, old + 4 * _MAX_NESTING
    while low < high:
        middle = (low + high) // 2
        try:
            sys.setrecursionlimit(middle)
            op()
        except RecursionError:
            low = middle + 1
        else:
            high = middle
        finally:
            sys.setrecursionlimit(old)
    return low


@pytest.mark.parametrize("chain", [
    "bestresp(" * _MAX_NESTING + "1" + ")" * _MAX_NESTING,
    "if " * _MAX_NESTING + "1" + " == 1 then 1 else 2" * _MAX_NESTING,
    "match " * (_MAX_NESTING - 1) + "sim(opp, self, 1)"
    + " { halted(k) => k | exhausted => 2 }" * (_MAX_NESTING - 1),
], ids=["bestresp", "if", "match"])
def test_deep_trees_hash_and_compare_in_two_and_three_frames_a_level(chain):
    # The parser's deepest trees, built apart so that ``==`` walks them.
    deep, again, leaf, other = _parse(chain, 0), _parse(chain, 0), Literal(1), Literal(1)
    assert deep is not again
    levels = _MAX_NESTING
    hashing = _least_limit(lambda: hash(deep)) - _least_limit(lambda: hash(leaf))
    comparing = (_least_limit(lambda: deep == again)
                 - _least_limit(lambda: leaf == other))
    assert hashing <= 2 * levels
    assert comparing <= 3 * levels
