import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opencomp.dsl as dsl
from conftest import random_symmetric_table, random_table
from opencomp import (
    EXPLOITER_SOURCE, EvalEnv, EvalKind, EvalResult, GameTable, ParseError,
    RuntimeFault, Side, evaluate, parse_learner_file, parse_program, pretty,
    role_swapped, rps,
)
from opencomp.dsl import (
    BestResp, Grow, If, Literal, Loop, Match, Sim, SimOut, SrcOpp, SrcQuoted,
    SrcSelf, Var,
)


def env_for(opponent="const 1", me="const 1", fuel=1000, side=Side.ROW,
            game=None):
    return EvalEnv(
        game=rps() if game is None else game,
        side=side,
        opponent_source=opponent,
        self_source=me,
        fuel=fuel,
    )


class TestParser:
    def test_const(self):
        assert parse_program("const 2").ast == Literal(2)

    def test_bare_int(self):
        assert parse_program("7").ast == Literal(7, bare=True)

    def test_identifier(self):
        assert parse_program("k").ast == Var("k")

    def test_loop_and_grow(self):
        assert parse_program("loop").ast == Loop()
        assert parse_program("grow").ast == Grow()

    def test_bestresp(self):
        assert parse_program("bestresp(const 1)").ast == BestResp(Literal(1))

    def test_sim_sources_and_budgets(self):
        tree = parse_program("sim(opp, self, rest)").ast
        assert tree == Sim(SrcOpp(), SrcSelf(), "rest")
        tree = parse_program("sim(self, opp, 25)").ast
        assert tree == Sim(SrcSelf(), SrcOpp(), 25)

    def test_quoted_program_source(self):
        tree = parse_program('sim("const 3", opp, 5)').ast
        assert tree == Sim(SrcQuoted(Literal(3)), SrcOpp(), 5)

    def test_exploiter_shape(self):
        tree = parse_program(EXPLOITER_SOURCE).ast
        assert tree == Match(
            Sim(SrcOpp(), SrcSelf(), "rest"),
            "k",
            BestResp(Var("k")),
            Literal(1),
        )

    def test_if_comparators(self):
        for op in ("==", "<", ">"):
            tree = parse_program(f"if 1 {op} 2 then const 1 else const 2").ast
            assert tree.op == op

    def test_whitespace_and_newlines_are_free(self):
        a = parse_program("match sim(opp,self,rest){halted(k)=>k|exhausted=>const 1}")
        b = parse_program(
            "match sim( opp , self , rest )\n"
            "  { halted( k ) => k\n"
            "  | exhausted => const 1 }"
        )
        assert a.ast == b.ast

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_program("const x")
        assert err.value.line == 1
        with pytest.raises(ParseError) as err:
            parse_program("bestresp(\n  ?)")
        assert err.value.line == 2

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_program("const 1 const 2")

    def test_keywords_are_not_identifiers(self):
        with pytest.raises(ParseError):
            parse_program("match sim(opp, self, rest) { halted(loop) => 1 | exhausted => 2 }")

    def test_bad_budget(self):
        with pytest.raises(ParseError):
            parse_program("sim(opp, self, opp)")

    def test_unterminated_quote(self):
        with pytest.raises(ParseError):
            parse_program('sim("const 1, opp, 5)')

    def test_bad_escape(self):
        with pytest.raises(ParseError):
            parse_program(r'sim("const \n 1", opp, 5)')

    def test_quoted_program_must_parse(self):
        with pytest.raises(ParseError) as err:
            parse_program('sim("const", opp, 5)')
        assert "quoted" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_program("")

    def test_learner_file(self):
        name, program = parse_learner_file("learner alpha\nconst 2\n")
        assert name == "alpha"
        assert program.ast == Literal(2)

    def test_learner_file_bad_header(self):
        with pytest.raises(ParseError):
            parse_learner_file("alpha\nconst 2\n")
        with pytest.raises(ParseError):
            parse_learner_file("learner a b\nconst 2\n")

    def test_learner_file_needs_body(self):
        with pytest.raises(ParseError):
            parse_learner_file("learner alpha\n")

    def test_learner_file_errors_give_the_line_of_the_file(self):
        with pytest.raises(ParseError) as err:
            parse_learner_file("learner bad\nconst 1 2\n")
        assert str(err.value) == "trailing content '2' after program (line 2, col 9)"
        assert (err.value.line, err.value.column) == (2, 9)
        # The header's errors already gave the file's lines.
        for text, line in [("bad\nconst 2\n", 1), ("learner bad\n \n", 2)]:
            with pytest.raises(ParseError) as err:
                parse_learner_file(text)
            assert err.value.line == line

    @pytest.mark.parametrize("text, message", [
        ("learner a\nconst\x0c1", "unexpected character '\\x0c' (line 2, col 6)"),
        ("learner a\nconst\u20281", "unexpected character '\\u2028' (line 2, col 6)"),
        ("learner a\nconst 1\x85", "unexpected character '\\x85' (line 2, col 8)"),
        ("learner a\x1cconst 2", "first line must be 'learner <name>' (line 1)"),
        ("learner a\u2029const 2", "first line must be 'learner <name>' (line 1)"),
        ("", "empty learner file"),
    ], ids=["ff", "u2028", "nel", "fs-in-header", "u2029-in-header", "empty"])
    def test_learner_file_lines_end_only_at_newlines(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_learner_file(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, source", [
        ("learner a\nconst 1\n", "const 1"),
        ("learner a\nconst 1", "const 1"),
        ("learner a\nconst 1\n\n", "const 1\n"),
        ("learner a\r\nconst\r\n1\r\n", "const\r\n1"),
        ("learner a\nconst\r1\r", "const\r1\r"),
    ], ids=["lf", "no-final-break", "blank-last-line", "crlf", "cr"])
    def test_learner_file_program_is_the_rest_as_written(self, text, source):
        name, program = parse_learner_file(text)
        assert (name, program.source, program.ast) == ("a", source, Literal(1))


# Strategy-program generator used by the round-trip and machine properties.
_names = st.sampled_from(["k", "n", "x"])
_leaves = st.one_of(
    st.integers(1, 3).map(lambda v: Literal(v)),
    st.integers(1, 3).map(lambda v: Literal(v, bare=True)),
    _names.map(Var),
    st.just(Loop()),
    st.just(Grow()),
)


def _compound(children):
    srcs = st.one_of(
        st.just(SrcOpp()), st.just(SrcSelf()), children.map(SrcQuoted)
    )
    budgets = st.one_of(st.just("rest"), st.integers(0, 30))
    return st.one_of(
        children.map(BestResp),
        st.builds(Sim, srcs, srcs, budgets),
        st.builds(
            Match, children, _names, children, children
        ),
        st.builds(
            If, children, st.sampled_from(["==", "<", ">"]), children,
            children, children,
        ),
    )


program_trees = st.recursive(_leaves, _compound, max_leaves=12)


class TestPretty:
    def test_canonical_sample(self):
        assert pretty(parse_program(EXPLOITER_SOURCE).ast) == EXPLOITER_SOURCE

    def test_quoted_escaping(self):
        inner = 'match sim("const 1", opp, 3) { halted(k) => k | exhausted => 2 }'
        outer_tree = Sim(SrcQuoted(parse_program(inner).ast), SrcOpp(), 9)
        text = pretty(outer_tree)
        assert '\\"' in text
        assert parse_program(text).ast == outer_tree

    def test_doubly_nested_quotes(self):
        tree = SrcQuoted(Sim(SrcQuoted(Literal(1)), SrcSelf(), "rest"))
        text = pretty(Sim(tree, SrcOpp(), 2))
        assert parse_program(text).ast == Sim(tree, SrcOpp(), 2)

    @given(program_trees)
    @settings(max_examples=150)
    def test_round_trip(self, tree):
        assert parse_program(pretty(tree)).ast == tree

    @pytest.mark.parametrize("node, culprit", [
        (None, None),
        ("const 1", "const 1"),
        (parse_program("const 1"), parse_program("const 1")),
        (BestResp(3), 3),
        (Sim(SrcOpp(), "opp", "rest"), "opp"),
    ], ids=["none", "text", "program", "int-inside", "text-as-source"])
    def test_a_non_node_is_a_type_error(self, node, culprit):
        with pytest.raises(TypeError) as err:
            pretty(node)
        assert str(err.value) == f"not a syntax node: {culprit!r}"


class TestEvaluateBasics:
    def test_const_halts_in_one_step(self):
        result = evaluate("const 2", env_for())
        assert result.kind is EvalKind.HALTED
        assert result.strategy == 2
        assert result.fuel_used == 1

    def test_const_halts_with_exactly_one_fuel(self):
        result = evaluate("const 2", env_for(fuel=1))
        assert result.kind is EvalKind.HALTED

    def test_zero_fuel_exhausts_immediately(self):
        result = evaluate("const 2", env_for(fuel=0))
        assert result.kind is EvalKind.FUEL_EXHAUSTED
        assert result.fuel_used == 0

    def test_bare_int_costs_one_step(self):
        assert evaluate("5", env_for()).fuel_used == 1

    def test_bestresp_costs_three_steps(self):
        result = evaluate("bestresp(const 1)", env_for())
        assert result.strategy == 2
        assert result.fuel_used == 3

    def test_if_costs_six_steps(self):
        result = evaluate("if 1 == 1 then const 2 else const 3", env_for())
        assert result.strategy == 2
        assert result.fuel_used == 6

    def test_if_branches(self):
        assert evaluate("if 1 < 2 then const 1 else const 2", env_for()).strategy == 1
        assert evaluate("if 1 > 2 then const 1 else const 2", env_for()).strategy == 2
        assert evaluate("if 2 == 3 then const 1 else const 2", env_for()).strategy == 2

    def test_range_of_final_value_is_not_checked_here(self):
        result = evaluate("const 9", env_for())
        assert result.kind is EvalKind.HALTED
        assert result.strategy == 9

    def test_deterministic(self):
        for source in ("const 1", EXPLOITER_SOURCE, "grow", "loop"):
            first = evaluate(source, env_for(opponent=EXPLOITER_SOURCE, fuel=400))
            second = evaluate(source, env_for(opponent=EXPLOITER_SOURCE, fuel=400))
            assert first == second


class TestNonHalting:
    def test_loop_is_proven(self):
        result = evaluate("loop", env_for())
        assert result.kind is EvalKind.PROVEN_NONHALTING
        assert result.witness == (1, 2)
        assert result.fuel_used == 1

    def test_grow_exhausts_without_proof(self):
        result = evaluate("grow", env_for(fuel=700))
        assert result.kind is EvalKind.FUEL_EXHAUSTED
        assert result.witness is None
        assert result.fuel_used == 700

    def test_prove_nonhalt(self):
        proven = evaluate("loop", env_for())
        assert (proven.kind, proven.witness) == (
            EvalKind.PROVEN_NONHALTING, (1, 2)
        )
        halted = evaluate("const 1", env_for())
        assert (halted.kind, halted.witness) == (EvalKind.HALTED, None)
        grown = evaluate("grow", env_for(fuel=200))
        assert (grown.kind, grown.witness) == (EvalKind.FUEL_EXHAUSTED, None)
        with pytest.raises(RuntimeFault):
            evaluate("k", env_for())

    def test_witness_steps_are_ordered(self):
        witness = evaluate("loop", env_for()).witness
        assert witness[0] < witness[1]


class TestSim:
    def test_halted_branch_binds_the_strategy(self):
        source = "match sim(opp, self, 50) { halted(k) => k | exhausted => const 9 }"
        result = evaluate(source, env_for(opponent="const 3", me=source))
        assert result.strategy == 3

    def test_proven_child_reads_as_exhausted(self):
        source = "match sim(opp, self, rest) { halted(k) => const 1 | exhausted => const 2 }"
        result = evaluate(source, env_for(opponent="loop", me=source))
        assert result.strategy == 2
        # the proof fires after a couple of steps, the rest of the fuel is kept
        assert result.fuel_used < 20

    def test_integer_budget_exhaustion_is_observable(self):
        source = "match sim(opp, self, 50) { halted(k) => const 1 | exhausted => const 2 }"
        result = evaluate(source, env_for(opponent="grow", me=source, fuel=1000))
        assert result.strategy == 2
        # 50 for the child plus a handful of steps around it
        assert 50 < result.fuel_used < 70

    def test_rest_budget_exhaustion_is_not_observable(self):
        source = "match sim(opp, self, rest) { halted(k) => const 1 | exhausted => const 2 }"
        result = evaluate(source, env_for(opponent="grow", me=source, fuel=1000))
        assert result.kind is EvalKind.FUEL_EXHAUSTED
        assert result.fuel_used == 1000

    def test_unparseable_opponent_reads_as_exhausted(self):
        source = "match sim(opp, self, 50) { halted(k) => const 1 | exhausted => const 2 }"
        result = evaluate(source, env_for(opponent="not ) a ( program", me=source))
        assert result.strategy == 2

    def test_faulting_child_reads_as_exhausted(self):
        source = "match sim(opp, self, 50) { halted(k) => const 1 | exhausted => const 2 }"
        result = evaluate(source, env_for(opponent="bestresp(const 7)", me=source))
        assert result.strategy == 2

    def test_quoted_target_runs_on_own_side(self):
        # simulating one's own quoted rock against the rival, then countering
        source = 'match sim("const 1", opp, 20) { halted(k) => bestresp(k) | exhausted => const 3 }'
        result = evaluate(source, env_for(opponent="const 2", me=source))
        assert result.strategy == 2

    def test_opp_target_swaps_seats(self):
        # on pennies the seats matter; simulate the rival on the column seat
        from opencomp import pennies
        source = "match sim(opp, self, 30) { halted(k) => k | exhausted => const 2 }"
        result = evaluate(
            source,
            env_for(opponent="const 2", me=source, game=pennies(), side=Side.ROW),
        )
        assert result.strategy == 2

    def test_sim_self_spirals_into_exhaustion(self):
        source = "match sim(self, opp, rest) { halted(k) => k | exhausted => const 1 }"
        result = evaluate(source, env_for(opponent="const 1", me=source, fuel=300))
        assert result.kind is EvalKind.FUEL_EXHAUSTED
        assert result.fuel_used == 300

    def test_mutual_simulation_burns_all_fuel(self):
        result = evaluate(
            EXPLOITER_SOURCE,
            env_for(opponent=EXPLOITER_SOURCE, me=EXPLOITER_SOURCE, fuel=2000),
        )
        assert result.kind is EvalKind.FUEL_EXHAUSTED
        assert result.fuel_used == 2000

    def test_nested_budgets_are_clipped_by_the_parent(self):
        # child asks for 500 but the top level only has 40
        source = "match sim(opp, self, 500) { halted(k) => const 1 | exhausted => const 2 }"
        result = evaluate(source, env_for(opponent="grow", me=source, fuel=40))
        assert result.kind is EvalKind.FUEL_EXHAUSTED
        assert result.fuel_used == 40

    def test_rebinding_shadows_outer_variable(self):
        source = (
            'match sim("const 2", opp, 10) { halted(k) => '
            'match sim("const 3", opp, 10) { halted(k) => k | exhausted => const 9 } '
            '| exhausted => const 9 }'
        )
        result = evaluate(source, env_for())
        assert result.strategy == 3


class TestFaults:
    def test_unbound_identifier(self):
        with pytest.raises(RuntimeFault) as err:
            evaluate("k", env_for())
        assert err.value.fuel_used == 1

    def test_bestresp_out_of_range(self):
        with pytest.raises(RuntimeFault):
            evaluate("bestresp(const 9)", env_for())

    # A simulation's value is no number: it can only be matched on.

    def test_bestresp_on_sim_outcome(self):
        with pytest.raises(RuntimeFault) as err:
            evaluate("bestresp(sim(opp, self, 10))", env_for(opponent="const 1"))
        assert str(err.value) == "best response applied to a non-index"

    def test_match_on_plain_integer(self):
        with pytest.raises(RuntimeFault) as err:
            evaluate(
                "match const 1 { halted(k) => k | exhausted => const 1 }",
                env_for(),
            )
        assert str(err.value) == "match on a non-simulation value"

    def test_comparison_on_sim_outcome(self):
        with pytest.raises(RuntimeFault) as err:
            evaluate(
                "if sim(opp, self, 10) == 1 then const 1 else const 2",
                env_for(opponent="const 1"),
            )
        assert str(err.value) == "comparison on a non-integer"

    def test_sim_outcome_on_the_right_of_a_comparison(self):
        with pytest.raises(RuntimeFault) as err:
            evaluate(
                "if 1 < sim(opp, self, 10) then const 1 else const 2",
                env_for(opponent="const 1"),
            )
        assert str(err.value) == "comparison on a non-integer"

    def test_sim_outcome_as_final_value(self):
        with pytest.raises(RuntimeFault) as err:
            evaluate("sim(opp, self, 10)", env_for(opponent="const 1"))
        assert str(err.value) == "program finished without a strategy index"

    def test_fault_reports_fuel(self):
        try:
            evaluate("bestresp(const 9)", env_for())
        except RuntimeFault as fault:
            assert 0 < fault.fuel_used <= 3


def _scanned_reply(table: GameTable, side: Side, j: int) -> int:
    """Best reply by a direct scan: the lowest index of the best payoff down
    column ``j`` for the row seat, or across row ``j`` for the column seat."""
    if side is Side.ROW:
        line = table.entries[:, j - 1]
        best = line.max()
    else:
        line = table.entries[j - 1, :]
        best = line.min()
    return int(np.flatnonzero(line == best)[0]) + 1


def _played_reply(table: GameTable, side: Side, j: int) -> int:
    result = evaluate(f"bestresp(const {j})", env_for(side=side, game=table))
    assert result.kind is EvalKind.HALTED
    return result.strategy


def _memo_tables() -> list[GameTable]:
    rng = np.random.default_rng(15)
    tied = GameTable(name="tied", entries=np.array(
        [[1, -1, -1, 0], [0, 1, 1, -1], [0, 1, 1, -1]], dtype=np.int8
    ))
    return [
        *(random_table(rng, 3, 7) for _ in range(4)),
        *(random_table(rng, 7, 3) for _ in range(2)),
        *(random_symmetric_table(rng, 5) for _ in range(4)),
        tied,
    ]


class TestBestReplyMemo:
    """``bestresp`` frames read replies from a memo on each table."""

    @pytest.mark.parametrize("table", _memo_tables())
    def test_replies_match_a_direct_scan_cold_and_warm(self, table):
        expected = {
            (side, j): _scanned_reply(table, side, j)
            for side in Side
            for j in range(1, table.side_count(side.opposite) + 1)
        }
        for _ in range(2):  # the first pass fills the memo, the second reads it
            played = {
                (side, j): _played_reply(table, side, j) for side, j in expected
            }
            assert played == expected
            assert len(table._replies) == table.rows + table.cols

    def test_ties_go_to_the_lowest_index(self):
        table = _memo_tables()[-1]
        for _ in range(2):
            # Rows 2 and 3 tie as the best reply to columns 2 and 3, and
            # columns 2 and 3 tie as the best reply to row 1.
            assert [_played_reply(table, Side.ROW, j) for j in (1, 2, 3, 4)] == [
                1, 2, 2, 1,
            ]
            assert [_played_reply(table, Side.COL, i) for i in (1, 2, 3)] == [
                2, 4, 4,
            ]

    def test_tables_of_one_shape_keep_their_own_replies(self):
        rng = np.random.default_rng(7)
        first = random_table(rng, 3, 7)
        second = role_swapped(first)
        pairs = [(side, j) for side in Side
                 for j in range(1, first.side_count(side.opposite) + 1)]
        differ = 0
        for _ in range(2):
            for side, j in pairs:
                one = _played_reply(first, side, j)
                two = _played_reply(second, side, j)
                assert one == _scanned_reply(first, side, j)
                assert two == _scanned_reply(second, side, j)
                differ += one != two
        assert differ > 0

    @pytest.mark.parametrize("side", list(Side))
    def test_out_of_range_still_faults_when_the_memo_is_warm(self, side):
        table = _memo_tables()[0]
        count = table.side_count(side.opposite)
        for j in range(1, count + 1):
            _played_reply(table, side, j)
        for j in (0, count + 1, 10 ** 17):
            with pytest.raises(RuntimeFault) as err:
                evaluate(f"bestresp(const {j})", env_for(side=side, game=table))
            assert str(err.value) == f"best response to out-of-range strategy {j}"
            assert err.value.fuel_used == 3
        assert len(table._replies) == count

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda table: pickle.loads(pickle.dumps(table)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_is_built_afresh(self, clone):
        # Through the constructor: read-only entries of its own and both
        # memos empty, so nothing can change its entries under a reply.
        table = _memo_tables()[-1]
        for side in Side:
            _played_reply(table, side, 1)
        evaluate(EXPLOITER_SOURCE, env_for(me=EXPLOITER_SOURCE, game=table))
        assert table._replies and table._sims
        twin = clone(table)
        assert twin == table
        assert not twin.entries.flags.writeable
        assert not twin._replies and not twin._sims
        for side in Side:
            assert _played_reply(twin, side, 1) == _scanned_reply(table, side, 1)


class TestEnvValidation:
    def test_negative_fuel(self):
        with pytest.raises(ValueError):
            env_for(fuel=-1)

    @pytest.mark.parametrize("build", [
        lambda env: EvalEnv(*env[:4], -1),
        lambda env: EvalEnv._make([*env[:4], -1]),
        lambda env: env._replace(fuel=-1),
        # Bytes that hold a negative fuel, as a tampered pickle would.
        lambda env: pickle.loads(pickle.dumps(_unchecked(*env[:4], -1))),
        lambda env: copy.copy(_unchecked(*env[:4], -1)),
        lambda env: copy.deepcopy(_unchecked(*env[:4], -1)),
    ], ids=["positional", "make", "replace", "unpickle", "copy", "deepcopy"])
    def test_every_way_to_build_an_env_checks_the_fuel(self, build):
        env = env_for(fuel=5)
        with pytest.raises(ValueError, match="^fuel must be non-negative$"):
            build(env)
        assert env._replace(fuel=0).fuel == EvalEnv._make([*env[:4], 0]).fuel == 0


def _unchecked(*fields) -> EvalEnv:
    """An ``EvalEnv`` built around its fuel check."""
    return tuple.__new__(EvalEnv, fields)


class TestRecords:
    """``EvalEnv``, ``EvalResult`` and ``SimOut`` are immutable named tuples
    that read, print and copy as the frozen dataclasses they replaced."""

    @pytest.mark.parametrize("name", ["fuel", "note"])
    def test_attributes_cannot_be_assigned(self, name):
        for record in (env_for(), EvalResult(EvalKind.HALTED, 1, None, 5),
                       SimOut("halted", 2)):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)

    def test_repr_is_the_dataclass_text(self):
        game = rps()
        env = EvalEnv(game, Side.COL, "const 1", "const 2", 5)
        assert repr(env) == (
            f"EvalEnv(game={game!r}, side=<Side.COL: 'col'>, "
            "opponent_source='const 1', self_source='const 2', fuel=5)"
        )
        assert repr(EvalResult(EvalKind.HALTED, 1, None, 5)) == (
            "EvalResult(kind=<EvalKind.HALTED: 'Halted'>, strategy=1, "
            "witness=None, fuel_used=5)"
        )
        assert repr(evaluate("loop", env_for())) == (
            "EvalResult(kind=<EvalKind.PROVEN_NONHALTING: 'ProvenNonHalting'>, "
            "strategy=None, witness=(1, 2), fuel_used=1)"
        )
        assert repr(SimOut("halted", 2)) == "SimOut(tag='halted', value=2)"
        assert repr(SimOut("exhausted")) == "SimOut(tag='exhausted', value=None)"

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal(self, clone):
        for record in (env_for(), evaluate("const 2", env_for()),
                       SimOut("exhausted")):
            twin = clone(record)
            assert twin == record
            assert type(twin) is type(record)

    def test_keyword_and_positional_construction(self):
        game = rps()
        env = EvalEnv(game=game, side=Side.ROW, opponent_source="const 1",
                      self_source="const 2", fuel=3)
        assert env == EvalEnv(game, Side.ROW, "const 1", "const 2", 3)
        assert tuple(env) == (
            env.game, env.side, env.opponent_source, env.self_source, env.fuel
        )
        assert EvalResult(EvalKind.HALTED, strategy=2, fuel_used=3) == (
            EvalResult(EvalKind.HALTED, 2, None, 3)
        )
        assert EvalResult(EvalKind.FUEL_EXHAUSTED) == EvalResult(
            kind=EvalKind.FUEL_EXHAUSTED, strategy=None, witness=None,
            fuel_used=0,
        )
        assert SimOut("exhausted") == SimOut(tag="exhausted", value=None)


_OPPONENTS = st.sampled_from(["const 1", "const 2", "loop", "grow", EXPLOITER_SOURCE])


def _outcome_key(program, env):
    """Collapse an evaluation to a comparable summary, faults included."""
    try:
        result = evaluate(program, env)
    except RuntimeFault:
        return ("fault",)
    if result.kind is EvalKind.HALTED:
        return ("halted", result.strategy)
    if result.kind is EvalKind.PROVEN_NONHALTING:
        return ("proven", result.witness)
    return ("exhausted",)


class TestMachineProperties:
    @given(program_trees, _OPPONENTS, st.integers(0, 300))
    @settings(max_examples=120, deadline=None)
    def test_fuel_used_never_exceeds_fuel(self, tree, opponent, fuel):
        source = pretty(tree)
        env = env_for(opponent=opponent, me=source, fuel=fuel)
        try:
            result = evaluate(source, env)
        except RuntimeFault as fault:
            assert fault.fuel_used <= fuel
            return
        assert result.fuel_used <= fuel
        if result.kind is EvalKind.FUEL_EXHAUSTED:
            assert result.fuel_used == fuel

    @given(program_trees, _OPPONENTS, st.integers(0, 200), st.integers(1, 400))
    @settings(max_examples=120, deadline=None)
    def test_settled_results_are_fuel_monotone(self, tree, opponent, fuel, extra):
        source = pretty(tree)
        low = _outcome_key(source, env_for(opponent=opponent, me=source, fuel=fuel))
        high = _outcome_key(
            source, env_for(opponent=opponent, me=source, fuel=fuel + extra)
        )
        if low != ("exhausted",):
            assert high == low

    @given(program_trees, _OPPONENTS, st.integers(1, 200))
    @settings(max_examples=100, deadline=None)
    def test_proofs_are_sound_at_ten_times_the_fuel(self, tree, opponent, fuel):
        source = pretty(tree)
        first = _outcome_key(
            source, env_for(opponent=opponent, me=source, fuel=fuel)
        )
        if first[0] != "proven":
            return
        check = _outcome_key(
            source, env_for(opponent=opponent, me=source, fuel=10 * fuel)
        )
        assert check[0] != "halted"
        assert check == first

    @given(program_trees, _OPPONENTS, st.integers(0, 300))
    @settings(max_examples=80, deadline=None)
    def test_evaluation_is_repeatable(self, tree, opponent, fuel):
        source = pretty(tree)
        env = env_for(opponent=opponent, me=source, fuel=fuel)
        assert _outcome_key(source, env) == _outcome_key(source, env)
