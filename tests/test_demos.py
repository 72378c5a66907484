import pytest

from opencomp import (
    ORACLE_SOURCE, EvalEnv, EvalKind, MatchResult, Mode, OracleWinner,
    ParseError, ProgramLearner, Side, build_defiance,
    build_exploiter, catalog_learners, demo_exploiter,
    demo_exploiter_exploited, demo_no_universal, demo_oracle, evaluate,
    parse_program, rps, run_all_demos, run_match,
)

HALTING_CATALOG = (
    "const_rock", "const_paper", "const_scissors", "counter_rock", "pick_paper",
)


class TestExploiter:
    def test_defeats_every_halting_catalog_member(self):
        exploiter = build_exploiter()
        for rival in catalog_learners():
            if rival.name not in HALTING_CATALOG:
                continue
            match = run_match(rps(), exploiter, rival, fuel=2000)
            assert match.result is MatchResult.WIN1, rival.name

    def test_defeats_the_proven_spinner(self):
        match = run_match(
            rps(), build_exploiter(), ProgramLearner("loop", "loop"), fuel=2000
        )
        assert match.result is MatchResult.WIN1

    def test_stalls_against_the_grower_in_strict_mode(self):
        match = run_match(rps(), build_exploiter(), build_defiance(), fuel=2000)
        assert match.side1.outcome is EvalKind.FUEL_EXHAUSTED
        assert match.result is MatchResult.UNDECIDED

    def test_two_exploiters_stall_each_other(self):
        match = run_match(
            rps(), build_exploiter("a"), build_exploiter("b"), fuel=2000
        )
        assert match.side1.outcome is EvalKind.FUEL_EXHAUSTED
        assert match.side2.outcome is EvalKind.FUEL_EXHAUSTED
        assert match.result is MatchResult.UNDECIDED

    def test_budgeted_exploiter_with_extra_fuel_wins_by_deadline(self):
        fuel = 1000
        budgeted = build_exploiter("budgeted", sim_budget=fuel)
        plain = build_exploiter("plain")
        match = run_match(
            rps(), budgeted, plain, fuel=10 * fuel, fuel2=fuel,
            mode=Mode.DEADLINE,
        )
        assert match.side1.outcome is EvalKind.HALTED
        assert match.side2.outcome is EvalKind.FUEL_EXHAUSTED
        assert match.result is MatchResult.WIN1

    def test_budgeted_exploiter_needs_the_extra_fuel(self):
        fuel = 1000
        budgeted = build_exploiter("budgeted", sim_budget=fuel)
        plain = build_exploiter("plain")
        match = run_match(rps(), budgeted, plain, fuel=fuel, mode=Mode.DEADLINE)
        assert match.result is MatchResult.UNDECIDED

    def test_equal_fuel_strict_rules_protect_the_exploiter(self):
        fuel = 1000
        budgeted = build_exploiter("budgeted", sim_budget=fuel)
        plain = build_exploiter("plain")
        match = run_match(
            rps(), budgeted, plain, fuel=10 * fuel, fuel2=fuel, mode=Mode.STRICT
        )
        assert match.result is MatchResult.UNDECIDED

    @pytest.mark.parametrize("budget", [0, 200, 1000])
    def test_budgeted_source_spells_the_budget_into_the_program(self, budget):
        # Sources key the simulation records, so the text must not drift.
        assert build_exploiter(sim_budget=budget).source == (
            f"match sim(opp, self, {budget}) "
            "{ halted(k) => bestresp(k) | exhausted => const 1 }"
        )


class TestDefiance:
    def test_grower_is_never_provably_stuck(self):
        env = EvalEnv(
            game=rps(), side=Side.ROW, opponent_source="const 1",
            self_source="grow", fuel=3000,
        )
        result = evaluate("grow", env)
        assert (result.kind, result.witness) == (EvalKind.FUEL_EXHAUSTED, None)

    def test_no_catalog_learner_defeats_the_grower_in_strict_mode(self):
        grower = build_defiance("grow2")
        for rival in catalog_learners():
            match = run_match(rps(), rival, grower, fuel=1500, mode=Mode.STRICT)
            assert match.result is not MatchResult.WIN1, rival.name


class TestOracle:
    def test_source_is_not_a_program(self):
        with pytest.raises(ParseError):
            parse_program(ORACLE_SOURCE)

    def test_beats_constants_simulators_and_the_mirror(self):
        oracle = OracleWinner()
        for rival in catalog_learners():
            if rival.name in ("loop", "grow"):
                continue
            match = run_match(rps(), oracle, rival, fuel=2000)
            assert match.result is MatchResult.WIN1, rival.name

    def test_beats_the_spinner_with_a_witness_attached(self):
        oracle = OracleWinner()
        env = EvalEnv(
            game=rps(), side=Side.ROW, opponent_source="loop",
            self_source=oracle.source, fuel=500,
        )
        result = oracle.play(env)
        assert result.kind is EvalKind.HALTED
        assert result.witness == (1, 2)
        match = run_match(rps(), oracle, ProgramLearner("loop", "loop"), fuel=500)
        assert match.result is MatchResult.WIN1

    def test_stalls_against_the_grower(self):
        match = run_match(rps(), OracleWinner(), build_defiance(), fuel=1500)
        assert match.result is MatchResult.UNDECIDED

    def test_never_loses_across_the_catalog(self):
        oracle = OracleWinner()
        for rival in catalog_learners():
            match = run_match(rps(), oracle, rival, fuel=2000)
            assert match.result is not MatchResult.WIN2, rival.name

    def test_unreadable_rival_gets_a_default_play(self):
        oracle = OracleWinner()
        env = EvalEnv(
            game=rps(), side=Side.ROW, opponent_source="???",
            self_source=oracle.source, fuel=100,
        )
        result = oracle.play(env)
        assert result.kind is EvalKind.HALTED
        assert result.strategy == 1


class TestNarratives:
    def test_no_universal_ends_with_the_verdict(self):
        text = demo_no_universal(fuel=800)
        assert text.rstrip().endswith("universal_winner=none")

    def test_exploiter_narrative_reports_a_sweep(self):
        text = demo_exploiter(fuel=800)
        assert "exploiter_wins=6/6" in text

    def test_exploited_narrative_reports_the_upset(self):
        text = demo_exploiter_exploited(fuel=600)
        assert "exploiter_defeated=true" in text

    def test_oracle_narrative_reports_no_losses(self):
        text = demo_oracle(fuel=800)
        assert "oracle_losses=0 oracle_undecided=1" in text

    def test_run_all_demos_concatenates(self):
        text = run_all_demos(fuel=600)
        for marker in (
            "universal_winner=none", "exploiter_wins=6/6",
            "exploiter_defeated=true", "oracle_losses=0",
        ):
            assert marker in text
