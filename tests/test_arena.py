import copy
import itertools
import pickle

import pytest

from opencomp import (
    EvalEnv, EvalKind, EvalResult, MatchResult, Mode, ProgramLearner, Side,
    adjudicate, catalog_learners, pennies, render_match, render_report, rps,
    run_match, run_tournament,
)
from opencomp.arena import Learner, MatchRecord, SideRecord


def record(tag, strategy=None):
    return SideRecord(outcome=tag, strategy=strategy, witness=None, fuel_used=0)


HALT = EvalKind.HALTED
EXH = EvalKind.FUEL_EXHAUSTED
PROV = EvalKind.PROVEN_NONHALTING
FAULT = EvalKind.RUNTIME_FAULT
INV = EvalKind.INVALID_STRATEGY


class TestAdjudication:
    def test_halted_pair_scored_by_table(self):
        game = rps()
        assert adjudicate(game, record(HALT, 2), record(HALT, 1)) is MatchResult.WIN1
        assert adjudicate(game, record(HALT, 1), record(HALT, 2)) is MatchResult.WIN2
        assert adjudicate(game, record(HALT, 3), record(HALT, 3)) is MatchResult.DRAW

    def test_every_combination_is_covered(self):
        # expected result for each non-halted pairing, per mode
        game = rps()
        expected_strict = {
            (EXH, EXH): MatchResult.UNDECIDED,
            (EXH, PROV): MatchResult.UNDECIDED,
            (PROV, EXH): MatchResult.UNDECIDED,
            (PROV, PROV): MatchResult.UNDECIDED,
            (HALT, EXH): MatchResult.UNDECIDED,
            (EXH, HALT): MatchResult.UNDECIDED,
            (HALT, PROV): MatchResult.WIN1,
            (PROV, HALT): MatchResult.WIN2,
        }
        tags = [HALT, EXH, PROV, FAULT, INV]
        for mode in (Mode.STRICT, Mode.DEADLINE):
            for tag1, tag2 in itertools.product(tags, repeat=2):
                side1 = record(tag1, 1 if tag1 is HALT else None)
                side2 = record(tag2, 1 if tag2 is HALT else None)
                result = adjudicate(game, side1, side2, mode)
                if tag1 in (FAULT, INV) and tag2 in (FAULT, INV):
                    assert result is MatchResult.UNDECIDED
                elif tag1 in (FAULT, INV):
                    assert result is MatchResult.WIN2
                elif tag2 in (FAULT, INV):
                    assert result is MatchResult.WIN1
                elif tag1 is HALT and tag2 is HALT:
                    assert result is MatchResult.DRAW
                elif mode is Mode.STRICT:
                    assert result is expected_strict[(tag1, tag2)]
                else:
                    if tag1 is HALT:
                        assert result is MatchResult.WIN1
                    elif tag2 is HALT:
                        assert result is MatchResult.WIN2
                    else:
                        assert result is MatchResult.UNDECIDED

    def test_deadline_rewards_halting_over_exhaustion(self):
        game = rps()
        assert adjudicate(
            game, record(HALT, 1), record(EXH), Mode.DEADLINE
        ) is MatchResult.WIN1
        assert adjudicate(
            game, record(HALT, 1), record(EXH), Mode.STRICT
        ) is MatchResult.UNDECIDED

    def test_outcome_spellings(self):
        # Reports and benchmark records print these strings.
        assert [kind.value for kind in EvalKind] == [
            "Halted", "FuelExhausted", "ProvenNonHalting", "RuntimeFault",
            "InvalidStrategy",
        ]


class TestRunMatch:
    def test_seating_on_an_asymmetric_game(self):
        heads = ProgramLearner("heads", "const 1")
        heads2 = ProgramLearner("heads2", "const 1")
        match = run_match(pennies(), heads, heads2, fuel=10)
        assert match.result is MatchResult.WIN1  # row wins the match

    def test_out_of_range_play_is_invalid(self):
        seven = ProgramLearner("seven", "const 7")
        rock = ProgramLearner("rock", "const 1")
        match = run_match(rps(), seven, rock, fuel=10)
        assert match.side1.outcome is EvalKind.INVALID_STRATEGY
        assert match.result is MatchResult.WIN2

    def test_two_invalid_plays_cancel(self):
        a = ProgramLearner("a", "const 7")
        b = ProgramLearner("b", "const 8")
        match = run_match(rps(), a, b, fuel=10)
        assert match.result is MatchResult.UNDECIDED

    def test_fault_is_contained(self):
        broken = ProgramLearner("broken", "k")
        rock = ProgramLearner("rock", "const 1")
        match = run_match(rps(), broken, rock, fuel=10)
        assert match.side1.outcome is EvalKind.RUNTIME_FAULT
        assert match.result is MatchResult.WIN2

    def test_proof_beats_nothing_but_is_beaten(self):
        spinner = ProgramLearner("spinner", "loop")
        rock = ProgramLearner("rock", "const 1")
        match = run_match(rps(), spinner, rock, fuel=100)
        assert match.side1.outcome is EvalKind.PROVEN_NONHALTING
        assert match.side1.witness == (1, 2)
        assert match.result is MatchResult.WIN2

    def test_fuel2_handicap(self):
        rock = ProgramLearner("rock", "const 1")
        slow = ProgramLearner("slow", "const 2")
        match = run_match(
            rps(), rock, slow, fuel=10, fuel2=0, mode=Mode.DEADLINE
        )
        assert match.side2.outcome is EvalKind.FUEL_EXHAUSTED
        assert match.result is MatchResult.WIN1

    @pytest.mark.parametrize("fuels", [
        {"fuel": -1}, {"fuel": -1, "fuel2": 5}, {"fuel2": -1}, {"fuel": 0, "fuel2": -1},
    ], ids=["fuel", "fuel-with-fuel2", "fuel2", "fuel2-with-zero-fuel"])
    def test_negative_fuel_on_either_seat_is_rejected(self, fuels):
        rock = ProgramLearner("rock", "const 1")
        with pytest.raises(ValueError, match="^fuel must be non-negative$"):
            run_match(rps(), rock, rock, **fuels)

    def test_each_seat_sees_its_environment(self):
        seen = []

        class Recorder(Learner):
            def __init__(self, name):
                self.name, self.source = name, f"published by {name}"

            def play(self, env):
                seen.append(env)
                return EvalResult(EvalKind.HALTED, strategy=1)

        game = rps()
        run_match(game, Recorder("a"), Recorder("b"), fuel=7, fuel2=3)
        run_match(game, Recorder("a"), Recorder("b"), fuel=7)
        assert [type(env) for env in seen] == [EvalEnv] * 4
        assert seen == [
            (game, Side.ROW, "published by b", "published by a", 7),
            (game, Side.COL, "published by a", "published by b", 3),
            (game, Side.ROW, "published by b", "published by a", 7),
            (game, Side.COL, "published by a", "published by b", 7),
        ]

    def test_mode_accepts_strings(self):
        rock = ProgramLearner("rock", "const 1")
        grow = ProgramLearner("grow", "grow")
        strict = run_match(rps(), rock, grow, fuel=50, mode="strict")
        deadline = run_match(rps(), rock, grow, fuel=50, mode="deadline")
        assert strict.result is MatchResult.UNDECIDED
        assert deadline.result is MatchResult.WIN1

    def test_render_match_format(self):
        rock = ProgramLearner("rock", "const 1")
        paper = ProgramLearner("paper", "const 2")
        match = run_match(rps(), rock, paper, fuel=10)
        assert render_match(match) == (
            "match rock vs paper: eval1=Halted eval2=Halted result=Win2"
        )

    @pytest.mark.parametrize("result", list(MatchResult))
    @pytest.mark.parametrize("kind2", list(EvalKind))
    @pytest.mark.parametrize("kind1", list(EvalKind))
    def test_render_match_spells_every_member_by_its_value(
        self, kind1, kind2, result
    ):
        match = MatchRecord("a", "b", record(kind1), record(kind2), result)
        assert render_match(match) == (
            f"match a vs b: eval1={kind1.value} eval2={kind2.value} "
            f"result={result.value}"
        )


class TestTournament:
    def test_symmetric_game_plays_each_pair_once(self):
        report = run_tournament(rps(), catalog_learners(), fuel=400)
        assert len(report.records) == 9 * 8 // 2

    def test_asymmetric_game_plays_both_seatings(self):
        learners = [
            ProgramLearner("a", "const 1"), ProgramLearner("b", "const 2")
        ]
        report = run_tournament(pennies(), learners, fuel=10)
        assert len(report.records) == 2
        seatings = {(r.learner1, r.learner2) for r in report.records}
        assert seatings == {("a", "b"), ("b", "a")}

    def test_no_self_matches(self):
        report = run_tournament(rps(), catalog_learners(), fuel=200)
        assert all(r.learner1 != r.learner2 for r in report.records)

    def test_duplicate_names_rejected(self):
        learners = [ProgramLearner("x", "const 1"), ProgramLearner("x", "const 2")]
        with pytest.raises(ValueError, match="^learner names must be unique$"):
            run_tournament(rps(), learners, fuel=10)

    @pytest.mark.parametrize("count", [0, 1])
    def test_negative_fuel_is_rejected_with_no_match_to_play(self, count):
        learners = [ProgramLearner("only", "const 1")][:count]
        with pytest.raises(ValueError, match="^fuel must be non-negative$"):
            run_tournament(rps(), learners, fuel=-1)

    def test_single_learner_is_a_degenerate_tournament(self):
        report = run_tournament(rps(), [ProgramLearner("only", "const 1")], fuel=10)
        assert report.records == ()
        assert report.universal_winner is None

    def test_universal_winner_detected_in_reduced_field(self):
        learners = [
            ProgramLearner("rock", "const 1"),
            ProgramLearner("paper", "const 2"),
            ProgramLearner("reader", "match sim(opp, self, rest) "
                           "{ halted(k) => bestresp(k) | exhausted => const 1 }"),
        ]
        report = run_tournament(rps(), learners, fuel=500)
        assert report.universal_winner == "reader"

    def test_full_catalog_has_no_universal_winner(self):
        report = run_tournament(rps(), catalog_learners(), fuel=500)
        assert report.universal_winner is None

    def test_tallies_are_consistent(self):
        report = run_tournament(rps(), catalog_learners(), fuel=400)
        total = sum(
            sum(tally.values()) for tally in report.tallies.values()
        )
        assert total == 2 * len(report.records)

    def test_report_layout(self):
        learners = [
            ProgramLearner("rock", "const 1"), ProgramLearner("paper", "const 2")
        ]
        text = render_report(run_tournament(rps(), learners, fuel=10))
        assert text.splitlines() == [
            "tournament game=rps learners=2 fuel=10 mode=strict",
            "match rock vs paper: eval1=Halted eval2=Halted result=Win2",
            "tally rock wins=0 draws=0 losses=1 undecided=0",
            "tally paper wins=1 draws=0 losses=0 undecided=0",
            "universal_winner=paper",
        ]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_report_header_spells_the_mode_by_its_value(self, mode):
        report = run_tournament(rps(), [], fuel=10, mode=mode)
        assert render_report(report).splitlines()[0] == (
            f"tournament game=rps learners=0 fuel=10 mode={mode.value}"
        )


def _deadline_match() -> MatchRecord:
    rock = ProgramLearner("rock", "const 1")
    looper = ProgramLearner("loop", "loop")
    return run_match(rps(), rock, looper, fuel=10, mode=Mode.DEADLINE)


class TestRecords:
    """``SideRecord`` and ``MatchRecord`` are immutable named tuples that
    read, print and copy as the frozen dataclasses they replaced."""

    @pytest.mark.parametrize("name", ["result", "outcome", "note"])
    def test_attributes_cannot_be_assigned(self, name):
        match = _deadline_match()
        for record in (match, match.side1):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_repr_is_the_dataclass_text(self):
        assert repr(_deadline_match()) == (
            "MatchRecord(learner1='rock', learner2='loop', "
            "side1=SideRecord(outcome=<EvalKind.HALTED: 'Halted'>, strategy=1, "
            "witness=None, fuel_used=1), "
            "side2=SideRecord(outcome=<EvalKind.PROVEN_NONHALTING: "
            "'ProvenNonHalting'>, strategy=None, witness=(1, 2), fuel_used=1), "
            "result=<MatchResult.WIN1: 'Win1'>)"
        )
        assert repr(record(EXH)) == (
            "SideRecord(outcome=<EvalKind.FUEL_EXHAUSTED: 'FuelExhausted'>, "
            "strategy=None, witness=None, fuel_used=0)"
        )

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal(self, clone):
        match = _deadline_match()
        for original in (match, match.side2):
            twin = clone(original)
            assert twin == original
            assert type(twin) is type(original)
        assert type(clone(match).side2) is SideRecord

    def test_keyword_and_positional_construction(self):
        side1 = SideRecord(outcome=HALT, strategy=1, witness=None, fuel_used=1)
        side2 = SideRecord(PROV, None, (1, 2), 1)
        match = MatchRecord(learner1="rock", learner2="loop", side1=side1,
                            side2=side2, result=MatchResult.WIN1)
        assert match == MatchRecord("rock", "loop", side1, side2, MatchResult.WIN1)
        assert match == _deadline_match()
        assert match[2] is match.side1 and match[-1] is match.result

    def test_equality_is_tuple_equality(self):
        side = record(HALT, 2)
        assert side == EvalResult(HALT, 2, None, 0) == (HALT, 2, None, 0)
        assert side._replace(strategy=3) == record(HALT, 3)
