"""The parse cache that every evaluation shares.

``parse_program``, and ``sim`` for the sources ``evaluate`` is given, read
every program text through one cache per process, bounded by the
characters it holds, so a tournament parses each rival source once,
however long; a quoted program runs its own tree and never reaches the
cache.  Sharing must change no result: not when the cache is cold, not when
a program quotes thousands of texts, not when the cached entry is a text
that does not parse, and not when a text is larger than the whole cache.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerprint_oracle import fingerprint_evaluate
from conftest import REPO_ROOT, empty_parse_cache
from opencomp import (
    EXPLOITER_SOURCE, MIRROR_SOURCE, ORACLE_SOURCE, EvalEnv, EvalKind,
    EvalResult, Mode, OracleWinner, ParseError, ProgramLearner, RuntimeFault,
    Side, best_response, build_defiance, build_exploiter, catalog_learners,
    evaluate, parse_learner_file, parse_program, pennies, render_report, rps,
    run_tournament,
)
from opencomp import dsl
from opencomp.bundled import CATALOG
from opencomp.cli import dispatch
from opencomp.dsl import Literal, source_tree
from test_dsl import env_for
from test_dsl_differential import _run
from test_hostile_sources import _Publisher, _quote


def _run_quoted(text: str, budget: int) -> str:
    return (f"match sim({_quote(text)}, opp, {budget}) "
            "{ halted(k) => k | exhausted => 0 }")


def _wide_source(leaves: int) -> str:
    """A program quoting ``leaves`` distinct programs, each quoting another.

    Leaf ``i`` runs ``match sim("const i", ...)`` and checks that it saw
    ``i``, so every leaf quotes two texts.  The leaves sit in a balanced
    tree of ``if`` nodes, well inside the nesting bound.
    """
    checks = [
        f"if {_run_quoted(_run_quoted(f'const {i}', 5), 50)} == {i} then 1 else 2"
        for i in range(1, leaves + 1)
    ]
    while len(checks) > 1:
        checks = [
            f"if {left} == 1 then {right} else 2"
            for left, right in zip(checks[::2], checks[1::2])
        ] + checks[len(checks) - len(checks) % 2:]
    return checks[0]


_LEAVES = 1024
_WIDE = _wide_source(_LEAVES)
_WIDE_QUOTES = [
    text for i in range(1, _LEAVES + 1)
    for text in (f"const {i}", _run_quoted(f"const {i}", 5))
]


def _count_parses(monkeypatch, *texts: str) -> list[int]:
    """Patch the parser so that the returned list grows by one each time
    one of ``texts`` is parsed."""
    calls = []
    parse = dsl._parse

    def counting(source, depth):
        if source in texts:
            calls.append(1)
        return parse(source, depth)

    monkeypatch.setattr(dsl, "_parse", counting)
    return calls


@pytest.mark.parametrize("me, opponent, strategy", [
    (_WIDE, "const 1", 1),
    # the rival halts with 1, so the exploiter plays its best response
    (EXPLOITER_SOURCE, _WIDE, 2),
], ids=["wide-program", "exploiter-vs-wide-rival"])
def test_evicting_trees_mid_evaluation_matches_the_oracle(
    monkeypatch, me, opponent, strategy
):
    # Thousands of quoted texts: if quotes were read through the cache,
    # reading one could evict another mid-evaluation.  Each runs its own
    # tree instead, so once both sources are read no quote is parsed.
    env = env_for(opponent=opponent, me=me, fuel=200_000)
    empty_parse_cache()
    program = parse_program(me)
    parse_program(opponent)
    parses = _count_parses(monkeypatch, *_WIDE_QUOTES)
    result = _run(evaluate, program, env)
    assert parses == []
    assert result == _run(fingerprint_evaluate, me, env)
    assert result[:2] == (EvalKind.HALTED, strategy)


@pytest.mark.parametrize("opponent", [
    "const 2", "const \u00b2", "const 2" + " " * 480_000,
], ids=["program", "not-a-program", "long"])
def test_a_source_no_sim_runs_is_never_parsed(monkeypatch, opponent):
    # Only a ``sim`` reads a source the cache does not hold, so a hostile
    # rival text costs nothing against a program that never simulates it.
    program = parse_program("bestresp(const 1)")
    empty_parse_cache()
    parses = _count_parses(monkeypatch, opponent)
    result = evaluate(program, env_for(opponent=opponent, me=program.source))
    assert (result.kind, result.strategy) == (EvalKind.HALTED, 2)
    assert parses == []
    assert opponent not in dsl._trees


def test_cached_sources_are_not_parsed_again(monkeypatch):
    empty_parse_cache()
    program = parse_program(EXPLOITER_SOURCE)
    source_tree("const 2")
    parses = _count_parses(monkeypatch, "const 2", EXPLOITER_SOURCE)
    result = evaluate(program, env_for(opponent="const 2", me=EXPLOITER_SOURCE))
    assert (result.kind, result.strategy) == (EvalKind.HALTED, 3)
    assert parses == []


# Runs its rival, then itself against the rival, which collapses on its own
# twin and exhausts, and then the rival against itself.
_RUNS_BOTH_SOURCES = (
    "match sim(opp, self, 50) { halted(k) => "
    "match sim(self, opp, 40) { halted(j) => j | exhausted => "
    "match sim(opp, opp, 30) { halted(i) => i | exhausted => 2 } } "
    "| exhausted => 3 }"
)


def test_a_given_source_is_parsed_at_most_once_per_evaluation(monkeypatch):
    # The cache cannot hold both texts, so each read of one evicts the
    # other: only the evaluation's own memo keeps a given text's tree.
    monkeypatch.setattr(dsl, "_PARSE_CACHE_CHARS", 1000)
    opponent = "const 1".ljust(600)
    me = _RUNS_BOTH_SOURCES.ljust(600)
    empty_parse_cache()
    program = parse_program(me)
    rival_parses = _count_parses(monkeypatch, opponent)
    own_parses = _count_parses(monkeypatch, me)
    result = evaluate(program, env_for(opponent=opponent, me=me, fuel=1000))
    assert (result.kind, result.strategy) == (EvalKind.HALTED, 1)
    assert len(rival_parses) <= 1 and len(own_parses) <= 1


def test_a_cached_parse_error_pins_no_frames(monkeypatch):
    # The cache stores None for a text that does not parse, not the error.
    text = 'sim("const ²", opp, 5)'
    parses = _count_parses(monkeypatch, text)
    empty_parse_cache()
    assert source_tree(text) is None
    assert source_tree(text) is None
    assert len(parses) == 1
    assert dsl._trees == {text: None}


def test_an_unparseable_rival_reads_as_exhausted_every_time(monkeypatch):
    env = env_for(opponent="const ²", me=EXPLOITER_SOURCE)
    parses = _count_parses(monkeypatch, "const ²")
    empty_parse_cache()
    first = evaluate(EXPLOITER_SOURCE, env)
    second = evaluate(EXPLOITER_SOURCE, env)
    assert len(parses) == 1
    assert first == second
    assert (first.kind, first.strategy) == (EvalKind.HALTED, 1)


def test_a_tournament_with_an_unparseable_rival_repeats_its_report():
    def play():
        entrants = catalog_learners() + [_Publisher("garbled", "const ²")]
        report = run_tournament(rps(), entrants, fuel=10_000)
        assert len(report.records) == len(entrants) * (len(entrants) - 1) // 2
        return render_report(report)

    empty_parse_cache()
    assert play() == play()


def test_a_tournament_parses_each_simulated_source_once(monkeypatch):
    # The catalog simulates only `opp` and `self`, and the exploiter
    # simulates every entrant, so the simulated texts are the sources.
    sources = {source for _, source in CATALOG}
    parses = _count_parses(monkeypatch, *sources)
    empty_parse_cache()
    run_tournament(rps(), catalog_learners(), fuel=10_000)
    assert len(parses) == len(sources)
    assert set(dsl._trees) == sources
    run_tournament(rps(), catalog_learners(), fuel=10_000)
    assert len(parses) == len(sources)


def _rival_of_length(length: int) -> str:
    """A rival that takes a few dozen steps and halts with 2, padded out to
    exactly ``length`` characters."""
    body = "if const 1 == const 2 then const 3 else " * 40 + "const 2"
    return body + " " * (length - len(body))


@pytest.mark.parametrize("length", [4096, 4097, 163_840])
def test_a_source_of_any_length_is_cached(monkeypatch, length):
    # The exploiter simulates only its rival, and the rival simulates
    # nothing.  Texts over 4,096 characters were once parsed again in every
    # evaluation; now every text stays while it fits the cache.
    rival = _rival_of_length(length)
    parses = _count_parses(monkeypatch, rival)
    env = env_for(opponent=rival, me=EXPLOITER_SOURCE, fuel=10_000)
    empty_parse_cache()
    result = _run(evaluate, EXPLOITER_SOURCE, env)
    assert rival in dsl._trees
    assert result == _run(evaluate, EXPLOITER_SOURCE, env)
    assert len(parses) == 1
    assert result == _run(fingerprint_evaluate, EXPLOITER_SOURCE, env)
    assert result[:2] == (EvalKind.HALTED, 3)


# Runs itself against its opponent with all the fuel that is left, so every
# other step simulates its own text again until the pool is drained.
_SELF_SIMULATING = "match sim(self, opp, rest) { halted(k) => k | exhausted => const 1 }"
# over 4,096 characters, the length the cache once refused
_LONG_SELF_SIMULATING = _SELF_SIMULATING + " " * 20_480


def test_a_long_self_simulating_rival_is_parsed_once_per_process(monkeypatch):
    parses = _count_parses(monkeypatch, _LONG_SELF_SIMULATING)
    env = env_for(opponent=_LONG_SELF_SIMULATING, me=EXPLOITER_SOURCE, fuel=20_000)
    empty_parse_cache()
    for _ in range(2):
        result = evaluate(EXPLOITER_SOURCE, env)
        assert result.kind is EvalKind.FUEL_EXHAUSTED
        assert result.fuel_used == 20_000
    assert len(parses) == 1


def test_a_tournament_with_a_long_self_simulating_rival_completes(monkeypatch):
    parses = _count_parses(monkeypatch, _LONG_SELF_SIMULATING)
    entrants = catalog_learners() + [_Publisher("padded", _LONG_SELF_SIMULATING)]
    empty_parse_cache()
    report = run_tournament(rps(), entrants, fuel=100_000)
    assert len(report.records) == len(entrants) * (len(entrants) - 1) // 2
    # mirror, the exploiter and the padded rival itself all simulate it
    assert len(parses) == 1


def _if_tree(depth: int) -> str:
    """A complete 4-ary tree of ``if`` nodes with bare ``1`` leaves."""
    if depth == 0:
        return "1"
    sub = _if_tree(depth - 1)
    return f"if {sub} == {sub} then {sub} else {sub}"


def test_two_tournaments_parse_a_long_entrant_once(monkeypatch):
    long = _if_tree(5)  # 7,503 characters
    assert len(long) > 4096
    parses = _count_parses(monkeypatch, long)
    empty_parse_cache()
    entrants = catalog_learners() + [
        ProgramLearner("tree", long),
        build_exploiter("b200", sim_budget=200),
        build_exploiter("b1000", sim_budget=1000),
        OracleWinner(),
    ]
    reports = [
        render_report(run_tournament(rps(), entrants, fuel=3000, mode=Mode.DEADLINE))
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    assert "tree" in reports[0]
    assert len(parses) == 1  # read when the learner was built, and not again


def test_a_text_larger_than_the_cache_is_parsed_once_and_held_alone(monkeypatch):
    monkeypatch.setattr(dsl, "_PARSE_CACHE_CHARS", 1000)
    oversize = _rival_of_length(2000)
    parses = _count_parses(monkeypatch, oversize)
    empty_parse_cache()
    source_tree("const 1")
    tree = source_tree(oversize)
    assert list(dsl._trees) == [oversize]
    assert source_tree(oversize) is tree
    assert parse_program(oversize).ast is tree
    assert len(parses) == 1
    source_tree("const 2")  # the next new text starts the cache afresh
    assert list(dsl._trees) == ["const 2"]
    source_tree(oversize)
    assert len(parses) == 2


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 600)), max_size=40))
@settings(max_examples=100, deadline=None)
def test_the_cache_holds_no_more_than_its_budget(reads):
    # A small budget, so texts of a few hundred characters overflow it.
    # Each entry is charged its length and 32 characters more.
    budget = 1000
    saved = dsl._PARSE_CACHE_CHARS
    dsl._PARSE_CACHE_CHARS = budget
    try:
        empty_parse_cache()
        for i, pad in reads:
            text = f"const {i}" + " " * pad
            tree = source_tree(text)
            assert tree == Literal(i)
            assert dsl._trees[text] is tree
            held = sum(len(cached) + 32 for cached in dsl._trees)
            assert dsl._held == held
            assert held <= budget or list(dsl._trees) == [text]
    finally:
        dsl._PARSE_CACHE_CHARS = saved
        empty_parse_cache()


def test_a_wide_program_parses_no_quoted_text_when_it_runs(monkeypatch):
    parses = _count_parses(monkeypatch, *_WIDE_QUOTES)
    empty_parse_cache()
    program = parse_program(_WIDE)
    assert len(parses) == len(_WIDE_QUOTES)  # the parser reads each quote once
    assert parse_program(_WIDE).ast is program.ast  # and the text is cached
    assert len(parses) == len(_WIDE_QUOTES)
    parses.clear()
    result = evaluate(program, env_for(opponent="const 1", me=_WIDE, fuel=200_000))
    assert (result.kind, result.strategy) == (EvalKind.HALTED, 1)
    assert parses == []


def test_a_quote_in_the_adversary_seat_is_not_parsed_when_it_runs(monkeypatch):
    # The quote becomes the mirror's ``opp``, which the mirror simulates.
    source = ('match sim(opp, "const 2", rest) '
              "{ halted(k) => bestresp(k) | exhausted => const 1 }")
    empty_parse_cache()
    program = parse_program(source)
    parses = _count_parses(monkeypatch, "const 2")
    result = evaluate(program, env_for(opponent=MIRROR_SOURCE, me=source, fuel=1000))
    assert (result.kind, result.strategy) == (EvalKind.HALTED, 3)
    assert parses == []
    assert "const 2" not in dsl._trees


def _reparsing_oracle_play(env: EvalEnv) -> EvalResult:
    """What ``OracleWinner.play`` returned when it parsed the rival's text
    with ``parse_program`` on every play."""
    try:
        rival = parse_program(env.opponent_source)
    except ParseError:
        return EvalResult(EvalKind.HALTED, strategy=1)
    rival_env = EvalEnv(
        game=env.game, side=env.side.opposite, opponent_source=ORACLE_SOURCE,
        self_source=env.opponent_source, fuel=env.fuel,
    )
    try:
        run = evaluate(rival, rival_env)
    except RuntimeFault as fault:
        return EvalResult(EvalKind.HALTED, strategy=1, fuel_used=fault.fuel_used)
    if run.kind is EvalKind.HALTED:
        if not 1 <= run.strategy <= env.game.side_count(rival_env.side):
            return EvalResult(EvalKind.HALTED, strategy=1, fuel_used=run.fuel_used)
        reply = best_response(env.game, env.side, run.strategy)
        return EvalResult(EvalKind.HALTED, strategy=reply, fuel_used=run.fuel_used)
    if run.kind is EvalKind.PROVEN_NONHALTING:
        return EvalResult(
            EvalKind.HALTED, strategy=1, witness=run.witness, fuel_used=run.fuel_used
        )
    return EvalResult(EvalKind.FUEL_EXHAUSTED, fuel_used=run.fuel_used)


_ORACLE_RIVALS = [source for _, source in CATALOG] + [
    _rival_of_length(4097), _LONG_SELF_SIMULATING,
    "const ²", ORACLE_SOURCE, "const 7",
    "bestresp(const 9)", "k",  # both raise RuntimeFault
]


@pytest.mark.parametrize("game", [rps(), pennies()], ids=["rps", "pennies"])
@pytest.mark.parametrize("side", list(Side))
def test_the_oracle_plays_as_when_it_reparsed_every_rival(game, side):
    oracle = OracleWinner()
    empty_parse_cache()
    for rival in _ORACLE_RIVALS * 2:  # a cold cache, then a warm one
        env = EvalEnv(
            game=game, side=side, opponent_source=rival,
            self_source=oracle.source, fuel=2000,
        )
        assert oracle.play(env) == _reparsing_oracle_play(env), rival[:40]


@pytest.mark.parametrize(
    "rival", [EXPLOITER_SOURCE, _SELF_SIMULATING, _LONG_SELF_SIMULATING],
    ids=["exploiter", "self-simulating", "long-self-simulating"],
)
def test_the_oracle_parses_a_rival_once_across_plays(monkeypatch, rival):
    # Once to read it, and not again for the `self` it simulates.
    parses = _count_parses(monkeypatch, rival)
    oracle = OracleWinner()
    env = EvalEnv(
        game=rps(), side=Side.ROW, opponent_source=rival,
        self_source=oracle.source, fuel=2000,
    )
    empty_parse_cache()
    results = {oracle.play(env) for _ in range(3)}
    assert len(results) == 1
    assert len(parses) == 1


def test_a_learner_file_shares_the_tree_its_rivals_simulate():
    body = EXPLOITER_SOURCE
    name, program = parse_learner_file(f"learner exploiter\n{body}\n")
    assert (name, program.source) == ("exploiter", body)
    assert program.ast is source_tree(body)


def test_a_program_learner_shares_the_tree_its_rivals_simulate():
    for learner in (
        ProgramLearner("x", EXPLOITER_SOURCE),
        build_exploiter("b200", sim_budget=200),
        build_defiance(),
    ):
        assert learner.program.ast is source_tree(learner.source)


@pytest.mark.parametrize("text", [
    "match sim(opp, self, rest) { halted(k) => k }",
    "\n  const 1 2",
    'sim("const \u00b2", opp, 5)',
    "const",
    "",
])
def test_a_bad_program_learner_text_reports_as_parse_program_does(text):
    with pytest.raises(ParseError) as expected:
        parse_program(text)
    empty_parse_cache()
    for _ in range(2):  # the second time the cache holds the verdict
        with pytest.raises(ParseError) as err:
            ProgramLearner("bad", text)
        assert (str(err.value), err.value.line, err.value.column) == (
            str(expected.value), expected.value.line, expected.value.column
        )


# Lines are the file's, so the program's first line is line 2; a location
# inside a quote stays the quote's own.
@pytest.mark.parametrize("text, message, line, column", [
    ("learner bad\nmatch sim(opp, self, rest) { halted(k) => k }",
     "expected '|', got '}' (line 2, col 45)", 2, 45),
    ("learner bad\n\n  const 1 2",
     "trailing content '2' after program (line 3, col 11)", 3, 11),
    ('learner bad\nsim("const \u00b2", opp, 5)',
     "inside quoted program: unexpected character '\u00b2' (line 1, col 7)"
     " (line 2, col 5)", 2, 5),
    ("learner bad\nconst", "const needs an integer (line 2, col 6)", 2, 6),
])
def test_a_bad_learner_file_still_reports_where_it_fails(text, message, line, column):
    empty_parse_cache()
    for _ in range(2):  # the second time the cache holds the verdict
        with pytest.raises(ParseError) as err:
            parse_learner_file(text)
        assert (str(err.value), err.value.line, err.value.column) == (
            message, line, column
        )


def test_a_cli_tournament_parses_each_learner_text_once(monkeypatch):
    files = sorted((REPO_ROOT / "learners").glob("*.lrn"))
    paths = [str(path) for path in files]
    bodies = {"\n".join(path.read_text().splitlines()[1:]) for path in files}
    parses = _count_parses(monkeypatch, *bodies)
    empty_parse_cache()
    code, report, _ = dispatch([
        "tournament", "--game", str(REPO_ROOT / "games" / "rps.gm"),
        "--learners", *paths, "--fuel", "10000",
    ])
    assert code == 0 and report.endswith("universal_winner=none\n")
    assert len(parses) == len(bodies) == len(paths)
