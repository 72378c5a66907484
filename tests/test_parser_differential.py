"""The table-driven parser and printer against the hand-written ones they replaced.

``opencomp.dsl`` parses and prints every keyword form by walking one table
of forms; ``parser_oracle`` keeps the parser with one branch per keyword and
the printer with one branch per node type.  On every text both must build
equal trees that print to the same text, or fail with the same
``ParseError`` message, line and column.  The texts are seeded: token soups
over the language's vocabulary; one to three token edits of the catalog
sources and of programs that quote programs, an edit being an insertion,
deletion, replacement, repetition or quoting of a token; and random
well-formed programs.
"""
import random
import re

import pytest
from hypothesis import given, settings

import parser_oracle as oracle
from opencomp import CATALOG, ParseError, dsl
from test_dsl import program_trees

# The language's vocabulary, spelled out here so that a change to the
# keyword set shows.
_KEYWORDS = [
    "const", "bestresp", "sim", "match", "halted", "exhausted", "if", "then",
    "else", "loop", "grow", "opp", "self", "rest",
]
_SYMBOLS = ["(", ")", "{", "}", ",", "|", "<", ">", "==", "=>"]
_ATOMS = ["0", "1", "3", "999999999999999999", "k", "n", "_x9", '"const 1"',
          '"k"', '""', '"loop"']
_VOCABULARY = _KEYWORDS + _SYMBOLS + _ATOMS
_SOURCES = [source for _, source in CATALOG] + [
    "sim(opp, self, 0)",
    "if k < 2 then bestresp(3) else n",
    'match sim("if 1 > 2 then loop else grow", opp, 9) '
    "{ halted(x) => x | exhausted => const 2 }",
]
# Each wraps a quoted program, given escaped and with its quotes.
_WRAPPERS = [
    "match sim({}, opp, 5) {{ halted(k) => k | exhausted => 1 }}",
    "match sim(self, {}, rest) {{ halted(k) => bestresp(k) | exhausted => 2 }}",
    "sim(opp, {}, 7)",
]
# A quoted program, a symbol, or a run of letters, digits and underscores;
# any other character stands alone.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|=>|==|[(){},|<>]|\w+|\S')
_TEXTS = 20_000


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _soup(rng: random.Random) -> str:
    words = [rng.choice(_VOCABULARY) for _ in range(rng.randint(0, 12))]
    if words and rng.random() < 0.2:
        # A quoted soup, so that errors also sit inside quotes.
        words[rng.randrange(len(words))] = _quote(_soup(rng))
    return "".join(word + rng.choice("  \n") for word in words)


def _edit(rng: random.Random, text: str, edits: int) -> str:
    tokens = _TOKEN.findall(text)
    for _ in range(edits):
        at = rng.randrange(len(tokens) + 1)
        op = rng.randrange(5)
        if op == 0 or at == len(tokens):
            tokens.insert(at, rng.choice(_VOCABULARY))
        elif op == 1:
            del tokens[at]
        elif op == 2:
            tokens[at] = rng.choice(_VOCABULARY)
        elif op == 3:
            tokens.insert(at, tokens[at])
        else:  # a quote that spells the token it replaces
            tokens[at] = _quote(tokens[at])
    return " ".join(tokens)


def _nested(rng: random.Random) -> str:
    """A program that quotes programs one to three deep, with one to three
    token edits spread over its levels."""
    levels = rng.randint(1, 3)
    edited = rng.sample(range(levels + 1), rng.randint(1, min(3, levels + 1)))
    text = rng.choice(_SOURCES)
    for level in range(levels + 1):
        if level:
            text = rng.choice(_WRAPPERS).format(_quote(text))
        if level in edited:
            text = _edit(rng, text, 1)
    return text


def _program(rng: random.Random, depth: int) -> str:
    """A random well-formed program, nested at most ``depth`` deep."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(["const 2", "3", "k", "loop", "grow",
                           "sim(opp, self, rest)", "sim(self, opp, 4)"])
    form = rng.randrange(4)
    parts = [_program(rng, depth - 1) for _ in range(4)]
    if form == 0:
        return f"bestresp({parts[0]})"
    if form == 1:
        return f"sim({_quote(parts[0])}, opp, {rng.randint(0, 99)})"
    if form == 2:
        return (f"match {parts[0]} {{ halted(x) => {parts[1]} "
                f"| exhausted => {parts[2]} }}")
    op = rng.choice(["==", "<", ">"])
    return f"if {parts[0]} {op} {parts[1]} then {parts[2]} else {parts[3]}"


def _texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        shape = i % 4
        if shape == 0:
            texts.append(_soup(rng))
        elif shape == 1:
            texts.append(_edit(rng, rng.choice(_SOURCES), rng.randint(1, 3)))
        elif shape == 2:
            texts.append(_nested(rng))
        else:
            texts.append(_program(rng, 3))
    return texts


def _outcome(parse, show, text):
    try:
        tree = parse(text, 0)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return (tree, show(tree))


def test_the_keyword_set_is_unchanged():
    assert dsl._KEYWORDS == set(_KEYWORDS)


@pytest.mark.parametrize("seed", [0, 1])
def test_agrees_with_the_parser_oracle_on_seeded_texts(seed):
    outcomes = []
    for text in _texts(seed, _TEXTS // 2):
        expected = _outcome(oracle._parse, oracle.pretty, text)
        assert _outcome(dsl._parse, dsl.pretty, text) == expected, text
        outcomes.append(expected[0] == "error")
    # Both sides of the parser are reached: texts that parse and texts that
    # fail.
    assert 0.5 < sum(outcomes) / len(outcomes) < 0.9


@given(program_trees)
@settings(max_examples=150, deadline=None)
def test_pretty_agrees_with_the_printer_oracle(tree):
    assert dsl.pretty(tree) == oracle.pretty(tree)


# Each wrapper puts its hole one level deeper.
_DEEP = ["bestresp({})", "if 1 == {} then 2 else 3",
         "match {} {{ halted(k) => k | exhausted => 2 }}"]


@pytest.mark.parametrize("depth", [639, 640, 641])
@pytest.mark.parametrize("template", _DEEP, ids=["bestresp", "if", "match"])
def test_agrees_at_the_nesting_bound(template, depth):
    text = "const 1"
    for _ in range(depth):
        text = template.format(text)
    # Printed texts are compared, not trees: tree ``==`` takes about two
    # frames per level.
    def outcome(parse, show):
        result = _outcome(parse, show, text)
        return result if result[0] == "error" else result[1]
    assert outcome(dsl._parse, dsl.pretty) == outcome(oracle._parse, oracle.pretty)
