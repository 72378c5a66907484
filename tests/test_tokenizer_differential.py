"""``_tokenize`` against the character-by-character tokenizer it replaced.

Both must give the same tokens (kind, value, line, column), or fail with
the same ``ParseError`` message, line and column.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencomp import ParseError, pretty
from opencomp.dsl import _tokenize
from test_dsl import program_trees
from tokenizer_oracle import tokenize as oracle_tokenize

# Characters and runs where a tokenizer can go wrong: escapes, line breaks,
# symbols that share a first character, the digit bound, and characters
# outside ASCII that ``isdigit`` or ``isalpha`` accept.
_PIECES = [
    '"', '"', "\\", '\\"', "\\\\", "\n", "\r", "\t", "\x0b", " ", " ",
    "=", "=>", "==", "(", ")", "{", "}", ",", "|", "<", ">",
    "_", "a", "Z", "k9", "const", "sim", "opp", "rest",
    "0", "7", "9" * 18, "9" * 19, "é", "²", "٣",
]
_RAW = st.lists(
    st.one_of(
        st.sampled_from(_PIECES),
        st.characters(min_codepoint=0, max_codepoint=127),
    ),
    max_size=30,
).map("".join)
# Well-formed quotes around raw text, so that line breaks, symbols and bad
# characters also sit inside quotes.
_QUOTED = _RAW.map(lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"')
_SOURCES = st.one_of(
    st.lists(st.one_of(_RAW, _QUOTED), max_size=4).map("".join),
    program_trees.map(pretty),
)


def _tokens(tokenize, text):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


@given(_SOURCES)
@settings(max_examples=400, deadline=None)
def test_agrees_with_the_tokenizer_oracle(text):
    assert _tokens(_tokenize, text) == _tokens(oracle_tokenize, text)


@pytest.mark.parametrize("blank", ["\n" * 100_000, "\r\n\t " * 25_000 + "\n\t\r  \n"],
                         ids=["newlines", "mixed"])
@pytest.mark.parametrize("fault", ["?", '"open', '"\\q"'],
                         ids=["character", "unterminated", "escape"])
def test_errors_after_a_long_blank_run_keep_their_position(blank, fault):
    # A whitespace run is one token; line and column still count every break.
    text = "const 1" + blank + "  " + fault
    tokens = _tokens(_tokenize, text)
    assert tokens[0] == "error" and tokens[2] > 25_000
    assert tokens == _tokens(oracle_tokenize, text)
