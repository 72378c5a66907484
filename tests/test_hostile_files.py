"""Game files, crosstables and learner files built to break their readers.

Each family starts from a bundled file and applies a few random edits.  A
reader either accepts the result or rejects it with one of the library's
data errors (``ParseError``, ``InvariantError``, ``ComplementarityViolation``,
all ``ValueError``s); the CLI then exits 2 with that error's message, never
through its last-resort handler.
"""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencomp import (
    ComplementarityViolation, InvariantError, ParseError, ingest_crosstable,
    parse_game, parse_learner_file,
)
from opencomp.cli import dispatch

from conftest import REPO_ROOT

_PIECES = [
    "\n", " ", "\t", "\r", "#", ",", ":", "-", "+", "0", "1", "2", "9", "-1",
    "+1", "0.5", "0.25", "1.0", "1e400", "nan", "inf", "-0", "1_0", "w", "d",
    "l", "row", "rows", "cols", "game", "symmetric", "true", "false", "labels_rows",
    "labels_cols", "names", "learner", "const", "sim", "opp", "self", "rest",
    "loop", "grow", "match", '"', "\\", "(", ")", "{", "}", "=>", "|", "²",
    "٣", "é", "\x00", "\ufeff",
]
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(
            ["delete", "insert", "replace", "token", "copy_line", "swap_lines"]
        ),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.one_of(st.sampled_from(_PIECES), _TEXT),
    ),
    min_size=1, max_size=6,
)
# Words swapped for other well-formed values: entries and scores, which
# reach the checks past the syntax (antisymmetry, complementarity).
_VALUE_EDITS = st.lists(
    st.tuples(
        st.just("token"),
        st.integers(0, 10**6),
        st.just(0),
        st.one_of(
            st.sampled_from(["-1", "0", "+1", "w", "d", "l", "1", "0.5"]),
            st.floats(0, 1).map(str),
        ),
    ),
    min_size=1, max_size=3,
)


def _apply(text: str, edits) -> str:
    for op, a, b, piece in edits:
        p = a % (len(text) + 1)
        if op == "delete":
            text = text[:p] + text[p + b % 8:]
        elif op == "insert":
            text = text[:p] + piece + text[p:]
        elif op == "replace":
            text = text[:p] + piece + text[p + 1:]
        elif op == "token":
            # words sit at the even indices, separators between them
            parts = re.split(r"([\s,]+)", text)
            parts[2 * (a % ((len(parts) + 1) // 2))] = piece
            text = "".join(parts)
        else:
            lines = text.splitlines(keepends=True) or [""]
            i, j = a % len(lines), b % len(lines)
            if op == "copy_line":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
    return text


def _mutated(pattern: str):
    seeds = sorted(path.read_text() for path in REPO_ROOT.glob(pattern))
    return st.builds(_apply, st.sampled_from(seeds), _EDITS | _VALUE_EDITS)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "input"


def _check(read, path, text, argv):
    """``read`` the text the CLI will see, then run the CLI on the file."""
    path.write_text(text, encoding="utf-8", newline="")
    text = path.read_text()
    try:
        read(text)
    except ValueError as exc:
        assert isinstance(
            exc, (ParseError, InvariantError, ComplementarityViolation)
        ), repr(exc)
        assert dispatch(argv) == (2, "", f"error: {exc}\n")
    else:
        code, out, err = dispatch(argv)
        assert (code, err) == (0, "")


@settings(max_examples=150, deadline=None)
@given(text=_mutated("games/*.gm"))
def test_mutated_game_files(scratch_file, text):
    _check(parse_game, scratch_file, text,
           ["classify", "--game", str(scratch_file)])


@settings(max_examples=150, deadline=None)
@given(text=_mutated("crosstables/*.ct"))
def test_mutated_crosstables(scratch_file, text):
    _check(ingest_crosstable, scratch_file, text,
           ["crosstable", str(scratch_file)])


@settings(max_examples=150, deadline=None)
@given(text=_mutated("learners/*.lrn"))
def test_mutated_learner_files(scratch_file, text):
    rival = str(REPO_ROOT / "learners" / "exploiter.lrn")
    _check(parse_learner_file, scratch_file, text,
           ["arena", "--game", "rps", "--p1", str(scratch_file),
            "--p2", rival, "--fuel", "1000"])


def _outcome(read, text):
    """The value ``read`` makes of ``text``, or its error."""
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    text=_mutated("games/*.gm"), at=st.integers(0, 10**6),
    stray=st.sampled_from([b"\xff", b"\x80", b"\xc3"]),
)
def test_mutated_game_files_read_alike_as_bytes(text, at, stray):
    """``parse_game`` of a text's UTF-8 bytes does what it does with the
    text; with a byte put in that leaves them no UTF-8, it fails as data."""
    data = text.encode()
    assert _outcome(parse_game, data) == _outcome(parse_game, text)
    at %= len(data) + 1
    with pytest.raises(ParseError):
        parse_game(data[:at] + stray + data[at:])


@pytest.mark.parametrize("rows, cols, message", [
    ("9" * 5000, "2", "table exceeds the 10000-strategies-per-side limit"),
    ("2", "-" + "9" * 5000, "row and column counts must be positive"),
    ("0" * 5000 + "10001", "2", "table exceeds the 10000-strategies-per-side limit"),
    ("-" + "0" * 5000, "2", "row and column counts must be positive"),
], ids=["long", "long negative", "zero-padded, past the limit", "zero-padded zero"])
def test_counts_too_long_for_int(scratch_file, rows, cols, message):
    """int() refuses over 4300 digits; such counts still fail as data."""
    text = f"game g\nsymmetric false\nrows {rows} cols {cols}\n"
    with pytest.raises(ParseError) as info:
        parse_game(text)
    assert str(info.value).startswith(message)
    _check(parse_game, scratch_file, text, ["classify", "--game", str(scratch_file)])


def test_zero_padded_counts_past_the_int_digit_limit_are_read():
    zeros = "0" * 5000
    text = f"game g\nsymmetric false\nrows {zeros}1 cols {zeros}2\nrow 1: +1 0\n"
    assert parse_game(text).entries.tolist() == [[1, 0]]
