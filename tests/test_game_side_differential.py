"""The numpy game-side readers and searches against the loops they replaced.

``game_side_oracle.py`` keeps the per-cell versions of ``parse_crosstable``,
``to_game``, ``parse_game``, ``serialize_game`` and ``find_cycles``.  The
library must agree with them on every output and, for rejected input, on
the exception type, its message and its line.  Two rules are new and are
tested on their own (``test_crosstable.py``, ``test_game_core.py``): numbers
in game files and crosstables are ASCII only, and crosstable errors carry
the real line number when blank lines precede them.  Inputs here therefore
hold no blank lines, underscores or non-ASCII characters.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import game_side_oracle as oracle
from opencomp import (
    GameTable, ParseError, find_cycles, parse_crosstable, parse_game,
    serialize_game, to_game,
)
from test_hostile_files import _mutated

_MARGINS = st.one_of(
    st.sampled_from([0.0, 0.003, 0.01, 0.05, 0.1, 0.25, 0.499]),
    st.floats(0.0, 0.4999),
)
# Largest leading block searched for each cycle length, so that the
# oracle's walk stays quick.
_CYCLE_BLOCK = {3: 40, 4: 24, 5: 14}


def _outcome(read, *args):
    try:
        return "ok", read(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _same_crosstable(new, old) -> bool:
    if new[0] != "ok" or old[0] != "ok":
        return new == old
    return new[1].names == old[1].names and np.array_equal(
        new[1].scores, old[1].scores, equal_nan=True
    )


def _plain(text: str) -> str:
    """``text`` without non-ASCII characters, underscores or blank lines."""
    text = "".join(ch for ch in text if ch.isascii() and ch != "_")
    return "".join(line + "\n" for line in text.splitlines() if line.strip())


def _check_cycles(game: GameTable, max_len: int):
    k = min(game.rows, _CYCLE_BLOCK[max_len])
    block = GameTable(name=game.name, entries=game.entries[:k, :k], symmetric_flag=True)
    assert find_cycles(block, max_len) == oracle.find_cycles(block, max_len)


def _check_game(game: GameTable):
    text = serialize_game(game)
    assert text == oracle.serialize_game(game)
    assert parse_game(text) == oracle.parse_game(text) == game


_BAD_SCORES = ["1.001", "-0.001", "1.5", "nan", "inf", "-inf", "1e400", "x", "0.5.5", "0x1", "--1"]


@st.composite
def crosstable_texts(draw, max_n: int = 40):
    """Tables with complementary, one-sided and missing pairs, scores near
    every threshold, assorted spellings and padding, and now and then a
    pair that is not complementary or a cell that is no score at all (the
    diagonal included)."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bad_cells = draw(st.sampled_from([0, 0, 1, 3]))
    kinds = draw(st.sampled_from([
        [1.0, 0, 0, 0, 0], [0.6, 0.15, 0.15, 0.1, 0], [0.3, 0.3, 0.2, 0.2, 0],
        [0.9, 0, 0, 0.05, 0.05], [0, 0, 0, 1.0, 0],
    ]))
    spellings = ["{:.3f}", "{}", " {:.3f}", "{:.3f} ", "{:.4f}", "{:.3e}"]

    def spell(milli: int) -> str:
        return spellings[rng.integers(len(spellings))].format(milli / 1000)

    cells = [[""] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            near_even = rng.random() < 0.5
            k = int(rng.integers(470, 531) if near_even else rng.integers(0, 1001))
            kind = rng.choice(5, p=kinds)  # both, upper, lower, none, clash
            if kind in (0, 1, 4):
                cells[a][b] = spell(k)
            if kind in (0, 2, 4):
                clash = int(rng.integers(1, 6)) * (-1) ** int(rng.integers(2))
                cells[b][a] = spell(min(1000, max(0, 1000 - k + (clash if kind == 4 else 0))))
    for _ in range(bad_cells):
        a, b = rng.integers(n, size=2)
        cells[a][b] = _BAD_SCORES[rng.integers(len(_BAD_SCORES))]
    names = [f"p{i}" for i in range(n)]
    lines = ["names," + ",".join(names)]
    lines += [",".join([names[a], *cells[a]]) for a in range(n)]
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None)
@given(crosstable_texts(), _MARGINS, st.sampled_from([3, 4, 5]))
def test_random_tables_match_the_oracle(text, margin, max_len):
    new = _outcome(parse_crosstable, text)
    assert _same_crosstable(new, _outcome(oracle.parse_crosstable, text))
    if new[0] != "ok":
        return
    game = to_game(new[1], margin=margin, name="t")
    assert game == oracle.to_game(new[1], margin=margin, name="t")
    _check_game(game)
    _check_cycles(game, max_len)


@st.composite
def game_texts(draw):
    """Game files with every entry spelling and now and then a few tokens
    that are no entry, several to a row."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spellings = np.array(["+1", "0", "-1", "w", "d", "l", "1", "+0", "x", "W"])
    bad = draw(st.sampled_from([0.0, 0.0, 0.02, 0.2]))
    weights = np.r_[np.full(6, (1 - bad) / 6), np.full(4, bad / 4)]
    lines = ["game g", "symmetric false", f"rows {rows} cols {cols}"]
    for i in range(1, rows + 1):
        lines.append(f"row {i}: " + " ".join(rng.choice(spellings, cols, p=weights)))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(game_texts())
def test_random_game_files_match_the_oracle(text):
    new = _outcome(parse_game, text)
    assert new == _outcome(oracle.parse_game, text)
    if new[0] == "ok":
        _check_game(new[1])


@settings(max_examples=150, deadline=None)
@given(text=_mutated("crosstables/*.ct").map(_plain), margin=_MARGINS)
def test_mutated_crosstables_match_the_oracle(text, margin):
    new = _outcome(parse_crosstable, text)
    assert _same_crosstable(new, _outcome(oracle.parse_crosstable, text))
    if new[0] == "ok":
        game = to_game(new[1], margin=margin)
        assert game == oracle.to_game(new[1], margin=margin)
        _check_game(game)
        _check_cycles(game, 3)


@settings(max_examples=150, deadline=None)
@given(text=_mutated("games/*.gm").map(_plain))
def test_mutated_game_files_match_the_oracle(text):
    new = _outcome(parse_game, text)
    old = _outcome(oracle.parse_game, text)
    if new != old:
        # Only the count rule may differ: int() also reads a count with a
        # plus sign, an underscore or another script's digits.
        line = new[2]
        assert new == (
            ParseError, f"row and column counts must be integers (line {line})", line
        )
        counts = text.splitlines()[line - 1].split("#")[0].split()[1::2]
        assert any(
            count.startswith("+") or "_" in count or not count.isascii()
            for count in counts
        )
        return
    if new[0] == "ok":
        _check_game(new[1])
        if new[1].symmetric_flag:
            _check_cycles(new[1], 4)
