"""Test-only oracle: the character-by-character tokenizer the library used to run.

``tokenize`` is ``opencomp.dsl._tokenize`` as it was before it became one
compiled pattern matched at the current position: it walks the text one
character at a time and keeps the line and column by hand.  Tests compare
the two on every token's kind, value, line and column, and on the message
and position of every ``ParseError``.  Like ``fingerprint_oracle.py`` it is
kept for reference and is deliberately not optimised.
"""
from __future__ import annotations

import string

from opencomp.dsl import _KEYWORDS, _MAX_INT_DIGITS, _Token
from opencomp.errors import ParseError

_SYMBOLS = ("=>", "==", "(", ")", "{", "}", ",", "|", "<", ">")
_DIGITS = frozenset(string.digits)
_ID_START = frozenset(string.ascii_letters + "_")
_ID_CHARS = _ID_START | _DIGITS


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            closed = False
            while i < n:
                ch = text[i]
                if ch == "\\":
                    if i + 1 >= n or text[i + 1] not in ('"', "\\"):
                        raise ParseError(
                            "bad escape in quoted program", line=line, column=col
                        )
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if ch == '"':
                    closed = True
                    i += 1
                    col += 1
                    break
                if ch == "\n":
                    line += 1
                    col = 0
                buf.append(ch)
                i += 1
                col += 1
            if not closed:
                raise ParseError(
                    "unterminated quoted program", line=start_line, column=start_col
                )
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched:
            tokens.append(_Token("sym", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > _MAX_INT_DIGITS:
                raise ParseError(
                    f"integer literal longer than {_MAX_INT_DIGITS} digits",
                    line=line, column=col,
                )
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _ID_START:
            j = i
            while j < n and text[j] in _ID_CHARS:
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "id"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line=line, column=col)
    tokens.append(_Token("eof", "", line, col))
    return tokens
