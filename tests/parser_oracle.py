"""Test-only oracle: the hand-written parser and printer the library used to run.

``_Parser``, ``_parse`` and ``pretty`` are ``opencomp.dsl``'s as they were
before one table of forms came to drive both: one branch per keyword in
``_Parser.expr`` and one per node type in ``pretty``.  Tests compare the
two on the tree, the printed text, and the message, line and column of
every ``ParseError``.  Like ``tokenizer_oracle.py`` it is kept for
reference and is deliberately left as it was.
"""
from __future__ import annotations

from opencomp.dsl import (
    _MAX_NESTING, BestResp, Expr, Grow, If, Literal, Loop, Match, Sim, Src,
    SrcOpp, SrcQuoted, SrcSelf, Var, _Token, _tokenize,
)
from opencomp.errors import ParseError


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, line=tok.line, column=tok.col)

    def expect(self, kind: str, value: str) -> None:
        tok = self.next()
        if tok.kind != kind or tok.value != value:
            raise ParseError(
                f"expected '{value}', got '{tok.value or 'end of input'}'",
                line=tok.line, column=tok.col,
            )

    def expr(self, depth: int) -> Expr:
        if depth > _MAX_NESTING:
            raise self.fail(f"expressions nested deeper than {_MAX_NESTING}")
        tok = self.peek()
        if tok.kind == "kw":
            if tok.value == "const":
                self.next()
                num = self.next()
                if num.kind != "int":
                    raise ParseError(
                        "const needs an integer", line=num.line, column=num.col
                    )
                return Literal(int(num.value), bare=False)
            if tok.value == "bestresp":
                self.next()
                self.expect("sym", "(")
                arg = self.expr(depth + 1)
                self.expect("sym", ")")
                return BestResp(arg)
            if tok.value == "sim":
                self.next()
                self.expect("sym", "(")
                target = self.src(depth)
                self.expect("sym", ",")
                adversary = self.src(depth)
                self.expect("sym", ",")
                budget = self.budget()
                self.expect("sym", ")")
                return Sim(target, adversary, budget)
            if tok.value == "match":
                self.next()
                scrutinee = self.expr(depth + 1)
                self.expect("sym", "{")
                self.expect("kw", "halted")
                self.expect("sym", "(")
                var = self.next()
                if var.kind != "id":
                    raise ParseError(
                        "halted pattern needs an identifier",
                        line=var.line, column=var.col,
                    )
                self.expect("sym", ")")
                self.expect("sym", "=>")
                on_halted = self.expr(depth + 1)
                self.expect("sym", "|")
                self.expect("kw", "exhausted")
                self.expect("sym", "=>")
                on_exhausted = self.expr(depth + 1)
                self.expect("sym", "}")
                return Match(scrutinee, var.value, on_halted, on_exhausted)
            if tok.value == "if":
                self.next()
                left = self.expr(depth + 1)
                op = self.next()
                if op.kind != "sym" or op.value not in ("==", "<", ">"):
                    raise ParseError(
                        "expected a comparison (==, < or >)",
                        line=op.line, column=op.col,
                    )
                right = self.expr(depth + 1)
                self.expect("kw", "then")
                then = self.expr(depth + 1)
                self.expect("kw", "else")
                otherwise = self.expr(depth + 1)
                return If(left, op.value, right, then, otherwise)
            if tok.value == "loop":
                self.next()
                return Loop()
            if tok.value == "grow":
                self.next()
                return Grow()
            raise self.fail(f"keyword '{tok.value}' cannot start an expression")
        if tok.kind == "int":
            self.next()
            return Literal(int(tok.value), bare=True)
        if tok.kind == "id":
            self.next()
            return Var(tok.value)
        raise self.fail(
            f"expected an expression, got '{tok.value or 'end of input'}'"
        )

    def src(self, depth: int) -> Src:
        tok = self.peek()
        if tok.kind == "kw" and tok.value == "opp":
            self.next()
            return SrcOpp()
        if tok.kind == "kw" and tok.value == "self":
            self.next()
            return SrcSelf()
        if tok.kind == "string":
            self.next()
            try:
                inner = _parse(tok.value, depth + 1)
            except ParseError as exc:
                raise ParseError(
                    f"inside quoted program: {exc}", line=tok.line, column=tok.col
                ) from None
            return SrcQuoted(inner, tok.value)
        raise self.fail("expected opp, self or a quoted program")

    def budget(self) -> int | str:
        tok = self.next()
        if tok.kind == "kw" and tok.value == "rest":
            return "rest"
        if tok.kind == "int":
            return int(tok.value)
        raise ParseError(
            "budget must be 'rest' or a non-negative integer",
            line=tok.line, column=tok.col,
        )


def _parse(text: str, depth: int) -> Expr:
    parser = _Parser(_tokenize(text))
    tree = parser.expr(depth)
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(
            f"trailing content '{trailing.value}' after program",
            line=trailing.line, column=trailing.col,
        )
    return tree


def pretty(node: Expr | Src) -> str:
    """Canonical text for a syntax tree (single spaces, stable layout).

    Parsing the output reproduces the tree exactly.
    """
    if isinstance(node, Literal):
        return str(node.value) if node.bare else f"const {node.value}"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, BestResp):
        return f"bestresp({pretty(node.arg)})"
    if isinstance(node, Sim):
        budget = node.budget if isinstance(node.budget, str) else str(node.budget)
        return f"sim({pretty(node.target)}, {pretty(node.adversary)}, {budget})"
    if isinstance(node, Match):
        return (
            f"match {pretty(node.scrutinee)} {{ halted({node.var}) => "
            f"{pretty(node.on_halted)} | exhausted => {pretty(node.on_exhausted)} }}"
        )
    if isinstance(node, If):
        return (
            f"if {pretty(node.left)} {node.op} {pretty(node.right)} "
            f"then {pretty(node.then)} else {pretty(node.otherwise)}"
        )
    if isinstance(node, Loop):
        return "loop"
    if isinstance(node, Grow):
        return "grow"
    if isinstance(node, SrcOpp):
        return "opp"
    if isinstance(node, SrcSelf):
        return "self"
    if isinstance(node, SrcQuoted):
        inner = pretty(node.program).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{inner}"'
    raise TypeError(f"not a syntax node: {node!r}")
