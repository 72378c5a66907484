"""A tiny deterministic language for competition strategies.

Programs compute a 1-based strategy index for one side of a game.  The
interesting primitive is ``sim``, which runs another program (usually the
opponent's published source) inside the caller's own fuel budget and reports
whether it halted and with what index.  That is enough to express the
classic counter-strategy: simulate the rival, then best-respond to whatever
it would play.

Grammar::

    prog   := expr
    expr   := "const" INT
            | "bestresp" "(" expr ")"
            | "sim" "(" src "," src "," budget ")"
            | "match" expr "{" "halted" "(" ID ")" "=>" expr
                            "|" "exhausted" "=>" expr "}"
            | "if" expr cmp expr "then" expr "else" expr
            | ID | INT | "loop" | "grow"
    src    := "opp" | "self" | QUOTED_PROGRAM
    budget := "rest" | INT
    cmp    := "==" | "<" | ">"

``INT`` is 1 to 18 ASCII digits and ``ID`` is an ASCII letter or underscore
followed by ASCII letters, digits and underscores; any other character is a
``ParseError`` with its position.  Expressions nest at most 640 deep, a
quoted program counting one level deeper than the ``sim`` that quotes it;
deeper nesting is a ``ParseError`` too, so a walker that takes one frame
per level, such as ``pretty``, can recurse through every tree the parser
builds.  Tree ``==`` and ``hash`` take about two frames per level and can
pass the default recursion limit near the bound.

A quoted program runs as its canonical text (``pretty``), which is built
once per syntax node and kept with the tree.  A source that ``sim`` runs
is parsed once per process, not once per evaluation: the trees (or parse
errors) of the 1024 most recently simulated texts of at most 4096
characters are shared by every evaluation, so the cache holds a bounded
amount of memory.  A longer text is parsed once per evaluation and dropped
when the evaluation returns.  Trees are immutable and parsing costs no
fuel, so sharing changes no result.

Evaluation is small-step and deterministic; every step costs one unit of
fuel from a single shared pool.  ``sim(target, adversary, budget)`` runs
``target`` with ``adversary`` as its opponent.  An integer budget caps the
child's draw on the pool; ``rest`` places no cap beyond the fuel that is
actually left.  A consequence worth spelling out: a program can only observe
``exhausted`` from a child whose budget was an explicit integer (or whose
non-halting was proven early).  A child simulated with ``rest`` that runs
out of fuel has by definition drained the caller's own pool, so the caller
exhausts too.  This is what makes halting results stable under fuel
increases, and what makes two mutual simulators burn all their fuel rather
than bottom out.

The two non-halting primitives are decided where they occur.  The language
has no in-level recursion, so every other step moves the machine strictly
forward and no state (control, continuation and bindings, fuel counters
excluded) can recur, except at ``loop``: a step there leaves the state as it
was.  So when evaluation reaches ``loop`` with fuel left for one more step,
the run can never halt, with or without fuel limits, and it stops with a
two-step witness, provided the state fits ``memory_cap``; over the cap the
level spins until its fuel is gone.  ``grow`` enlarges its state every step,
so it never repeats within any finite state-size cap: it spends the level's
remaining fuel at once.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .classify import best_response
from .errors import ParseError, RuntimeFault
from .game_core import GameTable, Side

DEFAULT_MEMORY_CAP = 65536

_KEYWORDS = {
    "const", "bestresp", "sim", "match", "halted", "exhausted",
    "if", "then", "else", "loop", "grow", "opp", "self", "rest",
}


# --------------------------------------------------------------------------
# Syntax tree


@dataclass(frozen=True)
class Literal:
    value: int
    bare: bool = False  # written as a plain integer rather than "const n"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BestResp:
    arg: "Expr"


@dataclass(frozen=True)
class SrcOpp:
    pass


@dataclass(frozen=True)
class SrcSelf:
    pass


@dataclass(frozen=True)
class SrcQuoted:
    program: "Expr"

    # Not a dataclass field: equality, hashing and the prover's state size
    # see only the program.
    @functools.cached_property
    def text(self) -> str:
        """Canonical text of the quoted program, the source ``sim`` runs."""
        return pretty(self.program)


Src = Union[SrcOpp, SrcSelf, SrcQuoted]


@dataclass(frozen=True)
class Sim:
    target: Src
    adversary: Src
    budget: int | str  # non-negative int, or the string "rest"


@dataclass(frozen=True)
class Match:
    scrutinee: "Expr"
    var: str
    on_halted: "Expr"
    on_exhausted: "Expr"


@dataclass(frozen=True)
class If:
    left: "Expr"
    op: str  # "==", "<" or ">"
    right: "Expr"
    then: "Expr"
    otherwise: "Expr"


@dataclass(frozen=True)
class Loop:
    pass


@dataclass(frozen=True)
class Grow:
    pass


Expr = Union[Literal, Var, BestResp, Sim, Match, If, Loop, Grow]


@dataclass(frozen=True)
class StrategyProgram:
    """A parsed program together with the exact text it came from."""

    source: str
    ast: Expr


# --------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # "kw", "id", "int", "string", "sym", "eof"
    value: str
    line: int
    col: int


# Alternatives in priority order.  Digits and letters are spelled out:
# ``\d`` and ``\w`` would also match other scripts' digits and letters.
_TOKEN = re.compile(r"""
    (?P<blank>[ \t\r]+) | (?P<newline>\n)
  | (?P<string>"(?P<body>[^"\\]*(?:\\["\\][^"\\]*)*)(?P<close>"?))
  | (?P<sym>=>|==|[(){},|<>]) | (?P<int>[0-9]+) | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")
_MAX_INT_DIGITS = 18
_MAX_NESTING = 640
_PARSE_CACHE_SIZE = 1024
# characters: ~15 bytes of tree and quote texts each, ~63 MB for a full cache
_MAX_CACHED_SOURCE = 4096


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, pos, n = 1, 0, 0, len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line=line, column=col
            )
        kind, value, end = m.lastgroup, m.group(), m.end()
        start_line = line
        breaks = value.count("\n")
        if breaks:
            line += breaks
            line_start = pos + value.rindex("\n") + 1
        if kind == "string":
            if not m.group("close"):
                if end == n:
                    raise ParseError(
                        "unterminated quoted program", line=start_line, column=col
                    )
                # The body stopped at a backslash that escapes neither '"'
                # nor '\'.
                raise ParseError(
                    "bad escape in quoted program",
                    line=line, column=end - line_start + 1,
                )
            value = _ESCAPE.sub(r"\1", m.group("body"))
        elif kind == "int" and end - pos > _MAX_INT_DIGITS:
            raise ParseError(
                f"integer literal longer than {_MAX_INT_DIGITS} digits",
                line=line, column=col,
            )
        elif kind == "word":
            kind = "kw" if value in _KEYWORDS else "id"
        if kind not in ("blank", "newline"):
            tokens.append(_Token(kind, value, start_line, col))
        pos = end
    tokens.append(_Token("eof", "", line, n - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# Parser


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
            return SrcQuoted(inner)
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


def parse_program(text: str) -> StrategyProgram:
    """Parse ``text`` into a program; errors carry line and column."""
    return StrategyProgram(source=text, ast=_parse(text, 0))


def _read_source(text: str) -> Expr | ParseError:
    """Syntax tree of a simulated source, or the error that rejects it.

    The error is kept without its traceback or the quoted program's error it
    replaced, so a cached one pins no parser frames.
    """
    try:
        return _parse(text, 0)
    except ParseError as exc:
        exc.__context__ = None
        return exc.with_traceback(None)


# Shared by every evaluation in the process: trees are immutable, and
# parsing is a pure function of the text that costs no fuel, so a cache hit
# cannot change a result.
_parse_source = functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)(_read_source)


def _simulated_tree(
    text: str, long_trees: dict[str, Expr | ParseError]
) -> Expr | ParseError:
    """Tree of a source that ``sim`` runs, each text parsed at most once.

    A text of at most ``_MAX_CACHED_SOURCE`` characters goes through the
    shared cache.  A longer one is kept in ``long_trees``, which lives for
    one evaluation: the shared cache stays small, and a long rival that
    simulates itself on every step is still parsed only once, so fuel keeps
    bounding the work.
    """
    if len(text) <= _MAX_CACHED_SOURCE:
        return _parse_source(text)
    tree = long_trees.get(text)
    if tree is None:
        tree = long_trees[text] = _read_source(text)
    return tree


def parse_learner_file(text: str) -> tuple[str, StrategyProgram]:
    """Parse a learner file: first line ``learner <name>``, rest the program."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty learner file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "learner":
        raise ParseError("first line must be 'learner <name>'", line=1)
    body = "\n".join(lines[1:])
    if not body.strip():
        raise ParseError("learner file has no program text", line=2)
    return header[1], parse_program(body)


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
        inner = node.text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{inner}"'
    raise TypeError(f"not a syntax node: {node!r}")


# --------------------------------------------------------------------------
# Evaluation


class EvalKind(str, Enum):
    HALTED = "Halted"
    FUEL_EXHAUSTED = "FuelExhausted"
    PROVEN_NONHALTING = "ProvenNonHalting"


@dataclass(frozen=True)
class EvalEnv:
    """Everything one evaluation can see: the game, its seat, both sources."""

    game: GameTable
    side: Side
    opponent_source: str
    self_source: str
    fuel: int
    memory_cap: int = DEFAULT_MEMORY_CAP

    def __post_init__(self):
        if self.fuel < 0:
            raise ValueError("fuel must be non-negative")
        if self.memory_cap < 1:
            raise ValueError("memory_cap must be positive")


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one evaluation.

    ``strategy`` is set for Halted results.  ``witness`` is the pair of step
    counters with identical machine state for ProvenNonHalting results (a
    host-level learner may also attach an opponent non-halting witness to a
    Halted result).  ``fuel_used`` counts every step, nested simulations
    included, and never exceeds the fuel granted.
    """

    kind: EvalKind
    strategy: int | None = None
    witness: tuple[int, int] | None = None
    fuel_used: int = 0


@dataclass(frozen=True)
class SimOut:
    """What a program sees of a finished simulation: halted(k) or exhausted.

    Child runs whose non-halting was proven, or that faulted, or whose source
    did not even parse, all surface as ``exhausted``; the language
    deliberately cannot tell these apart.
    """

    tag: str  # "halted" | "exhausted"
    value: int | None = None


@dataclass(frozen=True)
class _KBestResp:
    pass


@dataclass(frozen=True)
class _KMatch:
    var: str
    on_halted: Expr
    on_exhausted: Expr
    bindings: tuple


@dataclass(frozen=True)
class _KIfLeft:
    op: str
    right: Expr
    then: Expr
    otherwise: Expr
    bindings: tuple


@dataclass(frozen=True)
class _KIfRight:
    op: str
    left_value: int
    then: Expr
    otherwise: Expr
    bindings: tuple


class _FaultSignal(Exception):
    pass


class _Level:
    """One live evaluation: the top program or a nested simulation."""

    __slots__ = (
        "control", "kont", "side", "opp_source", "self_source",
        "limit", "start_g",
    )

    def __init__(self, control, side, opp_source, self_source, limit, start_g):
        self.control = control
        self.kont: tuple = ()
        self.side = side
        self.opp_source = opp_source
        self.self_source = self_source
        self.limit = limit          # absolute step count this level may reach
        self.start_g = start_g


def _est_size(state) -> int:
    """Rough byte size of a machine state, used for the prover's cap.

    Walks the state with an explicit stack, so the depth of a syntax tree is
    not bounded by the interpreter's recursion limit.  A part reachable along
    two paths is counted on each.
    """
    size = 0
    stack = [state]
    while stack:
        obj = stack.pop()
        if isinstance(obj, bool) or obj is None:
            size += 16
        elif isinstance(obj, int):
            size += 28
        elif isinstance(obj, str):
            size += 49 + len(obj)
        elif isinstance(obj, tuple):
            size += 56 + 8 * len(obj)
            stack.extend(obj)
        else:  # syntax nodes and frames, all dataclasses
            size += 48
            stack.extend(getattr(obj, f) for f in obj.__dataclass_fields__)
    return size


def _lookup(bindings: tuple, name: str):
    for key, value in reversed(bindings):
        if key == name:
            return value
    raise _FaultSignal(f"unbound identifier '{name}'")


def evaluate(program: StrategyProgram | str, env: EvalEnv) -> EvalResult:
    """Run a program to completion, a fuel limit, or a non-halting proof.

    Deterministic: equal program and environment give equal results.  Raises
    RuntimeFault if the top-level program performs an invalid operation; the
    same inside a simulation is absorbed as an ``exhausted`` view.  The
    halted strategy index is reported as computed, range checking against
    the game is the caller's job.
    """
    if isinstance(program, str):
        program = parse_program(program)
    g = 0  # fuel consumed so far, shared by every nesting level
    long_trees: dict[str, Expr | ParseError] = {}
    game = env.game

    root = _Level(
        control=("expr", program.ast, ()),
        side=env.side,
        opp_source=env.opponent_source,
        self_source=env.self_source,
        limit=env.fuel,
        start_g=0,
    )
    levels = [root]
    final = None

    def src_text(src: Src, lvl: _Level) -> str:
        if isinstance(src, SrcOpp):
            return lvl.opp_source
        if isinstance(src, SrcSelf):
            return lvl.self_source
        return src.text

    def pop(result) -> None:
        nonlocal final
        levels.pop()
        if not levels:
            final = result
            return
        parent = levels[-1]
        if result[0] == "halted":
            parent.control = ("value", SimOut("halted", result[1]))
        else:
            parent.control = ("value", SimOut("exhausted"))

    while levels:
        lvl = levels[-1]
        control = lvl.control

        # A level that reached a bare value with nothing pending is done.
        # Finishing costs no fuel.
        if control[0] == "value" and not lvl.kont:
            value = control[1]
            if isinstance(value, SimOut):
                pop(("fault", "program finished without a strategy index"))
            else:
                pop(("halted", value))
            continue

        if g >= lvl.limit:
            pop(("exhausted",))
            continue

        g += 1
        try:
            if control[0] == "expr":
                node, bindings = control[1], control[2]
                if isinstance(node, Literal):
                    lvl.control = ("value", node.value)
                elif isinstance(node, Var):
                    lvl.control = ("value", _lookup(bindings, node.name))
                elif isinstance(node, Loop):
                    # This step leaves the state as it was, so the next one
                    # would repeat it: a proof, if the state fits the cap
                    # and fuel is left to take that next step.
                    size = _est_size((control, lvl.kont))
                    if g < lvl.limit and size <= env.memory_cap:
                        step = g - lvl.start_g
                        pop(("proven", step, step + 1))
                    else:
                        g = lvl.limit
                        pop(("exhausted",))
                elif isinstance(node, Grow):
                    # Never halts and never repeats a state: spends the rest.
                    g = lvl.limit
                    pop(("exhausted",))
                elif isinstance(node, BestResp):
                    lvl.kont = lvl.kont + (_KBestResp(),)
                    lvl.control = ("expr", node.arg, bindings)
                elif isinstance(node, Match):
                    lvl.kont = lvl.kont + (
                        _KMatch(node.var, node.on_halted, node.on_exhausted, bindings),
                    )
                    lvl.control = ("expr", node.scrutinee, bindings)
                elif isinstance(node, If):
                    lvl.kont = lvl.kont + (
                        _KIfLeft(node.op, node.right, node.then, node.otherwise, bindings),
                    )
                    lvl.control = ("expr", node.left, bindings)
                elif isinstance(node, Sim):
                    adversary = src_text(node.adversary, lvl)
                    text = src_text(node.target, lvl)
                    if isinstance(node.target, SrcOpp):
                        child_side = lvl.side.opposite
                    else:
                        child_side = lvl.side
                    parsed = _simulated_tree(text, long_trees)
                    if isinstance(parsed, ParseError):
                        # A rival whose source is not a runnable program
                        # yields nothing observable.
                        lvl.control = ("value", SimOut("exhausted"))
                    else:
                        if node.budget == "rest":
                            child_limit = lvl.limit
                        else:
                            child_limit = min(lvl.limit, g + node.budget)
                        lvl.control = ("await",)
                        levels.append(_Level(
                            control=("expr", parsed, ()),
                            side=child_side,
                            opp_source=adversary,
                            self_source=text,
                            limit=child_limit,
                            start_g=g,
                        ))
                else:  # pragma: no cover
                    raise _FaultSignal(f"unknown node {node!r}")
            else:  # a value meeting the top continuation frame
                value = control[1]
                frame = lvl.kont[-1]
                lvl.kont = lvl.kont[:-1]
                if isinstance(frame, _KBestResp):
                    if not isinstance(value, int):
                        raise _FaultSignal("best response applied to a non-index")
                    opp_count = game.side_count(lvl.side.opposite)
                    if not 1 <= value <= opp_count:
                        raise _FaultSignal(
                            f"best response to out-of-range strategy {value}"
                        )
                    lvl.control = ("value", best_response(game, lvl.side, value))
                elif isinstance(frame, _KMatch):
                    if not isinstance(value, SimOut):
                        raise _FaultSignal("match on a non-simulation value")
                    if value.tag == "halted":
                        bound = frame.bindings + ((frame.var, value.value),)
                        lvl.control = ("expr", frame.on_halted, bound)
                    else:
                        lvl.control = ("expr", frame.on_exhausted, frame.bindings)
                elif isinstance(frame, _KIfLeft):
                    if not isinstance(value, int):
                        raise _FaultSignal("comparison on a non-integer")
                    lvl.kont = lvl.kont + (
                        _KIfRight(frame.op, value, frame.then, frame.otherwise,
                                  frame.bindings),
                    )
                    lvl.control = ("expr", frame.right, frame.bindings)
                elif isinstance(frame, _KIfRight):
                    if not isinstance(value, int):
                        raise _FaultSignal("comparison on a non-integer")
                    left = frame.left_value
                    if frame.op == "==":
                        taken = left == value
                    elif frame.op == "<":
                        taken = left < value
                    else:
                        taken = left > value
                    lvl.control = (
                        "expr", frame.then if taken else frame.otherwise,
                        frame.bindings,
                    )
                else:  # pragma: no cover
                    raise _FaultSignal(f"unknown frame {frame!r}")
        except _FaultSignal as fault:
            pop(("fault", str(fault)))

    assert final is not None
    if final[0] == "halted":
        return EvalResult(EvalKind.HALTED, strategy=final[1], fuel_used=g)
    if final[0] == "exhausted":
        return EvalResult(EvalKind.FUEL_EXHAUSTED, fuel_used=g)
    if final[0] == "proven":
        return EvalResult(
            EvalKind.PROVEN_NONHALTING, witness=(final[1], final[2]), fuel_used=g
        )
    raise RuntimeFault(final[1], fuel_used=g)


def prove_nonhalt(program: StrategyProgram | str, env: EvalEnv) -> tuple[int, int] | None:
    """State-repetition witness that the program never halts, if one is found.

    Returns a pair of step counters at which the machine state was identical,
    or None when no repetition showed up within the fuel and state-size
    budget.  None says nothing either way; a witness is conclusive.
    """
    try:
        result = evaluate(program, env)
    except RuntimeFault:
        return None
    if result.kind is EvalKind.PROVEN_NONHALTING:
        return result.witness
    return None
