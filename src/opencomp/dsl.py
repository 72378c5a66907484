"""A tiny deterministic language for competition strategies.

Programs compute a 1-based strategy index for one side of a game.  The
interesting primitive is ``sim``, which runs another program (usually the
opponent's published source) inside the caller's own fuel budget and reports
whether it halted and with what index.  That is enough to express the
classic counter-strategy: simulate the rival, then best-respond to whatever
it would play.

The grammar is stated once, in the table ``_FORMS``: each keyword that
starts an expression maps to its node type and to the tokens after it, in
the order of the node's fields.  An item there is a token spelled out or a
slot that one field fills: ``EXPR`` (an expression), ``INT``, ``ID``,
``CMP`` (``==``, ``<`` or ``>``), ``SRC`` (``opp``, ``self`` or a quoted
program) or ``BUDGET`` (``rest`` or an ``INT``).  An expression is one of
those forms, a bare ``INT`` or an ``ID``.  The parser and ``pretty`` both
walk the table, so printing a tree and parsing the text give the tree back.

``INT`` is 1 to 18 ASCII digits and ``ID`` is an ASCII letter or underscore
followed by ASCII letters, digits and underscores; any other character is a
``ParseError`` with its position.  Expressions nest at most 640 deep, a
quoted program counting one level deeper than the ``sim`` that quotes it;
deeper nesting is a ``ParseError`` too, so a walker that takes one frame
per level, such as ``pretty`` or the parser itself (an expression slot
recurses straight from the expression it sits in), can recurse through
every tree the parser builds.  Tree ``==`` and ``hash`` take about two
frames per level and can pass the default recursion limit near the bound.

A quoted program runs as its own syntax tree, kept with the text it was
parsed from, and is never parsed again.  Every other text is read through
``source_tree``, one cache per process from text to tree (or to the
verdict that the text is not a program): ``parse_program``, and so
``parse_learner_file`` and an ``arena`` ``ProgramLearner`` given text; the
two sources ``evaluate`` is given, its opponent's and its own, read when a
``sim`` first runs them; and the rivals of the host-level oracle in
``demos``.  So a learner runs the very tree its rivals simulate, and each
text is parsed at most once per process while it fits the cache.  The
cache holds at most ``_PARSE_CACHE_CHARS`` characters, each entry charged
its length and a fixed cost.  When a new text would pass that bound the
cache starts afresh; a text longer than the whole bound is then held alone
until the next new text arrives, so no text is refused for its length.
Trees are immutable and parsing costs no fuel, so sharing changes no
result.

Best replies are read the same way.  Each ``GameTable`` keeps a memo of
the replies ``bestresp`` has asked it for, keyed by seat and opponent
index: at most one entry per strategy of each side, checked against the
table's range before it is stored, and dropped with the table.  Every
evaluation on a table shares it, and a reply is a pure function of the
table's immutable entries, so a memo hit changes no result.

Simulations are tabled too.  A child sees only its target's tree, its
adversary's tree, its seat, the table and the fuel ``a`` it may use, so
its result (``halted(k)`` or ``exhausted``) and the fuel it spends are a
function of those.  Each ``GameTable`` keeps the last finished run per
(target, seat, adversary), every source keyed by its text: the text
``evaluate`` was given, or the text between a quote's quotes.  Equal texts
parse to equal trees, since nesting depth only decides whether a parse
fails, so sources of equal text share a record.  A record of a run that
spent ``c`` fuel answers a budget ``a`` without running the child:

* every ``a < c`` as ``exhausted``, spending ``a``: the shorter run is the
  longer one cut off;
* a run that halted, or that ended strictly before its own limit (a fault
  or a proof), answers every ``a >= c`` the same way, spending ``c``: no
  limit was met, so a larger one changes nothing.  A proof's ``loop``
  step with exactly ``c`` fuel ends as ``exhausted`` after ``c`` steps,
  which is what the parent of a proof sees;
* a run that did not halt and ended exactly at its limit answers only
  ``a = c``.  It may have ended because of that limit:
  ``sim("grow", self, rest)`` faults for free once ``grow`` has spent the
  limit, at whatever limit it has.

Any other budget runs the child, and its run replaces the record.  Only
``sim`` children are tabled, not the top-level evaluation.  A table
records at most 4096 keys, which bounds what a hostile rival minting
quotes can make it hold, and the records are dropped with the table.

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
than bottom out.  The burn is not run level by level.  A ``sim`` whose
target, seat and adversary (keyed by text, as in the records above) and
limit equal a live ancestor's starts in that ancestor's state, and the
machine reads the fuel counter only against limits (a nested level's
witness reaches its parent as ``exhausted``), so the child would repeat
the ancestor's descent until the shared limit stops it.  The limit is
spent at once instead: every level that has it then holds a simulation's
result and pops as exhausted or as a fault, as in the full descent, so
the result and ``fuel_used`` are unchanged.

The two non-halting primitives are decided where they occur.  The language
has no in-level recursion, so every other step moves the machine strictly
forward and no state (control, continuation and bindings, fuel counters
excluded) can recur, except at ``loop``: a step there leaves the state as it
was.  So when evaluation reaches ``loop`` with fuel left for one more step,
the run can never halt, with or without fuel limits, and it stops with a
two-step witness.  ``grow`` enlarges its state every step, so it never
repeats and no prover can decide it: it spends the level's remaining fuel at
once.  So ``loop`` with fuel left for one more step is a proof; ``grow``
never is.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, fields
from enum import StrEnum
from typing import NamedTuple, Union

from .classify import best_response
from .errors import ParseError, RuntimeFault
from .game_core import _OPPOSITE, GameTable, Side

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
    """A quoted program: its tree, which ``sim`` runs as it runs a
    ``_Given``'s, and the unescaped text between the quotes, which parses to
    that tree and keys ``sim``'s records.  Quotes are equal when their trees
    are, so the text takes no part in ``==``, ``hash`` or ``repr``.  A quote
    built by hand gets ``pretty(program)`` as its text."""

    program: "Expr"
    text: str = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.text is None:
            object.__setattr__(self, "text", pretty(self.program))


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
# Grammar

# Each keyword that starts an expression: its node type, and the items after
# it in the order of the node's fields.  An upper-case item is a slot that
# one field fills, any other a token spelled out.
_FORMS = {
    "const": (Literal, ("INT",)),
    "bestresp": (BestResp, ("(", "EXPR", ")")),
    "sim": (Sim, ("(", "SRC", ",", "SRC", ",", "BUDGET", ")")),
    "match": (Match, ("EXPR", "{", "halted", "(", "ID", ")", "=>", "EXPR",
                      "|", "exhausted", "=>", "EXPR", "}")),
    "if": (If, ("EXPR", "CMP", "EXPR", "then", "EXPR", "else", "EXPR")),
    "loop": (Loop, ()),
    "grow": (Grow, ()),
}
_SOURCES = {"opp": SrcOpp, "self": SrcSelf}
# What each comparison a ``CMP`` slot may hold computes.
_COMPARE = {"==": operator.eq, "<": operator.lt, ">": operator.gt}
# Every slot but an expression is one token; the message for a token that
# cannot fill it.
_SLOT_ERRORS = {
    "SRC": "expected opp, self or a quoted program",
    "INT": "const needs an integer",
    "ID": "halted pattern needs an identifier",
    "CMP": "expected a comparison (==, < or >)",
    "BUDGET": "budget must be 'rest' or a non-negative integer",
}
_KEYWORDS = {*_FORMS, *_SOURCES, "rest"}.union(
    item for _, items in _FORMS.values() for item in items if item.islower()
)
# What ``pretty`` prints for each node type a keyword starts: the keyword,
# the items after it, and the names of the fields its slots fill.
_PRINTED = {
    node_type: (word, items, tuple(f.name for f in fields(node_type)))
    for word, (node_type, items) in _FORMS.items()
}
_PRINTED.update((node_type, (word, (), ())) for word, node_type in _SOURCES.items())
# Spelled tokens printed with no space before them; none follows "(" either.
_TIGHT = ("(", ")", ",")


# --------------------------------------------------------------------------
# Lexer


class _Token(NamedTuple):
    kind: str  # "kw", "id", "int", "string", "sym", "eof"
    value: str
    line: int
    col: int


# Alternatives in priority order.  Digits and letters are spelled out:
# ``\d`` and ``\w`` would also match other scripts' digits and letters.
_TOKEN = re.compile(r"""
    (?P<blank>[ \t\r\n]+)
  | (?P<string>"(?P<body>[^"\\]*(?:\\["\\][^"\\]*)*)(?P<close>"?))
  | (?P<sym>=>|==|[(){},|<>]) | (?P<int>[0-9]+) | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")
_MAX_INT_DIGITS = 18
_MAX_NESTING = 640
# Characters of text the parse cache holds, each entry charged 32 more for
# its fixed cost.  Key and tree take up to ~22 bytes per charged character
# (tracemalloc, nineteen shapes of source; short texts stay under 12, as
# 5,000 "const i" take ~195 bytes each), ~92 MB for a full cache.  Quotes
# keep their text, one copy per level: a body quoted 4 deep reaches ~29,
# 8 deep ~32.
_PARSE_CACHE_CHARS = 1 << 22
_SIM_MEMO_SIZE = 4096  # simulation keys a table records


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
        if kind != "blank":
            tokens.append(_Token(kind, value, start_line, col))
        pos = end
    tokens.append(_Token("eof", "", line, n - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# Parser


def _error(message: str, tok: _Token) -> ParseError:
    return ParseError(message, line=tok.line, column=tok.col)


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

    def expr(self, depth: int) -> Expr:
        if depth > _MAX_NESTING:
            raise _error(f"expressions nested deeper than {_MAX_NESTING}", self.peek())
        tok = self.next()
        if tok.kind == "int":
            return Literal(int(tok.value), bare=True)
        if tok.kind == "id":
            return Var(tok.value)
        if tok.kind != "kw":
            raise _error(
                f"expected an expression, got '{tok.value or 'end of input'}'", tok
            )
        form = _FORMS.get(tok.value)
        if form is None:
            raise _error(f"keyword '{tok.value}' cannot start an expression", tok)
        node_type, items = form
        values = []
        for item in items:
            if item == "EXPR":
                # Straight from here: one frame per nesting level.
                values.append(self.expr(depth + 1))
            elif item.isupper():
                values.append(self.field(item, depth))
            else:
                tok = self.next()
                # Only a quoted program can spell a token without being it.
                if tok.value != item or tok.kind == "string":
                    raise _error(
                        f"expected '{item}', got '{tok.value or 'end of input'}'", tok
                    )
        return node_type(*values)

    def field(self, slot: str, depth: int):
        """The value of the one token that fills ``slot``."""
        tok = self.next()
        kind, value = tok.kind, tok.value
        if slot == "SRC":
            if kind == "string":
                try:
                    inner = _parse(value, depth + 1)
                except ParseError as exc:
                    raise _error(f"inside quoted program: {exc}", tok) from None
                return SrcQuoted(inner, value)
            if kind == "kw" and value in _SOURCES:
                return _SOURCES[value]()
        elif kind == "int" and slot in ("INT", "BUDGET"):
            return int(value)
        elif (slot == "ID" and kind == "id"
              or slot == "CMP" and kind == "sym" and value in _COMPARE
              or slot == "BUDGET" and kind == "kw" and value == "rest"):
            return value
        raise _error(_SLOT_ERRORS[slot], tok)


def _parse(text: str, depth: int) -> Expr:
    parser = _Parser(_tokenize(text))
    tree = parser.expr(depth)
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise _error(f"trailing content '{trailing.value}' after program", trailing)
    return tree


def parse_program(text: str) -> StrategyProgram:
    """Parse ``text`` into a program; errors carry line and column.

    The tree is read through the shared cache, so it is the very tree a
    rival's ``sim`` runs when it simulates ``text``.
    """
    tree = source_tree(text)
    if tree is None:
        _parse(text, 0)  # raises the text's ParseError
    return StrategyProgram(source=text, ast=tree)


# Shared by every evaluation in the process: trees are immutable, and
# parsing is a pure function of the text that costs no fuel, so a cache hit
# cannot change a result.
_trees: dict[str, Expr | None] = {}
_held = 0  # characters charged for the texts in ``_trees``


def source_tree(text: str) -> Expr | None:
    """Syntax tree of a program text, or None if the text is not a program:
    parsed once, then read from the shared cache while the text is held."""
    global _held
    try:
        return _trees[text]
    except KeyError:
        pass
    try:
        tree = _parse(text, 0)
    except ParseError:
        tree = None
    cost = len(text) + 32  # 32 characters for the entry's fixed cost
    if _held + cost > _PARSE_CACHE_CHARS:
        # Start afresh; a text over the whole budget is then held alone.
        _trees.clear()
        _held = 0
    _trees[text] = tree
    _held += cost
    return tree


def parse_learner_file(text: str) -> tuple[str, StrategyProgram]:
    r"""Parse a learner file: first line ``learner <name>``, rest the program.

    The header ends at the first ``\n``; the program is the rest of the text
    as written, less one trailing ``\n`` or ``\r\n``.
    """
    if not text:
        raise ParseError("empty learner file")
    first, _, body = text.partition("\n")
    header = first.split()
    if len(header) != 2 or header[0] != "learner":
        raise ParseError("first line must be 'learner <name>'", line=1)
    body = body[:-2] if body.endswith("\r\n") else body.removesuffix("\n")
    if not body.strip():
        raise ParseError("learner file has no program text", line=2)
    tree = source_tree(body)
    if tree is None:
        _parse("\n" + body, 0)  # raises with the line numbers of the file
    return header[1], StrategyProgram(source=body, ast=tree)


def pretty(node: Expr | Src) -> str:
    """Canonical text for a syntax tree (single spaces, stable layout).

    Parsing the output reproduces the tree exactly.
    """
    kind = type(node)
    if kind is Literal and node.bare:
        return str(node.value)
    if kind is Var:
        return node.name
    if kind is SrcQuoted:
        inner = pretty(node.program).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{inner}"'
    spelling = _PRINTED.get(kind)
    if spelling is None:
        raise TypeError(f"not a syntax node: {node!r}")
    text, items, names = spelling
    names, prev = iter(names), None
    for item in items:
        part = item
        if item.isupper():
            value = getattr(node, next(names))
            part = pretty(value) if item in ("EXPR", "SRC") else str(value)
        text += part if item in _TIGHT or prev == "(" else " " + part
        prev = item
    return text


# --------------------------------------------------------------------------
# Evaluation


class EvalKind(StrEnum):
    """How one side's play ended.

    ``evaluate`` returns only the first three kinds (or raises
    RuntimeFault).  The arena sets the other two on a side's record: a
    play that raised RuntimeFault, and a Halted play whose strategy is not
    an int in ``1..side_count`` for its seat.  ``arena.adjudicate`` ranks
    them: RuntimeFault and InvalidStrategy lowest, then FuelExhausted and
    ProvenNonHalting, then Halted.
    """

    HALTED = "Halted"
    FUEL_EXHAUSTED = "FuelExhausted"
    PROVEN_NONHALTING = "ProvenNonHalting"
    RUNTIME_FAULT = "RuntimeFault"
    INVALID_STRATEGY = "InvalidStrategy"


# Members read on every evaluation and match, bound once: on Python 3.11
# the enum metaclass defines ``__getattr__``, so each ``EvalKind.HALTED``
# read takes the interpreter's slow attribute path, many times a global's.
_HALTED = EvalKind.HALTED
_FUEL_EXHAUSTED = EvalKind.FUEL_EXHAUSTED
_PROVEN_NONHALTING = EvalKind.PROVEN_NONHALTING
_RUNTIME_FAULT = EvalKind.RUNTIME_FAULT
_INVALID_STRATEGY = EvalKind.INVALID_STRATEGY


class _EnvFields(NamedTuple):
    game: GameTable
    side: Side
    opponent_source: str
    self_source: str
    fuel: int


class EvalEnv(_EnvFields):
    """Everything one evaluation can see: the game, its seat, both sources.

    An immutable named tuple.  Every way to build one (the constructor,
    ``_make``, ``_replace``, copying and unpickling) checks the fuel.
    """

    __slots__ = ()

    def __new__(cls, game, side, opponent_source, self_source, fuel):
        if fuel < 0:
            raise ValueError("fuel must be non-negative")
        return tuple.__new__(
            cls, (game, side, opponent_source, self_source, fuel)
        )

    @classmethod
    def _make(cls, iterable):
        # The inherited ``_make``, which ``_replace`` calls too, would skip
        # ``__new__`` and its check.
        return cls(*iterable)


class EvalResult(NamedTuple):
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


class SimOut(NamedTuple):
    """What a program sees of a finished simulation: halted(k) or exhausted.

    Child runs whose non-halting was proven, or that faulted, or whose source
    did not even parse, all surface as ``exhausted``; the language
    deliberately cannot tell these apart.
    """

    tag: str  # "halted" | "exhausted"
    value: int | None = None


_EXHAUSTED = SimOut("exhausted")
# How a level ends: its kind, then its strategy (or a fault's message), then
# its witness.
_OUT_OF_FUEL = (_FUEL_EXHAUSTED, None, None)
# Builds a named tuple from a tuple of all its fields, without the Python
# frame of its generated ``__new__``; used where every field is at hand.
_tuple_new = tuple.__new__


class _FaultSignal(Exception):
    pass


class _Given:
    """A source text handed to ``evaluate``, parsed when a ``sim`` first runs
    it.  Like ``SrcQuoted``, it is a source with a ``text`` and a
    ``program``, its tree, or None when the text is not a program.  A text
    the shared cache already holds takes its tree at once; any other waits
    for a ``sim``, so a source no ``sim`` runs is never parsed.  The two
    holders are made when the root first reaches a ``sim``, so a run that
    simulates nothing makes none."""

    __slots__ = ("text", "program")

    def __init__(self, text: str):
        self.text = text
        if text in _trees:
            self.program = _trees[text]

    def __getattr__(self, name):
        # Reached only while ``program`` is unset.  The tree is kept on the
        # holder too, so an evaluation keeps it even if the shared cache
        # starts afresh while it runs.
        if name != "program":
            raise AttributeError(name)
        self.program = tree = source_tree(self.text)
        return tree


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
    game, side, opponent_source, self_source, limit = env
    replies = game._replies  # (seat, opponent index) -> best reply
    sims = game._sims  # (target, seat, adversary) -> finished simulation

    # A level is one live evaluation, the root program or a nested
    # simulation: the tuple (kont, side, opp, me, limit, start, key,
    # shadowed).  ``kont`` holds its pending (node, bindings, left) frames,
    # innermost last: a BestResp, Match or If node, the bindings it was
    # reached with, and the left value of an If whose left side is done
    # (None otherwise).  ``opp`` and ``me`` are its two sources, a
    # ``_Given`` or a ``SrcQuoted``; the root's are None until it first
    # reaches a ``sim``.  ``limit`` is the absolute step count it may reach,
    # ``start`` the step count when it began, ``key`` the (target, seat,
    # adversary) of a simulation and ``shadowed`` the live level it hides
    # under that key.  Only ``kont`` changes, in place.
    kont, opp, me = [], None, None
    lvl = (kont, side, opp, me, limit, 0, None, None)
    levels = [lvl]
    # Deepest live simulation per (target, seat, adversary), each source
    # keyed by its text, as in the record.  The root is not entered: its
    # program need not be ``env.self_source``.
    live: dict = {}
    # The running level is ``lvl``, with its continuation, seat, sources and
    # limit in locals.  Its control is ``node`` under ``bindings``, or, when
    # ``node`` is None, the ``value`` the last step produced.
    node, bindings, value = program.ast, (), None

    while True:
        try:
            if node is not None:
                if g >= limit:
                    result = _OUT_OF_FUEL
                else:
                    g += 1
                    # Node types in order of how often a step meets them.
                    kind = type(node)
                    if kind is Literal:
                        value = node.value
                        node = None
                        continue
                    if kind is Match:
                        kont.append((node, bindings, None))
                        node = node.scrutinee
                        continue
                    if kind is Sim:
                        if opp is None:  # the root's first ``sim``
                            opp = _Given(opponent_source)
                            me = _Given(self_source)
                            lvl = levels[0] = (kont, side, opp, me, *lvl[4:])
                        target, child_side = node.target, side
                        if type(target) is SrcOpp:
                            target, child_side = opp, _OPPOSITE[side]
                        elif type(target) is SrcSelf:
                            target = me
                        adversary = node.adversary
                        if type(adversary) is SrcOpp:
                            adversary = opp
                        elif type(adversary) is SrcSelf:
                            adversary = me
                        tree = target.program
                        if tree is None:
                            # A rival whose source is not a runnable program
                            # yields nothing observable.
                            value = _EXHAUSTED
                            node = None
                            continue
                        room = limit - g  # the fuel the child may use
                        if node.budget != "rest" and node.budget < room:
                            room = node.budget
                        key = (target.text, child_side, adversary.text)
                        # (fuel spent, what the parent saw, whether a larger
                        # budget ends the same way)
                        record = sims.get(key)
                        if record is not None and (room <= record[0] or record[2]):
                            if room < record[0]:  # cut off before its end
                                g += room
                                value = _EXHAUSTED
                            else:
                                g += record[0]
                                value = record[1]
                            node = None
                            continue
                        kont, side, opp, me = [], child_side, adversary, target
                        limit = g + room
                        twin = live.get(key)
                        lvl = (kont, side, opp, me, limit, g, key, twin)
                        if twin is not None and twin[4] == limit:
                            # The child starts in its twin's state, and its
                            # run would repeat the twin's descent until the
                            # shared limit stops it: spend that limit now.
                            g = limit
                        live[key] = lvl
                        levels.append(lvl)
                        node, bindings = tree, ()
                        continue
                    if kind is BestResp:
                        kont.append((node, bindings, None))
                        node = node.arg
                        continue
                    if kind is If:
                        kont.append((node, bindings, None))
                        node = node.left
                        continue
                    if kind is Var:
                        value = _lookup(bindings, node.name)
                        node = None
                        continue
                    if kind is Loop:
                        # This step leaves the state as it was, so the next
                        # one would repeat it: a proof, if fuel is left to
                        # take that next step.  Only the root's witness is
                        # reported, and it starts at step 0.
                        result = ((_PROVEN_NONHALTING, None, (g, g + 1))
                                  if g < limit else _OUT_OF_FUEL)
                    else:  # Grow
                        # Never halts and never repeats a state: spends the
                        # rest.
                        g = limit
                        result = _OUT_OF_FUEL
            elif kont:  # a value meeting the top continuation frame
                if g >= limit:
                    result = _OUT_OF_FUEL
                else:
                    g += 1
                    node, bindings, left = kont.pop()
                    kind = type(node)
                    if kind is Match:
                        if not isinstance(value, SimOut):
                            raise _FaultSignal("match on a non-simulation value")
                        if value.tag == "halted":
                            bindings = bindings + ((node.var, value.value),)
                            node = node.on_halted
                        else:
                            node = node.on_exhausted
                        continue
                    if kind is If:
                        if not isinstance(value, int):
                            raise _FaultSignal("comparison on a non-integer")
                        if left is None:
                            kont.append((node, bindings, value))
                            node = node.right
                            continue
                        taken = _COMPARE[node.op](left, value)
                        node = node.then if taken else node.otherwise
                        continue
                    # BestResp, read through the table's memo, which holds
                    # only indices that passed the range check.
                    if not isinstance(value, int):
                        raise _FaultSignal("best response applied to a non-index")
                    reply = replies.get((side, value))
                    if reply is None:
                        if not 1 <= value <= game.side_count(_OPPOSITE[side]):
                            raise _FaultSignal(
                                f"best response to out-of-range strategy {value}"
                            )
                        reply = replies[side, value] = best_response(
                            game, side, value
                        )
                    value = reply
                    node = None
                    continue
            elif isinstance(value, SimOut):
                # A level that reached a bare value with nothing pending is
                # done.  Finishing costs no fuel.
                result = (_RUNTIME_FAULT,
                          "program finished without a strategy index", None)
            else:
                result = (_HALTED, value, None)
        except _FaultSignal as fault:
            result = (_RUNTIME_FAULT, str(fault), None)

        # The running level has ended with ``result``.  If it is a
        # simulation, its parent, whose control is still the ``sim`` that
        # started it, sees what it became, and the table records it.
        levels.pop()
        if not levels:
            break
        key = lvl[6]
        live[key] = lvl[7]
        if result[0] is _HALTED:
            value, closed = _tuple_new(SimOut, ("halted", result[1])), True
        else:
            # An end at the limit may have been forced by it.
            value, closed = _EXHAUSTED, g < limit
        if key in sims or len(sims) < _SIM_MEMO_SIZE:
            sims[key] = (g - lvl[5], value, closed)
        lvl = levels[-1]
        kont, side, opp, me, limit = lvl[:5]
        node = None

    if result[0] is _RUNTIME_FAULT:
        raise RuntimeFault(result[1], fuel_used=g)
    return _tuple_new(EvalResult, (*result, g))
