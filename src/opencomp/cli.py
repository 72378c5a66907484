"""Command-line front end.

Every subcommand reads files named on the command line (bundled game names
work as a convenience where a game is expected), writes a deterministic
report to stdout, and exits 0.  Bad invocations exit 1, malformed input
files exit 2, and a failed --assert-class check exits 3.  ``dispatch`` is
the testable core: it never raises and never touches real stdio, and it
returns the text of --help with exit 0.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import bundled
from .arena import Mode, ProgramLearner, render_match, render_report, run_match, run_tournament
from .classify import (
    ClassKind, classify, find_cycles, pure_nash, render_classification,
    render_cycles,
)
from .crosstable import ingest_crosstable
from .demos import run_all_demos
from .dsl import parse_learner_file
from .game_core import GameTable, parse_game, serialize_game, table_cells
from .mixed import fictitious_play
from .series import Aggregator, compose_series

_BUILTIN_GAMES = {
    "rps": bundled.rps,
    "dice": bundled.dice,
    "pennies": bundled.pennies,
}


# 3**9012 has 4,300 digits, the most Python converts to text by default.
# A larger count is printed as a power and never computed, so even the
# largest shape (10**8 cells) answers at once.
_MAX_DECIMAL_CELLS = 9012


class _UsageError(Exception):
    pass


class _Help(Exception):
    """``--help`` was asked for; carries the help text."""


class _DataError(ValueError):
    """Bad input caught by the CLI itself; exits 2 like the library's data errors."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")

    def print_help(self, file=None):
        # The help action prints and then exits; stop it before either.
        raise _Help(self.format_help())


def _read(what: str, path: str, decode: bool = True) -> str | bytes:
    """The UTF-8 file at ``path``, with ``\\r\\n`` and then ``\\r`` read as
    ``\\n``, as ``Path.read_text`` reads it in a UTF-8 locale.  It comes as
    text, or as its bytes if ``decode`` is false and it is ASCII, so that a
    game file is held once while ``parse_game`` decodes it a line at a time.
    """
    try:
        try:
            with open(path, "rb", buffering=0) as file:
                raw = file.read()
        except OSError:
            # Tried again as ``Path`` reads, which drops "." parts and extra
            # slashes: the same file, or the same error naming that path.
            raw = Path(path).read_bytes()
    except OSError as exc:
        raise _DataError(f"cannot read {what} {path}: {exc}") from None
    # The scan for "\r" is a fast one-byte search; the two-byte search of
    # ``replace`` is slow even where it finds nothing (0.25 s on 267 MB).
    data = raw
    if b"\r" in raw:
        data = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not decode and data.isascii():
        return data
    try:
        return data.decode()
    except UnicodeDecodeError:
        raw.decode()  # raises the same error, placed in the file as it is
        raise


def _load_game(spec: str) -> GameTable:
    builder = _BUILTIN_GAMES.get(spec)
    if builder is not None and not Path(spec).exists():
        return builder()
    return parse_game(_read("game file", spec, decode=False))


def _load_learner(path: str) -> ProgramLearner:
    name, program = parse_learner_file(_read("learner file", path))
    return ProgramLearner(name, program)


# Built once per process: ``parse_args`` keeps nothing between calls, and
# building the tree costs about as much as a whole catalog tournament runs.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="opencomp", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def command(name, handler, help, game=True):
        # A command's parser, bound to the handler ``dispatch`` runs; most
        # commands read one game first.
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if game:
            p.add_argument("--game", required=True)
        return p

    modes = [m.value for m in Mode]

    p = command("classify", _cmd_classify, "classify a game table")
    p.add_argument("--assert-class", choices=[k.value for k in ClassKind])

    p = command("cycles", _cmd_cycles, "list beats-cycles of a symmetric game")
    p.add_argument("--max-len", type=int, default=3)

    command("nash", _cmd_nash, "list pure equilibrium cells")

    p = command("arena", _cmd_arena, "run one match between two learner files")
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--fuel", type=int, default=100_000)
    p.add_argument("--fuel2", type=int, default=None)
    p.add_argument("--mode", choices=modes, default="strict")

    p = command("tournament", _cmd_tournament, "round robin over learner files")
    p.add_argument("--learners", required=True, nargs="+")
    p.add_argument("--fuel", type=int, default=100_000)
    p.add_argument("--mode", choices=modes, default="strict")

    p = command("demo", _cmd_demo, "run the no-champion demonstrations", game=False)
    p.add_argument("--fuel", type=int, default=3000)

    p = command(
        "series", _cmd_series, "compose games into one aggregate game", game=False
    )
    p.add_argument("--game", required=True, action="append", dest="games")
    p.add_argument(
        "--aggregate", choices=[a.value for a in Aggregator], default="sum"
    )

    p = command("maxmin", _cmd_maxmin, "approximate maxmin play by fictitious play")
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-2)

    p = command(
        "crosstable", _cmd_crosstable, "threshold a score crosstable into a game",
        game=False,
    )
    p.add_argument("path")
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("--name", default="crosstable")

    p = command(
        "enumerate", _cmd_enumerate, "count distinct tables of a given shape",
        game=False,
    )
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)

    return parser


def _cmd_classify(args) -> tuple[int, str, str]:
    game = _load_game(args.game)
    result = classify(game)
    text = render_classification(game, result)
    if args.assert_class and result.kind != args.assert_class:
        return 3, text, (
            f"classification is {result.kind}, "
            f"expected {args.assert_class}\n"
        )
    return 0, text, ""


def _cmd_cycles(args) -> tuple[int, str, str]:
    game = _load_game(args.game)
    cycles = find_cycles(game, max_len=args.max_len)
    return 0, render_cycles(game, cycles), ""


def _cmd_nash(args) -> tuple[int, str, str]:
    game = _load_game(args.game)
    cells = pure_nash(game)
    lines = [f"game={game.name}", f"pure_nash={len(cells)}"]
    for cell in cells:
        lines.append(f"cell {game.row_name(cell.i)} {game.col_name(cell.j)}")
    return 0, "\n".join(lines) + "\n", ""


def _cmd_arena(args) -> tuple[int, str, str]:
    game = _load_game(args.game)
    learner1 = _load_learner(args.p1)
    learner2 = _load_learner(args.p2)
    record = run_match(
        game, learner1, learner2,
        fuel=args.fuel, mode=args.mode, fuel2=args.fuel2,
    )
    play1 = str(record.side1.strategy) if record.side1.strategy else "-"
    play2 = str(record.side2.strategy) if record.side2.strategy else "-"
    lines = [
        f"game={game.name} fuel={args.fuel} mode={args.mode}",
        render_match(record),
        f"play1={play1} play2={play2}",
    ]
    return 0, "\n".join(lines) + "\n", ""


def _cmd_tournament(args) -> tuple[int, str, str]:
    game = _load_game(args.game)
    learners = [_load_learner(path) for path in args.learners]
    report = run_tournament(game, learners, fuel=args.fuel, mode=args.mode)
    return 0, render_report(report), ""


def _cmd_demo(args) -> tuple[int, str, str]:
    return 0, run_all_demos(fuel=args.fuel), ""


def _cmd_series(args) -> tuple[int, str, str]:
    games = [_load_game(spec) for spec in args.games]
    composed = compose_series(games, aggregator=args.aggregate)
    return 0, serialize_game(composed), ""


def _cmd_maxmin(args) -> tuple[int, str, str]:
    game = _load_game(args.game)
    result = fictitious_play(game, iterations=args.iters, tol=args.tol)
    p1 = ",".join(f"{w:.6f}" for w in result.p1.weights)
    p2 = ",".join(f"{w:.6f}" for w in result.p2.weights)
    line = (
        f"p1=<{p1}> p2=<{p2}> value={result.value:.6f} "
        f"exploitability={result.exploitability:.6f}"
    )
    return 0, line + "\n", ""


def _cmd_crosstable(args) -> tuple[int, str, str]:
    text = _read("crosstable", args.path)
    game = ingest_crosstable(text, margin=args.margin, name=args.name)
    return 0, serialize_game(game), ""


def _cmd_enumerate(args) -> tuple[int, str, str]:
    cells = table_cells(args.rows, args.cols)
    if cells > _MAX_DECIMAL_CELLS:
        return 0, f"games=3^{cells}\n", ""
    return 0, f"games={3 ** cells}\n", ""


def dispatch(argv: list[str]) -> tuple[int, str, str]:
    """Run one invocation; returns (exit code, stdout text, stderr text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return 1, "", str(exc)
    except _Help as exc:
        return 0, str(exc), ""
    if args.command is None:
        return 1, "", parser.format_usage()
    try:
        return args.handler(args)
    except ValueError as exc:  # _DataError and every library data error
        return 2, "", f"error: {exc}\n"
    except Exception as exc:  # last resort, a CLI should not traceback
        return 2, "", f"error: {type(exc).__name__}: {exc}\n"


def main(argv: list[str] | None = None) -> None:
    code, out, err = dispatch(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    raise SystemExit(code)
