"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: it writes plain text (game
files, strategy sources, crosstable CSV) and keeps the numeric ground truth
the checks compare against.  The library under test only ever sees the
text.  Equal seeds give byte-identical text.
"""
from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIELD_SIZE = 25
FIELD_FUEL = 1000
LEAGUE_ENGINES = 1000
LEAGUE_TOP = 40
LEAGUE_MARGIN = 0.003

# Top-level shape of each generated entrant.  The mix is fixed and only the
# details are drawn, so that every seed fields the same share of cheap
# programs, budgeted simulators and open-ended simulators; the cost of a
# pass then depends little on the seed.
_SHAPES = (
    ("plain",) * 4
    + ("opp-rest",) * 5
    + ("opp-int",) * 8
    + ("self-int",) * 2
    + ("quoted-int",) * 2
    + ("self-rest", "loop", "grow")
)
_BUDGETS = (100, 200, 400)
_INNER_BUDGETS = (50, 100)
_SHAPE_SEED = 2011


def game_text(name: str, entries: np.ndarray) -> str:
    """A symmetric table in the library's plain-text game format."""
    n = len(entries)
    spell = {1: "+1", 0: "0", -1: "-1"}
    lines = [f"game {name}", "symmetric true", f"rows {n} cols {n}"]
    for i, row in enumerate(entries.tolist(), start=1):
        lines.append(f"row {i}: " + " ".join(spell[v] for v in row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# open-field: a random symmetric game and a field of random programs


@dataclass(frozen=True)
class Field:
    game_text: str
    entries: np.ndarray          # ground truth, row player's payoff
    sources: tuple[tuple[str, str], ...]  # (name, program text)


class _ProgramGen:
    """Random programs of the strategy language, nesting depth at most 3.

    Two generators feed it.  ``shape`` draws the structure (node kinds,
    simulation targets and budgets, where variables go) and is seeded with
    a constant, so every workload seed fields programs of the same shapes.
    ``value`` draws the strategy constants and comparisons from the
    workload seed.  Fields drawn wholly at random spread the interpreter
    steps of a pass by 15% to 20% between seeds (IQR/median over seeds
    0-29), which would swamp the differences the benchmark is there to
    show; with fixed structures the spread is 1.2%.
    """

    def __init__(self, shape: random.Random, value: random.Random):
        self.shape = shape
        self.value = value

    def const(self) -> str:
        return f"const {self.value.randint(1, FIELD_SIZE)}"

    def leaf(self, names: list[str]) -> str:
        if names and self.shape.random() < 0.5:
            return names[self.shape.randrange(len(names))]
        return self.const()

    def expr(self, depth: int, names: list[str]) -> str:
        if depth == 0:
            return self.leaf(names)
        kind = self.shape.choices(
            ("leaf", "bestresp", "if", "match"), weights=(3, 3, 2, 2)
        )[0]
        if kind == "leaf":
            return self.leaf(names)
        if kind == "bestresp":
            return f"bestresp({self.expr(depth - 1, names)})"
        if kind == "if":
            op = self.value.choice(("==", "<", ">"))
            parts = [self.expr(depth - 1, names) for _ in range(4)]
            return (
                f"if {parts[0]} {op} {parts[1]} then {parts[2]} else {parts[3]}"
            )
        target = self.shape.choice(("opp", "opp", "self", "quoted"))
        return self.match(depth, names, target, self.shape.choice(_INNER_BUDGETS))

    def quoted(self, depth: int) -> str:
        inner = self.expr(min(depth, 1), [])
        return '"' + inner.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def src(self, kind: str, depth: int) -> str:
        return self.quoted(depth - 1) if kind == "quoted" else kind

    def match(self, depth: int, names: list[str], target: str, budget) -> str:
        var = f"k{depth}"
        adversary = self.shape.choice(("opp", "self", "quoted"))
        on_halted = self.expr(depth - 1, names + [var])
        on_exhausted = self.expr(depth - 1, names)
        return (
            f"match sim({self.src(target, depth)}, {self.src(adversary, depth)}, "
            f"{budget}) {{ halted({var}) => {on_halted} | "
            f"exhausted => {on_exhausted} }}"
        )

    def entrant(self, shape: str) -> str:
        if shape in ("loop", "grow"):
            return shape
        if shape == "plain":
            return self.expr(self.shape.randint(0, 2), [])
        target, budget = shape.split("-")
        budget = "rest" if budget == "rest" else self.shape.choice(_BUDGETS)
        return self.match(3, [], target, budget)


def open_field(seed: int) -> Field:
    value = random.Random(seed)
    entries = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.int64)
    for i in range(FIELD_SIZE):
        for j in range(i + 1, FIELD_SIZE):
            entries[i, j] = value.choice((1, 1, 0, -1, -1))
            entries[j, i] = -entries[i, j]
    gen = _ProgramGen(random.Random(_SHAPE_SEED), value)
    sources = tuple(
        (f"p{number:02d}", gen.entrant(shape))
        for number, shape in enumerate(_SHAPES, start=1)
    )
    return Field(game_text("field25", entries), entries, sources)


# --------------------------------------------------------------------------
# league-analysis: a rating-list crosstable


@dataclass(frozen=True)
class League:
    csv_text: str
    entries: np.ndarray   # the win/draw/loss table the crosstable must give


_MILLI_TEXT = tuple(f"{k / 1000:.3f}" for k in range(1001))


def league(seed: int) -> League:
    """1000 engines: a top group of equal strength over a long tail.

    Expected scores are logistic in the Elo difference, plus N(0, 0.01)
    noise, kept as whole thousandths so that each pair sums to exactly 1.
    Rows are in rating-list order, strongest first.
    """
    n, top = LEAGUE_ENGINES, LEAGUE_TOP
    rng = np.random.default_rng(seed)
    ratings = np.full(n, 500.0)
    ratings[top:] = np.sort(500.0 - np.abs(rng.normal(0.0, 250.0, n - top)))[::-1]
    expected = 1.0 / (1.0 + 10.0 ** ((ratings[None, :] - ratings[:, None]) / 400.0))
    noisy = expected + rng.normal(0.0, 0.01, (n, n))
    upper = np.triu(np.clip(np.rint(noisy * 1000), 0, 1000).astype(np.int64), 1)
    milli = upper + np.tril(1000 - upper.T, -1)

    # Thresholded exactly as the text will read: k / 1000 is the double
    # that parsing "0.kkk" gives.
    score = milli / 1000.0
    entries = np.where(
        score > 0.5 + LEAGUE_MARGIN, 1, np.where(score < 0.5 - LEAGUE_MARGIN, -1, 0)
    )
    entries = np.triu(entries, 1)
    entries = entries - entries.T

    names = [f"e{i:04d}" for i in range(1, n + 1)]
    lines = ["names," + ",".join(names)]
    for i, row in enumerate(milli.tolist()):
        cells = [_MILLI_TEXT[k] for k in row]
        cells[i] = ""
        lines.append(names[i] + "," + ",".join(cells))
    return League("\n".join(lines) + "\n", entries)


def three_cycles(entries: np.ndarray) -> int:
    """Directed 3-cycles of the beats digraph, as trace(B^3) / 3.

    B[i, j] = 1 when j beats i.  An antisymmetric table has no 2-cycles or
    loops, so every closed walk of length 3 is a 3-cycle, counted once per
    rotation.
    """
    beats = (entries.T == 1).astype(np.float64)
    return int(round(float(np.sum((beats @ beats) * beats.T)))) // 3


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write a workload's generated inputs and their ground truth to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "open-field":
        field = open_field(seed)
        (out / "field.gm").write_text(field.game_text)
        for name, source in field.sources:
            (out / f"{name}.lrn").write_text(f"learner {name}\n{source}\n")
        truth = {"entries": field.entries.tolist()}
    elif workload == "league-analysis":
        table = league(seed)
        (out / "league.ct").write_text(table.csv_text)
        np.save(out / "entries.npy", table.entries.astype(np.int8))
        truth = {"three_cycles": three_cycles(table.entries)}
    else:
        truth = {}
    (out / "truth.json").write_text(json.dumps(truth))


if __name__ == "__main__":
    # Run as its own process so that generating the inputs does not count
    # toward the benchmark process's peak memory.
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
