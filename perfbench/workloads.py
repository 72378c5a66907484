"""The three workloads: their inputs, one pass of work, and its checks.

A pass returns what it produced; ``check`` compares that against oracles
that do not call the code under test where that can be helped (the
benchmark's own copy of each table, its own adjudication rules, numpy
recomputations) and returns the problems found together with the pass's
exact counts.  The run loop then requires the counts to repeat on every
pass and to equal the reference recorded for the seed.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

from opencomp import (
    OracleWinner, ProgramLearner, build_exploiter, classify, fictitious_play,
    find_cycles, ingest_crosstable, outcome, parse_game, parse_learner_file,
    pure_nash, render_report, run_tournament, serialize_game,
)
from opencomp.cli import dispatch

from gen import LEAGUE_MARGIN
from spans import NULL

REFERENCE = Path(__file__).resolve().parent / "reference.json"
_BAD = ("RuntimeFault", "InvalidStrategy")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sign(value) -> int:
    value = int(value)
    return (value > 0) - (value < 0)


def _expected_result(entries: np.ndarray, side1, side2, deadline: bool) -> str:
    """The arena's scoring rules, restated independently of ``adjudicate``."""
    tag1, tag2 = side1.outcome.value, side2.outcome.value
    if tag1 in _BAD or tag2 in _BAD:
        if tag1 in _BAD and tag2 in _BAD:
            return "Undecided"
        return "Win2" if tag1 in _BAD else "Win1"
    if tag1 == "Halted" and tag2 == "Halted":
        value = _sign(entries[side1.strategy - 1, side2.strategy - 1])
        return {1: "Win1", -1: "Win2", 0: "Draw"}[value]
    for halted, other, win in ((tag1, tag2, "Win1"), (tag2, tag1, "Win2")):
        if halted == "Halted" and (deadline or other == "ProvenNonHalting"):
            return win
    return "Undecided"


def _report_counts(report: str) -> tuple[list[str], dict]:
    """Exact counts read off a tournament report, and its tally problems."""
    lines = report.splitlines()
    matches = [line for line in lines if line.startswith("match ")]
    counts = Counter()
    for line in matches:
        for field in line.split()[-3:-1]:
            counts["outcome." + field.split("=")[1]] += 1
    counts = dict(sorted(counts.items()))
    counts["report_sha256"] = sha256(report)
    counts["matches"] = len(matches)

    problems = []
    totals = Counter()
    for line in lines:
        if line.startswith("tally "):
            for field in line.split()[2:]:
                key, value = field.split("=")
                totals[key] += int(value)
    if sum(totals.values()) != 2 * len(matches):
        problems.append(f"tallies sum to {sum(totals.values())}, not 2 x matches")
    if totals["wins"] != totals["losses"]:
        problems.append("tallied wins and losses differ")
    return problems, counts


class _Tournament:
    """Shared pass for the two tournament workloads."""

    fuel: int
    mode: str
    deadline: bool

    def learners(self, tracer) -> list:
        learners = []
        for text in self.learner_texts:
            with tracer.span("dsl.parse_learner_file"):
                name, program = parse_learner_file(text)
            learners.append(tracer.wrap(ProgramLearner(name, program), "dsl.evaluate"))
        return learners

    def traced_pass(self, tracer) -> dict:
        with tracer.span("bench.pass"):
            with tracer.span("game_core.parse_game"):
                game = parse_game(self.game_text)
            learners = self.learners(tracer)
            with tracer.span("arena.run_tournament"):
                report = run_tournament(game, learners, fuel=self.fuel, mode=self.mode)
            with tracer.span("arena.render_report"):
                text = render_report(report)
        return {"report": text, "records": report.records, "game": game}

    def timed_pass(self) -> dict:
        return self.traced_pass(NULL)

    @staticmethod
    def work(counts: dict) -> int:
        """Work of one pass: interpreter steps over both seats of every match."""
        return counts.get("steps", 0)

    def check(self, out: dict) -> tuple[list[str], dict]:
        problems, counts = _report_counts(out["report"])
        counts["text_bytes"] = len(self.game_text.encode())
        records = out.get("records")
        if records is not None:
            counts["steps"] = sum(r.side1.fuel_used + r.side2.fuel_used for r in records)
            for record in records:
                expected = _expected_result(
                    self.entries, record.side1, record.side2, self.deadline
                )
                if record.result.value != expected:
                    problems.append(
                        f"{record.learner1} vs {record.learner2}: "
                        f"{record.result.value}, rules give {expected}"
                    )
        return problems, counts


class CatalogTournament(_Tournament):
    """The CLI ``tournament`` command on rps and the nine catalog learners."""

    name = "catalog-tournament"
    fuel = 100_000
    mode = "strict"
    deadline = False

    def __init__(self, root: Path, inputs: Path):
        self.game_path = root / "games" / "rps.gm"
        self.learner_paths = sorted((root / "learners").glob("*.lrn"))
        self.argv = [
            "tournament", "--game", str(self.game_path),
            "--learners", *map(str, self.learner_paths),
            "--fuel", str(self.fuel), "--mode", self.mode,
        ]
        self.game_text = self.game_path.read_text()
        self.learner_texts = [path.read_text() for path in self.learner_paths]
        # The benchmark's own reading of the payoff rows, for the oracles.
        self.entries = np.array([
            [int(cell) for cell in line.split(":")[1].split()]
            for line in self.game_text.splitlines() if line.startswith("row ")
        ])

    def setup_script(self, src: Path) -> str:
        return _loader_script(src, self.game_path, self.learner_paths)

    def timed_pass(self) -> dict:
        code, report, err = dispatch(self.argv)
        return {"report": report, "code": code, "err": err}

    def check(self, out: dict) -> tuple[list[str], dict]:
        problems, counts = super().check(out)
        if out.get("code", 0) != 0 or out.get("err"):
            problems.append(f"dispatch exit {out['code']}: {out['err'].strip()}")
        if not out["report"].endswith("universal_winner=none\n"):
            problems.append("the catalog has a universal winner")
        records = out.get("records")
        if records is None:
            return problems, counts

        # Members that halt by construction: no simulation and no loop.
        halting = {
            text.split()[1] for text in self.learner_texts
            if not any(word in text.split("\n", 1)[1] for word in ("sim", "loop", "grow"))
        }
        for record in records:
            if "exploiter" not in (record.learner1, record.learner2):
                continue
            first = record.learner1 == "exploiter"
            rival = record.learner2 if first else record.learner1
            if rival in halting or rival == "loop":
                if record.result.value != ("Win1" if first else "Win2"):
                    problems.append(f"exploiter does not beat {rival}")
        return problems, counts


class OpenField(_Tournament):
    """A seeded field of generated programs and the demos learners."""

    name = "open-field"
    fuel = 1000
    mode = "deadline"
    deadline = True

    def __init__(self, root: Path, inputs: Path):
        self.game_path = inputs / "field.gm"
        self.learner_paths = sorted(inputs.glob("p*.lrn"))
        self.game_text = self.game_path.read_text()
        self.learner_texts = [path.read_text() for path in self.learner_paths]
        truth = json.loads((inputs / "truth.json").read_text())
        self.entries = np.array(truth["entries"])

    def setup_script(self, src: Path) -> str:
        return _loader_script(src, self.game_path, self.learner_paths)

    def learners(self, tracer) -> list:
        learners = super().learners(tracer)
        for name, budget in (
            ("exploiter", None), ("exploiter_b200", 200), ("exploiter_b1000", 1000)
        ):
            with tracer.span("demos.build_exploiter"):
                learner = build_exploiter(name, sim_budget=budget)
            learners.append(tracer.wrap(learner, "dsl.evaluate"))
        learners.append(tracer.wrap(OracleWinner(), "demos.oracle.play"))
        return learners

    def check(self, out: dict) -> tuple[list[str], dict]:
        problems, counts = super().check(out)
        game = out["game"]
        for record in out["records"]:
            s1, s2 = record.side1.strategy, record.side2.strategy
            if s1 is not None and s2 is not None:
                if int(outcome(game, s1, s2)) != _sign(self.entries[s1 - 1, s2 - 1]):
                    problems.append(f"outcome({s1}, {s2}) disagrees with the table")
        return problems, counts


class LeagueAnalysis:
    """Ingest a 1000-engine crosstable and analyse the resulting game."""

    name = "league-analysis"
    iterations = 1000

    def __init__(self, root: Path, inputs: Path):
        self.csv_path = inputs / "league.ct"
        self.csv_text = self.csv_path.read_text()
        self.entries = np.load(inputs / "entries.npy")
        truth = json.loads((inputs / "truth.json").read_text())
        self.three_cycles = truth["three_cycles"]
        self.cells = self.entries.size

        # Direct scans of the ground-truth table.
        e = self.entries
        row_min, col_max = e.min(axis=1), e.max(axis=0)
        strict = np.flatnonzero(row_min == 1)
        weak = np.flatnonzero(row_min >= 0)
        if strict.size:
            self.kind = ("StrictDomination", int(strict[0]) + 1, None)
        elif weak.size:
            self.kind = ("WeakDomination", int(weak[0]) + 1, None)
        elif (row_min == -1).all() and (col_max == 1).all():
            self.kind = ("StronglyIntransitive", None, (
                {i + 1: int(np.argmax(e[i] == -1)) + 1 for i in range(len(e))},
                {j + 1: int(np.argmax(e[:, j] == 1)) + 1 for j in range(len(e))},
            ))
        else:
            self.kind = ("Other", None, None)
        self.nash = [
            (int(i) + 1, int(j) + 1)
            for i, j in np.argwhere((e == row_min[:, None]) & (e == col_max[None, :]))
        ]

    def setup_script(self, src: Path) -> str:
        # Ingesting the table is the first step of a pass, so set-up only
        # imports the library and reads the text.
        return (
            f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "import opencomp\n"
            f"open({str(self.csv_path)!r}).read()\n"
        )

    def traced_pass(self, tracer) -> dict:
        with tracer.span("bench.pass"):
            with tracer.span("crosstable.ingest"):
                game = ingest_crosstable(self.csv_text, margin=LEAGUE_MARGIN, name="league")
            with tracer.span("game_core.serialize_game"):
                text = serialize_game(game)
            with tracer.span("game_core.parse_game"):
                again = parse_game(text)
            with tracer.span("classify.classify"):
                kind = classify(game)
            with tracer.span("classify.pure_nash"):
                nash = pure_nash(game)
            with tracer.span("classify.find_cycles"):
                cycles = find_cycles(game, max_len=3)
            with tracer.span("mixed.fictitious_play"):
                play = fictitious_play(game, iterations=self.iterations, tol=0)
        return {
            "game": game, "text": text, "again": again, "kind": kind,
            "nash": nash, "cycles": cycles, "play": play,
        }

    def timed_pass(self) -> dict:
        return self.traced_pass(NULL)

    def work(self, counts: dict) -> int:
        """Work of one pass: the cells of the table."""
        return self.cells

    def check(self, out: dict) -> tuple[list[str], dict]:
        problems = []
        e = self.entries
        game = out["game"]
        if not np.array_equal(game.entries, e):
            problems.append("ingested table differs from the generated one")
        if out["again"] != game:
            problems.append("parse_game(serialize_game(t)) != t")

        kind = out["kind"]
        witnesses = None
        if kind.witnesses is not None:
            witnesses = (kind.witnesses.beats_row, kind.witnesses.beats_col)
        if (kind.kind.value, kind.dominator, witnesses) != self.kind:
            problems.append(f"classify gives {kind.kind.value}, scans give {self.kind[0]}")
        if [tuple(cell) for cell in out["nash"]] != self.nash:
            problems.append("pure_nash disagrees with a direct scan")

        cycles = out["cycles"]
        if len(cycles) != self.three_cycles:
            problems.append(
                f"{len(cycles)} cycles listed, trace(B^3)/3 gives {self.three_cycles}"
            )
        if cycles:
            c = np.array(cycles) - 1
            a, b, d = c[:, 0], c[:, 1], c[:, 2]
            # Edge i -> j when j beats i.
            if not ((e[b, a] == 1) & (e[d, b] == 1) & (e[a, d] == 1)).all():
                problems.append("a listed cycle has an edge that is not a win")
            if not ((a < b) & (a < d)).all() or cycles != sorted(set(cycles)):
                problems.append("cycles are not canonical, sorted and distinct")

        play = out["play"]
        p1, p2 = play.p1.weights, play.p2.weights
        payoff = e.astype(np.float64)
        gap = max(0.0, float(np.max(payoff @ p2) - np.min(p1 @ payoff)))
        if abs(gap - play.exploitability) > 1e-9:
            problems.append(
                f"exploitability {play.exploitability} recomputes as {gap}"
            )
        if play.iterations != self.iterations:
            problems.append(f"fictitious play stopped after {play.iterations}")

        counts = {
            "classification": kind.kind.value,
            "pure_nash": len(out["nash"]),
            "cycles": len(cycles),
            "text_bytes": len(out["text"].encode()),
            "text_sha256": sha256(out["text"]),
            "fp_iterations": play.iterations,
            "exploitability": play.exploitability,
        }
        return problems, counts


def _loader_script(src: Path, game: Path, learners: list[Path]) -> str:
    """Set-up for a tournament: import, then load the game and learner files."""
    return (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "from opencomp import parse_game, parse_learner_file\n"
        f"parse_game(open({str(game)!r}).read())\n"
        f"for path in {[str(p) for p in learners]!r}:\n"
        "    parse_learner_file(open(path).read())\n"
    )


WORKLOADS = {
    w.name: w for w in (CatalogTournament, OpenField, LeagueAnalysis)
}
