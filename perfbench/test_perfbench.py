"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They are not part of the library's suite: they check that the generators
are deterministic, that tracing does not change what the arena computes,
that calibration samples do not depend on this process's heap, and that
each workload passes its own checks in a short run (about two minutes).
"""
from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from opencomp import (  # noqa: E402
    OracleWinner, ProgramLearner, build_exploiter, catalog_learners, parse_game,
    parse_learner_file, render_report, rps, run_tournament,
)
from calibrator import Calibrator  # noqa: E402
from spans import Tracer, pass_layers  # noqa: E402


@pytest.mark.parametrize("workload", ["open-field", "league-analysis"])
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    gen.write_inputs(workload, 11, tmp_path / "a")
    gen.write_inputs(workload, 11, tmp_path / "b")
    gen.write_inputs(workload, 12, tmp_path / "c")
    files = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any(
        (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
        for name in files
    )


def test_generated_field_parses_and_league_pairs_sum_to_one():
    field = gen.open_field(3)
    for name, source in field.sources:
        assert parse_learner_file(f"learner {name}\n{source}\n")[0] == name
    assert (field.entries == -field.entries.T).all()

    table = gen.league(3)
    rows = [line.split(",")[1:] for line in table.csv_text.splitlines()[1:]]
    assert rows[0][1] and float(rows[0][1]) + float(rows[1][0]) == pytest.approx(1.0)
    assert gen.three_cycles(table.entries) > 0


def _field_learners(field):
    learners = [
        ProgramLearner(*parse_learner_file(f"learner {name}\n{source}\n"))
        for name, source in field.sources
    ]
    return learners + [build_exploiter("exploiter", sim_budget=200), OracleWinner()]


@pytest.mark.parametrize("case", ["catalog", "field"])
def test_traced_learners_leave_every_record_identical(case):
    if case == "catalog":
        game, learners, fuel, mode = rps(), catalog_learners(), 2000, "strict"
    else:
        field = gen.open_field(5)
        game, learners, fuel, mode = (
            parse_game(field.game_text), _field_learners(field), 300, "deadline"
        )
    plain = run_tournament(game, learners, fuel=fuel, mode=mode)
    tracer = Tracer()
    with tracer.span("bench.pass"):
        wrapped = [tracer.wrap(learner, "dsl.evaluate") for learner in learners]
        traced = run_tournament(game, wrapped, fuel=fuel, mode=mode)
    assert traced.records == plain.records
    assert render_report(traced) == render_report(plain)

    times, counts, samples = pass_layers(tracer)
    steps = sum(r.side1.fuel_used + r.side2.fuel_used for r in plain.records)
    assert counts["dsl.steps"] == steps
    assert counts["arena.matches"] == len(plain.records)
    assert sum(value for key, value in times.items() if key.endswith(".self_s")
               and key.count(".") == 1) == pytest.approx(times["bench.pass_s"])


def test_calibration_ignores_a_large_retained_heap():
    # About 600,000 tracked objects, kept alive during every other sample.
    plain, loaded = [], []
    with Calibrator() as calibrator:
        for _ in range(6):
            plain.append(calibrator.sample())
            heap = {i: (i, [i]) for i in range(300_000)}
            loaded.append(calibrator.sample())
            del heap
    ratio = statistics.median(loaded) / statistics.median(plain)
    assert 0.8 < ratio < 1.25, (plain, loaded)


@pytest.mark.parametrize(
    "workload", ["catalog-tournament", "open-field", "league-analysis"]
)
def test_smoke_each_workload_passes_its_checks(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "open-field",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
