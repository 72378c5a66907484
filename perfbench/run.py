"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are generated from the
seed in a child process, then passes are repeated for about ``--seconds``
(at least MIN_ROUNDS rounds of them), each checked against independent
oracles and exact reference counts.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# The load is one thread.  OpenBLAS would also run numpy's matrix products
# on the second core, whose speed the calibration samples do not see.  Set
# before numpy is first imported; child processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("catalog-tournament", "open-field", "league-analysis")
SETUP_REPEATS = 9
# Rounds of passes a run makes even when --seconds has run out.
MIN_ROUNDS = 2
# Nominal duration of one calibration sample; see calibrator.py.
CALIBRATION_S = 0.1

# Per-layer metrics of a traced run: name -> (unit, which way is better).
LAYER_METRICS = {
    "dsl.evaluate.self_s": ("s", "lower"),
    "dsl.evaluate.ms.p50": ("ms", "lower"),
    "dsl.evaluate.ms.p90": ("ms", "lower"),
    "dsl.evaluate.calls": ("count", "lower"),
    "dsl.steps": ("count", "lower"),
    "dsl.steps_per_s": ("1/s", "higher"),
    "dsl.outcome.halted": ("count", "higher"),
    "dsl.outcome.fuel_exhausted": ("count", "lower"),
    "dsl.outcome.proven": ("count", "higher"),
    "dsl.outcome.fault": ("count", "lower"),
    "dsl.exhausted_fuel_share": ("ratio", "lower"),
    "dsl.proven_ratio": ("ratio", "higher"),
    "dsl.parse_learner_file.s": ("s", "lower"),
    "arena.matches": ("count", "higher"),
    "arena.run_tournament.self_s": ("s", "lower"),
    "arena.overhead_us_per_match": ("us", "lower"),
    "arena.match.ms.p50": ("ms", "lower"),
    "arena.match.ms.p90": ("ms", "lower"),
    "arena.render_report.s": ("s", "lower"),
    "demos.oracle.play.s": ("s", "lower"),
    "demos.oracle.steps": ("count", "lower"),
    "cli.dispatch.s": ("s", "lower"),
    "crosstable.ingest.s": ("s", "lower"),
    "crosstable.ingest.cells_per_s": ("1/s", "higher"),
    "game_core.parse_game.s": ("s", "lower"),
    "game_core.parse_game.mb_per_s": ("MB/s", "higher"),
    "game_core.serialize_game.s": ("s", "lower"),
    "game_core.serialize_game.mb_per_s": ("MB/s", "higher"),
    "game_core.text_bytes": ("bytes", "lower"),
    "classify.classify.s": ("s", "lower"),
    "classify.pure_nash.s": ("s", "lower"),
    "classify.find_cycles.s": ("s", "lower"),
    "classify.cycles": ("count", "higher"),
    "mixed.fictitious_play.s": ("s", "lower"),
    "mixed.fictitious_play.iters_per_s": ("1/s", "higher"),
    "mixed.fictitious_play.iters": ("count", "higher"),
    "mixed.exploitability": ("payoff", "lower"),
    "dsl.self_s": ("s", "lower"),
    "arena.self_s": ("s", "lower"),
    "demos.self_s": ("s", "lower"),
    "crosstable.self_s": ("s", "lower"),
    "game_core.self_s": ("s", "lower"),
    "classify.self_s": ("s", "lower"),
    "mixed.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "bench.traced_pass_s": ("s", "lower"),
    "bench.untraced_pass_s": ("s", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
    "bench.calibration_s": ("s", "lower"),
}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def scale(duration: float, before: float, after: float) -> float:
    """A time scaled by CALIBRATION_S over the mean of the calibration
    samples taken just before and just after it, so that it reads as
    seconds on a machine where the calibration job takes CALIBRATION_S."""
    return duration * 2 * CALIBRATION_S / (before + after)


class Run:
    """Pass outcomes and measurements of one run."""

    def __init__(self, workload, reference: dict, calibrator):
        self.workload = workload
        self.reference = reference
        self.calibrator = calibrator
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.first_counts: dict = {}
        self.pass_s: list[float] = []   # workload.timed_pass
        self.null_pass_s: list[float] = []   # traced path, nothing recorded
        self.traced: list[dict] = []
        self.traced_counts: dict = {}
        self.durations_ms: dict[str, list[float]] = defaultdict(list)
        self.check_counts: dict = {}
        self.peak_rss_mb = 0.0
        self.calibration: list[float] = []
        self.bracket: list[int] = []   # calibration sample before each pass

    def calibrate(self) -> None:
        self.calibration.append(self.calibrator.sample())

    def gate(self, counts: dict) -> list[str]:
        """Exact counts must equal the reference and every earlier pass.

        Floats are measured values, checked by the workload against a
        recomputation; summation order in BLAS may change their last digits.
        """
        problems = []
        for known in (self.reference, self.first_counts):
            for key, value in counts.items():
                if isinstance(value, float):
                    continue
                if key in known and known[key] != value:
                    problems.append(f"{key} is {value}, expected {known[key]}")
        for key, value in counts.items():
            self.first_counts.setdefault(key, value)
        return problems

    def attempt(self, body) -> float | None:
        """Time one pass, check it, and return its duration if it passed."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = body()
            duration = perf_counter() - start
            problems, counts = self.workload.check(out)
        except Exception as exc:  # a failing pass is counted, not fatal
            self.fail([f"{type(exc).__name__}: {exc}"])
            return None
        del out
        self.check_counts.update(counts)
        problems += self.gate(counts)
        if problems:
            self.fail(problems)
            return None
        return duration

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def untraced(self) -> None:
        duration = self.attempt(self.workload.timed_pass)
        if duration is not None:
            self.pass_s.append(duration)
            self.bracket.append(len(self.calibration) - 1)

    def null_pass(self) -> None:
        """The traced pass's own path with a tracer that records nothing,
        the base of ``bench.trace_overhead``.  Outside catalog-tournament
        it is the same code as ``untraced``."""
        from spans import NULL

        duration = self.attempt(lambda: self.workload.traced_pass(NULL))
        if duration is not None:
            self.null_pass_s.append(duration)

    def scaled_pass_s(self) -> list[float]:
        """Pass times scaled by the calibration samples just before and after."""
        return [
            scale(duration, self.calibration[i], self.calibration[i + 1])
            for duration, i in zip(self.pass_s, self.bracket)
        ]

    def traced_pass(self) -> None:
        from spans import Tracer, pass_layers

        tracer = Tracer()
        if self.attempt(lambda: self.workload.traced_pass(tracer)) is None:
            return
        times, counts, durations_ms = pass_layers(tracer)
        problems = self.gate({"layers." + key: value for key, value in counts.items()})
        steps = self.check_counts.get("steps")
        if steps is not None and steps != counts["dsl.steps"] + counts["demos.oracle.steps"]:
            problems.append("play spans and match records disagree on steps")
        if problems:
            self.fail(problems)
            return
        self.traced.append(times)
        self.traced_counts = counts
        for key, values in durations_ms.items():
            self.durations_ms[key].extend(values)


def measure_setup(run: Run) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing opencomp and loading
    inputs, unscaled and scaled by calibration samples around each.

    The two cores of this VM slow down independently, and a calibration
    sample only describes the core it ran on.  While set-up is measured,
    this process, the interpreters it starts and the calibration samples
    are kept on one CPU.
    """
    command = [sys.executable, "-c", run.workload.setup_script(SRC)]
    subprocess.run(command, check=True)   # untimed: writes bytecode caches
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        times, scaled = [], []
        after = run.calibrator.sample()
        for _ in range(SETUP_REPEATS):
            before = after
            start = perf_counter()
            subprocess.run(command, check=True)
            times.append(perf_counter() - start)
            after = run.calibrator.sample()
            scaled.append(scale(times[-1], before, after))
    finally:
        os.sched_setaffinity(0, allowed)
    return times, scaled


def drive(run: Run, seconds: float, trace: bool) -> None:
    """Repeat rounds of passes until the next round would end after
    ``seconds``, and make at least MIN_ROUNDS rounds.

    An untimed warm-up pass through the library comes first.  It fills
    caches and gives the record-level checks their input on the catalog,
    whose timed passes go through the CLI and keep no records.  An
    untraced run's round is one timed pass.  A traced run's round is a
    traced pass and a ``null_pass``, plus a timed pass on the catalog for
    ``cli.dispatch.s``, in alternating order.

    ``peak_rss_mb`` is read after the first round, which holds the first
    timed pass.  Later passes add heap fragmentation, so a peak read at
    exit would grow with the number of passes, which depends on the speed
    of the machine; memory that grows from pass to pass is not measured.
    """
    from spans import NULL

    run.attempt(lambda: run.workload.traced_pass(NULL))
    if not trace:
        steps = [run.untraced]
    elif run.workload.name == "catalog-tournament":
        steps = [run.untraced, run.null_pass, run.traced_pass]
    else:
        steps = [run.null_pass, run.traced_pass]
    start = perf_counter()
    rounds = 0
    run.calibrate()
    while True:
        round_start = perf_counter()
        for step in steps if rounds % 2 == 0 else steps[::-1]:
            step()
        run.calibrate()
        rounds += 1
        if rounds == 1:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
            return


def end_to_end(run: Run, setup: list[float]) -> dict:
    pass_s = statistics.median(run.scaled_pass_s()) if run.pass_s else 0.0
    work = run.workload.work(run.check_counts)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (pass_s, "s"),
        "work_per_s": (work / pass_s if pass_s else 0.0, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def layers(run: Run) -> dict:
    from spans import percentile

    def med(key: str) -> float:
        values = [times[key] for times in run.traced]
        return statistics.median(values) if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = run.traced_counts
    checks = run.check_counts
    m = {key: float(med(key)) for key in LAYER_METRICS if run.traced and key in run.traced[0]}
    for key in (
        "dsl.evaluate.calls", "dsl.steps", "dsl.outcome.halted",
        "dsl.outcome.fuel_exhausted", "dsl.outcome.proven", "dsl.outcome.fault",
        "demos.oracle.steps", "arena.matches",
    ):
        m[key] = counts.get(key, 0)
    for key in ("dsl.evaluate.ms", "arena.match.ms"):
        m[key + ".p50"] = percentile(run.durations_ms[key], 50)
        m[key + ".p90"] = percentile(run.durations_ms[key], 90)
    m["dsl.steps_per_s"] = ratio(m["dsl.steps"], m["dsl.evaluate.self_s"])
    m["dsl.exhausted_fuel_share"] = ratio(counts.get("dsl.exhausted_steps", 0), m["dsl.steps"])
    m["dsl.proven_ratio"] = ratio(
        m["dsl.outcome.proven"], m["dsl.outcome.proven"] + m["dsl.outcome.fuel_exhausted"]
    )
    m["arena.overhead_us_per_match"] = 1e6 * ratio(
        m["arena.run_tournament.self_s"], m["arena.matches"]
    )
    untraced = statistics.median(run.null_pass_s) if run.null_pass_s else 0.0
    m["cli.dispatch.s"] = statistics.median(run.pass_s) if run.pass_s else 0.0
    cells = getattr(run.workload, "cells", 0)
    m["crosstable.ingest.cells_per_s"] = ratio(cells, m["crosstable.ingest.s"])
    text_mb = checks.get("text_bytes", 0) / 1e6
    m["game_core.text_bytes"] = checks.get("text_bytes", 0)
    m["game_core.parse_game.mb_per_s"] = ratio(text_mb, m["game_core.parse_game.s"])
    m["game_core.serialize_game.mb_per_s"] = ratio(text_mb, m["game_core.serialize_game.s"])
    m["classify.cycles"] = checks.get("cycles", 0)
    iters = checks.get("fp_iterations", 0)
    m["mixed.fictitious_play.iters"] = iters
    m["mixed.fictitious_play.iters_per_s"] = ratio(iters, m["mixed.fictitious_play.s"])
    m["mixed.exploitability"] = checks.get("exploitability", 0.0)
    m["bench.traced_pass_s"] = med("bench.pass_s")
    m["bench.untraced_pass_s"] = untraced
    m["bench.calibration_s"] = statistics.median(run.calibration)
    m["bench.trace_overhead"] = ratio(m["bench.traced_pass_s"], untraced) - 1 if untraced else 0.0
    return {key: (m[key], LAYER_METRICS[key][0]) for key in LAYER_METRICS}


def report(run: Run, args, metrics: dict, samples: dict) -> None:
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} attempted={run.attempted} failed={run.failed} "
        f"error_rate={run.failed / max(run.attempted, 1):.4f}"
    )
    for problem in run.problems[:20]:
        print(f"FAIL {problem}")
    shown = dict(metrics)
    if not args.trace and run.pass_s:
        shown["unscaled setup_s"] = (statistics.median(samples["unscaled setup_s"]), "s")
        shown["unscaled pass_s"] = (statistics.median(run.pass_s), "s")
        shown["bench.calibration_s"] = (statistics.median(run.calibration), "s")
    for name, (value, unit) in shown.items():
        line = f"{name} {value:.6g} {unit}"
        if name in samples and samples[name]:
            q1, q3 = quartiles(samples[name])
            line += f"  (median of {len(samples[name])}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def load_reference(workload: str, seed: int) -> dict:
    from workloads import REFERENCE

    table = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.exists() else {}
    entry = table.get(str(seed), table.get("any", {}))
    flat = {key: value for key, value in entry.items() if key != "layers"}
    flat.update({"layers." + key: value for key, value in entry.get("layers", {}).items()})
    return flat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opencomp" / "__init__.py").is_file():
        print(f"perfbench: no opencomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from calibrator import Calibrator
    from workloads import WORKLOADS

    inputs = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # A child process generates the inputs, so that generating them
        # does not count toward this process's peak memory.
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), args.workload, str(args.seed), str(inputs)],
            check=True,
        )
        workload = WORKLOADS[args.workload](ROOT, inputs)
        with Calibrator() as calibrator:
            run = Run(workload, load_reference(args.workload, args.seed), calibrator)
            drive(run, args.seconds, bool(args.trace))
            setup, scaled_setup = measure_setup(run) if not args.trace else ([], [])
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if args.trace:
        metrics = layers(run)
        samples = {"bench.untraced_pass_s": run.null_pass_s, "cli.dispatch.s": run.pass_s}
        for key in LAYER_METRICS:
            if run.traced and key in run.traced[0]:
                samples[key] = [times[key] for times in run.traced]
        samples["bench.traced_pass_s"] = [times["bench.pass_s"] for times in run.traced]
    else:
        metrics = end_to_end(run, scaled_setup)
        samples = {"setup_s": scaled_setup, "pass_s": run.scaled_pass_s(),
                   "unscaled setup_s": setup}
    samples["bench.calibration_s"] = run.calibration
    samples["unscaled pass_s"] = run.pass_s
    report(run, args, metrics, samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
