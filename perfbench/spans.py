"""Spans recorded by the benchmark around its calls into the library.

A span has a name, a start, an end and the span that was open when it
began.  Spans stay in memory, one Tracer per pass; the run summarises them
and prints the summary when it ends.  A span's self time is its
duration minus the durations of its children; since every traced pass is
one root span with everything else nested inside it, the self times of a
pass add up to the pass's wall time exactly.
"""
from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

from opencomp import EvalEnv, EvalResult, Learner, RuntimeFault


class Span:
    __slots__ = ("name", "parent", "start", "end", "kind", "steps")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.kind: str | None = None   # evaluation outcome, for play spans
        self.steps = 0                 # fuel_used, for play spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def wrap(self, learner: Learner, span_name: str) -> Learner:
        return TracedLearner(learner, self, span_name)

    def self_times(self) -> list[float]:
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own


class NullTracer:
    """Stands in for a Tracer in untraced passes: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def wrap(self, learner: Learner, span_name: str) -> Learner:
        return learner


NULL = NullTracer()


class TracedLearner(Learner):
    """Delegates to a learner and records each ``play`` as a span.

    It publishes the same name and source, so opponents and the arena see
    exactly what they would see without it.
    """

    def __init__(self, inner: Learner, tracer: Tracer, span_name: str):
        self.inner = inner
        self.name = inner.name
        self.source = inner.source
        self.tracer = tracer
        self.span_name = span_name

    def play(self, env: EvalEnv) -> EvalResult:
        with self.tracer.span(self.span_name) as span:
            try:
                result = self.inner.play(env)
            except RuntimeFault as fault:
                span.kind, span.steps = "fault", fault.fuel_used
                raise
            span.kind, span.steps = result.kind.value, result.fuel_used
        return result


# --------------------------------------------------------------------------
# Per-layer metrics of one traced pass

MODULES = (
    "dsl", "arena", "demos", "crosstable", "game_core", "classify",
    "mixed", "bench",
)
_DURATIONS = {   # metric -> span whose summed duration it reports
    "dsl.parse_learner_file.s": "dsl.parse_learner_file",
    "arena.render_report.s": "arena.render_report",
    "demos.oracle.play.s": "demos.oracle.play",
    "crosstable.ingest.s": "crosstable.ingest",
    "game_core.parse_game.s": "game_core.parse_game",
    "game_core.serialize_game.s": "game_core.serialize_game",
    "classify.classify.s": "classify.classify",
    "classify.pure_nash.s": "classify.pure_nash",
    "classify.find_cycles.s": "classify.find_cycles",
    "mixed.fictitious_play.s": "mixed.fictitious_play",
}


def pass_layers(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Timings and exact counts of the one pass recorded in ``tracer``.

    Returns (times, counts, samples): per-pass values keyed by metric name,
    and the individual evaluation and match durations in milliseconds,
    which are pooled over passes before percentiles are taken.
    """
    spans = tracer.spans
    times = {f"{module}.self_s": 0.0 for module in MODULES}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, self_s in zip(spans, tracer.self_times()):
        times[span.name.split(".", 1)[0] + ".self_s"] += self_s
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
    for metric, name in _DURATIONS.items():
        times[metric] = total.get(name, 0.0)
    times["bench.pass_s"] = spans[0].duration
    times["arena.run_tournament.self_s"] = own.get("arena.run_tournament", 0.0)
    times["dsl.evaluate.self_s"] = own.get("dsl.evaluate", 0.0)

    evals = [span for span in spans if span.name == "dsl.evaluate"]
    counts = {
        "dsl.evaluate.calls": len(evals),
        "dsl.steps": sum(span.steps for span in evals),
        "dsl.outcome.halted": sum(span.kind == "Halted" for span in evals),
        "dsl.outcome.fuel_exhausted": sum(
            span.kind == "FuelExhausted" for span in evals
        ),
        "dsl.outcome.proven": sum(span.kind == "ProvenNonHalting" for span in evals),
        "dsl.outcome.fault": sum(span.kind == "fault" for span in evals),
        "dsl.exhausted_steps": sum(
            span.steps for span in evals if span.kind == "FuelExhausted"
        ),
        "demos.oracle.steps": sum(
            span.steps for span in spans if span.name == "demos.oracle.play"
        ),
    }
    # The two seats of a match are played back to back, so consecutive play
    # spans under run_tournament pair up into matches.
    plays = [
        span for span in spans
        if span.name in ("dsl.evaluate", "demos.oracle.play")
    ]
    samples = {
        "dsl.evaluate.ms": [1e3 * span.duration for span in evals],
        "arena.match.ms": [
            1e3 * (second.end - first.start)
            for first, second in zip(plays[::2], plays[1::2])
        ],
    }
    counts["arena.matches"] = len(samples["arena.match.ms"])
    return times, counts, samples


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
