"""The timed closed loop and the f-evaluation counter's self-check."""

from __future__ import annotations

import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from spernerfix import expr, solver

from .stats import tail_percentile
from .tracer import Tracer, count_f_evals

# The README solve example and its f-evaluation counts at the seed commit,
# the baseline recorded in ROADMAP.
README_EXAMPLE = "(x*x + 2)/4"
README_BASELINE = {2: 102, 16: 97}

# Spans a traced phase may hold, which bounds its memory (about 150 bytes each).
MAX_SPANS = 200_000


@dataclass
class Phase:
    """What one timed phase measured."""

    seconds: float = 0.0  # time spent inside ops, failed ones included
    attempted: int = 0
    failed: int = 0
    durations: list[float] = field(default_factory=list)  # every op
    latencies: list[float] = field(default_factory=list)  # the ops that passed
    errors: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.seconds

    @property
    def _timed(self) -> list[float]:
        # Latency is of the ops that passed; when none did, the run is
        # incorrect anyway and every op stands in.
        return self.latencies or self.durations

    @property
    def latency_p50_s(self) -> float:
        return statistics.median(self._timed)

    @property
    def latency_tail(self) -> tuple[float, float]:
        """(percentile, seconds) by the ten-samples-beyond rule; with ten
        samples or fewer, the maximum."""
        return tail_percentile(self._timed) or (100.0, max(self._timed))


def _run_op(workload, i: int, phase: Phase, tracer: Tracer | None = None) -> None:
    """Run, time (and trace) op i alone, then check it; record it in `phase`.

    An op fails when it raises or its check does; a failure is counted and
    its message kept, never dropped.
    """
    error = None
    if tracer is not None:
        tracer.begin_op(i)
    op_start = perf_counter()
    try:
        result = workload.run(i)
    except Exception as exc:  # a failed op is a measurement, not a crash
        error = exc
    elapsed = perf_counter() - op_start
    if tracer is not None:
        tracer.end_op()
    if error is None:
        try:
            workload.check(i, result)
        except Exception as exc:
            error = exc
    phase.seconds += elapsed
    phase.attempted += 1
    phase.durations.append(elapsed)
    if error is None:
        phase.latencies.append(elapsed)
    else:
        phase.failed += 1
        phase.errors.append(f"op {i}: {type(error).__name__}: {error}")
        if phase.failed == 1:
            traceback.print_exception(error, file=sys.stderr)


def timed_phase(workload, seconds: float, side_tasks=()) -> Phase:
    """Run ops 0, 1, 2, ... one after another until `seconds` have passed.

    The phase ends on a multiple of `workload.cycle` ops, so each kind of
    op weighs the same in the latency distribution. `side_tasks` (other
    measurements, such as timing a fresh process) run between ops, spread
    evenly over the phase, so that they see the same machine as the ops do.
    """
    phase = Phase()
    pending = list(side_tasks)
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        done = len(side_tasks) - len(pending)
        if pending and perf_counter() - start >= (done + 0.5) * seconds / len(side_tasks):
            pending.pop(0)()
        _run_op(workload, i, phase)
        i += 1
        if i % workload.cycle == 0 and perf_counter() >= deadline:
            for task in pending:
                task()
            return phase


def traced_phases(workload, seconds: float, tracer: Tracer) -> tuple[Phase, Phase]:
    """Alternate an untraced and a traced cycle of ops until `seconds` have
    passed, or the tracer holds MAX_SPANS spans; return (untraced, traced).

    Both phases see the same stretch of time, so their ratio is the cost of
    tracing rather than a change in the machine's speed. The tracer is
    installed only for its own cycles.
    """
    untraced, traced = Phase(), Phase()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        for _ in range(workload.cycle):
            _run_op(workload, i, untraced)
            i += 1
        workload.use_tracer(tracer)
        with tracer.installed():
            for _ in range(workload.cycle):
                _run_op(workload, i, traced, tracer)
                i += 1
        workload.use_tracer(None)
        if perf_counter() >= deadline or len(tracer.spans) >= MAX_SPANS:
            return untraced, traced


def readme_counts() -> dict[int, tuple[int, int]]:
    """f-evaluations of the README example at branching 2 and 16, counted two ways.

    Once with the Expr handed to `solve` (counted where `solver` and
    `sperner` call as_function) and once with a callable the benchmark
    wraps itself (which as_function must pass through uncounted). The two
    agree unless the counter misses or double-counts.
    """
    f = expr.parse(README_EXAMPLE)
    out = {}
    for branching in README_BASELINE:
        config = solver.SolverConfig(
            epsilon=Fraction(1, 10**6), lipschitz=Fraction(1, 2), branching=branching
        )
        via_expr = count_f_evals(lambda t: solver.solve(f, Fraction(0), Fraction(1), config))
        via_callable = count_f_evals(
            lambda t: solver.solve(
                t.f_callable(lambda x: expr.evaluate(f, x)), Fraction(0), Fraction(1), config
            )
        )
        out[branching] = (via_expr, via_callable)
    return out
