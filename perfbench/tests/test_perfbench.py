"""Tests of the benchmark's own logic. Run with: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import harness, inputs, workloads  # noqa: E402
from perfbench.stats import fail_ratio, tail_percentile  # noqa: E402
from perfbench.tracer import Tracer, self_times  # noqa: E402


# -- tail percentile ------------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tail_percentile(list(range(1, 12))) == (9.0, 1)
    assert tail_percentile(list(range(20000))) == (99.9, 19979)
    assert tail_percentile(list(range(10))) is None


@pytest.mark.parametrize("n", [11, 19, 20, 37, 150, 999, 1000, 1001])
def test_tail_percentile_is_the_highest_that_qualifies(n):
    samples = [float(k) for k in range(n)]
    p, value = tail_percentile(samples)
    assert sum(s > value for s in samples) >= 10
    # The next percentile up, had it been chosen, would leave fewer than ten.
    higher = [q for q in (99.99, 99.9) + tuple(range(99, 0, -1)) if q > p]
    for q in higher:
        index = -(-round(q * 100) * n // 10000) - 1
        assert n - 1 - index < 10


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_time_covered_by_children():
    spans = [
        ("op", 0, 100, -1, 0, 0),
        ("a", 10, 40, 0, 0, 0),
        ("a.child", 20, 30, 1, 0, 0),
        ("b", 50, 60, 0, 0, 0),
        ("b.first", 50, 55, 3, 0, 0),
        ("b.second", 55, 60, 3, 0, 0),
    ]
    assert self_times(spans) == [60, 20, 10, 0, 5, 5]


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0, 10, -1, 0, 0), ("c1", 2, 6, 0, 0, 0), ("c2", 4, 8, 0, 0, 0), ("c3", 9, 12, 0, 0, 0)]
    assert self_times(spans)[0] == 10 - 6 - 1


def test_self_time_subtracts_folded_calls():
    spans = [("op", 0, 100, -1, 0, 0), ("a", 10, 40, 0, 0, 12), ("b", 50, 60, 0, 0, 0)]
    assert self_times(spans) == [60, 18, 10]


def test_tracer_nests_spans_and_restores_the_program():
    from spernerfix import plmap, sperner

    original = plmap.pl_evaluate
    grid = sperner.Grid((Fraction(0), Fraction(1), Fraction(2)))
    pl = plmap.pl_from_labeling(grid, sperner.Labeling((0, 0, 1)))
    tracer = Tracer()
    with tracer.installed():
        assert plmap.pl_evaluate is not original
        tracer.begin_op(7)
        plmap.pl_trace(pl, 2)
        tracer.end_op()
        plmap.pl_trace(pl, 2)  # outside an op: not traced
    assert plmap.pl_evaluate is original
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "plmap.pl_trace"]
    assert tracer.spans[1][3] == 0
    assert all(s[4] == 7 for s in tracer.spans)
    # pl_evaluate is folded: counted and timed, its time charged to pl_trace.
    assert tracer.folded_calls["plmap.pl_evaluate"] == 4
    trace_span = tracer.spans[1]
    assert 0 < tracer.folded_self_ns["plmap.pl_evaluate"] == trace_span[5] < trace_span[2] - trace_span[1]
    layers = tracer.layer_metrics()
    assert layers["plmap.pl_evaluate.calls"][0] == 4
    own = self_times(tracer.spans)[1]
    assert layers["plmap.pl_trace.self_s"][0] == own / 1e9 == (trace_span[2] - trace_span[1] - trace_span[5]) / 1e9


def test_traced_phases_alternate_and_count_the_same_ops():
    class Recording(_Squares):
        """Records the tracer each op runs under."""

        def __init__(self):
            self.tracer = None
            self.traced = []

        def use_tracer(self, tracer):
            self.tracer = tracer

        def run(self, i):
            self.traced.append(self.tracer is not None)
            return super().run(i)

    w = Recording()
    untraced, traced = harness.traced_phases(w, 0.05, Tracer())
    assert untraced.attempted == traced.attempted > 1
    assert w.traced == [False, True] * traced.attempted
    assert w.tracer is None


# -- counting f -------------------------------------------------------------------------


def test_readme_example_counts_the_roadmap_baseline():
    # Pinned at the commit that introduced the benchmark; a change that
    # lowers the number of evaluations moves these counts on purpose.
    assert harness.readme_counts() == {2: (102, 102), 16: (97, 97)}


def test_solve_deep_counts_repeat_exactly():
    first = workloads.SolveDeep(3).oracle_queries()
    assert first == workloads.SolveDeep(3).oracle_queries() == (2002 + 1902, 800.0)


# -- fail ratio and checks ------------------------------------------------------------


class _Squares:
    """Op i returns i*i, except for injected faults."""

    cycle = 1

    def run(self, i):
        time.sleep(0.001)
        if i % 7 == 5:
            raise RuntimeError("injected crash")
        return i * i + (i % 4 == 3)  # a wrong answer on every fourth op

    def check(self, i, result):
        if result != i * i:
            raise workloads.CheckError(f"{result} != {i * i}")


def test_fail_ratio_counts_injected_wrong_answers():
    phase = harness.timed_phase(_Squares(), 0.1)
    wrong = sum(1 for i in range(phase.attempted) if i % 4 == 3 or i % 7 == 5)
    assert phase.attempted > 20
    assert phase.failed == wrong
    assert len(phase.latencies) == phase.attempted - wrong
    assert fail_ratio(phase.attempted, phase.failed) == wrong / phase.attempted
    assert any("injected crash" in e for e in phase.errors)


def test_checks_reject_a_wrong_solve():
    w = workloads.SolveDeep(1)
    result = w.run(0)
    w.check(0, result)
    shifted = dataclasses.replace(result, lo=result.hi, hi=result.hi + result.width)
    with pytest.raises(workloads.CheckError):
        w.check(0, shifted)


def test_checks_reject_a_wrong_counterexample_round():
    w = workloads.Counterexample(1)
    reports = w.run(0)
    w.check(0, reports)
    bad = reports[:]
    bracket = bad[40].bracket
    bad[40] = dataclasses.replace(bad[40], bracket=dataclasses.replace(bracket, hi=bracket.hi + bracket.width))
    with pytest.raises(workloads.CheckError):
        w.check(0, bad)


def test_checks_reject_a_missing_fixed_point():
    w = workloads.PlmapGrid(1)
    result = w.run(0)
    w.check(0, result)
    with pytest.raises(workloads.CheckError):
        w.check(0, dataclasses.replace(result, points=result.points[1:]))


def test_checks_reject_wrong_cli_output():
    w = workloads.CliMix(1)
    for i in range(len(w.cases)):
        code, out, err = w.run(i)
        w.check(i, (code, out, err))
        with pytest.raises(workloads.CheckError):
            w.check(i, (code + 1, out, err))
        with pytest.raises(workloads.CheckError):
            w.check(i, (code, "{}", err))


def test_every_cli_case_passes_for_many_seeds():
    for seed in range(1, 21):
        w = workloads.CliMix(seed)
        for i in range(len(w.cases)):
            w.check(i, w.run(i))


# -- seeded inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", [workloads.SolveDeep, workloads.PlmapGrid, workloads.CliMix])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert workload(5).digest == workload(5).digest
    assert workload(5).digest != workload(6).digest


def test_generated_maps_carry_a_true_self_map_proof():
    from spernerfix import expr

    for seed in range(20):
        for m in inputs.solve_deep_maps(seed, 50):
            workloads.certify_self_map(m, expr.parse(m.text))
    broken = dataclasses.replace(inputs.solve_deep_maps(0, 1)[0], g1=Fraction(1))
    with pytest.raises(workloads.CheckError):
        workloads.certify_self_map(broken, expr.parse(broken.text))


# -- the contract's failure path -----------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
