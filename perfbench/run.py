"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from the `src/` directory next
to `perfbench/`, never from an installed copy. Lines before the last are a
human report; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: the timed phase runs untraced for
the whole run, set-up is repeated in fresh processes, and cold CLI
processes are timed. --trace 1 reports the per-layer metrics: untraced and
traced cycles of ops alternate, so the tracing overhead is measured on the
same machine state; the spans are written to perfbench/out/.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Set-up is timed in fresh processes, as many as fit SETUP_BUDGET_S at this
# process's own set-up time, and at least MIN_SETUPS and at most MAX_SETUPS.
SETUP_BUDGET_S = 4.0
MIN_SETUPS, MAX_SETUPS = 5, 15
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> None:
    """Put src/ first on sys.path and make sure spernerfix comes from there."""
    package = SRC / "spernerfix"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no spernerfix package at {package}")
    sys.path[0] = str(SRC)  # replaces perfbench/, so its modules cannot shadow others
    sys.path.insert(1, str(ROOT))
    import spernerfix

    if Path(spernerfix.__file__).resolve().parent != package:
        raise SystemExit(f"error: spernerfix imported from {spernerfix.__file__}, not {package}")


def set_up(name: str, seed: int):
    """Inputs, parsing and one warm-up op: what setup_s times."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    try:
        workload.run(0)
    except Exception:  # op 0 runs again, checked and counted, in the timed phase
        pass
    return workload


def setup_seconds(args) -> float:
    """Set-up time of one fresh process, as that process measured it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def cold_cli(case, phase) -> float:
    """Wall time of `case` as a fresh `python -m spernerfix.cli` process; its
    output is checked and counted in `phase`."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spernerfix.cli", *case.argv],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    elapsed = time.perf_counter() - start
    phase.attempted += 1
    try:
        case.check(proc.returncode, proc.stdout, proc.stderr)
    except Exception as exc:  # counted as a failed op
        phase.failed += 1
        phase.errors.append(f"cold CLI: {exc}")
    return elapsed


def interleave(*groups: list) -> list:
    """The tasks of all groups in one list, each group spread evenly over it."""
    placed = [((k + 0.5) / len(group), task) for group in groups for k, task in enumerate(group)]
    return [task for _, task in sorted(placed, key=lambda p: p[0])]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import harness, stats
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, CheckError

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = set_up(args.workload, args.seed)
    own_setup = time.perf_counter() - _START
    if args.setup_only:
        print(own_setup)
        return 0

    report = [f"workload {workload.name}, seed {args.seed}, inputs sha256 {workload.digest}"]
    correct, queries, bits = True, 0, 1.0
    try:
        if WORKLOADS[args.workload](args.seed).digest != workload.digest:
            raise CheckError("the same seed generated different inputs")
        for branching, (via_expr, via_callable) in harness.readme_counts().items():
            report.append(
                f"README example {harness.README_EXAMPLE} at branching {branching}: "
                f"{via_expr} f-evaluations (ROADMAP baseline {harness.README_BASELINE[branching]})"
            )
            if via_expr != via_callable:
                raise CheckError(f"counter disagrees: {via_expr} via Expr, {via_callable} via a callable")
        queries, bits = workload.oracle_queries()
    except Exception as exc:  # a failed self-check makes the run incorrect; the ops still run
        correct = False
        report.append(f"FAIL: {type(exc).__name__}: {exc}")

    if args.trace:
        tracer = Tracer()
        untraced, traced = harness.traced_phases(workload, args.seconds, tracer)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        phases = [untraced, traced]
        layers = tracer.layer_metrics()
        overhead = untraced.ops_per_s / traced.ops_per_s if traced.ops_per_s else 0.0
        layers["trace.overhead_ratio"] = (overhead, "ratio", "lower")
        metrics = {name: metric(value, unit) for name, (value, unit, _) in layers.items()}
        report.append(f"{len(tracer.spans)} spans over {tracer.ops} traced ops written to {spans_path.relative_to(ROOT)}")
        report.append(f"untraced {untraced.ops_per_s:.4g} ops/s, traced {traced.ops_per_s:.4g} ops/s")
    else:
        # Set-up and cold processes are timed one at a time between ops.
        setups, cold_times, cold = [], [], harness.Phase()
        repeats = max(MIN_SETUPS, min(MAX_SETUPS, round(SETUP_BUDGET_S / own_setup)))
        tasks = interleave(
            [lambda c=case: cold_times.append(cold_cli(c, cold)) for case in workload.cold_cases],
            [lambda: setups.append(setup_seconds(args))] * repeats,
        )
        phase = harness.timed_phase(workload, args.seconds, side_tasks=tasks)
        phases = [phase, cold]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail = phase.latency_tail
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(phase.ops_per_s, "1/s"),
            "latency_p50_s": metric(phase.latency_p50_s, "s"),
            "latency_tail_s": metric(tail[1], "s"),
            "f_evals_per_bit": metric(queries / bits, "evals/bit"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "cli_process_s": metric(statistics.median(cold_times), "s"),
        }
        report.append(f"latency_tail_s is p{tail[0]:g} of {len(phase.latencies)} passing ops")
        report.append(f"f_evals_per_bit: {queries} queries over {bits:.6g} bits; Sikorski bound 1")
        report.append(
            f"setup_s is the median of {len(setups)} processes; "
            f"cli_process_s the median of {len(cold_times)} processes"
        )

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report.append(f"fail_ratio {stats.fail_ratio(attempted, failed):.6g} ({failed} of {attempted} ops)")
    for p in phases:
        report.extend(p.errors[:5])
    for name, m in metrics.items():
        report.append(f"  {name:<44} {m['value']:<14.6g} {m['unit']}")
    print("\n".join(report))
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
