"""Command-line front end.

Subcommands expose each part of the library with machine-readable output:

* ``sperner`` - transition-edge search on a label vector
* ``solve`` - certified fixed-point search for an expression
* ``plmap`` - piecewise-linear extension of a labeled grid
* ``counterexample`` - the rational inequivalence demonstration

Output formats are ``human``, ``json``, and ``csv`` (``--format``, or the
SPERNERFIX_FORMAT environment variable as the default, read on each
invocation). Rationals cross the boundary as literal strings, never as
native floats, including inside JSON, and the interpreter's str() decides
which are too long to print; decimal renderings are exact truncations. Each
invocation emits one well-formed JSON document in json mode and a header
row in csv mode.

Exit codes: 0 success; 1 malformed input, including a malformed invocation,
an option its action does not take, a result or a counterexample depth whose
report holds an integer too long to print, and stdout closed by its reader;
2 boundary-condition or self-map violation; 3 bracket returned but
unconverged (report still emitted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import get_args

from .counterexample import CounterexampleReport, run_demo
from .expr import parse
from .plmap import pl_evaluate, pl_fixed_points, pl_from_labeling, pl_trace
from .rationals import _text, decimal_string, parse_rational
from .solver import Mode, SolverConfig, solve
from .sperner import (
    BoundaryConditionError,
    ExactVertex,
    Grid,
    Labeling,
    NonSelfMapError,
    find_transition_bisect,
    find_transition_scan,
    parse_labels,
    parse_vertices,
)

FORMATS = ("human", "json", "csv")
FORMAT_ENV_VAR = "SPERNERFIX_FORMAT"
# Every solve result is one CSV row under the same ten columns.
_SOLVE_COLUMNS = "result,mode,rounds_used,converged,x,lo,hi,g_lo,g_hi,width".split(",")


def _default_format() -> str:
    value = os.environ.get(FORMAT_ENV_VAR, "")
    return value if value in FORMATS else "human"


def _human(q: Fraction) -> str:
    # _text's refusal comes first; decimal_string refuses no q whose str() prints
    return f"{_text(q)} ({decimal_string(q)})"


def _emit(fmt: str, doc, columns: list[str], rows: list[list[str]], lines: list[str]) -> None:
    """Print one command's output in the chosen format: the JSON document,
    the CSV header and rows, or the human lines. Every command builds all
    its text before calling this, so a refused result prints nothing."""
    if fmt == "json":
        print(json.dumps(doc, separators=(",", ":")))
    elif fmt == "csv":
        for row in (columns, *rows):
            print(",".join(row))
    else:
        for line in lines:
            print(line)


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process on the first main call."""
    parser = argparse.ArgumentParser(
        prog="spernerfix",
        description="Certified one-dimensional fixed-point search over exact rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # --format defaults to None: main reads SPERNERFIX_FORMAT on each call
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--format",
            choices=FORMATS,
            help="output format (default from SPERNERFIX_FORMAT, else human)",
        )
        return p

    p = command("sperner", "find a transition edge of a 0/1 labeling")
    p.add_argument("labels", help="comma-separated labels, e.g. 0,0,1,1")
    p.add_argument("--vertices", help="comma-separated rational vertices aligned with the labels")

    p = command("solve", "locate a fixed point of an expression on [a, b]")
    p.add_argument("expr", help="expression text, or - to read it from stdin")
    p.add_argument("a", help="left endpoint (rational literal)")
    p.add_argument("b", help="right endpoint (rational literal)")
    p.add_argument("--epsilon", default=str(SolverConfig.epsilon), help="target residual bound")
    p.add_argument("--lipschitz", default=None, help="declared Lipschitz bound for f")
    p.add_argument(
        "--branching", type=int, default=SolverConfig.branching, help="subintervals per round"
    )
    p.add_argument("--max-rounds", type=int, default=SolverConfig.max_rounds, dest="max_rounds")
    p.add_argument("--mode", choices=get_args(Mode), default=SolverConfig.mode)

    p = command("plmap", "piecewise-linear extension of a labeled grid")
    p.add_argument("labels", help="comma-separated labels, e.g. 0,0,1")
    p.add_argument("--vertices", required=True, help="comma-separated rational vertices")
    p.add_argument("action", choices=["eval", "fixed-points", "trace"])
    p.add_argument("x", nargs="?", help="evaluation point (eval action only)")
    p.add_argument("--resolution", type=int, default=None, help="samples per edge (trace action)")

    p = command("counterexample", "run the rational counterexample demonstration")
    p.add_argument("--depth", type=int, required=True, help="number of bisection rounds")

    return parser


def cmd_sperner(args) -> int:
    labels = parse_labels(args.labels)
    labeling = Labeling(labels)
    edges = {"scan": find_transition_scan(labeling), "bisect": find_transition_bisect(labeling)}
    doc = dict(edges)
    columns = list(edges)
    row = [str(edge) for edge in edges.values()]
    lines = [f"{name} edge: {edge}" for name, edge in edges.items()]
    if args.vertices is not None:
        vertices = Grid(parse_vertices(args.vertices)).vertices
        if len(vertices) != len(labels):
            raise ValueError("vertex count must match label count")
        for k, (name, edge) in enumerate(edges.items()):
            lo, hi = vertices[edge - 1], vertices[edge]
            doc[f"{name}_edge"] = [_text(lo), _text(hi)]
            columns += [f"{name}_lo", f"{name}_hi"]
            row += doc[f"{name}_edge"]
            lines[k] += f" [{_human(lo)}, {_human(hi)}]"
    _emit(args.format, doc, columns, [row], lines)
    return 0


def cmd_solve(args) -> int:
    text = sys.stdin.read() if args.expr == "-" else args.expr
    f = parse(text)
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    config = SolverConfig(
        epsilon=parse_rational(args.epsilon),
        lipschitz=None if args.lipschitz is None else parse_rational(args.lipschitz),
        branching=args.branching,
        max_rounds=args.max_rounds,
        mode=args.mode,
    )
    result = solve(f, a, b, config)

    # `fields` holds the CSV cells by column; the JSON document has the same
    # keys in the same order, with typed values and decimal companions.
    if isinstance(result, ExactVertex):
        fields = {"result": "exact", "mode": config.mode, "x": _text(result.x)}
        doc = {**fields, "x_decimal": decimal_string(result.x)}
        lines = [f"exact fixed point: {_human(result.x)}"]
        code = 0
    else:
        values = {key: getattr(result, key) for key in ("lo", "hi", "g_lo", "g_hi", "width")}
        fields = {
            "result": "bracket",
            "mode": config.mode,
            "rounds_used": str(result.rounds_used),
            "converged": str(result.converged).lower(),
        }
        fields.update((key, _text(value)) for key, value in values.items())
        doc = {**fields, "rounds_used": result.rounds_used, "converged": result.converged}
        doc.update((f"{key}_decimal", decimal_string(values[key])) for key in ("lo", "hi", "width"))
        lines = [
            f"mode: {config.mode}",
            f"converged: {'yes' if result.converged else 'no'}",
            f"rounds used: {result.rounds_used}",
        ]
        lines += [
            f"{label} = {_human(value)}"
            for label, value in zip(("lo", "hi", "g(lo)", "g(hi)", "width"), values.values())
        ]
        code = 0 if result.converged else 3
    _emit(args.format, doc, _SOLVE_COLUMNS, [[fields.get(c, "") for c in _SOLVE_COLUMNS]], lines)
    return code


def cmd_plmap(args) -> int:
    labeling = Labeling(parse_labels(args.labels))
    plmap = pl_from_labeling(Grid(parse_vertices(args.vertices)), labeling)

    if args.action != "eval" and args.x is not None:
        raise ValueError(f"the {args.action} action takes no evaluation point")
    if args.action != "trace" and args.resolution is not None:
        raise ValueError(f"the {args.action} action takes no --resolution")
    if args.action == "eval":
        if args.x is None:
            raise ValueError("the eval action requires an evaluation point")
        x = parse_rational(args.x)
        value = pl_evaluate(plmap, x)
        x_text, value_text = _text(x), _text(value)
        columns, rows = ["x", "value"], [[x_text, value_text]]
        doc = {"x": x_text, "value": value_text, "value_decimal": decimal_string(value)}
        lines = [f"value at {x_text}: {_human(value)}"]
    elif args.action == "fixed-points":
        points = pl_fixed_points(plmap)
        doc = [_text(p) for p in points]
        columns, rows = ["fixed_point"], [[p] for p in doc]
        lines = [_human(p) for p in points]
    else:
        samples = pl_trace(plmap, 8 if args.resolution is None else args.resolution)
        doc = rows = [[_text(x), _text(y)] for x, y in samples]
        columns = ["x", "value"]
        lines = [f"{x} -> {y}" for x, y in rows]
    _emit(args.format, doc, columns, rows, lines)
    return 0


def _report_record(report: CounterexampleReport) -> dict:
    bracket = report.bracket
    record: dict = {"depth": report.depth}
    for key, value in (
        ("lo", bracket.lo),
        ("hi", bracket.hi),
        ("g_lo", bracket.g_lo),
        ("g_hi", bracket.g_hi),
        ("width", bracket.width),
        ("midpoint", report.midpoint),
        ("midpoint_residual", report.midpoint_residual),
    ):
        record[key] = _text(value)
        record[f"{key}_decimal"] = decimal_string(value)
    record["residual_floor_check"] = report.residual_floor_check
    record["contains_sqrt2"] = report.contains_sqrt2
    return record


def cmd_counterexample(args) -> int:
    # Refused before any round runs. The largest integer a report prints is the
    # last midpoint's numerator, of depth + 2 bits: over 16 ** limit > 10 ** limit
    # from depth 4 * limit on, so the cap keeps str()'s verdict and spares a huge
    # depth its square root. No limit is 0, or none before Python 3.10.7.
    limit, depth = getattr(sys, "get_int_max_str_digits", lambda: 0)(), args.depth
    if limit and depth >= 1:
        _text(2 * isqrt(2 << 2 * min(depth, 4 * limit)) + 1, f"depth {depth} is too deep to print")
    reports = run_demo(depth)
    doc = [_report_record(r) for r in reports]
    rows, lines = [], []
    for r, rec in zip(reports, doc):
        abs_residual = abs(r.midpoint_residual)
        rows.append([str(r.depth), rec["width"], _text(abs_residual)])
        lines.append(
            f"round {r.depth}: bracket [{rec['lo']}, {rec['hi']}], "
            f"width {rec['width']} ({rec['width_decimal']}), "
            f"|g(midpoint)| {_human(abs_residual)}, "
            f"straddles sqrt2: {'yes' if r.contains_sqrt2 else 'no'}"
        )
    _emit(args.format, doc, ["depth", "width", "abs_residual"], rows, lines)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed invocation, but 2 means a boundary
        # or self-map violation here
        return 0 if exc.code == 0 else 1
    args.format = args.format or _default_format()
    try:
        # found by name on each call, so a replaced cmd_* attribute is the one run
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`): on devnull, the final flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (BoundaryConditionError, NonSelfMapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print(f"error: division by zero during evaluation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
