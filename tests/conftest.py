"""Shared test helpers: CLI runner, expression corpus, golden transcripts."""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import spernerfix
from spernerfix.cli import main
from spernerfix.expr import Add, Const, Div, Expr, IfNeg, Mul, Sub, Var, parse


def run_cli(argv: list[str], stdin_text: str | None = None) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def digit_limit():
    # Sets the interpreter's int-to-str digit limit for one test.
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def run_python_O(script: str) -> subprocess.CompletedProcess:
    """Run a script under python -O (asserts stripped) against this package."""
    src = os.path.dirname(os.path.dirname(spernerfix.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


# Self-maps with a unique fixed point and a hand-derived Lipschitz bound:
# (expression, a, b, L, exact fixed point or None when irrational)
LIPSCHITZ_CORPUS = [
    (parse("(x + 1)/2"), Fraction(0), Fraction(2), Fraction(1, 2), Fraction(1)),
    (parse("1 - x/3"), Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4)),
    (parse("(x*x + 2)/4"), Fraction(0), Fraction(1), Fraction(1, 2), None),
]


def gen_expr(rng: random.Random, depth: int) -> Expr:
    """Random expression of at most the given depth (seeded, reproducible)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Var()
        return Const(Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
    kind = rng.randrange(5)
    if kind == 4:
        return IfNeg(
            gen_expr(rng, depth - 1), gen_expr(rng, depth - 1), gen_expr(rng, depth - 1)
        )
    node = (Add, Sub, Mul, Div)[kind]
    return node(gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))


_SOLVE_QUADRATIC_HUMAN = (
    "mode: refine\n"
    "converged: yes\n"
    "rounds used: 20\n"
    "lo = 614241/1048576 (0.585785865783)\n"
    "hi = 307121/524288 (0.585786819458)\n"
    "g(lo) = 1778369/4398046511104 (0.000000404354)\n"
    "g(hi) = -296863/1099511627776 (-0.000000269995)\n"
    "width = 1/1048576 (0.000000953674)\n"
)

_COUNTEREXAMPLE_10_CSV = (
    "depth,width,abs_residual\n"
    "1,1/2,3/4\n"
    "2,1/4,5/8\n"
    "3,1/8,7/16\n"
    "4,1/16,19/32\n"
    "5,1/32,27/64\n"
    "6,1/64,75/128\n"
    "7,1/128,107/256\n"
    "8,1/256,213/512\n"
    "9,1/512,425/1024\n"
    "10,1/1024,849/2048\n"
)

_SOLVE_CSV_HEADER = "result,mode,rounds_used,converged,x,lo,hi,g_lo,g_hi,width\n"

_SOLVE_QUADRATIC_JSON = (
    '{"result":"bracket","mode":"refine","rounds_used":20,"converged":true,'
    '"lo":"614241/1048576","hi":"307121/524288",'
    '"g_lo":"1778369/4398046511104","g_hi":"-296863/1099511627776","width":"1/1048576",'
    '"lo_decimal":"0.585785865783","hi_decimal":"0.585786819458",'
    '"width_decimal":"0.000000953674"}\n'
)

_SOLVE_SINGLE_GRID_JSON = (
    '{"result":"bracket","mode":"single_grid","rounds_used":1,"converged":true,'
    '"lo":"1172/2001","hi":"17/29","g_lo":"449/8008002","g_hi":"-1/3364","width":"1/2001",'
    '"lo_decimal":"0.585707146426","hi_decimal":"0.586206896551",'
    '"width_decimal":"0.000499750124"}\n'
)

_SOLVE_UNCONVERGED_JSON = (
    '{"result":"bracket","mode":"refine","rounds_used":3,"converged":false,'
    '"lo":"1/2","hi":"5/8","g_lo":"1/16","g_hi":"-7/256","width":"1/8",'
    '"lo_decimal":"0.500000000000","hi_decimal":"0.625000000000",'
    '"width_decimal":"0.125000000000"}\n'
)

_PLMAP_TRACE_8_CSV = (
    "x,value\n"
    "0,1\n1/8,7/8\n1/4,3/4\n3/8,5/8\n1/2,1/2\n5/8,3/8\n3/4,1/4\n7/8,1/8\n"
    "1,0\n9/8,3/8\n5/4,3/4\n11/8,9/8\n3/2,3/2\n13/8,15/8\n7/4,9/4\n15/8,21/8\n"
    "2,3\n17/8,23/8\n9/4,11/4\n19/8,21/8\n5/2,5/2\n21/8,19/8\n11/4,9/4\n23/8,17/8\n"
    "3,2\n"
)

# A non-uniform rational grid with three transitions: trace samples are not
# integer vertices, so the per-edge arithmetic shows in every row.
_NON_UNIFORM = ["plmap", "0,1,1,0,1", "--vertices=-1/3,1/2,5/7,2,9/4"]

_NON_UNIFORM_TRACE_1 = [("-1/3", "1/2"), ("1/2", "-1/3"), ("5/7", "1/2"), ("2", "9/4"), ("9/4", "2")]

_NON_UNIFORM_TRACE_3 = [
    ("-1/3", "1/2"), ("-1/18", "2/9"), ("2/9", "-1/18"),
    ("1/2", "-1/3"), ("4/7", "-1/18"), ("9/14", "2/9"),
    ("5/7", "1/2"), ("8/7", "13/12"), ("11/7", "5/3"),
    ("2", "9/4"), ("25/12", "13/6"), ("13/6", "25/12"),
    ("9/4", "2"),
]


def _trace_goldens(resolution: str, rows: list[tuple[str, str]]) -> list[tuple[list[str], int, str]]:
    """The human, json and csv transcripts of one trace, from the same rows."""
    argv = [*_NON_UNIFORM, "trace", "--resolution", resolution]
    return [
        (argv, 0, "".join(f"{x} -> {y}\n" for x, y in rows)),
        ([*argv, "--format", "json"], 0, "[" + ",".join(f'["{x}","{y}"]' for x, y in rows) + "]\n"),
        ([*argv, "--format", "csv"], 0, "x,value\n" + "".join(f"{x},{y}\n" for x, y in rows)),
    ]


_COUNTEREXAMPLE_3_JSON = (
    '[{"depth":1,"lo":"1","lo_decimal":"1.000000000000","hi":"3/2","hi_decimal":"1.500000000000",'
    '"g_lo":"1","g_lo_decimal":"1.000000000000","g_hi":"-1/2","g_hi_decimal":"-0.500000000000",'
    '"width":"1/2","width_decimal":"0.500000000000",'
    '"midpoint":"5/4","midpoint_decimal":"1.250000000000",'
    '"midpoint_residual":"3/4","midpoint_residual_decimal":"0.750000000000",'
    '"residual_floor_check":true,"contains_sqrt2":true},'
    '{"depth":2,"lo":"5/4","lo_decimal":"1.250000000000","hi":"3/2","hi_decimal":"1.500000000000",'
    '"g_lo":"3/4","g_lo_decimal":"0.750000000000","g_hi":"-1/2","g_hi_decimal":"-0.500000000000",'
    '"width":"1/4","width_decimal":"0.250000000000",'
    '"midpoint":"11/8","midpoint_decimal":"1.375000000000",'
    '"midpoint_residual":"5/8","midpoint_residual_decimal":"0.625000000000",'
    '"residual_floor_check":true,"contains_sqrt2":true},'
    '{"depth":3,"lo":"11/8","lo_decimal":"1.375000000000","hi":"3/2","hi_decimal":"1.500000000000",'
    '"g_lo":"5/8","g_lo_decimal":"0.625000000000","g_hi":"-1/2","g_hi_decimal":"-0.500000000000",'
    '"width":"1/8","width_decimal":"0.125000000000",'
    '"midpoint":"23/16","midpoint_decimal":"1.437500000000",'
    '"midpoint_residual":"-7/16","midpoint_residual_decimal":"-0.437500000000",'
    '"residual_floor_check":true,"contains_sqrt2":true}]\n'
)

_QUADRATIC = ["solve", "(x*x + 2)/4", "0", "1"]

# One entry per documented CLI example: (argv, expected exit code, expected
# stdout bytes). Error diagnostics go to stderr, so failing invocations
# expect empty stdout.
GOLDEN_TRANSCRIPTS: list[tuple[list[str], int, str]] = [
    (["sperner", "0,0,1,1"], 0, "scan edge: 2\nbisect edge: 2\n"),
    (["sperner", "1,0"], 2, ""),
    (["sperner", "0,1", "--format", "json"], 0, '{"scan":1,"bisect":1}\n'),
    (["solve", "1 - x", "0", "1"], 0, "exact fixed point: 1/2 (0.500000000000)\n"),
    (
        ["solve", "(x*x + 2)/4", "0", "1", "--epsilon", "1/1000000", "--lipschitz", "1/2"],
        0,
        _SOLVE_QUADRATIC_HUMAN,
    ),
    (["solve", "x + 1", "0", "1"], 2, ""),
    (
        ["plmap", "0,0,1", "--vertices", "0,1,2", "fixed-points"],
        0,
        "3/2 (1.500000000000)\n",
    ),
    (
        ["plmap", "0,1", "--vertices", "0,1", "eval", "1/4"],
        0,
        "value at 1/4: 3/4 (0.750000000000)\n",
    ),
    (
        ["plmap", "0,1,0,1", "--vertices", "0,1,2,3", "fixed-points"],
        0,
        "1/2 (0.500000000000)\n3/2 (1.500000000000)\n5/2 (2.500000000000)\n",
    ),
    (["counterexample", "--depth", "10", "--format", "csv"], 0, _COUNTEREXAMPLE_10_CSV),
    (
        ["counterexample", "--depth", "1"],
        0,
        "round 1: bracket [1, 3/2], width 1/2 (0.500000000000), "
        "|g(midpoint)| 3/4 (0.750000000000), straddles sqrt2: yes\n",
    ),
    (["counterexample", "--depth", "0"], 1, ""),
    (
        ["sperner", "0,0,1,1", "--vertices", "0,1/4,3/4,1"],
        0,
        "scan edge: 2 [1/4 (0.250000000000), 3/4 (0.750000000000)]\n"
        "bisect edge: 2 [1/4 (0.250000000000), 3/4 (0.750000000000)]\n",
    ),
    (
        ["sperner", "0,0,1,1", "--vertices", "0,1/4,3/4,1", "--format", "json"],
        0,
        '{"scan":2,"bisect":2,"scan_edge":["1/4","3/4"],"bisect_edge":["1/4","3/4"]}\n',
    ),
    (
        ["solve", "1 - x", "0", "1", "--format", "json"],
        0,
        '{"result":"exact","mode":"refine","x":"1/2","x_decimal":"0.500000000000"}\n',
    ),
    (
        ["solve", "1 - x", "0", "1", "--format", "csv"],
        0,
        _SOLVE_CSV_HEADER + "exact,refine,,,1/2,,,,,\n",
    ),
    (
        [*_QUADRATIC, "--epsilon", "1/1000000", "--lipschitz", "1/2", "--format", "json"],
        0,
        _SOLVE_QUADRATIC_JSON,
    ),
    (
        [*_QUADRATIC, "--epsilon", "1/1000000", "--lipschitz", "1/2", "--format", "csv"],
        0,
        _SOLVE_CSV_HEADER
        + "bracket,refine,20,true,,614241/1048576,307121/524288,"
        "1778369/4398046511104,-296863/1099511627776,1/1048576\n",
    ),
    (
        [*_QUADRATIC, "--epsilon", "1/1000", "--lipschitz", "1/2", "--mode", "single_grid",
         "--format", "json"],
        0,
        _SOLVE_SINGLE_GRID_JSON,
    ),
    (
        [*_QUADRATIC, "--epsilon", "1/1000", "--lipschitz", "1/2", "--mode", "single_grid",
         "--format", "csv"],
        0,
        _SOLVE_CSV_HEADER
        + "bracket,single_grid,1,true,,1172/2001,17/29,449/8008002,-1/3364,1/2001\n",
    ),
    ([*_QUADRATIC, "--max-rounds", "3", "--format", "json"], 3, _SOLVE_UNCONVERGED_JSON),
    (
        [*_QUADRATIC, "--max-rounds", "3", "--format", "csv"],
        3,
        _SOLVE_CSV_HEADER + "bracket,refine,3,false,,1/2,5/8,1/16,-7/256,1/8\n",
    ),
    (
        ["plmap", "0,1", "--vertices", "0,1", "eval", "1/4", "--format", "json"],
        0,
        '{"x":"1/4","value":"3/4","value_decimal":"0.750000000000"}\n',
    ),
    (
        ["plmap", "0,1", "--vertices", "0,1", "eval", "1/4", "--format", "csv"],
        0,
        "x,value\n1/4,3/4\n",
    ),
    (
        ["plmap", "0,1,0,1", "--vertices", "0,1,2,3", "fixed-points", "--format", "json"],
        0,
        '["1/2","3/2","5/2"]\n',
    ),
    (
        ["plmap", "0,1,0,1", "--vertices", "0,1,2,3", "fixed-points", "--format", "csv"],
        0,
        "fixed_point\n1/2\n3/2\n5/2\n",
    ),
    (
        ["plmap", "0,1", "--vertices", "0,1", "trace", "--resolution", "2"],
        0,
        "0 -> 1\n1/2 -> 1/2\n1 -> 0\n",
    ),
    (
        ["plmap", "0,1", "--vertices", "0,1", "trace", "--resolution", "2", "--format", "json"],
        0,
        '[["0","1"],["1/2","1/2"],["1","0"]]\n',
    ),
    (
        # the README's trace example
        ["plmap", "0,1,0,1", "--vertices", "0,1,2,3", "trace", "--resolution", "8",
         "--format", "csv"],
        0,
        _PLMAP_TRACE_8_CSV,
    ),
    (["counterexample", "--depth", "3", "--format", "json"], 0, _COUNTEREXAMPLE_3_JSON),
    *_trace_goldens("1", _NON_UNIFORM_TRACE_1),
    *_trace_goldens("3", _NON_UNIFORM_TRACE_3),
    ([*_NON_UNIFORM, "fixed-points", "--format", "json"], 0, '["1/12","17/13","17/8"]\n'),
]
