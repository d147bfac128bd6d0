import argparse
import json
from fractions import Fraction

import pytest

from conftest import GOLDEN_TRANSCRIPTS, run_cli
from spernerfix import cli, plmap
from spernerfix.rationals import parse_rational


class TestGoldenTranscripts:
    @pytest.mark.parametrize(
        "argv,expected_code,expected_stdout",
        GOLDEN_TRANSCRIPTS,
        ids=[" ".join(argv) for argv, _, _ in GOLDEN_TRANSCRIPTS],
    )
    def test_byte_identical(self, argv, expected_code, expected_stdout):
        code, stdout, stderr = run_cli(argv)
        assert stdout == expected_stdout
        assert code == expected_code
        if expected_code in (1, 2):
            assert stderr  # diagnostics go to stderr


class TestSperner:
    def test_csv(self):
        code, stdout, _ = run_cli(["sperner", "0,0,1,1", "--format", "csv"])
        assert code == 0
        assert stdout == "scan,bisect\n2,2\n"

    def test_vertices_shown(self):
        code, stdout, _ = run_cli(
            ["sperner", "0,0,1,1", "--vertices", "0,1/4,3/4,1", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc == {
            "scan": 2,
            "bisect": 2,
            "scan_edge": ["1/4", "3/4"],
            "bisect_edge": ["1/4", "3/4"],
        }

    def test_vertices_csv_columns(self):
        code, stdout, _ = run_cli(
            ["sperner", "0,1", "--vertices", "0,1", "--format", "csv"]
        )
        assert code == 0
        assert stdout == "scan,bisect,scan_lo,scan_hi,bisect_lo,bisect_hi\n1,1,0,1,0,1\n"

    def test_vertex_count_mismatch(self):
        code, stdout, stderr = run_cli(["sperner", "0,1", "--vertices", "0,1,2"])
        assert code == 1
        assert stdout == ""
        assert "match" in stderr

    def test_malformed_labels(self):
        code, _, stderr = run_cli(["sperner", "0,2,1"])
        assert code == 1
        assert "label" in stderr


class TestSolve:
    def test_json_bracket_round_trips(self):
        code, stdout, _ = run_cli(
            [
                "solve",
                "(x*x + 2)/4",
                "0",
                "1",
                "--epsilon",
                "1/1000000",
                "--lipschitz",
                "1/2",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["result"] == "bracket"
        assert doc["converged"] is True
        lo, hi = parse_rational(doc["lo"]), parse_rational(doc["hi"])
        g_lo, g_hi = parse_rational(doc["g_lo"]), parse_rational(doc["g_hi"])
        width = parse_rational(doc["width"])
        assert width == hi - lo == Fraction(1, 2**doc["rounds_used"])
        assert g_lo > 0 > g_hi
        # bracket encloses 2 - sqrt(2), by exact squaring
        assert (2 - lo) ** 2 > 2 > (2 - hi) ** 2

    def test_stdin_expression(self):
        code, stdout, _ = run_cli(["solve", "-", "0", "1"], stdin_text="1 - x\n")
        assert code == 0
        assert stdout == "exact fixed point: 1/2 (0.500000000000)\n"

    def test_unconverged_exit_3_report_still_emitted(self):
        code, stdout, _ = run_cli(
            [
                "solve",
                "(x*x + 2)/4",
                "0",
                "1",
                "--epsilon",
                "1/1000000",
                "--lipschitz",
                "1/2",
                "--max-rounds",
                "3",
                "--format",
                "json",
            ]
        )
        assert code == 3
        doc = json.loads(stdout)
        assert doc["converged"] is False
        assert doc["rounds_used"] == 3

    def test_parse_error_exit_1(self):
        code, stdout, stderr = run_cli(["solve", "1 +", "0", "1"])
        assert code == 1
        assert stdout == ""
        assert "position" in stderr

    @pytest.mark.parametrize(
        "argv,expected_stderr",
        [
            (["solve", "1 + @", "0", "1"], "error: unexpected character '@' (at position 4)\n"),
            (["solve", "2x", "0", "1"], "error: unexpected trailing input (at position 1)\n"),
            (
                ["solve", "- x", "0", "1"],
                "error: expected digits in rational literal (at position 0)\n",
            ),
            (["solve", "ifneg(1, 2)", "0", "1"], "error: expected ',' (at position 10)\n"),
            (["solve", "foo + 1", "0", "1"], "error: unknown identifier 'foo' (at position 0)\n"),
            (
                ["solve", "1/0 + x", "0", "1"],
                "error: zero denominator in rational literal (at position 0)\n",
            ),
            (["solve", "x", "0", "1/0"], "error: zero denominator in rational literal '1/0'\n"),
            (["solve", "(1", "0", "1"], "error: expected ')' (at position 2)\n"),
            (["solve", "ifneg(1 2, 3)", "0", "1"], "error: expected ',' (at position 8)\n"),
            (["solve", "ifneg 1", "0", "1"], "error: expected '(' (at position 6)\n"),
            (["solve", "(1, 2)", "0", "1"], "error: expected ')' (at position 2)\n"),
            (["solve", "1)", "0", "1"], "error: unexpected trailing input (at position 1)\n"),
            (["solve", "ifneg(1, 2, 3", "0", "1"], "error: expected ')' (at position 13)\n"),
            (
                ["solve", "ifneg(x, 1, 2) 3", "0", "1"],
                "error: unexpected trailing input (at position 15)\n",
            ),
        ],
    )
    def test_parse_error_stderr_golden(self, argv, expected_stderr):
        assert run_cli(argv) == (1, "", expected_stderr)

    def test_deep_input_solves(self):
        # 2000 nested parentheses on stdin: nesting has no limit but memory
        text = "(" * 2000 + "x" + ")" * 2000
        code, stdout, stderr = run_cli(["solve", "-", "0", "1"], stdin_text=text)
        assert (code, stdout, stderr) == (0, "exact fixed point: 0 (0.000000000000)\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "x + 0*{}", "0", "1"],
            ["solve", "x", "0", "{}"],
            ["sperner", "0,1", "--vertices", "0,{}"],
        ],
        ids=["in the expression", "as an endpoint", "in --vertices"],
    )
    def test_over_long_literal_exit_1(self, digit_limit, argv):
        # A literal of more digits than int() converts is refused with the
        # package's own message, not Python's; one digit fewer still parses.
        digit_limit(640)
        code, stdout, stderr = run_cli([arg.format("7" * 640) for arg in argv])
        assert (code, stderr) == (0, "")
        code, stdout, stderr = run_cli([arg.format("7" * 641) for arg in argv])
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: more than 640 digits in rational literal")
        assert "set_int_max_str_digits" not in stderr

    def test_5000_term_sum_evaluates(self):
        # the sum is the identity map, so the left endpoint is exactly fixed
        code, stdout, stderr = run_cli(["solve", "+".join(["x/5000"] * 5000), "0", "1"])
        assert (code, stdout, stderr) == (0, "exact fixed point: 0 (0.000000000000)\n", "")

    @pytest.mark.parametrize(
        "text,sign",
        [("x + 5/(x-x)", 1), ("x + (0-3)/(x-x)", -1), ("x + 0/(x-x)", 0)],
        ids=["positive dividend", "negative dividend", "zero dividend"],
    )
    def test_division_by_zero_exit_1(self, text, sign):
        code, stdout, stderr = run_cli(["solve", text, "0", "1"])
        assert (code, stdout) == (1, "")
        assert stderr == f"error: division by zero during evaluation: Fraction({sign}, 0)\n"

    def test_bad_endpoint_literal(self):
        code, _, stderr = run_cli(["solve", "x", "0", "1.5"])
        assert code == 1
        assert "literal" in stderr

    def test_single_grid_mode(self):
        code, stdout, _ = run_cli(
            [
                "solve",
                "(x+1)/2",
                "0",
                "2",
                "--mode",
                "single_grid",
                "--epsilon",
                "1/100",
                "--lipschitz",
                "1/2",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        header, row = stdout.splitlines()
        assert header == "result,mode,rounds_used,converged,x,lo,hi,g_lo,g_hi,width"
        fields = row.split(",")
        assert fields[0] == "bracket"
        assert fields[1] == "single_grid"
        assert fields[3] == "true"
        lo, hi = parse_rational(fields[5]), parse_rational(fields[6])
        assert lo < 1 < hi

    def test_single_grid_over_budget_exit_1(self):
        argv = ["solve", "(x*x + 2)/4", "0", "1", "--mode", "single_grid"]
        argv += ["--epsilon", "1/1000000000000", "--lipschitz", "1"]
        code, stdout, stderr = run_cli(argv)
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "error: a single_grid scan of 2000000000001 edges exceeds the budget of 1000000 edges\n"
        )

    def test_single_grid_requires_lipschitz(self):
        code, _, stderr = run_cli(["solve", "1 - x", "0", "1", "--mode", "single_grid"])
        assert code == 1
        assert "Lipschitz" in stderr

    def test_single_grid_without_lipschitz_is_refused_before_solving(self):
        # x + 1 escapes [0, 1], but the config is refused before f is evaluated
        code, stdout, stderr = run_cli(["solve", "x + 1", "0", "1", "--mode", "single_grid"])
        assert (code, stdout) == (1, "")
        assert stderr == "error: single_grid mode requires a declared Lipschitz bound\n"

    def test_exact_csv(self):
        code, stdout, _ = run_cli(["solve", "1 - x", "0", "1", "--format", "csv"])
        assert code == 0
        assert stdout == (
            "result,mode,rounds_used,converged,x,lo,hi,g_lo,g_hi,width\n"
            "exact,refine,,,1/2,,,,,\n"
        )


class TestPlmap:
    def test_eval_json(self):
        code, stdout, _ = run_cli(
            ["plmap", "0,1", "--vertices", "0,1", "eval", "1/4", "--format", "json"]
        )
        assert code == 0
        assert json.loads(stdout) == {
            "x": "1/4",
            "value": "3/4",
            "value_decimal": "0.750000000000",
        }

    def test_fixed_points_json_is_a_rational_literal_array(self):
        code, stdout, _ = run_cli(
            ["plmap", "0,1,0,1", "--vertices", "0,1,2,3", "fixed-points", "--format", "json"]
        )
        assert code == 0
        assert stdout == '["1/2","3/2","5/2"]\n'

    def test_trace_csv(self):
        code, stdout, _ = run_cli(
            [
                "plmap",
                "0,1",
                "--vertices",
                "0,1",
                "trace",
                "--resolution",
                "2",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        assert stdout == "x,value\n0,1\n1/2,1/2\n1,0\n"

    def test_trace_over_row_budget_exit_1(self, monkeypatch):
        # The budget is checked before any row is built: a Fraction built in
        # plmap would raise RuntimeError here, not the refusal.
        def no_rows(*args):
            raise RuntimeError("a trace row was built")

        monkeypatch.setattr(plmap, "Fraction", no_rows)
        code, stdout, stderr = run_cli(
            ["plmap", "0,1", "--vertices", "0,1", "trace", "--resolution", "1000000000"]
        )
        assert code == 1
        assert stdout == ""
        assert "exceeds the budget" in stderr

    def test_eval_requires_point(self):
        code, _, stderr = run_cli(["plmap", "0,1", "--vertices", "0,1", "eval"])
        assert code == 1
        assert "point" in stderr

    @pytest.mark.parametrize("action, extra", [("trace", "1/2"), ("fixed-points", "junk")])
    def test_other_actions_refuse_an_evaluation_point(self, action, extra):
        code, stdout, stderr = run_cli(["plmap", "0,1", "--vertices", "0,1", action, extra])
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: the {action} action takes no evaluation point\n"

    def test_eval_out_of_domain(self):
        code, _, stderr = run_cli(["plmap", "0,1", "--vertices", "0,1", "eval", "3"])
        assert code == 1
        assert "domain" in stderr

    def test_boundary_violation_exit_2(self):
        code, _, stderr = run_cli(["plmap", "1,0", "--vertices", "0,1", "fixed-points"])
        assert code == 2
        assert "boundary" in stderr

    def test_grid_label_size_mismatch(self):
        code, _, _ = run_cli(["plmap", "0,1", "--vertices", "0,1,2", "fixed-points"])
        assert code == 1


class TestCounterexample:
    def test_json_records(self):
        code, stdout, _ = run_cli(["counterexample", "--depth", "2", "--format", "json"])
        assert code == 0
        docs = json.loads(stdout)
        assert [d["depth"] for d in docs] == [1, 2]
        for d in docs:
            assert d["residual_floor_check"] is True
            assert d["contains_sqrt2"] is True
            lo, hi = parse_rational(d["lo"]), parse_rational(d["hi"])
            assert lo**2 < 2 < hi**2
            assert parse_rational(d["width"]) == hi - lo
            assert abs(parse_rational(d["midpoint_residual"])) >= Fraction(2, 5)

    def test_json_decimal_fields_present(self):
        code, stdout, _ = run_cli(["counterexample", "--depth", "1", "--format", "json"])
        assert code == 0
        (doc,) = json.loads(stdout)
        for key in ("lo", "hi", "g_lo", "g_hi", "width", "midpoint", "midpoint_residual"):
            assert key in doc and f"{key}_decimal" in doc
        assert doc["width_decimal"] == "0.500000000000"

    @pytest.mark.parametrize(
        "fmt, last_round", [("human", "round 2124: "), ("json", '{"depth":2124,'), ("csv", "\n2124,")]
    )
    def test_last_printable_depth_prints(self, digit_limit, fmt, last_round):
        digit_limit(640)
        code, stdout, _ = run_cli(["counterexample", "--depth", "2124", "--format", fmt])
        assert code == 0
        assert last_round in stdout

    @pytest.mark.parametrize(
        "limit, depth, runs",
        [
            (640, 2124, True),
            (640, 2125, False),
            (4300, 14282, True),
            (4300, 14283, False),
            (4300, 10**18, False),
            (0, 10**6, True),
        ],
    )
    def test_unprintable_depth_refused_before_any_round(
        self, digit_limit, monkeypatch, limit, depth, runs
    ):
        # A limit of 0 is none. The refusal comes before run_demo, so a
        # depth that could not be printed costs no round.
        ran = []
        monkeypatch.setattr(cli, "run_demo", lambda d: ran.append(d) or [])
        digit_limit(limit)
        code, stdout, stderr = run_cli(["counterexample", "--depth", str(depth)])
        assert ran == ([depth] if runs else [])
        if not runs:
            assert (code, stdout) == (1, "")
            assert f"depth {depth} is too deep to print" in stderr


_SEVENS, _NINES = "7" * 400, "9" * 640

# Results with an integer of more than 640 digits, from inputs of at most 640.
_UNPRINTABLE = [
    ["solve", f"1/{_SEVENS} * 1/{_SEVENS}", "0", "1", "--max-rounds", "2"],  # g(lo) = 1/N**2
    ["solve", f"1/{_NINES} / 2", "0", f"1/{_NINES}"],  # exact fixed point 1/(2N)
    ["plmap", "0,1", f"--vertices=0,{_NINES}", "eval", "1/3"],  # value N - 1/3
    ["plmap", "0,1", f"--vertices=0,1/{_NINES}", "fixed-points"],  # 1/(2N)
    ["plmap", "0,1", f"--vertices=0,1/{_NINES}", "trace", "--resolution", "2"],  # 1/(2N)
]


class TestOutputLimit:
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize(
        "argv",
        _UNPRINTABLE,
        ids=["solve bracket", "solve exact", "plmap eval", "plmap fixed-points", "plmap trace"],
    )
    def test_unprintable_result_exit_1(self, digit_limit, argv, fmt):
        # The package's message, not Python's, and nothing on stdout.
        digit_limit(640)
        assert run_cli([*argv, "--format", fmt]) == (
            1,
            "",
            "error: the result is too long to print: integers over 640 digits\n",
        )

    def test_last_printable_integer_prints(self, digit_limit):
        digit_limit(640)
        code, stdout, stderr = run_cli(["plmap", "0,1", f"--vertices=0,{_NINES}", "eval", "0"])
        assert (code, stdout, stderr) == (0, f"value at 0: {_NINES} ({_NINES}.000000000000)\n", "")


_SOLVE_USAGE = (
    "usage: spernerfix solve [-h] [--format {human,json,csv}] [--epsilon EPSILON]\n"
    "                        [--lipschitz LIPSCHITZ] [--branching BRANCHING]\n"
    "                        [--max-rounds MAX_ROUNDS]\n"
    "                        [--mode {refine,single_grid}]\n"
    "                        expr a b\n"
)
_TOP_USAGE = "usage: spernerfix [-h] {sperner,solve,plmap,counterexample} ...\n"

# argparse's own transcripts at a terminal width of 80 columns: (argv, exit
# code, stdout, stderr).
_ARGPARSE_TRANSCRIPTS = [
    (
        ["solve", "--mode", "bogus", "x", "0", "1"],
        1,
        "",
        _SOLVE_USAGE + "spernerfix solve: error: argument --mode: invalid choice: 'bogus' "
        "(choose from 'refine', 'single_grid')\n",
    ),
    (
        ["solve", "x"],
        1,
        "",
        _SOLVE_USAGE + "spernerfix solve: error: the following arguments are required: a, b\n",
    ),
    (
        ["bogus"],
        1,
        "",
        _TOP_USAGE + "spernerfix: error: argument command: invalid choice: 'bogus' "
        "(choose from 'sperner', 'solve', 'plmap', 'counterexample')\n",
    ),
    (
        ["sperner"],
        1,
        "",
        "usage: spernerfix sperner [-h] [--format {human,json,csv}]\n"
        "                          [--vertices VERTICES]\n"
        "                          labels\n"
        "spernerfix sperner: error: the following arguments are required: labels\n",
    ),
    (
        ["counterexample", "--depth", "q"],
        1,
        "",
        "usage: spernerfix counterexample [-h] [--format {human,json,csv}] --depth\n"
        "                                 DEPTH\n"
        "spernerfix counterexample: error: argument --depth: invalid int value: 'q'\n",
    ),
    (
        ["--help"],
        0,
        _TOP_USAGE + "\n"
        "Certified one-dimensional fixed-point search over exact rationals.\n"
        "\n"
        "positional arguments:\n"
        "  {sperner,solve,plmap,counterexample}\n"
        "    sperner             find a transition edge of a 0/1 labeling\n"
        "    solve               locate a fixed point of an expression on [a, b]\n"
        "    plmap               piecewise-linear extension of a labeled grid\n"
        "    counterexample      run the rational counterexample demonstration\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
]


class TestArgumentHandling:
    @pytest.mark.parametrize(
        "argv,code,stdout,stderr",
        _ARGPARSE_TRANSCRIPTS,
        ids=[" ".join(argv) for argv, *_ in _ARGPARSE_TRANSCRIPTS],
    )
    def test_transcript_golden(self, monkeypatch, argv, code, stdout, stderr):
        # argparse wraps usage to the terminal width, read from COLUMNS. A
        # call at another width first: the parser, once built, keeps no width.
        monkeypatch.setenv("COLUMNS", "200")
        run_cli(["--help"])
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(argv) == (code, stdout, stderr)

    def test_format_default_is_read_per_call(self, monkeypatch):
        monkeypatch.delenv("SPERNERFIX_FORMAT", raising=False)
        assert run_cli(["sperner", "0,1"]) == (0, "scan edge: 1\nbisect edge: 1\n", "")
        monkeypatch.setenv("SPERNERFIX_FORMAT", "json")
        assert run_cli(["sperner", "0,1"]) == (0, '{"scan":1,"bisect":1}\n', "")
        monkeypatch.setenv("SPERNERFIX_FORMAT", "xml")
        assert run_cli(["sperner", "0,1"]) == (0, "scan edge: 1\nbisect edge: 1\n", "")

    def test_one_parser_per_process_and_handlers_found_by_name(self, monkeypatch):
        run_cli(["sperner", "0,1"])
        built = 0
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run_cli(["sperner", "0,1"])[0] == 0
        assert built == 0
        # A replaced cmd_* attribute is the handler run, as a tracer needs.
        calls = []

        def wrapper(args):
            calls.append(args.labels)
            return 0

        monkeypatch.setattr(cli, "cmd_sperner", wrapper)
        assert run_cli(["sperner", "0,1"]) == (0, "", "")
        assert calls == ["0,1"]

    def test_env_var_sets_default_format(self, monkeypatch):
        monkeypatch.setenv("SPERNERFIX_FORMAT", "json")
        code, stdout, _ = run_cli(["sperner", "0,0,1,1"])
        assert code == 0
        assert stdout == '{"scan":2,"bisect":2}\n'

    def test_invalid_env_var_falls_back_to_human(self, monkeypatch):
        monkeypatch.setenv("SPERNERFIX_FORMAT", "xml")
        code, stdout, _ = run_cli(["sperner", "0,1"])
        assert code == 0
        assert stdout == "scan edge: 1\nbisect edge: 1\n"

    def test_explicit_format_overrides_env(self, monkeypatch):
        monkeypatch.setenv("SPERNERFIX_FORMAT", "json")
        code, stdout, _ = run_cli(["sperner", "0,1", "--format", "csv"])
        assert code == 0
        assert stdout == "scan,bisect\n1,1\n"

    def test_unknown_subcommand_exit_1(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_unknown_mode_exit_1(self):
        code, stdout, stderr = run_cli(["solve", "x", "0", "1", "--mode", "newton"])
        assert (code, stdout) == (1, "")
        assert "invalid choice: 'newton' (choose from 'refine', 'single_grid')" in stderr

    def test_missing_required_flag_exit_1(self):
        code, _, _ = run_cli(["counterexample"])
        assert code == 1

    def test_help_exits_0(self):
        code, stdout, _ = run_cli(["--help"])
        assert code == 0
        assert "spernerfix" in stdout
