"""The four workloads: seeded inputs, one op, and an independent check of its result.

Each workload is a closed loop with one caller: op i+1 starts when op i has
returned. Ops call spernerfix through module attributes (`solver.solve`, not
a name bound at import) so that a `Tracer` can wrap them. Checks use plain
`if` tests, so they also hold under `python -O`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from spernerfix import cli, counterexample, expr, plmap, solver, sperner

from . import inputs
from .tracer import Tracer, count_f_evals

ZERO, ONE, TWO = Fraction(0), Fraction(1), Fraction(2)
FORMATS = ("human", "json", "csv")
COLD_PROCESSES = 12  # cold CLI processes timed per run, one at a time


class CheckError(Exception):
    """An op returned a wrong result."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def width_bits(a: Fraction, b: Fraction, lo: Fraction, hi: Fraction) -> float:
    """Bits of width reduction, log2((b - a) / (hi - lo))."""
    ratio = (b - a) / (hi - lo)
    return math.log2(ratio.numerator) - math.log2(ratio.denominator)


def decimal_text(q: Fraction) -> str:
    """q with 12 decimal digits, truncated toward zero, as the CLI must render it."""
    whole, frac = divmod(abs(q.numerator) * 10**12 // q.denominator, 10**12)
    return f"{'-' if q < 0 else ''}{whole}.{frac:012d}"


def human(q: Fraction) -> str:
    return f"{q} ({decimal_text(q)})"


def _residual(e, x: Fraction) -> Fraction:
    return expr.evaluate(e, x) - x


def certify_self_map(generated: inputs.GeneratedMap, e) -> None:
    """Check the map's proof, g(0) > 0 and g(1) < 0, against the parsed expression."""
    g0, g1 = _residual(e, ZERO), _residual(e, ONE)
    _require(g0 == generated.g0 and g0 > 0, f"g(0) = {g0} disproves {generated.text}")
    _require(g1 == generated.g1 and g1 < 0, f"g(1) = {g1} disproves {generated.text}")


def check_bracket(e, a: Fraction, b: Fraction, result) -> None:
    """Sign evidence of a bracket, recomputed with a fresh evaluate."""
    _require(isinstance(result, solver.CertifiedBracket), f"expected a bracket, got {result!r}")
    lo, hi = result.lo, result.hi
    _require(a <= lo < hi <= b, f"bracket [{lo}, {hi}] not inside [{a}, {b}]")
    _require(_residual(e, lo) > 0, f"g({lo}) is not positive")
    _require(_residual(e, hi) < 0, f"g({hi}) is not negative")


def check_demo(reports, depth: int) -> None:
    """The counterexample's claims, recomputed in plain rational arithmetic."""
    _require(len(reports) == depth, f"{len(reports)} reports for depth {depth}")
    for d, report in enumerate(reports, 1):
        lo, hi = report.bracket.lo, report.bracket.hi
        _require(report.depth == d, f"report {d} has depth {report.depth}")
        _require(ONE <= lo < hi <= TWO, f"round {d}: [{lo}, {hi}] leaves [1, 2]")
        _require(lo * lo < 2 < hi * hi, f"round {d}: [{lo}, {hi}] misses sqrt(2)")
        _require(hi - lo == Fraction(1, 2**d), f"round {d}: width {hi - lo}")
        mid = (lo + hi) / 2
        f_mid = TWO if mid * mid < 2 else ONE
        _require(abs(f_mid - mid) >= counterexample.RESIDUAL_FLOOR, f"round {d}: |g(mid)| < 2/5")


# -- CLI cases ----------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    """One argv with the exit code and output fields the library predicts.

    `expected` is, by format: the JSON document (dicts compared on the keys
    given), the CSV rows (same), or the strings human output must contain.
    Decimal renderings are computed here, not by the library.
    """

    argv: tuple[str, ...]
    exit_code: int
    expected: object
    bits: float = 0.0  # bits of width reduction, for f-evaluations per bit

    @property
    def format(self) -> str:
        return self.argv[self.argv.index("--format") + 1]

    def check(self, code: int, stdout: str, stderr: str) -> None:
        _require(code == self.exit_code, f"exit {code}, expected {self.exit_code}: {self.argv}")
        if self.exit_code == 1:
            _require(stdout == "" and stderr.startswith("error:"), f"no diagnostic: {self.argv}")
        elif self.format == "json":
            _require(_matches(json.loads(stdout), self.expected), f"JSON differs: {self.argv}")
        elif self.format == "csv":
            rows = list(csv.DictReader(io.StringIO(stdout)))
            _require(_matches(rows, self.expected), f"CSV differs: {self.argv}")
        else:
            missing = [t for t in self.expected if t not in stdout]
            _require(not missing, f"human output lacks {missing[:1]}: {self.argv}")


def _matches(doc, expected) -> bool:
    if isinstance(expected, dict):
        return isinstance(doc, dict) and all(
            key in doc and _matches(doc[key], value) for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(doc, list)
            and len(doc) == len(expected)
            and all(_matches(d, e) for d, e in zip(doc, expected))
        )
    return type(doc) is type(expected) and doc == expected


def _case(argv: list[str], fmt: str, by_format: dict, exit_code: int = 0, bits: float = 0.0) -> CliCase:
    return CliCase((argv[0], "--format", fmt, *argv[1:]), exit_code, by_format[fmt], bits)


def sperner_case(labels: list[int], vertices: list[Fraction] | None, fmt: str) -> CliCase:
    labeling = sperner.Labeling(labels)
    scan = sperner.find_transition_scan(labeling)
    bis = sperner.find_transition_bisect(labeling)
    argv = ["sperner", ",".join(map(str, labels))]
    doc = {"scan": scan, "bisect": bis}
    row = {"scan": str(scan), "bisect": str(bis)}
    tokens = [f"scan edge: {scan}", f"bisect edge: {bis}"]
    if vertices is not None:
        argv.append("--vertices=" + ",".join(map(str, vertices)))
        for name, edge in (("scan", scan), ("bisect", bis)):
            lo, hi = str(vertices[edge - 1]), str(vertices[edge])
            doc[f"{name}_edge"] = [lo, hi]
            row[f"{name}_lo"], row[f"{name}_hi"] = lo, hi
            tokens.append(f"{name} edge: {edge} [{human(vertices[edge - 1])}, {human(vertices[edge])}]")
    return _case(argv, fmt, {"json": doc, "csv": [row], "human": tokens})


def solve_case(text: str, config: solver.SolverConfig, fmt: str) -> CliCase:
    """A solve on [0, 1]; the flags are spelled out from `config`."""
    argv = ["solve", text, "0", "1", "--epsilon", str(config.epsilon)]
    argv += ["--branching", str(config.branching), "--max-rounds", str(config.max_rounds)]
    if config.lipschitz is not None:
        argv += ["--lipschitz", str(config.lipschitz)]
    e = expr.parse(text)
    result = solver.solve(e, ZERO, ONE, config)
    if isinstance(result, sperner.ExactVertex):
        x = result.x
        _require(_residual(e, x) == 0, f"{x} is not a fixed point of {text}")
        row = {"result": "exact", "x": str(x)}
        doc = row | {"x_decimal": decimal_text(x)}
        return _case(argv, fmt, {"json": doc, "csv": [row], "human": [f"exact fixed point: {human(x)}"]})
    check_bracket(e, ZERO, ONE, result)
    values = {k: getattr(result, k) for k in ("lo", "hi", "g_lo", "g_hi", "width")}
    fields = {k: str(v) for k, v in values.items()}
    doc = {"result": "bracket", "rounds_used": result.rounds_used, "converged": result.converged}
    doc |= {f"{k}_decimal": decimal_text(values[k]) for k in ("lo", "hi", "width")}
    row = {"result": "bracket", "rounds_used": str(result.rounds_used)}
    row["converged"] = "true" if result.converged else "false"
    tokens = [f"rounds used: {result.rounds_used}"]
    labels = {"lo": "lo", "hi": "hi", "g_lo": "g(lo)", "g_hi": "g(hi)", "width": "width"}
    tokens += [f"{labels[k]} = {human(v)}" for k, v in values.items()]
    return _case(
        argv,
        fmt,
        {"json": doc | fields, "csv": [row | fields], "human": tokens},
        exit_code=0 if result.converged else 3,
        bits=width_bits(ZERO, ONE, result.lo, result.hi),
    )


def malformed_case(text: str, fmt: str) -> CliCase:
    return _case(["solve", text, "0", "1"], fmt, dict.fromkeys(FORMATS), exit_code=1)


def counterexample_case(depth: int, fmt: str) -> CliCase:
    reports = counterexample.run_demo(depth)
    check_demo(reports, depth)
    doc, rows, tokens = [], [], []
    for r in reports:
        b = r.bracket
        record = {"depth": r.depth, "residual_floor_check": True, "contains_sqrt2": True}
        for key, value in (("lo", b.lo), ("hi", b.hi), ("width", b.width), ("midpoint_residual", r.midpoint_residual)):
            record[key] = str(value)
            record[f"{key}_decimal"] = decimal_text(value)
        doc.append(record)
        rows.append(
            {"depth": str(r.depth), "width": str(b.width), "abs_residual": str(abs(r.midpoint_residual))}
        )
        tokens.append(
            f"round {r.depth}: bracket [{b.lo}, {b.hi}], width {human(b.width)}, "
            f"|g(midpoint)| {human(abs(r.midpoint_residual))}"
        )
    argv = ["counterexample", "--depth", str(depth)]
    return _case(argv, fmt, {"json": doc, "csv": rows, "human": tokens}, bits=depth)


def plmap_case(labels: list[int], vertices: list[Fraction], action: str, fmt: str, x: Fraction | None = None) -> CliCase:
    pl = plmap.pl_from_labeling(sperner.Grid(vertices), sperner.Labeling(labels))
    # "--" ends the options, so a negative evaluation point stays positional.
    argv = ["plmap", "--vertices=" + ",".join(map(str, vertices)), "--", ",".join(map(str, labels)), action]
    if action == "eval":
        value = plmap.pl_evaluate(pl, x)
        argv.append(str(x))
        row = {"x": str(x), "value": str(value)}
        doc = row | {"value_decimal": decimal_text(value)}
        by_format = {"json": doc, "csv": [row], "human": [f"value at {x}: {human(value)}"]}
    elif action == "fixed-points":
        points = plmap.pl_fixed_points(pl)
        by_format = {
            "json": [str(p) for p in points],
            "csv": [{"fixed_point": str(p)} for p in points],
            "human": [human(p) for p in points],
        }
    else:
        rows = [(str(x), str(y)) for x, y in plmap.pl_trace(pl)]
        by_format = {
            "json": [list(r) for r in rows],
            "csv": [{"x": x, "value": y} for x, y in rows],
            "human": [f"{x} -> {y}" for x, y in rows],
        }
    return _case(argv, fmt, by_format)


# -- workloads ----------------------------------------------------------------


class Workload:
    """Inputs made from a seed, plus ops over them.

    Subclasses set `name`, `digest` (of the generated inputs),
    `count_ops` (the fixed op indices f-evaluations are counted on) and
    `cold_cases` (CLI cases timed as cold processes). Ops i and i + `cycle`
    are the same kind of op.
    """

    name = ""
    cycle = 1

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> None:
        raise NotImplementedError

    def bits(self, i: int, result) -> float:
        raise NotImplementedError

    def use_tracer(self, tracer: Tracer | None) -> None:
        """Route f through `tracer` where the workload hands f over itself."""

    def oracle_queries(self) -> tuple[int, float]:
        """(f-evaluations, bits of width reduction) over `count_ops`, counted
        at the callable boundary. The counts repeat exactly for a seed."""
        bits = 0.0

        def count_ops(tracer: Tracer) -> None:
            nonlocal bits
            self.use_tracer(tracer)
            try:
                for i in self.count_ops:
                    result = self.run(i)
                    self.check(i, result)
                    bits += self.bits(i, result)
            finally:
                self.use_tracer(None)

        return count_f_evals(count_ops), bits


class SolveDeep(Workload):
    """Generated maps refined to width 2^-400, alternating branching 2 and 16.

    Bigint f-evaluation and label_by_sign on operands of up to ~1200 bits
    dominate, so fewer evaluations per round or cheaper evaluation show here.
    """

    name = "solve-deep"
    WIDTH = Fraction(1, 2**400)
    BRANCHINGS = (2, 16)
    # The cost of a solve varies by a factor of two with the coefficients,
    # even within a kind, so a run goes through many maps (about 125 at 9
    # ops/s) and its figures do not hang on the draws of a few.
    MAPS = 200

    def __init__(self, seed: int):
        self.maps = inputs.solve_deep_maps(seed, self.MAPS)
        self.exprs = [expr.parse(m.text) for m in self.maps]
        for generated, e in zip(self.maps, self.exprs):
            certify_self_map(generated, e)
        self.configs = [
            solver.SolverConfig(epsilon=self.WIDTH, branching=b, max_rounds=400)
            for b in self.BRANCHINGS
        ]
        self.digest = inputs.digest(["solve-deep"] + [m.text for m in self.maps])
        self.count_ops = [0, 1]
        self.cycle = 2 * len(inputs.SOLVE_DEEP_KINDS)  # every kind at both branchings
        shallow = solver.SolverConfig()
        self.cold_cases = [solve_case(self.maps[0].text, shallow, "json")] * COLD_PROCESSES
        self.use_tracer(None)

    def use_tracer(self, tracer: Tracer | None) -> None:
        functions = [lambda x, e=e: expr.evaluate(e, x) for e in self.exprs]
        self.functions = functions if tracer is None else [tracer.f_callable(f) for f in functions]

    def _op(self, i: int) -> tuple[int, int]:
        # Each map is solved at branching 2, then at branching 16.
        return (i // 2) % len(self.maps), i % 2

    def run(self, i: int):
        m, b = self._op(i)
        return solver.solve(self.functions[m], ZERO, ONE, self.configs[b])

    def check(self, i: int, result) -> None:
        m, _ = self._op(i)
        check_bracket(self.exprs[m], ZERO, ONE, result)
        _require(result.converged and result.width <= self.WIDTH, f"width {result.width} too wide")

    def bits(self, i: int, result) -> float:
        return width_bits(ZERO, ONE, result.lo, result.hi)


class Counterexample(Workload):
    """One run_demo(100) per op.

    The only workload that restarts the solver every round, which makes its
    cost quadratic in depth.
    """

    name = "counterexample"
    DEPTH = 100

    def __init__(self, seed: int):
        # The op is fixed: run_demo has no input but its depth. The seed
        # changes nothing here.
        self.digest = inputs.digest(["counterexample", self.DEPTH])
        self.count_ops = [0]
        self.cold_cases = [counterexample_case(20, "csv")] * COLD_PROCESSES

    def run(self, i: int):
        return counterexample.run_demo(self.DEPTH)

    def check(self, i: int, result) -> None:
        check_demo(result, self.DEPTH)

    def bits(self, i: int, result) -> float:
        return float(self.DEPTH)


@dataclass(frozen=True)
class PlmapResult:
    scan: int
    bisect: int
    pl: object
    points: list
    witnesses: list
    trace_rows: int


class PlmapGrid(Workload):
    """10^4-vertex rational grids through Grid, Labeling, edge search and plmap.

    It evaluates no f and runs no solver, so a change to expr or solver
    should leave it unchanged. pl_trace runs at resolution 2: at 8 it takes
    most of the op and hides the other layers.
    """

    name = "plmap-grid"
    VERTICES = 10_000
    GRIDS = 8
    TRANSITIONS = 199  # hetero-labeled edges per grid
    RESOLUTION = 2

    def __init__(self, seed: int):
        rng = Random(f"plmap-grid:{seed}")
        self.grids = [
            (
                tuple(inputs.rational_grid(rng, self.VERTICES)),
                tuple(inputs.sperner_labels(rng, self.VERTICES, self.TRANSITIONS)),
            )
            for _ in range(self.GRIDS)
        ]
        self.hetero = [sum(a != b for a, b in zip(labels, labels[1:])) for _, labels in self.grids]
        self.first = [next(k for k in range(1, len(labels)) if labels[k - 1] != labels[k]) for _, labels in self.grids]
        self.digest = inputs.digest(["plmap-grid"] + [g for grid in self.grids for g in grid])
        self.count_ops = []
        small_labels = inputs.sperner_labels(rng, 50, 9)
        small_vertices = inputs.rational_grid(rng, 50)
        self.cold_cases = [plmap_case(small_labels, small_vertices, "fixed-points", "json")] * COLD_PROCESSES

    def run(self, i: int):
        vertices, labels = self.grids[i % self.GRIDS]
        grid = sperner.Grid(vertices)
        labeling = sperner.Labeling(labels)
        scan = sperner.find_transition_scan(labeling)
        bis = sperner.find_transition_bisect(labeling)
        pl = plmap.pl_from_labeling(grid, labeling)
        points = plmap.pl_fixed_points(pl)
        witnesses = plmap.theorem_roundtrip(grid, labeling)
        rows = plmap.pl_trace(pl, self.RESOLUTION)
        return PlmapResult(scan, bis, pl, points, witnesses, len(rows))

    def check(self, i: int, result: PlmapResult) -> None:
        g = i % self.GRIDS
        _, labels = self.grids[g]
        _require(result.scan == self.first[g], f"scan edge {result.scan}, expected {self.first[g]}")
        _require(labels[result.bisect - 1] == 0 and labels[result.bisect] == 1, "bisect edge is not 0->1")
        _require(len(result.points) == self.hetero[g], f"{len(result.points)} fixed points, {self.hetero[g]} hetero edges")
        _require(len(result.witnesses) == self.hetero[g], "witness count differs")
        for p in result.points:
            _require(plmap.pl_evaluate(result.pl, p) == p, f"{p} is not fixed")
        _require(result.trace_rows == self.RESOLUTION * (self.VERTICES - 1) + 1, "trace length")

    def oracle_queries(self) -> tuple[int, float]:
        """No f here: the oracle is the labeling. Label queries by
        find_transition_bisect per bit of edge-index range, log2(n edges)."""
        total, bits = 0, 0.0
        for _, labels in self.grids:
            edge, queries = sperner.find_transition_bisect_counted(sperner.Labeling(labels))
            _require(labels[edge - 1] == 0 and labels[edge] == 1, "bisect edge is not 0->1")
            total += queries
            bits += math.log2(len(labels) - 1)
        return total, bits


class CliMix(Workload):
    """In-process cli.main over every subcommand in every format, shallow inputs.

    Argparse, parsing and rendering dominate here and nowhere else. Output
    is captured in memory.
    """

    name = "cli-mix"
    MALFORMED = ("(x + 1", "x * * 2", "2 x", "ifneg(x, 1)", "1/0 + x", "y + 1")

    def __init__(self, seed: int):
        rng = Random(f"cli-mix:{seed}")
        self.cases = [case for fmt in FORMATS for case in self._cycle(rng, fmt)]
        self.digest = inputs.digest(["cli-mix"] + [c.argv for c in self.cases])
        self.count_ops = list(range(len(self.cases)))
        self.cycle = len(self.cases)
        json_cases = [c for c in self.cases if c.format == "json"]
        self.cold_cases = json_cases[:COLD_PROCESSES]

    @staticmethod
    def _cycle(rng: Random, fmt: str) -> list[CliCase]:
        # Sizes and kinds are fixed; the seed draws the values.
        def labeled_grid():
            return inputs.sperner_labels(rng, 50, 9), inputs.rational_grid(rng, 50)

        eps = Fraction(1, 10**6)
        poly = inputs.poly_map(rng, 2)
        other = inputs.generated_map(rng, ("rational", "ifneg", "poly3")[FORMATS.index(fmt)])
        r = Fraction(rng.randint(3, 5), 8)  # f(x) = r + (r - x)/2 fixes the grid vertex r
        labels, _ = labeled_grid()
        lab_v, vert_v = labeled_grid()
        pl_labels, pl_vertices = labeled_grid()
        x = pl_vertices[0] + (pl_vertices[-1] - pl_vertices[0]) * Fraction(rng.randint(0, 97), 97)
        unconverged = inputs.poly_map(rng, 1)
        return [
            sperner_case(labels, None, fmt),
            sperner_case(lab_v, vert_v, fmt),
            solve_case(poly.text, solver.SolverConfig(epsilon=eps), fmt),
            solve_case(poly.text, solver.SolverConfig(epsilon=eps, lipschitz=poly.lipschitz), fmt),
            solve_case(other.text, solver.SolverConfig(epsilon=eps, branching=16), fmt),
            solve_case(f"{r} + ({r} - x)/2", solver.SolverConfig(epsilon=eps), fmt),
            solve_case(unconverged.text, solver.SolverConfig(epsilon=eps, max_rounds=3), fmt),
            malformed_case(rng.choice(CliMix.MALFORMED), fmt),
            counterexample_case(20, fmt),
            plmap_case(pl_labels, pl_vertices, "eval", fmt, x),
            plmap_case(pl_labels, pl_vertices, "fixed-points", fmt),
            plmap_case(pl_labels, pl_vertices, "trace", fmt),
        ]

    def run(self, i: int):
        case = self.cases[i % len(self.cases)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case.argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, result) -> None:
        self.cases[i % len(self.cases)].check(*result)

    def bits(self, i: int, result) -> float:
        return self.cases[i % len(self.cases)].bits


WORKLOADS = {w.name: w for w in (SolveDeep, Counterexample, PlmapGrid, CliMix)}
