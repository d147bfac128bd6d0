"""Spans around the public functions of each spernerfix module.

`Tracer.installed()` replaces each traced function in every module that
imported it (and in its own module, for calls inside the module), wraps the
constructors of `Grid` and `Labeling`, and restores everything on exit.
Spans are only recorded while an op is open (`begin_op`/`end_op`), so the
benchmark's own checks are never traced. The hot leaf calls in FOLDED are
counted and timed but kept as no span of their own: their time is charged
to the enclosing span, so a traced phase holds many ops in bounded memory.

f is counted at the callable boundary, never inside the recursive
`expr.evaluate`: `as_function` is wrapped where `solver` and `sperner`
import it, and only counts when it is handed an `Expr`; a callable passes
through untouched, so a callable the benchmark wraps itself with
`Tracer.f_callable` is counted once.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter_ns

# span name -> (module, attribute) of a public function.
FUNCTIONS = {
    "rationals.parse_rational": ("spernerfix.rationals", "parse_rational"),
    "rationals.decimal_string": ("spernerfix.rationals", "decimal_string"),
    "rationals.is_below_sqrt2": ("spernerfix.rationals", "is_below_sqrt2"),
    "expr.parse": ("spernerfix.expr", "parse"),
    "sperner.make_uniform_grid": ("spernerfix.sperner", "make_uniform_grid"),
    "sperner.label_by_sign": ("spernerfix.sperner", "label_by_sign"),
    "sperner.find_transition_bisect": ("spernerfix.sperner", "find_transition_bisect"),
    "sperner.find_transition_scan": ("spernerfix.sperner", "find_transition_scan"),
    "solver.solve": ("spernerfix.solver", "solve"),
    "counterexample.run_demo": ("spernerfix.counterexample", "run_demo"),
    "plmap.pl_from_labeling": ("spernerfix.plmap", "pl_from_labeling"),
    "plmap.pl_fixed_points": ("spernerfix.plmap", "pl_fixed_points"),
    "plmap.theorem_roundtrip": ("spernerfix.plmap", "theorem_roundtrip"),
    "plmap.pl_trace": ("spernerfix.plmap", "pl_trace"),
    "plmap.pl_evaluate": ("spernerfix.plmap", "pl_evaluate"),
    "cli.main": ("spernerfix.cli", "main"),
    "cli.cmd_sperner": ("spernerfix.cli", "cmd_sperner"),
    "cli.cmd_solve": ("spernerfix.cli", "cmd_solve"),
    "cli.cmd_plmap": ("spernerfix.cli", "cmd_plmap"),
    "cli.cmd_counterexample": ("spernerfix.cli", "cmd_counterexample"),
}

# span name -> class whose constructor (validation included) is timed.
CLASSES = {
    "sperner.Grid": ("spernerfix.sperner", "Grid"),
    "sperner.Labeling": ("spernerfix.sperner", "Labeling"),
}

# Modules that import as_function and hand it f.
AS_FUNCTION_SITES = ("spernerfix.solver", "spernerfix.sperner")

F_EVAL = "expr.f_eval"

# Calls made thousands of times an op. They call no traced function outside
# this set, so their time is fully accounted for without spans of their own.
FOLDED = frozenset({
    F_EVAL,
    "rationals.is_below_sqrt2",
    "plmap.pl_evaluate",
    "sperner.Grid",
    "sperner.Labeling",
    "sperner.make_uniform_grid",
    "sperner.find_transition_bisect",
})


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the part of it covered by its child spans
    and the time of its folded calls.

    A span is (name, start, end, parent index or -1, op id, folded ns).
    """
    children = defaultdict(list)
    for name, start, end, parent, op, folded in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op, folded) in enumerate(spans):
        covered = folded
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def count_f_evals(call) -> int:
    """f-evaluations made by call(tracer), counted at the callable boundary."""
    tracer = Tracer(keep_spans=False)
    with tracer.installed():
        tracer.begin_op(0)
        try:
            call(tracer)
        finally:
            tracer.end_op()
    return tracer.f_evals


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries.

    With keep_spans=False only the counters are kept; that is how the
    benchmark counts f-evaluations without growing its own memory.
    """

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: list = []
        self.op = None
        self.ops = 0
        self.f_evals = 0
        self.max_bits = 0
        self.distinct_points = 0
        self.grouped_evals = 0
        self.bracket_solves = 0
        self.bracket_rounds = 0
        self.bracket_solve_evals = 0
        self.labeled_vertices = 0
        self.folded_calls = Counter()
        self.folded_self_ns = Counter()
        self._stack: list[list] = []
        self._groups: list[list] = []
        self._patches: list[tuple] = []

    # -- span recording -------------------------------------------------

    def _open(self, name: str):
        if not self.keep_spans:
            return None
        index = -1
        if name not in FOLDED:
            index = len(self.spans)
            self.spans.append(None)
        # name, span index (-1 when folded), start, ns in children, ns in folded children
        frame = [name, index, 0, 0, 0]
        self._stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def _close(self, frame) -> None:
        if frame is None:
            return
        end = perf_counter_ns()
        name, index, start, child_ns, folded_ns = frame
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent[3] += end - start
            if index < 0:
                parent[4] += end - start
        if index < 0:
            self.folded_calls[name] += 1
            self.folded_self_ns[name] += end - start - child_ns
        else:
            parent_index = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
            self.spans[index] = (name, start, end, parent_index, self.op, folded_ns)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._groups.append([set(), 0])
        self._op_token = self._open("op")

    def end_op(self) -> None:
        self._close(self._op_token)
        self._end_group()
        self.op = None
        self.ops += 1

    def _end_group(self) -> None:
        points, evals = self._groups.pop()
        self.distinct_points += len(points)
        self.grouped_evals += evals

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(token)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def f_callable(self, fn):
        """Wrap a rational-to-rational callable as one counted f."""
        tracer = self

        def f(x):
            if tracer.op is None:
                return fn(x)
            token = tracer._open(F_EVAL)
            try:
                y = fn(x)
            finally:
                tracer._close(token)
            tracer.f_evals += 1
            group = tracer._groups[-1]
            group[0].add(x)
            group[1] += 1
            bits = max(_bits(x), _bits(y))
            if bits > tracer.max_bits:
                tracer.max_bits = bits
            return y

        return f

    def _wrap_solve(self, fn):
        tracer = self
        from spernerfix.solver import CertifiedBracket

        def solve(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            evals_before = tracer.f_evals
            tracer._groups.append([set(), 0])
            token = tracer._open("solver.solve")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(token)
                tracer._end_group()
            if isinstance(result, CertifiedBracket):
                tracer.bracket_solves += 1
                tracer.bracket_rounds += result.rounds_used
                tracer.bracket_solve_evals += tracer.f_evals - evals_before
            return result

        solve.__wrapped__ = fn
        return solve

    def _wrap_as_function(self, fn):
        tracer = self

        def as_function(f):
            if callable(f):
                return fn(f)
            return tracer.f_callable(fn(f))

        as_function.__wrapped__ = fn
        return as_function

    def _count_vertices(self, args, result) -> None:
        self.labeled_vertices += len(args[0].vertices)

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith(("spernerfix", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    @contextmanager
    def installed(self):
        """Wrap every traced function while the block runs."""
        try:
            for name, (module_name, attr) in FUNCTIONS.items():
                original = getattr(importlib.import_module(module_name), attr)
                if name == "solver.solve":
                    wrapper = self._wrap_solve(original)
                elif name == "sperner.label_by_sign":
                    wrapper = self._wrap(name, original, self._count_vertices)
                else:
                    wrapper = self._wrap(name, original)
                self._replace_everywhere(original, wrapper)
            for name, (module_name, attr) in CLASSES.items():
                cls = getattr(importlib.import_module(module_name), attr)
                self._patches.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(name, cls.__init__)
            for module_name in AS_FUNCTION_SITES:
                module = importlib.import_module(module_name)
                self._patches.append((module, "as_function", module.as_function))
                module.as_function = self._wrap_as_function(module.as_function)
            yield self
        finally:
            while self._patches:
                target, attr, original = self._patches.pop()
                setattr(target, attr, original)

    # -- results ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start_ns, end_ns,
        parent, op, folded_ns (time in folded calls directly under the span)."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str, str]]:
        """Per-layer metrics: name -> (value, unit, better). Counts and
        self times are per op unless the name says otherwise."""
        ops = max(self.ops, 1)
        calls = Counter(self.folded_calls)
        self_ns = Counter(self.folded_self_ns)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            self_ns[span[0]] += own

        def under(child: str, ancestor: str) -> int:
            count = 0
            for name, _, _, parent, _, _ in self.spans:
                if name != child:
                    continue
                while parent >= 0 and self.spans[parent][0] != ancestor:
                    parent = self.spans[parent][3]
                count += parent >= 0
            return count

        out: dict[str, tuple[float, str, str]] = {}

        def per_op_calls(span: str, metric: str | None = None) -> None:
            out[metric or f"{span}.calls"] = (calls[span] / ops, "count/op", "lower")

        def per_op_self(span: str) -> None:
            out[f"{span}.self_s"] = (self_ns[span] / 1e9 / ops, "s/op", "lower")

        per_op_calls(F_EVAL, "expr.f_evals")
        per_op_self(F_EVAL)
        out["expr.f_eval.distinct_ratio"] = (
            self.distinct_points / self.grouped_evals if self.grouped_evals else 0.0,
            "ratio",
            "higher",
        )
        out["expr.f_eval.max_bits"] = (self.max_bits, "bits", "lower")
        per_op_calls("expr.parse")
        per_op_self("expr.parse")
        for span in (
            "sperner.make_uniform_grid",
            "sperner.label_by_sign",
            "sperner.find_transition_bisect",
            "sperner.find_transition_scan",
        ):
            per_op_calls(span)
            per_op_self(span)
        out["sperner.label_by_sign.vertices"] = (self.labeled_vertices / ops, "count/op", "lower")
        per_op_self("sperner.Grid")
        per_op_self("sperner.Labeling")
        per_op_calls("solver.solve")
        per_op_self("solver.solve")
        rounds = self.bracket_rounds
        out["solver.rounds"] = (
            rounds / self.bracket_solves if self.bracket_solves else 0.0,
            "rounds/solve",
            "lower",
        )
        out["solver.f_evals_per_round"] = (
            self.bracket_solve_evals / rounds if rounds else 0.0,
            "evals/round",
            "lower",
        )
        demos = calls["counterexample.run_demo"]
        per_op_self("counterexample.run_demo")
        out["counterexample.solve_calls_per_op"] = (
            under("solver.solve", "counterexample.run_demo") / demos if demos else 0.0,
            "count/op",
            "lower",
        )
        out["counterexample.label_by_sign_calls_per_op"] = (
            under("sperner.label_by_sign", "counterexample.run_demo") / demos if demos else 0.0,
            "count/op",
            "lower",
        )
        for span in (
            "plmap.pl_from_labeling",
            "plmap.pl_fixed_points",
            "plmap.theorem_roundtrip",
            "plmap.pl_trace",
        ):
            per_op_self(span)
        per_op_calls("plmap.pl_evaluate")
        for span in ("rationals.parse_rational", "rationals.decimal_string"):
            per_op_calls(span)
            per_op_self(span)
        per_op_calls("rationals.is_below_sqrt2")
        for span in (
            "cli.main",
            "cli.cmd_sperner",
            "cli.cmd_solve",
            "cli.cmd_plmap",
            "cli.cmd_counterexample",
        ):
            per_op_self(span)
        return out
