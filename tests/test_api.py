"""The package's public names, the names the benchmark's tracer wraps, and
source rules that no behaviour test can see."""

import ast
import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import pytest

import spernerfix
from spernerfix.expr import Add, Const, Div, IfNeg, Mul, Sub, Var, _Node, as_function

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SOURCES = sorted((ROOT / "src" / "spernerfix").glob("*.py"))


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = load_tracer()


def test_all_has_no_duplicates():
    assert len(spernerfix.__all__) == len(set(spernerfix.__all__))


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(spernerfix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(spernerfix.__all__) == public


def reexported_modules():
    """The modules __init__.py star-imports, in import order."""
    tree = ast.parse((ROOT / "src" / "spernerfix" / "__init__.py").read_text())
    return [
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


def defined_names(path):
    """Names bound at the top level of path by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_reexports_every_library_module():
    assert set(reexported_modules()) == {p.stem for p in SOURCES} - {"__init__", "cli"}


@pytest.mark.parametrize("module_name", reexported_modules())
def test_module_all_lists_only_its_own_definitions(module_name):
    module = importlib.import_module(f"spernerfix.{module_name}")
    path = ROOT / "src" / "spernerfix" / f"{module_name}.py"
    assert module.__all__ and set(module.__all__) <= defined_names(path) - {"__all__"}


def test_package_all_concatenates_the_module_lists_in_import_order():
    modules = [importlib.import_module(f"spernerfix.{m}") for m in reexported_modules()]
    assert spernerfix.__all__ == [name for module in modules for name in module.__all__]


def test_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from spernerfix import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spernerfix.__all__)


@pytest.mark.parametrize("name", sorted(TRACER.FUNCTIONS))
def test_traced_function_resolves(name):
    module_name, attr = TRACER.FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("name", sorted(TRACER.CLASSES))
def test_traced_class_resolves(name):
    module_name, attr = TRACER.CLASSES[name]
    assert inspect.isclass(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name", TRACER.AS_FUNCTION_SITES)
def test_as_function_site_binds_it(module_name):
    assert importlib.import_module(module_name).as_function is as_function


def source_nodes(path):
    return list(ast.walk(ast.parse(path.read_text(), filename=str(path))))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "counterexample.py", "solver.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_assert(path):
    # Certificate checks must still run under python -O.
    lines = [node.lineno for node in source_nodes(path) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_raises_no_bare_assertion_error(path):
    # A failed claim is a CertificateError, so callers can name what failed.
    lines = [
        node.lineno
        for node in source_nodes(path)
        if isinstance(node, ast.Raise)
        and getattr(getattr(node.exc, "func", node.exc), "id", None) == "AssertionError"
    ]
    assert lines == [], f"raise AssertionError in {path.name} at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_imports_only_the_standard_library(path):
    # The package has zero runtime dependencies.
    modules = []
    for node in source_nodes(path):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    foreign = sorted({m for m in modules if m.split(".")[0] not in sys.stdlib_module_names})
    assert foreign == [], f"{path.name} imports {foreign}"


def recursive_functions(path):
    """Names of the functions and methods defined in path that can reach a
    call of themselves, with calls resolved by name or by `self.` attribute."""
    calls = {}
    for fn in source_nodes(path):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callees = calls.setdefault(fn.name, set())
            for node in ast.walk(fn):
                func = node.func if isinstance(node, ast.Call) else None
                if isinstance(func, ast.Name):
                    callees.add(func.id)
                elif isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "self":
                    callees.add(func.attr)
    recursive = []
    for name, callees in calls.items():
        reached, todo = set(), list(callees)
        while todo:
            callee = todo.pop()
            if callee in calls and callee not in reached:
                reached.add(callee)
                todo += calls[callee]
        if name in reached:
            recursive.append(name)
    return sorted(recursive)


def test_nothing_in_expr_recurses():
    # Parsing, printing, compiling and evaluating keep their own stacks, so
    # an expression's depth is limited by memory, not by the interpreter's stack.
    assert recursive_functions(ROOT / "src" / "spernerfix" / "expr.py") == []


@pytest.mark.parametrize("node", [Const, Var, Add, Sub, Mul, Div, IfNeg], ids=lambda n: n.__name__)
def test_node_classes_have_no_generated_methods(node):
    # The call graph above cannot see methods that dataclass generates; its
    # ==, hash and repr recurse over the tree, _Node's share one iterative walk.
    for name in ("__eq__", "__hash__", "__repr__"):
        assert getattr(node, name) is getattr(_Node, name), name


def functions_calling_f_in_a_loop(path):
    """Names of the functions in path that call f inside a for or while loop.
    A call of f is a call of residual, of as_function(...), of a name bound
    to as_function(...), or of a parameter annotated Function or Callable."""
    def is_as_function_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "as_function"

    found = []
    for fn in source_nodes(path):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = {"residual"}
        for arg in fn.args.args:
            annotation = getattr(arg.annotation, "value", arg.annotation)
            if getattr(annotation, "id", None) in ("Function", "Callable"):
                names.add(arg.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and is_as_function_call(node.value):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        loops = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))]
        calls = [node for loop in loops for node in ast.walk(loop) if isinstance(node, ast.Call)]
        if any(getattr(c.func, "id", None) in names or is_as_function_call(c.func) for c in calls):
            found.append(fn.name)
    return sorted(found)


def test_only_the_private_round_loop_searches_with_f():
    # Both modes are one loop: single_grid is a round of _rounds probed from
    # the left, and solve and refine_rounds drain _rounds, so no second search
    # in the solver evaluates f.
    assert functions_calling_f_in_a_loop(ROOT / "src" / "spernerfix" / "solver.py") == [
        "_rounds"
    ]


def test_one_site_builds_a_certified_bracket():
    # Brackets are built from the round loop's tuples in one place, so a
    # solve builds only the bracket it returns.
    calls = [
        node
        for node in source_nodes(ROOT / "src" / "spernerfix" / "solver.py")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CertifiedBracket"
    ]
    assert len(calls) == 1


def digit_limit_readers():
    """(module, top-level definition) of each read of the interpreter's
    int-to-string digit limit in the sources, by attribute or by name string."""
    limit = "get_int_max_str_digits"
    readers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            if any(
                (isinstance(node, ast.Attribute) and node.attr == limit)
                or (isinstance(node, ast.Constant) and node.value == limit)
                for node in ast.walk(top)
            ):
                readers.add((path.stem, getattr(top, "name", None)))
    return readers


def test_only_the_refusals_read_the_digit_limit():
    # str() and int() decide what is too long; the limit is read only to word
    # their refusal, and by the one pre-check that predicts it.
    assert digit_limit_readers() == {
        ("rationals", "_literal_value"),
        ("cli", "_text"),
        ("cli", "cmd_counterexample"),
    }
