"""The package's public names, and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

import spernerfix
from spernerfix.expr import as_function

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
