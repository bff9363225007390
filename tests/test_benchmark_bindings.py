"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name; a rename in the library breaks only a traced benchmark run, which
is slow.  This test reads the tracer's lists and checks each name here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("mod,attr", [(m, a) for m, a, _ in tracer.SPANNED + tracer.LEAVES])
def test_wrapped_functions_exist(mod, attr):
    assert callable(getattr(importlib.import_module(f"arithsum.{mod}"), attr))


@pytest.mark.parametrize("attr", [a for a, _ in tracer.METHODS])
def test_wrapped_methods_exist(attr):
    from arithsum.indicators import BlockTables

    assert callable(getattr(BlockTables, attr))


@pytest.mark.parametrize("attr", tracer.FACTORIES)
def test_wrapped_factories_exist(attr):
    from arithsum import series

    assert callable(getattr(series, attr))


def test_traced_modules_and_suite_table_exist():
    for mod in tracer.MODULES:
        importlib.import_module(f"arithsum.{mod}")
    from arithsum.suites import SUITES

    assert SUITES
