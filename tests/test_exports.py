"""The package's public names: every ``__all__`` of an ``arithsum`` module
lists names that exist, and the package imports from such a module only
names that it lists."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "arithsum"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
WITH_ALL = [m for m in MODULES if hasattr(importlib.import_module(f"arithsum.{m}"), "__all__")]


def test_some_modules_define_all():
    assert {"dsums", "indicators", "series", "sigma_rh"} <= set(WITH_ALL)


@pytest.mark.parametrize("name", WITH_ALL)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"arithsum.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from arithsum.{name} import *", {})


def test_the_package_imports_only_listed_names():
    unlisted = []
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in WITH_ALL:
            listed = importlib.import_module(f"arithsum.{node.module}").__all__
            unlisted += [(node.module, a.name) for a in node.names if a.name not in listed]
    assert unlisted == []
