"""The benchmark's tracer patch points still exist in levyexc.

bench/spans.py wraps each function in ``FUNCTIONS`` and each method in
``METHODS`` by attribute name.  A rename in the package would silently drop
that span from the traced runs, so every entry must resolve.  The two
tables are read from the file as literals; nothing in bench/ is imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tables() -> dict:
    tree = ast.parse(_PATH.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("FUNCTIONS", "METHODS")}


TABLES = _tables()


def test_both_tables_read():
    assert set(TABLES) == {"FUNCTIONS", "METHODS"}
    assert TABLES["FUNCTIONS"] and TABLES["METHODS"]


@pytest.mark.parametrize("module, attribute, span, group",
                         TABLES["FUNCTIONS"], ids=str)
def test_function_patch_point_resolves(module, attribute, span, group):
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize("module, cls, attribute, span, kind",
                         TABLES["METHODS"], ids=str)
def test_method_patch_point_resolves(module, cls, attribute, span, kind):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(getattr(owner, attribute))
