"""Package-level checks: every exported name exists."""

from __future__ import annotations

import importlib
import pkgutil

import levyexc


def test_every_exported_name_resolves():
    modules = [levyexc] + [
        importlib.import_module(f"levyexc.{info.name}")
        for info in pkgutil.iter_modules(levyexc.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
