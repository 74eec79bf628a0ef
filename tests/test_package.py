"""Package-level checks: every exported name exists, the README's Python
quick start runs as written, and the CLI imports stay light."""

from __future__ import annotations

import importlib
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import levyexc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    modules = [levyexc] + [
        importlib.import_module(f"levyexc.{info.name}")
        for info in pkgutil.iter_modules(levyexc.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].passed
    # W(x) = 2 - exp(-x) for the quick-start model, so the exit probability
    # W(1)/W(2) is (2 - e^-1)/(2 - e^-2) = 0.87529.
    exact = (2.0 - math.exp(-1.0)) / (2.0 - math.exp(-2.0))
    assert abs(namespace["table"].exit_probability(1.0, 2.0) - exact) <= 5e-6


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone costs about half a second of start-up, more than
    # the whole rest of `levyexc` start-up; the package needs only
    # scipy.special.
    src = str(Path(levyexc.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import levyexc.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
