"""Package-level checks: every exported name exists, the README's Python
quick start runs as written, and the runtime needs no scipy."""

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


# Refuses every scipy import, then runs a small suite through the CLI.
NO_SCIPY = """
import sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused")
sys.meta_path.insert(0, Refuse())
sys.path.insert(0, sys.argv[1])
import levyexc
import levyexc.cli
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
sys.exit(levyexc.cli.main(["verify", "--suite", "sup_swap", "--n", "50"]))
"""


def test_runtime_needs_no_scipy():
    # scipy is a test dependency only: the package imports and a verify run
    # completes with every scipy import refused.
    src = str(Path(levyexc.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
