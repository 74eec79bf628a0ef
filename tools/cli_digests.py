"""Digests of a fixed set of ``levyexc`` runs, for byte-identity checks.

    python3 tools/cli_digests.py --seeds 1,7,12,43 > digests.txt

Runs a fixed list of invocations in-process, at each seed given, against
the package in ``src/`` of this checkout, and prints one line per run: the
argv, the exit code and the sha256 of what the run wrote to stdout.
Diagnostics on stderr are discarded.  Run it in two checkouts and diff the
outputs to check that a change leaves CLI output byte-identical; the
verify runs carry every row's statistic, p-value and verdict, so a moved
p-value shows there too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from levyexc import cli  # noqa: E402

# The runs, each made once per seed with "--seed <seed>" appended.
SEEDED_RUNS = (
    ("verify", "--json"),
    ("verify", "--json", "--n", "400"),
    ("simulate", "--kind", "path", "--stop", "horizon:10", "--n", "20"),
    ("simulate", "--kind", "path", "--stop", "first-passage:-2",
     "--n", "20"),
    ("simulate", "--kind", "path", "--stop", "excursions:5", "--n", "20"),
    ("simulate", "--kind", "excursion", "--n", "200"),
    ("simulate", "--kind", "excursion", "--n", "50", "--min-height", "1"),
    ("simulate", "--kind", "sup-excursion", "--n", "200"),
    ("simulate", "--kind", "tree", "--n", "20"),
    ("tree", "--n", "20"),
    ("hist", "--suite", "sup_swap", "--functional", "area"),
    ("hist", "--suite", "width_reversal",
     "--functional", "width_at_fraction:0.3"),
)
# Runs that take no seed, made once.
PLAIN_RUNS = (
    ("scale-fn",),
)


def runs(seeds) -> list:
    """Every argv, in the order they are made."""
    return [list(run) for run in PLAIN_RUNS] + [
        [*run, "--seed", str(seed)] for seed in seeds for run in SEEDED_RUNS]


def digest(argv: list) -> tuple:
    """(exit code, sha256 of stdout) of one in-process ``levyexc`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds")
    args = parser.parse_args(argv)
    for run_argv in runs(int(seed) for seed in args.seeds.split(",")):
        code, sha = digest(run_argv)
        print(f"{' '.join(run_argv)}\t{code}\t{sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
