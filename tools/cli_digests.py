"""Digests of a fixed set of ``levyexc`` runs, for byte-identity checks.

    python3 tools/cli_digests.py --seeds 1,7,12,43 > digests.txt
    python3 tools/cli_digests.py --seeds 1,7,12,43 --rows > rows.txt

Runs a fixed list of invocations in-process, at each seed given, against
the package in ``src/`` of this checkout, and prints one line per run: the
argv, the exit code and the sha256 of what the run wrote to stdout.
Diagnostics on stderr are discarded.  Run it in two checkouts and diff the
outputs to check that a change leaves CLI output byte-identical; the
verify runs carry every row's statistic, p-value and verdict, so a moved
p-value shows there too.  With ``--rows`` each verify run's line is
followed by one line per report: the argv, suite, functional, repr(p) and
verdict, so a diff of two checkouts lists the rows that moved.  Last come
one line per seed with the sha256 of the bytes of a reflected-walk
local-time field (``FIELD_RUN``) at that seed, which no CLI run reaches.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from levyexc import cli, rayknight  # noqa: E402

# The runs, each made once per seed with "--seed <seed>" appended.
SEEDED_RUNS = (
    ("verify", "--json"),
    ("verify", "--json", "--n", "400"),
    ("simulate", "--kind", "path", "--stop", "horizon:10", "--n", "20"),
    ("simulate", "--kind", "path", "--stop", "first-passage:-2",
     "--n", "20"),
    ("simulate", "--kind", "path", "--stop", "excursions:5", "--n", "20"),
    ("simulate", "--kind", "excursion", "--n", "200"),
    ("simulate", "--model", "dirac", "--kind", "excursion", "--n", "200"),
    ("simulate", "--model", "dirac", "--kind", "path", "--stop",
     "horizon:10", "--n", "20"),
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

# The local_time_field arguments digested at each seed (pin B of
# tests/test_rayknight.py at seed 7).
FIELD_RUN = {"target": 1.0, "levels": (0.1, 0.2), "n_paths": 400,
             "h": 1e-4, "delta": 0.04}


def runs(seeds) -> list:
    """Every argv, in the order they are made."""
    return [list(run) for run in PLAIN_RUNS] + [
        [*run, "--seed", str(seed)] for seed in seeds for run in SEEDED_RUNS]


def digest(argv: list) -> tuple:
    """(exit code, sha256 of stdout, stdout) of one in-process ``levyexc``
    run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    stdout = out.getvalue()
    return code, hashlib.sha256(stdout.encode()).hexdigest(), stdout


def field_line(seed: int) -> str:
    """The ``FIELD_RUN`` field's line at ``seed``: its arguments and the
    sha256 of its bytes."""
    field = rayknight.local_time_field(**FIELD_RUN, seed=seed)
    args = " ".join(f"{k}={v!r}" for k, v in FIELD_RUN.items())
    return (f"local_time_field {args} seed={seed}\t"
            f"{hashlib.sha256(field.tobytes()).hexdigest()}")


def report_rows(argv: list, stdout: str) -> list:
    """One line per report of a ``verify --json`` run's stdout."""
    return [f"{' '.join(argv)}\t{r['suite']}\t{r['functional']}\t"
            f"{r['p_value']!r}\t{r['verdict']}"
            for r in json.loads(stdout)["reports"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds")
    parser.add_argument("--rows", action="store_true",
                        help="also print every report row of the verify "
                             "runs")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    for run_argv in runs(seeds):
        code, sha, out = digest(run_argv)
        print(f"{' '.join(run_argv)}\t{code}\t{sha}", flush=True)
        if args.rows and run_argv[0] == "verify":
            print("\n".join(report_rows(run_argv, out)), flush=True)
    for seed in seeds:
        print(field_line(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
