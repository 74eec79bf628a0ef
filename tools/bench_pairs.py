"""Alternating parent/change benchmark pairs, summarised into one JSON file.

    python3 tools/bench_pairs.py --parent REF --workloads verify_shipped \
        --seeds 7,31 --pairs 10 --out BENCH_12.json

Run from the root of a git checkout: that checkout is the change side.  The
parent ref is checked out into a temporary ``git worktree`` that is removed
on exit.  For every workload and seed the script runs ``bench/run.py`` once
per side per pair at the benchmark's ``run_seconds``, alternating which side
goes first, and writes:

- the per-pair end-to-end metric values and median operation times of each
  side;
- per metric, each side's median and quartiles, the change's wins, losses
  and ties, and whether the change meets the gain rule (it wins at least
  nine tenths of the pairs and the medians differ, in its favour, by more
  than the parent's interquartile range);
- each side's ``failed`` counts, its ``failed``/``attempted`` share per run,
  the pairs whose change-side share is higher (flagged on stderr too), and
  each side's ``output_sha256`` digests;
- the interpreter, numpy and scipy versions and the core count (scipy's is
  read from its installed metadata, so the script runs without scipy).

Each side runs the benchmark code of its own checkout.  Run a single pair
per seed (``--pairs 1``) to compare digests and failures only.  When
``--out`` exists and was written for the same parent, change and
environment, the new results are appended to it, so one file can hold
runs of different sizes and trace settings.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list, change: list, better: str) -> dict:
    """Compare paired runs of one metric (``better`` is "lower"/"higher").

    Pair ``i`` is ``(parent[i], change[i])``; ties count for neither side.
    ``gain`` is True when the change wins at least ``WIN_SHARE`` of the
    pairs and its median beats the parent's by more than the parent's
    interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change values, >= 1")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    gap = sign * (p_med - c_med)  # > 0 when the change's median is better
    return {
        "better": better,
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "median_gap": gap,
        "parent_iqr": p_q3 - p_q1,
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "gain": wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1,
    }


def failure_shares(parent: list, change: list) -> dict:
    """Failed shares of paired runs (dicts with ``failed`` and ``attempted``).

    A run's raw ``failed`` count grows with the passes that fit in its time
    budget, so only the share compares a faster side with a slower one.
    ``change_higher`` lists the pairs whose change-side share is higher.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs, >= 1")
    shares = {side: [r["failed"] / r["attempted"] for r in runs]
              for side, runs in (("parent", parent), ("change", change))}
    shares["change_higher"] = [
        i for i, (p, c) in enumerate(zip(shares["parent"], shares["change"]))
        if c > p]
    return shares


def environment() -> dict:
    """The interpreter, numpy and scipy versions and the core count.

    scipy is a test dependency only, so its version is read from the
    installed metadata without importing it, and is None when it is not
    installed.
    """
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0))}


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(root: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``bench/run.py`` run in ``root``: its result line, its median
    operation times and its digest."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {root}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split(" ", 1)[1] for line in lines
                  if line.startswith("output_sha256 "))
    ops = {}
    for line in lines:  # "op <name>: <seconds> s"
        if line.startswith("op ") and line.endswith(" s"):
            name, value = line[3:-2].rsplit(": ", 1)
            ops[name] = float(value)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "ops": ops,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "output_sha256": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated workload seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    doc = {
        "parent": _git("rev-parse", args.parent),
        "change": _git("rev-parse", "HEAD"),
        "change_dirty": bool(_git("status", "--porcelain",
                                  "--untracked-files=no")),
        "env": environment(),
        "results": [],
    }
    out = Path(args.out)
    if out.exists():
        old = json.loads(out.read_text())
        if any(old[k] != doc[k]
               for k in ("parent", "change", "change_dirty", "env")):
            parser.error(f"{out} holds runs of another parent, change or "
                         "environment")
        doc["results"] = old["results"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_root = Path(tmp) / "parent"
        _git("worktree", "add", "--detach", str(parent_root), args.parent)
        try:
            roots = {"parent": parent_root, "change": ROOT}
            pair_count = 0
            for workload in args.workloads.split(","):
                for seed in (int(s) for s in args.seeds.split(",")):
                    runs = {"parent": [], "change": []}
                    first = []
                    for i in range(args.pairs):
                        # alternate over every pair of the invocation, so
                        # that single-pair sweeps alternate too
                        order = (("parent", "change") if pair_count % 2 == 0
                                 else ("change", "parent"))
                        pair_count += 1
                        first.append(order[0])
                        for side in order:
                            r = run_bench(roots[side], workload, seed,
                                          seconds, args.trace)
                            runs[side].append(r)
                            print(f"{workload} seed {seed} pair {i} {side}: "
                                  f"{r['metrics']} failed {r['failed']}"
                                  f"/{r['attempted']}",
                                  file=sys.stderr, flush=True)
                    shares = failure_shares(runs["parent"], runs["change"])
                    if shares["change_higher"]:
                        print(f"{workload} seed {seed}: the change fails a "
                              "larger share in pairs "
                              f"{shares['change_higher']}",
                              file=sys.stderr, flush=True)
                    doc["results"].append({
                        "workload": workload,
                        "seed": seed,
                        "seconds": seconds,
                        "trace": args.trace,
                        "first": first,
                        "runs": runs,
                        "summary": {
                            name: summarize(
                                [r["metrics"][name] for r in runs["parent"]],
                                [r["metrics"][name] for r in runs["change"]],
                                better[name])
                            for name in runs["change"][0]["metrics"]},
                        "failed": {side: [r["failed"] for r in runs[side]]
                                   for side in runs},
                        "failed_share": shares,
                        "output_sha256": {
                            side: sorted({r["output_sha256"]
                                          for r in runs[side]})
                            for side in runs},
                    })
                    out.write_text(
                        json.dumps(doc, indent=1, sort_keys=True) + "\n")
        finally:
            _git("worktree", "remove", "--force", str(parent_root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
