"""levyexc benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload verify_shipped --seed 7 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  A
run first times set-up in fresh interpreters, then repeats the workload's
pass (see ``workloads.py``) until ``--seconds`` is used up, always finishing
at least one pass; a pass longer than the budget makes a one-pass run.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  Human-readable lines
(per-metric values with units, failed share, per-operation times, output
digest, environment) come first; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every pass of a run uses the same inputs, so every pass (traced or not) must
produce byte-identical output; a mismatch makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup_seconds(code: str, repeats: int) -> list:
    """Wall time of fresh interpreters that import levyexc and build the
    workload's model, measured from outside the child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _run_pass(workload, runner, seed: int, sizes: dict) -> float:
    """Wall seconds of one pass, traced when the runner has a tracer."""
    t0 = time.perf_counter()
    if runner.tracer is None:
        workload.run(runner, seed, sizes)
    else:
        with runner.tracer.installed():
            workload.run(runner, seed, sizes)
    return time.perf_counter() - t0


def _median_dicts(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; the numbers mean nothing")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "levyexc" / "__init__.py").is_file():
        _fail(f"no levyexc sources under {ROOT / 'src'}; run from a checkout")
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import levyexc
    if Path(levyexc.__file__).resolve().parent != ROOT / "src" / "levyexc":
        _fail(f"imported levyexc from {levyexc.__file__}, not the checkout")
    import numpy
    import scipy
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    sizes = (workloads.TINY if args.tiny else workloads.FULL)[workload.name]
    traced_run = args.trace == 1

    setup = _setup_seconds(workload.setup, 1 if args.tiny else SETUP_REPEATS)

    passes = []  # (traced, wall seconds, Pass, Tracer or None)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        t_start = time.perf_counter()
        while True:
            traced = traced_run and len(passes) % 2 == 1
            runner = workloads.Runner(tmp, spans.Tracer() if traced else None)
            wall = _run_pass(workload, runner, args.seed, sizes)
            passes.append((traced, wall, runner.result, runner.tracer))
            if len(passes) == 1:
                # Later passes of the same process reuse a fragmented heap
                # and peak higher; the first pass is what a user's run sees.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if traced_run and len(passes) % 2 == 1:
                continue  # a traced run measures untraced/traced pairs
            elapsed = time.perf_counter() - t_start
            step = statistics.median(p[1] for p in passes)
            if elapsed + step * (2 if traced_run else 1) > args.seconds:
                break

    untraced = [p for p in passes if not p[0]]
    traced = [p for p in passes if p[0]]
    outcomes = [o for p in passes for o in p[2].outcomes]
    digests = {p[2].digest.hexdigest() for p in passes}
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    correct = all(o.sound for o in outcomes) and len(digests) == 1

    wall_s = statistics.median(p[1] for p in untraced)
    objects = untraced[0][2].objects
    if traced_run:
        values = _median_dicts([
            spans.layer_metrics(p[3], p[2].bytes_written)
            for p in traced])
        values["trace.overhead_s"] = (
            statistics.median(p[1] for p in traced) - wall_s)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup),
            "samples_per_s": objects / wall_s,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        wanted = spec["end_to_end"]

    print(f"workload {workload.name}, seed {args.seed}: {len(untraced)} "
          f"untraced and {len(traced)} traced passes; pass times "
          + ", ".join(f"{p[1]:.3f}" for p in passes) + " s")
    for name in untraced[0][2].op_seconds:
        med = statistics.median(p[2].op_seconds[name] for p in untraced)
        print(f"op {name}: {med:.4f} s")
    for o in outcomes[:len(untraced[0][2].outcomes)]:
        print(f"check {o.label}: {'ok' if o.ok else 'FAILED'}"
              f"{'' if o.sound else ' (wrong output)'} ({o.detail})")
    if traced_run:
        _print_breakdown(traced[0][3])
    print(f"failed_share {failed / attempted:.6g} share "
          f"({failed}/{attempted} operations)")
    print(f"samples {objects} objects per pass")
    print(f"output_sha256 {' '.join(sorted(digests))}")
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "LEVYEXC_THREADS": os.environ.get("LEVYEXC_THREADS"),
        "commit": _git_commit(ROOT),
        "seed": args.seed,
    }
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_breakdown(tracer) -> None:
    """Self times of at least a millisecond per operation, as
    ``span<calling span``, from the first traced pass."""
    for op, table in tracer.by_op().items():
        top = sorted(table.items(), key=lambda kv: -kv[1])
        print(f"trace {op}: " + ", ".join(
            f"{name}<{parent} {v:.3f}" for (parent, name), v in top
            if v >= 1e-3))


if __name__ == "__main__":
    sys.exit(main())
