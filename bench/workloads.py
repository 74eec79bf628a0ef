"""The benchmark's four workloads.

Each workload is one pass of operations run in this process by a single
caller (a closed loop: the next operation starts when the previous one has
returned).  The workload seed is the only source of randomness and reaches
levyexc only as the seed argument of its calls and CLI invocations.  Every
operation checks its own output; a pass returns per-operation outcomes, the
number of sampled objects and a digest of everything the program emitted.

Library calls go through module attributes (``verify.run_suite``, not a
copied name) so that the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field

import numpy as np

from levyexc import cli
from levyexc import excursions
from levyexc import models
from levyexc import rayknight
from levyexc import simulate
from levyexc import trees
from levyexc import verify

# W(x) = 2 - e^{-x} for drift 1 with Exponential(b=1, theta=2) jumps, so the
# two-sided exit probability from 1 before 2 is W(1)/W(2).
EXIT_P = (2.0 - math.exp(-1.0)) / (2.0 - math.exp(-2.0))
CALIBRATION_BAND = (0.035, 0.065)
# Tolerance of endpoint checks on exported paths, relative to the path's
# total variation (the values are recomputed by summing the segments).
PATH_RTOL = 1e-9

# Operation sizes.  FULL are the sizes users run (shipped defaults and the
# acceptance checks); TINY only serves the self-test.
FULL = {
    "verify_shipped": {"n": None},
    "acceptance_suites": {"suite_n": 20_000, "sup_exc_n": 10_000,
                          "negative_ns": (10_000, 40_000),
                          "calibration": (2000, 1000), "bulk_n": 10_000},
    "sample_export": {"excursion": 20_000, "min_height": 4000,
                      "horizon": 3000, "excursions": 3000,
                      "sup_excursion": 20_000, "tree": 10_000,
                      "exit_mc": 100_000},
    "brownian_field": {"walks": 5000, "h": 1e-4},
}
TINY = {
    "verify_shipped": {"n": 40},
    "acceptance_suites": {"suite_n": 40, "sup_exc_n": 40,
                          "negative_ns": (40, 80), "calibration": (50, 20),
                          "bulk_n": 40},
    "sample_export": {"excursion": 30, "min_height": 10, "horizon": 5,
                      "excursions": 5, "sup_excursion": 30, "tree": 30,
                      "exit_mc": 500},
    "brownian_field": {"walks": 40, "h": 1e-3},
}


def default_model() -> models.LevyModel:
    return models.LevyModel.from_drift(1.0, models.ExponentialJumps(1.0, 2.0))


@dataclass
class Outcome:
    """Result of one operation.

    ``ok`` is False when the operation failed for any reason: a wrong
    verdict, exact failures, an exception, exit code 3 or output that fails
    its check.  ``sound`` is False only when the output is wrong in a way no
    sampling error explains (a structural or exact check failed, or the
    program crashed); a statistical verdict that misses counts in ``ok``
    alone.
    """

    label: str
    ok: bool
    sound: bool = True
    detail: str = ""


@dataclass
class Pass:
    """Everything one pass of a workload produced."""

    outcomes: list = field(default_factory=list)
    op_seconds: dict = field(default_factory=dict)
    objects: int = 0
    bytes_written: int = 0
    digest: object = field(default_factory=hashlib.sha256)


class Runner:
    """Runs a pass's operations, timing each and naming it for the tracer."""

    def __init__(self, tmpdir: str, tracer=None):
        self.tmpdir = tmpdir
        self.tracer = tracer
        self.result = Pass()

    def op(self, label: str, fn) -> None:
        """Run ``fn()``, which returns a list of outcomes."""
        if self.tracer is not None:
            self.tracer.op = label
        t0 = time.perf_counter()
        try:
            outcomes = fn()
        except Exception as exc:  # one failing operation must not end the run
            outcomes = [Outcome(label, False, False,
                                f"{type(exc).__name__}: {exc}")]
        self.result.op_seconds[label] = time.perf_counter() - t0
        self.result.outcomes.extend(outcomes)

    def emit(self, data: bytes) -> None:
        self.result.digest.update(data)

    def cli(self, argv: list) -> tuple:
        """In-process ``levyexc`` run writing to a file; (exit code, bytes)."""
        out = os.path.join(self.tmpdir, "cli.out")
        with redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--output", out])
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        self.result.bytes_written += len(data)
        self.emit(data)
        return code, data


def _report_objects(reports) -> int:
    """Sampled objects behind a list of report dicts: both halves of every
    spec, counted once per spec."""
    halves = {}
    for r in reports:
        halves[r["suite"]] = r["n_a"] + r["n_b"]
    return sum(halves.values())


# -- verify_shipped --------------------------------------------------------------


def verify_shipped(run: Runner, seed: int, sizes: dict) -> None:
    argv = ["verify", "--json", "--seed", str(seed)]
    if sizes["n"] is not None:
        argv += ["--n", str(sizes["n"])]

    def op():
        code, data = run.cli(argv)
        doc = json.loads(data)
        suites = doc["suites"]
        out = [Outcome("cli verify", code in (0, 1) and
                       len(suites) == len(verify.SUITE_NAMES),
                       code != 2, f"exit {code}")]
        for s in suites:
            exact_ok = s["exact_failures"] == 0
            out.append(Outcome(s["suite"], s["passed"] and exact_ok, exact_ok,
                               f"exact failures {s['exact_failures']}"))
        run.result.objects += _report_objects(doc["reports"])
        return out

    run.op("verify --json", op)


# -- acceptance_suites -----------------------------------------------------------


def _suite_op(run: Runner, label: str, name: str, n: int, seed: int,
              require_all_p: bool = True, **params):
    def op():
        r = verify.run_suite(name, model=default_model(), n=n, seed=seed,
                             **params)
        reports = [rep.to_dict() for rep in r.reports]
        run.emit(verify.reports_to_json(r.reports).encode())
        run.result.objects += _report_objects(reports)
        ok = r.passed and r.exact_failures == 0
        if require_all_p:
            ok = ok and all(rep.p_value > verify.PER_FUNCTIONAL_ALPHA
                            for rep in r.reports)
        min_p = min(rep.p_value for rep in r.reports)
        return [Outcome(label, ok, r.exact_failures == 0,
                        f"min p {min_p:.3g}, exact "
                        f"{r.exact_checked - r.exact_failures}"
                        f"/{r.exact_checked}")]

    run.op(label, op)


def _crossing_op(run: Runner, n: int, seed: int):
    """Pointwise reflection maps crossings of r onto crossings of peak - r."""

    def op():
        stream = simulate.RngStream(seed).child("acceptance", "crossings")
        excs = simulate.sample_excursions(default_model(), n,
                                          stream.generator())
        level_rng = stream.child("levels").generator()
        checked = failures = short = 0
        for exc in excs:
            flipped = excursions.pointwise_reflection(exc)
            peak = excursions.peak_value(exc)
            done = 0
            for _ in range(40):
                if done >= 3:
                    break
                r = float(level_rng.uniform(0.0, peak))
                try:
                    a = excursions.local_time_count(flipped, r)
                    b = excursions.local_time_count(exc, peak - r)
                except ValueError:
                    continue  # the draw landed on a breakpoint; redraw
                checked += 1
                done += 1
                failures += a != b
            short += done < 3
        run.emit(f"crossings {checked} {failures} {short}".encode())
        run.result.objects += n
        ok = failures == 0 and short == 0
        return [Outcome("crossing reflection bulk", ok, ok,
                        f"{checked} level checks, {failures} mismatches")]

    run.op("crossing reflection bulk", op)


def _contour_op(run: Runner, n: int, seed: int):
    def op():
        g = simulate.RngStream(seed).child("acceptance", "contour").generator()
        jumps = default_model().jumps
        bad = sum(0 if trees.contour_width_identity(trees.sample_tree(jumps, g))
                  else 1 for _ in range(n))
        run.emit(f"contour {n} {bad}".encode())
        run.result.objects += n
        return [Outcome("contour width bulk", bad == 0, bad == 0,
                        f"{n} trees, {bad} failures")]

    run.op("contour width bulk", op)


def _calibration_op(run: Runner, n: int, repetitions: int, seed: int):
    def op():
        rate = verify.ks_null_calibration(n=n, repetitions=repetitions,
                                          alpha=0.05, seed=seed)
        run.emit(repr(rate).encode())
        run.result.objects += repetitions
        lo, hi = CALIBRATION_BAND
        return [Outcome("ks null calibration", lo <= rate <= hi,
                        0.0 <= rate <= 1.0, f"rate {rate:.3f}")]

    run.op("ks null calibration", op)


def acceptance_suites(run: Runner, seed: int, sizes: dict) -> None:
    n = sizes["suite_n"]
    for name in ("sup_swap", "pre_sup_rotation", "post_sup_rotation",
                 "killed_passage_rotation", "loctime_reversal",
                 "width_reversal"):
        _suite_op(run, f"{name}@{n}", name, n, seed)
    k = sizes["sup_exc_n"]
    _suite_op(run, f"sup_excursion_rotation@{k}", "sup_excursion_rotation",
              k, seed, depth=0.5)
    # The negative control must reject.  At 10^4 per half it does not
    # (a known shortfall of the program); it is counted, not hidden.
    for m in sizes["negative_ns"]:
        _suite_op(run, f"negative_control@{m}", "negative_control", m, seed,
                  require_all_p=False)
    _calibration_op(run, *sizes["calibration"], seed)
    _crossing_op(run, sizes["bulk_n"], seed)
    _contour_op(run, sizes["bulk_n"], seed)


# -- sample_export ---------------------------------------------------------------


def _walk(rec: dict) -> tuple:
    """(start value before the t=0 jump, end value, lowest left limit,
    highest value, lifetime, total variation) of an exported path."""
    v = rec["x0"]
    low = pre = v - rec["initial_jump"]
    high = v
    life = 0.0
    tv = abs(rec["x0"]) + abs(rec["initial_jump"])
    for dur, slope, jump in rec["segments"]:
        v += slope * dur
        low = min(low, v)
        v += jump
        high = max(high, v)
        life += dur
        tv += abs(slope * dur) + abs(jump)
    return pre, v, low, high, life, tv


def _close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= PATH_RTOL * max(1.0, scale)


def _check_excursion(rec, min_height=None) -> bool:
    pre, end, low, high, _, tv = _walk(rec)
    ok = pre == 0.0 and _close(end, 0.0, tv) and low >= -PATH_RTOL * tv
    return ok and (min_height is None or high >= min_height)


def _check_horizon(horizon: float):
    return lambda rec: _close(_walk(rec)[4], horizon, horizon)


def _check_excursion_stop(rec) -> bool:
    # The last excursion closes at its opening level, which is the running
    # infimum, so the path ends at its lowest left limit.
    _, end, low, _, _, tv = _walk(rec)
    return _close(end, low, tv)


def _check_sup_excursion(depth: float):
    def check(rec):
        pre, end, low, high, _, tv = _walk(rec)
        return (pre == 0.0 and _close(end, -depth, tv)
                and _close(low, -depth, tv) and high <= 0.0)
    return check


def _check_tree(rec) -> bool:
    stack = [rec]
    ok = rec["birth_time"] == 0.0
    while stack and ok:
        node = stack.pop()
        death = node["birth_time"] + node["lifespan"]
        ok = node["lifespan"] > 0.0 and all(
            node["birth_time"] <= c["birth_time"] <= death
            for c in node["children"])
        stack.extend(node["children"])
    return ok


def _export_op(run: Runner, label: str, argv: list, n: int, check):
    def op():
        code, data = run.cli(argv)
        records = [json.loads(line) for line in data.splitlines()]
        run.result.objects += len(records)
        bad = sum(not check(rec) for rec in records)
        ok = code == 0 and len(records) == n and bad == 0
        # Exit 3 (a resource cap) is a failure the program reports itself;
        # exit 0 with bad records, or a usage error, is a wrong output.
        return [Outcome(label, ok, ok if code == 0 else code == 3,
                        f"exit {code}, {len(records)}/{n} records, "
                        f"{bad} failing their check")]

    run.op(label, op)


def _exit_mc_op(run: Runner, n: int, seed: int):
    def op():
        g = simulate.RngStream(seed).child("acceptance", "exit").generator()
        p_hat = simulate.exit_probability_mc(default_model(), 1.0, 2.0, n, g)
        run.emit(repr(p_hat).encode())
        run.result.objects += n
        se = math.sqrt(EXIT_P * (1.0 - EXIT_P) / n)
        return [Outcome("exit probability mc", abs(p_hat - EXIT_P) <= 3 * se,
                        0.0 <= p_hat <= 1.0,
                        f"{p_hat:.5f} vs {EXIT_P:.5f}")]

    run.op("exit probability mc", op)


def sample_export(run: Runner, seed: int, sizes: dict) -> None:
    s = str(seed)
    sim = ["simulate", "--seed", s]
    n = sizes["excursion"]
    _export_op(run, "excursions", sim + ["--kind", "excursion", "--n", str(n)],
               n, _check_excursion)
    n = sizes["min_height"]
    _export_op(run, "excursions min-height 1.0",
               sim + ["--kind", "excursion", "--min-height", "1.0",
                      "--n", str(n)],
               n, lambda rec: _check_excursion(rec, min_height=1.0))
    n = sizes["horizon"]
    _export_op(run, "paths horizon:50",
               sim + ["--stop", "horizon:50", "--n", str(n)],
               n, _check_horizon(50.0))
    n = sizes["excursions"]
    _export_op(run, "paths excursions:20",
               sim + ["--stop", "excursions:20", "--n", str(n)],
               n, _check_excursion_stop)
    n = sizes["sup_excursion"]
    _export_op(run, "sup-excursions",
               sim + ["--kind", "sup-excursion", "--n", str(n)],
               n, _check_sup_excursion(0.5))
    n = sizes["tree"]
    _export_op(run, "trees", ["tree", "--seed", s, "--n", str(n)], n,
               _check_tree)
    _exit_mc_op(run, sizes["exit_mc"], seed)


# -- brownian_field --------------------------------------------------------------


def brownian_field(run: Runner, seed: int, sizes: dict) -> None:
    def feller():
        chk = rayknight.feller_moment_check(
            target=1.0, levels=(0.1, 0.2), n_paths=sizes["walks"],
            h=sizes["h"], seed=seed)
        values = chk.means + chk.variances
        run.emit(repr(values).encode())
        run.result.objects += sizes["walks"]
        return [Outcome("feller moments", chk.passed,
                        all(math.isfinite(v) for v in values),
                        f"means {chk.means}, variances {chk.variances}")]

    def scale():
        table = default_model().scale_table(5.0, 1e-3)
        values = np.asarray(table.values)
        run.emit(values.tobytes())
        exact = 2.0 - np.exp(-np.arange(values.size) * 1e-3)
        rel = float(np.max(np.abs(values - exact) / exact))
        return [Outcome("scale table", rel < 1e-6, rel < 1e-6,
                        f"max rel err {rel:.2e}")]

    run.op("feller moments", feller)
    run.op("scale table", scale)


@dataclass(frozen=True)
class Workload:
    name: str
    run: object  # (Runner, seed, sizes) -> None
    # Python run in a fresh interpreter to time set-up: import levyexc and
    # build the model the workload uses, stopping before the first draw.
    setup: str


WORKLOADS = {w.name: w for w in (
    Workload("verify_shipped", verify_shipped,
             "import levyexc.cli; levyexc.models.named_model('bd')"),
    Workload("acceptance_suites", acceptance_suites,
             "import levyexc.verify; levyexc.verify.default_model()"),
    Workload("sample_export", sample_export,
             "import levyexc.cli; levyexc.models.named_model('bd')"),
    Workload("brownian_field", brownian_field,
             "import levyexc.rayknight, levyexc.models as m; "
             "m.LevyModel.from_drift(1.0, m.ExponentialJumps(1.0, 2.0))"),
)}
