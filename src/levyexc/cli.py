"""Command-line front door: simulation export, scale-function tables,
verification suites, and histogram data for external plotting.

Subcommands
-----------

- ``simulate`` JSON-lines paths, excursions, or trees (``--kind``).
- ``tree`` shorthand for ``simulate --kind tree``.
- ``scale-fn`` CSV table of the scale function W on a uniform grid.
- ``verify`` run named verification suites; exit 0 only if all pass.
- ``hist`` CSV histogram of a catalog functional under a suite's sampling.

Conventions
-----------

- stdout carries data only; all diagnostics go to stderr.
- Exit codes: 0 success (all suites passed), 1 a suite failed where
  passing was required, 2 usage or configuration error, 3 a simulation
  resource cap was hit.
- ``--config FILE`` supplies a JSON document; explicit flags override
  config keys; unknown config keys are rejected.
- Every run is a pure function of (config, seed): outputs are
  byte-identical across repetitions.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from levyexc.models import LevyModel, model_from_config, named_model
from levyexc.paths import path_to_dict
from levyexc.simulate import (
    AnyExcursion,
    ExcursionCount,
    FirstPassage,
    HeightAtLeast,
    Horizon,
    LifetimeAtLeast,
    RngStream,
    sample_excursions,
    sample_killed_sup_excursions,
    sample_path_fv,
)
from levyexc.trees import sample_tree, tree_to_dict
from levyexc.verify import (
    CALIBRATION_BAND,
    DEFAULT_SEED,
    SUITE_PARAMS,
    functional_by_name,
    ks_null_calibration,
    reports_to_csv,
    run_suites,
    suite_sampler,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

_SIMULATE_KINDS = ("path", "excursion", "sup-excursion", "tree")

# Every option each subcommand reads, with its default.  A key is the
# subcommand's config key and the dest of its flag, if it has one; main
# fills each option the command line left out from the config file, else
# from here.
_CONDITION = {"min_lifetime": None, "min_height": None}
_OPTIONS = {
    "simulate": {"model": "bd", "seed": DEFAULT_SEED, "kind": "path", "n": 1,
                 "stop": "horizon:10", "x0": 0.0, "depth": 0.5,
                 **_CONDITION},
    "tree": {"model": "bd", "seed": DEFAULT_SEED, "n": 1},
    "scale-fn": {"model": "bd", "h_w": 1e-3, "x_max": 5.0},
    "verify": {"model": "bd", "seed": DEFAULT_SEED, "suites": None,
               "n": None, "with_calibration": False, **SUITE_PARAMS},
    "hist": {"model": "bd", "seed": DEFAULT_SEED, "suite": "sup_swap",
             "functional": "lifetime", "n": 2000, "bins": 30, **_CONDITION,
             **SUITE_PARAMS},
}


# -- configuration -------------------------------------------------------------


def _fill_options(args) -> None:
    """Set every option the command line left out: from the ``--config``
    file when it holds a non-null value, else the table default."""
    options = _OPTIONS[args.command]
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(cfg) - set(options)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command!r}: "
                             f"{sorted(unknown)}")
    for key, default in options.items():
        if getattr(args, key, None) is None:
            value = cfg.get(key)
            setattr(args, key, default if value is None else value)


def _model(spec) -> LevyModel:
    """A catalog name, or a model configuration from the config file."""
    if isinstance(spec, str):
        return named_model(spec)
    return model_from_config(spec)


def _emit(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- simulate ------------------------------------------------------------------


def _parse_stop(spec: str):
    """Parse ``horizon:T``, ``first-passage:L`` or ``excursions:K``."""
    name, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"stop rule {spec!r} needs a ':<value>' part")
    if name == "horizon":
        return Horizon(float(arg))
    if name == "first-passage":
        return FirstPassage(float(arg))
    if name == "excursions":
        return ExcursionCount(int(arg))
    raise ValueError(f"unknown stop rule {name!r}; choose horizon, "
                     "first-passage, or excursions")


def _parse_condition(min_lifetime, min_height):
    if min_lifetime is not None and min_height is not None:
        raise ValueError("give at most one of min_lifetime / min_height")
    if min_lifetime is not None:
        return LifetimeAtLeast(float(min_lifetime))
    if min_height is not None:
        return HeightAtLeast(float(min_height))
    return AnyExcursion()


def _simulate_lines(model, kind, n, stop_spec, x0, condition, depth,
                    seed) -> list:
    stream = RngStream(seed).child("cli", "simulate", kind)
    if kind == "path":
        stop = _parse_stop(stop_spec)
        return [json.dumps(path_to_dict(
            sample_path_fv(model, x0, stop, stream.child(i).generator())),
            sort_keys=True) for i in range(n)]
    if kind == "excursion":
        excs = sample_excursions(model, n, stream.generator(), condition)
        return [json.dumps(path_to_dict(e), sort_keys=True) for e in excs]
    if kind == "sup-excursion":
        excs = sample_killed_sup_excursions(model, n, depth,
                                            stream.generator())
        return [json.dumps(path_to_dict(e), sort_keys=True) for e in excs]
    if kind == "tree":
        return [json.dumps(tree_to_dict(
            sample_tree(model.jumps, stream.child(i).generator())),
            sort_keys=True) for i in range(n)]
    raise ValueError(f"unknown kind {kind!r}; choose from "
                     f"{', '.join(_SIMULATE_KINDS)}")


def _cmd_simulate(args) -> int:
    model = _model(args.model)
    n = int(args.n)
    x0 = float(args.x0)
    depth = float(args.depth)
    condition = _parse_condition(args.min_lifetime, args.min_height)
    if n < 1:
        raise ValueError("need n >= 1")
    if args.kind != "excursion" and not isinstance(condition, AnyExcursion):
        raise ValueError("min_lifetime / min_height condition --kind "
                         "excursion only")
    lines = _simulate_lines(model, args.kind, n, args.stop, x0, condition,
                            depth, int(args.seed))
    _emit("".join(line + "\n" for line in lines), args.output)
    print(f"simulate: wrote {len(lines)} {args.kind} records", file=sys.stderr)
    return EXIT_OK


def _cmd_tree(args) -> int:
    model = _model(args.model)
    n = int(args.n)
    if n < 1:
        raise ValueError("need n >= 1")
    lines = _simulate_lines(model, "tree", n, None, 0.0, None, 0.5,
                            int(args.seed))
    _emit("".join(line + "\n" for line in lines), args.output)
    print(f"tree: wrote {len(lines)} records", file=sys.stderr)
    return EXIT_OK


# -- scale-fn ------------------------------------------------------------------


def _cmd_scale_fn(args) -> int:
    model = _model(args.model)
    h = float(args.h_w)
    x_max = float(args.x_max)
    table = model.scale_table(x_max, h)
    rows = ["x,W"]
    for i, w in enumerate(table.values):
        rows.append(f"{repr(i * h)},{repr(w)}")
    _emit("".join(r + "\n" for r in rows), args.output)
    print(f"scale-fn: {len(table.values)} grid points on [0, {x_max}]",
          file=sys.stderr)
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def _suite_params(args) -> dict:
    return {key: getattr(args, key) for key in SUITE_PARAMS}


def _cmd_verify(args) -> int:
    model = _model(args.model)
    n = None if args.n is None else int(args.n)
    results = run_suites(args.suites, model=model, n=n, seed=int(args.seed),
                         **_suite_params(args))
    all_passed = all(r.passed for r in results)
    for r in results:
        worst = min((rep.p_value for rep in r.reports), default=1.0)
        vacuous = "".join(f"; vacuous: every required row of {label} pools "
                          "one value" for label in r.vacuous)
        print(f"verify: {r.suite}: {'ok' if r.passed else 'FAILED'} "
              f"(min p = {worst:.3g}, exact {r.exact_checked - r.exact_failures}"
              f"/{r.exact_checked}{vacuous})", file=sys.stderr)

    calibration_rate = None
    if args.with_calibration:
        calibration_rate = ks_null_calibration()
        lo, hi = CALIBRATION_BAND
        in_band = lo <= calibration_rate <= hi
        all_passed = all_passed and in_band
        print(f"verify: null calibration rate {calibration_rate:.3f} "
              f"{'in' if in_band else 'OUTSIDE'} [{lo}, {hi}]",
              file=sys.stderr)

    reports = [rep for r in results for rep in r.reports]
    if args.json:
        doc = {
            "suites": [
                {"suite": r.suite, "passed": r.passed,
                 "exact_checked": r.exact_checked,
                 "exact_failures": r.exact_failures} for r in results
            ],
            "reports": [rep.to_dict() for rep in reports],
            "calibration_rate": calibration_rate,
        }
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.output)
    else:
        _emit(reports_to_csv(reports), args.output)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# -- hist ----------------------------------------------------------------------


def _cmd_hist(args) -> int:
    model = _model(args.model)
    suite, spec = args.suite, args.functional
    n = int(args.n)
    bins = int(args.bins)
    condition = _parse_condition(args.min_lifetime, args.min_height)
    if n < 1 or bins < 1:
        raise ValueError("need n >= 1 and bins >= 1")

    functional = functional_by_name(spec)
    sampler = suite_sampler(suite, model=model, **_suite_params(args))
    stream = RngStream(int(args.seed)).child("cli", "hist", suite)
    accepted: list = []
    for attempt in range(64):
        if len(accepted) >= n:
            break
        objs = sampler(model, n, stream.child(attempt))
        if not isinstance(condition, AnyExcursion):
            try:
                objs = [o for o in objs if condition.check(o)]
            except AttributeError:
                raise ValueError("lifetime/height conditioning applies to "
                                 "path-valued suites only") from None
        accepted.extend(objs)
    if len(accepted) < n:
        raise RuntimeError(f"conditioning accepted only {len(accepted)}/{n} "
                           "samples in 64 batches")
    try:
        values = np.asarray([functional(o) for o in accepted[:n]],
                            dtype=float)
    except AttributeError:
        raise ValueError(f"functional {spec!r} does not apply to the "
                         f"objects of suite {suite!r}") from None
    counts, edges = np.histogram(values, bins=bins)
    masses = counts / float(n)
    rows = ["low,high,mass"]
    for i in range(bins):
        rows.append(f"{repr(float(edges[i]))},{repr(float(edges[i + 1]))},"
                    f"{repr(float(masses[i]))}")
    _emit("".join(r + "\n" for r in rows), args.output)
    print(f"hist: {spec} under {suite}, {n} samples in {bins} bins",
          file=sys.stderr)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _flag(sub, command: str, flag: str, help: str, **kwargs) -> None:
    """Add ``flag`` for option ``dest`` (the flag name with ``_`` for ``-``
    unless given); its help names the option's table default, if any."""
    dest = kwargs.pop("dest", flag[2:].replace("-", "_"))
    default = _OPTIONS[command][dest]
    if default is not None and not isinstance(default, bool):
        help = f"{help} (default {default})"
    sub.add_argument(flag, dest=dest, help=help, **kwargs)


def _subcommand(subs, command: str, handler, help: str):
    sub = subs.add_parser(command, help=help)
    sub.add_argument("--config", help="JSON config file; flags override it")
    _flag(sub, command, "--model",
          "named model (e.g. bd, bd-control, dirac, brownian)")
    if "seed" in _OPTIONS[command]:
        _flag(sub, command, "--seed", "base seed", type=int)
    sub.add_argument("--output", help="write data here instead of stdout")
    sub.set_defaults(handler=handler)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyexc",
        description="Simulation and verification toolkit for spectrally "
                    "positive Levy paths, excursions, and splitting trees.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = _subcommand(subs, "simulate", _cmd_simulate,
                      "emit JSON-lines sample objects")
    _flag(sim, "simulate", "--kind", "object type", choices=_SIMULATE_KINDS)
    _flag(sim, "simulate", "--n", "number of records", type=int)
    _flag(sim, "simulate", "--stop",
          "path stop rule horizon:T | first-passage:L | excursions:K")
    _flag(sim, "simulate", "--x0", "path start value", type=float)
    _flag(sim, "simulate", "--min-lifetime",
          "condition excursions on lifetime >= this", type=float)
    _flag(sim, "simulate", "--min-height",
          "condition excursions on height >= this", type=float)
    _flag(sim, "simulate", "--depth", "sup-excursion kill depth", type=float)

    tree = _subcommand(subs, "tree", _cmd_tree,
                       "emit JSON-lines splitting trees")
    _flag(tree, "tree", "--n", "number of trees", type=int)

    scale = _subcommand(subs, "scale-fn", _cmd_scale_fn,
                        "CSV table x,W of the scale function")
    _flag(scale, "scale-fn", "--h-w", "grid step", type=float)
    _flag(scale, "scale-fn", "--x-max", "table endpoint", type=float)

    ver = _subcommand(subs, "verify", _cmd_verify, "run verification suites")
    _flag(ver, "verify", "--suite", "suite name; repeat for several "
          "(default all)", dest="suites", action="append")
    _flag(ver, "verify", "--n", "per-half sample count for every suite "
          "(default: per-suite shipped sizes)", type=int)
    ver.add_argument("--json", action="store_true",
                     help="emit one JSON document instead of CSV")
    _flag(ver, "verify", "--with-calibration",
          "also check the null calibration rate", action="store_true",
          default=None)

    hist = _subcommand(subs, "hist", _cmd_hist,
                       "CSV histogram of a functional under a suite's "
                       "sampling")
    _flag(hist, "hist", "--functional", "functional name, e.g. lifetime, "
          "area, value_at_fraction:0.3")
    _flag(hist, "hist", "--suite", "suite whose sampler to draw from")
    _flag(hist, "hist", "--n", "sample count", type=int)
    _flag(hist, "hist", "--bins", "bin count", type=int)
    _flag(hist, "hist", "--min-lifetime", "keep samples with lifetime >= this",
          type=float)
    _flag(hist, "hist", "--min-height", "keep samples with height >= this",
          type=float)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_options(args)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"levyexc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"levyexc: resource cap: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
