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
    DEFAULT_SEED,
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

# Acceptance band for the null calibration rate at alpha = 0.05.
CALIBRATION_BAND = (0.035, 0.065)

_SIMULATE_KINDS = ("path", "excursion", "sup-excursion", "tree")

# Config keys each subcommand accepts (flags override them).
_CONFIG_KEYS = {
    "simulate": {"model", "seed", "kind", "n", "stop", "x0",
                 "min_lifetime", "min_height", "depth"},
    "tree": {"model", "seed", "n"},
    "scale-fn": {"model", "h_w", "x_max"},
    "verify": {"model", "seed", "suites", "n", "n_by_suite",
               "x_values", "depth", "fractions", "mass_factor",
               "with_calibration"},
    "hist": {"model", "seed", "suite", "functional", "n", "bins",
             "x_values", "depth", "fractions", "mass_factor",
             "min_lifetime", "min_height"},
}


# -- configuration -------------------------------------------------------------


def _load_config(path: str, command: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS[command]
    if unknown:
        raise ValueError(f"unknown config keys for {command!r}: "
                         f"{sorted(unknown)}")
    return cfg


def _pick(flag_value, cfg: dict, key: str, default):
    """Flag value if given, else the config entry, else the default."""
    if flag_value is not None:
        return flag_value
    return cfg.get(key, default)


def _resolve_model(flag_name, cfg: dict) -> LevyModel:
    if flag_name is not None:
        return named_model(flag_name)
    spec = cfg.get("model")
    if spec is None:
        return named_model("bd")
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
    cfg = _load_config(args.config, "simulate") if args.config else {}
    model = _resolve_model(args.model, cfg)
    kind = _pick(args.kind, cfg, "kind", "path")
    n = int(_pick(args.n, cfg, "n", 1))
    seed = int(_pick(args.seed, cfg, "seed", DEFAULT_SEED))
    stop_spec = _pick(args.stop, cfg, "stop", "horizon:10")
    x0 = float(_pick(args.x0, cfg, "x0", 0.0))
    depth = float(_pick(args.depth, cfg, "depth", 0.5))
    condition = _parse_condition(
        _pick(args.min_lifetime, cfg, "min_lifetime", None),
        _pick(args.min_height, cfg, "min_height", None))
    if n < 1:
        raise ValueError("need n >= 1")
    lines = _simulate_lines(model, kind, n, stop_spec, x0, condition, depth,
                            seed)
    _emit("".join(line + "\n" for line in lines), args.output)
    print(f"simulate: wrote {len(lines)} {kind} records", file=sys.stderr)
    return EXIT_OK


def _cmd_tree(args) -> int:
    cfg = _load_config(args.config, "tree") if args.config else {}
    model = _resolve_model(args.model, cfg)
    n = int(_pick(args.n, cfg, "n", 1))
    seed = int(_pick(args.seed, cfg, "seed", DEFAULT_SEED))
    if n < 1:
        raise ValueError("need n >= 1")
    lines = _simulate_lines(model, "tree", n, None, 0.0, None, 0.5, seed)
    _emit("".join(line + "\n" for line in lines), args.output)
    print(f"tree: wrote {len(lines)} records", file=sys.stderr)
    return EXIT_OK


# -- scale-fn ------------------------------------------------------------------


def _cmd_scale_fn(args) -> int:
    cfg = _load_config(args.config, "scale-fn") if args.config else {}
    model = _resolve_model(args.model, cfg)
    h = float(_pick(args.h_w, cfg, "h_w", 1e-3))
    x_max = float(_pick(args.x_max, cfg, "x_max", 5.0))
    table = model.scale_table(x_max, h)
    rows = ["x,W"]
    for i, w in enumerate(table.values):
        rows.append(f"{repr(i * h)},{repr(w)}")
    _emit("".join(r + "\n" for r in rows), args.output)
    print(f"scale-fn: {len(table.values)} grid points on [0, {x_max}]",
          file=sys.stderr)
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def _suite_params(cfg: dict) -> dict:
    params = {}
    for key in ("x_values", "depth", "fractions", "mass_factor"):
        if key in cfg:
            params[key] = cfg[key]
    return params


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config, "verify") if args.config else {}
    model = _resolve_model(args.model, cfg)
    names = args.suite or cfg.get("suites")
    n = _pick(args.n, cfg, "n", None)
    n_by_suite = cfg.get("n_by_suite")
    seed = int(_pick(args.seed, cfg, "seed", DEFAULT_SEED))
    with_calibration = bool(args.with_calibration
                            or cfg.get("with_calibration", False))

    results = run_suites(names, model=model,
                         n=None if n is None else int(n), seed=seed,
                         n_by_suite=n_by_suite, **_suite_params(cfg))
    all_passed = all(r.passed for r in results)
    for r in results:
        worst = min((rep.p_value for rep in r.reports), default=1.0)
        print(f"verify: {r.suite}: {'ok' if r.passed else 'FAILED'} "
              f"(min p = {worst:.3g}, exact {r.exact_checked - r.exact_failures}"
              f"/{r.exact_checked})", file=sys.stderr)

    calibration_rate = None
    if with_calibration:
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
    cfg = _load_config(args.config, "hist") if args.config else {}
    model = _resolve_model(args.model, cfg)
    suite = _pick(args.suite, cfg, "suite", "sup_swap")
    spec = _pick(args.functional, cfg, "functional", "lifetime")
    n = int(_pick(args.n, cfg, "n", 2000))
    bins = int(_pick(args.bins, cfg, "bins", 30))
    seed = int(_pick(args.seed, cfg, "seed", DEFAULT_SEED))
    condition = _parse_condition(
        _pick(args.min_lifetime, cfg, "min_lifetime", None),
        _pick(args.min_height, cfg, "min_height", None))
    if n < 1 or bins < 1:
        raise ValueError("need n >= 1 and bins >= 1")

    functional = functional_by_name(spec)
    sampler = suite_sampler(suite, model=model, **_suite_params(cfg))
    stream = RngStream(seed).child("cli", "hist", suite)
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


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--model", help="named model (e.g. bd, bd-control, "
                                     "dirac, brownian)")
    sub.add_argument("--seed", type=int, help="base seed (default 7)")
    sub.add_argument("--output", help="write data here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyexc",
        description="Simulation and verification toolkit for spectrally "
                    "positive Levy paths, excursions, and splitting trees.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="emit JSON-lines sample objects")
    _add_common(sim)
    sim.add_argument("--kind", choices=_SIMULATE_KINDS,
                     help="object type (default path)")
    sim.add_argument("--n", type=int, help="number of records (default 1)")
    sim.add_argument("--stop", help="path stop rule horizon:T | "
                                    "first-passage:L | excursions:K")
    sim.add_argument("--x0", type=float, help="path start value (default 0)")
    sim.add_argument("--min-lifetime", dest="min_lifetime", type=float,
                     help="condition excursions on lifetime >= this")
    sim.add_argument("--min-height", dest="min_height", type=float,
                     help="condition excursions on height >= this")
    sim.add_argument("--depth", type=float,
                     help="sup-excursion kill depth (default 0.5)")
    sim.set_defaults(handler=_cmd_simulate)

    tree = subs.add_parser("tree", help="emit JSON-lines splitting trees")
    _add_common(tree)
    tree.add_argument("--n", type=int, help="number of trees (default 1)")
    tree.set_defaults(handler=_cmd_tree)

    scale = subs.add_parser("scale-fn",
                            help="CSV table x,W of the scale function")
    _add_common(scale)
    scale.add_argument("--h-w", dest="h_w", type=float,
                       help="grid step (default 1e-3)")
    scale.add_argument("--x-max", dest="x_max", type=float,
                       help="table endpoint (default 5)")
    scale.set_defaults(handler=_cmd_scale_fn)

    ver = subs.add_parser("verify", help="run verification suites")
    _add_common(ver)
    ver.add_argument("--suite", action="append",
                     help="suite name; repeat for several (default all)")
    ver.add_argument("--n", type=int,
                     help="per-half sample count for every suite "
                          "(default: per-suite shipped sizes)")
    ver.add_argument("--json", action="store_true",
                     help="emit one JSON document instead of CSV")
    ver.add_argument("--with-calibration", action="store_true",
                     help="also check the null calibration rate")
    ver.set_defaults(handler=_cmd_verify)

    hist = subs.add_parser("hist",
                           help="CSV histogram of a functional under a "
                                "suite's sampling")
    _add_common(hist)
    hist.add_argument("--functional",
                      help="functional name, e.g. lifetime, area, "
                           "value_at_fraction:0.3 (default lifetime)")
    hist.add_argument("--suite", help="suite whose sampler to draw from "
                                      "(default sup_swap)")
    hist.add_argument("--n", type=int, help="sample count (default 2000)")
    hist.add_argument("--bins", type=int, help="bin count (default 30)")
    hist.add_argument("--min-lifetime", dest="min_lifetime", type=float,
                      help="keep samples with lifetime >= this")
    hist.add_argument("--min-height", dest="min_height", type=float,
                      help="keep samples with height >= this")
    hist.set_defaults(handler=_cmd_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"levyexc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"levyexc: resource cap: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
