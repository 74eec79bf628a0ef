"""Outside-in tracing of levyexc for the benchmark's traced runs.

The package is not instrumented.  Instead :class:`Tracer` replaces each
traced public function, in every ``levyexc`` module that holds a reference
to it, by a wrapper that times the call, and replaces traced methods on
their classes.  Spans are kept in memory as per-(operation, function)
aggregates: self time (span time minus the time of traced child spans) and
call count per (operation, calling span, span), plus a few counters read
off arguments and results.  Everything
is restored on exit, and the wrappers never touch the random streams, so a
traced run produces the same bytes as an untraced one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Functions traced at module level: (module, attribute, span name, group).
# Spans in the "simulate" group also accumulate inclusive time, counted once
# for the outermost such span, which is what µs per event is divided from.
FUNCTIONS = (
    ("levyexc.verify", "permutation_ks", "verify.permutation_ks", None),
    ("levyexc.verify", "ks_two_sample", "verify.ks_two_sample", None),
    ("levyexc.verify", "ks_null_calibration", "verify.ks_null_calibration",
     None),
    ("levyexc.verify", "run_suite", "verify.run_suite", None),
    ("levyexc.simulate", "sample_excursions", "simulate.sample_excursions",
     "simulate"),
    ("levyexc.simulate", "sample_path_fv", "simulate.sample_path_fv",
     "simulate"),
    ("levyexc.simulate", "sample_killed_sup_excursions",
     "simulate.sample_killed_sup_excursions", "simulate"),
    ("levyexc.simulate", "exit_probability_mc", "simulate.exit_probability_mc",
     "simulate"),
    ("levyexc.paths", "path_to_dict", "paths.path_to_dict", None),
    ("levyexc.excursions", "supremum_swap", "excursions.supremum_swap", None),
    ("levyexc.excursions", "pre_sup", "excursions.pre_sup", None),
    ("levyexc.excursions", "post_sup", "excursions.post_sup", None),
    ("levyexc.excursions", "local_time_count", "excursions.local_time_count",
     None),
    ("levyexc.excursions", "pointwise_reflection",
     "excursions.pointwise_reflection", None),
    ("levyexc.trees", "sample_tree", "trees.sample_tree", None),
    ("levyexc.trees", "width_process", "trees.width_process", None),
    ("levyexc.trees", "contour_width_identity", "trees.contour_width_identity",
     None),
    ("levyexc.trees", "tree_to_dict", "trees.tree_to_dict", None),
    ("levyexc.rayknight", "local_time_field", "rayknight.local_time_field",
     None),
    ("levyexc.cli", "main", "cli.main", None),
)

# Methods traced on their classes: (module, class, attribute, span name,
# kind).  "leaf" and "draws" spans call no traced code and get the cheaper
# wrapper; "draws" also counts jump draws.  Mixture jump laws draw through
# their components, so only the component families are traced.
METHODS = (
    ("levyexc.paths", "EventPath", "__post_init__", "paths.EventPath",
     "leaf"),
    ("levyexc.paths", "EventPath", "rotate", "paths.rotate", "span"),
    ("levyexc.models", "LevyModel", "scale_table", "models.scale_table",
     "span"),
    ("levyexc.models", "ExponentialJumps", "sample", "models.jumps_sample",
     "draws"),
    ("levyexc.models", "DiracJumps", "sample", "models.jumps_sample",
     "draws"),
)

SIMULATE_SPANS = frozenset(name for _, _, name, group in FUNCTIONS
                           if group == "simulate")


def is_levyexc(module_name: str) -> bool:
    return module_name == "levyexc" or module_name.startswith("levyexc.")


class Tracer:
    """In-memory span aggregates for one pass of a workload.

    ``op`` names the workload operation currently running; the workload
    sets it, and every aggregate is keyed by it so that per-operation
    splits can be read back.
    """

    def __init__(self):
        self.op = ""
        self.self_s = defaultdict(float)      # (op, parent, span) -> seconds
        self.calls = defaultdict(int)         # (op, parent, span) -> calls
        self.counts = defaultdict(int)        # (op, counter) -> count
        self.inclusive_s = defaultdict(float)  # (op, group) -> seconds
        self._stack = []                      # frames: [span, child seconds]
        self._depth = defaultdict(int)        # group -> open spans
        self._patches = []                    # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, group=None, after=None):
        """A timing wrapper around ``fn``; ``after(parent, args, kwargs,
        result)`` updates counters once the call returned."""
        stack = self._stack
        depth = self._depth
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if group is not None:
                depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (self.op, parent, name)
                self_s[key] += dt - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += dt
                if group is not None:
                    depth[group] -= 1
                    if depth[group] == 0:
                        self.inclusive_s[(self.op, group)] += dt
            if after is not None:
                after(parent, args, kwargs, result)
            return result

        return self._mark(traced, fn, name)

    def _wrap_leaf(self, name, fn, draws=False):
        """A cheaper wrapper for hot spans that call no traced code: no
        frame of their own.  With ``draws`` it also counts the values drawn
        (the ``size`` argument of a jump sampler) per calling span."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frame = stack[-1] if stack else None
                parent = frame[0] if frame else None
                key = (self.op, parent, name)
                self_s[key] += dt
                calls[key] += 1
                if frame:
                    frame[1] += dt
                if draws:
                    size = args[2] if len(args) > 2 else kwargs.get("size")
                    counts[(self.op, ("draws", parent))] += (
                        1 if size is None else int(np.prod(size)))

        return self._mark(traced, fn, name)

    @staticmethod
    def _mark(traced, fn, name):
        traced.__wrapped__ = fn
        traced.__bench_span__ = name
        return traced

    def _count(self, counter, amount=1):
        self.counts[(self.op, counter)] += amount

    def _after_permutation_ks(self, parent, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        b = args[1] if len(args) > 1 else kwargs["b"]
        self._count("pool_n", int(np.size(a)) + int(np.size(b)))

    def _after_run_suite(self, parent, args, kwargs, result):
        self._count("exact_checked", result.exact_checked)
        self._count("exact_failures", result.exact_failures)

    def _after_path_fv(self, parent, args, kwargs, result):
        if parent == "simulate.sample_excursions":
            self._count("pending_attempts")

    def _after_sample_excursions(self, parent, args, kwargs, result):
        attempts = self.counts.pop((self.op, "pending_attempts"), 0)
        condition = args[3] if len(args) > 3 else kwargs.get("condition")
        if condition is not None and type(condition).__name__ != "AnyExcursion":
            self._count("conditioned_attempts", attempts)
            self._count("conditioned_accepted", len(result))

    def _after_hook(self, name):
        return {
            "verify.permutation_ks": self._after_permutation_ks,
            "verify.run_suite": self._after_run_suite,
            "simulate.sample_path_fv": self._after_path_fv,
            "simulate.sample_excursions": self._after_sample_excursions,
        }.get(name)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function and method (levyexc must be imported)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if is_levyexc(n) and m is not None]
        for module_name, attr, name, group in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, group, self._after_hook(name))
            # Patch every module-level reference, whatever name it is bound
            # to, so calls through ``from ... import`` copies are traced too.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for module_name, cls_name, attr, name, kind in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            if kind == "span":
                wrapper = self._wrap(name, original, None,
                                     self._after_hook(name))
            else:
                wrapper = self._wrap_leaf(name, original, kind == "draws")
            self._set(cls, attr, wrapper)

    def restore(self):
        """Put back every original attribute, in reverse patch order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- read-back -----------------------------------------------------------

    def total(self, table, name) -> float:
        """Sum of ``table`` entries for span or counter ``name`` over ops
        (and over calling spans)."""
        return sum(v for key, v in table.items() if key[-1] == name)

    def by_op(self) -> dict:
        """{op: {(parent, span): self seconds}}, the per-operation split."""
        out = defaultdict(dict)
        for (op, parent, name), v in self.self_s.items():
            out[op][(parent, name)] = v
        return dict(out)


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Per-layer metric values of one traced pass, by BENCHMARK.json name."""
    t = tracer
    m = {}
    timed = [name for _, _, name, _ in FUNCTIONS] + [
        name for *_, name, _ in METHODS if name != "paths.EventPath"]
    for name in dict.fromkeys(timed):
        m[f"{name}.self_s"] = float(t.total(t.self_s, name))
    for name in ("verify.permutation_ks", "simulate.sample_excursions",
                 "simulate.sample_path_fv",
                 "simulate.sample_killed_sup_excursions",
                 "simulate.exit_probability_mc", "models.jumps_sample"):
        m[f"{name}.calls"] = t.total(t.calls, name)
    m["verify.permutation_ks.pool_n"] = t.total(t.counts, "pool_n")
    m["verify.exact_checked"] = t.total(t.counts, "exact_checked")
    m["verify.exact_failures"] = t.total(t.counts, "exact_failures")
    events = sum(t.total(t.counts, ("draws", name))
                 for name in SIMULATE_SPANS)
    m["simulate.events"] = events
    simulate_s = t.total(t.inclusive_s, "simulate")
    m["simulate.us_per_event"] = 1e6 * simulate_s / events if events else 0.0
    attempts = t.total(t.counts, "conditioned_attempts")
    accepted = t.total(t.counts, "conditioned_accepted")
    m["simulate.accept_ratio"] = accepted / attempts if attempts else 0.0
    m["paths.EventPath.constructed"] = t.total(t.calls, "paths.EventPath")
    m["paths.EventPath.construct_self_s"] = t.total(t.self_s,
                                                    "paths.EventPath")
    m["trees.nodes"] = t.total(t.counts, ("draws", "trees.sample_tree"))
    m["cli.bytes_written"] = bytes_written
    return m


def leftover_wrappers() -> list:
    """Names of levyexc attributes that still hold a tracing wrapper."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not is_levyexc(module_name) or module is None:
            continue
        for key, value in vars(module).items():
            if hasattr(value, "__bench_span__"):
                found.append(f"{module_name}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, "__bench_span__"):
                        found.append(f"{module_name}.{key}.{attr}")
    return found
