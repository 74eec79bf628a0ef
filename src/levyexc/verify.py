"""Two-sample statistical verification of the reversal invariances.

Every registered suite encodes one distributional identity satisfied by the
exact path transformations in this package: it draws two independent halves
of paths (or trees), applies the suite's transformation to half A, leaves
half B untouched, and compares scalar functionals across the halves with
distribution-free two-sample tests.  A suite passes when every required
functional's p-value clears the per-functional threshold.

Properties that hold *pathwise* under a transformation (lifetime, peak,
argmax, jump multiset under the supremum swap; lifetime and jump multiset
under rotation) are not statistics: they are asserted sample by sample and
any violation is counted as a bug in :class:`SuiteResult.exact_failures`.

Design notes
------------
- Independent halves instead of paired comparison: the identities under test
  are equalities in law, and pairing F(T(e)) with F(e) on the same draw
  induces dependence that standard two-sample tests do not license.
- Suites name their functionals by catalog spec (``"area"``,
  ``"value_at_fraction:0.3"``), and one table maps each name to its
  evaluator.  Every row reads the KS distance D off one sort of the pool
  and takes the exact p of its permutation law, so it is a pure function
  of its two samples; the pool only picks how that law is summed.  Ties
  are common (every count, max_jump 0 of a jump-free path, area 0 of an
  empty pre-supremum piece, a jump-free killed path).  A spec whose
  required rows each pool one value tests nothing and fails as vacuous.
- Sampling is conditioned to a positive-finite-mass event (everything here
  uses the unconditioned excursion law, a first-passage law, or a
  reach-a-depth conditioning).  What licenses testing an identity on
  conditioned draws is that the transformation does not move paths in or
  out of the conditioning event, so the reach-a-depth suite checks that per
  sample and counts a path moved across it as an exact failure.
- Every block of samples comes from its own deterministic child stream and
  no test draws random numbers, so results are byte-reproducible: a pure
  function of (config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from io import StringIO
from operator import attrgetter, methodcaller
from typing import Callable, NamedTuple, Optional

import csv

import numpy as np

from levyexc.excursions import (
    argmax_time,
    local_time_count,
    peak_value,
    post_sup,
    pre_sup,
    supremum_swap,
)
from levyexc.models import LevyModel, jumps_from_config, named_model
from levyexc.paths import EventPath
from levyexc.simulate import (
    DEFAULT_SEED,
    FirstPassage,
    RngStream,
    _sample_paths_fv,
    sample_excursions,
    sample_killed_sup_excursions,
)
from levyexc.trees import WidthProcess, sample_tree, width_process

__all__ = [
    "PER_FUNCTIONAL_ALPHA",
    "REJECT_ALPHA",
    "EXACT_RTOL",
    "DEFAULT_SEED",
    "CALIBRATION_SEED",
    "CALIBRATION_BAND",
    "DEFAULT_SUITE_SIZES",
    "SUITE_NAMES",
    "SUITE_PARAMS",
    "TestReport",
    "SuiteResult",
    "ks_two_sample",
    "permutation_ks",
    "ks_null_calibration",
    "functional_by_name",
    "default_model",
    "suite_sampler",
    "run_suite",
    "run_suites",
    "reports_to_csv",
    "reports_to_json",
]

# Per-functional decision threshold; a suite passes when every required
# functional's p-value exceeds it.  By the union bound, a suite that gates on
# k rows rejects a true identity with probability at most k * 1e-3: at most
# 0.8% for killed_passage_rotation, which gates 8 rows, and at most 3.1% for
# a full `levyexc verify` run at a fresh seed, whose invariance suites gate
# 31 rows in all.  Every row's p is the exact permutation p, so a true null
# makes it <= 1e-3 with chance at most 1e-3.
PER_FUNCTIONAL_ALPHA = 1e-3
# Threshold for tests that are *supposed* to reject (negative controls).
REJECT_ALPHA = 1e-6
# Relative tolerance of the pathwise exactness assertions.  The transforms
# copy floats verbatim; only sum reassociation (lifetime is a sum of
# durations read in a different order) can move a digit in the last place.
EXACT_RTOL = 1e-12
# Shipped seed of the null-calibration run.  The empirical rejection rate at
# 1000 repetitions has a ~0.007 standard error around the true ~0.049, so a
# fixed central seed keeps the shipped check deterministic and stable.
CALIBRATION_SEED = 2
# Accepted null-calibration rates at alpha = 0.05 and 1000 repetitions.
CALIBRATION_BAND = (0.035, 0.065)
# Samples per block; one child stream per block fixes the draw order.
BLOCK_SIZE = 512


def default_model() -> LevyModel:
    """The model every suite uses unless told otherwise: ``bd``, unit drift
    with exponential jumps of rate 1 and mean 1/2 (strictly subcritical)."""
    return named_model("bd")


# -- two-sample tests ----------------------------------------------------------


def _as_sample(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sample")
    return arr


def _tie_groups(a, b) -> tuple:
    """(sizes, D): the tie-group sizes of the sorted pool and the KS distance.

    One stable argsort of the pool.  D only moves at the ends of the tie
    groups, where it is |K/n_a - (M - K)/n_b| with M the pooled and K the A
    count through the group; both are integer counts.
    """
    a = _as_sample(a, "a")
    b = _as_sample(b, "b")
    pool = np.concatenate([a, b])
    order = np.argsort(pool, kind="stable")
    ends = np.append(np.nonzero(np.diff(pool[order]))[0], pool.size - 1)
    k = np.cumsum(order < a.size)[ends]
    d = np.max(np.abs(k / a.size - (ends + 1 - k) / b.size))
    return np.diff(ends, prepend=-1), float(d)


def _equal_halves_tail(n: int, k: int) -> float:
    """P(D >= k/n) under the permutation null of two tie-free halves of size
    ``n``: 2 sum_{j>=1} (-1)^(j+1) C(2n, n - jk) / C(2n, n) (Gnedenko &
    Korolyuk 1951).  The ratio for n - m is the product over i < m of
    (n - i)/(n + 1 + i), whose log falls by at least (m^2 - k^2)/2n from
    m = k on, so once m^2 > k^2 + 80 n every term is below e^-40 times the
    first and the alternating series stops."""
    if k == 0:
        return 1.0
    i = np.arange(min(n, math.isqrt(k * k + 80 * n) + 1))
    terms = np.exp(np.cumsum(np.log(n - i) - np.log(n + 1 + i))[k - 1::k])
    return min(1.0, 2.0 * float(terms[::2].sum() - terms[1::2].sum()))


def ks_two_sample(a, b) -> tuple:
    """(D, p) for the two-sample Kolmogorov-Smirnov test, p exact.

    Equal halves on a tie-free pool take the closed-form tail
    (:func:`_equal_halves_tail`); every other pool takes
    :func:`permutation_ks`.  Degenerate input (all pooled values equal)
    gives D = 0 and p = 1.
    """
    sizes, d = _tie_groups(a, b)
    n_a = np.size(a)
    if n_a == np.size(b) == sizes.size / 2:
        return d, _equal_halves_tail(n_a, round(d * n_a))
    return _permutation_tail(sizes, d, n_a)


# Stirling-series coefficients of log(n!) - log(sqrt(2 pi n) (n / e)^n).
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
# log(n!) for n = 0..15, where _stirlerr takes the difference directly.
_LOG_FACTORIALS = np.array([math.lgamma(n + 1.0) for n in range(16)])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) for integers n >= 1."""
    direct = (_LOG_FACTORIALS[np.clip(n, 0, 15).astype(int)]
              - (n + 0.5) * np.log(n) + n - 0.5 * math.log(2.0 * math.pi))
    inv = 1.0 / (n * n)
    s0, s1, s2, s3, s4 = _STIRLING
    series = (s0 - (s1 - (s2 - (s3 - s4 * inv) * inv) * inv) * inv) / n
    return np.where(n <= 15, direct, series)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x / m) + m - x, accurate to about |x - m| ulps."""
    u = (x - m) / m
    return m * ((1.0 + u) * np.log1p(u) - u)


def _binom_pmf(n, k, p: float) -> np.ndarray:
    """Binomial(n, p) pmf at ``k``; ``n`` and ``k`` are broadcast integer
    arrays, and the pmf is 0 for k outside 0..n.

    Loader's saddle-point form (Loader 2000, "Fast and accurate computation
    of binomial probabilities"): every term of its log stays small, so the
    pmf keeps its relative precision at large n, where log-gamma
    differences lose ~1e-11 to cancellation.
    """
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    inner = (k > 0) & (k < n)
    j = np.where(inner, k, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_inner = (_stirlerr(n) - _stirlerr(j) - _stirlerr(n - j)
                     - _bd0(j, n * p) - _bd0(n - j, n * (1.0 - p))
                     - 0.5 * np.log(2.0 * math.pi * j * (n - j) / n))
        inner_pmf = np.exp(log_inner)
    edge = np.where(k == 0, (1.0 - p) ** n, np.where(k == n, p ** n, 0.0))
    return np.where(inner, inner_pmf, edge)


def _killed_walk(mass, t, k: int, r: int) -> np.ndarray:
    """``mass`` at t = S + k in (0, 2k) after r fair +-1 steps of S killed
    at +-k, over t mod 4k: by the method of images, its odd 4k-periodic
    extension convolved with the Binomial(r, 1/2) step law (cut below e^-40,
    folded mod 4k), by FFT at a power-of-two length of at least 8k."""
    period = 4 * k
    ext = np.zeros(period)
    ext[t], ext[period - t] = mass, -mass
    j = np.flatnonzero((2 * np.arange(r + 1) - r) ** 2 <= 80 * r)
    kernel = np.bincount((2 * j - r) % period, _binom_pmf(r, j, 0.5), period)
    size = 1 << (2 * period - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(ext, size) * np.fft.rfft(kernel, size))
    return out[:period] + out[period:2 * period]


def permutation_ks(a, b) -> tuple:
    """(D, p) for the KS statistic with its exact permutation null.

    Valid under arbitrary ties: the share of the C(N, n_a) relabellings of
    the pool whose D reaches the observed one, summed over the tie groups
    (Schroer & Trenkler 1995).  Drawing each pooled value into A with
    chance n_a/N and conditioning on n_a draws gives the uniform
    relabelling, so a dynamic programme carries the A count K through each
    group by a Binomial(g, n_a/N) convolution.  A state where
    |K/n_a - (M - K)/n_b| reaches D exits, weighted by the chance that the
    rest of the pool holds the missing n_a - K; the exits are divided by
    the chance of n_a in all.  With equal halves a run of singleton groups
    moves S = 2K - M by fair +-1 steps killed at +-D n_a (_killed_walk),
    and its exits are the weighted mass it loses, exact to about 1e-15.
    """
    sizes, observed = _tie_groups(a, b)
    return _permutation_tail(sizes, observed, np.size(a))


def _permutation_tail(sizes, observed: float, n_a: int) -> tuple:
    """:func:`permutation_ks` of a pool given its tie-group ``sizes``, its
    KS distance ``observed`` and the size ``n_a`` of the first sample."""
    if observed == 0.0:
        return 0.0, 1.0
    n = int(sizes.sum())
    n_b = n - n_a
    p_a = n_a / n
    steps = {g: _binom_pmf(g, np.arange(g + 1), p_a)
             for g in np.unique(sizes).tolist()}
    barrier = round(observed * n_a)  # |S| at D, with equal halves
    single = (sizes == 1) & (n_a == n_b)  # a run of these is one walk step
    starts = np.flatnonzero(~single | ~np.append(False, single[:-1]))
    segments = zip(np.add.reduceat(sizes, starts).tolist(),
                   single[starts].tolist())
    mass = np.ones(1)  # over K = lo, lo + 1, ...
    lo = m = 0
    hits = []  # per step: (pool left, A count it must hold, mass) of exits
    for g, run in segments:
        m += g
        if run:  # exits: the weighted mass the walk loses, at pmf(0, 0) = 1
            k = np.arange(lo, lo + mass.size)
            held = np.dot(mass, _binom_pmf(n - m + g, n_a - k, p_a))
            walked = _killed_walk(mass, 2 * k - (m - g) + barrier, barrier, g)
            t0 = 1 + (m - barrier + 1) % 2  # first t in (0, 2k) with K whole
            mass, lo = walked[t0:2 * barrier:2], (t0 - barrier + m) // 2
            k = np.arange(lo, lo + mass.size)
            held -= np.dot(mass, _binom_pmf(n - m, n_a - k, p_a))
            hits.append(([0], [0], [held]))
            hit = np.zeros(mass.size, dtype=bool)
        else:
            mass = np.convolve(mass, steps[g])
            k = np.arange(lo, lo + mass.size)
            hit = np.abs(k / n_a - (m - k) / n_b) >= observed - 1e-12
            hits.append((np.full(np.count_nonzero(hit), n - m), n_a - k[hit],
                         mass[hit]))
        if hit.all():
            break
        # |K/n_a - (M - K)/n_b| is V-shaped in K, so the kept counts are a run.
        mass, lo = mass[~hit], lo + int(np.argmax(~hit))
    rest, need, weight = map(np.concatenate, zip(*hits))
    exceed = max(0.0, float(np.dot(weight, _binom_pmf(rest, need, p_a))))
    return observed, min(1.0, exceed / float(_binom_pmf(n, n_a, p_a)))


def ks_null_calibration(n: int = 2000, repetitions: int = 1000,
                        alpha: float = 0.05,
                        seed: int = CALIBRATION_SEED) -> float:
    """Empirical rejection rate of :func:`ks_two_sample` under the null.

    Draws two identically distributed normal halves of size ``n`` per
    repetition and counts how often the p-value falls below ``alpha``; the
    rate should sit in :data:`CALIBRATION_BAND` around ``alpha`` at the
    sizes the suites use.
    """
    stream = RngStream(seed).child("verify", "ks_calibration")
    rejections = 0
    for i in range(repetitions):
        g = stream.child(i).generator()
        x = g.standard_normal(2 * n)
        _, p = ks_two_sample(x[:n], x[n:])
        if p < alpha:
            rejections += 1
    return rejections / repetitions


# -- functional catalog --------------------------------------------------------


def _value_at_fraction(q: float, path: EventPath) -> float:
    return path.evaluate(q * path.lifetime)


def _pre_value_at_fraction(q: float, path: EventPath) -> float:
    head = pre_sup(path)
    return head.evaluate(q * head.lifetime)


def _loctime_at_fraction(q: float, path: EventPath) -> float:
    return float(local_time_count(path, q * peak_value(path)))


def _width_at_fraction(q: float, wid: WidthProcess) -> float:
    return float(wid.value_at(q * wid.extinction_time))


def _width_left_at_fraction(q: float, wid: WidthProcess) -> float:
    return float(wid.left_limit(q * wid.extinction_time))


class _Functional(NamedTuple):
    evaluate: Callable  # f(obj), or f(q, obj) when ``fraction`` is set
    fraction: bool = False  # takes a ':q' parameter with 0 < q < 1


# Every catalog functional, declared once; ``fraction`` sets the spec syntax.
# The benchmark's tracer swaps pre_sup, post_sup, supremum_swap,
# local_time_count and EventPath.rotate for timing wrappers by attribute, so
# they are looked up at call time (inside the evaluators and builders) and
# never held here.
_FUNCTIONALS = {
    "lifetime": _Functional(attrgetter("lifetime")),
    "height": _Functional(peak_value),
    "argmax_time": _Functional(argmax_time),
    "area": _Functional(EventPath.area),
    "jump_count": _Functional(EventPath.jump_count),
    "max_jump": _Functional(EventPath.max_jump),
    "time_weighted_area": _Functional(WidthProcess.time_weighted_integral),
    "time_weighted_area_reversed": _Functional(
        partial(WidthProcess.time_weighted_integral, reverse=True)),
    "value_at_fraction": _Functional(_value_at_fraction, fraction=True),
    "pre_value_at_fraction": _Functional(_pre_value_at_fraction,
                                         fraction=True),
    "crossing_count_at_fraction": _Functional(_loctime_at_fraction,
                                              fraction=True),
    "width_at_fraction": _Functional(_width_at_fraction, fraction=True),
    "width_left_at_fraction": _Functional(_width_left_at_fraction,
                                          fraction=True),
}


def functional_by_name(spec: str) -> Callable:
    """Resolve ``"area"`` or ``"value_at_fraction:0.3"`` to a callable.

    Fraction-parameterised functionals require a ``:q`` suffix with
    0 < q < 1; plain ones reject any parameter.
    """
    name, _, param = spec.partition(":")
    entry = _FUNCTIONALS.get(name)
    if entry is None:
        raise ValueError(f"unknown functional {spec!r}; known: "
                         f"{', '.join(sorted(_FUNCTIONALS))}")
    if not entry.fraction:
        if param:
            raise ValueError(f"functional {name!r} takes no parameter")
        return entry.evaluate
    if not param:
        raise ValueError(f"functional {name!r} needs a ':q' parameter")
    q = float(param)
    if not 0.0 < q < 1.0:
        raise ValueError("fraction parameter must lie in (0, 1)")
    return partial(entry.evaluate, q)


# -- reports -------------------------------------------------------------------


REPORT_FIELDS = ("suite", "functional", "n_a", "n_b", "statistic",
                 "p_value", "verdict", "seed", "model")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one two-sample comparison inside a suite."""

    suite: str
    functional: str
    n_a: int
    n_b: int
    statistic: float
    p_value: float
    verdict: str  # "Pass" | "Reject"
    seed: int
    model: str  # canonical JSON of the model configuration

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in REPORT_FIELDS}


def reports_to_csv(reports) -> str:
    """CSV rendering (one row per report, header first); deterministic."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for r in reports:
        writer.writerow([r.suite, r.functional, r.n_a, r.n_b,
                         repr(r.statistic), repr(r.p_value), r.verdict,
                         r.seed, r.model])
    return buf.getvalue()


def reports_to_json(reports) -> str:
    """JSON rendering of the reports; deterministic."""
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


@dataclass(frozen=True)
class SuiteResult:
    """All reports of one suite plus the pathwise-exactness tally."""

    suite: str
    reports: tuple
    passed: bool
    exact_checked: int
    exact_failures: int
    vacuous: tuple = ()  # labels of specs that failed by the vacuous rule


# -- samplers ------------------------------------------------------------------


def _blocked(total: int, stream: RngStream, block_fn: Callable) -> list:
    """Draw ``total`` objects in fixed-size blocks.

    Each block gets its own child stream keyed by its index, which fixes
    the draw order of every sample.
    """
    if total < 1:
        raise ValueError("need at least one sample")
    sizes = [BLOCK_SIZE] * (total // BLOCK_SIZE)
    if total % BLOCK_SIZE:
        sizes.append(total % BLOCK_SIZE)
    return [obj for i, k in enumerate(sizes)
            for obj in block_fn(k, stream.child("block", i).generator())]


def _excursion_sampler(model: LevyModel, n: int, stream: RngStream) -> list:
    return _blocked(n, stream,
                    lambda k, g: sample_excursions(model, k, g))


def _pre_sup_sampler(model: LevyModel, n: int, stream: RngStream) -> list:
    return [pre_sup(e) for e in _excursion_sampler(model, n, stream)]


def _post_sup_sampler(model: LevyModel, n: int, stream: RngStream) -> list:
    return [post_sup(e) for e in _excursion_sampler(model, n, stream)]


def _killed_shifted_sampler(x: float, model: LevyModel, n: int,
                            stream: RngStream) -> list:
    """First-passage paths to ``-x`` from 0, shifted at their argmax."""

    def block(k: int, g: np.random.Generator) -> list:
        return [post_sup(p)
                for p in _sample_paths_fv(model, 0.0, FirstPassage(-x), k, g)]

    return _blocked(n, stream, block)


def _killed_sup_sampler(depth: float, model: LevyModel, n: int,
                        stream: RngStream) -> list:
    return _blocked(
        n, stream,
        lambda k, g: sample_killed_sup_excursions(model, k, depth, g))


def _width_sampler(model: LevyModel, n: int, stream: RngStream) -> list:
    jumps = model.jumps
    if jumps.mass <= 0.0:
        raise ValueError("width sampling needs jumps")
    if jumps.mean() >= 1.0:
        raise ValueError("width sampling needs a subcritical lifespan "
                         "measure (mean < 1)")
    return _blocked(
        n, stream,
        lambda k, g: [width_process(sample_tree(jumps, g))
                      for _ in range(k)])


def suite_sampler(name: str, model: Optional[LevyModel] = None,
                  **params) -> Callable:
    """The (untransformed) sampler a suite uses for its B half.

    Returns a callable ``(model, n, stream) -> list``; useful for drawing
    histogram data under the same law a suite tests.  ``params`` are suite
    parameters, as for :func:`run_suite`.
    """
    model = default_model() if model is None else model
    return _suite_specs(name, model, params)[0].sampler_b


# -- suite machinery -----------------------------------------------------------


@dataclass(frozen=True)
class _TestDef:
    functional: str
    f_a: Callable
    f_b: Callable
    required: bool = True
    expect_reject: bool = False


def _test(spec: str, spec_b: Optional[str] = None,
          label: Optional[str] = None, **flags) -> _TestDef:
    """Catalog functional ``spec`` on half A against ``spec_b`` (default the
    same) on half B, reported as ``label`` (default ``spec``)."""
    return _TestDef(label or spec, functional_by_name(spec),
                    functional_by_name(spec_b or spec), **flags)


@dataclass(frozen=True)
class _SuiteSpec:
    label: str
    sampler_a: Callable
    sampler_b: Callable
    transform: Optional[Callable]
    tests: tuple
    exact_check: Optional[Callable]


def _rel_close(x: float, y: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


def _swap_exact(original: EventPath, transformed: EventPath) -> bool:
    """The supremum swap must preserve lifetime, peak, argmax and jumps."""
    return (_rel_close(original.lifetime, transformed.lifetime)
            and _rel_close(peak_value(original), peak_value(transformed))
            and _rel_close(argmax_time(original), argmax_time(transformed))
            and sorted(original.jumps()) == sorted(transformed.jumps()))


def _rotation_exact(original: EventPath, transformed: EventPath) -> bool:
    """Rotation must preserve lifetime and the jump multiset."""
    return (_rel_close(original.lifetime, transformed.lifetime)
            and sorted(original.jumps()) == sorted(transformed.jumps()))


_ROTATION_TESTS = ("area", "value_at_fraction:0.5", "max_jump", "jump_count")


def _rotation_spec(label: str, sampler: Callable,
                   exact_check: Callable = _rotation_exact) -> _SuiteSpec:
    return _SuiteSpec(label, sampler, sampler, methodcaller("rotate"),
                      tuple(map(_test, _ROTATION_TESTS)), exact_check)


def _build_sup_swap(model: LevyModel, params: dict) -> list:
    tests = tuple(map(_test, (
        "area", "value_at_fraction:0.3", "value_at_fraction:0.7", "max_jump",
        "jump_count", "crossing_count_at_fraction:0.25")))
    return [_SuiteSpec("sup_swap", _excursion_sampler, _excursion_sampler,
                       supremum_swap, tests, _swap_exact)]


def _build_pre_sup(model: LevyModel, params: dict) -> list:
    return [_rotation_spec("pre_sup_rotation", _pre_sup_sampler)]


def _build_post_sup(model: LevyModel, params: dict) -> list:
    return [_rotation_spec("post_sup_rotation", _post_sup_sampler)]


def _build_killed_passage(model: LevyModel, params: dict) -> list:
    specs = []
    for x in params["x_values"]:
        if x <= 0.0:
            raise ValueError("passage levels must be positive")
        specs.append(_rotation_spec(
            f"killed_passage_rotation[x={x:g}]",
            partial(_killed_shifted_sampler, float(x))))
    return specs


def _rotation_within_depth(depth: float, original: EventPath,
                           transformed: EventPath) -> bool:
    """Rotation exactness, and the path stays on its side of the event of
    reaching ``-depth``: the sampler conditions on it, so a transform that
    moved a path across it would test the identity on the wrong law.  The
    killed path ends at -depth up to rounding, hence the tolerance."""
    level = -depth + 1e-9
    return (_rotation_exact(original, transformed)
            and (original.inf() <= level) == (transformed.inf() <= level))


def _build_sup_excursion(model: LevyModel, params: dict) -> list:
    depth = float(params["depth"])
    return [_rotation_spec("sup_excursion_rotation",
                           partial(_killed_sup_sampler, depth),
                           partial(_rotation_within_depth, depth))]


# The reversal suites pair the functional at fraction q on half A with its
# mirror at 1 - q on half B.  Specs carry repr(q), which parses back to q
# exactly; the labels keep the shorter :g form.


def _build_loctime_reversal(model: LevyModel, params: dict) -> list:
    tests = tuple(
        _test(f"crossing_count_at_fraction:{q!r}",
              f"crossing_count_at_fraction:{1.0 - q!r}",
              f"crossing_count_at_fraction:{q:g}_vs_{1.0 - q:g}")
        for q in map(float, params["fractions"]))
    return [_SuiteSpec("loctime_reversal", _excursion_sampler,
                       _excursion_sampler, None, tests, None)]


def _build_width_reversal(model: LevyModel, params: dict) -> list:
    tests = tuple(
        _test(f"width_at_fraction:{q!r}",
              f"width_left_at_fraction:{1.0 - q!r}",
              f"width_at_fraction:{q:g}_vs_left_{1.0 - q:g}")
        for q in map(float, params["fractions"]))
    tests += (_test("time_weighted_area", "time_weighted_area_reversed",
                    "time_weighted_area_vs_reversed"),)
    return [_SuiteSpec("width_reversal", _width_sampler, _width_sampler,
                       None, tests, None)]


def _scaled_mass_jumps(jumps, factor: float):
    """The same jump law with its arrival mass scaled by ``factor``."""
    cfg = jumps.to_config()
    family = cfg.get("family")
    if family in ("exp", "dirac"):
        cfg["b"] = cfg["b"] * factor
    elif family == "mixture":
        cfg["components"] = [dict(c, b=c["b"] * factor)
                             for c in cfg["components"]]
    else:
        raise ValueError("negative control needs a model with jumps")
    return jumps_from_config(cfg)


def _mass_loglr(log_inv_factor: float, rate_gap: float,
                path: EventPath) -> float:
    return log_inv_factor * path.jump_count() - rate_gap * path.lifetime


def _build_negative_control(model: LevyModel, params: dict) -> list:
    factor = float(params["mass_factor"])
    if not (factor > 0.0 and math.isfinite(factor)):
        raise ValueError("mass_factor must be positive and finite")
    altered = LevyModel.from_drift(model.drift,
                                   _scaled_mass_jumps(model.jumps, factor))
    # The gate.  The two models share the drift and the normalised jump law;
    # only the arrival rate differs (b against c*b), and the opening jump is
    # drawn from the normalised law.  An excursion with N jumps (the opening
    # one included) and lifetime T therefore has density ratio
    # c^-(N-1) * exp(-(1-c) * b * T) between them, so
    # S = log(1/c) * N - (1-c) * b * T is the log-likelihood ratio up to a
    # constant: the Neyman-Pearson statistic for this pair, whatever the jump
    # family or factor.  S is continuous because T is, so its pool is
    # tie-free and takes the closed-form tail.
    loglr = partial(_mass_loglr, -math.log(factor),
                    (1.0 - factor) * model.jumps.mass)
    gate = _TestDef("loglr_mass_mismatch", loglr, loglr, expect_reject=True)
    # Reported, not gating: lifetime alone is the weakest summary of the
    # pair (KS distance ~0.028 against ~0.056 for S at the defaults).
    lifetime = _test("lifetime", label="lifetime_mass_mismatch",
                     required=False, expect_reject=True)
    # Informational: the pre- and post-supremum parts of the same excursion
    # have no reason to share an area law; the comparison documents the
    # power of the harness and never gates the suite.
    info = _TestDef("abs_area_pre_vs_post",
                    lambda e: abs(pre_sup(e).area()),
                    lambda e: abs(post_sup(e).area()), required=False)
    spec_mismatch = _SuiteSpec(
        "negative_control[mass_mismatch]", _excursion_sampler,
        lambda m, n, s: _excursion_sampler(altered, n, s),
        None, (lifetime, gate), None)
    spec_info = _SuiteSpec(
        "negative_control[pre_vs_post]", _excursion_sampler,
        _excursion_sampler, None, (info,), None)
    return [spec_mismatch, spec_info]


_SUITE_BUILDERS = {
    "sup_swap": _build_sup_swap,
    "pre_sup_rotation": _build_pre_sup,
    "post_sup_rotation": _build_post_sup,
    "killed_passage_rotation": _build_killed_passage,
    "sup_excursion_rotation": _build_sup_excursion,
    "loctime_reversal": _build_loctime_reversal,
    "width_reversal": _build_width_reversal,
    "negative_control": _build_negative_control,
}

SUITE_NAMES = tuple(_SUITE_BUILDERS)

# Suite parameters and their defaults; each builder reads the ones it uses.
SUITE_PARAMS = {
    "x_values": (0.5, 2.0),  # killed_passage_rotation: passage levels
    "depth": 0.5,  # sup_excursion_rotation: kill depth
    "fractions": (0.2, 0.35),  # loctime_reversal, width_reversal
    "mass_factor": 0.8,  # negative_control: jump-mass factor of the mismatch
}


def _suite_specs(name: str, model: LevyModel, params: dict) -> list:
    """The specs of suite ``name`` with ``params`` over the defaults."""
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; known: "
                         f"{', '.join(SUITE_NAMES)}")
    unknown = set(params) - set(SUITE_PARAMS)
    if unknown:
        raise ValueError(f"unknown suite parameters {sorted(unknown)}; "
                         f"known: {', '.join(SUITE_PARAMS)}")
    specs = _SUITE_BUILDERS[name](model, {**SUITE_PARAMS, **params})
    if not specs or not all(spec.tests for spec in specs):
        raise ValueError(f"suite {name!r} with these parameters checks "
                         "nothing")
    return specs


# Per-half sample sizes of the default full run.  The invariance suites pass
# at any size (their null is exactly true), so 2000 keeps them quick.  The
# negative control must *reject* at the 1e-6 threshold.  Its gate, the
# log-likelihood ratio of the mismatched pair, sits at a KS distance of about
# 0.056, for an expected p of ~3e-14 already at 10^4 per half; 40000 keeps a
# wide margin (expected p ~1e-55) and also powers the reported lifetime row
# (distance ~0.028, expected p ~5e-14) at a ~3 s cost.
DEFAULT_SUITE_SIZES = {name: 2000 for name in SUITE_NAMES}
DEFAULT_SUITE_SIZES["negative_control"] = 40000


def _run_spec(spec: _SuiteSpec, model: LevyModel, n: int, stream: RngStream,
              seed: int) -> tuple:
    """Run one spec; returns (reports, passed, checked, failures, vacuous)."""
    objs_a = spec.sampler_a(model, n, stream.child("A"))
    objs_b = spec.sampler_b(model, n, stream.child("B"))
    checked = failures = 0
    if spec.transform is not None:
        transformed = []
        for obj in objs_a:
            out = spec.transform(obj)
            if spec.exact_check is not None:
                checked += 1
                if not spec.exact_check(obj, out):
                    failures += 1
            transformed.append(out)
    else:
        transformed = objs_a

    model_json = json.dumps(model.to_config(), sort_keys=True)
    reports = []
    passed = True
    constant = []  # per required row: one pooled value, a point-mass law
    for test in spec.tests:
        x_a = np.asarray([test.f_a(o) for o in transformed], dtype=float)
        x_b = np.asarray([test.f_b(o) for o in objs_b], dtype=float)
        stat, p = ks_two_sample(x_a, x_b)
        if test.expect_reject:
            verdict = "Reject" if p < REJECT_ALPHA else "Pass"
            ok = verdict == "Reject"
        else:
            verdict = "Pass" if p > PER_FUNCTIONAL_ALPHA else "Reject"
            ok = verdict == "Pass"
        if test.required:
            passed = passed and ok
            constant.append(x_a.min() == x_a.max() == x_b.min() == x_b.max())
        reports.append(TestReport(spec.label, test.functional, x_a.size,
                                  x_b.size, stat, p, verdict, seed,
                                  model_json))
    vacuous = bool(constant) and all(constant)
    return reports, passed and failures == 0, checked, failures, vacuous


def _null_spec(spec: _SuiteSpec) -> _SuiteSpec:
    """The identity version of a spec: no transform, half B mirrors half A."""
    tests = tuple(replace(t, f_b=t.f_a, expect_reject=False)
                  for t in spec.tests)
    return _SuiteSpec(spec.label + "[null]", spec.sampler_a, spec.sampler_a,
                      None, tests, None)


def run_suite(name: str, model: Optional[LevyModel] = None, n: int = 2000,
              seed: int = DEFAULT_SEED, identity_null: bool = False,
              **params) -> SuiteResult:
    """Run one named suite and aggregate its reports.

    ``n`` is the sample count per half.  The invariance suites pass at any
    size; the negative control rejects dependably from about 10^4 per half
    (its gating log-likelihood ratio has a KS distance of about 0.056 between
    the two models, too small for a few thousand per half to reach the 1e-6
    threshold), and :data:`DEFAULT_SUITE_SIZES` ships it at 40000.
    ``identity_null`` replaces the transformation with the identity and
    mirrors the functional pairs, so a correct harness passes at nominal
    rates; it is unavailable for the negative-control suite, whose whole
    point is to differ.  Extra keyword parameters are suite parameters,
    defaulting to :data:`SUITE_PARAMS`; an unknown name raises ValueError.
    A suite ignores the parameters it does not read, so one set can be
    handed to every suite (as :func:`run_suites` does).
    """
    if identity_null and name == "negative_control":
        raise ValueError("the negative-control suite has no null version")
    if model is None:
        model = default_model()
    specs = _suite_specs(name, model, params)
    if identity_null:
        specs = [_null_spec(s) for s in specs]
    stream = RngStream(seed).child("verify", name)
    reports: list = []
    passed = True
    checked = failures = 0
    vacuous = []
    for spec in specs:
        sub = stream.child(spec.label)
        rep, ok, chk, fail, empty = _run_spec(spec, model, n, sub, seed)
        reports.extend(rep)
        passed = passed and ok and not empty
        checked += chk
        failures += fail
        vacuous += [spec.label] if empty else []
    return SuiteResult(name, tuple(reports), passed, checked, failures,
                       tuple(vacuous))


def run_suites(names=None, model: Optional[LevyModel] = None,
               n: Optional[int] = None, seed: int = DEFAULT_SEED,
               **params) -> list:
    """Run several suites; returns a list of :class:`SuiteResult`.

    When ``n`` is omitted each suite uses its entry in
    :data:`DEFAULT_SUITE_SIZES` (the negative control needs a much larger
    sample than the invariance suites to reject dependably).  Every suite
    gets the same suite parameters ``params``.
    """
    names = SUITE_NAMES if names is None else tuple(names)
    if not names:
        raise ValueError("no suites to run")
    results = []
    for name in names:
        count = DEFAULT_SUITE_SIZES.get(name, 2000) if n is None else int(n)
        results.append(run_suite(name, model=model, n=count, seed=seed,
                                 **params))
    return results
