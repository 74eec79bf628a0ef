"""Exact event-driven simulation and excursion extraction.

Finite-variation spectrally positive paths are piecewise linear: slope
``-d`` between upward jumps that arrive at rate ``b`` with sizes drawn
from the normalised jump measure.  :func:`sample_path_fv` simulates such
paths exactly (no discretisation) under one of three stop rules, and the
extraction helpers decompose a path into

* excursions above the running infimum: opened by a jump from a running
  record low, closed when the path drifts back down to the opening level;
* excursions below the running supremum: opened at a record instant,
  closed by the first jump that carries the path to or above the old
  record (that terminal jump is part of the excursion).

Both extractions are exact path surgery; concatenating the pieces (plus
the on-record drift in the infimum case) reproduces the input path.

Every exact draw (paths under each stop rule, conditioned excursions,
killed excursions below the supremum, two-sided exit replications) runs
through one private drift-then-jump kernel.  It draws an exponential wait,
then one jump, and stops when the drift reaches a floor, a jump lands at or
above a ceiling, or the clock reaches a horizon; samplers differ only in
the levels they pass it and in whether they record the segments.

Reproducibility: every sampler takes a ``numpy.random.Generator``.
:class:`RngStream` builds hierarchies of independent, order-insensitive
named streams on top of ``numpy.random.SeedSequence``.  A sampler call draws
exactly the values, in exactly the order, that one scalar draw per wait and
per jump would: ``rng.exponential(mean_wait)`` for each wait, then
``jumps.sample(rng)`` for each jump (and for an excursion's opening jump).
For exponential and Dirac jump laws, whose scalar draws are a scale times
one standard exponential or nothing at all, the kernel takes those values
from ``rng.standard_exponential(k)`` chunks, read ahead; it saves the
generator state before each chunk and, when the call ends (also by an
exception), restores it and redraws the values used from the last chunk.
So the generator is left exactly where scalar draws would leave it, and the
next call, or any other use of the generator, sees the same stream.
Mixture laws keep scalar draws.
"""

from __future__ import annotations

import itertools
import math
import operator
import zlib
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from levyexc.models import DiracJumps, ExponentialJumps, LevyModel
from levyexc.paths import EventPath, Segment

__all__ = [
    "DEFAULT_SEED",
    "RngStream",
    "Horizon",
    "FirstPassage",
    "ExcursionCount",
    "StopRule",
    "sample_path_fv",
    "Excursion",
    "extract_excursions",
    "extract_sup_excursions",
    "AnyExcursion",
    "LifetimeAtLeast",
    "HeightAtLeast",
    "Condition",
    "sample_excursions",
    "sample_killed_sup_excursions",
    "exit_probability_mc",
]

# Guard against runaway event loops (buggy stop rules, critical models).
# Read at call time, so a test can lower it.
DEFAULT_MAX_EVENTS = 5_000_000

# An excursion is considered closed once it comes within this distance of
# its opening level.  Absorbs rounding when a path was assembled from
# events truncated in absolute coordinates; real paths only approach their
# running infimum this closely when actually returning to it.
CLOSE_TOL = 1e-9


# -- random number streams ---------------------------------------------------


# Base seed of every run that is not given one (CLI, suites, rayknight).
DEFAULT_SEED = 7


def _key_part(part) -> int:
    """Stable 32-bit key for a stream-name component (never built-in hash)."""
    if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
        return int(part) & 0xFFFFFFFF
    return zlib.crc32(str(part).encode("utf8"))


@dataclass(frozen=True)
class RngStream:
    """Named, hierarchical random stream.

    ``RngStream(seed).child("suite", 3).generator()`` always yields the
    same generator for the same seed and name path, independently of any
    other stream and of the order streams are created in.
    """

    seed: int
    key: tuple = ()

    def child(self, *parts) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(_key_part(p) for p in parts))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(ss))


# -- stop rules ---------------------------------------------------------------


@dataclass(frozen=True)
class Horizon:
    """Stop at a fixed time (the path ends exactly there)."""

    time: float


@dataclass(frozen=True)
class FirstPassage:
    """Stop when the path first reaches ``level`` from above.

    Downward crossings are continuous, so the path ends exactly at the
    level.  Requires ``level <= x0``.
    """

    level: float


@dataclass(frozen=True)
class ExcursionCount:
    """Stop when the n-th excursion above the infimum closes."""

    count: int


StopRule = Union[Horizon, FirstPassage, ExcursionCount]


# -- exact finite-variation sampling ------------------------------------------


def _check_exact(model: LevyModel):
    """Reject models the drift-then-jump kernel cannot sample exactly."""
    if not model.is_finite_variation:
        raise ValueError("exact sampling needs a finite-variation model")
    if model.drift <= 0.0:
        raise ValueError("sampling needs drift d > 0")


# Standard exponentials drawn ahead per chunk.  Sampler calls draw from
# about 40 values (one exported path) to hundreds of thousands (an exit
# Monte Carlo run); one size serves both, since the state save and resync
# of a chunk cost a few microseconds.
_CHUNK = 256


def _exponential_stream(rng: np.random.Generator) -> tuple:
    """``(draw, resync)``: ``draw()`` returns the next standard exponential
    of ``rng``, ``resync()`` leaves ``rng`` where scalar draws would have.

    The values come from ``rng.standard_exponential(_CHUNK)`` chunks, which
    draw the same values in the same order as that many scalar draws.  The
    generator state is saved before each chunk; ``resync`` restores the
    last saved state and redraws the count used from that chunk.
    """
    size = _CHUNK
    last = [None, iter(())]  # state before the last chunk, its unread rest

    def chunks():
        while True:
            last[0] = rng.bit_generator.state
            last[1] = rest = iter(rng.standard_exponential(size).tolist())
            yield rest

    def resync():
        state, rest = last
        if state is not None:
            rng.bit_generator.state = state
            rng.standard_exponential(size - operator.length_hint(rest))

    return itertools.chain.from_iterable(chunks()).__next__, resync


def _no_resync():
    pass


def _kernel(model: LevyModel, rng: np.random.Generator) -> tuple:
    """What :func:`_drift_jump` reads of ``model`` and ``rng``, set up once
    per sampler call, and the ``resync`` to call when the call ends:
    ``((d, draw_wait, mean_wait, draw_jump, jump_scale), resync)``.

    A wait is ``mean_wait * draw_wait()`` and a jump is ``jump_scale *
    draw_jump()``.  numpy's scalar ``exponential(scale)`` is ``scale`` times
    a standard exponential, so for exponential and Dirac jumps every draw is
    taken from one standard-exponential stream (:func:`_exponential_stream`)
    in the order scalar draws would take it; the sampler calls ``resync`` in
    a ``finally`` so that the generator is left where those draws would
    leave it, also after an exception.  Any other jump law (a mixture draws
    through ``choice``) keeps scalar draws, and a law of mass 0 draws
    nothing.
    """
    d = float(model.drift)  # float segments, as the normal form stores them
    jumps = model.jumps
    b = jumps.mass
    family = type(jumps)
    if family is ExponentialJumps or family is DiracJumps:
        draw_wait, resync = _exponential_stream(rng)
        if family is ExponentialJumps:
            draw_jump, jump_scale = draw_wait, 1.0 / jumps.theta
        else:  # every jump has size c and draws nothing
            draw_jump = itertools.repeat(float(jumps.c)).__next__
            jump_scale = 1.0
    else:
        sample = jumps.sample

        def draw_jump() -> float:
            return float(sample(rng))

        draw_wait, jump_scale = rng.standard_exponential, 1.0
        resync = _no_resync
    if b > 0.0:
        mean_wait = 1.0 / b
    else:  # no jumps: an infinite wait, and nothing drawn
        draw_wait, mean_wait = itertools.repeat(math.inf).__next__, 1.0
    return (d, draw_wait, mean_wait, draw_jump, jump_scale), resync


def _drift_jump(kernel: tuple, v: float, floor: float, ceiling: float,
                horizon: float, excursions: int,
                segs: Optional[list]) -> bool:
    """Run the exact dynamics of a model, given as its :func:`_kernel`,
    from value ``v`` at time 0 until a stop.

    Each step draws an exponential wait and then, unless the run stopped
    during the wait, one jump.  The run stops at whichever comes first:
    the drift reaches ``floor`` (always continuously), a jump lands at or
    above ``ceiling``, or the clock reaches ``horizon``.  Returns True when
    it stopped at the floor.

    With ``excursions = K > 0`` the floor is instead the opening level of
    the current excursion above the running infimum: it is armed by each
    jump taken from the infimum, and the first K - 1 returns to it disarm
    it without stopping, so the run stops when the K-th excursion closes.

    Every segment up to the stop is appended to ``segs`` unless it is None;
    a jump that hits the ceiling is not.  Raises ``RuntimeError`` when
    :data:`DEFAULT_MAX_EVENTS` waits pass without a stop.
    """
    d, draw_wait, mean_wait, draw_jump, jump_scale = kernel
    slope = -d
    t = 0.0
    for _ in range(DEFAULT_MAX_EVENTS):
        wait = mean_wait * draw_wait()
        delta = (v - floor) / d
        if delta <= wait and t + delta <= horizon:
            if excursions > 1:
                excursions -= 1
                floor = -math.inf
            else:
                if segs is not None:
                    segs.append((delta, slope, 0.0))
                return True
        if t + wait >= horizon:
            if segs is not None:
                segs.append((horizon - t, slope, 0.0))
            return False
        jump = jump_scale * draw_jump()
        v += slope * wait
        if v + jump >= ceiling:
            return False
        if segs is not None:
            segs.append((wait, slope, jump))
        if excursions and floor == -math.inf:
            floor = v
        v += jump
        t += wait
    raise RuntimeError(f"no stop within {DEFAULT_MAX_EVENTS} events")


def sample_path_fv(model: LevyModel, x0: float, stop: StopRule,
                   rng: np.random.Generator) -> EventPath:
    """Exact path of a finite-variation model from ``x0`` until ``stop``.

    The path drifts at slope ``-d`` and jumps upward at rate ``b``; all
    event times and values are exact up to float rounding.  Raises
    ``RuntimeError`` if :data:`DEFAULT_MAX_EVENTS` jumps occur before the
    stop rule fires.  ``x0``, a horizon time and a first-passage level must
    be finite (a NaN or infinite one would never stop the kernel).
    """
    return _sample_paths_fv(model, x0, stop, 1, rng)[0]


def _sample_paths_fv(model: LevyModel, x0: float, stop: StopRule, k: int,
                     rng: np.random.Generator) -> list:
    """``k`` independent :func:`sample_path_fv` paths drawn in one sampler
    call: the same paths, and the same generator state after, as ``k``
    calls in a row, with one draw stream for all of them."""
    _check_exact(model)
    x0 = float(x0)
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    floor, horizon, excursions = -math.inf, math.inf, 0
    if isinstance(stop, Horizon):
        horizon = float(stop.time)
        if not math.isfinite(horizon):
            raise ValueError("horizon must be finite")
        if horizon < 0.0:
            raise ValueError("horizon must be >= 0")
    elif isinstance(stop, FirstPassage):
        floor = float(stop.level)
        if not math.isfinite(floor):
            raise ValueError("first-passage level must be finite")
        if floor > x0:
            raise ValueError("first-passage level must be <= x0")
    else:  # ExcursionCount
        if stop.count < 1:
            raise ValueError("excursion count must be >= 1")
        if model.jumps.mass <= 0.0:
            raise ValueError("excursions need jumps")
        excursions = stop.count
    out = []
    kernel, resync = _kernel(model, rng)
    try:
        for _ in range(k):
            segs: list[Segment] = []
            _drift_jump(kernel, x0, floor, math.inf, horizon, excursions,
                        segs)
            out.append(EventPath._from_run(x0, 0.0, segs))
    finally:
        resync()
    return out


# -- excursion extraction ------------------------------------------------------


@dataclass(frozen=True)
class Excursion:
    """One extracted excursion.

    Attributes:
        kind: "above_inf" or "below_sup".
        path: the excursion as a path from (relative) level 0.
        start_time: clock time at which the excursion opened.
        start_local_time: infimum descent (-I) resp. supremum level (S)
            at the opening instant; the natural local-time coordinate.
        complete: False when the input path ended mid-excursion.
    """

    kind: str
    path: EventPath
    start_time: float
    start_local_time: float
    complete: bool


def _check_extractable(path: EventPath):
    if path.initial_jump < 0.0:
        raise ValueError("extraction needs upward jumps")
    for dur, slope, jump in path.segments:
        if slope >= 0.0:
            raise ValueError("extraction needs strictly downward drift")
        if jump < 0.0:
            raise ValueError("extraction needs upward jumps")


def extract_excursions(path: EventPath) -> list:
    """Excursions of ``path`` above its running infimum.

    An excursion opens when a jump occurs while the path sits at its
    running infimum and closes when the path drifts back to the opening
    level.  The excursion path is the piece shifted to start from level 0
    by its opening jump.  Time spent at the infimum between excursions
    belongs to no excursion (that is where local time accrues).
    """
    _check_extractable(path)
    out = []
    v = path.x0 - path.initial_jump  # running value; starts at the pre-start
    t = 0.0
    in_exc = False
    exc_level = exc_start_t = exc_j = u = 0.0
    exc_segs: list[Segment] = []

    def open_exc(jump):
        nonlocal in_exc, exc_level, exc_start_t, exc_j, u, exc_segs
        in_exc, exc_level, exc_start_t = True, v, t
        exc_j, u, exc_segs = jump, jump, []

    def close_exc(complete):
        nonlocal in_exc
        out.append(Excursion("above_inf",
                             EventPath(exc_j, exc_j, tuple(exc_segs)),
                             exc_start_t, -exc_level, complete))
        in_exc = False

    if path.initial_jump > 0.0:
        open_exc(path.initial_jump)

    for dur, slope, jump in path.segments:
        if in_exc:
            u_end = u + slope * dur
            if u_end <= CLOSE_TOL:  # returns to the opening level here
                delta = min(u / -slope, dur)
                exc_segs.append((delta, slope, 0.0))
                close_exc(True)
                v = exc_level + slope * (dur - delta)
                t += dur
                if jump > 0.0:
                    open_exc(jump)
                continue
            exc_segs.append((dur, slope, jump))
            u = u_end + jump
            t += dur
        else:
            v += slope * dur  # on the infimum: every instant is a record
            t += dur
            if jump > 0.0:
                open_exc(jump)
    if in_exc:
        close_exc(False)
    return out


def extract_sup_excursions(path: EventPath) -> list:
    """Excursions of ``path`` below its running supremum.

    A record instant (a jump carrying the path to or above the running
    supremum) terminates the current excursion; the terminal jump is kept
    as the excursion's final jump, so a complete excursion ends at its
    nonnegative overshoot.  Excursion values are relative to the supremum
    at the opening instant, hence nonpositive until the terminal jump.
    """
    _check_extractable(path)
    out = []
    sup = path.x0 - path.initial_jump  # current record level
    t = 0.0
    exc_start_t = 0.0
    y = 0.0  # value relative to the supremum at the opening instant
    exc_segs: list[Segment] = []

    def close_exc(terminal_jump):
        nonlocal exc_segs, y, exc_start_t, sup
        if exc_segs:
            p = EventPath(0.0, 0.0, tuple(exc_segs))
        else:  # record at the opening instant itself (t = 0 jump)
            p = EventPath(terminal_jump, terminal_jump, ())
        out.append(Excursion("below_sup", p, exc_start_t, sup, True))
        sup = sup + y + terminal_jump
        exc_start_t, y, exc_segs = t, 0.0, []

    if path.initial_jump > 0.0:
        close_exc(path.initial_jump)

    for dur, slope, jump in path.segments:
        y_end = y + slope * dur
        t += dur
        if y_end + jump >= 0.0:  # record instant: terminal jump
            exc_segs.append((dur, slope, jump))
            y = y_end
            close_exc(jump)
        else:
            exc_segs.append((dur, slope, jump))
            y = y_end + jump
    if exc_segs:
        out.append(Excursion("below_sup", EventPath(0.0, 0.0, tuple(exc_segs)),
                             exc_start_t, sup, False))
    return out


# -- conditioned excursion sampling -------------------------------------------


@dataclass(frozen=True)
class AnyExcursion:
    """No conditioning: accepts every excursion."""

    def check(self, path: EventPath) -> bool:
        return True


@dataclass(frozen=True)
class LifetimeAtLeast:
    """Condition on the excursion lifetime exceeding a threshold."""

    min_lifetime: float

    def __post_init__(self):
        if not math.isfinite(self.min_lifetime):
            raise ValueError("min_lifetime must be finite")

    def check(self, path: EventPath) -> bool:
        return path.lifetime >= self.min_lifetime


@dataclass(frozen=True)
class HeightAtLeast:
    """Condition on the excursion height (supremum) exceeding a threshold."""

    min_height: float

    def __post_init__(self):
        if not math.isfinite(self.min_height):
            raise ValueError("min_height must be finite")

    def check(self, path: EventPath) -> bool:
        return path.sup() >= self.min_height


Condition = Union[AnyExcursion, LifetimeAtLeast, HeightAtLeast]


def _attempt_cap(n: int) -> int:
    """Rejection attempts allowed for ``n`` accepted draws before the
    conditioned samplers give up with RuntimeError."""
    return max(1000, 10000 * n)


def sample_excursions(model: LevyModel, n: int, rng: np.random.Generator,
                      condition: Condition = AnyExcursion()) -> list:
    """``n`` independent excursions above the infimum, under a condition.

    Each draw opens with a jump from the normalised jump measure and runs
    the exact path until it returns to the opening level; by the strong
    Markov property this is exactly the law of the excursions extracted
    from one long path.  Conditioning is by rejection.  The model must not
    drift to +infinity (excursions would fail to close).
    """
    if model.psi_prime_at_zero() < 0.0:
        raise ValueError("excursions of a model drifting to +inf may never "
                         "close; condition the model first")
    if model.jumps.mass <= 0.0:
        raise ValueError("excursion sampling needs jumps")
    _check_exact(model)
    max_attempts = _attempt_cap(n)
    out = []
    kernel, resync = _kernel(model, rng)
    draw_jump, jump_scale = kernel[3:]
    try:
        for _ in range(max_attempts):
            if len(out) >= n:
                break
            j = jump_scale * draw_jump()
            segs: list[Segment] = []
            _drift_jump(kernel, j, 0.0, math.inf, math.inf, 0, segs)
            exc = EventPath._from_run(j, j, segs)
            if condition.check(exc):
                out.append(exc)
    finally:
        resync()
    if len(out) < n:
        raise RuntimeError(
            f"only {len(out)}/{n} excursions met the condition in "
            f"{max_attempts} attempts")
    return out


def sample_killed_sup_excursions(model: LevyModel, n: int, depth: float,
                                 rng: np.random.Generator) -> list:
    """``n`` excursions below the running supremum, conditioned to reach
    ``-depth`` and killed at that (continuous) passage.

    An excursion below the supremum starts at 0, drifts down at rate ``d``
    and jumps upward; it closes at the first jump that carries it to or
    above 0, and with positive probability it never closes at all.  The
    killed path only depends on the excursion up to its first passage to
    ``-depth``, which happens before any closing jump, so rejection
    sampling never needs to resolve whether the excursion would eventually
    close: a draw is accepted at the passage and rejected at a closing
    jump, whichever comes first.
    """
    _check_exact(model)
    if not (depth > 0.0 and math.isfinite(depth)):
        raise ValueError("depth must be positive and finite")
    max_attempts = _attempt_cap(n)
    out = []
    kernel, resync = _kernel(model, rng)
    try:
        for _ in range(max_attempts):
            if len(out) >= n:
                break
            segs: list[Segment] = []
            if _drift_jump(kernel, 0.0, -depth, 0.0, math.inf, 0, segs):
                out.append(EventPath._from_run(0.0, 0.0, segs))
    finally:
        resync()
    if len(out) < n:
        raise RuntimeError(
            f"only {len(out)}/{n} excursions reached depth {depth} in "
            f"{max_attempts} attempts")
    return out


def exit_probability_mc(model: LevyModel, x: float, a: float, n: int,
                        rng: np.random.Generator) -> float:
    """Monte Carlo estimate of P_x(hit 0 before exceeding ``a``).

    The lower boundary is always reached continuously (by drift) and the
    upper one only by a jump, so the two exit events are unambiguous path
    by path; no path needs to be materialised.
    """
    if not 0.0 < x < a:
        raise ValueError("need 0 < x < a")
    _check_exact(model)
    if n < 1:
        raise ValueError("need at least one replication")
    x = float(x)
    hits = 0
    kernel, resync = _kernel(model, rng)
    try:
        for _ in range(n):
            hits += _drift_jump(kernel, x, 0.0, a, math.inf, 0, None)
    finally:
        resync()
    return hits / n
