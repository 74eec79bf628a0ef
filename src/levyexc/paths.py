"""Piecewise-linear cadlag path algebra.

One immutable path type, :class:`EventPath`: an initial value (possibly
reached by a jump at t = 0), followed by constant-slope segments, each
ending in a jump.  It is the output of exact finite-variation simulation and
of every path transform in the toolkit.

Conventions shared by all operations:

* Paths are cadlag on ``[0, lifetime]`` and constant after their lifetime.
* The value at a jump time is the post-jump value; ``left_limit`` gives the
  pre-jump value.
* A path may carry a jump at t = 0 (``initial_jump``); its pre-start value
  is ``x0 - initial_jump``.  Excursion-like paths have pre-start value 0.
* ``rotate`` is the space-time reversal q(t) = p(V) - p((V-t)-), with the
  pre-start value serving as the left limit at 0.  Under this bookkeeping
  the initial jump and the final jump trade places, the jump multiset and
  all segment durations/slopes are preserved exactly, and rotating twice
  reproduces any path whose pre-start value is 0.

Normal form.  Every ``EventPath`` holds its fields in normal form: ``x0``
and ``initial_jump`` are finite floats, and ``segments`` is a tuple of
finite-float triples in which every duration is > 0 and no neighbour pair
is one that :func:`_normalize` would merge (an end jump of exactly 0 before
a slope within ``MERGE_TOL``).  ``EventPath(...)`` validates and normalises
its arguments; it is the constructor for all outside input (JSON through
:func:`path_from_dict`, user code), for :func:`concat`, which can create
mergeable neighbours, and for the ``extract_*`` helpers, whose cut at a
passage can leave a zero duration.  Two private constructors skip that
pass, and this is the one list of the producers that use them:

* ``EventPath._trusted`` writes fields that are in normal form by
  construction straight into their slots: ``rotate`` and ``translate``
  here (they keep every duration, slope and jump), and
  :func:`~levyexc.excursions.pre_sup`,
  :func:`~levyexc.excursions.post_sup`, the two rotated halves inside
  :func:`~levyexc.excursions.supremum_swap` and
  :func:`~levyexc.excursions.pointwise_reflection` (slices and sign flips
  of a path in normal form);
* ``EventPath._from_run`` takes a run of float segments as the
  drift-then-jump kernel of :mod:`levyexc.simulate` writes it (the outputs
  of ``sample_path_fv``, ``sample_excursions`` and
  ``sample_killed_sup_excursions``).  It checks the run and sends one that
  breaks the form (a zero horizon, a start on the passage level, a wait or
  a jump of exactly 0.0) through validation, so every output is what
  validation builds.

Storage.  ``EventPath`` is a frozen dataclass with slots and no per-instance
``__dict__``, which keeps the many short-lived paths of a run small and
cheap for the cyclic collector.  Besides its three fields it has two slots
for derived tables, ``_times`` (cumulative segment end times) and
``_starts`` (the value at the start of each segment).  Neither constructor
fills them: the first read of an unset table slot computes and stores it,
without a lock, and later reads are plain slot reads.  ``pickle`` and
``copy`` carry only the fields, so a copy starts with its tables unset;
equality and hashing also read only the fields.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

# Absolute tolerance for merging adjacent equal-slope segments and for
# dropping numerically-zero junction jumps in concat().
MERGE_TOL = 1e-12

Segment = tuple[float, float, float]  # (duration, slope, end_jump)


def _normalize(segments) -> tuple[Segment, ...]:
    """Validate raw segments, fold zero durations, merge equal slopes."""
    out: list[list[float]] = []
    for raw in segments:
        dur, slope, jump = (float(v) for v in raw)
        if not (math.isfinite(dur) and math.isfinite(slope) and math.isfinite(jump)):
            raise ValueError(f"non-finite segment {raw!r}")
        if dur < 0.0:
            raise ValueError(f"negative segment duration {dur!r}")
        if dur == 0.0:
            # A zero-duration segment is just a jump at an existing instant;
            # fold it into the previous segment's end jump.
            if jump != 0.0:
                if not out:
                    raise ValueError("zero-duration segment at t=0; fold into initial_jump")
                out[-1][2] += jump
            continue
        if out and out[-1][2] == 0.0 and abs(out[-1][1] - slope) <= MERGE_TOL:
            out[-1][0] += dur
            out[-1][2] = jump
        else:
            out.append([dur, slope, jump])
    return tuple((d, s, j) for d, s, j in out)


class _Tables:
    """Slots for the derived tables of :class:`EventPath`, filled on first
    read.  An unset slot (a fresh path, or one made by ``pickle`` or
    ``copy``, which carry only the fields) means "not computed yet"."""

    __slots__ = ("_times", "_starts")

    def __getattr__(self, name: str):
        # Called only when normal lookup fails, so only for an unset slot
        # (or an unknown name) and never again once a table is stored.
        if name == "_times":
            times, t = [], 0.0
            for dur, _, _ in self.segments:
                t += dur
                times.append(t)
            value = tuple(times)
        elif name == "_starts":
            starts, v = [], self.x0
            for dur, slope, jump in self.segments:
                starts.append(v)
                v += slope * dur + jump
            value = tuple(starts)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value


@dataclass(frozen=True, slots=True)
class EventPath(_Tables):
    """Exact piecewise-linear cadlag path.

    Attributes:
        x0: value at t = 0, after the time-0 jump if any.
        initial_jump: jump size at t = 0 (0.0 for none).  The pre-start
            value is ``x0 - initial_jump``.
        segments: tuple of ``(duration, slope, end_jump)``; the path follows
            each slope for its duration and then jumps by ``end_jump``.
            Jumps are usually upward (spectrally positive sampling) but any
            finite size is accepted so that pointwise reflections remain
            representable.

    A path has slots and no ``__dict__``.  Its two derived tables fill
    slots of :class:`_Tables` on first read: ``_times``, the cumulative
    segment end times t_1 <= ... <= t_n, and ``_starts``, the (post-jump)
    value at the start of each segment.
    """

    x0: float = 0.0
    initial_jump: float = 0.0
    segments: tuple[Segment, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.initial_jump)):
            raise ValueError("non-finite x0 or initial_jump")
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "initial_jump", float(self.initial_jump))
        object.__setattr__(self, "segments", _normalize(self.segments))

    @classmethod
    def _trusted(cls, x0: float, initial_jump: float,
                 segments: tuple[Segment, ...]) -> "EventPath":
        """Build from fields already in normal form, without validation.

        The caller guarantees what ``__post_init__`` establishes (see the
        module docstring): finite float ``x0`` and ``initial_jump``, and a
        tuple of finite-float segments with durations > 0 and no neighbour
        pair that :func:`_normalize` would merge.  The fields go straight
        into their slots; the tables are left unset.
        """
        p = _new(cls)
        _set_x0(p, x0)
        _set_initial_jump(p, initial_jump)
        _set_segments(p, segments)
        return p

    @classmethod
    def _from_run(cls, x0: float, initial_jump: float,
                  segments: list[Segment]) -> "EventPath":
        """Build from float fields, validating only a run that needs it.

        A run whose durations are all > 0, whose end jumps before the last
        segment are all nonzero and whose values are all finite is in
        normal form whatever its slopes: :func:`_normalize` merges only
        across an end jump of exactly 0.  Such a run is stored as it is;
        any other run (an empty one included) goes through
        ``EventPath(...)``, which folds it.  One pass checks all three:
        a sum of floats is finite only if every term is.
        """
        if segments:
            total, before = x0 + initial_jump, 1.0  # before: previous jump
            for dur, slope, jump in segments:
                if before == 0.0 or not dur > 0.0:
                    break
                total += dur + slope + jump
                before = jump
            else:
                if math.isfinite(total):
                    return cls._trusted(x0, initial_jump, tuple(segments))
        return cls(x0, initial_jump, tuple(segments))

    @property
    def lifetime(self) -> float:
        return self._times[-1] if self.segments else 0.0

    def end_value(self) -> float:
        """Value at the lifetime (final jump included)."""
        if not self.segments:
            return self.x0
        dur, slope, jump = self.segments[-1]
        return self._starts[-1] + slope * dur + jump

    # -- evaluation ------------------------------------------------------

    def evaluate(self, t: float) -> float:
        """Cadlag value at time t; constant after the lifetime."""
        if t < 0.0:
            raise ValueError(f"time {t!r} < 0")
        if not self.segments or t == 0.0:
            return self.x0
        if t >= self.lifetime:
            return self.end_value()
        i = bisect_right(self._times, t)
        t_start = self._times[i - 1] if i > 0 else 0.0
        dur, slope, jump = self.segments[i]
        if t == t_start:  # exactly on the previous boundary: post-jump start
            return self._starts[i]
        return self._starts[i] + slope * (t - t_start)

    def left_limit(self, t: float) -> float:
        """Limit from the left at t; equals evaluate(0) at t = 0."""
        if t < 0.0:
            raise ValueError(f"time {t!r} < 0")
        if t == 0.0 or not self.segments:
            return self.evaluate(t)
        if t > self.lifetime:
            return self.end_value()
        i = (bisect_right(self._times, t) if t < self.lifetime
             else len(self.segments) - 1)
        t_start = self._times[i - 1] if i > 0 else 0.0
        if t == t_start:  # boundary: limit comes from the previous segment
            i -= 1
            t_start = self._times[i - 1] if i > 0 else 0.0
        dur, slope, jump = self.segments[i]
        return self._starts[i] + slope * (t - t_start)

    # -- path surgery ----------------------------------------------------

    def translate(self, dy: float) -> "EventPath":
        """Vertical translation by dy."""
        x0 = self.x0 + dy
        if not math.isfinite(x0):
            raise ValueError("non-finite x0 or initial_jump")
        return EventPath._trusted(float(x0), self.initial_jump, self.segments)

    def rotate(self) -> "EventPath":
        """Space-time reversal q(t) = p(V) - p((V - t)-).

        The result starts at the final jump of ``p`` (q(0) = p(V) - p(V-)),
        carries the interior jumps in reverse order, and ends with a jump of
        the original ``initial_jump``, finishing at ``p(V)`` minus the
        pre-start value.  Durations, slopes and the jump multiset are
        preserved exactly; rotating twice reproduces any path with pre-start
        value 0.

        Each output neighbour pair carries the same durations, slopes and
        separating jump as an input pair, so the output is in normal form.
        """
        segs = self.segments
        if not segs:
            return EventPath._trusted(self.initial_jump, self.initial_jump, ())
        last_jump = segs[-1][2]
        out: list[Segment] = []
        for i in range(len(segs) - 1, -1, -1):
            dur, slope, _ = segs[i]
            jump_after = segs[i - 1][2] if i > 0 else self.initial_jump
            out.append((dur, slope, jump_after))
        return EventPath._trusted(last_jump, last_jump, tuple(out))

    # -- extrema ----------------------------------------------------------

    def _argmax(self) -> tuple[int, float]:
        """(i, value) of the first maximal attained value.

        Post-jump values count, so the maximum is attained at t = 0
        (``i = -1``) or at the end of segment ``i``, a segment boundary.
        """
        best_i, best_v = -1, self.x0
        for i, (start, (dur, slope, jump)) in enumerate(
                zip(self._starts, self.segments)):
            w = start + slope * dur + jump
            if w > best_v:
                best_i, best_v = i, w
        return best_i, best_v

    def first_argmax(self) -> tuple[float, float]:
        """Smallest (t, p(t)) attaining the max over attained values.

        Post-jump values count; for paths whose supremum is attained (all
        downward-drifting jump paths) this is the supremum.
        """
        i, v = self._argmax()
        return (self._times[i] if i >= 0 else 0.0), v

    def _range_values(self) -> list[float]:
        """Closure of the range on [0-, lifetime].

        Contains the pre-start value, both endpoint values of every
        segment, and every left limit.  Rotation maps this set onto
        ``p(V)`` minus itself, so ``sup() - inf()`` is rotation invariant.
        """
        vals = [self.x0 - self.initial_jump, self.x0]
        for i, (dur, slope, jump) in enumerate(self.segments):
            v_pre = self._starts[i] + slope * dur
            vals.append(v_pre)  # left limit at the segment end
            vals.append(v_pre + jump)
        return vals

    def sup(self) -> float:
        return max(self._range_values())

    def inf(self) -> float:
        return min(self._range_values())

    # -- derived functionals ----------------------------------------------

    def area(self) -> float:
        """Lebesgue integral of the path over [0, lifetime]."""
        total = 0.0
        for i, (dur, slope, jump) in enumerate(self.segments):
            w = self._starts[i]
            total += (w + 0.5 * slope * dur) * dur
        return total

    def jumps(self) -> tuple[float, ...]:
        """All nonzero jump sizes, the time-0 jump included."""
        out = [self.initial_jump] if self.initial_jump != 0.0 else []
        out.extend(j for _, _, j in self.segments if j != 0.0)
        return tuple(out)

    def jump_count(self) -> int:
        return len(self.jumps())

    def max_jump(self) -> float:
        js = self.jumps()
        return max(js) if js else 0.0


# What ``EventPath._trusted`` calls: the object allocator and the field
# slots' setters, which a frozen dataclass's own __setattr__ refuses.
_new = object.__new__
_set_x0 = EventPath.x0.__set__
_set_initial_jump = EventPath.initial_jump.__set__
_set_segments = EventPath.segments.__set__


def concat(p1: EventPath, p2: EventPath) -> EventPath:
    """Concatenation: p1 on [0, V1], then p2 resumed at its own values.

    A junction jump of size p2(0) - p1(V1) is recorded at V1 when the two
    values differ (junctions below ``MERGE_TOL`` in magnitude are dropped).
    Downward junctions are rejected; in the spectrally positive world every
    legal concatenation jumps upward.
    """
    junction = p2.evaluate(0.0) - p1.end_value()
    if abs(junction) <= MERGE_TOL:
        junction = 0.0
    if junction < 0.0:
        raise ValueError(f"downward junction jump {junction!r}")
    if not p1.segments:
        return EventPath(p2.x0, p1.initial_jump + junction, p2.segments)
    segs = list(p1.segments)
    dur, slope, jump = segs[-1]
    segs[-1] = (dur, slope, jump + junction)
    segs.extend(p2.segments)
    return EventPath(p1.x0, p1.initial_jump, tuple(segs))


# -- serialization ---------------------------------------------------------


def path_to_dict(p: EventPath) -> dict:
    return {
        "x0": p.x0,
        "initial_jump": p.initial_jump,
        "segments": [list(seg) for seg in p.segments],
    }


def path_from_dict(d: dict) -> EventPath:
    if "segments" not in d:
        raise ValueError("not a path document: expected 'segments'")
    return EventPath(d["x0"], d.get("initial_jump", 0.0),
                     tuple(tuple(s) for s in d["segments"]))

