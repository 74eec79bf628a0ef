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
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class EventPath:
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

    # -- derived tables -------------------------------------------------

    @cached_property
    def _times(self) -> tuple[float, ...]:
        """Cumulative segment end times t_1 <= ... <= t_n."""
        times, t = [], 0.0
        for dur, _, _ in self.segments:
            t += dur
            times.append(t)
        return tuple(times)

    @cached_property
    def _starts(self) -> tuple[float, ...]:
        """Value at the start of each segment (post-jump)."""
        starts, v = [], self.x0
        for dur, slope, jump in self.segments:
            starts.append(v)
            v += slope * dur + jump
        return tuple(starts)

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

    def kill(self, s: float) -> "EventPath":
        """Freeze the path at time s (constant afterwards).

        Killing at a jump time keeps the jump: the killed path ends at the
        post-jump value.  ``s >= lifetime`` returns the path unchanged and
        ``s = 0`` returns the constant path at the (post-jump) start value.
        """
        if s < 0.0:
            raise ValueError(f"kill time {s!r} < 0")
        if s >= self.lifetime:
            return self
        if s == 0.0:
            return EventPath(self.x0, self.initial_jump, ())
        kept: list[Segment] = []
        for i, (dur, slope, jump) in enumerate(self.segments):
            t_end = self._times[i]
            if s >= t_end:
                kept.append((dur, slope, jump))  # jump at t_end == s retained
                if s == t_end:
                    break
            else:
                t_start = self._times[i - 1] if i > 0 else 0.0
                kept.append((s - t_start, slope, 0.0))
                break
        return EventPath(self.x0, self.initial_jump, tuple(kept))

    def shift(self, s: float) -> "EventPath":
        """The path from time s onward, t -> p(s + t), values unchanged."""
        if s < 0.0 or s > self.lifetime:
            raise ValueError(f"shift time {s!r} outside [0, {self.lifetime!r}]")
        if s == 0.0:
            return EventPath(self.x0, 0.0, self.segments)
        v0 = self.evaluate(s)
        kept: list[Segment] = []
        for i, (dur, slope, jump) in enumerate(self.segments):
            t_end = self._times[i]
            if t_end <= s:
                continue
            # Compare against the stored breakpoint, not t_end - dur: the
            # recomputed difference can miss an exact breakpoint by an ulp.
            t_start = self._times[i - 1] if i > 0 else 0.0
            if t_start < s:
                kept.append((t_end - s, slope, jump))
            else:
                kept.append((dur, slope, jump))
        return EventPath(v0, 0.0, tuple(kept))

    def shift_centered(self, s: float) -> "EventPath":
        """The recentered shift t -> p(s + t) - p(s); starts at 0."""
        p = self.shift(s)
        return EventPath(0.0, 0.0, p.segments)

    def translate(self, dy: float) -> "EventPath":
        """Vertical translation by dy."""
        return EventPath(self.x0 + dy, self.initial_jump, self.segments)

    def rotate(self) -> "EventPath":
        """Space-time reversal q(t) = p(V) - p((V - t)-).

        The result starts at the final jump of ``p`` (q(0) = p(V) - p(V-)),
        carries the interior jumps in reverse order, and ends with a jump of
        the original ``initial_jump``, finishing at ``p(V)`` minus the
        pre-start value.  Durations, slopes and the jump multiset are
        preserved exactly; rotating twice reproduces any path with pre-start
        value 0.
        """
        segs = self.segments
        if not segs:
            return EventPath(self.initial_jump, self.initial_jump, ())
        last_jump = segs[-1][2]
        out: list[Segment] = []
        for i in range(len(segs) - 1, -1, -1):
            dur, slope, _ = segs[i]
            jump_after = segs[i - 1][2] if i > 0 else self.initial_jump
            out.append((dur, slope, jump_after))
        return EventPath(last_jump, last_jump, tuple(out))

    # -- extrema ----------------------------------------------------------

    def first_argmax(self) -> tuple[float, float]:
        """Smallest (t, p(t)) attaining the max over attained values.

        Post-jump values count; for paths whose supremum is attained (all
        downward-drifting jump paths) this is the supremum.
        """
        best_t, best_v = 0.0, self.x0
        for i, (dur, slope, jump) in enumerate(self.segments):
            w = self._starts[i] + slope * dur + jump
            if w > best_v:
                best_t, best_v = self._times[i], w
        return best_t, best_v

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

    def total_variation(self) -> float:
        """Total variation on [0, lifetime], the time-0 jump included."""
        tv = abs(self.initial_jump)
        for dur, slope, jump in self.segments:
            tv += abs(slope) * dur + abs(jump)
        return tv


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


def path_to_json(p: EventPath) -> str:
    return json.dumps(path_to_dict(p), sort_keys=True)


def path_from_json(s: str) -> EventPath:
    return path_from_dict(json.loads(s))
