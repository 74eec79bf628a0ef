"""Excursion functionals and path transforms around the supremum.

For an excursion ``e`` above the infimum (starts with an upward jump from
0, drifts down between upward jumps, ends on returning to 0), with
``argmax_time(e)`` the first time the supremum is attained:

* :func:`pre_sup` and :func:`post_sup` cut the excursion at the argmax
  segment, the first whose end jump lands on the supremum: ``pre_sup``
  keeps the segments up to and including it, ``post_sup`` the rest,
  recentred to start at 0;
* :func:`supremum_swap` rotates the two halves in place: the pre-supremum
  part is space-time reversed, the post-supremum part likewise, and the
  two are glued back at the (preserved) supremum.  It is an involution
  that fixes the lifetime, the supremum, the argmax time and the jump multiset
  of every single excursion, while swapping the roles of the two halves.
* :func:`pointwise_reflection` maps ``e`` to ``s -> peak - e(s)``,
  turning descent into ascent and upward jumps into downward ones.

The pieces these transforms build skip validation as the
:mod:`levyexc.paths` docstring describes; the final regluing in
:func:`supremum_swap` goes through :func:`~levyexc.paths.concat`, which
validates.

Local time here is the exact crossing count of the piecewise-linear
motion: a segment descending from ``a`` to ``b`` crosses every level in
``(b, a]``, an ascending one every level in ``[a, b)``; jumps cross
nothing (they spend no time).  These half-open choices make the crossing
counts of ``e`` at level ``r`` and of its pointwise reflection at level
``peak - r`` agree exactly.  Dividing counts by the drift speed turns
them into occupation densities.
"""

from __future__ import annotations

import math

from levyexc.paths import EventPath, concat

__all__ = [
    "argmax_time",
    "peak_value",
    "pre_sup",
    "post_sup",
    "supremum_swap",
    "pointwise_reflection",
    "local_time_count",
]


def argmax_time(path: EventPath) -> float:
    """First time the path attains its maximum (post-jump values count)."""
    return path.first_argmax()[0]


def peak_value(path: EventPath) -> float:
    """The attained maximum of the path."""
    return path.first_argmax()[1]


def _cut(path: EventPath) -> tuple:
    """(head, tail, peak): the segments up to and including the argmax
    segment, the segments after it, and the maximum.

    The first maximum is attained at a segment boundary (post-jump values
    count), so the supremum split is a slice; ``head`` is empty when the
    maximum is the value at t = 0.
    """
    i, peak = path._argmax()
    return path.segments[:i + 1], path.segments[i + 1:], peak


def pre_sup(path: EventPath) -> EventPath:
    """The path up to the argmax time, ending at the supremum.

    The argmax time is a jump time whenever the maximum is attained by a jump
    (always, for downward-drifting paths); the cut keeps that jump.
    """
    head, _, _ = _cut(path)
    return EventPath._trusted(path.x0, path.initial_jump, head)


def post_sup(path: EventPath) -> EventPath:
    """The path after the argmax time, recentred to start at 0 from the supremum."""
    _, tail, _ = _cut(path)
    return EventPath._trusted(0.0, 0.0, tail)


def supremum_swap(path: EventPath) -> EventPath:
    """Space-time reverse both halves around the supremum and reglue.

    The pre-supremum half (supremum-attaining jump included) and the
    post-supremum half are each rotated; the rotated pre half ends at the
    supremum, where the rotated post half (translated up by the supremum)
    takes over.  Applying the map twice gives back the original path.
    """
    head, tail, peak = _cut(path)
    left = EventPath._trusted(path.x0, path.initial_jump, head).rotate()
    right = EventPath._trusted(0.0, 0.0, tail).rotate().translate(peak)
    return concat(left, right)


def pointwise_reflection(path: EventPath) -> EventPath:
    """The reflected path ``s -> peak - path(s)``.

    Slopes and jumps change sign; the result ascends between downward
    jumps, starts at ``peak - path(0)`` and ends at ``peak - end value``.
    """
    x0 = peak_value(path) - path.x0
    if not math.isfinite(x0):
        raise ValueError("non-finite x0 or initial_jump")
    segs = tuple((dur, -slope, -jump) for dur, slope, jump in path.segments)
    return EventPath._trusted(x0, -path.initial_jump, segs)


# -- crossing local time -------------------------------------------------------


def local_time_count(path: EventPath, r: float) -> int:
    """Exact number of drift crossings of level ``r``.

    Descending segments cover ``(end, start]``, ascending ones cover
    ``[start, end)``; zero-slope segments are rejected (a plateau at ``r``
    has no meaningful crossing count).
    """
    n = 0
    for i, (dur, slope, jump) in enumerate(path.segments):
        a = path._starts[i]
        b = a + slope * dur
        if slope < 0.0:
            n += b < r <= a
        elif slope > 0.0:
            n += a <= r < b
        else:
            raise ValueError("plateau segment: crossing count undefined")
    return n
