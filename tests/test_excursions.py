"""Tests for excursion functionals: supremum split, swap, reflection,
crossing local time.

The worked excursion used throughout: jump 1 at t=0, drift -1 for 0.5,
jump 2 (landing on the supremum 2.5 at time 0.5), drift -1 for 2.5 back
to 0.  Its image under the supremum swap is derived segment by segment in
the swap test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyexc.excursions import (
    argmax_time,
    local_time_count,
    peak_value,
    pointwise_reflection,
    post_sup,
    pre_sup,
    supremum_swap,
)
from levyexc.models import ExponentialJumps, LevyModel
from levyexc.paths import EventPath, concat
from levyexc.simulate import (
    ExcursionCount,
    FirstPassage,
    HeightAtLeast,
    Horizon,
    RngStream,
    sample_excursions,
    sample_killed_sup_excursions,
    sample_path_fv,
)

EXC = EventPath(1.0, 1.0, ((0.5, -1.0, 2.0), (2.5, -1.0, 0.0)))
MODEL = LevyModel.from_drift(1.0, ExponentialJumps(1.0, 2.0))


def simulated_excursions(n, name):
    return sample_excursions(MODEL, n, RngStream(2024).child(name).generator())


class TestSupremumSplit:
    def test_argmax_and_peak(self):
        assert argmax_time(EXC) == 0.5
        assert peak_value(EXC) == 2.5

    def test_pre_sup_ends_at_peak(self):
        left = pre_sup(EXC)
        assert left == EventPath(1.0, 1.0, ((0.5, -1.0, 2.0),))
        assert left.end_value() == 2.5

    def test_post_sup_starts_at_zero(self):
        right = post_sup(EXC)
        assert right == EventPath(0.0, 0.0, ((2.5, -1.0, 0.0),))
        assert right.end_value() == -2.5  # peak minus excursion end

    def test_split_reconstructs_excursion(self):
        glued = concat(pre_sup(EXC), post_sup(EXC).translate(peak_value(EXC)))
        assert glued == EXC

    def test_cut_survives_tied_segment_end_times(self):
        # The second segment is so short that its end time rounds onto the
        # first one's (1 + 1e-17 == 1), yet its jump carries the path from
        # 0.5 to the peak 3.5.  The cut is by segment, so it keeps that jump.
        e = EventPath(1.0, 1.0, ((1.0, -1.0, 0.5), (1e-17, -1.0, 3.0),
                                 (5.0, -1.0, 0.0)))
        assert pre_sup(e).segments == e.segments[:2]
        assert pre_sup(e).end_value() == peak_value(e) == 3.5
        assert post_sup(e) == EventPath(0.0, 0.0, ((5.0, -1.0, 0.0),))


# Grid step of the generated paths.  Values, drops and jumps are dyadic
# rationals with few bits and slopes are powers of two, so every value the
# path algebra computes is exact and ties of the maximum are exact ties.
STEP = 0.25
SLOPES = st.sampled_from((-0.5, -1.0, -2.0))


@st.composite
def excursion_paths(draw):
    """Excursion-shaped paths: an opening jump from 0, negative slopes and
    positive interior jumps, staying above 0 until the path either drifts
    back to 0 or ends on a jump to a new strict maximum.  Interior jumps may
    land exactly on the running maximum, the opening value included."""
    x0 = v = top = draw(st.integers(1, 8)) * STEP
    segs = []
    for _ in range(draw(st.integers(0, 6))):
        slope = draw(SLOPES)
        low = v - draw(st.integers(1, 3)) * v / 4  # stays above 0
        if draw(st.booleans()):
            jump = top - low  # a tie with the running maximum
        else:
            jump = draw(st.integers(1, 8)) * STEP
        segs.append(((v - low) / -slope, slope, jump))
        v = low + jump
        top = max(top, v)
    slope = draw(SLOPES)
    if draw(st.booleans()):
        segs.append((v / -slope, slope, 0.0))  # drifts back to 0
    else:  # the last jump lands above every earlier value
        jump = top - v / 2 + draw(st.integers(1, 8)) * STEP
        segs.append((v / 2 / -slope, slope, jump))
    return EventPath(x0, x0, tuple(segs))


@settings(derandomize=True, deadline=None)
@given(excursion_paths())
# maximum at t = 0, tied by the jump that ends the first segment
@example(EventPath(2.0, 2.0, ((1.0, -1.0, 1.0), (2.0, -1.0, 0.0))))
# maximum at the last jump
@example(EventPath(1.0, 1.0, ((0.5, -1.0, 2.0),)))
def test_supremum_cut_properties(e):
    peak = peak_value(e)
    head, tail = pre_sup(e), post_sup(e)
    assert concat(head, tail.translate(peak)) == e
    assert supremum_swap(supremum_swap(e)) == e
    assert head.lifetime == argmax_time(e)
    assert head.end_value() == peak


@settings(derandomize=True, deadline=None)
@given(excursion_paths())
def test_rotation_properties(e):
    # Every generated path has pre-start value 0, so rotation is an
    # involution; on the dyadic grid its invariants hold exactly.
    r = e.rotate()
    assert r.rotate() == e
    assert r.lifetime == e.lifetime
    assert sorted(r.jumps()) == sorted(e.jumps())
    assert r.sup() - r.inf() == e.sup() - e.inf()


@settings(derandomize=True, deadline=None)
@given(excursion_paths())
def test_swap_preserves_pathwise_invariants(e):
    # What the sup_swap suite asserts on every sample, exactly here.
    s = supremum_swap(e)
    assert s.lifetime == e.lifetime
    assert peak_value(s) == peak_value(e)
    assert argmax_time(s) == argmax_time(e)
    assert sorted(s.jumps()) == sorted(e.jumps())


@settings(derandomize=True, deadline=None)
@given(excursion_paths())
def test_reflection_transports_crossing_counts(e):
    # Every grid level, breakpoints included: the half-open conventions of
    # descending and ascending legs map onto each other exactly.
    peak = peak_value(e)
    flipped = pointwise_reflection(e)
    grid = STEP / 4
    for k in range(1, int(peak / grid)):
        r = k * grid
        assert local_time_count(flipped, r) == local_time_count(e, peak - r)


def _typed_fields(p):
    scalars = (p.x0, p.initial_jump)
    return (tuple((type(v), repr(v)) for v in scalars), type(p.segments),
            tuple((type(seg), tuple((type(v), repr(v)) for v in seg))
                  for seg in p.segments))


def assert_normal_form(p):
    """``p`` equals its validated form, field for field and type for type.

    Producers that skip validation must emit exactly what
    ``EventPath(...)`` would have built from the same fields.
    """
    assert _typed_fields(p) == _typed_fields(
        EventPath(p.x0, p.initial_jump, p.segments))


@settings(derandomize=True, deadline=None)
@given(excursion_paths(), st.integers(-8, 8))
# an interior zero jump between different slopes: a neighbour pair that
# must stay unmerged through rotation and reflection
@example(EventPath(2.0, 2.0, ((0.5, -1.0, 0.0), (0.25, -2.0, 1.0),
                              (1.0, -2.0, 0.0))), 3)
def test_transforms_emit_normal_form(e, k):
    for p in (e.rotate(), e.translate(k * STEP), pre_sup(e), post_sup(e),
              supremum_swap(e), pointwise_reflection(e)):
        assert_normal_form(p)


def test_sampled_paths_are_in_normal_form():
    stream = RngStream(2024).child("normal-form")
    paths = [sample_path_fv(MODEL, 0.0, stop,
                            stream.child("fv", i, k).generator())
             for i, stop in enumerate((Horizon(3.0), FirstPassage(-2.0),
                                       ExcursionCount(3)))
             for k in range(40)]
    paths += sample_excursions(MODEL, 200, stream.child("any").generator())
    paths += sample_excursions(MODEL, 40, stream.child("high").generator(),
                               HeightAtLeast(1.0))
    paths += sample_killed_sup_excursions(MODEL, 40, 0.5,
                                          stream.child("killed").generator())
    for p in paths:
        assert_normal_form(p)
    # a zero horizon and a start on the passage level stop at once
    for stop in (Horizon(0.0), FirstPassage(1.5)):
        p = sample_path_fv(MODEL, 1.5, stop, stream.child("now").generator())
        assert p == EventPath(1.5, 0.0, ())
        assert_normal_form(p)


class _ScriptedRng:
    """Generator stand-in whose standard exponential draws (waits and, for
    exponential jump laws, jump sizes before scaling) come from a script,
    in order.  Its ``bit_generator.state`` is the position in the script, so
    the kernel can save it, draw ahead and restore it; draws past the end of
    the script are NaN."""

    def __init__(self, values):
        self.values = list(values)
        self.position = 0
        self.bit_generator = self

    @property
    def state(self):
        return {"position": self.position}

    @state.setter
    def state(self, value):
        self.position = value["position"]

    def standard_exponential(self, size):
        chunk = self.values[self.position:self.position + size]
        self.position += size
        return np.array(chunk + [math.nan] * (size - len(chunk)))


# MODEL waits are standard exponentials (jump rate 1) and its jumps are half
# of one (mean jump size 1/2), so each jump entry of a script is twice the
# jump it makes.
class TestDegenerateKernelDraws:
    """Draws that break the normal form are folded as validation folds them."""

    @pytest.mark.parametrize("script, raw", [
        # (wait, jump) pairs then a closing wait: a wait of exactly 0.0 ...
        ([0.3, 2.0, 0.0, 1.0, 10.0],
         ((0.3, -1.0, 1.0), (0.0, -1.0, 0.5), (4.7, -1.0, 0.0))),
        # ... and a jump draw that underflows to 0.0
        ([0.25, 0.0, 0.25, 2.0, 10.0],
         ((0.25, -1.0, 0.0), (0.25, -1.0, 1.0), (4.5, -1.0, 0.0))),
    ])
    def test_path(self, script, raw):
        # the script ends inside the first chunk, and the stand-in is left
        # after the draws the path used
        rng = _ScriptedRng(script)
        p = sample_path_fv(MODEL, 0.0, Horizon(5.0), rng)
        assert p == EventPath(0.0, 0.0, raw)
        assert len(p.segments) == 2
        assert_normal_form(p)
        assert rng.position == len(script)

    def test_excursion(self):
        # opening jump 1, then waits/jumps (0.25, 0.5), (0.0, 0.5), closing
        script = [2.0, 0.25, 1.0, 0.0, 1.0, 10.0]
        (e,) = sample_excursions(MODEL, 1, _ScriptedRng(script))
        assert e == EventPath(1.0, 1.0, ((0.25, -1.0, 0.5), (0.0, -1.0, 0.5),
                                         (1.75, -1.0, 0.0)))
        assert len(e.segments) == 2
        assert_normal_form(e)

    def test_killed_sup_excursion(self):
        # waits/jumps (0.25, 0.125), (0.0, 0.0625), then a wait past -1
        script = [0.25, 0.25, 0.0, 0.125, 10.0]
        (e,) = sample_killed_sup_excursions(MODEL, 1, 1.0,
                                            _ScriptedRng(script))
        assert len(e.segments) == 2
        assert e.end_value() == -1.0
        assert_normal_form(e)


class TestSupremumSwap:
    def test_worked_example(self):
        # Pre half rotated: the supremum-attaining jump 2 moves to t=0 and
        # the opening jump 1 moves to the junction; post half (no jumps)
        # is symmetric under rotation.  Expected path: jump 2, drift 0.5,
        # jump 1 (back on the supremum 2.5), drift 2.5 down to 0.
        swapped = supremum_swap(EXC)
        assert swapped == EventPath(2.0, 2.0, ((0.5, -1.0, 1.0),
                                               (2.5, -1.0, 0.0)))

    def test_involution_on_worked_example(self):
        assert supremum_swap(supremum_swap(EXC)) == EXC

    def test_single_jump_excursion_is_fixed(self):
        e = EventPath(1.5, 1.5, ((1.5, -1.0, 0.0),))
        assert supremum_swap(e) == e

    def test_pathwise_invariants_on_simulated_excursions(self):
        for e in simulated_excursions(200, "swap"):
            s = supremum_swap(e)
            assert s.lifetime == pytest.approx(e.lifetime, rel=1e-12)
            assert peak_value(s) == pytest.approx(peak_value(e), rel=1e-12)
            assert argmax_time(s) == pytest.approx(argmax_time(e), rel=1e-12)
            assert sorted(s.jumps()) == sorted(e.jumps())
            assert s.end_value() == pytest.approx(0.0, abs=1e-9)
            assert supremum_swap(s) == e

    def test_swap_exchanges_half_lifetimes(self):
        for e in simulated_excursions(50, "halves"):
            s = supremum_swap(e)
            assert pre_sup(s).lifetime == pytest.approx(
                argmax_time(e), rel=1e-9)
            assert post_sup(s).lifetime == pytest.approx(
                e.lifetime - argmax_time(e), rel=1e-9)


class TestPointwiseReflection:
    def test_worked_example(self):
        r = pointwise_reflection(EXC)
        assert r == EventPath(1.5, -1.0, ((0.5, 1.0, -2.0), (2.5, 1.0, 0.0)))
        assert r.evaluate(0.0) == 1.5  # peak - exc(0)
        assert r.end_value() == 2.5    # peak - 0

    def test_is_involution_up_to_peak(self):
        # Reflecting twice restores the original for paths whose peak is
        # attained (peak of the reflection is peak - inf = peak here).
        for e in simulated_excursions(100, "refl"):
            back = pointwise_reflection(pointwise_reflection(e))
            assert back.x0 == pytest.approx(e.x0, rel=1e-12)
            assert back.segments == e.segments

    def test_crossing_counts_transport(self):
        # Counts of the reflection at r equal counts of the original at
        # peak - r, exactly, for levels away from breakpoints.
        rng = np.random.default_rng(99)
        for e in simulated_excursions(100, "counts"):
            refl = pointwise_reflection(e)
            peak = peak_value(e)
            for _ in range(5):
                r = rng.uniform(1e-6, peak - 1e-6) if peak > 2e-6 else 0.5 * peak
                assert local_time_count(refl, r) == \
                    local_time_count(e, peak - r)


class TestCrossingCounts:
    def test_worked_counts(self):
        # Descending legs: 1 -> 0.5 covering (0.5, 1], and 2.5 -> 0
        # covering (0, 2.5].
        assert local_time_count(EXC, 0.75) == 2
        assert local_time_count(EXC, 2.0) == 1
        assert local_time_count(EXC, 1.0) == 2   # closed top of (0.5, 1]
        assert local_time_count(EXC, 0.5) == 1   # open bottom of (0.5, 1]
        assert local_time_count(EXC, 2.5) == 1
        assert local_time_count(EXC, 3.0) == 0
        assert local_time_count(EXC, 0.0) == 0   # open bottom of (0, 2.5]

    def test_ascending_convention(self):
        p = EventPath(0.0, 0.0, ((1.0, 1.0, -1.0),))
        assert local_time_count(p, 0.0) == 1   # closed bottom of [0, 1)
        assert local_time_count(p, 1.0) == 0   # open top
        assert local_time_count(p, 0.5) == 1

    def test_plateau_rejected(self):
        p = EventPath(0.0, 0.0, ((1.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            local_time_count(p, 0.5)

    def test_occupation_identity_exact(self):
        # Occupation density = crossings / drift speed: the time the worked
        # excursion spends in the band [0.7, 0.8), summed exactly over its
        # segments and divided by the band width, is counts/d = 2/1.
        low, high = 0.7, 0.8
        crossings = local_time_count(EXC, 0.75)  # constant on the band
        assert crossings == 2
        occupation = 0.0
        for i, (dur, slope, _) in enumerate(EXC.segments):
            a = EXC._starts[i]
            b = a + slope * dur
            overlap = min(max(a, b), high) - max(min(a, b), low)
            occupation += max(overlap, 0.0) / abs(slope)
        assert occupation / (high - low) == pytest.approx(crossings / 1.0,
                                                          rel=1e-12)
