"""Tests for the piecewise-linear path algebra.

Expected values are derived by hand from the defining formulas; each
nontrivial constant is justified in a comment next to its assertion.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from levyexc.paths import (
    EventPath,
    concat,
    path_from_dict,
    path_to_dict,
)

# One up-jump of 1 at t=0, slope -1 for 0.5, up-jump 2, slope -1 for 2.5.
# Values: 1 at t=0, 0.5 at t=0.5-, 2.5 at t=0.5, 0 at t=3.
WORKED = EventPath(x0=1.0, initial_jump=1.0,
                   segments=((0.5, -1.0, 2.0), (2.5, -1.0, 0.0)))


def random_fv_path(rng, n_segments, with_final_jump=True):
    """Excursion-shaped path: up-jump at 0, slope -1, upward interior jumps."""
    j0 = rng.uniform(0.5, 2.0)
    segs = []
    for k in range(n_segments):
        last = k == n_segments - 1
        jump = 0.0 if (last and not with_final_jump) else rng.uniform(0.1, 2.0)
        segs.append((rng.uniform(0.1, 1.0), -1.0, jump))
    return EventPath(j0, j0, tuple(segs))


class TestConstruction:
    def test_zero_duration_segment_folds_into_previous_jump(self):
        p = EventPath(0.0, 0.0, ((1.0, -1.0, 0.5), (0.0, 7.0, 2.0), (1.0, -1.0, 0.0)))
        assert p.segments == ((1.0, -1.0, 2.5), (1.0, -1.0, 0.0))

    def test_zero_duration_segment_at_origin_rejected(self):
        with pytest.raises(ValueError):
            EventPath(0.0, 0.0, ((0.0, 1.0, 1.0),))

    def test_adjacent_equal_slope_segments_merge(self):
        p = EventPath(0.0, 0.0, ((1.0, -1.0, 0.0), (2.0, -1.0, 0.5)))
        assert p.segments == ((3.0, -1.0, 0.5),)

    def test_different_slopes_do_not_merge(self):
        p = EventPath(0.0, 0.0, ((1.0, -1.0, 0.0), (2.0, 1.0, 0.0)))
        assert len(p.segments) == 2

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EventPath(0.0, 0.0, ((-1.0, 1.0, 0.0),))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EventPath(math.nan, 0.0, ())
        with pytest.raises(ValueError):
            EventPath(0.0, 0.0, ((1.0, math.inf, 0.0),))


class TestPathType:
    """Slots instead of a ``__dict__``, and tables filled on first read."""

    def test_no_instance_dict(self):
        assert not hasattr(WORKED, "__dict__")
        with pytest.raises(AttributeError):
            WORKED._no_such_table

    def test_fields_are_the_three_attributes(self):
        assert [f.name for f in dataclasses.fields(EventPath)] == [
            "x0", "initial_jump", "segments"]

    def test_read_tables_leave_equality_and_hash(self):
        read = EventPath(WORKED.x0, WORKED.initial_jump, WORKED.segments)
        assert read.lifetime == 3.0 and read.area() == WORKED.area()
        fresh = EventPath(WORKED.x0, WORKED.initial_jump, WORKED.segments)
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert read._times == (0.5, 3.0)
        assert read._starts == (1.0, 2.5)

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy])
    @pytest.mark.parametrize("read_first", [False, True])
    def test_clones_evaluate_identically(self, clone, read_first):
        p = random_fv_path(np.random.default_rng(8), 6)
        if read_first:
            p.evaluate(0.5)
        q = clone(p)
        assert q == p and hash(q) == hash(p)
        assert not hasattr(q, "__dict__")
        for t in np.linspace(0.0, p.lifetime + 1.0, 41):
            assert q.evaluate(t) == p.evaluate(t)
        assert (q.sup(), q.area()) == (p.sup(), p.area())

    def test_frozen(self):
        p = EventPath(1.0, 1.0, WORKED.segments)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x0 = 2.0
        assert p.x0 == 1.0


class TestEvaluation:
    def test_worked_path_values(self):
        p = WORKED
        assert p.lifetime == 3.0
        assert p.evaluate(0.0) == 1.0
        assert p.evaluate(0.25) == 0.75
        # t = 0.5 is a jump time: cadlag value is post-jump.
        assert p.evaluate(0.5) == 2.5
        assert p.left_limit(0.5) == 0.5
        assert p.evaluate(1.5) == 1.5
        assert p.evaluate(3.0) == 0.0
        assert p.left_limit(3.0) == 0.0
        # Constant after the lifetime.
        assert p.evaluate(10.0) == 0.0

    def test_left_limit_at_origin_is_post_jump_value(self):
        assert WORKED.left_limit(0.0) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            WORKED.evaluate(-0.1)

    def test_end_value_includes_final_jump(self):
        p = EventPath(0.0, 0.0, ((1.0, -1.0, 3.0),))
        assert p.end_value() == 2.0  # 0 - 1 + 3

    def test_empty_path_is_constant(self):
        p = EventPath(1.5, 0.5, ())
        assert p.lifetime == 0.0
        assert p.evaluate(0.0) == 1.5
        assert p.evaluate(2.0) == 1.5


class TestSurgery:
    def test_translate(self):
        p = WORKED.translate(2.0)
        assert p.evaluate(0.0) == 3.0
        assert p.initial_jump == 1.0


class TestRotation:
    # p: jump 2 at t=0, slope -1 for 0.5, jump 1, slope -1 for 1.0, final
    # jump 3.  Values: 2, then 1.5 at 0.5-, 2.5 at 0.5, 1.5 at 1.5-, 4.5.
    P = EventPath(2.0, 2.0, ((0.5, -1.0, 1.0), (1.0, -1.0, 3.0)))

    def test_rotation_of_worked_example(self):
        # By q(t) = p(V) - p((V-t)-) with p(V) = 4.5:
        #   q(0) = 4.5 - 1.5 = 3 (the final jump of p), then slope -1 for
        #   1.0, jump 1 (p's interior jump), slope -1 for 0.5, ending with
        #   a jump of 2 (p's initial jump) at q(V) = 4.5 - 0 = 4.5.
        q = self.P.rotate()
        assert q == EventPath(3.0, 3.0, ((1.0, -1.0, 1.0), (0.5, -1.0, 2.0)))

    def test_rotation_matches_defining_formula_pointwise(self):
        p, q = self.P, self.P.rotate()
        V = p.lifetime
        end = p.evaluate(V)
        for t in [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.4999]:
            assert q.evaluate(t) == pytest.approx(end - p.left_limit(V - t), abs=1e-12)
        # t = V uses the pre-start value of p as the left limit at 0.
        assert q.end_value() == end - (p.x0 - p.initial_jump)

    def test_rotation_is_involutive(self):
        assert self.P.rotate().rotate() == self.P

    def test_rotation_swaps_initial_and_final_jumps(self):
        q = self.P.rotate()
        assert q.initial_jump == 3.0
        assert q.segments[-1][2] == 2.0

    def test_rotation_preserves_exact_invariants(self):
        rng = np.random.default_rng(20240811)
        for _ in range(50):
            p = random_fv_path(rng, int(rng.integers(1, 12)))
            q = p.rotate()
            assert sorted(q.jumps()) == sorted(p.jumps())
            assert sorted((d, s) for d, s, _ in q.segments) == \
                   sorted((d, s) for d, s, _ in p.segments)
            assert q.lifetime == pytest.approx(p.lifetime, rel=1e-12)
            assert (q.sup() - q.inf()) == pytest.approx(p.sup() - p.inf(), rel=1e-12)
            assert q.rotate() == p

    def test_rotation_area_complement(self):
        # integral of q = V * p(V) - integral of p (left limits agree a.e.).
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_fv_path(rng, 6)
            q = p.rotate()
            expected = p.lifetime * p.evaluate(p.lifetime) - p.area()
            assert q.area() == pytest.approx(expected, rel=1e-11)

    def test_rotate_empty_path(self):
        q = EventPath(1.5, 0.5, ()).rotate()
        assert q == EventPath(0.5, 0.5, ())


class TestExtremaAndFunctionals:
    def test_first_argmax_worked(self):
        t, v = WORKED.first_argmax()
        assert (t, v) == (0.5, 2.5)

    def test_first_argmax_takes_earliest_tie(self):
        # Two peaks of equal height 2, at t=0.5 and t=1.5.
        p = EventPath(1.0, 1.0, ((0.5, -1.0, 1.5), (1.0, -1.0, 1.0),
                                 (1.0, -1.0, 0.0)))
        # Values: 1, 0.5 at 0.5-, 2 at 0.5, 1 at 1.5-, 2 at 1.5, 1 at 2.5.
        t, v = p.first_argmax()
        assert (t, v) == (0.5, 2.0)

    def test_sup_inf_include_prestart_value(self):
        p = EventPath(2.0, 2.0, ())
        assert p.sup() == 2.0
        assert p.inf() == 0.0  # pre-start value

    def test_sup_inf_worked(self):
        assert WORKED.sup() == 2.5
        assert WORKED.inf() == 0.0

    def test_area_worked(self):
        # Trapezoids: (1+0.5)/2 * 0.5 + (2.5+0)/2 * 2.5 = 0.375 + 3.125.
        assert WORKED.area() == pytest.approx(3.5, abs=1e-15)

    def test_jump_functionals(self):
        assert WORKED.jumps() == (1.0, 2.0)
        assert WORKED.jump_count() == 2
        assert WORKED.max_jump() == 2.0


class TestConcat:
    def test_concat_restores_split_path(self):
        # Split after the first segment: the right part starts on the
        # post-jump value 2.5 with no jump of its own.
        left = EventPath(WORKED.x0, WORKED.initial_jump, WORKED.segments[:1])
        right = EventPath(2.5, 0.0, WORKED.segments[1:])
        glued = concat(left, right)
        assert glued == WORKED

    def test_concat_records_upward_junction(self):
        p1 = EventPath(0.0, 0.0, ((1.0, -1.0, 0.0),))
        p2 = EventPath(1.0, 0.0, ((1.0, -1.0, 0.0),))
        glued = concat(p1, p2)
        assert glued.segments == ((1.0, -1.0, 2.0), (1.0, -1.0, 0.0))
        assert glued.evaluate(1.0) == 1.0

    def test_concat_rejects_downward_junction(self):
        p1 = EventPath(0.0, 0.0, ((1.0, -1.0, 0.0),))
        p2 = EventPath(-2.0, 0.0, ((1.0, -1.0, 0.0),))
        with pytest.raises(ValueError):
            concat(p1, p2)

    def test_concat_drops_roundoff_junction(self):
        p1 = EventPath(0.0, 0.0, ((1.0, -1.0, 0.0),))
        p2 = EventPath(-1.0 + 1e-13, 0.0, ((1.0, 0.5, 0.0),))
        glued = concat(p1, p2)
        assert glued.jumps() == ()

    def test_concat_with_constant_left_path(self):
        p1 = EventPath(1.0, 1.0, ())
        p2 = EventPath(1.5, 0.0, ((1.0, -1.0, 0.0),))
        glued = concat(p1, p2)
        assert glued.x0 == 1.5
        assert glued.initial_jump == 1.5  # original 1 plus junction 0.5
        assert glued.evaluate(1.0) == 0.5


class TestSerialization:
    def test_event_path_roundtrip(self):
        s = json.dumps(path_to_dict(WORKED))
        assert path_from_dict(json.loads(s)) == WORKED

    def test_bad_document_rejected(self):
        with pytest.raises(ValueError):
            path_from_dict({"foo": 1})
