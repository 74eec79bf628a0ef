"""Tests for exact simulation, stop rules and excursion extraction.

Moment oracles: with Laplace exponent psi and E exp(-lam X_t) =
exp(t psi(lam)), the cumulants are E X_t = -psi'(0) t and
Var X_t = psi''(0) t.  For unit drift and exponential jumps (mass b,
rate theta): psi'(0) = 1 - b/theta and psi''(0) = 2 b / theta^2.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from levyexc import simulate
from levyexc.excursions import peak_value
from levyexc.models import ExponentialJumps, LevyModel, NullJumps, named_model
from levyexc.paths import EventPath
from levyexc.simulate import (
    AnyExcursion,
    ExcursionCount,
    FirstPassage,
    HeightAtLeast,
    Horizon,
    LifetimeAtLeast,
    RngStream,
    extract_excursions,
    extract_sup_excursions,
    exit_probability_mc,
    sample_excursions,
    sample_killed_sup_excursions,
    sample_path_fv,
)
from levyexc.verify import PER_FUNCTIONAL_ALPHA, ks_two_sample, permutation_ks

# Unit drift, jump rate 1, jump sizes Exp(2): drifts to -inf at speed 1/2.
MODEL = LevyModel.from_drift(1.0, ExponentialJumps(1.0, 2.0))
# Unit drift, jump rate 3, jump sizes Exp(2): drifts to +inf; eta = 1.
SUPER = LevyModel.from_drift(1.0, ExponentialJumps(3.0, 2.0))


class TestRngStream:
    def test_same_name_same_stream(self):
        a = RngStream(7).child("suite", 3).generator().random(4)
        b = RngStream(7).child("suite", 3).generator().random(4)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        a = RngStream(7).child("suite", 3).generator().random(4)
        b = RngStream(7).child("suite", 4).generator().random(4)
        c = RngStream(8).child("suite", 3).generator().random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_children_order_insensitive(self):
        root = RngStream(1)
        first = root.child("x").generator().random()
        _ = root.child("y").generator().random()
        again = root.child("x").generator().random()
        assert first == again


class TestSamplePathFv:
    def test_horizon_structure(self):
        rng = RngStream(42).child("horizon").generator()
        p = sample_path_fv(MODEL, 0.0, Horizon(10.0), rng)
        assert p.lifetime == pytest.approx(10.0, abs=1e-12)
        assert all(s == -1.0 for _, s, _ in p.segments)
        assert all(j >= 0.0 for _, _, j in p.segments)
        assert p.x0 == 0.0 and p.initial_jump == 0.0

    def test_horizon_deterministic(self):
        p1 = sample_path_fv(MODEL, 0.0, Horizon(5.0),
                            RngStream(3).child("d").generator())
        p2 = sample_path_fv(MODEL, 0.0, Horizon(5.0),
                            RngStream(3).child("d").generator())
        assert p1 == p2

    def test_endpoint_moments(self):
        rng = RngStream(11).child("moments").generator()
        t, n = 2.0, 4000
        ends = np.array([sample_path_fv(MODEL, 0.0, Horizon(t), rng).end_value()
                         for _ in range(n)])
        # E X_t = -psi'(0) t = -0.5 * 2; Var X_t = psi''(0) t = 0.5 * 2.
        assert ends.mean() == pytest.approx(-1.0, abs=5 * math.sqrt(1.0 / n))
        assert ends.var() == pytest.approx(1.0, rel=0.15)

    def test_first_passage_ends_at_level(self):
        rng = RngStream(5).child("fp").generator()
        for _ in range(50):
            p = sample_path_fv(MODEL, 1.0, FirstPassage(0.0), rng)
            assert p.end_value() == pytest.approx(0.0, abs=1e-9)
            assert p.inf() >= -1e-9
            # The passage is the first one: strictly positive before the end.
            assert p.left_limit(p.lifetime * 0.5) > 0.0

    def test_first_passage_level_above_start_rejected(self):
        rng = RngStream(5).child("fp2").generator()
        with pytest.raises(ValueError):
            sample_path_fv(MODEL, 0.0, FirstPassage(1.0), rng)

    def test_excursion_count_stop(self):
        rng = RngStream(9).child("exc").generator()
        p = sample_path_fv(MODEL, 0.0, ExcursionCount(5), rng)
        excs = extract_excursions(p)
        assert len(excs) == 5
        assert all(e.complete for e in excs)
        # The path ends the instant the fifth excursion closes.
        assert p.end_value() == pytest.approx(-excs[-1].start_local_time,
                                              abs=1e-9)

    def test_event_cap(self, monkeypatch):
        rng = RngStream(1).child("cap").generator()
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 100)
        with pytest.raises(RuntimeError):
            sample_path_fv(MODEL, 0.0, Horizon(1e9), rng)
        # Unreachable targets keep the draws coming until one of them runs
        # into the cap.
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 3)
        with pytest.raises(RuntimeError, match="within 3 events"):
            sample_excursions(MODEL, 1, rng, HeightAtLeast(1e6))
        with pytest.raises(RuntimeError, match="within 3 events"):
            sample_killed_sup_excursions(MODEL, 1, 1e6, rng)

    @pytest.mark.parametrize("depth", [0.0, -1.0, math.nan, math.inf])
    def test_kill_depth_must_be_positive_and_finite(self, depth):
        with pytest.raises(ValueError):
            sample_killed_sup_excursions(MODEL, 1, depth,
                                         RngStream(0).generator())

    def test_brownian_model_rejected(self):
        m = LevyModel(alpha=-1.0, beta=1.0, jumps=NullJumps())
        with pytest.raises(ValueError):
            sample_path_fv(m, 0.0, Horizon(1.0),
                           RngStream(0).generator())


class TestFirstPassageTime:
    def test_mean_passage_time(self):
        # E T = x / psi'(0) = 1 / 0.5 = 2 for the subcritical model.
        rng = RngStream(21).child("fpt").generator()
        n = 2000
        times = [sample_path_fv(MODEL, 1.0, FirstPassage(0.0), rng).lifetime
                 for _ in range(n)]
        assert all(t > 0 for t in times)
        # Var T = x psi''(0) / psi'(0)^3 = 4: five-sigma band for the mean.
        assert np.mean(times) == pytest.approx(2.0, abs=5 * math.sqrt(4.0 / n))

    def test_hit_probability_supercritical(self):
        # P(hit from x) = exp(-eta x) with eta = 1 for the supercritical
        # model.  Its scale function is W(x) = 3 e^x - 2, so the chance of
        # hitting 0 before exceeding a = 10 is W(9) / W(10), which is
        # exp(-1) to within 2e-5.
        rng = RngStream(22).child("hit").generator()
        n = 5000
        p_hit = exit_probability_mc(SUPER, 1.0, 10.0, n, rng)
        assert p_hit == pytest.approx(math.exp(-1.0), abs=0.03)


class TestExtractExcursions:
    # Start at 0, drift to -1, jump 2 (opens excursion 1 at level -1),
    # drift 0.5 with interior jump 1.5, drift 3.0 back to the opening
    # level, jump 0.8 at that very instant (opens excursion 2), drift 0.3.
    PATH = EventPath(0.0, 0.0, ((1.0, -1.0, 2.0), (0.5, -1.0, 1.5),
                                (3.0, -1.0, 0.8), (0.3, -1.0, 0.0)))

    def test_worked_decomposition(self):
        excs = extract_excursions(self.PATH)
        assert len(excs) == 2
        first, second = excs
        assert first.path == EventPath(2.0, 2.0, ((0.5, -1.0, 1.5),
                                                  (3.0, -1.0, 0.0)))
        assert first.complete
        assert first.start_time == 1.0
        assert first.start_local_time == 1.0
        assert second.path == EventPath(0.8, 0.8, ((0.3, -1.0, 0.0),))
        assert not second.complete
        assert second.start_time == 4.5
        assert second.start_local_time == 1.0  # reopened at the same level

    def test_initial_jump_opens_excursion(self):
        p = EventPath(1.5, 1.5, ((0.5, -1.0, 0.0),))
        excs = extract_excursions(p)
        assert len(excs) == 1
        assert excs[0].start_time == 0.0
        assert excs[0].path.initial_jump == 1.5
        assert not excs[0].complete

    def test_reconstruction_on_simulated_path(self):
        rng = RngStream(33).child("rec").generator()
        p = sample_path_fv(MODEL, 0.0, Horizon(50.0), rng)
        excs = extract_excursions(p)
        assert len(excs) >= 2
        for e in excs[:-1] if not excs[-1].complete else excs:
            # Excursion values reproduce the path above the opening level.
            level = -e.start_local_time
            for frac in (0.0, 0.3, 0.7):
                s = frac * e.path.lifetime
                assert e.path.evaluate(s) == pytest.approx(
                    p.evaluate(e.start_time + s) - level, abs=1e-9)
            if e.complete:
                assert e.path.end_value() == pytest.approx(0.0, abs=1e-9)
            assert e.path.inf() >= -1e-9
        # Local time (infimum descent) is nondecreasing along the path.
        slts = [e.start_local_time for e in excs]
        assert all(b >= a - 1e-12 for a, b in zip(slts, slts[1:]))

    def test_positive_slope_rejected(self):
        with pytest.raises(ValueError):
            extract_excursions(EventPath(0.0, 0.0, ((1.0, 1.0, 0.0),)))

    def test_negative_jump_rejected(self):
        with pytest.raises(ValueError):
            extract_excursions(EventPath(0.0, 0.0, ((1.0, -1.0, -0.5),)))

    def test_law_matches_sampled_excursions(self):
        # By the strong Markov property the excursions cut from one long
        # path are i.i.d. with the law sample_excursions draws directly.
        stream = RngStream(61).child("extract_law")
        path = sample_path_fv(MODEL, 0.0, ExcursionCount(2000),
                              stream.child("path").generator())
        cut = [e.path for e in extract_excursions(path) if e.complete]
        assert len(cut) == 2000
        direct = sample_excursions(MODEL, 2000,
                                   stream.child("direct").generator())
        for f in (lambda e: e.lifetime, peak_value):
            _, p = ks_two_sample([f(e) for e in cut], [f(e) for e in direct])
            assert p > PER_FUNCTIONAL_ALPHA
        _, p = permutation_ks([e.jump_count() for e in cut],
                              [e.jump_count() for e in direct])
        assert p > PER_FUNCTIONAL_ALPHA


class TestExtractSupExcursions:
    # Drift to -1, jump 3 to value 2 (record: terminal jump of exc 1);
    # then two non-record moves, then a jump to 2.5 (record ends exc 2);
    # the trailing piece is an incomplete excursion.
    PATH = EventPath(0.0, 0.0, ((1.0, -1.0, 3.0), (0.5, -1.0, 0.1),
                                (0.1, -1.0, 1.0), (0.2, -1.0, 0.0)))

    def test_worked_decomposition(self):
        excs = extract_sup_excursions(self.PATH)
        assert len(excs) == 3
        a, b, c = excs
        assert a.path == EventPath(0.0, 0.0, ((1.0, -1.0, 3.0),))
        assert a.complete and a.start_time == 0.0 and a.start_local_time == 0.0
        assert a.path.end_value() == pytest.approx(2.0)  # overshoot
        assert b.path == EventPath(0.0, 0.0, ((0.5, -1.0, 0.1),
                                              (0.1, -1.0, 1.0)))
        assert b.complete and b.start_time == 1.0 and b.start_local_time == 2.0
        assert b.path.end_value() == pytest.approx(0.5)
        assert c.path == EventPath(0.0, 0.0, ((0.2, -1.0, 0.0),))
        assert not c.complete
        assert c.start_time == pytest.approx(1.6)
        assert c.start_local_time == pytest.approx(2.5)

    def test_initial_jump_is_degenerate_record(self):
        p = EventPath(1.5, 1.5, ((0.5, -1.0, 0.0),))
        excs = extract_sup_excursions(p)
        assert excs[0].path == EventPath(1.5, 1.5, ())
        assert excs[0].complete and excs[0].start_local_time == 0.0
        assert excs[1].start_local_time == 1.5

    def test_simulated_path_structure(self):
        rng = RngStream(44).child("sup").generator()
        p = sample_path_fv(MODEL, 0.0, Horizon(50.0), rng)
        excs = extract_sup_excursions(p)
        assert len(excs) >= 1
        for e in excs:
            if e.complete:
                assert e.path.end_value() >= -1e-12  # overshoot
                if e.path.segments:
                    assert e.path.left_limit(e.path.lifetime) <= 1e-12
        # Record levels are nondecreasing.
        slts = [e.start_local_time for e in excs]
        assert all(b >= a - 1e-12 for a, b in zip(slts, slts[1:]))

    def test_law_matches_killed_sup_excursions(self):
        # Below-supremum excursions cut from one path are i.i.d. by the
        # strong Markov property at record times, so those reaching -0.5,
        # killed there, have the law sample_killed_sup_excursions draws.  A
        # path stopped at its first passage to -0.5 ends inside an excursion
        # that has already reached that depth (relative to its opening
        # record, which is >= 0), so no kept excursion is censored.  Most
        # killed excursions have no jump before the kill (lifetime 0.5 and
        # area -0.125 exactly), so the tie-free p-values are conservative;
        # a kill at another depth moves that atom and is rejected outright.
        stream = RngStream(61).child("extract_sup_law")
        g = stream.child("paths").generator()
        cut = []
        while len(cut) < 2000:
            path = sample_path_fv(MODEL, 0.0, FirstPassage(-0.5), g)
            excs = extract_sup_excursions(path)
            killed = [killed_at_depth(e.path, 0.5) for e in excs]
            assert killed[-1] is not None
            cut.extend(k for k in killed if k is not None)
        cut = cut[:2000]
        direct = sample_killed_sup_excursions(
            MODEL, 2000, 0.5, stream.child("direct").generator())
        for f in (lambda e: e.lifetime, lambda e: e.area()):
            _, p = ks_two_sample([f(e) for e in cut], [f(e) for e in direct])
            assert p > PER_FUNCTIONAL_ALPHA
        _, p = permutation_ks([e.jump_count() for e in cut],
                              [e.jump_count() for e in direct])
        assert p > PER_FUNCTIONAL_ALPHA


def killed_at_depth(path, depth):
    """``path`` (from 0, drifting down) up to its first passage to
    ``-depth``, or None when it never gets that low."""
    segs = []
    for start, (dur, slope, jump) in zip(path._starts, path.segments):
        if start + slope * dur <= -depth:
            segs.append(((start + depth) / -slope, slope, 0.0))
            return EventPath(0.0, 0.0, tuple(segs))
        segs.append((dur, slope, jump))
    return None


class TestSampleExcursions:
    def test_structure_and_determinism(self):
        draws = sample_excursions(MODEL, 50,
                                  RngStream(6).child("exc").generator())
        again = sample_excursions(MODEL, 50,
                                  RngStream(6).child("exc").generator())
        assert draws == again
        for e in draws:
            assert e.initial_jump > 0.0
            assert e.x0 == e.initial_jump
            assert e.end_value() == pytest.approx(0.0, abs=1e-9)

    def test_moments(self):
        # E[jumps per excursion] = 1/(1 - m) = 2 for m = 1/2 (each jump
        # founds a subtree of expected size 1/(1-m)), and the total descent
        # equals the total jump height, so E[lifetime] = 2 * 0.5 / d = 1.
        n = 4000
        draws = sample_excursions(MODEL, n,
                                  RngStream(61).child("mom").generator())
        counts = np.array([e.jump_count() for e in draws])
        lives = np.array([e.lifetime for e in draws])
        assert counts.mean() == pytest.approx(2.0, rel=0.1)
        assert lives.mean() == pytest.approx(1.0, rel=0.1)

    def test_conditioning(self):
        rng = RngStream(62).child("cond").generator()
        tall = sample_excursions(MODEL, 30, rng,
                                 condition=HeightAtLeast(1.0))
        assert all(e.sup() >= 1.0 for e in tall)
        long = sample_excursions(MODEL, 30, rng,
                                 condition=LifetimeAtLeast(1.0))
        assert all(e.lifetime >= 1.0 for e in long)
        assert AnyExcursion().check(tall[0])

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError):
            sample_excursions(SUPER, 1, RngStream(0).generator())

    @pytest.mark.parametrize("make", [LifetimeAtLeast, HeightAtLeast])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, make, value):
        with pytest.raises(ValueError):
            make(value)

    @pytest.mark.parametrize("name", ["bd", "dirac"])
    @pytest.mark.parametrize("condition", [AnyExcursion(),
                                           HeightAtLeast(1.0)])
    def test_equals_jump_then_first_passage(self, name, condition):
        # One kernel call per draw must give exactly the excursions of the
        # composition it replaces: the opening jump, then a path from it to
        # its first passage to 0, re-based on the opening jump.
        model = named_model(name)
        composed_rng = RngStream(71).child("compose", name).generator()
        composed = []
        while len(composed) < 200:
            j = float(model.jumps.sample(composed_rng))
            body = sample_path_fv(model, j, FirstPassage(0.0), composed_rng)
            exc = EventPath(j, j, body.segments)
            if condition.check(exc):
                composed.append(exc)
        direct_rng = RngStream(71).child("compose", name).generator()
        assert sample_excursions(model, 200, direct_rng,
                                 condition) == composed
        assert (direct_rng.bit_generator.state
                == composed_rng.bit_generator.state)
