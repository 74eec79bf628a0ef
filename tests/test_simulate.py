"""Tests for exact simulation, stop rules and excursion extraction.

Moment oracles: with Laplace exponent psi and E exp(-lam X_t) =
exp(t psi(lam)), the cumulants are E X_t = -psi'(0) t and
Var X_t = psi''(0) t.  For unit drift and exponential jumps (mass b,
rate theta): psi'(0) = 1 - b/theta and psi''(0) = 2 b / theta^2.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from levyexc import simulate
from levyexc.excursions import peak_value
from levyexc.models import (
    DiracJumps,
    ExponentialJumps,
    LevyModel,
    MixtureJumps,
    NullJumps,
    named_model,
)
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
from levyexc.verify import (
    PER_FUNCTIONAL_ALPHA,
    _killed_shifted_sampler,
    ks_two_sample,
    permutation_ks,
)

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


# -- pinned draws -------------------------------------------------------------
#
# The bytes every sampler draws and the generator state it leaves, pinned at
# fixed seeds.  The kernel takes its draws ahead in chunks and puts the
# generator back where scalar draws would have left it; these pins, taken
# with one scalar draw per value, hold it to that.

PIN_MODELS = {
    "bd": named_model("bd"),
    "dirac": named_model("dirac"),
    # no chunked stream: a mixture draws its jumps through ``choice``
    "mixture": LevyModel.from_drift(1.0, MixtureJumps(
        (ExponentialJumps(0.5, 2.0), DiracJumps(0.25, 1.0)))),
}

# Run in this order on one generator per model; after each call the pin
# takes the sha256 of the result and the generator's next random().
PIN_CALLS = (
    ("excursions", lambda m, g: sample_excursions(m, 30, g)),
    ("excursions_height",
     lambda m, g: sample_excursions(m, 10, g, HeightAtLeast(1.0))),
    ("killed_sup", lambda m, g: sample_killed_sup_excursions(m, 20, 0.5, g)),
    ("horizon", lambda m, g: sample_path_fv(m, 0.0, Horizon(10.0), g)),
    ("first_passage",
     lambda m, g: sample_path_fv(m, 1.0, FirstPassage(-1.0), g)),
    ("excursion_count",
     lambda m, g: sample_path_fv(m, 0.0, ExcursionCount(5), g)),
    ("exit_mc", lambda m, g: exit_probability_mc(m, 1.0, 2.0, 200, g)),
)

PINS = {
    "bd": (
        ("14a82444e14b13a202b46db4042e1a0e7bbe89f0bb12ae9e40ad8b994b8279e6",
         0.8695861449427119),
        ("f26d9d484299e974edc5e902e585f1f25a5eec24b6bbc9766a1715e710ec6835",
         0.12989985746027233),
        ("d1020c1d6aa89da6d6a4055a6988859ff643c95cdf29e27dc53b9d4aca1e0261",
         0.3855166772205094),
        ("be6bd5f8d04520d26b6a76ed74957cf3b2843af5abd7a7a87da501091370f854",
         0.6359457453604368),
        ("831fc101adc6fe89e84fed29ba34cbaefa25d19eabcef0294a325d18d768266d",
         0.8684385485642556),
        ("838f0cba23cc152f7307eb543fb94a5a682e0048ec8f026c5e265c379ab5deaf",
         0.996593527805509),
        ("5bcccbeaf5d2a2118d29892cbe54534cecba8f031e0c9333632281250d7cf5f5",
         0.7531002229470558),
    ),
    "dirac": (
        ("340e77b6dbfe543b28922a46de8ee66abab2c70dafaf44498746801aa3ac3367",
         0.6084717114937717),
        ("df38072b29ea24501a81fadc35d32666296a6ba35e6b98b58ec06579717452a5",
         0.8182338243447485),
        ("1115d57eb05ebdf4df3d705873003b5bc7b3cb22ca0844a407fd69106725483d",
         0.7590955761738207),
        ("ba43f4c9267c82bfca3f1222e948eb79b0ddf4e7ca3979a661280d5593ee504d",
         0.5298474050055441),
        ("dc2c2964631ff8561e24354ceaa2c50852eedc1ead1e1f95f7f6999137b88b8d",
         0.8561493272201053),
        ("0a28b64efd7a1cabab6c21d6842f66b74760ca55cc06071db0c71bd256d47fb6",
         0.6023186600792698),
        ("e2819fbe22224ae04f453ed6e908e2f66e42d761b045db7c5f8b213411e68f9f",
         0.5764815881025938),
    ),
    "mixture": (
        ("16c7c5078234b17f1302a411823eb28cefd4d440f39adcbe233470f04a233065",
         0.7329662104091319),
        ("9308cb2293e7f080dbdfa3f8729be2464cd7c9459d407ba3f1a9a73ff5446926",
         0.16089873655372067),
        ("508a9c32a9cf05a4e3547842c303018dbb42f5908c74a0de533ff09c0ed1caba",
         0.16557153040946604),
        ("0fff98e9226ea12f84a6b42604ad7b03b54dbdcedc464e083567de7b2e9ee6fc",
         0.30355814181806795),
        ("88bbe25483b6fe7c430155d1c61821706db9ddeb845c1554b4591497428e8ae3",
         0.03816974659490757),
        ("c3d668625ba38b14b340cc63e2dd2774a81bedd56e1fc1ee29f5ee91612657b7",
         0.8224245882701062),
        ("b3cb529259f48ae2f285c55b420866398537d4445c28e0b0e376ae6be1540b3d",
         0.20299069720107554),
    ),
}

# The killed-passage block sampler of the verify suites, 30 paths at x = 0.5
# drawn as one block.
KILLED_SHIFTED_PINS = {
    "bd": "de7c3b1be958c18ba7942695d5552b2db0555b47c49d947dbf33f355926ab01e",
    "dirac":
        "6fa24bc2d828f05dc1eeb5867334a0b568a0574ef3f11495e1862e213a86a8e0",
    "mixture":
        "b4518df7e3b4931ad9794edcebdba15c6169ba22d32d452ed44d6fa720218324",
}


def pin_digest(result) -> str:
    """sha256 of ``repr`` of an estimate, or of the fields of each path."""
    if isinstance(result, float):
        text = repr(result)
    else:
        paths = result if isinstance(result, list) else [result]
        text = repr([(p.x0, p.initial_jump, p.segments) for p in paths])
    return hashlib.sha256(text.encode()).hexdigest()


def pin_run(name: str) -> tuple:
    g = RngStream(29).child("pins", name).generator()
    return tuple((pin_digest(call(PIN_MODELS[name], g)), g.random())
                 for _, call in PIN_CALLS)


class TestPinnedDraws:
    @pytest.mark.parametrize("name", sorted(PIN_MODELS))
    def test_sampler_bytes_and_state(self, name):
        got = pin_run(name)
        for (label, _), pin, value in zip(PIN_CALLS, PINS[name], got):
            assert value == pin, label

    @pytest.mark.parametrize("name", sorted(PIN_MODELS))
    def test_killed_shifted_block(self, name):
        paths = _killed_shifted_sampler(0.5, PIN_MODELS[name], 30,
                                        RngStream(29).child("block", name))
        assert pin_digest(paths) == KILLED_SHIFTED_PINS[name]

    @pytest.mark.parametrize("size", [1, 2, 7, 131, 7919])
    def test_chunk_sizes_do_not_move_bytes(self, monkeypatch, size):
        monkeypatch.setattr(simulate, "_CHUNK", size)
        for name in ("bd", "dirac"):
            assert pin_run(name) == PINS[name]

    @pytest.mark.parametrize("name", ["bd", "dirac"])
    def test_many_paths_equal_calls_in_a_row(self, monkeypatch, name):
        # chunks small enough that the 40 paths span many of them
        monkeypatch.setattr(simulate, "_CHUNK", 17)
        model = PIN_MODELS[name]
        stop = FirstPassage(-0.5)
        one = RngStream(30).child(name).generator()
        block = RngStream(30).child(name).generator()
        paths = [sample_path_fv(model, 0.0, stop, one) for _ in range(40)]
        assert simulate._sample_paths_fv(model, 0.0, stop, 40, block) == paths
        assert block.bit_generator.state == one.bit_generator.state

    def test_state_is_resynced_after_an_error(self, monkeypatch):
        # the event cap raises mid-call: the generator still stands after
        # exactly the draws the call made
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 100)
        g = RngStream(31).generator()
        with pytest.raises(RuntimeError):
            sample_path_fv(MODEL, 0.0, Horizon(1e9), g)
        scalar = RngStream(31).generator()
        for _ in range(100):
            scalar.exponential(1.0)
            scalar.exponential(0.5)
        assert g.bit_generator.state == scalar.bit_generator.state
