"""Tests for the reflected-walk local-time field and its moment check.

The strict full-size moment validation lives in the acceptance tests; here
we pin the construction down at small sizes: determinism, shapes, argument
validation, the runtime guard, the bytes of four pinned fields, and a
reduced-size moment smoke test with relaxed tolerances.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from levyexc import rayknight
from levyexc.rayknight import (
    MomentCheck,
    feller_moment_check,
    local_time_field,
    moment_check,
)
from levyexc.simulate import RngStream


# sha256 of local_time_field(*args, **kwargs).tobytes() for four fields.
# C and D mirror often at their low cap, and D's upper bin, right under the
# cap, is where mirrored steps land: counting a step before its mirror fix
# moves D's bytes.
PINS = {
    "A": ((0.5, (0.1, 0.2, 0.3)),
          dict(n_paths=64, h=1e-3, delta=0.04, seed=7),
          "e759185d6a8dd1db2d8536fd7eb8dd53175b8b78dbe729a00ae8b9d08f5c5242"),
    "B": ((1.0, (0.1, 0.2)),
          dict(n_paths=400, h=1e-4, delta=0.04, seed=7),
          "44847bf6d4e673f5f042bbbd920a99e9551fed3bb6f13ebd139645d0b5e41c14"),
    "C": ((0.5, (0.1,)),
          dict(n_paths=200, h=1e-3, delta=0.04, cap=0.3, seed=5),
          "ae03763989e65e5e748faf6a82488ed9df4c5024c691d68b28982a898f445ac4"),
    "D": ((0.5, (0.1, 0.26)),
          dict(n_paths=200, h=1e-3, delta=0.04, cap=0.3, seed=5),
          "d4ce93fe1bd90e473fda388d1f225042dc92ba22aed211ba53405ef756531276"),
}


def _reference_field(target, levels, n_paths, h, delta, cap=1.0, seed=7):
    """The walk stepped with one draw call and one count per step, which
    local_time_field must match bit for bit."""
    half = delta / 2.0
    g = RngStream(seed).child("rayknight").generator()
    out = np.full((n_paths, len(levels)), np.nan)
    walk = np.zeros(n_paths)
    run_min = np.zeros(n_paths)
    counts = np.zeros((n_paths, len(levels)), dtype=np.int64)
    orig = np.arange(n_paths)
    while orig.size:
        walk += g.standard_normal(walk.size) * math.sqrt(h)
        np.minimum(run_min, walk, out=run_min)
        reflected = walk - run_min
        over = reflected > cap
        reflected[over] = 2.0 * cap - reflected[over]
        walk[over] = run_min[over] + reflected[over]
        for j, t in enumerate(levels):
            counts[:, j] += (reflected >= t - half) & (reflected < t + half)
        stopped = -run_min >= target / 2.0
        out[orig[stopped]] = counts[stopped] * (h / delta)
        keep = ~stopped
        walk, run_min = walk[keep], run_min[keep]
        counts, orig = counts[keep], orig[keep]
    return out


def _field_sha(name: str) -> tuple:
    args, kwargs, expected = PINS[name]
    field = local_time_field(*args, **kwargs)
    return hashlib.sha256(field.tobytes()).hexdigest(), expected


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_field_bytes_are_pinned(self, name):
        got, expected = _field_sha(name)
        assert got == expected

    @pytest.mark.parametrize("chunk, block", [(1, 1), (61, 7), (7919, 251)])
    @pytest.mark.parametrize("name", ["A", "C", "D"])
    def test_chunk_and_block_sizes_leave_the_bytes(self, monkeypatch, name,
                                                   chunk, block):
        # a chunk of 1 draws each step's normals alone, as one call per
        # step would; a block of 1 counts every step as it is taken
        monkeypatch.setattr(rayknight, "_CHUNK", chunk)
        monkeypatch.setattr(rayknight, "_BLOCK", block)
        got, expected = _field_sha(name)
        assert got == expected

    @pytest.mark.parametrize("name", ["A", "C", "D"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_per_step_loop(self, name, seed):
        args, kwargs, _ = PINS[name]
        kwargs = dict(kwargs, seed=seed)
        assert np.array_equal(local_time_field(*args, **kwargs),
                              _reference_field(*args, **kwargs))


class TestLocalTimeField:
    def test_shape_and_finiteness(self):
        field = local_time_field(0.5, (0.1, 0.2, 0.3), n_paths=64, h=1e-3,
                                 delta=0.04, seed=7)
        assert field.shape == (64, 3)
        assert np.all(np.isfinite(field))
        assert np.all(field >= 0.0)

    def test_deterministic_given_seed(self):
        a = local_time_field(0.5, (0.1, 0.2), n_paths=32, h=1e-3,
                             delta=0.04, seed=7)
        b = local_time_field(0.5, (0.1, 0.2), n_paths=32, h=1e-3,
                             delta=0.04, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = local_time_field(0.5, (0.1, 0.2), n_paths=32, h=1e-3,
                             delta=0.04, seed=7)
        b = local_time_field(0.5, (0.1, 0.2), n_paths=32, h=1e-3,
                             delta=0.04, seed=8)
        assert not np.array_equal(a, b)

    def test_levels_near_zero_hit_often(self):
        # The field at a low level should be positive for most paths: the
        # reflected walk keeps returning to the boundary until the clock
        # stops, sweeping through nearby levels on the way.
        field = local_time_field(1.0, (0.1,), n_paths=128, h=1e-3,
                                 delta=0.04, seed=3)
        assert np.mean(field > 0.0) > 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target": 0.0},
            {"target": -1.0},
            {"h": 0.0},
            {"delta": 0.0},
            {"n_paths": 0},
            {"max_time": 0.0},
            {"cap": 0.0},
        ],
    )
    def test_rejects_nonpositive_parameters(self, kwargs):
        base = dict(target=0.5, levels=(0.1,), n_paths=8, h=1e-3, delta=0.04)
        base.update(kwargs)
        with pytest.raises(ValueError):
            local_time_field(**base)

    @pytest.mark.parametrize("name", ["target", "h", "delta", "cap",
                                      "max_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_parameters(self, name, value):
        # a short max_time makes a regression fail fast, on the runtime
        # guard instead of ValueError
        base = dict(target=0.5, levels=(0.1,), n_paths=8, h=1e-3, delta=0.04,
                    max_time=0.05)
        base[name] = value
        with pytest.raises(ValueError, match=name):
            local_time_field(**base)

    def test_rejects_no_levels(self):
        # a field without levels would make a moment check that checks
        # nothing and passes
        with pytest.raises(ValueError, match="level"):
            local_time_field(0.5, (), n_paths=8, h=1e-3, delta=0.04,
                             max_time=0.05)

    @pytest.mark.parametrize("level", [0.0, 0.01, 0.99, 1.0, -0.1])
    def test_rejects_levels_outside_readable_band(self, level):
        # A level must carry a full histogram bin inside [0, cap].
        with pytest.raises(ValueError):
            local_time_field(0.5, (level,), n_paths=8, h=1e-3, delta=0.04)

    def test_level_band_scales_with_cap(self):
        # level 0.99 is readable once the cap moves out of the way
        field = local_time_field(0.2, (0.99,), n_paths=8, h=1e-3,
                                 delta=0.04, cap=2.0, seed=1)
        assert field.shape == (8, 1)

    def test_unreachable_target_raises_runtime_error(self):
        # The boundary clock grows like the elapsed time, so a huge target
        # under a tiny time budget trips the guard.
        with pytest.raises(RuntimeError):
            local_time_field(50.0, (0.1,), n_paths=4, h=1e-3, delta=0.04,
                             max_time=0.05)


class TestFellerMomentCheck:
    def test_reduced_size_smoke(self):
        # Strict tolerances need the acceptance-size run; at n=800 the
        # variance SE is ~7%, so check within generous bands only.
        chk = feller_moment_check(n_paths=800, seed=7)
        assert isinstance(chk, MomentCheck)
        assert chk.expected_means == (1.0, 1.0)
        assert chk.expected_variances == (pytest.approx(0.4), pytest.approx(0.8))
        assert all(err < 0.10 for err in chk.mean_rel_errors)
        assert all(err < 0.30 for err in chk.var_rel_errors)

    def test_passed_reflects_tolerances(self):
        # the field feller_moment_check(n_paths=400, seed=7) simulates,
        # judged once at loose and once at strict tolerances
        field = local_time_field(1.0, (0.1, 0.2), n_paths=400, h=1e-4,
                                 delta=0.04, seed=7)
        chk = moment_check(field, 1.0, (0.1, 0.2), 1e-4, 0.04,
                           mean_tolerance=1.0, var_tolerance=1.0)
        assert chk.passed
        assert chk.n_paths == 400
        strict = moment_check(field, 1.0, (0.1, 0.2), 1e-4, 0.04,
                              mean_tolerance=1e-12, var_tolerance=1e-12)
        assert not strict.passed

    def test_one_row_is_rejected(self):
        field = np.ones((1, 2))
        with pytest.raises(ValueError, match="two rows"):
            moment_check(field, 1.0, (0.1, 0.2), 1e-4, 0.04)

    def test_no_levels_is_rejected(self):
        with pytest.raises(ValueError, match="level"):
            moment_check(np.ones((4, 0)), 1.0, (), 1e-4, 0.04)

    def test_records_settings(self):
        chk = feller_moment_check(target=0.5, levels=(0.1,), n_paths=200,
                                  h=2e-4, delta=0.04, seed=5)
        assert chk.target_local_time == 0.5
        assert chk.levels == (0.1,)
        assert chk.n_paths == 200
        assert chk.h == 2e-4
        assert chk.delta == 0.04
        assert chk.expected_variances == (pytest.approx(4 * 0.5 * 0.1),)

    def test_deterministic(self):
        a = feller_moment_check(n_paths=300, seed=11)
        b = feller_moment_check(n_paths=300, seed=11)
        assert a.means == b.means
        assert a.variances == b.variances
