"""Tests for the reflected-walk local-time field and its moment check.

The strict full-size moment validation lives in the acceptance tests; here
we pin the construction down at small sizes: determinism, shapes, argument
validation, the runtime guard, and a reduced-size moment smoke test with
relaxed tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from levyexc.rayknight import (
    MomentCheck,
    feller_moment_check,
    local_time_field,
    moment_check,
)


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
