"""Tests for the two-sample harness: KS machinery, functional catalog,
suite execution, determinism, and the negative control's structure.

Statistical assertions run at reduced sizes with frozen seeds; the
full-size runs live in the acceptance tests.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace
from functools import partial
from operator import methodcaller

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from levyexc import verify
from levyexc.models import named_model
from levyexc.paths import EventPath
from levyexc.simulate import RngStream
from levyexc.verify import (
    CALIBRATION_BAND,
    CALIBRATION_SEED,
    DEFAULT_SEED,
    DEFAULT_SUITE_SIZES,
    PER_FUNCTIONAL_ALPHA,
    REJECT_ALPHA,
    SUITE_NAMES,
    default_model,
    functional_by_name,
    ks_null_calibration,
    ks_two_sample,
    permutation_ks,
    reports_to_csv,
    reports_to_json,
    run_suite,
    run_suites,
    suite_sampler,
)

EXC = EventPath(1.0, 1.0, ((0.5, -1.0, 2.0), (2.5, -1.0, 0.0)))


def ecdf_distance(a, b) -> float:
    """KS distance read off both empirical CDFs on the grid of pooled
    values; independent of the sort the harness uses."""
    grid = np.unique(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def first_rejecting_k(tail, n: int, alpha: float) -> int:
    """Smallest k in 1..n with tail(k) <= alpha; tail decreases in k."""
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= alpha:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestKsTwoSample:
    def test_identical_arrays(self):
        x = np.linspace(0.0, 1.0, 500)
        d, p = ks_two_sample(x, x.copy())
        assert d == 0.0
        assert p == 1.0

    def test_degenerate_constant_samples(self):
        d, p = ks_two_sample(np.ones(200), np.ones(300))
        assert d == 0.0
        assert p == 1.0

    def test_separated_supports_reject(self):
        g = RngStream(11).child("sep").generator()
        a = g.standard_normal(1000)
        b = g.standard_normal(1000) + 100.0
        d, p = ks_two_sample(a, b)
        assert d == 1.0
        assert p < 1e-6

    @pytest.mark.parametrize("n", [50, 400, 2000])
    def test_matches_scipy_exact_on_equal_halves(self, n):
        g = RngStream(11).child("ks_2samp_equal", n).generator()
        for shift in (0.0, 0.1, 0.3):
            a = g.standard_normal(n)
            b = g.standard_normal(n) + shift
            d, p = ks_two_sample(a, b)
            ref = scipy.stats.ks_2samp(a, b, method="exact")
            assert d == pytest.approx(ref.statistic, rel=0, abs=1e-15)
            assert abs(p - ref.pvalue) <= 1e-12

    def test_unequal_halves_take_the_permutation_p(self):
        g = RngStream(11).child("unequal").generator()
        a = g.standard_normal(300)
        b = g.standard_normal(340) + 0.1
        assert ks_two_sample(a, b) == permutation_ks(a, b)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    def test_tied_equal_halves_take_the_exact_p(self, halves):
        # A pool with ties leaves the closed-form tail, which would only
        # bound the exact p, for the tie-group sum.
        a, b = (np.asarray(h, dtype=float) for h in halves)
        d, p = ks_two_sample(a, b)
        d_exact, p_exact = permutation_ks(a, b)
        assert d == d_exact
        assert abs(p - p_exact) <= 1e-12

    def test_atom_row_reads_its_exact_p(self):
        # A jump-free path's max_jump is 0: an atom below distinct values.
        # The tie-free tail of the same D reads 0.283 against 0.152.
        a = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.1, 1.2])
        b = np.array([0.0, 0.0, 0.0, 0.0, 1.3, 1.4, 1.5, 1.6])
        d, p = ks_two_sample(a, b)
        assert d == 0.5
        assert p == pytest.approx(exact_permutation_p(a, b), rel=0,
                                  abs=1e-12)
        assert p == pytest.approx(0.1515151515, rel=1e-9)
        assert verify._equal_halves_tail(8, 4) == pytest.approx(0.2826728827,
                                                                rel=1e-9)

    @pytest.mark.parametrize("n", [2000, 10000, 20000, 40000])
    @pytest.mark.parametrize("alpha", [0.05, 1e-3, 1e-6])
    def test_cutoffs_match_the_asymptotic_rule(self, n, alpha):
        # At the suite sizes the exact tail rejects from the same k as the
        # asymptotic Kolmogorov rule at every threshold the suites use.
        exact = first_rejecting_k(
            partial(verify._equal_halves_tail, n), n, alpha)
        asymptotic = first_rejecting_k(
            lambda k: scipy.special.kolmogorov(math.sqrt(n / 2) * k / n),
            n, alpha)
        assert exact == asymptotic

    def test_cutoff_exception_at_small_n(self):
        # Below the suite sizes the two rules can part: at n = 400 and
        # 1e-6 the exact tail rejects from k = 76, the asymptotic from 77.
        exact = first_rejecting_k(
            partial(verify._equal_halves_tail, 400), 400, 1e-6)
        assert exact == 76
        assert scipy.special.kolmogorov(math.sqrt(200) * 76 / 400) > 1e-6

    def test_statistic_with_ties(self):
        # Largest CDF gap is at 0.5: F_a = 3/6 vs F_b = 1/4.
        a = np.array([0.0, 0.5, 0.5, 1.0, 2.0, 3.0])
        b = np.array([0.5, 1.0, 1.0, 2.0])
        assert ks_two_sample(a, b)[0] == pytest.approx(3 / 6 - 1 / 4)

    def test_rejects_empty_or_2d(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])
        with pytest.raises(ValueError):
            ks_two_sample(np.zeros((3, 3)), [1.0])


class TestPermutationKs:
    def test_observed_equals_ks_statistic(self):
        g = RngStream(3).child("perm").generator()
        a = g.integers(0, 6, 300).astype(float)
        b = g.integers(0, 6, 400).astype(float)
        d, _ = permutation_ks(a, b)
        assert d == pytest.approx(ecdf_distance(a, b), rel=0, abs=1e-15)

    def test_separated_samples_hit_the_floor(self):
        # Only the two labellings that put every 0 on one side reach D = 1.
        a = np.zeros(100)
        b = np.ones(100)
        d, p = permutation_ks(a, b)
        assert d == 1.0
        assert p == pytest.approx(2 / math.comb(200, 100), rel=1e-12)

    def test_single_value_pool(self):
        assert permutation_ks(np.full(7, 3.0), np.full(4, 3.0)) == (0.0, 1.0)

    def test_singleton_run_after_a_group(self):
        # Single values sit between two groups of three, and the walk step
        # leaves the window of A counts starting below zero; a window read
        # as if it started at zero drops an exit and reads 1/70.
        a = np.array([0.5, 0.5, 0.0, 0.5])
        b = np.array([3.0, 3.0, 3.0, 1.0])
        d, p = permutation_ks(a, b)
        assert d == 1.0
        assert p == pytest.approx(2 / 70, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", [50, 400, 2000])
    def test_tie_free_equal_halves_match_scipy_exact(self, n):
        # One walk step covers the whole pool.
        g = RngStream(43).child("ks_2samp_walk", n).generator()
        a = g.standard_normal(n)
        b = g.standard_normal(n) + 0.1
        d, p = permutation_ks(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="exact")
        assert d == pytest.approx(ref.statistic, rel=0, abs=1e-15)
        assert abs(p - ref.pvalue) <= 1e-12

    def test_null_integer_samples_pass(self):
        g = RngStream(8).child("null").generator()
        a = g.poisson(3.0, 500).astype(float)
        b = g.poisson(3.0, 500).astype(float)
        _, p = permutation_ks(a, b)
        assert p > PER_FUNCTIONAL_ALPHA

    @pytest.mark.parametrize("n", [50, 300, 2000])
    def test_matches_scipy_exact_without_ties(self, n):
        g = RngStream(43).child("ks_2samp", n).generator()
        a = g.standard_normal(n)
        b = g.standard_normal(n + n // 5) + 0.1
        d, p = permutation_ks(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="exact")
        assert d == pytest.approx(ref.statistic, rel=0, abs=1e-15)
        assert abs(p - ref.pvalue) <= 1e-12

    def test_near_threshold_row_is_exact(self):
        # This row's p sits just under the 1e-3 bar, so only an exact p
        # gives it a verdict that does not depend on random draws.
        result = run_suite("loctime_reversal", n=400, seed=1)
        row, = (r for r in result.reports
                if r.functional == "crossing_count_at_fraction:0.35_vs_0.65")
        assert row.p_value == pytest.approx(0.000938229232757, rel=1e-9)
        assert row.verdict == "Reject"


def exact_permutation_p(a, b) -> float:
    """Share of all C(n, n_a) labellings of the pool whose KS statistic
    reaches the observed one, read from the empirical CDFs on the grid of
    distinct values."""
    pool = np.concatenate([a, b])
    n_a, n_b = len(a), len(b)
    below = pool[None, :] <= np.unique(pool)[:, None]  # (values, pool)
    combos = list(itertools.combinations(range(pool.size), n_a))
    labels = np.zeros((len(combos), pool.size), dtype=bool)
    labels[np.repeat(np.arange(len(combos)), n_a), np.ravel(combos)] = True
    in_a = labels.astype(int) @ below.T
    in_b = (~labels).astype(int) @ below.T
    d = np.max(np.abs(in_a / n_a - in_b / n_b), axis=1)
    return float(np.mean(d >= ecdf_distance(a, b) - 1e-12))


def tied_case(i: int) -> tuple:
    """Cases 0-19: small samples on {0, 1, 2, 3}; odd cases shift half B up
    by one.  Cases 20-39: equal halves that mix atoms at 0.5 and 0.25 with
    distinct values, so runs of singletons sit between tie groups; odd
    cases shift half B's distinct values up."""
    g = RngStream(40).child("oracle", i).generator()
    if i >= 20:
        n = int(g.integers(2, 8))
        pool = g.uniform(0.0, 1.0, 2 * n) + np.arange(2 * n) % 2 * (i % 2)
        pool[g.random(2 * n) < 0.3] = 0.5
        pool[g.random(2 * n) < 0.2] = 0.25
        return pool[::2], pool[1::2]
    n_a, n_b = (int(v) for v in g.integers(2, 8, size=2))
    a = g.integers(0, 3, n_a).astype(float)
    b = g.integers(i % 2, 3 + i % 2, n_b).astype(float)
    return a, b


class TestPermutationOracle:
    @pytest.mark.parametrize("case", range(40))
    def test_p_matches_full_enumeration(self, case):
        a, b = tied_case(case)
        d, p = permutation_ks(a, b)
        assert d == pytest.approx(ecdf_distance(a, b), rel=0, abs=1e-15)
        assert abs(p - exact_permutation_p(a, b)) <= 1e-12


class TestNullCalibration:
    def test_rate_in_band_at_acceptance_settings(self):
        # Band around the nominal 0.05 at 1000 repetitions, shipped seed.
        rate = ks_null_calibration(n=2000, repetitions=1000, alpha=0.05)
        lo, hi = CALIBRATION_BAND
        assert lo <= rate <= hi

    def test_deterministic(self):
        r1 = ks_null_calibration(n=200, repetitions=50, seed=3)
        r2 = ks_null_calibration(n=200, repetitions=50, seed=3)
        assert r1 == r2

    def test_permutation_rate_in_band(self):
        # The same band for permutation KS on heavily tied integer halves:
        # 1000 null replications of two Poisson(3) halves at n = 500.
        stream = RngStream(CALIBRATION_SEED).child("verify",
                                                   "perm_calibration")
        rejections = 0
        for i in range(1000):
            g = stream.child(i).generator()
            x = g.poisson(3.0, 1000).astype(float)
            _, p = permutation_ks(x[:500], x[500:])
            rejections += p <= 0.05
        lo, hi = CALIBRATION_BAND
        assert lo <= rejections / 1000 <= hi


class TestFunctionalByName:
    def test_plain_functionals(self):
        assert functional_by_name("lifetime")(EXC) == pytest.approx(3.0)
        assert functional_by_name("height")(EXC) == pytest.approx(2.5)
        assert functional_by_name("area")(EXC) == pytest.approx(EXC.area())
        assert functional_by_name("jump_count")(EXC) == 2.0
        assert functional_by_name("max_jump")(EXC) == 2.0

    def test_fraction_functionals(self):
        # At t = 1.5 the excursion sits at 2.5 - (1.5 - 0.5) = 1.5.
        f = functional_by_name("value_at_fraction:0.5")
        assert f(EXC) == pytest.approx(1.5)
        # Drift crossings: level 1.25 only by the final descent; level 0.75
        # by both descending segments.
        assert functional_by_name("crossing_count_at_fraction:0.5")(EXC) == 1.0
        assert functional_by_name("crossing_count_at_fraction:0.3")(EXC) == 2.0

    def test_plain_rejects_parameter(self):
        with pytest.raises(ValueError):
            functional_by_name("area:0.5")

    def test_fraction_requires_parameter(self):
        with pytest.raises(ValueError):
            functional_by_name("value_at_fraction")

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            functional_by_name("value_at_fraction:1.5")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown functional"):
            functional_by_name("entropy")


EXPECTED_REPORT_COUNTS = {
    "sup_swap": 6,
    "pre_sup_rotation": 4,
    "post_sup_rotation": 4,
    "killed_passage_rotation": 8,
    "sup_excursion_rotation": 4,
    "loctime_reversal": 2,
    "width_reversal": 3,
    "negative_control": 3,
}

_ROTATION_FUNCTIONALS = ("area", "value_at_fraction:0.5", "max_jump",
                         "jump_count")

# (suite label, functional) of every report, in order; frozen so that a
# change to how suites declare their tests cannot rename or reorder rows.
EXPECTED_REPORT_LABELS = {
    "sup_swap": [
        ("sup_swap", "area"),
        ("sup_swap", "value_at_fraction:0.3"),
        ("sup_swap", "value_at_fraction:0.7"),
        ("sup_swap", "max_jump"),
        ("sup_swap", "jump_count"),
        ("sup_swap", "crossing_count_at_fraction:0.25"),
    ],
    "pre_sup_rotation": [("pre_sup_rotation", f)
                         for f in _ROTATION_FUNCTIONALS],
    "post_sup_rotation": [("post_sup_rotation", f)
                          for f in _ROTATION_FUNCTIONALS],
    "killed_passage_rotation": (
        [("killed_passage_rotation[x=0.5]", f) for f in _ROTATION_FUNCTIONALS]
        + [("killed_passage_rotation[x=2]", f)
           for f in _ROTATION_FUNCTIONALS]),
    "sup_excursion_rotation": [("sup_excursion_rotation", f)
                               for f in _ROTATION_FUNCTIONALS],
    "loctime_reversal": [
        ("loctime_reversal", "crossing_count_at_fraction:0.2_vs_0.8"),
        ("loctime_reversal", "crossing_count_at_fraction:0.35_vs_0.65"),
    ],
    "width_reversal": [
        ("width_reversal", "width_at_fraction:0.2_vs_left_0.8"),
        ("width_reversal", "width_at_fraction:0.35_vs_left_0.65"),
        ("width_reversal", "time_weighted_area_vs_reversed"),
    ],
    "negative_control": [
        ("negative_control[mass_mismatch]", "lifetime_mass_mismatch"),
        ("negative_control[mass_mismatch]", "loglr_mass_mismatch"),
        ("negative_control[pre_vs_post]", "abs_area_pre_vs_post"),
    ],
}


class TestSuiteRuns:
    @pytest.mark.parametrize("name", [n for n in SUITE_NAMES
                                      if n != "negative_control"])
    def test_invariance_suite_passes_small(self, name):
        result = run_suite(name, n=300, seed=DEFAULT_SEED)
        assert result.suite == name
        assert result.passed
        assert result.exact_failures == 0
        assert len(result.reports) == EXPECTED_REPORT_COUNTS[name]
        assert ([(r.suite, r.functional) for r in result.reports]
                == EXPECTED_REPORT_LABELS[name])
        assert all(r.verdict == "Pass" for r in result.reports)
        assert all(r.n_a == 300 and r.n_b == 300 for r in result.reports)

    def test_exactness_tallies(self):
        result = run_suite("sup_swap", n=300, seed=DEFAULT_SEED)
        assert result.exact_checked == 300
        # Rotation suites check the transformed half of every sub-spec.
        killed = run_suite("killed_passage_rotation", n=200, seed=DEFAULT_SEED)
        assert killed.exact_checked == 400
        # Pure relabelling suites have nothing to check exactly.
        loctime = run_suite("loctime_reversal", n=300, seed=DEFAULT_SEED)
        assert loctime.exact_checked == 0

    def test_condition_flip_is_an_exact_failure(self, monkeypatch):
        # A transform that moves every path out of the reach-the-depth event
        # (lifting it by 1) keeps the lifetime and the jumps, so only the
        # conditioning half of the exact check can catch it.  It must fail
        # the suite sample by sample rather than end the run.
        build = verify._SUITE_BUILDERS["sup_excursion_rotation"]
        lifted = lambda model, params: [  # noqa: E731
            replace(s, transform=methodcaller("translate", 1.0))
            for s in build(model, params)]
        monkeypatch.setitem(verify._SUITE_BUILDERS, "sup_excursion_rotation",
                            lifted)
        n = DEFAULT_SUITE_SIZES["sup_excursion_rotation"]
        result = run_suite("sup_excursion_rotation", n=n, seed=DEFAULT_SEED)
        assert result.exact_checked == n
        assert result.exact_failures == n
        assert not result.passed

    def test_identity_null_passes(self):
        result = run_suite("sup_swap", n=300, seed=DEFAULT_SEED,
                           identity_null=True)
        assert result.passed
        assert result.exact_checked == 0
        assert all(r.suite.endswith("[null]") for r in result.reports)

    def test_point_mass_rows_make_the_spec_vacuous(self):
        # Under the dirac model every killed sup-excursion is the same path,
        # so every required row pools one value and passes at p = 1.
        result = run_suite("sup_excursion_rotation",
                           model=named_model("dirac"), n=200,
                           seed=DEFAULT_SEED)
        assert result.vacuous == ("sup_excursion_rotation",)
        assert not result.passed
        assert result.exact_failures == 0
        assert all(r.verdict == "Pass" for r in result.reports)
        assert run_suite("sup_excursion_rotation", n=200).vacuous == ()

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_suite_params_validated(self):
        with pytest.raises(ValueError):
            run_suite("loctime_reversal", n=100, fractions=(0.0,))
        with pytest.raises(ValueError):
            run_suite("killed_passage_rotation", n=100, x_values=(-1.0,))


class TestNegativeControl:
    def test_structure_and_underpowered_verdict(self):
        result = run_suite("negative_control", n=2000, seed=DEFAULT_SEED)
        assert (len(result.reports)
                == EXPECTED_REPORT_COUNTS["negative_control"])
        assert ([(r.suite, r.functional) for r in result.reports]
                == EXPECTED_REPORT_LABELS["negative_control"])
        by_name = {r.functional: r for r in result.reports}
        gate = by_name["loglr_mass_mismatch"]
        lifetime = by_name["lifetime_mass_mismatch"]
        info = by_name["abs_area_pre_vs_post"]
        # The log-likelihood ratio of the mismatched pair carries the gate:
        # the suite passes iff it rejects.  Its two laws differ by a KS
        # distance of ~0.056, for an expected p of ~3.5e-3 at 2000 per half,
        # well short of the 1e-6 threshold: this small run comes back
        # non-rejecting.
        assert gate.verdict == "Pass"
        assert gate.p_value > REJECT_ALPHA
        assert not result.passed
        # The weaker lifetime comparison is still reported on the same
        # halves, and at this size it does not reject either.
        assert lifetime.suite == gate.suite
        assert (lifetime.n_a, lifetime.n_b) == (2000, 2000)
        assert lifetime.verdict == "Pass"
        # The informational pair is hugely separated but never gates.
        assert info.verdict == "Reject"
        assert info.p_value < REJECT_ALPHA

    def test_shipped_size_is_powered(self):
        assert DEFAULT_SUITE_SIZES["negative_control"] == 40000

    def test_no_null_version(self):
        with pytest.raises(ValueError):
            run_suite("negative_control", identity_null=True)

    @pytest.mark.parametrize("factor", [0.0, -0.5, float("inf")])
    def test_mass_factor_must_be_positive_and_finite(self, factor):
        with pytest.raises(ValueError):
            run_suite("negative_control", n=100, mass_factor=factor)

    def test_needs_jumps(self):
        from levyexc.models import LevyModel, NullJumps
        with pytest.raises(ValueError):
            run_suite("negative_control", n=100,
                      model=LevyModel(alpha=1.0, beta=0.0, jumps=NullJumps()))


class TestRunSuites:
    def test_subset_and_order(self):
        results = run_suites(["loctime_reversal", "sup_swap"], n=200,
                             seed=DEFAULT_SEED)
        assert [r.suite for r in results] == ["loctime_reversal", "sup_swap"]

    def test_default_sizes_cover_all_suites(self):
        assert set(DEFAULT_SUITE_SIZES) == set(SUITE_NAMES)


class TestSuiteParams:
    @pytest.mark.parametrize("call", [
        lambda: run_suite("sup_excursion_rotation", n=50, dept=0.3),
        lambda: run_suites(["sup_swap"], n=50, x_value=(1.0,)),
        lambda: suite_sampler("killed_passage_rotation", x_value=(9.0,)),
    ])
    def test_misspelled_parameter_raises(self, call):
        with pytest.raises(ValueError, match="x_values, depth, fractions, "
                                             "mass_factor"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: run_suites([]),
        lambda: run_suite("killed_passage_rotation", x_values=()),
        lambda: run_suite("loctime_reversal", fractions=()),
        lambda: suite_sampler("killed_passage_rotation", x_values=()),
    ])
    def test_run_that_checks_nothing_raises(self, call):
        with pytest.raises(ValueError, match="no suites|checks nothing"):
            call()

    def test_parameter_a_suite_does_not_read_is_accepted(self):
        # run_suites hands every parameter to every suite.
        assert (reports_to_csv(run_suite("sup_swap", n=100,
                                         depth=0.3).reports)
                == reports_to_csv(run_suite("sup_swap", n=100).reports))


def test_default_model_is_bd():
    assert default_model() == named_model("bd")


class TestDeterminism:
    def test_byte_identical_reports(self):
        a = run_suite("sup_swap", n=700, seed=9)
        b = run_suite("sup_swap", n=700, seed=9)
        assert reports_to_csv(a.reports) == reports_to_csv(b.reports)

    def test_seed_changes_reports(self):
        a = run_suite("loctime_reversal", n=300, seed=1)
        b = run_suite("loctime_reversal", n=300, seed=2)
        assert reports_to_csv(a.reports) != reports_to_csv(b.reports)


class TestReportsSerialization:
    def test_csv_shape_and_roundtrip_floats(self):
        result = run_suite("loctime_reversal", n=200, seed=DEFAULT_SEED)
        text = reports_to_csv(result.reports)
        lines = text.strip().split("\n")
        assert lines[0].startswith("suite,functional,n_a,n_b,statistic")
        assert len(lines) == 1 + len(result.reports)
        first = lines[1].split(",")
        assert float(first[4]) == result.reports[0].statistic

    def test_json_roundtrip(self):
        result = run_suite("loctime_reversal", n=200, seed=DEFAULT_SEED)
        data = json.loads(reports_to_json(result.reports))
        assert len(data) == len(result.reports)
        assert data[0]["suite"] == "loctime_reversal"
        assert data[0]["p_value"] == result.reports[0].p_value


class TestSuiteSampler:
    def test_returns_deterministic_sampler(self):
        sampler = suite_sampler("sup_swap")
        model = default_model()
        a = sampler(model, 50, RngStream(4).child("s"))
        b = sampler(model, 50, RngStream(4).child("s"))
        assert [p.lifetime for p in a] == [p.lifetime for p in b]
        assert len(a) == 50

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suite_sampler("nope")
