"""Full-size end-to-end checks with stated tolerances and time budgets.

Each test runs one headline check of the package at its production size,
prints a single PASS/FAIL line with the measured numbers, and then
asserts.  Budgets are wall-clock seconds and sit far above the measured
runtimes; they guard against accidental quadratic blowups, not machine
jitter.

Oracle conventions, as in the unit tests: closed forms are derived
independently of the code under test (partial fractions for scale
functions, binomial standard errors for Monte Carlo, busy-period
quadrature for the negative-control effect size, branching-diffusion
moments for the local-time field) and frozen as literals next to the
assertion.
"""

from __future__ import annotations

import math
import time

import numpy as np

from levyexc.excursions import local_time_count, peak_value, pointwise_reflection
from levyexc.models import ExponentialJumps, LevyModel
from levyexc.rayknight import feller_moment_check
from levyexc.simulate import RngStream, exit_probability_mc, sample_excursions
from levyexc.trees import contour_width_identity, sample_tree
from levyexc.verify import (
    CALIBRATION_BAND,
    DEFAULT_SUITE_SIZES,
    PER_FUNCTIONAL_ALPHA,
    ks_null_calibration,
    run_suite,
)

MODEL = LevyModel.from_drift(1.0, ExponentialJumps(1.0, 2.0))


def _report(name: str, ok: bool, detail: str):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _suite_ok(result, require_all_p: bool = True) -> bool:
    ok = result.passed and result.exact_failures == 0
    if require_all_p:
        ok = ok and all(r.p_value > PER_FUNCTIONAL_ALPHA
                        for r in result.reports)
    return ok


def _suite_detail(result, elapsed: float) -> str:
    min_p = min(r.p_value for r in result.reports)
    return (f"min p = {min_p:.3g}, exact "
            f"{result.exact_checked - result.exact_failures}"
            f"/{result.exact_checked}, {elapsed:.1f}s")


def _mismatch_p(result) -> dict:
    """p-values of the gating and the reported mass-mismatch rows."""
    by_name = {r.functional: r.p_value for r in result.reports}
    return {"loglr": by_name["loglr_mass_mismatch"],
            "lifetime": by_name["lifetime_mass_mismatch"]}


def test_scale_function_matches_partial_fraction_oracle():
    # W(x) = (theta - b e^{-(theta-b)x})/(theta-b) = 2 - e^{-x} for
    # d=1, b=1, theta=2 (partial-fraction inversion of 1/psi).
    t0 = time.perf_counter()
    table = MODEL.scale_table(x_max=5.0, h=1e-3)
    xs = np.arange(len(table.values)) * 1e-3
    exact = 2.0 - np.exp(-xs)
    rel = float(np.max(np.abs(np.asarray(table.values) - exact) / exact))
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-6 and elapsed < 1.0
    _report("scale function vs closed form on [0,5]", ok,
            f"max rel err = {rel:.2e}, {elapsed:.2f}s")
    assert rel < 1e-6
    assert elapsed < 1.0


def test_two_sided_exit_probability_matches_scale_ratio():
    # P_1(T_0 < T_2) = W(1)/W(2) = (2-e^-1)/(2-e^-2) = 0.87529 (frozen).
    t0 = time.perf_counter()
    p0 = (2.0 - math.exp(-1.0)) / (2.0 - math.exp(-2.0))
    assert abs(p0 - 0.87529) < 5e-6
    n = 100_000
    rng = RngStream(7).child("acceptance", "exit").generator()
    p_hat = exit_probability_mc(MODEL, 1.0, 2.0, n, rng)
    se = math.sqrt(p0 * (1.0 - p0) / n)
    elapsed = time.perf_counter() - t0
    ok = abs(p_hat - p0) <= 3.0 * se and elapsed < 30.0
    _report("two-sided exit Monte Carlo vs W ratio", ok,
            f"estimate {p_hat:.5f} vs {p0:.5f}, "
            f"{abs(p_hat - p0) / se:.2f} binomial SEs, {elapsed:.1f}s")
    assert abs(p_hat - p0) <= 3.0 * se
    assert elapsed < 30.0


def test_supremum_swap_invariance_full_size():
    t0 = time.perf_counter()
    result = run_suite("sup_swap", model=MODEL, n=20_000)
    elapsed = time.perf_counter() - t0
    ok = _suite_ok(result) and elapsed < 120.0
    _report("supremum-swap invariance at n=20000/half", ok,
            _suite_detail(result, elapsed))
    assert _suite_ok(result)
    assert elapsed < 120.0


def test_rotation_invariance_full_size():
    t0 = time.perf_counter()
    names = ("pre_sup_rotation", "post_sup_rotation",
             "killed_passage_rotation")
    results = [run_suite(name, model=MODEL, n=20_000) for name in names]
    elapsed = time.perf_counter() - t0
    ok = all(_suite_ok(r) for r in results) and elapsed < 240.0
    detail = "; ".join(
        f"{r.suite} min p = {min(rep.p_value for rep in r.reports):.3g}"
        for r in results)
    _report("rotation invariance (pre/post/killed) at n=20000/half", ok,
            f"{detail}, {elapsed:.1f}s")
    for r in results:
        assert _suite_ok(r), r.suite
    assert elapsed < 240.0


def test_crossing_counts_reverse_exactly_and_in_law():
    # Pointwise reflection about half the peak maps crossings of level r
    # onto crossings of peak - r; the counts must agree as integers.
    t0 = time.perf_counter()
    rng = RngStream(7).child("acceptance", "crossings")
    excs = sample_excursions(MODEL, 10_000, rng.generator())
    level_rng = rng.child("levels").generator()
    checked = failures = 0
    for exc in excs:
        flipped = pointwise_reflection(exc)
        peak = peak_value(exc)
        done = 0
        for _ in range(40):
            if done >= 3:
                break
            r = float(level_rng.uniform(0.0, peak))
            try:
                a = local_time_count(flipped, r)
                b = local_time_count(exc, peak - r)
            except ValueError:
                continue  # the draw landed on a breakpoint; redraw
            checked += 1
            done += 1
            if a != b:
                failures += 1
        assert done == 3, "could not find non-breakpoint levels"
    suite = run_suite("loctime_reversal", model=MODEL, n=20_000,
                      fractions=(0.2, 0.35))
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and _suite_ok(suite) and elapsed < 120.0
    _report("crossing-count reversal, exact and in law", ok,
            f"{checked} level checks, {failures} mismatches; "
            + _suite_detail(suite, elapsed))
    assert failures == 0
    assert _suite_ok(suite)
    assert elapsed < 120.0


def test_contour_crossings_equal_width_bulk():
    t0 = time.perf_counter()
    g = RngStream(11).child("acceptance", "contour").generator()
    bad = sum(
        0 if contour_width_identity(sample_tree(MODEL.jumps, g)) else 1
        for _ in range(10_000))
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    _report("contour crossing counts equal population width", ok,
            f"10000 trees, {bad} failures, {elapsed:.1f}s")
    assert bad == 0
    assert elapsed < 60.0


def test_width_reversal_full_size():
    t0 = time.perf_counter()
    result = run_suite("width_reversal", model=MODEL, n=20_000)
    elapsed = time.perf_counter() - t0
    ok = _suite_ok(result) and elapsed < 180.0
    _report("population-width time reversal at n=20000 trees", ok,
            _suite_detail(result, elapsed))
    assert _suite_ok(result)
    assert elapsed < 180.0


def test_sup_excursion_rotation_full_size():
    t0 = time.perf_counter()
    result = run_suite("sup_excursion_rotation", model=MODEL, n=10_000,
                       depth=0.5)
    elapsed = time.perf_counter() - t0
    ok = _suite_ok(result) and elapsed < 180.0
    _report("killed below-supremum excursion rotation at depth 0.5", ok,
            _suite_detail(result, elapsed))
    assert _suite_ok(result)
    assert elapsed < 180.0


def test_negative_controls_and_null_calibration():
    # The mismatch pair is jump mass b = 1.0 against c*b = 0.8 with the same
    # drift and normalised jump law.  The suite gates on the log-likelihood
    # ratio S = log(1/c) N - (1-c) b T of the pair (N jumps, lifetime T) and
    # reports the lifetime comparison beside it.  Busy-period quadrature of
    # the joint law P(N = n, T in dt) = mu^n lam^(n-1) t^(2n-2)
    # e^-(lam+mu)t / (n! (n-1)!) dt (jump rate mu = 2, arrival rate lam)
    # gives exact KS distances, frozen here: 0.05638 between the two laws of
    # S and 0.027968 between the two lifetime laws.  The expected p at
    # n = 10^4 per half is 3e-14 for S (8e-4 for the lifetime alone), so
    # the stated size clears the 1e-6 rejection bar on the gate.  The
    # shipped default size (DEFAULT_SUITE_SIZES) is powered for both rows
    # and is verified by the second run.
    t0 = time.perf_counter()
    stated = run_suite("negative_control", model=MODEL, n=10_000)
    stated_p = _mismatch_p(stated)
    powered = run_suite("negative_control", model=MODEL,
                        n=DEFAULT_SUITE_SIZES["negative_control"])
    powered_p = _mismatch_p(powered)
    rate = ks_null_calibration(n=2000, repetitions=1000, alpha=0.05)
    elapsed = time.perf_counter() - t0
    lo, hi = CALIBRATION_BAND
    in_band = lo <= rate <= hi
    ok = stated.passed and powered.passed and in_band and elapsed < 300.0
    _report("negative control rejects and null calibration in band", ok,
            f"mismatch loglr p = {stated_p['loglr']:.2e} (lifetime p = "
            f"{stated_p['lifetime']:.2e}) at n=10000 (rejects: "
            f"{stated.passed}), loglr p = {powered_p['loglr']:.2e} "
            f"(lifetime p = {powered_p['lifetime']:.2e}) at n="
            f"{DEFAULT_SUITE_SIZES['negative_control']} (rejects: "
            f"{powered.passed}), calibration rate = {rate:.3f}, "
            f"{elapsed:.1f}s")
    assert powered.passed
    assert in_band
    assert elapsed < 300.0
    assert stated.passed, (
        f"mismatch loglr p = {stated_p['loglr']:.3g} (lifetime p = "
        f"{stated_p['lifetime']:.3g}) at n=10000 per half does not clear "
        "the 1e-6 rejection threshold (expected loglr p ~ 3e-14 for the "
        "0.05638 effect); the shipped size rejects at loglr p = "
        f"{powered_p['loglr']:.3g}")


def test_brownian_local_time_moments():
    # E L^t = 1 and Var L^t = 4t at t in {0.1, 0.2} for the occupation
    # field read at boundary local time 1 (branching-diffusion moments).
    t0 = time.perf_counter()
    chk = feller_moment_check(target=1.0, levels=(0.1, 0.2), n_paths=5000,
                              h=1e-4)
    elapsed = time.perf_counter() - t0
    ok = chk.passed and elapsed < 300.0
    mean_s = ", ".join(f"{m:.4f}" for m in chk.means)
    var_s = ", ".join(f"{v:.4f}" for v in chk.variances)
    _report("reflected-walk local-time field moments", ok,
            f"means [{mean_s}] vs 1 within 5%, variances [{var_s}] vs "
            f"[0.4, 0.8] within 10%, {elapsed:.1f}s")
    assert chk.passed
    assert elapsed < 300.0
