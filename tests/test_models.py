"""Tests for Levy model parametrisation and scale-function numerics.

Closed forms used as oracles:

* Exponential jumps (mass b, rate theta) with unit drift:
  psi(lam) = lam - b*lam/(lam + theta) and, when the model drifts to
  -infinity (psi'(0+) > 0, i.e. theta > b), the bounded scale function
  W(x) = (theta - b*exp(-(theta - b)*x)) / (theta - b), obtained by
  inverting 1/psi(lam) = (lam + theta)/(lam*(lam + theta - b)) in
  partial fractions.
* Jump size fixed at c (mass b) with unit drift: the renewal equation
  W' = b*(W(x) - W(x - c)) gives W(x) = exp(b*x) on [0, c] and
  W(x) = exp(b*x) - b*(x - c)*exp(b*(x - c)) on [c, 2c].
* Pure Brownian part: W(x) = (1 - exp(-alpha*x/beta)) / alpha.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from levyexc.models import (
    DiracJumps,
    ExponentialJumps,
    LevyModel,
    MixtureJumps,
    NullJumps,
    ScaleTable,
    jumps_from_config,
    model_from_config,
)

# Unit-drift model with exponential jumps, mass 1, mean 1/2: psi'(0+) = 1/2,
# so paths drift to -infinity and every excursion closes.
EXP_MODEL = LevyModel.from_drift(1.0, ExponentialJumps(1.0, 2.0))


class TestJumpFamilies:
    def test_exponential_moments(self):
        j = ExponentialJumps(1.0, 2.0)
        assert j.mass == 1.0
        assert j.mean() == 0.5
        # int_0^1 r * 2 exp(-2r) dr = (1 - exp(-2))/2 - exp(-2).
        expected = (1.0 - math.exp(-2.0)) / 2.0 - math.exp(-2.0)
        assert j.small_mean() == pytest.approx(expected, rel=1e-14)
        assert j.tail(0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_dirac_moments(self):
        j = DiracJumps(0.5, 1.0)
        assert j.mass == 0.5
        assert j.mean() == 0.5
        assert j.small_mean() == 0.0  # all mass at r = 1, not below it
        assert j.tail(0.5) == 0.5
        assert j.tail(1.0) == 0.0  # tail is the open interval (z, inf)

    def test_dirac_infinite_size_rejected(self):
        with pytest.raises(ValueError):
            DiracJumps(1.0, math.inf)

    def test_mixture_adds_components(self):
        j = MixtureJumps((ExponentialJumps(1.0, 2.0), DiracJumps(0.5, 1.0)))
        assert j.mass == 1.5
        assert j.mean() == pytest.approx(1.0, rel=1e-14)
        assert j.tail(0.5) == pytest.approx(math.exp(-1.0) + 0.5, rel=1e-14)

    def test_sampling_distributions(self):
        rng = np.random.default_rng(3)
        exp_draws = ExponentialJumps(1.0, 2.0).sample(rng, size=20000)
        assert np.mean(exp_draws) == pytest.approx(0.5, rel=0.05)
        assert np.all(DiracJumps(1.0, 0.7).sample(rng, size=10) == 0.7)
        mix = MixtureJumps((ExponentialJumps(1.0, 2.0), DiracJumps(1.0, 3.0)))
        draws = mix.sample(rng, size=20000)
        # Components have equal mass; mean = (0.5 + 3)/2.
        assert np.mean(draws) == pytest.approx(1.75, rel=0.05)

    def test_null_jumps(self):
        j = NullJumps()
        assert j.mass == 0.0
        with pytest.raises(ValueError):
            j.sample(np.random.default_rng(0))

    def test_config_roundtrip(self):
        j = MixtureJumps((ExponentialJumps(1.0, 2.0), DiracJumps(0.5, 1.0)))
        assert jumps_from_config(j.to_config()) == j

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ValueError):
            jumps_from_config({"family": "exp", "b": 1.0, "theta": 2.0, "x": 1})
        with pytest.raises(ValueError):
            jumps_from_config({"family": "weibull"})


class TestLaplaceExponent:
    def test_psi_exponential_closed_form(self):
        # psi(lam) = lam - lam/(lam+2); at lam = 2: 2 - 0.5 = 1.5.
        assert EXP_MODEL.psi(2.0) == pytest.approx(1.5, rel=1e-14)
        assert EXP_MODEL.psi(0.0) == 0.0

    def test_psi_dirac_closed_form(self):
        m = LevyModel.from_drift(1.0, DiracJumps(0.5, 1.0))
        # psi(1) = 1 - 0.5*(1 - exp(-1)).
        assert m.psi(1.0) == pytest.approx(0.5 + 0.5 * math.exp(-1.0), rel=1e-14)

    def test_psi_vectorized(self):
        lam = np.array([0.0, 1.0, 2.0])
        out = EXP_MODEL.psi(lam)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(1.5, rel=1e-14)

    def test_psi_prime(self):
        # psi'(lam) = 1 - 2/(lam+2)^2: 0.5 at 0.
        assert EXP_MODEL.psi_prime_at_zero() == pytest.approx(0.5, rel=1e-14)

    def test_from_drift_recovers_drift(self):
        assert EXP_MODEL.drift == pytest.approx(1.0, rel=1e-15)
        assert EXP_MODEL.is_finite_variation

    def test_drift_requires_finite_variation(self):
        m = LevyModel(alpha=0.0, beta=1.0, jumps=NullJumps())
        with pytest.raises(ValueError):
            _ = m.drift

    def test_brownian_psi(self):
        m = LevyModel(alpha=-1.0, beta=1.0, jumps=NullJumps())
        # psi(lam) = -lam + lam^2.
        assert m.psi(3.0) == pytest.approx(6.0, rel=1e-14)


class TestCriticalityAndEta:
    def test_criticality_classification(self):
        sub = LevyModel.from_drift(1.0, ExponentialJumps(1.0, 2.0))
        crit = LevyModel.from_drift(1.0, ExponentialJumps(2.0, 2.0))
        sup = LevyModel.from_drift(1.0, ExponentialJumps(3.0, 2.0))
        assert sub.criticality() == "subcritical"
        assert crit.criticality() == "critical"
        assert sup.criticality() == "supercritical"


class TestScaleFunction:
    def test_exponential_closed_form_high_accuracy(self):
        # W(x) = 2 - exp(-x) for unit drift, exponential jumps b=1, theta=2.
        table = EXP_MODEL.scale_table(x_max=2.0, h=1e-3)
        xs = np.arange(0, 2001) * 1e-3
        exact = 2.0 - np.exp(-xs)
        got = np.array(table.values)
        rel = np.max(np.abs(got - exact) / exact)
        assert rel <= 1e-6

    def test_w_at_origin_is_reciprocal_drift(self):
        table = LevyModel.from_drift(2.0, ExponentialJumps(1.0, 2.0)) \
            .scale_table(x_max=1.0, h=1e-3)
        assert table.values[0] == 0.5

    def test_two_sided_exit_probability(self):
        # P_1(T_0 < T_2) = W(1)/W(2) = (2 - e^-1)/(2 - e^-2).
        table = EXP_MODEL.scale_table(x_max=2.0, h=1e-3)
        expected = (2.0 - math.exp(-1.0)) / (2.0 - math.exp(-2.0))
        assert table.exit_probability(1.0, 2.0) == pytest.approx(expected, rel=1e-6)

    def test_exit_probability_monotone_in_start(self):
        table = EXP_MODEL.scale_table(x_max=2.0, h=1e-3)
        ps = [table.exit_probability(x, 2.0) for x in (0.25, 0.75, 1.25, 1.75)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert table.exit_probability(0.0, 2.0) == 1.0

    def test_laplace_transform_inverts_psi(self):
        table = EXP_MODEL.scale_table(x_max=40.0, h=0.01)
        lam = 3.0
        assert table.laplace_transform(lam) == pytest.approx(
            1.0 / EXP_MODEL.psi(lam), rel=1e-4)

    def test_dirac_below_jump_size_is_exponential(self):
        # On [0, c] the renewal equation gives W(x) = exp(b x).
        m = LevyModel.from_drift(1.0, DiracJumps(1.0, 0.8))
        table = m.scale_table(x_max=0.5, h=1e-3)
        assert table.w(0.5) == pytest.approx(math.exp(0.5), rel=1e-7)

    def test_dirac_beyond_jump_size(self):
        # W(1.2) = exp(1.2) - 0.4*exp(0.4) for b=1, c=0.8; the kernel is
        # discontinuous at c so the trapezoid rule is only O(h) there.
        m = LevyModel.from_drift(1.0, DiracJumps(1.0, 0.8))
        table = m.scale_table(x_max=1.5, h=1e-3)
        expected = math.exp(1.2) - 0.4 * math.exp(0.4)
        assert table.w(1.2) == pytest.approx(expected, rel=5e-3)

    def test_brownian_closed_forms(self):
        drifted = LevyModel(alpha=-1.0, beta=1.0, jumps=NullJumps())
        table = drifted.scale_table(x_max=1.0, h=1e-3)
        # W(x) = (1 - exp(x))/(-1) = exp(x) - 1.
        assert table.w(1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
        driftless = LevyModel(alpha=0.0, beta=1.0, jumps=NullJumps())
        assert driftless.scale_table(1.0, 0.25).w(0.5) == pytest.approx(0.5)

    def test_brownian_with_jumps_unsupported(self):
        m = LevyModel(alpha=0.0, beta=1.0, jumps=ExponentialJumps(1.0, 1.0))
        with pytest.raises(ValueError):
            m.scale_table(1.0, 0.1)

    def test_nonpositive_drift_unsupported(self):
        m = LevyModel.from_drift(0.0, ExponentialJumps(1.0, 2.0))
        with pytest.raises(ValueError):
            m.scale_table(1.0, 0.1)

    def test_interpolation_between_nodes(self):
        table = ScaleTable(h=1.0, values=(1.0, 3.0), model=EXP_MODEL)
        assert table.w(0.5) == 2.0
        with pytest.raises(ValueError):
            table.w(1.5)


class TestConfig:
    def test_model_roundtrip(self):
        cfg = EXP_MODEL.to_config()
        assert model_from_config(cfg) == EXP_MODEL

    def test_drift_form_config(self):
        m = model_from_config({"d": 1.0, "jumps": {"family": "exp", "b": 1.0,
                                                   "theta": 2.0}})
        assert m == EXP_MODEL

    def test_drift_and_alpha_conflict(self):
        with pytest.raises(ValueError):
            model_from_config({"d": 1.0, "alpha": 0.5,
                               "jumps": {"family": "null"}})

    def test_unknown_model_keys_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"alpha": 1.0, "gamma": 2.0,
                               "jumps": {"family": "null"}})
