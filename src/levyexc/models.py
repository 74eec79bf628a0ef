"""Spectrally positive Levy process models and scale-function numerics.

A model is the triple (alpha, beta, jump measure) entering the Laplace
exponent

    psi(lam) = alpha*lam + beta*lam**2
               + integral (exp(-lam*r) - 1 + lam*r*1{r<1}) Pi(dr),

with ``E exp(-lam * X_t) = exp(t * psi(lam))``.  All supported jump
measures have finite total mass ``b`` and finite mean ``m = int r Pi(dr)``,
so a model with ``beta == 0`` has finite variation and the equivalent
drift form

    psi(lam) = d*lam - integral (1 - exp(-lam*r)) Pi(dr),
    d = alpha + integral_{0<r<1} r Pi(dr).

Such a path drifts at slope ``-d`` between upward jumps arriving at rate
``b`` with sizes drawn from ``Pi / b``.  The process drifts to +inf,
oscillates, or drifts to -inf according to the sign of ``psi'(0+) = d - m``
(supercritical / critical / subcritical branching terminology: a model is
(sub)critical iff ``psi'(0+) >= 0``).

The scale function W is characterised by its Laplace transform
``int_0^inf exp(-lam*x) W(x) dx = 1 / psi(lam)`` for ``lam`` above the
largest root ``eta`` of psi, and gives the two-sided exit probability
``P_x(T_0 < T_a) = W(a - x) / W(a)``.  For finite-variation models W
solves the renewal (Volterra) equation

    W(x) = (1/d) * (1 + int_0^x W(x - z) PiBar(z) dz),  PiBar(z) = Pi((z, inf)),

which :func:`LevyModel.scale_table` integrates by second-order trapezoid
marching from ``W(0) = 1/d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "ExponentialJumps",
    "DiracJumps",
    "MixtureJumps",
    "NullJumps",
    "JumpSpec",
    "LevyModel",
    "ScaleTable",
    "jumps_from_config",
    "model_from_config",
    "named_model",
]


@dataclass(frozen=True)
class ExponentialJumps:
    """Jump measure Pi(dr) = b * theta * exp(-theta r) dr on (0, inf)."""

    b: float
    theta: float

    def __post_init__(self):
        if self.b < 0 or not math.isfinite(self.b):
            raise ValueError("jump mass b must be finite and >= 0")
        if self.theta <= 0 or not math.isfinite(self.theta):
            raise ValueError("theta must be finite and > 0")

    @property
    def mass(self) -> float:
        return self.b

    def mean(self) -> float:
        return self.b / self.theta

    def small_mean(self) -> float:
        """integral_{0<r<1} r Pi(dr)."""
        th = self.theta
        return self.b * ((1.0 - math.exp(-th)) / th - math.exp(-th))

    def levy_integral(self, lam):
        """integral (1 - exp(-lam r)) Pi(dr), vectorized in lam."""
        lam = np.asarray(lam, dtype=float)
        return self.b * lam / (lam + self.theta)

    def tail(self, z):
        """PiBar(z) = Pi((z, inf)), vectorized in z >= 0."""
        z = np.asarray(z, dtype=float)
        return self.b * np.exp(-self.theta * z)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.theta, size=size)

    def to_config(self) -> dict:
        return {"family": "exp", "b": self.b, "theta": self.theta}


@dataclass(frozen=True)
class DiracJumps:
    """Jump measure Pi = b * delta_c (all jumps have size c)."""

    b: float
    c: float

    def __post_init__(self):
        if self.b < 0 or not math.isfinite(self.b):
            raise ValueError("jump mass b must be finite and >= 0")
        if self.c <= 0 or not math.isfinite(self.c):
            raise ValueError("jump size c must be finite and > 0 (no mass at +inf)")

    @property
    def mass(self) -> float:
        return self.b

    def mean(self) -> float:
        return self.b * self.c

    def small_mean(self) -> float:
        return self.b * self.c if self.c < 1.0 else 0.0

    def levy_integral(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self.b * (1.0 - np.exp(-lam * self.c))

    def tail(self, z):
        z = np.asarray(z, dtype=float)
        return self.b * (z < self.c).astype(float)

    def sample(self, rng, size=None):
        if size is None:
            return self.c
        return np.full(size, self.c)

    def to_config(self) -> dict:
        return {"family": "dirac", "b": self.b, "c": self.c}


@dataclass(frozen=True)
class MixtureJumps:
    """Finite mixture of jump measures: Pi = sum of component measures."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for comp in comps:
            if isinstance(comp, MixtureJumps):
                raise ValueError("nested mixtures are not supported")
        object.__setattr__(self, "components", comps)

    @property
    def mass(self) -> float:
        return sum(c.mass for c in self.components)

    def mean(self) -> float:
        return sum(c.mean() for c in self.components)

    def small_mean(self) -> float:
        return sum(c.small_mean() for c in self.components)

    def levy_integral(self, lam):
        return sum(c.levy_integral(lam) for c in self.components)

    def tail(self, z):
        return sum(c.tail(z) for c in self.components)

    def sample(self, rng, size=None):
        masses = np.array([c.mass for c in self.components])
        probs = masses / masses.sum()
        if size is None:
            k = rng.choice(len(self.components), p=probs)
            return self.components[k].sample(rng)
        ks = rng.choice(len(self.components), p=probs, size=size)
        out = np.empty(size, dtype=float)
        for k, comp in enumerate(self.components):
            mask = ks == k
            n = int(mask.sum())
            if n:
                out[mask] = comp.sample(rng, size=n)
        return out

    def to_config(self) -> dict:
        return {"family": "mixture",
                "components": [c.to_config() for c in self.components]}


@dataclass(frozen=True)
class NullJumps:
    """No jumps (Pi = 0)."""

    @property
    def mass(self) -> float:
        return 0.0

    def mean(self) -> float:
        return 0.0

    def small_mean(self) -> float:
        return 0.0

    def levy_integral(self, lam):
        return np.zeros_like(np.asarray(lam, dtype=float))

    def tail(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def sample(self, rng, size=None):
        raise ValueError("the null jump measure has nothing to sample")

    def to_config(self) -> dict:
        return {"family": "null"}


JumpSpec = Union[ExponentialJumps, DiracJumps, MixtureJumps, NullJumps]


def jumps_from_config(cfg: dict) -> JumpSpec:
    """Build a jump measure from its JSON configuration."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ValueError("jump config must be a dict with a 'family' key")
    cfg = dict(cfg)
    family = cfg.pop("family")
    if family == "exp":
        spec = ExponentialJumps(cfg.pop("b"), cfg.pop("theta"))
    elif family == "dirac":
        spec = DiracJumps(cfg.pop("b"), cfg.pop("c"))
    elif family == "mixture":
        comps = cfg.pop("components")
        spec = MixtureJumps(tuple(jumps_from_config(c) for c in comps))
    elif family == "null":
        spec = NullJumps()
    else:
        raise ValueError(f"unknown jump family {family!r}")
    if cfg:
        raise ValueError(f"unknown jump config keys {sorted(cfg)}")
    return spec


@dataclass(frozen=True)
class LevyModel:
    """Spectrally positive Levy model (alpha, beta, jump measure)."""

    alpha: float
    beta: float
    jumps: JumpSpec

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.beta < 0 or not math.isfinite(self.beta):
            raise ValueError("beta must be finite and >= 0")

    @classmethod
    def from_drift(cls, d: float, jumps: JumpSpec) -> "LevyModel":
        """Finite-variation model with drift slope -d between jumps."""
        return cls(alpha=d - jumps.small_mean(), beta=0.0, jumps=jumps)

    @property
    def is_finite_variation(self) -> bool:
        return self.beta == 0.0

    @cached_property
    def drift(self) -> float:
        """Drift coefficient d of the finite-variation form."""
        if not self.is_finite_variation:
            raise ValueError("drift form requires beta = 0")
        return self.alpha + self.jumps.small_mean()

    def psi(self, lam):
        """Laplace exponent psi(lam), vectorized in lam >= 0."""
        lam = np.asarray(lam, dtype=float)
        out = (self.alpha * lam + self.beta * lam * lam
               - self.jumps.levy_integral(lam) + lam * self.jumps.small_mean())
        return float(out) if out.ndim == 0 else out

    def psi_prime_at_zero(self) -> float:
        """psi'(0+) = -E[X_1]; the process is (sub)critical iff >= 0."""
        return self.alpha + self.jumps.small_mean() - self.jumps.mean()

    def criticality(self) -> str:
        slope = self.psi_prime_at_zero()
        if slope > 0.0:
            return "subcritical"
        if slope == 0.0:
            return "critical"
        return "supercritical"

    def scale_table(self, x_max: float, h: float) -> "ScaleTable":
        """Tabulate the scale function W on [0, x_max] with step h.

        Finite-variation models are solved by trapezoid marching of the
        renewal equation; jump-free Brownian models (beta > 0) use the
        closed forms W(x) = x/beta and W(x) = (1 - exp(-alpha x/beta))/alpha.
        Brownian components combined with jumps are not supported.
        """
        if not (0.0 < x_max < math.inf and 0.0 < h < math.inf):
            raise ValueError("x_max and h must be positive and finite")
        n = int(round(x_max / h))
        xs = np.arange(n + 1) * h
        if self.beta > 0.0:
            if self.jumps.mass != 0.0:
                raise ValueError("scale function with beta > 0 and jumps "
                                 "is not supported")
            if self.alpha == 0.0:
                w = xs / self.beta
            else:
                w = (1.0 - np.exp(-self.alpha * xs / self.beta)) / self.alpha
            return ScaleTable(h=h, values=tuple(w), model=self)
        d = self.drift
        if d <= 0.0:
            raise ValueError("the renewal solve needs drift d > 0")
        tail = np.asarray(self.jumps.tail(xs), dtype=float)
        w = np.empty(n + 1)
        w[0] = 1.0 / d
        # Trapezoid-in-z marching: w[k] appears in the z = 0 node, solve it out.
        denom = 1.0 - 0.5 * h * tail[0] / d
        for k in range(1, n + 1):
            conv = 0.5 * w[0] * tail[k]
            if k > 1:
                conv += float(np.dot(w[k - 1:0:-1], tail[1:k]))
            w[k] = (1.0 / d) * (1.0 + h * conv) / denom
        return ScaleTable(h=h, values=tuple(w), model=self)

    def to_config(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta,
                "jumps": self.jumps.to_config()}


def model_from_config(cfg: dict) -> LevyModel:
    """Build a model from {"alpha","beta","jumps"} or {"d","jumps"} JSON."""
    if not isinstance(cfg, dict):
        raise ValueError("model config must be a dict")
    cfg = dict(cfg)
    jumps = jumps_from_config(cfg.pop("jumps", {"family": "null"}))
    if "d" in cfg:
        if "alpha" in cfg or "beta" in cfg:
            raise ValueError("give either 'd' or 'alpha'/'beta', not both")
        model = LevyModel.from_drift(cfg.pop("d"), jumps)
    else:
        model = LevyModel(alpha=cfg.pop("alpha", 0.0),
                          beta=cfg.pop("beta", 0.0), jumps=jumps)
    if cfg:
        raise ValueError(f"unknown model config keys {sorted(cfg)}")
    return model


def named_model(name: str) -> LevyModel:
    """Return a model from the short-name catalog used by the CLI.

    Names:
      - ``bd`` birth-death style, drift 1 with Exponential(b=1, theta=2)
        jumps, subcritical (offspring mean 1/2); the package default.
      - ``bd-critical`` / ``bd-super`` the same family at offspring mean
        1 and 3/2.
      - ``bd-control`` ``bd`` with its jump mass scaled by 0.8 (b=0.8).
        The negative-control suite does not use it: it scales the given
        model's jump mass by its ``mass_factor`` parameter.
      - ``dirac`` drift 1 with unit-size jumps at rate 1/2, subcritical.
      - ``brownian`` pure Brownian component (alpha=0, beta=1).
      - ``brownian-drift`` Brownian with alpha=1, beta=1.
    """
    catalog = {
        "bd": lambda: LevyModel.from_drift(1.0, ExponentialJumps(1.0, 2.0)),
        "bd-critical": lambda: LevyModel.from_drift(
            1.0, ExponentialJumps(2.0, 2.0)),
        "bd-super": lambda: LevyModel.from_drift(
            1.0, ExponentialJumps(3.0, 2.0)),
        "bd-control": lambda: LevyModel.from_drift(
            1.0, ExponentialJumps(0.8, 2.0)),
        "dirac": lambda: LevyModel.from_drift(1.0, DiracJumps(0.5, 1.0)),
        "brownian": lambda: LevyModel(alpha=0.0, beta=1.0, jumps=NullJumps()),
        "brownian-drift": lambda: LevyModel(alpha=1.0, beta=1.0,
                                            jumps=NullJumps()),
    }
    try:
        build = catalog[name]
    except KeyError:
        raise ValueError(f"unknown model name {name!r}; choose from "
                         f"{sorted(catalog)}") from None
    return build()


@dataclass(frozen=True)
class ScaleTable:
    """Tabulated scale function W on a uniform grid of step h."""

    h: float
    values: tuple
    model: LevyModel

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("scale function values must be nondecreasing")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    @property
    def x_max(self) -> float:
        return (len(self.values) - 1) * self.h

    def w(self, x) -> float:
        """Linear interpolation of W at x in [0, x_max]."""
        x = float(x)
        if x < 0.0 or x > self.x_max * (1.0 + 1e-12):
            raise ValueError(f"x = {x!r} outside the tabulated range")
        pos = min(x / self.h, len(self.values) - 1)
        i = int(pos)
        frac = pos - i
        if i >= len(self.values) - 1:
            return self.values[-1]
        return (1.0 - frac) * self.values[i] + frac * self.values[i + 1]

    def exit_probability(self, x: float, a: float) -> float:
        """P_x(T_0 < T_a) = W(a - x) / W(a) for 0 <= x <= a <= x_max."""
        if not 0.0 <= x <= a:
            raise ValueError("need 0 <= x <= a")
        return self.w(a - x) / self.w(a)

    def laplace_transform(self, lam: float) -> float:
        """Numeric int_0^inf exp(-lam x) W(x) dx with a constant-tail fix.

        Trapezoid over the tabulated range plus W(x_max) * exp(-lam x_max)
        / lam for the tail; accurate when lam * x_max is a few units.
        """
        xs = np.arange(len(self.values)) * self.h
        vals = np.asarray(self.values)
        integrand = np.exp(-lam * xs) * vals
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        body = float(trapezoid(integrand, dx=self.h))
        tail = vals[-1] * math.exp(-lam * self.x_max) / lam
        return body + tail
