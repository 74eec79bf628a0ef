"""Brownian local-time field sampled at an inverse local time.

The classical identity under test: run a reflected Brownian motion until
its boundary local time at zero reaches ``x``, then read off the
occupation densities it has accumulated at every level ``t >= 0``.  As a
process in the space variable ``t`` that field is a continuous-state
branching diffusion started at ``x`` (the squared-Bessel-of-dimension-zero
diffusion dZ = 2 sqrt(Z) dW), so its marginals satisfy

    E[L^t] = x          (the field is a martingale in t),
    Var[L^t] = 4 x t    (integrated quadratic variation).

This module checks those two moment identities on a grid simulation, which
is as far as a desk-scale Monte Carlo can verify the identity.

Construction
------------
Let ``W`` be the free walk with steps ``sqrt(h) N(0, 1)`` and ``m`` its
running minimum.  The Skorokhod reflection ``R = W - m`` is the reflected
walk and ``-m`` is *exactly* its boundary term at 0: no estimator enters
the stopping rule.  To keep paths on a compact interval, ``R`` is mirrored
at ``cap`` (the barrier ``m + cap`` moves with the minimum), which excises
excursion pieces above the cap; that changes neither the occupation of
levels below the cap nor the boundary term at 0.

The occupation density of the *reflected* walk at a positive level
aggregates two independent branches of the branching field, one per sign
of the underlying free walk, each started at the boundary term.  Stopping
when ``-m`` reaches ``x / 2`` therefore starts the aggregated field at
``x``, with the moments above.

Level local times are read from the occupation histogram
``L^t ~ #{steps in [t - delta/2, t + delta/2)} * h / delta``.  Three
discretization effects remain, each small at the default settings:

* running-minimum overshoot inflates the boundary clock by about
  ``0.583 * sqrt(h)``, lifting every mean by roughly 1% at ``h = 1e-4``;
* reading local time through step counts carries the walk-vs-diffusion
  local-time fluctuation, which *adds* variance ``kappa * sqrt(h) * x``
  (``kappa ~ 2.6``) independent of the bin width;
* averaging the field over a bin of width ``delta`` *removes* variance
  ``(2/3) * x * delta`` (from ``Cov(Z_s, Z_t) = 4 x min(s, t)``).

The last two are level-independent absolute shifts of opposite sign, so
the default bin width is chosen near ``(3/2) * kappa * sqrt(h)`` where
they offset; the net variance bias is then well under the sampling noise
at the default path count, and the offset degrades gently (a 25% error
in ``kappa`` moves the net by under 2% of the smallest checked value).

The walks advance in lockstep: each step draws one normal per live path,
in path order, and a path leaves the array at the step its boundary term
reaches ``x / 2``, so the field is a function of the generator's normal
sequence alone.  The step loop draws that sequence in chunks, scaled by
``sqrt(h)`` as they are drawn, and hands each step the next ``live``
values; numpy's ``Generator`` fills an array sequentially, so a chunk holds
the very values the per-step draws would, and the scaling is the same
IEEE multiply.  Bin occupancy is counted over blocks of stored rows of the
reflected walk, each row stored after its step's mirror fix, and every
block is counted before the live paths are compacted.  The counts are
integers, so grouping them cannot change them: the field is bit for bit
the one a loop that draws and counts step by step returns, whatever the
chunk and block sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from levyexc.simulate import DEFAULT_SEED, RngStream

__all__ = [
    "local_time_field",
    "MomentCheck",
    "moment_check",
    "feller_moment_check",
]

# local_time_field draws _CHUNK normals at a time and counts bin occupancy
# over blocks of up to _BLOCK steps (at most 255: counts are summed in bytes).
_CHUNK = 1 << 16
_BLOCK = 32


def local_time_field(target: float, levels, n_paths: int, h: float,
                     delta: float, cap: float = 1.0,
                     seed: int = DEFAULT_SEED,
                     max_time: float = 100.0) -> np.ndarray:
    """Histogram local times at ``levels`` when the boundary term reaches ``target``.

    Simulates ``n_paths`` independent reflected walks of step ``h`` and
    returns an ``(n_paths, len(levels))`` array whose row ``i`` holds the
    level local times of path ``i`` at the moment its exact boundary local
    time at 0 first reaches ``target`` (see the module docstring for the
    construction; the walk itself is stopped when its running-minimum term
    reaches ``target / 2``).

    The simulation is a single deterministic sequence of draws from
    ``seed``, so the output is reproducible.  A path that fails to reach
    the target within ``max_time`` raises ``RuntimeError``; with the
    defaults the stopping time concentrates near ``target`` time units, so
    the cap marks a bug, not bad luck.  A ``target``, ``h``, ``delta``,
    ``cap`` or ``max_time`` that is not positive and finite, or an empty
    ``levels``, raises ``ValueError`` before any draw.
    """
    levels = tuple(float(t) for t in levels)
    for name, value in (("target", target), ("h", h), ("delta", delta),
                        ("cap", cap), ("max_time", max_time)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, "
                             f"not {value!r}")
    if n_paths < 1:
        raise ValueError("need at least one path")
    if not levels:
        raise ValueError("need at least one level")
    half = delta / 2.0
    for t in levels:
        if not half <= t <= cap - half:
            raise ValueError(f"level {t!r} must sit in [delta/2, cap - "
                             f"delta/2] = [{half}, {cap - half}]")
    sqrt_h = math.sqrt(h)
    boundary_target = target / 2.0
    max_steps = int(math.ceil(max_time / h))
    g = RngStream(seed).child("rayknight").generator()
    lo = [t - half for t in levels]
    hi = [t + half for t in levels]

    out = np.full((n_paths, len(levels)), np.nan)
    walk = np.zeros(n_paths)            # free walk, mirrored at min + cap
    run_min = np.zeros(n_paths)
    counts = [np.zeros(n_paths, dtype=np.int64) for _ in levels]
    orig = np.arange(n_paths)
    live = n_paths
    # noise[pos:drawn] holds the drawn normals, times sqrt_h, not yet used
    noise = np.empty(n_paths + max(_CHUNK, n_paths))
    pos = drawn = 0
    # rows[:filled] holds the reflected walk of the steps not yet counted
    rows = np.empty(_BLOCK * n_paths)
    block = rows.reshape(_BLOCK, live)
    filled = 0
    for _ in range(max_steps):
        if pos + live > drawn:
            left = drawn - pos
            noise[:left] = noise[pos:drawn]
            pos, drawn = 0, left + max(_CHUNK, live)
            fresh = noise[left:drawn]
            g.standard_normal(out=fresh)
            np.multiply(fresh, sqrt_h, out=fresh)
        np.add(walk, noise[pos:pos + live], out=walk)
        pos += live
        np.minimum(run_min, walk, out=run_min)
        reflected = block[filled]
        np.subtract(walk, run_min, out=reflected)
        if np.maximum.reduce(reflected) > cap:
            over = reflected > cap
            reflected[over] = 2.0 * cap - reflected[over]
            walk[over] = run_min[over] + reflected[over]
        filled += 1
        stop = -np.minimum.reduce(run_min) >= boundary_target
        if stop or filled == _BLOCK:
            _count(counts, block[:filled], lo, hi)
            filled = 0
        if stop:
            stopped = -run_min >= boundary_target
            gone = orig[stopped]
            for j, c in enumerate(counts):
                out[gone, j] = c[stopped] * (h / delta)
            keep = ~stopped
            walk = walk[keep]
            run_min = run_min[keep]
            counts = [c[keep] for c in counts]
            orig = orig[keep]
            live = orig.size
            if live == 0:
                return out
            block = rows[:_BLOCK * live].reshape(_BLOCK, live)
    raise RuntimeError(f"{live} paths still short of the target local "
                       f"time after {max_time} time units")


def _count(counts, rows, lo, hi) -> None:
    """Add each path's bin occupancy over the walk ``rows`` to ``counts``
    (summed in bytes: at most 255 rows)."""
    for c, a, b in zip(counts, lo, hi):
        inside = (rows >= a) & (rows < b)
        c += np.add.reduce(inside.view(np.uint8), axis=0, dtype=np.uint8)


@dataclass(frozen=True)
class MomentCheck:
    """Outcome of the branching-diffusion moment check."""

    target_local_time: float
    levels: tuple
    n_paths: int
    h: float
    delta: float
    means: tuple
    variances: tuple
    expected_means: tuple
    expected_variances: tuple
    mean_rel_errors: tuple
    var_rel_errors: tuple
    mean_tolerance: float
    var_tolerance: float
    passed: bool


def feller_moment_check(target: float = 1.0, levels=(0.1, 0.2),
                        n_paths: int = 5000, h: float = 1e-4,
                        delta: float = 0.04,
                        seed: int = DEFAULT_SEED) -> MomentCheck:
    """Check E[L^t] = target and Var[L^t] = 4 target t at the given levels.

    Runs :func:`local_time_field` and compares the empirical mean and
    variance per level against the branching-diffusion values within the
    relative tolerances of :func:`moment_check` (5% and 10%).  At the
    default sizes the Monte Carlo standard errors are about 0.9% of the mean
    and 2.5-3% of the variance, so the tolerances sit 3-6 standard errors
    past the residual bias.  The default bin width pairs with the default
    step so the two variance discretization effects offset (see the module
    docstring).
    """
    field = local_time_field(target, levels, n_paths, h, delta, seed=seed)
    return moment_check(field, target, levels, h, delta)


def moment_check(field: np.ndarray, target: float, levels, h: float,
                 delta: float, mean_tolerance: float = 0.05,
                 var_tolerance: float = 0.10) -> MomentCheck:
    """The verdict of :func:`feller_moment_check` on a simulated field.

    ``field`` is the ``(n_paths, len(levels))`` result of
    :func:`local_time_field` run with ``target``, ``levels``, ``h`` and
    ``delta``; the empirical mean and variance per level are compared with
    the branching-diffusion values within the given relative tolerances.
    A variance needs at least two rows, and a check at least one level.
    """
    n_paths = field.shape[0]
    if n_paths < 2:
        raise ValueError(f"need at least two rows of the field, not {n_paths}")
    if len(levels) == 0:
        raise ValueError("need at least one level")
    means = field.mean(axis=0)
    variances = field.var(axis=0, ddof=1)
    exp_means = np.full(len(levels), float(target))
    exp_vars = 4.0 * float(target) * np.asarray(levels, dtype=float)
    mean_err = np.abs(means - exp_means) / exp_means
    var_err = np.abs(variances - exp_vars) / exp_vars
    passed = bool(np.all(mean_err <= mean_tolerance)
                  and np.all(var_err <= var_tolerance))
    return MomentCheck(
        target_local_time=float(target),
        levels=tuple(float(t) for t in levels),
        n_paths=int(n_paths),
        h=float(h),
        delta=float(delta),
        means=tuple(float(v) for v in means),
        variances=tuple(float(v) for v in variances),
        expected_means=tuple(float(v) for v in exp_means),
        expected_variances=tuple(float(v) for v in exp_vars),
        mean_rel_errors=tuple(float(v) for v in mean_err),
        var_rel_errors=tuple(float(v) for v in var_err),
        mean_tolerance=float(mean_tolerance),
        var_tolerance=float(var_tolerance),
        passed=passed,
    )
