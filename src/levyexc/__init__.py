"""Simulation and verification toolkit for spectrally positive Levy
processes reflected at their running infimum.

Subpackage map:

- :mod:`levyexc.paths` piecewise-linear cadlag paths and the
  space-time-reversal (rotation) algebra.
- :mod:`levyexc.models` Laplace exponents, criticality, and scale-function
  numerics for finite-mass jump measures.
- :mod:`levyexc.simulate` exact event-driven simulation through one
  drift-then-jump kernel, and excursion extraction above the infimum /
  below the supremum.
- :mod:`levyexc.excursions` excursion functionals: pre/post-supremum
  split, the supremum-swap involution, and local times.
- :mod:`levyexc.trees` binary splitting trees, population width, and the
  jumping chronological contour process.
- :mod:`levyexc.verify` two-sample distributional checks and the
  invariance test suites built on them.
- :mod:`levyexc.rayknight` occupation-field moment checks for reflected
  Brownian motion.
- :mod:`levyexc.cli` the ``levyexc`` command line: simulate, scale-fn,
  verify, and hist subcommands.
"""

from __future__ import annotations

__version__ = "0.1.0"

from levyexc.excursions import (
    argmax_time,
    local_time_count,
    pointwise_reflection,
    post_sup,
    pre_sup,
    supremum_swap,
)
from levyexc.models import (
    DiracJumps,
    ExponentialJumps,
    LevyModel,
    MixtureJumps,
    NullJumps,
    ScaleTable,
    model_from_config,
)
from levyexc.paths import EventPath, concat
from levyexc.rayknight import feller_moment_check, local_time_field
from levyexc.simulate import (
    RngStream,
    exit_probability_mc,
    sample_excursions,
    sample_killed_sup_excursions,
    sample_path_fv,
)
from levyexc.trees import contour_width_identity, sample_tree, width_process
from levyexc.verify import (
    SUITE_NAMES,
    ks_two_sample,
    permutation_ks,
    run_suite,
    run_suites,
)

__all__ = [
    "__version__",
    "EventPath",
    "concat",
    "ExponentialJumps",
    "DiracJumps",
    "MixtureJumps",
    "NullJumps",
    "LevyModel",
    "ScaleTable",
    "model_from_config",
    "RngStream",
    "sample_path_fv",
    "sample_excursions",
    "sample_killed_sup_excursions",
    "exit_probability_mc",
    "argmax_time",
    "pre_sup",
    "post_sup",
    "supremum_swap",
    "pointwise_reflection",
    "local_time_count",
    "sample_tree",
    "width_process",
    "contour_width_identity",
    "ks_two_sample",
    "permutation_ks",
    "run_suite",
    "run_suites",
    "SUITE_NAMES",
    "local_time_field",
    "feller_moment_check",
]
