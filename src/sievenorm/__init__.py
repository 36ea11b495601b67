"""Exponential-sum kernels, large-sieve checks, and L1-norm experiments.

The package is organized bottom-up:

- :mod:`sievenorm.expsum` -- exponential sums F_N, the Fejer kernel, and the
  derived kernel families, each with two independent evaluation routes;
- :mod:`sievenorm.arith` -- sieve tables (spf, mu, phi, Lambda), Ramanujan
  sums, and named coefficient sequences;
- :mod:`sievenorm.quadrature` -- L1/L2 norms by refining rectangle rules;
- :mod:`sievenorm.largesieve` -- certified well-spaced point sets and the
  sharp large-sieve inequality;
- :mod:`sievenorm.experiments` -- the experiment battery tying it together;
- :mod:`sievenorm.cli` -- the ``sievenorm`` command.
"""

__version__ = "0.1.0"

from .arith import (
    ArithmeticTables,
    SEQUENCE_KINDS,
    build_tables,
    coefficient_sequence,
    prime_count,
    ramanujan_sum,
    ramanujan_sum_direct,
    squarefree_count,
)
from .errors import CapacityError, InvariantError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentRow,
    SuiteConfig,
    default_suite_config,
    invariant_violations,
    kernel_gap_rows,
    lambda_kernel_integral_row,
    lambda_l1_bounds,
    large_sieve_trials,
    mangoldt_weighted_sum_row,
    mobius_ramanujan_weighted_sum,
    prime_count_floor_row,
    prime_support_experiments,
    run_suite,
    squarefree_theorem_ratio,
)
from .expsum import (
    KERNEL_KINDS,
    CoefficientSequence,
    GridEvaluation,
    KernelSpec,
    distance_to_nearest_integer,
    duality_gap,
    eval_F,
    eval_T,
    eval_kernel,
    eval_kernel_spectral,
    eval_sequence,
    grid_eval_kernel,
    grid_eval_sequence,
    kernel_coefficients,
    spectral_weights,
)
from .largesieve import (
    FAREY_KINDS,
    LargeSieveResult,
    SpacedPointSet,
    build_point_set,
    large_sieve_check,
    point_count,
    sieve_bound_for_kernel_gap,
)
from .quadrature import (
    L1Estimate,
    l1_norm,
    l2_norm_sq,
    l2_norm_sq_quadrature,
)

__all__ = [name for name in dir() if not name.startswith("_")]
