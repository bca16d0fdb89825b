"""Numerical laboratory for weighted partial sums of Rademacher random
multiplicative functions: exact enumeration oracles, seed-parallel Monte
Carlo, explicit squarefree-weighted sums, and closed-form bound calculators
for the positivity regime sigma -> 1/2+.
"""

from types import ModuleType as _Module

from .bounds import (
    BoundReport,
    RegimeParams,
    VarianceMode,
    angelo_xu_bound,
    bh_rhs,
    billingsley_constant,
    corollary_upper_bound,
    hoeffding_bound,
    lambda_threshold,
    lemma41_bound,
    maximal_bound,
    optimize_epsilon,
    optimize_kappa,
    regime_from_log_x,
    regime_from_sigma,
    theorem1_lower_bound,
)
from .explicit import (
    chebyshev_sum,
    fit_lemma31_constants,
    lemma31_margin,
    lemma32_bound,
    mertens_sum,
    mertens_sum_exact,
    prime_zeta,
    t_sum,
    tail_series,
    weighted_head,
    zeta,
)
from .oracle import (
    EstimateWithCI,
    ExactResult,
    exact_moment,
    exact_probability,
    mc_moment,
    mc_positivity,
    mc_prime_tail,
    mc_sign_changes,
    power_coeffs,
    sign_changes,
    wilson_interval,
)
from .sampler import Mode, SignAssignment, f_value, sample_signs
from .series import (
    LogDecomposition,
    Positivity,
    Trajectory,
    euler_product_partial,
    log_decomposition,
    partial_sum_trajectory,
    positivity_check,
    prime_sum,
    stream_f,
)
from .sieve import ArithSignature, PrimeList, arith_signature, primes_up_to

__version__ = "0.1.0"

# every public name above but the submodules, which the imports also bind
__all__ = [k for k, v in globals().items() if k[0] != "_" and type(v) is not _Module]
