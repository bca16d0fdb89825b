"""The public Python API: what `from rmflab import *` exports.

The list is written out, so that adding or removing a public name is a
deliberate change to this file, named in CHANGES.md.
"""

import rmflab

PUBLIC_NAMES = [
    "ArithSignature", "BoundReport", "EstimateWithCI", "ExactResult",
    "LogDecomposition", "Mode", "Positivity", "PrimeList", "RegimeParams",
    "SignAssignment", "Trajectory", "VarianceMode", "angelo_xu_bound",
    "arith_signature", "bh_rhs", "billingsley_constant", "chebyshev_sum",
    "corollary_upper_bound", "euler_product_partial", "exact_moment",
    "exact_probability", "f_value", "fit_lemma31_constants", "hoeffding_bound",
    "lambda_threshold", "lemma31_margin", "lemma32_bound", "lemma41_bound",
    "log_decomposition", "maximal_bound", "mc_moment", "mc_positivity",
    "mc_prime_tail", "mc_sign_changes", "mertens_sum", "mertens_sum_exact",
    "optimize_epsilon", "optimize_kappa", "partial_sum_trajectory",
    "positivity_check", "power_coeffs", "prime_sum", "prime_zeta",
    "primes_up_to", "regime_from_log_x", "regime_from_sigma", "sample_signs",
    "sign_changes", "stream_f", "t_sum", "tail_series", "theorem1_lower_bound",
    "weighted_head", "wilson_interval", "zeta",
]


def test_public_names_are_pinned():
    assert sorted(rmflab.__all__) == PUBLIC_NAMES
    assert all(hasattr(rmflab, name) for name in PUBLIC_NAMES)
