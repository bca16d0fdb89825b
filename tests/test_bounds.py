import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmflab.bounds
from rmflab.bounds import (
    VarianceMode,
    angelo_xu_bound,
    bh_rhs,
    billingsley_constant,
    comparison_table,
    corollary_upper_bound,
    exact_ints,
    hoeffding_bound,
    index_span,
    lambda_threshold,
    lemma41_bound,
    maximal_bound,
    optimize_epsilon,
    optimize_kappa,
    regime_from_log_x,
    regime_from_sigma,
    theorem1_lower_bound,
)
from rmflab.errors import DivergenceError, DomainError
from rmflab.sieve import DEFAULT_BLOCK, arith_signature, sieve_block_tables


def test_regime_examples():
    r = regime_from_sigma(0.51, 0.5, 0.5)
    assert r.log_x == pytest.approx(1e4, rel=1e-12)
    assert not r.x_is_finite_representable
    r2 = regime_from_sigma(0.6, 1.0, 0.5)  # theta boundary as a limit check
    assert r2.log_x == pytest.approx(10.0, rel=1e-12)
    assert r2.x_is_finite_representable


def test_regime_domain():
    with pytest.raises(DomainError):
        regime_from_sigma(0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        regime_from_sigma(0.51, 1.5, 0.5)
    with pytest.raises(DomainError):
        regime_from_sigma(0.51, 0.5, 0.0)
    with pytest.raises(DomainError):
        regime_from_log_x(1.0, 0.5, 0.5)


def test_theorem1_exponent_against_high_precision():
    r = regime_from_sigma(0.51, 0.5, 0.5)
    report = theorem1_lower_bound(r)
    with mp.workdps(40):
        log_x = mp.mpf(r.log_x)
        expected = log_x / mp.log(log_x) ** 2
    assert report.extras["exponent"] == pytest.approx(float(expected), rel=1e-6)
    assert report.extras["exponent"] == pytest.approx(117.8823, abs=1e-3)
    assert report.value == 1.0  # deficit ~6e-52 rounds away in linear space
    assert report.log_value == pytest.approx(-math.exp(-117.8823106), rel=1e-5)


def test_theorem1_and_corollary_sum_to_one_exactly():
    for sigma, theta, delta in [
        (0.51, 0.5, 0.5),
        (0.6, 0.75, 1.0),
        (0.9, 0.9, 0.25),
        (0.55, 0.35, 2.0),
    ]:
        r = regime_from_sigma(sigma, theta, delta)
        t1 = theorem1_lower_bound(r)
        cor = corollary_upper_bound(r)
        assert 0.0 <= t1.value < 1.0 or t1.value == 1.0
        assert 0.0 < cor.value <= 1.0
        assert t1.value + cor.value == 1.0
        assert cor.extras["exponent"] == t1.extras["exponent"]


def test_theorem1_vanishes_as_delta_grows():
    values = []
    for delta in (0.5, 2.0, 8.0, 32.0):
        r = regime_from_sigma(0.6, 0.5, delta)
        values.append(theorem1_lower_bound(r).extras["exponent"])
    assert values == sorted(values, reverse=True)


def test_theorem1_monotone_toward_half():
    # exponent grows as sigma -> 1/2+ once log x > e^((1+2delta)/(2-2theta))
    exps = [
        theorem1_lower_bound(regime_from_sigma(s, 0.5, 0.5)).extras["exponent"]
        for s in (0.53, 0.52, 0.51, 0.505)
    ]
    assert exps == sorted(exps)


def test_bh_rhs_worked_example():
    coeffs = {1: 1, 2: Fraction(1, 2), 3: Fraction(1, 3)}
    assert bh_rhs(coeffs, 4) == Fraction(625, 144)
    assert bh_rhs(coeffs, 2) == Fraction(49, 36)


def test_bh_rhs_m2_is_weighted_square_sum():
    coeffs = {2: 0.5, 3: 2.0, 4: 7.0}  # n = 4 killed by mu^2
    assert float(bh_rhs(coeffs, 2)) == pytest.approx(0.25 + 4.0, rel=1e-12)


def test_bh_rhs_non_squarefree_support_vanishes():
    assert float(bh_rhs({4: 1.0, 8: 2.0, 9: 3.0, 12: 1.0}, 4)) == 0.0


def test_exact_ints_share_one_denominator():
    pairs = [(1, 1), (2, Fraction(1, 2)), (3, Fraction(-2, 3)), (4, 0.25)]
    assert exact_ints(pairs, 4) == (12, [12, 6, -8, 3])
    assert exact_ints([], 4) == (1, [])


@pytest.mark.parametrize(
    "pairs, power, what",
    [
        # a b-bit integer to the power p has over (b - 1) p bits
        ([(1, Fraction(1, 2**16385))], 4, "denominator"),
        ([(1, 2**16385)], 4, "sum"),
        ([(n, 2**16384) for n in (1, 2, 3)], 4, "sum"),  # each one is at the limit
        ([(1, 2**65537)], 0, "sum"),  # power 0 is budgeted as power 1
    ],
)
def test_exact_ints_refuse_a_power_past_the_bit_budget(pairs, power, what):
    with pytest.raises(DomainError, match=what):
        exact_ints(pairs, power)
    assert exact_ints([(1, 2**16384)], 4) == (1, [2**16384])  # exactly at the limit


def test_exact_ints_stop_at_the_first_denominator_past_the_budget():
    def pairs():
        yield 1, Fraction(1, 2**20000)
        raise AssertionError("read past the refusal")

    with pytest.raises(DomainError, match="denominator"):
        exact_ints(pairs(), 4)


def test_exact_ints_reject_non_finite_and_non_rational():
    with pytest.raises(DomainError, match=r"a\(7\)"):
        exact_ints([(1, 1.0), (7, math.nan)], 2)
    with pytest.raises(DomainError, match=r"a\(2\)"):
        exact_ints([(2, -math.inf)], 2)
    with pytest.raises(TypeError):
        exact_ints([(1, 1j)], 2)


def test_bh_rhs_exact_sum_past_the_bit_budget():
    # a single unit coefficient: only (m - 1)^omega(6) = (10^20 - 1)^2 is large
    with pytest.raises(DomainError, match="exact sum"):
        bh_rhs({6: 1}, 1e20)
    assert bh_rhs({1: 1}, 1e20) == 1


def bh_rhs_by_trial_division(coeffs, m):
    entries = []
    for n, a in coeffs.items():
        sig = arith_signature(n)
        if sig.is_squarefree:
            entries.append((a, sig.omega))
    if float(m).is_integer() and int(m) % 2 == 0:
        base = sum(Fraction(a) ** 2 * (int(m) - 1) ** w for a, w in entries)
        return Fraction(base) ** (int(m) // 2)
    return math.fsum(abs(a) ** 2 * (m - 1.0) ** w for a, w in entries) ** (m / 2.0)


@st.composite
def coefficient_maps(draw, values):
    """A map over three sieve blocks or more, or a sparse one above 10^12."""
    # one draw in four: a walk above 10^12 sieves with 78498 base primes
    if draw(st.sampled_from([True, True, True, False])):
        lo = draw(st.integers(1, 10**7))
        top = 2 * DEFAULT_BLOCK + draw(st.integers(0, DEFAULT_BLOCK))
        offsets = {0, top} | set(draw(st.lists(st.integers(0, top), max_size=40)))
    else:
        lo = draw(st.integers(10**12, 10**12 + 10**6))
        offsets = set(draw(st.lists(st.integers(0, 10**4), min_size=1, max_size=4)))
    return {lo + k: draw(values) for k in offsets}


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.tuples(
            coefficient_maps(st.one_of(st.integers(-99, 99), st.fractions(-9, 9))),
            st.sampled_from([2, 4, 6]),
        ),
        st.tuples(
            coefficient_maps(st.floats(-1e3, 1e3)),
            st.floats(2, 9),
        ),
    )
)
def test_bh_rhs_matches_trial_division_across_blocks(case):
    coeffs, m = case
    assert bh_rhs(coeffs, m) == bh_rhs_by_trial_division(coeffs, m)


def test_bh_rhs_sieves_only_the_blocks_holding_an_index(monkeypatch):
    sieved = []

    def counted(lo, hi, base):
        sieved.append((lo, hi))
        return sieve_block_tables(lo, hi, base)

    monkeypatch.setattr(rmflab.bounds, "sieve_block_tables", counted)
    coeffs = {1: 1.0, 10**7: 1.0}
    assert bh_rhs(coeffs, 3) == bh_rhs_by_trial_division(coeffs, 3)
    assert len(sieved) == 2 and sieved[0][0] == 1 and sieved[1][1] == 10**7


def test_index_span_scans_the_keys_of_a_plain_map():
    assert index_span({5: 1.0, 2: 1.0, 70000: 2.0}) == (2, 70000, False)
    assert index_span({}) == (1, 0, False)
    with pytest.raises(DomainError, match="must be >= 1"):
        bh_rhs({0: 1.0, 3: 1.0}, 3)


def test_exact_sums_take_numpy_integer_coefficients():
    assert bh_rhs({1: np.int64(3), 2: 1}, 2) == 10
    denom, ints = exact_ints([(1, np.int64(2**62)), (2, Fraction(1, 4))], 2)
    assert (denom, ints) == (4, [2**64, 1]) and type(ints[0]) is int


@pytest.mark.parametrize("coeffs", [{10**30: 1.0}, {1: 1.0, 10**9 + 1: 1.0}])
def test_bh_rhs_index_range_beyond_term_budget(coeffs):
    with pytest.raises(DomainError, match="term budget"):
        bh_rhs(coeffs, 4)


@pytest.mark.parametrize(
    "coeffs, m",
    [
        ({1: math.nan, 2: 0.5}, 4),
        ({1: 1.0, 2: math.inf}, 3),
        ({4: math.nan}, 4),  # rejected even off the squarefree support
        ({1: 1.0, 2: 1.0}, 3001),  # 2^1500.5 overflows float64
    ],
)
def test_bh_rhs_rejects_non_finite(coeffs, m):
    with pytest.raises(DomainError):
        bh_rhs(coeffs, m)


def test_maximal_bound_lambda_doubling():
    kwargs = dict(m=4.0, x=100.0, sigma=0.75, kappa=6.4, cutoff=10_000.0)
    b1 = maximal_bound(0.1, **kwargs)
    b2 = maximal_bound(0.2, **kwargs)
    assert b1.log_value - b2.log_value == pytest.approx(4.0 * math.log(2.0), rel=1e-12)


def test_maximal_bound_two_path_agreement():
    report = maximal_bound(0.1, 4.0, 10_000.0, 0.75, kappa=6.4, cutoff=100_000.0)
    with mp.workdps(40):
        direct = (
            mp.mpf(6.4) ** 8
            / mp.mpf("0.1") ** 4
            * mp.mpf(report.extras["tail_upper"]) ** 2
        )
    assert report.value == pytest.approx(float(direct), rel=1e-10)
    assert math.exp(report.log_value) == pytest.approx(report.value, rel=1e-12)


def test_hoeffding_examples():
    report = hoeffding_bound(1.0, 0.51, VarianceMode.ASYMPTOTIC)
    assert report.value == pytest.approx(math.exp(-1.0 / (2.0 * math.log(100.0))), rel=1e-9)
    assert report.value == pytest.approx(0.89711, abs=2e-5)
    assert hoeffding_bound(0.0, 0.6, VarianceMode.EXACT).value == 1.0
    with pytest.raises(DomainError):
        hoeffding_bound(1.0, 0.5)


def test_hoeffding_exact_vs_asymptotic_both_available():
    exact = hoeffding_bound(1.0, 0.51, VarianceMode.EXACT)
    asym = hoeffding_bound(1.0, 0.51, VarianceMode.ASYMPTOTIC)
    # near 1/2 the true variance proxy undershoots the asymptotic one
    assert exact.extras["variance_proxy"] < asym.extras["variance_proxy"]
    assert exact.value < asym.value


def test_billingsley_worked_example():
    value = billingsley_constant(1.0, 1.0, 0.9)
    with mp.workdps(30):
        expected = 2**6 * mp.mpf("0.1") ** -4 / (1 - mp.mpf("0.9") ** -4 / 2)
    assert value == pytest.approx(float(expected), rel=1e-12)
    assert value == pytest.approx(2.690e6, rel=1e-3)


def test_billingsley_divergence():
    with pytest.raises(DivergenceError):
        billingsley_constant(1.0, 1.0, 0.8)  # 0.8^4 * 2 = 0.8192 <= 1


def test_billingsley_blows_up_toward_one():
    values = [billingsley_constant(1.0, 1.0, t) for t in (0.9, 0.99, 0.999)]
    assert values == sorted(values)


def test_optimize_kappa_improves_on_sample_point():
    theta_star, kappa = optimize_kappa(4.0)
    sample = billingsley_constant(1.0, 1.0, 0.9) ** (1.0 / 8.0)
    assert kappa <= sample
    # returned theta satisfies the convergence precondition
    assert theta_star**4.0 * 2.0 > 1.0


@pytest.mark.parametrize("m", [4.0, 8.0, 16.0, 32.0, 64.0])
def test_optimize_kappa_bounded(m):
    theta_star, kappa = optimize_kappa(m)
    assert kappa <= 8.0
    assert 0.0 < theta_star < 1.0
    assert theta_star**m * 2.0 ** (m / 2.0 - 1.0) > 1.0


def test_optimizer_never_worse_than_user_theta():
    m = 6.0
    _, kappa_star = optimize_kappa(m)
    for theta in (0.8, 0.9, 0.95, 0.99):
        user = billingsley_constant(m / 4.0, m / 4.0, theta) ** (1.0 / (2.0 * m))
        assert kappa_star <= user + 1e-12


def _kappa_of(m, theta):
    """K(theta)^(1/2m) at 2 alpha = m/2, 4 beta = m, from the log of K's definition."""
    log_ratio = -m * mp.log(theta) + (1 - m / 2) * mp.log(2)  # of t^-m 2^(1-m/2)
    log_k = 1.5 * m * mp.log(2) - m * mp.log1p(-theta) - mp.log(-mp.expm1(log_ratio))
    return mp.exp(log_k / (2 * m))


@pytest.mark.parametrize(
    "m",
    [2 + 1e-15, 2 + 1e-10, 2.00001, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0,
     1e4, 1e300, 1.7976931348623157e308],
)
def test_optimize_kappa_is_the_minimum_to_4_ulps(m):
    theta_star, kappa = optimize_kappa(m)
    assert 0.0 < theta_star < 1.0
    # theta^-m spends log10(m) of the digits, so keep 50 beyond them
    with mp.workdps(50 + int(math.log10(m))):
        mm = mp.mpf(m)
        exact = float(_kappa_of(mm, mp.power(2, -(mm - 2) / (2 * (mm + 1)))))
        assert abs(kappa - exact) <= 4 * math.ulp(exact)
        # admissible theta lie in (2^(-(m-2)/(2m)), 1)
        width = 1 - mp.power(2, -(mm - 2) / (2 * mm))
        for i in range(1, 1001):
            assert kappa <= _kappa_of(mm, 1 - width * i / 1001)


def test_lambda_threshold_oracle_value():
    r = regime_from_sigma(0.51, 0.5, 0.5)
    with mp.workdps(40):
        log_x = mp.mpf(r.log_x)
        expected = -mp.log(2) - mp.sqrt(log_x) / (2 * mp.sqrt(mp.log(log_x)))
    assert lambda_threshold(r) == pytest.approx(float(expected), abs=1e-10)


def test_lambda_always_below_half():
    for sigma, theta, delta in [(0.51, 0.5, 0.5), (0.9, 0.9, 3.0), (0.6, 1.0, 0.1)]:
        r = regime_from_sigma(sigma, theta, delta)
        assert lambda_threshold(r) < math.log(0.5)


def test_lambda_theta_boundary_continuity():
    r = regime_from_sigma(0.6, 1.0, 0.5)  # log_x = 10, (log x)^0 = 1
    expected = -math.log(2.0) - 0.5 / math.log(10.0) ** 0.5
    assert lambda_threshold(r) == pytest.approx(expected, rel=1e-12)


def test_optimize_epsilon_exact_vertex():
    eps0, beta = optimize_epsilon(1.0, 1.0, 1.0, 0.5)
    assert eps0 == 0.25 and beta == 0.125


def test_optimize_epsilon_scaling_and_sign():
    eps0, beta = optimize_epsilon(2.0, 3.0, 1.5, 0.25)
    c12 = 2.0 * 0.75 + 2.0 + 3.0 * 0.25
    assert eps0 == pytest.approx(1.5 / (2 * c12), rel=1e-15)
    w = eps0 * eps0 * c12 - eps0 * 1.5
    assert w < 0 and beta == pytest.approx(-w, rel=1e-12)
    _, beta2 = optimize_epsilon(2.0, 3.0, 3.0, 0.25)
    assert beta2 == pytest.approx(4.0 * beta, rel=1e-15)


def test_optimize_epsilon_stays_in_float64():
    # c12 = 2.5e308 overflowed, and beta came out as inf / inf = NaN
    assert optimize_epsilon(1e308, 1e308, 1e308, 0.5) == (0.25, 1.25e307)
    with pytest.raises(DomainError, match="float64"):
        optimize_epsilon(1e-300, 1e-300, 1e300, 0.5)  # beta = 1.25e899
    with pytest.raises(DomainError, match="float64"):
        optimize_epsilon(1.0, 1.0, 1e-200, 0.5)  # beta = 1.25e-401


def test_lemma41_matches_substituted_threshold():
    r = regime_from_sigma(0.51, 0.5, 0.5)
    log_lam = lambda_threshold(r)
    report = lemma41_bound(r, log_threshold=log_lam, epsilon=0.25, beta=0.125)
    ll = math.log(r.log_x)
    expected_lambda_term = 0.25 / 2.0 * r.log_x ** (2.0 - 2.0 * 0.5) / ll ** (
        1.0 + 0.5
    ) + 0.25 * math.log(2.0) * r.log_x ** (1.0 - 0.5) / ll
    assert report.extras["term_lambda"] == pytest.approx(expected_lambda_term, rel=1e-10)
    assert report.extras["m_real"] == pytest.approx(
        0.25 * r.log_x**0.5 / ll, rel=1e-12
    )


def test_lemma41_two_path_agreement():
    r = regime_from_sigma(0.51, 0.5, 0.5)
    report = lemma41_bound(
        r, log_threshold=-17.168402905, epsilon=0.25, beta=0.125
    )
    with mp.workdps(50):
        lx = mp.mpf(r.log_x)
        ll = mp.log(lx)
        direct = -mp.mpf("0.125") * lx / ll + mp.mpf("0.25") * mp.mpf(
            "17.168402905"
        ) * mp.sqrt(lx) / ll
    assert report.log_value == pytest.approx(float(direct), rel=1e-10)


def test_lemma41_beta_term_dominates_toward_half():
    ratios = []
    for sigma in (0.53, 0.51, 0.505, 0.501):
        r = regime_from_sigma(sigma, 0.5, 0.5)
        rep = lemma41_bound(r, log_threshold=lambda_threshold(r))
        ratios.append(abs(rep.extras["term_lambda"] / rep.extras["term_beta"]))
    assert ratios == sorted(ratios, reverse=True)


def test_lemma41_defaults_to_unit_c9_c10_c11():
    # theta = 1/2: c12 = 1/2 + 1 + 1/2 = 2, so epsilon = 1/4 and beta = 1/8
    r = regime_from_sigma(0.6, 0.5, 0.5)
    assert optimize_epsilon(1.0, 1.0, 1.0, 0.5) == (0.25, 0.125)
    default = lemma41_bound(r, log_threshold=-1.0)
    assert default == lemma41_bound(r, log_threshold=-1.0, epsilon=0.25, beta=0.125)


def test_angelo_xu_worked_example():
    report = angelo_xu_bound(1e4, 1.0)
    assert report.extras["inner_exponent"] == pytest.approx(1085.7362, abs=1e-3)
    assert report.value == 0.0
    assert "UNDERFLOW" in report.flags
    assert report.log_value == -math.inf


def test_one_rule_for_a_representable_exponential():
    from rmflab.bounds import _linear

    assert _linear(709.0) == math.exp(709.0) and _linear(709.5) == math.inf
    assert _linear(-745.0) == math.exp(-745.0) > 0.0 and _linear(-745.5) == 0.0
    assert _linear(-math.inf) == 0.0 and math.isnan(_linear(math.nan))
    # the regime flag follows it: e^705 is a finite float64, e^710 is not
    assert regime_from_log_x(705.0, 0.5, 0.5).x_is_finite_representable
    assert not regime_from_log_x(710.0, 0.5, 0.5).x_is_finite_representable


def test_angelo_xu_beta_to_zero_limit():
    report = angelo_xu_bound(100.0, 1e-9)
    assert report.value == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_angelo_xu_domain():
    with pytest.raises(DomainError):
        angelo_xu_bound(0.5, 1.0)
    with pytest.raises(DomainError):
        angelo_xu_bound(100.0, 0.0)


def test_comparison_table_shape():
    rows = comparison_table([100.0, 1000.0], 0.5, 0.5)
    assert len(rows) == 4
    names = {row["name"] for row in rows}
    assert names == {"corollary_upper_bound", "angelo_xu_bound"}
    for row in rows:
        assert set(row) == {
            "name", "sigma", "theta", "delta", "log_x", "log_value", "value",
        }


def test_two_path_value_log_consistency():
    reports = [
        hoeffding_bound(0.7, 0.6),
        corollary_upper_bound(regime_from_sigma(0.6, 0.5, 0.5)),
        maximal_bound(0.5, 3.5, 50.0, 0.8, kappa=6.0, cutoff=5_000.0),
        lemma41_bound(
            regime_from_sigma(0.55, 0.5, 1.0), log_threshold=-2.0
        ),
    ]
    for report in reports:
        if 0.0 < report.value < math.inf:
            assert math.exp(report.log_value) == pytest.approx(
                report.value, rel=1e-12
            )
