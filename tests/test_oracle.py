import hashlib
import io
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab.bounds import bh_rhs
from rmflab.errors import DomainError, EnumerationLimitError
from rmflab.oracle import (
    CertifiedValue,
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
from rmflab.sampler import Mode, sample_signs, stream_f
from rmflab.series import Trajectory, partial_sum_trajectory, positivity_check
from rmflab.sieve import primes_up_to

COEFF_13 = {1: 1, 2: Fraction(1, 2), 3: Fraction(1, 3)}


def test_exact_probability_ground_truths():
    assert exact_probability(10, 1.0, 1).value == Fraction(7, 8)
    assert exact_probability(10, 1.0, 1).universe_bits == 4
    assert exact_probability(1, 1.0, 0).value == 1
    assert exact_probability(2, 1.0, 1).value == 1


def test_exact_probability_denominator_divides_universe():
    res = exact_probability(12, 1.0, 1)
    assert (1 << res.universe_bits) % res.value.denominator == 0


def test_exact_probability_refuses_large_universe():
    with pytest.raises(EnumerationLimitError):
        exact_probability(97, 1.0, 1)  # pi(97) = 25


def test_exact_probability_domain():
    with pytest.raises(DomainError):
        exact_probability(10, 1.0, 10)
    with pytest.raises(DomainError):
        exact_probability(10, 1.0, -1)


def test_exact_probability_interval_path_matches_brute_force():
    # independent oracle: enumerate assignments at high precision directly
    sigma = 0.75
    got = exact_probability(10, sigma, 1)
    with mp.workdps(50):
        weights = [mp.power(n, -sigma) for n in range(11)]
        factors = {1: [], 2: [2], 3: [3], 4: None, 5: [5], 6: [2, 3],
                   7: [7], 8: None, 9: None, 10: [2, 5]}
        count = 0
        for signs in itertools.product((1, -1), repeat=4):
            by_p = dict(zip((2, 3, 5, 7), signs))
            s = mp.mpf(0)
            ok = True
            for n in range(1, 11):
                f = 0
                if factors[n] is not None:
                    f = math.prod(by_p[p] for p in factors[n]) if factors[n] else 1
                s += f * weights[n]
                if n > 1 and s <= 0:
                    ok = False
                    break
            count += ok
    assert got.value == Fraction(count, 16)


def test_exact_probability_completely_mult_mode():
    # f* never vanishes; universe n <= 4 has primes {2, 3}
    res = exact_probability(4, 1.0, 1, Mode.COMPLETELY_MULT)
    # S(4) = 1 + f(2)/2 + f(3)/3 + 1/4 (f(4) = f(2)^2 = 1)
    # f(2)=-1, f(3)=-1: S(2)=1/2, S(3)=1/6, S(4)=5/12 > 0 -> all four pass
    assert res.value == 1


def test_exact_moment_examples():
    assert exact_moment(3, COEFF_13, 2) == Fraction(49, 36)
    assert exact_moment(3, COEFF_13, 4) == Fraction(4417, 1296)
    assert exact_moment(1, {1: Fraction(7, 2)}, 6) == Fraction(7, 2) ** 6


def test_exact_moment_odd_signed_vanishes_by_symmetry():
    # flipping all prime signs sends f(n) to (-1)^omega(n) f(n), so the
    # signed sum is symmetric exactly when every supported n has odd omega
    coeffs = {
        2: Fraction(1, 5),
        3: Fraction(2, 7),
        5: 1,
        13: Fraction(4, 9),
        30: Fraction(3, 11),
    }
    for m in (1, 3, 5):
        assert exact_moment(30, coeffs, m) == 0


def test_exact_moment_even_omega_support_breaks_symmetry():
    # E S^3 on support {2, 3, 6} is 6 a2 a3 a6 since f(6) = f(2) f(3)
    assert exact_moment(10, {2: 1, 3: 1, 6: 1}, 3) == 6


def test_exact_moment_odd_absolute_is_positive():
    value = exact_moment(10, COEFF_13, 3, absolute=True)
    assert isinstance(value, Fraction) and value > 0


def test_exact_moment_non_integer_order_certified():
    got = exact_moment(6, COEFF_13, 2.5)
    assert isinstance(got, CertifiedValue)
    lo = float(exact_moment(6, COEFF_13, 2))
    hi = float(exact_moment(6, COEFF_13, 4))
    assert lo * 0.2 < got.value < hi * 5
    assert got.error_bound < 1e-12 * got.value


def test_wilson_interval_basics():
    lo, hi = wilson_interval(875, 1000, 0.99)
    assert 0.0 <= lo <= 0.875 <= hi <= 1.0
    with pytest.raises(DomainError):
        wilson_interval(1, 0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
def test_wilson_interval_orders(successes, trials):
    if successes > trials:
        return
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_wilson_interval_shrinks_with_trials():
    w1 = wilson_interval(60, 100)
    w2 = wilson_interval(6000, 10000)
    assert (w2[1] - w2[0]) < (w1[1] - w1[0]) / 5


def test_mc_positivity_single_trial_is_zero_or_one():
    est = mc_positivity(1.0, 1, 10, 1, master_seed=5)
    assert est.estimate in (0.0, 1.0)


def test_mc_positivity_deterministic_replay():
    a = mc_positivity(0.75, 1, 100, 2000, master_seed=99)
    b = mc_positivity(0.75, 1, 100, 2000, master_seed=99)
    assert a == b


def test_mc_positivity_thread_count_invariance():
    one = mc_positivity(0.75, 1, 500, 5000, master_seed=13, threads=1)
    four = mc_positivity(0.75, 1, 500, 5000, master_seed=13, threads=4)
    sixteen = mc_positivity(0.75, 1, 500, 5000, master_seed=13, threads=16)
    assert one == four == sixteen


def test_mc_positivity_agrees_with_oracle_at_n10():
    est = mc_positivity(1.0, 1, 10, 100_000, master_seed=0)
    assert est.ci_low <= 0.875 <= est.ci_high
    assert est.n_indeterminate == 0


def test_mc_positivity_agrees_with_oracle_at_n56():
    # pi(56) = 16 primes, so the oracle enumerates 2^16 assignments; a 99%
    # interval may miss the truth for one seed in ten
    exact = exact_probability(56, 0.75, 1).value
    assert exact == Fraction(5519, 8192)
    covered = 0
    for seed in range(10):
        est = mc_positivity(0.75, 1, 56, 100_000, master_seed=seed)
        covered += est.ci_low <= exact <= est.ci_high
    assert covered >= 9


def test_mc_positivity_trials_match_trajectory_path():
    sigma, n_max, seed = 0.6, 40, 314
    est = mc_positivity(sigma, 1, n_max, 64, master_seed=seed)
    passed = 0
    for trial in range(64):
        a = sample_signs(seed, trial, n_max)
        t = partial_sum_trajectory(a, sigma, n_max)
        passed += bool(positivity_check(t, 1))
    assert est.estimate == passed / 64


def test_mc_positivity_trial_dump(tmp_path):
    out = tmp_path / "trials.csv"
    with open(out, "w") as fh:
        mc_positivity(1.0, 1, 10, 50, master_seed=1, trial_dump=fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,passed,indeterminate"
    assert len(lines) == 51


def test_mc_positivity_warns_below_half():
    with pytest.warns(RuntimeWarning):
        mc_positivity(0.4, 1, 20, 10, master_seed=1)


def test_mc_moment_matches_exact_small():
    est = mc_moment(COEFF_13, 2, 200_000, master_seed=21)
    assert est.ci_low <= 49.0 / 36.0 <= est.ci_high
    assert est.ci_high - est.ci_low < 0.05


def test_mc_moment_single_support_exact():
    est = mc_moment({3: 0.5}, 2, 1000, master_seed=4)
    assert est.estimate == pytest.approx(0.25, abs=1e-15)


def test_mc_moment_m4_against_enumeration():
    coeffs = power_coeffs(30, 1.0)
    exact = float(exact_moment(30, {n: Fraction(1, n) for n in range(1, 31)}, 4))
    est = mc_moment(coeffs, 4, 200_000, master_seed=8)
    assert est.ci_low <= exact <= est.ci_high


def test_mc_prime_tail_symmetric_at_zero():
    est = mc_prime_tail(0.75, 0.0, 100_000, 100_000, master_seed=17)
    assert est.ci_low <= 0.5 <= est.ci_high


def test_mc_prime_tail_unreachable_threshold():
    plist = primes_up_to(100_000)
    total = float(np.exp(-0.75 * np.log(plist.primes.astype(float))).sum())
    assert total < 1000.0  # the sum is bounded by ~a few hundred here
    est = mc_prime_tail(0.75, 1000.0, 100_000, 2000, master_seed=3)
    assert est.estimate == 0.0


def test_sign_changes_synthetic():
    t = Trajectory(
        sigma=1.0,
        assignment_key=(0, 0, 4, "squarefree"),
        ys=np.arange(1, 5, dtype=np.int64),
        values=np.array([1.0, 0.5, -0.1, 0.2]),
        summation_error_bound=0.0,
        stride=1,
        horizon=4,
    )
    assert sign_changes(t) == 2


def test_sign_changes_examples(assignment_factory):
    plus = assignment_factory(20)
    assert sign_changes(partial_sum_trajectory(plus, 1.0, 20)) == 0
    neg = assignment_factory(6, {2: -1, 3: -1, 5: -1})
    assert sign_changes(partial_sum_trajectory(neg, 1.0, 6)) == 2


def test_mc_sign_changes_runs_and_is_deterministic():
    a = mc_sign_changes(0.6, 200, 500, master_seed=2)
    b = mc_sign_changes(0.6, 200, 500, master_seed=2, threads=8)
    assert a == b
    assert a.estimate >= 0.0


def test_mean_estimators_clamp_ci_low_at_zero():
    # both normal intervals reach below 0 unclamped: -149.3 and -9.45
    assert mc_moment(power_coeffs(100, 1.0), 6, 5, master_seed=1).ci_low == 0.0
    assert mc_sign_changes(0.6, 2000, 3, master_seed=4).ci_low == 0.0


def test_mc_moment_rejects_overflow_and_empty_coefficients():
    # |S|^2000 overflows float64: estimate inf and ci_high NaN, exit 0, before
    with pytest.raises(DomainError, match="overflows"):
        mc_moment(power_coeffs(10, 1.0), 2000, 10, master_seed=1)
    with pytest.raises(DomainError, match="coefficient"):
        mc_moment(power_coeffs(0, 1.0), 4, 10, master_seed=1)


@pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.5, math.nan, math.inf])
def test_mc_estimators_reject_level_outside_unit_interval(level):
    runs = (
        lambda: mc_positivity(0.75, 1, 50, 10, 1, level=level),
        lambda: mc_moment(COEFF_13, 2, 10, 1, level=level),
        lambda: mc_prime_tail(0.75, 0.0, 50, 10, 1, level=level),
        lambda: mc_sign_changes(0.75, 50, 10, 1, level=level),
        lambda: wilson_interval(3, 10, level),
    )
    for run in runs:
        with pytest.raises(DomainError, match="level"):
            run()


def test_bonami_moment_inequality_exact_random_vectors():
    rng = np.random.default_rng(12345)
    for _ in range(20):
        support = rng.integers(1, 31, size=rng.integers(2, 8))
        coeffs = {
            int(n): Fraction(int(rng.integers(1, 64)), 16) for n in set(support)
        }
        for m in (2, 4, 6):
            lhs = exact_moment(30, coeffs, m)
            rhs = bh_rhs(coeffs, m)
            assert lhs <= rhs
            if m == 2:
                assert lhs == rhs  # equality case, exact rationals


# Golden records: payloads pinned bitwise for fixed seeds in both modes, so
# any rewrite of the sign kernel or the scans must keep every trial's
# summation order.  Dumps and f-vectors are pinned by their sha256.
SF, CM = Mode.SQUAREFREE_MULT, Mode.COMPLETELY_MULT

GOLDEN_POSITIVITY = [
    # (sigma, x, n_max, trials, seed, mode), estimate, n_indeterminate, dump
    ((0.6, 1, 50_000, 400, 7, SF), 0.36, 0,
     "a9354b617047cad426458cdc9babfbe4a53030ad6235e70584ebf7f726257a78"),
    ((0.75, 3, 1000, 3000, 11, SF), 0.6546666666666666, 0,
     "b0959150bd2a8f2e49e42a347898446e0682535378d6a5578b26c147aa0b7046"),
    ((0.52, 10, 3000, 2500, 5, SF), 0.2972, 0,
     "3569cb4fb59a1f4f331ae7963f0661bdba2a2284669075250281014eec8308ba"),
    ((0.6, 1, 50_000, 400, 7, CM), 0.6, 0,
     "05a375275f2c5d9b7b728162c6ec1539f96b51e7cd5f31cc319728207621e59b"),
    ((0.75, 3, 1000, 3000, 11, CM), 0.886, 0,
     "d260455b8335dff188ff3eb96415dcf6508eff6ffb8bb612eaf123ad49a893e9"),
    ((0.52, 10, 3000, 2500, 5, CM), 0.6664, 0,
     "f569039b36e8b56d7e43dc57c22f0a31a629745ad57c2c72268bab53ce8743c3"),
]

SPARSE_COEFFS = {2: 0.5, 6: 1.25, 30: -0.75, 97: 2.0}

GOLDEN_MOMENT = [
    # (coeffs, m, trials, seed, mode), (estimate, ci_low, ci_high, heavy_tail)
    ((power_coeffs(300, 0.75), 4, 5000, 5, SF),
     (25.742310706541417, 21.579574572400638, 29.905046840682196, True)),
    ((SPARSE_COEFFS, 3, 3000, 9, SF),
     (21.633583333333334, 20.25734629067072, 23.009820375995947, False)),
    ((power_coeffs(300, 0.75), 4, 5000, 5, CM),
     (300.35003076191447, 262.5975477804797, 338.1025137433492, True)),
    ((SPARSE_COEFFS, 3, 3000, 9, CM),
     (21.633583333333334, 20.25734629067072, 23.009820375995947, False)),
]

GOLDEN_SIGN_CHANGES = [
    # (sigma, n_max, trials, seed, mode), (estimate, ci_low, ci_high)
    ((0.6, 40_000, 300, 3, SF), (63.06, 49.13176018232182, 76.98823981767819)),
    ((0.8, 1000, 2500, 4, SF), (1.9668, 1.7058718776123574, 2.2277281223876426)),
    ((0.6, 40_000, 300, 3, CM), (18.02, 9.275011143484637, 26.764988856515362)),
    ((0.8, 1000, 2500, 4, CM), (0.3816, 0.2890581968667127, 0.4741418031332873)),
]

GOLDEN_STREAM_F = {
    SF: "88ae182a58416c161d708070b1bd7d42348484b277527773b47ec9eea98e2918",
    CM: "909f4155b62db542d8d024866f2f5a0b0a3c685af6aae1dc28817ddde431f80c",
}


@pytest.mark.parametrize("args, estimate, indeterminate, dump_sha", GOLDEN_POSITIVITY)
def test_golden_mc_positivity(args, estimate, indeterminate, dump_sha):
    sigma, x, n_max, trials, seed, mode = args
    dump = io.StringIO()
    est = mc_positivity(
        sigma, x, n_max, trials, master_seed=seed, mode=mode, trial_dump=dump
    )
    assert est.estimate == estimate
    assert est.n_indeterminate == indeterminate
    assert hashlib.sha256(dump.getvalue().encode()).hexdigest() == dump_sha


@pytest.mark.parametrize("args, expected", GOLDEN_MOMENT)
def test_golden_mc_moment(args, expected):
    coeffs, m, trials, seed, mode = args
    est = mc_moment(coeffs, m, trials, master_seed=seed, mode=mode)
    assert (est.estimate, est.ci_low, est.ci_high, est.heavy_tail) == expected


@pytest.mark.parametrize("args, expected", GOLDEN_SIGN_CHANGES)
def test_golden_mc_sign_changes(args, expected):
    sigma, n_max, trials, seed, mode = args
    est = mc_sign_changes(sigma, n_max, trials, master_seed=seed, mode=mode)
    assert (est.estimate, est.ci_low, est.ci_high) == expected


@pytest.mark.parametrize("mode", [SF, CM])
def test_golden_stream_f(mode):
    a = sample_signs(2024, 3, 200_000, mode)
    digest = hashlib.sha256(stream_f(a, 1, 200_000).tobytes()).hexdigest()
    assert digest == GOLDEN_STREAM_F[mode]


# Exact oracle golden records: every exact result is pinned by its str(), so
# any rewrite of the enumeration must keep each value, not just close to it.
GOLDEN_EXACT_PROBABILITY = {
    # (mode, sigma): P(S_sigma(y) > 0 for all y in (x, n]) for n = 1..30,
    # the same for x = 0 and x = 1 because S_sigma(1) = 1
    (SF, 0.0): (
        "1 1/2 1/2 1/2 3/8 3/8 5/16 5/16 5/16 5/16 9/32 9/32 9/32 17/64 17/64 17/64 "
        "31/128 31/128 31/128 31/128 57/256 57/256 53/256 53/256 53/256 53/256 53/256 "
        "53/256 101/512 101/512"
    ),
    (SF, 1.0): (
        "1 1 1 1 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 "
        "7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8 7/8"
    ),
    (SF, 2.0): (
        "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1"
    ),
    (SF, 0.75): (
        "1 1 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 23/32 23/32 23/32 23/32 91/128 "
        "91/128 179/256 179/256 89/128 89/128 177/256 177/256 177/256 11/16 11/16 "
        "11/16 351/512 701/1024"
    ),
    (CM, 0.0): (
        "1 1/2 1/2 1/2 1/2 3/8 3/8 3/8 3/8 3/8 3/8 3/8 3/8 23/64 23/64 23/64 23/64 "
        "23/64 23/64 91/256 91/256 11/32 11/32 87/256 87/256 87/256 87/256 173/512 "
        "173/512 335/1024"
    ),
    (CM, 1.0): (
        "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1"
    ),
    (CM, 2.0): (
        "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1"
    ),
    (CM, 0.75): (
        "1 1 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 3/4 "
        "191/256 191/256 191/256 191/256 191/256 191/256 191/256 191/256 763/1024 "
        "763/1024"
    ),
}

EXACT_FRAC_30 = {n: Fraction(1, n) for n in range(1, 31)}
EXACT_FRAC_MIXED = {
    2: Fraction(1, 5), 3: Fraction(-2, 7), 6: Fraction(3, 4), 10: 1, 15: Fraction(-4, 9)
}
EXACT_FLOAT_12 = power_coeffs(12, 0.75)
EXACT_FLOAT_SPARSE = {2: 0.5, 6: 1.25, 30: -0.75}

GOLDEN_EXACT_MOMENT = [
    # (n_max, coeffs, m), (signed, absolute)
    ((30, EXACT_FRAC_30, 0), ("1", "1")),
    ((30, EXACT_FRAC_30, 1), ("1", "1104226699369/1104160977920")),
    ((30, EXACT_FRAC_30, 3), (
        "1891314283435500199/664395722068378300",
        "14618208285136678568450537724409/5135198811434195761855549952000",
    )),
    ((30, EXACT_FRAC_30, 4), (
        "1543202622434085902944797447983734419323/"
        "250286090010065931527966429013474630000",
        "1543202622434085902944797447983734419323/"
        "250286090010065931527966429013474630000",
    )),
    ((16, EXACT_FRAC_MIXED, 0), ("1", "1")),
    ((16, EXACT_FRAC_MIXED, 1), ("0", "79/72")),
    ((16, EXACT_FRAC_MIXED, 3), ("-79/35", "434732023/114307200")),
    ((16, EXACT_FRAC_MIXED, 4), (
        "21434409853441/2520473760000", "21434409853441/2520473760000"
    )),
    ((12, EXACT_FLOAT_12, 0), ("1", "1")),
    ((12, EXACT_FLOAT_12, 1), ("1", "73592200758196699/72057594037927936")),
    ((12, EXACT_FLOAT_12, 3), (
        "11830946847340610588975345129907149637119031135179/"
        "2923003274661805836407369665432566039311865085952",
        "378735969683018364219161227924388851009366774350001/"
        "93536104789177786765035829293842113257979682750464",
    )),
    ((12, EXACT_FLOAT_12, 4), (
        "16982267430580114158404035867620072253064987137955521452286121458285/"
        "1684996666696914987166688442938726917102321526408785780068975640576",
        "16982267430580114158404035867620072253064987137955521452286121458285/"
        "1684996666696914987166688442938726917102321526408785780068975640576",
    )),
    ((30, EXACT_FLOAT_SPARSE, 0), ("1", "1")),
    ((30, EXACT_FLOAT_SPARSE, 1), ("0", "5/4")),
    ((30, EXACT_FLOAT_SPARSE, 3), ("0", "5")),
    ((30, EXACT_FLOAT_SPARSE, 4), ("361/32", "361/32")),
]


@pytest.mark.parametrize("x", [0, 1])
@pytest.mark.parametrize("key", list(GOLDEN_EXACT_PROBABILITY))
def test_golden_exact_probability(key, x):
    mode, sigma = key
    expected = GOLDEN_EXACT_PROBABILITY[key].split()
    got = [str(exact_probability(n, sigma, x, mode).value) for n in range(x + 1, 31)]
    assert got == expected[x:]


@pytest.mark.parametrize("args, expected", GOLDEN_EXACT_MOMENT)
def test_golden_exact_moment(args, expected):
    n_max, coeffs, m = args
    signed = exact_moment(n_max, coeffs, m)
    absolute = exact_moment(n_max, coeffs, m, absolute=True)
    assert isinstance(signed, Fraction) and isinstance(absolute, Fraction)
    assert (str(signed), str(absolute)) == expected


def test_golden_exact_moment_certified():
    got = exact_moment(30, power_coeffs(30, 0.75), 4.5)
    assert got == CertifiedValue(26.38276012069355, 2.190855497309002e-23)
