import io
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rmflab.accum import EPS, power_weights, weight_allowance
from rmflab.errors import DomainError
from rmflab.sampler import Mode, sample_signs, stream_f
from rmflab.series import (
    Positivity,
    euler_product_partial,
    log_decomposition,
    partial_sum_trajectory,
    positivity_check,
    prime_sum,
    rademacher_menshov_check,
)


def test_all_plus_harmonic_values(assignment_factory):
    a = assignment_factory(10)
    t = partial_sum_trajectory(a, 1.0, 10)
    assert t.value_at(1) == 1.0
    assert abs(t.value_at(3) - 11.0 / 6.0) < 1e-12


def test_three_negative_signs_exact_rationals(assignment_factory):
    a = assignment_factory(10, {2: -1, 3: -1, 5: -1})
    t = partial_sum_trajectory(a, 1.0, 10)
    assert abs(t.value_at(5) - (-1.0 / 30.0)) < 1e-12
    assert positivity_check(t, 1) is Positivity.NOT_POSITIVE


def test_positivity_trivial_and_derived(assignment_factory):
    plus = assignment_factory(100)
    t = partial_sum_trajectory(plus, 0.7, 100)
    assert positivity_check(t, 1) is Positivity.POSITIVE
    mixed = assignment_factory(10, {2: -1, 3: -1, 5: 1, 7: 1})
    t2 = partial_sum_trajectory(mixed, 1.0, 10)
    # exact rationals: minimum over y in (1, 10] is 1/6 at y = 3, 4
    assert positivity_check(t2, 1) is Positivity.POSITIVE


def test_trajectory_rejects_bad_sigma(assignment_factory):
    with pytest.raises(DomainError):
        partial_sum_trajectory(assignment_factory(10), 0.0, 10)
    with pytest.raises(DomainError):
        partial_sum_trajectory(assignment_factory(10), -1.0, 10)


def test_positivity_check_preconditions(assignment_factory):
    a = assignment_factory(50)
    strided = partial_sum_trajectory(a, 1.0, 50, checkpoint_stride=5)
    with pytest.raises(DomainError):
        positivity_check(strided, 1)
    t = partial_sum_trajectory(a, 1.0, 50)
    with pytest.raises(DomainError):
        positivity_check(t, 50)


def test_exactness_small_inputs_sigma_one():
    for seed in range(5):
        a = sample_signs(seed, 0, 30)
        t = partial_sum_trajectory(a, 1.0, 30)
        f = stream_f(a, 1, 30).tolist()
        exact = Fraction(0)
        for n in range(1, 31):
            exact += Fraction(int(f[n - 1]), n)
            assert abs(t.value_at(n) - float(exact)) < 1e-12


def test_exactness_small_inputs_sigma_three_quarters():
    mp.mp.dps = 40
    for seed in range(3):
        a = sample_signs(seed, 0, 30)
        t = partial_sum_trajectory(a, 0.75, 30)
        f = stream_f(a, 1, 30).tolist()
        exact = mp.mpf(0)
        for n in range(1, 31):
            exact += int(f[n - 1]) * mp.power(n, mp.mpf("-0.75"))
            assert abs(t.value_at(n) - float(exact)) < 1e-12


def test_trajectory_bitwise_deterministic():
    a = sample_signs(11, 4, 5000)
    t1 = partial_sum_trajectory(a, 0.6, 5000)
    t2 = partial_sum_trajectory(a, 0.6, 5000)
    assert np.array_equal(t1.values, t2.values)
    assert t1.summation_error_bound == t2.summation_error_bound


def test_error_bound_stays_small_at_scale():
    a = sample_signs(3, 0, 1_000_000)
    t = partial_sum_trajectory(a, 0.51, 1_000_000, checkpoint_stride=100_000)
    assert t.summation_error_bound <= 1e-9


@pytest.mark.parametrize("sigma", [0.5001, 0.51, 0.6, 0.75, 1.0, 3.0])
def test_power_weights_within_allowance_against_mpmath(sigma):
    # all n < 2000, a geometric grid to 10^8 and 1000 random n <= 10^8
    rng = np.random.default_rng(0)
    n = np.unique(
        np.concatenate(
            [
                np.arange(1, 2000),
                np.geomspace(2000, 1e8, 2000).astype(np.int64),
                rng.integers(2, 10**8, 1000),
            ]
        )
    )
    weights = power_weights(n, sigma)
    with mp.workprec(120):
        for k, w in zip(n.tolist(), weights.tolist()):
            exact = mp.power(k, -mp.mpf(sigma))
            rel = float(abs(mp.mpf(w) - exact) / exact)
            assert rel <= weight_allowance(sigma, k) * EPS, (k, rel / EPS)


def test_checkpoint_stride_subsets_stride_one():
    a = sample_signs(2, 7, 2000)
    fine = partial_sum_trajectory(a, 0.8, 2000)
    coarse = partial_sum_trajectory(a, 0.8, 2000, checkpoint_stride=250)
    for y, v in coarse.checkpoints:
        assert v == fine.value_at(y)


def test_prime_sum_examples(assignment_factory):
    plus = assignment_factory(10)
    assert abs(prime_sum(plus, 1.0, 10) - 247.0 / 210.0) < 1e-14
    assert prime_sum(plus, 1.0, 1) == 0.0
    flipped = assignment_factory(10, {2: -1})
    assert abs(prime_sum(flipped, 1.0, 10) - (247.0 / 210.0 - 1.0)) < 1e-14


def test_euler_product_examples(assignment_factory):
    plus = assignment_factory(10)
    assert abs(euler_product_partial(plus, 1.0, 3) - 2.0) < 1e-14
    mixed = assignment_factory(10, {2: -1})
    assert abs(euler_product_partial(mixed, 1.0, 3) - 2.0 / 3.0) < 1e-14
    assert euler_product_partial(plus, 1.0, 1) == 1.0


def test_euler_product_completely_mult(assignment_factory):
    plus = assignment_factory(10, mode=Mode.COMPLETELY_MULT)
    # (1 - 1/2)^-1 (1 - 1/3)^-1 = 3
    assert abs(euler_product_partial(plus, 1.0, 3) - 3.0) < 1e-14


def test_log_decomposition_empty_product(assignment_factory):
    a = assignment_factory(10)
    d = log_decomposition(a, 0.75, 1)
    assert d.prime_sum == 0.0
    # empty product: log 1 = 0, so the remainder must cancel the half-log
    # term in prime_sum - half_log_term + remainder exactly
    assert d.remainder == d.half_log_term
    assert d.prime_sum - d.half_log_term + d.remainder == 0.0


def test_log_decomposition_identity_by_construction():
    a = sample_signs(8, 0, 100_000)
    d = log_decomposition(a, 0.75, 100_000)
    product = euler_product_partial(a, 0.75, 100_000)
    recon = math.exp(d.prime_sum - d.half_log_term + d.remainder)
    assert abs(recon - product) < 1e-12 * abs(product)
    assert math.isfinite(d.remainder)


def test_log_decomposition_domain(assignment_factory):
    a = assignment_factory(10)
    with pytest.raises(DomainError):
        log_decomposition(a, 0.5, 10)
    with pytest.raises(DomainError):
        log_decomposition(a, 1.5, 10)


def test_rademacher_menshov_check():
    ok = rademacher_menshov_check(0.75)
    assert ok.converges and abs(ok.margin - 0.5) < 1e-15
    assert not rademacher_menshov_check(0.5).converges
    near = rademacher_menshov_check(0.51)
    assert near.converges and abs(near.margin - 0.02) < 1e-12


def test_truncated_product_converges_toward_series():
    # both S(N) and the truncated product converge a.s. to the same limit;
    # ask only for a majority improvement from N=10^2 to N=10^5
    wins = 0
    for seed in range(100):
        a = sample_signs(seed, 0, 100_000)
        t = partial_sum_trajectory(a, 0.75, 100_000, checkpoint_stride=100)
        s_small = t.value_at(100)
        s_large = t.value_at(100_000)
        e_small = euler_product_partial(a, 0.75, 100)
        e_large = euler_product_partial(a, 0.75, 100_000)
        if abs(s_large - e_large) < abs(s_small - e_small):
            wins += 1
    assert wins >= 80


def test_trajectory_csv_round_trip(assignment_factory):
    a = assignment_factory(10, {3: -1})
    t = partial_sum_trajectory(a, 1.0, 10)
    buf = io.StringIO()
    t.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "y,value,err_bound"
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == t.value_at(1)
    y10 = lines[10].split(",")
    assert float(y10[1]) == t.value_at(10)
