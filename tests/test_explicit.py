import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rmflab.errors import DomainError, FitError
from rmflab.explicit import (
    chebyshev_sum,
    fit_lemma31_constants,
    lemma31_margin,
    lemma32_bound,
    mertens_sum,
    mertens_sum_exact,
    mobius,
    prime_zeta,
    t_sum,
    tail_series,
    weighted_head,
    zeta,
)
from rmflab.sieve import iter_blocks, primes_up_to, sieve_block_tables


def brute_t_sum(x, m):
    total = 0
    for n in range(1, x + 1):
        sq, om, k = True, 0, n
        p = 2
        while p * p <= k:
            if k % p == 0:
                om += 1
                c = 0
                while k % p == 0:
                    k //= p
                    c += 1
                sq = sq and c == 1
            p += 1
        if k > 1:
            om += 1
        if sq:
            total += (m - 1) ** om
    return total


def test_t_sum_examples():
    assert t_sum(10, 3).value == 17
    assert t_sum(10, 3).value == brute_t_sum(10, 3)
    assert t_sum(1, 5).value == 1
    for x in (1, 7, 100):
        assert t_sum(x, 1).value == 1  # only n = 1 survives 0^omega


def test_t_sum_matches_brute_force():
    for x, m in ((50, 2), (200, 3), (500, 4)):
        assert t_sum(x, m).value == brute_t_sum(x, m)


def test_t_sum_squarefree_count_cross_check():
    base = primes_up_to(1000)
    count = 0
    for lo, hi in iter_blocks(1, 1_000_000):
        count += int(sieve_block_tables(lo, hi, base).squarefree.sum())
    assert t_sum(1_000_000, 2).value == count


def test_t_sum_monotone_in_x_and_m():
    values = [[t_sum(x, m).value for m in (2, 3, 5, 8)] for x in (10, 100, 1000)]
    for row in values:
        assert row == sorted(row)
    for col in zip(*values):
        assert list(col) == sorted(col)


def test_lemma31_margin_worked_example():
    margin = lemma31_margin(10, 3, 1.0, 1.0)
    assert margin.lhs == 17
    assert margin.rhs == pytest.approx(3 * 10 * math.log(10) ** 3, rel=1e-12)
    assert margin.ratio == pytest.approx(0.0464, abs=2e-4)


def test_lemma31_margin_domain():
    with pytest.raises(DomainError):
        lemma31_margin(1.5, 3, 1.0, 1.0)


def test_fit_single_point_grid():
    c5_grid = [0.2, 0.5, 1.0]
    c3, c5 = fit_lemma31_constants([10], [3], c5_grid=c5_grid)
    assert c5 == 0.2  # smallest c5 on the grid always admits some c3
    assert lemma31_margin(10, 3, c3, c5).ratio == pytest.approx(1.0, rel=1e-12)


def test_fit_small_grid_witness():
    c3, c5 = fit_lemma31_constants([100, 1000], [3, 5])
    assert 0 < c3 <= 10
    for x in (100, 1000):
        for m in (3, 5):
            assert lemma31_margin(x, m, c3, c5).ratio <= 1.0 + 1e-12


def test_fit_degenerate_m_grid():
    c3, c5 = fit_lemma31_constants([10, 100], [2.5])
    assert lemma31_margin(100, 2.5, c3, c5).ratio <= 1.0 + 1e-12


def test_fit_failure_reported():
    with pytest.raises(FitError):
        fit_lemma31_constants([1e6], [10], c5_grid=[0.01], c3_cap=1e-6)


def test_tail_series_m1_exactly_zero():
    t = tail_series(1, 1, 0.75, 1000)
    assert t.head == 0.0 and t.remainder_high == 0.0


def test_tail_series_squarefree_zeta_ratio():
    # sum mu^2(n)/n^2 = zeta(2)/zeta(4) = 15/pi^2; subtract the n=1 term
    t = tail_series(1, 2, 1.0, 1_000_000)
    target = 15.0 / math.pi**2 - 1.0
    assert abs(t.head - target) < 1e-6  # true tail past 10^6 is ~6e-7
    assert t.lower <= target <= t.upper
    assert t.remainder_low == 0.0


def test_tail_series_positive_and_decreasing_in_x():
    ts = [tail_series(x, 3, 0.75, 100_000).head for x in (10, 100, 1000)]
    assert all(v >= 0 for v in ts)
    assert ts == sorted(ts, reverse=True)


def test_partition_consistency():
    for m in (3, 5):
        for sigma in (0.6, 0.75):
            totals = []
            for x in (50, 500, 5000):
                head = weighted_head(x, m, sigma)
                tail = tail_series(x, m, sigma, 50_000)
                totals.append(head + tail.head)
            spread = max(totals) - min(totals)
            assert spread <= 1e-9 * max(abs(v) for v in totals)


def test_lemma32_bound_with_fitted_constants():
    _, c5 = fit_lemma31_constants([100, 10_000], [3, 5])
    grid = [(x, m, s) for x in (100, 10_000) for m in (3, 5) for s in (0.6, 0.75)]
    # derive the c7 witness on the grid at c8 = c5 + 1, then verify margins
    c8 = c5 + 1.0
    needed = 0.0
    for x, m, s in grid:
        lhs = tail_series(x, m, s, 100_000).upper
        log_rest = (
            c5 * m * math.log(m)
            - c8 * m * math.log(s - 0.5)
            + c5 * m * math.log(math.log(x))
            + (1 - 2 * s) * math.log(x)
        )
        needed = max(needed, math.exp((math.log(lhs) - log_rest) / m))
    c7 = needed * 1.01
    for x, m, s in grid:
        assert lemma32_bound(x, m, s, c7, c5, c8, cutoff=100_000).ratio <= 1.0


def test_lemma32_rhs_diverges_toward_half():
    _, c5 = fit_lemma31_constants([100], [3])
    values = [
        lemma32_bound(100, 3, s, 2.0, c5, c5 + 1.0, cutoff=10_000).rhs
        for s in (0.75, 0.6, 0.55, 0.51)
    ]
    assert values == sorted(values)


def test_mertens_sum_examples():
    assert mertens_sum(10) == pytest.approx(247.0 / 210.0, abs=1e-14)
    assert mertens_sum(2) == 0.5
    assert mertens_sum_exact(10) == Fraction(247, 210)
    with pytest.raises(DomainError):
        mertens_sum_exact(100_000)


def test_mertens_sum_at_scale_brackets_constant():
    value = mertens_sum(1_000_000)
    loglog = math.log(math.log(1_000_000))
    assert loglog + 0.26 <= value <= loglog + 0.27


def test_chebyshev_sum_examples():
    m10 = chebyshev_sum(10, 3.0, c2=1.0)
    assert m10.lhs == pytest.approx(2.0 * math.log(210), rel=1e-12)
    assert m10.lhs / (2.0 * 10) == pytest.approx(0.5347, abs=2e-4)
    m2 = chebyshev_sum(2, 2.0, c2=1.0)
    assert m2.ratio == pytest.approx(math.log(2) / 2, rel=1e-12)


def test_chebyshev_ratio_sweep(primes_ten_million):
    logs = np.log(primes_ten_million.primes.astype(np.float64))
    theta = np.cumsum(logs)
    ratios = theta / primes_ten_million.primes.astype(np.float64)
    assert float(ratios.max()) <= 1.04


def test_zeta_special_values():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-10)
    assert 1.0 < zeta(20.0) < 1.0 + 2.0 * 2.0**-20 + 1e-6


def test_zeta_against_mpmath_grid():
    with mp.workdps(40):
        for s in (1.1, 1.5, 2.5, 3.0, 7.5, 12.0, 33.0, 64.0):
            assert zeta(s) == pytest.approx(float(mp.zeta(s)), rel=1e-12)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(0.5)


def test_mobius_small_values():
    assert [mobius(k) for k in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_prime_zeta_known_value():
    assert prime_zeta(2.0) == pytest.approx(0.45224742004106549, abs=1e-10)


def test_prime_zeta_identity_vs_direct_sum(primes_ten_million):
    p = primes_ten_million.primes.astype(np.float64)
    direct = float(np.sum(p**-2.0))
    value = prime_zeta(2.0)
    # tail past 10^7 is positive and below sum_{n > 10^7} n^-2 < 1e-7
    assert 0.0 < value - direct < 1e-7


def test_prime_zeta_s4_two_methods():
    primes = primes_up_to(10_000).primes.astype(np.float64)
    direct = float(np.sum(primes**-4.0))
    assert abs(prime_zeta(4.0) - direct) < 1e-10


def test_prime_zeta_near_one_defect():
    for sigma in (0.5001, 0.5005, 0.501, 0.505, 0.51):
        defect = prime_zeta(2 * sigma) - math.log(1.0 / (sigma - 0.5))
        assert abs(defect) <= 1.2


def test_prime_zeta_domain():
    with pytest.raises(DomainError):
        prime_zeta(1.0)


def test_prime_zeta_matches_mpmath():
    with mp.workdps(30):
        for s in (1.05, 1.2, 2.0, 3.0, 6.0):
            ref = float(mp.primezeta(s))
            assert prime_zeta(s) == pytest.approx(ref, rel=1e-11)
