import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import searched_ranks
from rmflab.bounds import bh_rhs, index_span
from rmflab.errors import DomainError, EnumerationLimitError
from rmflab.oracle import (
    _ENUMERATION_SIEVE_LIMIT,
    ENUMERATION_BIT_LIMIT,
    CertifiedValue,
    EstimateWithCI,
    PowerCoeffs,
    _byte_sums,
    _certified_positive,
    _count_flips,
    _failed,
    _index_bits,
    _mean,
    _outcomes,
    _scaled_weights,
    enumeration_base,
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
from rmflab.sampler import (
    Mode,
    batch_neg_bits,
    sample_signs,
    sign_table,
    table_f,
)
from rmflab.series import (
    Trajectory,
    band_outcomes,
    partial_sum_trajectory,
    positivity_check,
    scanner,
    stream_f,
    walk_blocks,
)
from rmflab.sieve import primes_up_to, sieve_block_tables

COEFF_13 = {1: 1, 2: Fraction(1, 2), 3: Fraction(1, 3)}


def test_exact_probability_ground_truths():
    assert exact_probability(10, 1.0, 1).value == Fraction(7, 8)
    assert exact_probability(10, 1.0, 1).universe_bits == 4
    assert exact_probability(1, 1.0, 0).value == 1
    assert exact_probability(2, 1.0, 1).value == 1


def test_exact_probability_denominator_divides_universe():
    res = exact_probability(12, 1.0, 1)
    assert (1 << res.universe_bits) % res.value.denominator == 0


def test_enumeration_sieves_no_further_than_the_first_n_past_the_budget():
    assert len(primes_up_to(_ENUMERATION_SIEVE_LIMIT - 1)) == ENUMERATION_BIT_LIMIT
    assert len(primes_up_to(_ENUMERATION_SIEVE_LIMIT)) == ENUMERATION_BIT_LIMIT + 1
    assert enumeration_base(_ENUMERATION_SIEVE_LIMIT - 1).limit == 96
    with pytest.raises(EnumerationLimitError, match=r"pi\(1000000000\) > 24"):
        enumeration_base(10**9)


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


@pytest.mark.parametrize("mode", [Mode.SQUAREFREE_MULT, Mode.COMPLETELY_MULT])
@pytest.mark.parametrize("sigma", [0.0, 1.0, 0.75, -300.0])
@pytest.mark.parametrize("x", [1, 6])
def test_band_decisions_match_exact_on_every_assignment(mode, sigma, x):
    # promise 2 on every assignment: a row the float scan decides must agree
    # with the scaled-integer check of that row; -300 overflows the weights
    # to inf from n = 11 on, so every row must go to the exact path
    n_max = 44
    base = primes_up_to(n_max)
    trials = 1 << len(base)
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = _outcomes(_index_bits, n_max, mode, sigma, x, trials)
    tables = sieve_block_tables(1, n_max, base)
    packed = _index_bits(np.arange(trials), len(base))
    table = sign_table(packed, len(base))
    f = table_f(table, tables, searched_ranks(tables, base), mode, trials)
    brackets = _scaled_weights(n_max, sigma)
    exact = np.array(
        [_certified_positive(row, brackets, x, i) for i, row in enumerate(f.T.tolist())]
    )
    decided = outcomes != 2
    assert (outcomes[decided] == exact[decided]).all()
    assert decided.any() == (sigma != -300.0)
    assert exact_probability(n_max, sigma, x, mode).value == Fraction(
        int(exact.sum()), trials
    )
    if sigma == -300.0 and x == 1:
        # each S(y) has the sign of its last nonzero term: all primes positive
        assert exact.sum() == 1


@pytest.mark.parametrize("sigma", [-7.0, -1.0, 0.0, 1.0, 2.0, 12.0])
def test_integer_sigma_weights_are_lcm_scaled(sigma):
    n_max, e = 40, int(sigma)
    scale = math.lcm(*range(1, n_max + 1)) ** max(e, 0)
    weights = [int(scale * Fraction(n) ** -e) for n in range(1, n_max + 1)]
    assert _scaled_weights(n_max, sigma) == [(w, w) for w in weights]


def test_exact_moment_rejects_a_non_finite_coefficient():
    with pytest.raises(DomainError, match=r"a\(2\) = nan"):
        exact_moment(3, {1: 1, 2: math.nan}, 4)


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


def test_exact_moment_takes_numpy_integer_coefficients():
    coeffs = {1: np.int64(2**62), 2: Fraction(1, 4)}
    assert exact_moment(3, coeffs, 2) == 2**124 + Fraction(1, 16)


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


@pytest.mark.parametrize("seed, sigma", [(1, 0.6), (2, 0.75), (3, 0.9)])
def test_mc_prime_tail_decisions_sound_against_mpmath(seed, sigma):
    # every trial's V_t = sum f(p) p^-sigma over the 168 primes <= 1000, at
    # 50 digits: hits may only undercount, and hits + INDETERMINATE only
    # overcount, the trials with V_t >= lambda
    trials, primes = 3000, primes_up_to(1000).primes.tolist()
    packed = batch_neg_bits(seed, np.arange(trials), len(primes))
    bits = np.unpackbits(packed, axis=1, count=len(primes), bitorder="little").tolist()
    with mp.workdps(50):
        w = [mp.power(p, -sigma) for p in primes]
        exact = [mp.fsum(-x if b else x for x, b in zip(w, row)) for row in bits]
    # thresholds at trials' own values sit inside the band of those trials
    own = [float(exact[t]) for t in range(0, trials, 250)]
    for threshold in [0.0, 1.0, -1.5, 2.5, *own]:
        est = mc_prime_tail(sigma, threshold, 1000, trials, master_seed=seed)
        hits = round(est.estimate * trials)
        above = sum(v >= threshold for v in exact)
        assert hits <= above <= hits + est.n_indeterminate
        if threshold in own:
            assert est.n_indeterminate >= 1


def test_byte_sums_add_each_bytes_weights_in_ascending_rank():
    w = np.random.default_rng(5).random(19)  # not a whole number of bytes
    table = _byte_sums(w)
    assert table.shape == (3, 256)
    for j, b in itertools.product(range(3), range(256)):
        ranks = [8 * j + i for i in range(8) if b >> i & 1 and 8 * j + i < w.size]
        expected = 0.0
        for r in ranks:
            expected += w[r]
        assert table[j, b] == expected


def test_mc_prime_tail_underflowed_weights_decide_only_far_thresholds():
    # at sigma = 1e308 every weight underflows to 0 and the allowance
    # overflows; |V_t| < 2^-1000 is undecidable at 0 but surely below 1
    below = mc_prime_tail(1e308, 1.0, 1000, 50, master_seed=1)
    assert (below.estimate, below.n_indeterminate) == (0.0, 0)
    at_zero = mc_prime_tail(1e308, 0.0, 1000, 50, master_seed=1)
    assert (at_zero.estimate, at_zero.n_indeterminate) == (0.0, 50)


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
    # exact zeros are skipped: leading, between opposite signs, and trailing
    for values, flips in [
        ([0.0, 1.0, -1.0], 1),
        ([0.0, 0.0, -1.0, 2.0], 1),
        ([1.0, 0.0, 0.0, -1.0], 1),
        ([1.0, 0.0, 1.0, -0.0, -1.0], 1),
        ([-1.0, 1.0, 0.0], 1),
        ([1.0, -1.0, 0.0, 0.0], 1),
        ([0.0, 0.0, 0.0], 0),
    ]:
        v = np.array(values)
        zeros = replace(t, ys=np.arange(1, v.size + 1), values=v, horizon=v.size)
        assert sign_changes(zeros) == flips


def test_sign_changes_examples(assignment_factory):
    plus = assignment_factory(20)
    assert sign_changes(partial_sum_trajectory(plus, 1.0, 20)) == 0
    neg = assignment_factory(6, {2: -1, 3: -1, 5: -1})
    assert sign_changes(partial_sum_trajectory(neg, 1.0, 6)) == 2


def test_sign_changes_past_32767_points_with_zeros():
    # at sigma 1e-300 every weight is 1.0, so the sums are integers and hit
    # zero often, also past the row indices that an int16 holds
    t = partial_sum_trajectory(sample_signs(3, 0, 40_000), 1e-300, 40_000)
    assert np.count_nonzero(t.values[32_768:] == 0) > 0
    assert _python_flips(0, t.values[32_768:].tolist())[0] > 0
    assert sign_changes(t) == _python_flips(0, t.values.tolist())[0]


def _python_flips(last, values):
    """Flips between successive nonzero signs, starting after sign last."""
    flips = 0
    for v in values:
        sign = (v > 0) - (v < 0)
        if sign:
            flips += last * sign < 0
            last = sign
    return flips, last


def test_count_flips_matches_a_python_count_across_zero_runs():
    rng = np.random.default_rng(4)
    rows, trials = 100, 40
    sums = rng.standard_normal((rows, trials))
    sums[rng.random(sums.shape) < 0.2] = 0.0
    sums[rng.random(sums.shape) < 0.05] = -0.0
    sums[:, 0] = 0.0  # all zeros
    sums[:7, 1] = 0.0  # leading zeros after a zero carry
    sums[30:45, 2] = 0.0  # a zero run across the chunk boundary at 37
    sums[29, 2], sums[45, 2] = 1.0, -1.0
    sums[80:, 3] = 0.0  # a trailing zero run
    start = rng.integers(-1, 2, (1, trials)).astype(np.int8)
    start[0, :2] = 0
    last, flips = start.copy(), np.zeros(trials, dtype=np.int64)
    for a, b in [(0, 5), (5, 37), (37, 38), (38, rows)]:
        counted, last = _count_flips(last, sums[a:b].copy())
        flips += counted
    for t in range(trials):
        expected = _python_flips(int(start[0, t]), sums[:, t].tolist())
        assert (int(flips[t]), int(last[0, t])) == expected, t
    assert flips[2] >= 1 and last[0, 0] == 0


def test_mc_sign_changes_runs_and_is_deterministic():
    a = mc_sign_changes(0.6, 200, 500, master_seed=2)
    b = mc_sign_changes(0.6, 200, 500, master_seed=2, threads=8)
    assert a == b
    assert a.estimate >= 0.0


@pytest.mark.parametrize(
    "mode, n_max",
    [(mode, 3000) for mode in Mode] + [(mode, 70_000) for mode in Mode],
    # the 3000 cases keep their plain mode ids
    ids=[str(mode) for mode in Mode] + [f"{mode}-70000" for mode in Mode],
)
def test_mc_sign_changes_trials_match_trajectory_path(mode, n_max):
    # 3000 spans three scan chunks and 70000 two sieve blocks: both paths
    # sum in the same order
    sigma, seed, trials = 0.55, 9, 24
    est = mc_sign_changes(sigma, n_max, trials, seed, mode)
    counts = [
        sign_changes(
            partial_sum_trajectory(sample_signs(seed, k, n_max, mode), sigma, n_max)
        )
        for k in range(trials)
    ]
    assert sum(counts) > 0
    assert est.estimate == sum(counts) / trials


def test_cross_block_scans_thread_invariant_under_fast_switching():
    # two trial batches per sieve block, their visitors sharing per-trial
    # arrays; a tiny switch interval interleaves the worker threads often
    runs = (
        lambda t: mc_positivity(0.58, 5, 70_000, 200, 17, threads=t),
        lambda t: mc_sign_changes(0.6, 70_000, 200, 23, CM, threads=t),
        lambda t: mc_moment(power_coeffs(70_000, 0.75), 4, 200, 3, threads=t),
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in runs:
            assert run(1) == run(4)
    finally:
        sys.setswitchinterval(interval)


def test_a_nan_or_inf_minimum_never_retires_a_trial():
    lowest = np.array([np.nan, np.inf, -np.inf, -1.0, -0.5, 0.0, 2.0])
    assert _failed(lowest, 0.5).tolist() == [0, 0, 0, 1, 0, 0, 0]
    for cut in (np.nan, np.inf):
        assert not _failed(lowest, cut).any()


@pytest.mark.parametrize("mode", [Mode.SQUAREFREE_MULT, Mode.COMPLETELY_MULT])
@pytest.mark.parametrize("sigma, x", [(0.0, 1), (0.6, 1), (0.52, 40)])
def test_retiring_failed_trials_keeps_every_outcome_of_a_full_scan(mode, sigma, x):
    # at sigma = 0 every sum is an integer, so many minima are exactly 0 and
    # stay undecided in the band; 300 trials take 4 sub-pieces of each of the
    # three pieces of [1, 140000], so trials retire inside a piece and between
    n_max, trials, seed = 140_000, 300, 9
    drawn = []

    def bits(idx, ranks):
        drawn.append(len(idx))
        return batch_neg_bits(seed, idx, ranks)

    got = _outcomes(bits, n_max, mode, sigma, x, trials)
    lowest = np.full(trials, np.inf)

    def scan_min(rows, y, sums):
        skip = max(0, x + 1 - y)
        if skip < sums.shape[0]:
            lowest[rows] = np.minimum(lowest[rows], sums[skip:].min(axis=0))

    full = partial(batch_neg_bits, seed)
    band = walk_blocks(full, n_max, mode, sigma, scanner(trials, scan_min), trials)
    assert got.tolist() == band_outcomes(lowest, band).tolist()
    assert min(drawn) < trials  # some trials were retired
    if sigma == 0.0:
        assert (got == 2).any() and (got == 0).any()


def test_mc_positivity_memory_bounded_with_wide_batches(run_fresh):
    # 1000 trials make one batch above 2^16 rows; its f is built on
    # sub-pieces and its sign bits drawn packed, pi(hi) ranks per piece
    code = (
        "import resource\n"
        "from rmflab.oracle import mc_positivity\n"
        "from rmflab.sampler import Mode\n"
        "mc_positivity(0.6, 1, 300_000, 1000, 1, Mode.COMPLETELY_MULT)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    assert int(run_fresh(code)) < 80 * 1024  # kB


@pytest.mark.parametrize(
    "call",
    [
        "mc_positivity(0.75, 1, 1000, 50000, 1, threads=2)",
        "mc_positivity(0.75, 1, 1000, 50000, 1)",
        "mc_sign_changes(0.8, 1000, 20000, 1)",
    ],
)
def test_scan_memory_per_thread_is_one_tile(run_fresh, call):
    # each thread's scan holds one TILE_CELLS tile of running sums, not a
    # 16 MB (CHUNK, 2048) block: the whole call stays within 16 MB
    code = (
        "import resource\n"
        "from rmflab.oracle import mc_positivity, mc_sign_changes\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"{call}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(run_fresh(code)) < 16 * 1024  # kB


def test_mc_moment_sums_do_not_follow_openblas_threads(run_fresh):
    # one a @ f over a whole (1000, 874) sub-piece summed each trial in an
    # order that OpenBLAS's thread count set: sha256 prefixes 6078ee5e... at
    # one thread and b28bf26c... at two
    code = (
        "import hashlib\n"
        "from rmflab import oracle\n"
        "mean = oracle._mean\n"
        "def spy(values, *args, **kwargs):\n"
        "    print(hashlib.sha256(values.tobytes()).hexdigest())\n"
        "    return mean(values, *args, **kwargs)\n"
        "oracle._mean = spy\n"
        "oracle.mc_moment(oracle.power_coeffs(1000), 4, 874, 1)\n"
    )
    digests = {
        # OpenBLAS reads its thread count as numpy loads
        run_fresh(f"import os\nos.environ['OPENBLAS_NUM_THREADS'] = {t!r}\n{code}")
        for t in ("1", "2")
    }
    assert len(digests) == 1


@pytest.mark.parametrize("threads, bound_mb", [(1, 12), (2, 24)])
def test_mc_moment_memory_is_one_tile_per_thread(run_fresh, threads, bound_mb):
    # a float64 copy of each batch's (1000, 2048) f, 16 MB a thread, and
    # _mean's trial-long temporaries took the benchmark's mc moment op 21 MB
    # above the RSS after import at one thread and 49 MB at two
    argv = ["mc", "moment", "--nmax", "1000", "--m", "4", "--trials", "200000",
            "--seed", "1", "--threads", str(threads)]
    code = (
        "import io, resource\n"
        "from rmflab.cli import dispatch\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"assert dispatch({argv!r}, io.StringIO(), io.StringIO()) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(run_fresh(code)) < bound_mb * 1024  # kB


def test_mc_sign_changes_memory_bounded_at_many_threads():
    # batch x sieve block cells per worker, and no more workers than batches
    # or cpus; a whole-horizon (B, n_max) batch per thread peaked near 260 MB
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = (
        "import resource\n"
        "from rmflab.oracle import mc_sign_changes\n"
        "mc_sign_changes(0.6, 100_000, 250, 1, threads=8)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    # Linux carries a process's peak RSS across exec into the new program, so
    # the measured interpreter is started from a small one, not from pytest
    launcher = (
        "import subprocess, sys\n"
        f"subprocess.run([sys.executable, '-c', {code!r}], check=True)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", launcher], env=env, capture_output=True, text=True,
        check=True,
    )
    assert int(result.stdout) < 120 * 1024  # kB


def test_mean_estimators_clamp_ci_low_at_zero():
    # both normal intervals reach below 0 unclamped: -149.3 and -9.45
    assert mc_moment(power_coeffs(100, 1.0), 6, 5, master_seed=1).ci_low == 0.0
    assert mc_sign_changes(0.6, 2000, 3, master_seed=4).ci_low == 0.0


def test_mean_pinned():
    # the mean, variance and fourth-moment sums are exactly rounded, so each
    # field is pinned bitwise, one heavy-tailed sample and one plain one
    n = np.arange(1, 5001)
    heavy = 1.0 / (n % 89 + 1.5)
    heavy[::1000] *= 1e5
    e = _mean(heavy, 1, 0.99, flag_kurtosis=True)
    assert (repr(e.estimate), repr(e.ci_low), repr(e.ci_high), e.heavy_tail) == (
        "9.887387752663821", "0.0", "30.665001872035596", True
    )
    e = _mean(np.abs((n % 7 - 3) * 0.1 + 1e-3 * n), 2, 0.95)
    assert (repr(e.estimate), repr(e.ci_low), repr(e.ci_high), e.heavy_tail) == (
        "2.5044172000000002", "2.464214112822264", "2.5446202871777364", False
    )


def test_kurtosis_of_a_sample_whose_variance_squared_underflows():
    # var = 2e-200 > 0, but var * var underflowed to 0 and the kurtosis ratio
    # raised ZeroDivisionError; m4 = 1e-400 underflows as well
    e = _mean(np.array([1e-100, 3e-100]), 1, 0.99, flag_kurtosis=True)
    assert (e.estimate, e.trials, e.heavy_tail) == (2e-100, 2, False)
    assert 0.0 == e.ci_low < e.ci_high


def test_kurtosis_flag_is_scale_free_where_fourth_powers_underflow():
    # the fourth powers of these centred values underflowed: m4 read 0 and
    # the excess -3, while the same sample times 1e100 was flagged
    v = np.full(1000, 1e-100)
    v[-1] = 1e-98
    assert _mean(v, 1, 0.99, flag_kurtosis=True).heavy_tail
    assert _mean(v * 1e100, 1, 0.99, flag_kurtosis=True).heavy_tail


def test_mc_moment_rejects_overflow_and_empty_coefficients():
    # |S|^2000 overflows float64: estimate inf and ci_high NaN, exit 0, before
    with pytest.raises(DomainError, match="overflows"):
        mc_moment(power_coeffs(10, 1.0), 2000, 10, master_seed=1)
    with pytest.raises(DomainError, match="coefficient"):
        mc_moment(power_coeffs(0, 1.0), 4, 10, master_seed=1)


def test_power_maps_are_read_without_scanning_their_keys(monkeypatch):
    # the same records as from a plain dict of the same a(n), which is scanned
    n_max = 70000
    coeffs = power_coeffs(n_max, 0.75)
    plain = {n: coeffs[n] for n in range(1, n_max + 1)}
    expected = bh_rhs(plain, 3), mc_moment(plain, 4, 40, master_seed=1)
    monkeypatch.setattr(PowerCoeffs, "__iter__", lambda self: pytest.fail("scanned"))
    assert index_span(coeffs) == (1, n_max, True)
    assert (bh_rhs(coeffs, 3), mc_moment(coeffs, 4, 40, master_seed=1)) == expected


def test_mc_moment_refuses_a_huge_index_before_allocating():
    # a float64 vector up to 10^11 would take 745 GiB
    with pytest.raises(DomainError, match="term budget"):
        mc_moment({10**11: 1.0}, 4, 10, master_seed=1)


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
    # (sigma, x, n_max, trials, seed, mode, threads), estimate,
    # n_indeterminate, dump
    ((0.6, 1, 50_000, 400, 7, SF, 1), 0.36, 0,
     "a9354b617047cad426458cdc9babfbe4a53030ad6235e70584ebf7f726257a78"),
    ((0.75, 3, 1000, 3000, 11, SF, 1), 0.6546666666666666, 0,
     "b0959150bd2a8f2e49e42a347898446e0682535378d6a5578b26c147aa0b7046"),
    ((0.52, 10, 3000, 2500, 5, SF, 1), 0.2972, 0,
     "3569cb4fb59a1f4f331ae7963f0661bdba2a2284669075250281014eec8308ba"),
    ((0.6, 1, 50_000, 400, 7, CM, 1), 0.6, 0,
     "05a375275f2c5d9b7b728162c6ec1539f96b51e7cd5f31cc319728207621e59b"),
    ((0.75, 3, 1000, 3000, 11, CM, 1), 0.886, 0,
     "d260455b8335dff188ff3eb96415dcf6508eff6ffb8bb612eaf123ad49a893e9"),
    ((0.52, 10, 3000, 2500, 5, CM, 1), 0.6664, 0,
     "f569039b36e8b56d7e43dc57c22f0a31a629745ad57c2c72268bab53ce8743c3"),
    # 70000 crosses the first 2^16 sieve block
    ((0.58, 5, 70_000, 300, 17, SF, 1), 0.36, 0,
     "16eef64c0d3f73ec2fd3283243002f86eda92cbde7aea794f931cbb061111b35"),
    ((0.58, 5, 70_000, 300, 17, CM, 1), 0.72, 0,
     "c18d1a8cc1120bdff5b7688a0a9349c6bd94bae5ab832cf090a68b50930fecd7"),
    # 10^5 with 1000 trials: above 2^16 rows, wide enough for one batch
    ((0.6, 1, 100_000, 1000, 1, CM, 1), 0.647, 0,
     "53f961af4ba6bd32dfb4eed0de293f4f865a236f15667978d1d209d0d1b6a7d6"),
    ((0.6, 1, 100_000, 1000, 2, SF, 1), 0.391, 0,
     "bfccf559d3b4d219e8e9979068908d923f02533f89fcf30f5fe9523ccd93e2a5"),
    ((0.55, 7, 100_000, 1000, 3, CM, 2), 0.667, 0,
     "992dc4404a7c8f64356a7c9ae22569e8d580368031fdd3f9a86528a0961bf440"),
    ((0.65, 4, 100_000, 1000, 4, SF, 2), 0.478, 0,
     "af3a660bd6f10385f072235b68f64856d8e81440984e8a99f64961f2f67dd999"),
]

SPARSE_COEFFS = {2: 0.5, 6: 1.25, 30: -0.75, 97: 2.0}

GOLDEN_MOMENT = [
    # (coeffs, m, trials, seed, mode), (estimate, ci_low, ci_high, heavy_tail)
    ((power_coeffs(300, 0.75), 4, 5000, 5, SF),
     (25.74231070654142, 21.57957457240064, 29.9050468406822, True)),
    ((SPARSE_COEFFS, 3, 3000, 9, SF),
     (21.633583333333334, 20.25734629067072, 23.009820375995947, False)),
    ((power_coeffs(300, 0.75), 4, 5000, 5, CM),
     (300.3500307619144, 262.59754778047966, 338.10251374334916, True)),
    ((SPARSE_COEFFS, 3, 3000, 9, CM),
     (21.633583333333334, 20.25734629067072, 23.009820375995947, False)),
]

GOLDEN_SIGN_CHANGES = [
    # (sigma, n_max, trials, seed, mode), (estimate, ci_low, ci_high)
    ((0.6, 40_000, 300, 3, SF), (63.06, 49.13176018232182, 76.98823981767819)),
    ((0.8, 1000, 2500, 4, SF), (1.9668, 1.7058718776123574, 2.2277281223876426)),
    ((0.6, 40_000, 300, 3, CM), (18.02, 9.275011143484637, 26.764988856515362)),
    ((0.8, 1000, 2500, 4, CM), (0.3816, 0.2890581968667127, 0.4741418031332873)),
    ((0.6, 70_000, 200, 23, SF), (90.93, 67.99935692084856, 113.86064307915146)),
    ((0.6, 70_000, 200, 23, CM), (32.11, 13.092600717569727, 51.127399282430275)),
    ((0.6, 100_000, 250, 1, SF), (102.748, 78.95655627020002, 126.53944372979998)),
    ((0.6, 100_000, 1000, 5, CM), (21.512, 15.644994833121196, 27.379005166878805)),
    ((0.7, 100_000, 1000, 6, SF), (18.123, 14.111078459759284, 22.13492154024072)),
]

GOLDEN_PRIME_TAIL = [
    # (sigma, lambda, P, trials, seed, threads), (estimate, ci_low, ci_high)
    ((0.6, 1.0, 100_000, 3000, 1, 1),
     (0.216, 0.19728523535032316, 0.23596819960236776)),
    ((0.75, 0.0, 1000, 5000, 2, 2),
     (0.5024, 0.48419523789728686, 0.5205984010429707)),
    ((0.6, 2.0, 1000, 4500, 3, 2),
     (0.035555555555555556, 0.02910119506643751, 0.043377473406878274)),
    ((0.75, 1.0, 100_000, 2000, 4, 1),
     (0.154, 0.13435726305211546, 0.17593082057270534)),
    # pi(P) = 430, 1229 and 18 leave the last byte of sign bits part-filled
    ((0.6, 1.0, 3000, 3000, 5, 2),
     (0.21033333333333334, 0.19181700557401937, 0.23012810589768068)),
    ((0.75, 0.5, 10_000, 2500, 6, 1),
     (0.3132, 0.2898278349432523, 0.3375610595197997)),
    ((0.5, 0.0, 64, 4000, 7, 2),
     (0.494, 0.47366454772080235, 0.5143553240072855)),
]

GOLDEN_STREAM_F = {
    SF: "88ae182a58416c161d708070b1bd7d42348484b277527773b47ec9eea98e2918",
    CM: "909f4155b62db542d8d024866f2f5a0b0a3c685af6aae1dc28817ddde431f80c",
}


@pytest.mark.parametrize("args, estimate, indeterminate, dump_sha", GOLDEN_POSITIVITY)
def test_golden_mc_positivity(args, estimate, indeterminate, dump_sha):
    sigma, x, n_max, trials, seed, mode, threads = args
    dump = io.StringIO()
    est = mc_positivity(
        sigma, x, n_max, trials, seed, mode, threads=threads, trial_dump=dump
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


@pytest.mark.parametrize("args, expected", GOLDEN_PRIME_TAIL)
def test_golden_mc_prime_tail(args, expected):
    sigma, threshold, p_max, trials, seed, threads = args
    est = mc_prime_tail(
        sigma, threshold, p_max, trials, master_seed=seed, threads=threads
    )
    assert est == EstimateWithCI(*expected[:1], trials, *expected[1:], seed)


@pytest.mark.parametrize("mode", [SF, CM])
def test_golden_stream_f(mode):
    a = sample_signs(2024, 3, 200_000, mode)
    digest = hashlib.sha256(stream_f(a, 1, 200_000).tobytes()).hexdigest()
    assert digest == GOLDEN_STREAM_F[mode]


# f past the first 2^18 sieve block, whose cofactor primes the walk ranks
# from marks made in earlier blocks
GOLDEN_STREAM_F_600K = {
    SF: "20dcaf41213296a420a086e8d371b09f90b69e55b485306f7e4ce20141109c17",
    CM: "ccffd485a73ef9ea5942adac6b61f99b45fcee0e68e5817568abb5356e675056",
}


@pytest.mark.parametrize("mode", [SF, CM])
def test_golden_stream_f_past_one_sieve_block(mode):
    a = sample_signs(2024, 3, 600_000, mode)
    digest = hashlib.sha256(stream_f(a, 1, 600_000).tobytes()).hexdigest()
    assert digest == GOLDEN_STREAM_F_600K[mode]


def test_golden_trajectory_past_one_sieve_block():
    t = partial_sum_trajectory(sample_signs(1, 0, 10**6), 0.6, 10**6, 1000)
    assert (t.values[-1], t.summation_error_bound) == (
        0.2079832319409576, 8.590048348425682e-11
    )
    assert hashlib.sha256(t.ys.tobytes() + t.values.tobytes()).hexdigest() == (
        "c0a40b5953cca33e2f09c0ed0b2a20307d5a13503170055fd51724a5069b24b2"
    )


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
