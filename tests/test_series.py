import math
from fractions import Fraction
from functools import partial
from itertools import accumulate

import mpmath as mp
import numpy as np
import pytest

from rmflab import oracle
from rmflab.accum import (
    CHUNK,
    EPS,
    TILE_CELLS,
    WIDE,
    power_weights,
    running_sums,
    series_error_ceiling,
    tile_rows,
    weight_allowance,
)
from rmflab.errors import DomainError
from rmflab.sampler import (
    Mode,
    batch_neg_bits,
    cofactor_ranks,
    sample_signs,
    sign_table,
    stream_f,
    table_f,
)
from rmflab.series import (
    Positivity,
    band_outcomes,
    euler_product_partial,
    log_decomposition,
    partial_sum_trajectory,
    positivity_check,
    prime_sum,
    scanner,
    sub_piece_rows,
    walk_blocks,
)
from rmflab.sieve import DEFAULT_BLOCK, TERM_ROWS, primes_up_to, sieve_block_tables


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


def test_band_outcomes_decide_only_outside_the_band():
    lowest = [0.5, -0.5, 0.1, -0.1, 0.0, math.nan, math.inf, -math.inf]
    assert band_outcomes(lowest, 0.1).tolist() == [1, 0, 2, 2, 2, 2, 1, 0]
    assert band_outcomes([0.5, -0.5], math.nan).tolist() == [2, 2]
    assert int(band_outcomes(0.5, 0.1)) == 1


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


@pytest.mark.parametrize("mode", list(Mode))
def test_trajectory_is_one_row_of_the_batch_scan(mode):
    # 70000 crosses the first 2^16 sieve block of the trajectory
    n, sigma, seed, trial = 70_000, 0.6, 5, 3
    t = partial_sum_trajectory(sample_signs(seed, trial, n, mode), sigma, n)
    base = primes_up_to(n)
    packed = batch_neg_bits(seed, np.arange(trial + 1), len(base))
    tables = sieve_block_tables(1, n, base)
    ranks = cofactor_ranks(tables, base)
    f = table_f(sign_table(packed, len(base)), tables, ranks, base, mode, trial + 1)
    weights = power_weights(np.arange(1, n + 1, dtype=np.float64), sigma)
    row = np.concatenate([s[:, trial].copy() for _, s in running_sums(f, weights)])
    assert t.values.tobytes() == row.tobytes()


def test_running_sums_carry_survives_overwritten_blocks():
    f = np.where(np.arange(5000) % 3 == 0, -1, 1).astype(np.int8)[None, :].T
    weights = power_weights(np.arange(1, 5001, dtype=np.float64), 0.6)
    kept = [s.copy() for _, s in running_sums(f, weights)]
    for k, (_, s) in enumerate(running_sums(f, weights)):
        assert np.array_equal(s, kept[k])
        s[:] = np.nan
    assert len(kept) == 5


def in_order(f, weights, base):
    """Each trial's running sums one Python float at a time: s_j = s_{j-1} +
    t_j from the first row of each CHUNK, plus the carried base."""
    n, trials = f.shape
    expected = np.empty((n, trials))
    for t in range(trials):
        carry = float(base[0, t])
        for c in range(0, n, CHUNK):
            terms = (float(v) * w for v, w in zip(f[c : c + CHUNK, t], weights[c:]))
            expected[c : c + CHUNK, t] = [s + carry for s in accumulate(terms)]
            carry = float(expected[min(c + CHUNK, n) - 1, t])
    return expected


@pytest.mark.parametrize("trials", [WIDE - 1, WIDE, 2048])
def test_running_sums_add_each_trial_in_order(trials):
    # WIDE - 1 trials take the cumsum, WIDE and 2048 the row loop; the first
    # two cut each CHUNK into 2 tiles, 2048 into 16: all sum in order
    rng = np.random.default_rng(trials)
    n = 3 * CHUNK + 17
    f = rng.integers(-1, 2, (n, trials)).astype(np.int8)
    weights = power_weights(np.arange(1, n + 1, dtype=np.float64), 0.6)
    base = rng.standard_normal((1, trials))
    got = np.concatenate([s.copy() for _, s in running_sums(f, weights, base)])
    assert got.tobytes() == in_order(f, weights, base).tobytes()


def test_tiles_stay_within_their_cells():
    assert [tile_rows(w) for w in (1, 128, 250, 1000, 2048)] == [
        CHUNK, CHUNK, 512, 128, 64
    ]
    assert tile_rows(1 << 30) == 16
    for w in range(1, 8193):
        rows = tile_rows(w)
        assert CHUNK % rows == 0 and (rows * w <= TILE_CELLS or rows == 16)


@pytest.mark.parametrize("trials", [WIDE - 1, WIDE, 2048])
def test_scanner_carries_across_tiles_and_sub_pieces(trials):
    # several tiles per CHUNK at every width; scanner rewrites its carry,
    # the base it hands running_sums, after each tile, so a kernel that
    # read that base late would add a later tile's sums
    rng = np.random.default_rng(trials + 1)
    n = 3 * CHUNK + 17
    f = rng.integers(-1, 2, (n, trials)).astype(np.int8)
    weights = power_weights(np.arange(1, n + 1, dtype=np.float64), 0.6)
    seen = []

    def record(rows, y, sums):
        seen.append((y, sums.copy()))
        sums[:] = np.nan  # a reduce may overwrite its sums

    visit = scanner(trials, record)
    rows = slice(0, trials)
    for a, b in ((0, 2 * CHUNK), (2 * CHUNK, 3 * CHUNK), (3 * CHUNK, n)):
        visit(rows, a + 1, f[a:b], weights[a:b])  # sub-pieces start a CHUNK
    # a last zero term reads the final carry back unchanged
    visit(rows, n + 1, np.zeros((1, trials), np.int8), weights[:1])
    ys = [y for y, _ in seen]
    assert ys == sorted(set(ys)) and ys[0] == 1
    assert all(y + s.shape[0] == z for (y, s), z in zip(seen, ys[1:] + [n + 2]))
    expected = in_order(f, weights, np.zeros((1, trials)))
    got = np.concatenate([s for _, s in seen])
    assert got[:n].tobytes() == expected.tobytes()
    assert got[n:].tobytes() == expected[-1:].tobytes()


def test_outcomes_minimum_starts_past_x_on_a_tile_seam(monkeypatch):
    # 2048 trials scan in 64-row tiles: each x is on, or next to, a seam
    n, sigma, seed, trials, mode = 3 * CHUNK + 17, 0.6, 3, 2048, Mode.SQUAREFREE_MULT
    minima = []

    def outcomes(lowest, band):
        minima.append(lowest.copy())
        return band_outcomes(lowest, band)

    monkeypatch.setattr(oracle, "band_outcomes", outcomes)
    base = primes_up_to(n)
    packed = batch_neg_bits(seed, np.arange(trials), len(base))
    tables = sieve_block_tables(1, n, base)
    ranks = cofactor_ranks(tables, base)
    f = table_f(sign_table(packed, len(base)), tables, ranks, base, mode, trials)
    weights = power_weights(np.arange(1, n + 1, dtype=np.float64), sigma)
    sums = in_order(f, weights, np.zeros((1, trials)))
    for x in (63, 64, 65, CHUNK - 1, CHUNK, 2 * CHUNK + 64):
        oracle._outcomes(partial(batch_neg_bits, seed), n, mode, sigma, x, trials)
        assert minima.pop().tobytes() == sums[x:].min(axis=0).tobytes(), x


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("sigma", [0.5001, 0.6, 1.0])
def test_trajectory_within_err_bound_of_exact_prefix_sums(sigma, mode):
    n = 200_000
    a = sample_signs(17, 2, n, mode)
    t = partial_sum_trajectory(a, sigma, n, checkpoint_stride=9_973)
    terms = (
        stream_f(a, 1, n) * power_weights(np.arange(1, n + 1, dtype=np.float64), sigma)
    ).tolist()
    assert t.ys.size > 20
    for y, value in t.checkpoints:
        assert abs(value - math.fsum(terms[:y])) <= t.summation_error_bound, y


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("sigma", [1e308, 1.7976931348623157e308])
def test_band_of_weights_underflowed_past_one_holds_exact_sums(sigma, mode):
    # the weight allowance overflows, so the band is n_max TINY: every sum
    # is f(1) = 1 in float64, and its error the true terms past n = 1
    with mp.workprec(120):
        for n_max in (3, 10, 100):
            assert math.isinf(weight_allowance(sigma, n_max))
            for seed in range(3):
                a = sample_signs(seed, 0, n_max, mode)
                t = partial_sum_trajectory(a, sigma, n_max)
                f = stream_f(a, 1, n_max).tolist()
                assert math.isfinite(t.summation_error_bound)
                past_one = mp.mpf(0)
                for y, value in t.checkpoints:
                    if y > 1:
                        past_one += f[y - 1] * mp.power(y, -mp.mpf(sigma))
                    error = (mp.mpf(value) - f[0]) - past_one
                    assert abs(error) <= t.summation_error_bound, (n_max, y)


@pytest.mark.parametrize("sigma", [0.5001, 0.51, 0.6, 0.75, 1.0, 3.0, -1.0, -3.0])
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


def test_prime_sum_pinned():
    # one exactly rounded sum of ~10^4 signed weights, in both modes
    for mode in Mode:
        a = sample_signs(1, 0, 10**5, mode)
        assert repr(prime_sum(a, 0.6, 10**5)) == "-0.13134182745571357"
    a = sample_signs(1, 0, 10**5)
    assert repr(prime_sum(a, 0.5001, 99991)) == "0.11540367473987762"


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


# The pieces of [1, n_max] are cut at every multiple of TERM_ROWS, their
# chunks at every multiple of CHUNK, and the sieve's blocks at DEFAULT_BLOCK.
PIECE_GRID = [
    1, 2, CHUNK - 1, CHUNK, CHUNK + 1, TERM_ROWS - 1, TERM_ROWS, TERM_ROWS + 1,
    DEFAULT_BLOCK, DEFAULT_BLOCK + 1, 300_000,
]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize(
    "sigma",
    [-300.0, -1.0, 0.0, 1e-9, 0.25, 0.5, 0.6, 1 - 1e-12, 1.0, 1.5, 3.0, 1e300, 1e308],
)
def test_error_ceiling_bounds_the_band_of_every_walk(mode, sigma):
    # _outcomes retires a trial below -series_error_ceiling before the walk
    # has formed any mass: the ceiling must hold the final band, from the
    # exact oracle's sigma = -300 re-check path to weights underflowing to 0,
    # and past them to an overflowed weight allowance
    def ignore(rows, lo, f, w):
        pass

    bits = np.zeros((1, 1), np.uint8)
    for n_max in PIECE_GRID:
        with np.errstate(over="ignore", invalid="ignore"):
            band = walk_blocks(lambda *_: bits, n_max, mode, sigma, ignore)
        assert series_error_ceiling(sigma, n_max) >= band, n_max


def test_sub_pieces_keep_whole_pieces_up_to_128_trials():
    assert [sub_piece_rows(w) for w in (1, 128)] == [TERM_ROWS, TERM_ROWS]
    assert [sub_piece_rows(w) for w in (129, 1000, 2048)] == [1 << 15, 1 << 13, 1 << 12]
    assert sub_piece_rows(1 << 30) == CHUNK
    for w in range(1, 2049):
        assert TERM_ROWS % sub_piece_rows(w) == 0 and sub_piece_rows(w) % CHUNK == 0
