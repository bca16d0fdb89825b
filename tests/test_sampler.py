import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import searched_ranks
from rmflab.errors import DomainError, SignRangeError
from rmflab.sampler import (
    Mode,
    batch_neg_bits,
    f_value,
    mix64,
    mix64_array,
    sample_signs,
    sign_table,
    table_f,
)
from rmflab.series import stream_f
from rmflab.sieve import arith_signature, primes_up_to, sieve_block_tables


def test_determinism_same_inputs_same_signs():
    a = sample_signs(987654321, 3, 1000)
    b = sample_signs(987654321, 3, 1000)
    assert np.array_equal(a.neg_bits, b.neg_bits)
    assert np.array_equal(a.signs(), b.signs())


def test_changing_trial_rerandomizes():
    a = sample_signs(1, 0, 10_000)
    b = sample_signs(1, 1, 10_000)
    assert not np.array_equal(a.signs(), b.signs())


def test_sign_count_for_small_universe():
    a = sample_signs(5, 0, 10)
    assert len(a.primes) == 4
    assert set(a.signs().tolist()) <= {-1, 1}


def test_scalar_and_vector_mix_agree():
    xs = np.arange(1000, dtype=np.uint64)
    vec = mix64_array(xs)
    for i in (0, 1, 17, 999):
        assert int(vec[i]) == mix64(i)


def test_empirical_mean_of_single_prime_sign():
    # fair +-1 over 10^5 trials: |mean| < 6 sigma = 6 / sqrt(10^5) ~ 0.019
    packed = batch_neg_bits(2024, np.arange(100_000), 4)
    bits = np.unpackbits(packed, axis=1, count=4, bitorder="little")
    for rank in range(4):
        mean = float((1 - 2 * bits[:, rank].astype(np.float64)).mean())
        assert abs(mean) <= 0.02


def test_batch_bits_match_per_trial_bits():
    # the documented chain: bit r mod 64 of mix64(mix64(mix64(s) ^ t) ^ (r >> 6));
    # 130 ranks cross two word boundaries
    for n_ranks in (25, 130):
        packed = batch_neg_bits(77, np.arange(50, 70), n_ranks)
        batch = np.unpackbits(packed, axis=1, count=n_ranks, bitorder="little")
        for i, trial in enumerate(range(50, 70)):
            key = mix64(mix64(77) ^ trial)
            bits = [mix64(key ^ (r >> 6)) >> (r % 64) & 1 for r in range(n_ranks)]
            assert batch[i].tolist() == bits


def test_last_trial_index_matches_the_scalar_chain():
    trial = 2**64 - 1
    key = mix64(mix64(7) ^ trial)
    a = sample_signs(7, trial, 1000)
    bits = [mix64(key ^ (r >> 6)) >> (r % 64) & 1 for r in range(len(a.primes))]
    count = len(a.primes)
    assert np.unpackbits(a.neg_bits, count=count, bitorder="little").tolist() == bits
    for bad in (-1, 2**64):
        with pytest.raises(DomainError, match="trial_index"):
            sample_signs(7, bad, 1000)


@pytest.mark.parametrize("trial", [0, 2, 2**64 - 1])
def test_an_assignment_keeps_its_row_of_the_packed_draw(trial):
    # pi(1013) = 170 ranks, drawn for prime_count_bound(1013) = 184: 23 bytes
    a = sample_signs(9, trial, 1013)
    assert len(a.primes) == 170
    assert a.neg_bits.shape == (23,)
    assert np.array_equal(a.neg_bits, batch_neg_bits(9, [trial], 184)[0])
    signs = a.signs()
    assert signs.dtype == np.int8 and signs.shape == (170,)
    for p in a.primes.primes.tolist():
        assert a.sign_of(p) == signs[a.primes.rank_of(p)]


def test_f_value_examples():
    for mode in Mode:
        a = sample_signs(9, 0, 100, mode)
        assert f_value(a, 1, arith_signature(1)) == 1
    sq = sample_signs(9, 0, 100, Mode.SQUAREFREE_MULT)
    cm = sample_signs(9, 0, 100, Mode.COMPLETELY_MULT)
    assert f_value(sq, 4, arith_signature(4)) == 0
    assert f_value(cm, 4, arith_signature(4)) == 1  # f(2)^2
    assert f_value(cm, 8, arith_signature(8)) == cm.sign_of(2)  # odd power


def test_f_value_out_of_range_prime():
    a = sample_signs(9, 0, 10)
    with pytest.raises(SignRangeError):
        f_value(a, 13, arith_signature(13))


def test_stream_f_trivial_cases(assignment_factory):
    a = sample_signs(3, 0, 50)
    assert stream_f(a, 1, 1).tolist() == [1]
    plus = assignment_factory(10)
    assert stream_f(plus, 1, 10).tolist() == [1, 1, 1, 0, 1, 1, 1, 0, 0, 1]


def test_stream_f_memory_bounded(run_fresh):
    # stream_f sieved and built f on its whole range at once: 4 * 10^6 integers
    # added 111 MB to the peak after sample_signs, and 10^7 added 278 MB
    code = (
        "import resource\n"
        "from rmflab import sample_signs, stream_f\n"
        "a = sample_signs(1, 0, 4_000_000)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert stream_f(a, 1, 4_000_000).size == 4_000_000\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(run_fresh(code)) < 32 * 1024  # kB


def test_sample_signs_draws_its_row_without_sieving(run_fresh):
    # sample_signs sieved its PrimeList of the primes <= 10^9: 4.8 s and 409 MB
    # above the RSS after import; the row of a bound on pi(10^9) is 7.6 MB
    code = (
        "import resource\n"
        "from rmflab import sample_signs\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "a = sample_signs(1, 0, 10**9)\n"
        "assert a.neg_bits.size * 8 >= 50_847_534  # pi(10^9)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(run_fresh(code)) < 40 * 1024  # kB


@pytest.mark.parametrize("mode", [Mode.SQUAREFREE_MULT, Mode.COMPLETELY_MULT])
def test_stream_f_across_sieve_blocks_matches_one_whole_range_table(mode):
    # lo > 1 and two 2^18 block boundaries: the pieces keep their blocks' bounds
    a = sample_signs(5, 2, 600_000, mode)
    lo, hi = 12345, 12345 + 2**19 + 7
    tables = sieve_block_tables(lo, hi, a.primes)
    packed = batch_neg_bits(5, [2], len(a.primes))
    table, ranks = sign_table(packed, len(a.primes)), searched_ranks(tables, a.primes)
    expected = table_f(table, tables, ranks, mode, 1)[:, 0]
    assert np.array_equal(stream_f(a, lo, hi), expected)


@pytest.mark.parametrize("lo", [2, 65_535, 65_536, 65_537, 262_145, 300_000])
def test_stream_f_from_lo_is_the_tail_of_the_walk_from_one(lo):
    # the walk starts at 1 whatever lo is: pieces wholly or partly below lo
    # are dropped or cut
    a = sample_signs(9, 1, 300_000)
    assert np.array_equal(stream_f(a, lo, 300_000), stream_f(a, 1, 300_000)[lo - 1 :])


def test_stream_f_matches_f_value_pointwise():
    a = sample_signs(31337, 2, 10_000)
    values = stream_f(a, 1, 10_000)
    for n in list(range(1, 200)) + [513, 5040, 9973, 10_000]:
        assert values[n - 1] == f_value(a, n, arith_signature(n))


def test_stream_f_completely_mult_matches_f_value():
    a = sample_signs(31337, 2, 3000, Mode.COMPLETELY_MULT)
    values = stream_f(a, 1, 3000)
    assert not np.any(values == 0)
    for n in list(range(1, 128)) + [1024, 2048, 2999]:
        assert values[n - 1] == f_value(a, n, arith_signature(n))


@pytest.mark.parametrize("mode", list(Mode))
def test_table_f_rows_match_f_value_on_inner_block(mode):
    # a block away from 1: strided offsets, prime powers and large cofactors
    lo, hi, limit, seed = 4000, 6000, 6100, 77
    base = primes_up_to(limit)
    trials = np.arange(10, 15)
    tables = sieve_block_tables(lo, hi, base)
    table = sign_table(batch_neg_bits(seed, trials, len(base)), len(base))
    f = table_f(table, tables, searched_ranks(tables, base), mode, trials.size)
    assert f.T.shape == (trials.size, hi - lo + 1) and f.dtype == np.int8
    for row, trial in zip(f.T, trials.tolist()):
        a = sample_signs(seed, trial, limit, mode)
        expected = [f_value(a, n, arith_signature(n)) for n in range(lo, hi + 1)]
        assert row.tolist() == expected


@settings(max_examples=25, deadline=None)
@given(
    trials=st.sampled_from([1, 7, 8, 9, 255, 256, 257]),
    mode=st.sampled_from(list(Mode)),
    lo=st.integers(2, 4200),
    width=st.integers(1, 120),
    extra=st.integers(0, 300),
    seed=st.integers(0, 2**64 - 1),
)
def test_table_f_cells_match_f_value(trials, mode, lo, width, extra, seed):
    # blocks away from 1 reach p^2..2^12 and cofactor primes; extra puts
    # ranks above hi into the table, which the kernel must ignore
    hi = lo + width - 1
    base = primes_up_to(hi + extra)
    tables = sieve_block_tables(lo, hi, base)
    packed = batch_neg_bits(seed, np.arange(trials), len(base))
    table = sign_table(packed, len(base))
    f = table_f(table, tables, searched_ranks(tables, base), mode, trials)
    assert f.shape == (width, trials) and f.dtype == np.int8
    signatures = [arith_signature(n) for n in range(lo, hi + 1)]
    for t in range(trials):
        a = sample_signs(seed, t, hi + extra, mode)
        assert f[:, t].tolist() == [f_value(a, s.n, s) for s in signatures]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("lo, hi", [(1000, 1100), (2, 5), (39_990, 40_000)])
def test_f_on_rows_of_a_wider_block_matches_f_value(mode, lo, hi):
    # the block's cofactors lost every prime <= sqrt(40000) = 200; at
    # [1000, 1100], sqrt(hi) = 33, so 1003 = 17 * 59 needs the XOR of 59
    block_hi, limit, seed = 40_000, 40_100, 5
    base = primes_up_to(limit)
    block = sieve_block_tables(1, block_hi, base)
    rows = block.rows(lo, hi)
    assert np.array_equal(rows.base, primes_up_to(math.isqrt(block_hi)).primes)
    packed = batch_neg_bits(seed, range(3), len(base))
    table = sign_table(packed, len(base))
    for ranks in (searched_ranks(rows, base), searched_ranks(block, base)[lo - 1 : hi]):
        f = table_f(table, rows, ranks, mode, 3)
        for t in range(3):
            a = sample_signs(seed, t, limit, mode)
            expected = [f_value(a, n, arith_signature(n)) for n in range(lo, hi + 1)]
            assert f[:, t].tolist() == expected
    with pytest.raises(DomainError):
        block.rows(block_hi, block_hi + 1)


def test_stream_beyond_limit_rejected():
    a = sample_signs(1, 0, 100)
    with pytest.raises(SignRangeError):
        stream_f(a, 1, 101)


@pytest.mark.parametrize("mode", list(Mode))
def test_multiplicativity_on_coprimes(mode):
    pairs = [(a, b) for a in range(2, 40) for b in range(a + 1, 1001, 97)]
    for seed in range(10):
        a = sample_signs(seed, 0, 40_000, mode)
        values = stream_f(a, 1, 40_000)
        for u, v in pairs:
            if math.gcd(u, v) == 1:
                assert values[u * v - 1] == values[u - 1] * values[v - 1]


def test_zero_exactly_on_non_squarefree():
    a = sample_signs(5, 1, 2000, Mode.SQUAREFREE_MULT)
    values = stream_f(a, 1, 2000)
    for n in range(1, 2001):
        assert (values[n - 1] == 0) == (not arith_signature(n).is_squarefree)


@pytest.mark.parametrize("trials", [1, 3, 8, 13, 1000])
@pytest.mark.parametrize("n_ranks", [1, 7, 8, 9, 130])
def test_sign_table_is_the_rank_major_pack_of_the_bits(trials, n_ranks):
    # the table walk_blocks builds from one packed draw: rank r's row holds
    # bit i of byte j for trial 8 j + i, zero past the last trial, and a zero
    # row for rank -1; ranks past used, and their bytes, are left out
    packed = batch_neg_bits(5, np.arange(trials), n_ranks)
    bits = np.unpackbits(packed, axis=1, count=n_ranks, bitorder="little")
    for used in sorted({1, (n_ranks + 1) // 2, n_ranks}):
        cells = np.zeros((used + 1, -(-trials // 8) * 8), np.uint8)
        cells[:-1, :trials] = bits[:, :used].T
        expected = np.packbits(cells, axis=1, bitorder="little")
        got = sign_table(packed, used)
        assert got.shape == expected.shape
        assert (got == expected).all()
