import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import divided_block_tables, searched_ranks
from rmflab.errors import DomainError, SieveBaseError
from rmflab.sieve import (
    DEFAULT_BLOCK,
    TERM_ROWS,
    arith_signature,
    iter_blocks,
    load_prime_cache,
    primes_up_to,
    ranked_walk,
    save_prime_cache,
    sieve_block_tables,
    sieve_walk,
)


def brute_primes(n):
    out = []
    for k in range(2, n + 1):
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            out.append(k)
    return out


def test_primes_up_to_small():
    assert primes_up_to(10).primes.tolist() == [2, 3, 5, 7]
    assert primes_up_to(1).primes.tolist() == []
    assert primes_up_to(0).primes.tolist() == []


def test_primes_up_to_30_against_trial_division():
    plist = primes_up_to(30)
    assert len(plist) == 10
    assert plist.primes.tolist() == brute_primes(30)


def eratosthenes(n):
    """Primes <= n from one flag per integer: the reference for the segments."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


@pytest.mark.parametrize(
    "n",
    [2, 3, 4, 2 * DEFAULT_BLOCK - 1, 2 * DEFAULT_BLOCK, 2 * DEFAULT_BLOCK + 1,
     2 * DEFAULT_BLOCK + 3, 4 * DEFAULT_BLOCK + 7, 1_234_567],
)
def test_primes_up_to_across_odd_segments(n):
    # each segment flags DEFAULT_BLOCK odd integers, 2 DEFAULT_BLOCK integers
    plist = primes_up_to(n)
    assert plist.primes.dtype == np.int64 and plist.limit == n
    assert np.array_equal(plist.primes, eratosthenes(n))


def test_primes_negative_limit_rejected():
    with pytest.raises(DomainError):
        primes_up_to(-1)


def test_arith_signature_examples():
    assert arith_signature(49).is_squarefree is False
    assert arith_signature(49).omega == 1
    sig = arith_signature(2310)
    assert sig.omega == 5 and sig.is_squarefree
    assert sig.distinct_primes == (2, 3, 5, 7, 11)
    one = arith_signature(1)
    assert one.omega == 0 and one.is_squarefree and one.distinct_primes == ()
    with pytest.raises(DomainError):
        arith_signature(0)


def test_arith_signature_within_the_term_budget():
    # trial division stops at isqrt(n), so isqrt(n) <= 10^9 is the budget
    assert arith_signature(10**18).distinct_primes == (2, 5)
    with pytest.raises(DomainError, match="term budget"):
        arith_signature((10**9 + 1) ** 2)


def test_arith_signature_past_the_first_trial_chunk():
    # both primes lie past the first numpy chunk of odd trial divisors
    p, q = primes_up_to(1_100_000).primes[-2:].tolist()
    assert 2**20 < p < q
    assert arith_signature(p * q).distinct_primes == (p, q)
    sig = arith_signature(9 * p * q)
    assert (sig.is_squarefree, sig.omega, sig.distinct_primes) == (False, 3, (3, p, q))
    sig = arith_signature(10 * p**2)
    assert (sig.is_squarefree, sig.omega, sig.distinct_primes) == (False, 3, (2, 5, p))
    # a prime near 10^14: about 5 * 10^6 odd trial divisors
    assert arith_signature(99999999999973).distinct_primes == (99999999999973,)


def test_sieve_block_examples():
    t = sieve_block_tables(1, 30, primes_up_to(6))
    row = {n: (bool(t.squarefree[n - 1]), int(t.omega[n - 1]), int(t.cofactor[n - 1]))
           for n in (1, 12, 14, 29, 30)}
    assert row[1] == (True, 0, 1)
    assert row[12] == (False, 2, 1)
    assert row[14] == (True, 2, 7)  # omega counts the cofactor prime 7
    assert row[29] == (True, 1, 29)
    assert row[30] == (True, 3, 1)


def test_sieve_block_insufficient_base_is_loud():
    with pytest.raises(SieveBaseError):
        sieve_block_tables(1, 100, primes_up_to(7))  # need primes to 10


def assert_tables_match_trial_division(lo, hi):
    # the cofactor is the one prime factor above sqrt(hi), or 1
    root = math.isqrt(hi)
    t = sieve_block_tables(lo, hi, primes_up_to(root))
    for i, n in enumerate(range(lo, hi + 1)):
        sig = arith_signature(n)
        cofactor = max((p for p in sig.distinct_primes if p > root), default=1)
        assert (bool(t.squarefree[i]), int(t.omega[i]), int(t.cofactor[i])) == (
            sig.is_squarefree, sig.omega, cofactor
        )


def test_block_oracle_equivalence_fixed_windows():
    # windows spread up to 10^7, compared against trial division
    for lo in (1, 9_999, 123_456, 5_000_000, 9_998_000):
        assert_tables_match_trial_division(lo, lo + 500)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10_000_000 - 64))
def test_block_oracle_equivalence_random(lo):
    assert_tables_match_trial_division(lo, lo + 64)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=10_000),
)
def test_omega_mu2_multiplicative_on_coprimes(a, b):
    if math.gcd(a, b) != 1:
        return
    sa, sb, sab = arith_signature(a), arith_signature(b), arith_signature(a * b)
    assert sab.omega == sa.omega + sb.omega
    assert sab.is_squarefree == (sa.is_squarefree and sb.is_squarefree)


def test_squarefree_density_bracket():
    # density tends to 6/pi^2 ~ 0.6079; loose bracket per contract
    base = primes_up_to(math.isqrt(10_000_000))
    count = 0
    checkpoints = {10**k for k in range(3, 8)}
    done = {}
    for lo, hi in iter_blocks(1, 10_000_000):
        t = sieve_block_tables(lo, hi, base)
        sq = t.squarefree
        for x in sorted(checkpoints):
            if lo <= x <= hi:
                done[x] = count + int(sq[: x - lo + 1].sum())
        count += int(sq.sum())
    for x, c in done.items():
        assert 0.55 <= c / x <= 0.68


def test_blocks_are_pure_and_order_free():
    base = primes_up_to(100)
    a = sieve_block_tables(500, 600, base)
    b = sieve_block_tables(500, 600, base)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.squarefree, b.squarefree)
    assert np.array_equal(a.cofactor, b.cofactor)


@st.composite
def sieve_blocks(draw):
    """(lo, hi) of a block of 1 to DEFAULT_BLOCK integers.

    Anywhere up to 10^9 (so the wheel's fill wraps zero or more periods of
    30030), across 2^31 where the int64 smooth part starts, below 169 where
    the base lacks a wheel prime, or around a multiple of p^2 or p^3 with
    one or two multiples in the block.
    """
    kind = draw(st.sampled_from(["anywhere", "across 2^31", "below 169", "power"]))
    if kind == "below 169":
        hi = draw(st.integers(1, 168))
        return draw(st.integers(1, hi)), hi
    if kind == "across 2^31":
        width = draw(st.integers(2, DEFAULT_BLOCK))
        lo = draw(st.integers(2**31 - width + 1, 2**31 - 1))
        return lo, lo + width - 1
    if kind == "power":
        p = draw(st.sampled_from(primes_up_to(1000).primes.tolist()))
        q = p ** draw(st.integers(2, 3))
        width = draw(st.integers(1, min(q + 1, DEFAULT_BLOCK)))
        n = q * draw(st.integers(1, 10**9 // q))
        lo = n - draw(st.integers(0, min(width, n) - 1))
        return lo, lo + width - 1
    lo = draw(st.integers(1, 10**9))
    return lo, lo + draw(st.integers(1, DEFAULT_BLOCK)) - 1


@settings(max_examples=60, deadline=None)
@given(sieve_blocks())
@example((1, 168))  # five base primes: no wheel
@example((1, 169))  # the first block with the wheel
@example((30029, 60060))  # the fill wraps twice
@example((1, DEFAULT_BLOCK))
@example((10**9 - DEFAULT_BLOCK + 1, 10**9))
@example((2**31 - 1, 2**31))
@example((1_000_003**2 - 1, 1_000_003**2 + 1))  # a base prime's square
@example((3 * 509**2, 4 * 509**2))  # two multiples of a square one narrower
def test_block_tables_match_the_dividing_sieve(block):
    lo, hi = block
    base = primes_up_to(math.isqrt(hi))
    t = sieve_block_tables(lo, hi, base)
    omega, squarefree, cofactor = divided_block_tables(lo, hi, base)
    assert (t.omega.dtype, t.omega.tobytes()) == (omega.dtype, omega.tobytes())
    assert t.squarefree.tobytes() == squarefree.tobytes()
    assert (t.cofactor.dtype, t.cofactor.tobytes()) == (cofactor.dtype, cofactor.tobytes())


@pytest.mark.parametrize("lo, hi", [(1, 3 * 2**18 + 5), (12345, 12345 + 2**19)])
def test_sieve_walk_hands_out_term_rows_pieces(lo, hi):
    pieces = list(sieve_walk(lo, hi))
    assert [t.lo for t in pieces] == list(range(lo, hi + 1, TERM_ROWS))
    assert [t.hi + 1 for t in pieces] == [t.lo for t in pieces[1:]] + [hi + 1]
    assert all(t.hi - t.lo < TERM_ROWS for t in pieces)
    for t in pieces:  # the hi of the DEFAULT_BLOCK block the piece was cut from
        block_hi = min(hi, t.lo + DEFAULT_BLOCK - 1 - (t.lo - lo) % DEFAULT_BLOCK)
        assert np.array_equal(t.base, primes_up_to(math.isqrt(block_hi)).primes)
    whole = sieve_block_tables(lo, hi, primes_up_to(math.isqrt(hi)))
    for name in ("omega", "squarefree"):
        joined = np.concatenate([getattr(t, name) for t in pieces])
        assert np.array_equal(joined, getattr(whole, name))


def assert_ranks_match_searchsorted(n_max):
    plist = primes_up_to(n_max)
    pieces = 0
    for t, ranks, used in ranked_walk(n_max):
        assert ranks.dtype == np.int32, t.lo
        assert np.array_equal(ranks, searched_ranks(t, plist)), t.lo
        assert used == np.searchsorted(plist.primes, t.hi, side="right"), t.hi
        pieces += 1
    assert pieces == -(-n_max // TERM_ROWS)


@pytest.mark.parametrize(
    "n_max", [1, 2, 63, 64, 65, 2**16, 2**16 + 1, 2**18 + 1]
)
def test_ranked_walk_at_word_piece_and_block_edges(n_max):
    assert_ranks_match_searchsorted(n_max)


@settings(max_examples=8, deadline=None)
@given(st.integers(DEFAULT_BLOCK + 1, 3 * 10**6))
def test_ranked_walk_ranks_match_searchsorted(n_max):
    # past the first 2^18 block, pieces rank cofactor primes that earlier
    # blocks marked
    assert_ranks_match_searchsorted(n_max)


def test_prime_cache_round_trip(tmp_path):
    path = tmp_path / "primes.bin"
    plist = primes_up_to(1000)
    save_prime_cache(path, plist)
    with open(path, "rb") as fh:
        assert fh.read(8) == b"RMFPRIM1"
    loaded = load_prime_cache(path)
    assert loaded.limit == 1000
    assert np.array_equal(loaded.primes, plist.primes)


def test_prime_cache_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTPRIME" + b"\x00" * 16)
    with pytest.raises(DomainError):
        load_prime_cache(path)


@pytest.mark.parametrize(
    "lo, hi, cofactor_dtype",
    [
        (2**31 - 400, 2**31 - 1, np.int32),  # the widest block of int32 cofactors
        (2**31 - 200, 2**31 + 199, np.int64),
        (10**12 - 100, 10**12 + 99, np.int64),
    ],
)
def test_block_tables_narrow_below_two_to_the_31(lo, hi, cofactor_dtype):
    assert_tables_match_trial_division(lo, hi)
    t = sieve_block_tables(lo, hi, primes_up_to(math.isqrt(hi)))
    assert (t.omega.dtype, t.cofactor.dtype) == (np.int8, cofactor_dtype)
