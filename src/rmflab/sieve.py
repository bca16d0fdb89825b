"""Segmented sieve for primes and per-integer arithmetic data.

sieve_walk sieves a range of integers in blocks of DEFAULT_BLOCK and hands
them out in pieces of TERM_ROWS rows; each gives, for every n in it, the
squarefree indicator mu^2(n), the count omega(n) of distinct prime
divisors, and the cofactor left after the small primes.  Blocks are pure
functions of (lo, hi, base): they can be sieved in any order, cached, and
merged freely, and BlockTables.rows cuts a block into the pieces, which
keep the block's bound.  Single integers are factored by trial division,
within the same term budget.  ranked_walk ranks each cofactor prime of
[1, N] from the walk's own marks, with no list of the primes up to N.

The block strategy: mark multiples of every base prime p <= sqrt(hi),
dividing p out of a running cofactor (one division per power level
p, p^2, p^3, ...), so a cofactor left > 1 is a single prime above
sqrt(hi).  A square divisor is detected by the p^2 marking level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SieveBaseError

PRIME_CACHE_MAGIC = b"RMFPRIM1"

#: Segment width of sieve_walk; working memory is O(sqrt(N) + block).  A
#: block's cost is nearly all per-prime numpy calls, so wider blocks walk
#: faster: [1, 10^7] took 0.47 s at 2^16 and 0.28 s at 2^18.
DEFAULT_BLOCK = 1 << 18

#: Rows of each piece of sieve_walk, and so most rows of terms formed at a
#: time: the f of a trial batch in series.walk_blocks, and one exact sum of
#: explicit's weighted sums.  It divides DEFAULT_BLOCK, so the pieces, their
#: accum.CHUNK boundaries and sums do not depend on the sieve's width.
TERM_ROWS = 1 << 16

#: Most integers one sieve may cover (a few minutes at about 2 s per 10^7
#: for a block walk, 1 GB of flags for primes_up_to); like the oracle's
#: 2^24 assignment budget, larger inputs are refused.
SIEVE_TERM_LIMIT = 10**9

#: odd trial divisors arith_signature tests in one numpy step (4 MB of int64)
_TRIAL_CHUNK = 1 << 19


@dataclass(frozen=True)
class PrimeList:
    """All primes <= limit, ascending."""

    limit: int
    primes: np.ndarray  # int64, strictly increasing

    def __len__(self) -> int:
        return int(self.primes.size)

    def __iter__(self):
        return iter(self.primes.tolist())

    def rank_of(self, p: int) -> int:
        """Index of prime p in the list; DomainError if absent."""
        i = int(np.searchsorted(self.primes, p))
        if i >= len(self) or int(self.primes[i]) != p:
            raise DomainError(f"{p} is not a prime <= {self.limit}")
        return i


@dataclass(frozen=True)
class ArithSignature:
    """Squarefree flag, omega, and distinct prime divisors of one integer."""

    n: int
    is_squarefree: bool
    omega: int
    distinct_primes: tuple[int, ...]


def primes_up_to(n: int) -> PrimeList:
    """All primes <= n via a sieve of Eratosthenes over every integer <= n."""
    if n < 0:
        raise DomainError(f"negative sieve limit {n}")
    if n > SIEVE_TERM_LIMIT:
        raise DomainError(f"{n} exceeds the sieve term budget of {SIEVE_TERM_LIMIT}")
    if n < 2:
        return PrimeList(n, np.empty(0, dtype=np.int64))
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeList(n, np.flatnonzero(flags).astype(np.int64, copy=False))


def arith_signature(n: int) -> ArithSignature:
    """Trial-division factorization up to isqrt(n); the block sieve's oracle.

    After 2, the odd divisors are tried _TRIAL_CHUNK at a time as numpy
    int64 (within the term budget n < (10^9 + 1)^2 < 2^63).
    """
    if n < 1:
        raise DomainError(f"arith_signature needs n >= 1, got {n}")
    if math.isqrt(n) > SIEVE_TERM_LIMIT:
        raise DomainError(f"isqrt({n}) exceeds the term budget of {SIEVE_TERM_LIMIT}")
    m = n
    squarefree = True
    primes: list[int] = []

    def divide_out(p: int) -> None:
        nonlocal m, squarefree
        primes.append(p)
        m //= p
        squarefree = squarefree and m % p != 0
        while m % p == 0:
            m //= p

    if m % 2 == 0:
        divide_out(2)
    p = 3
    while p * p <= m:
        count = min(_TRIAL_CHUNK, (math.isqrt(m) - p) // 2 + 1)
        odd = np.arange(p, p + 2 * count, 2, dtype=np.int64)
        # ascending, a divisor of m that no smaller prime divides is prime
        for d in odd[m % odd == 0].tolist():
            if m % d == 0:
                divide_out(d)
        p += 2 * count
    if m > 1:
        primes.append(m)
    return ArithSignature(n, squarefree, len(primes), tuple(primes))


@dataclass(frozen=True)
class BlockTables:
    """Vectorized arithmetic data for every n = lo + i in [lo, hi].

    squarefree[i] is mu^2(n) == 1 and omega[i] is omega(n).  cofactor[i] is
    the part of n left after dividing out all base primes <= sqrt(bound),
    bound being the hi of the sieved block the rows belong to; it is
    either 1 or a single prime.
    """

    lo: int
    hi: int
    omega: np.ndarray  # int8: n < 10^18 has at most 15 distinct primes
    squarefree: np.ndarray  # bool
    cofactor: np.ndarray  # int32 where bound < 2^31, int64 above
    bound: int

    def rows(self, lo: int, hi: int) -> "BlockTables":
        """The tables of [lo, hi] within [self.lo, self.hi], as views, same bound."""
        if not self.lo <= lo <= hi <= self.hi:
            raise DomainError(f"[{lo}, {hi}] is not within [{self.lo}, {self.hi}]")
        s = slice(lo - self.lo, hi - self.lo + 1)
        return BlockTables(
            lo, hi, self.omega[s], self.squarefree[s], self.cofactor[s], self.bound
        )


def _check_base(hi: int, base: PrimeList) -> np.ndarray:
    root = math.isqrt(hi)
    if base.limit < root:
        raise SieveBaseError(
            f"prime base covers only <= {base.limit}, need <= {root} for hi={hi}"
        )
    cut = int(np.searchsorted(base.primes, root, side="right"))
    return base.primes[:cut]


def sieve_block_tables(lo: int, hi: int, base: PrimeList) -> BlockTables:
    """Sieve [lo, hi] against the base primes; pure in (lo, hi, base)."""
    if not 1 <= lo <= hi:
        raise DomainError(f"invalid block [{lo}, {hi}]")
    size = hi - lo + 1
    omega = np.zeros(size, dtype=np.int8)
    squarefree = np.ones(size, dtype=bool)
    cofactor = np.arange(lo, hi + 1, dtype=np.int32 if hi < 2**31 else np.int64)
    primes = _check_base(hi, base)
    first = -lo % primes  # offset of each prime's first multiple in the block
    within = first < size  # a narrow block misses most primes, and their powers
    for p, start in zip(primes[within].tolist(), first[within].tolist()):
        sl = slice(start, size, p)
        omega[sl] += 1
        cofactor[sl] //= p
        q = p * p
        while q <= hi:
            start = ((lo + q - 1) // q) * q
            sl = slice(start - lo, size, q)
            squarefree[sl] = False
            cofactor[sl] //= p
            q *= p
    omega += cofactor > 1
    return BlockTables(lo, hi, omega, squarefree, cofactor, hi)


def iter_blocks(lo: int, hi: int, block: int = DEFAULT_BLOCK):
    """Yield (a, b) segments covering [lo, hi] in ascending order."""
    a = lo
    while a <= hi:
        b = min(a + block - 1, hi)
        yield a, b
        a = b + 1


def walk_base(lo_n: int, hi_n: int) -> PrimeList:
    """The base primes <= sqrt(hi_n) of a walk over [lo_n, hi_n].

    DomainError where the walk would pass the term budget.
    """
    if hi_n - lo_n + 1 > SIEVE_TERM_LIMIT:
        raise DomainError(
            f"[{lo_n}, {hi_n}] exceeds the sieve term budget of {SIEVE_TERM_LIMIT}"
        )
    return primes_up_to(math.isqrt(hi_n))


def sieve_walk(lo_n: int, hi_n: int):
    """BlockTables of [lo_n, hi_n] in pieces of TERM_ROWS rows, ascending.

    Each iter_blocks block is sieved once and cut by BlockTables.rows, so
    piece k starts at lo_n + k TERM_ROWS and keeps its block's bound.  The
    term budget is checked at the call, before any block is sieved.
    """
    base = walk_base(lo_n, hi_n)
    blocks = (sieve_block_tables(lo, hi, base) for lo, hi in iter_blocks(lo_n, hi_n))
    return (t.rows(a, b) for t in blocks for a, b in iter_blocks(t.lo, t.hi, TERM_ROWS))


def ranked_walk(n_max: int):
    """Yield each sieve_walk(1, n_max) piece as (tables, ranks, pi(tables.hi)).

    ranks[i] is the 0-based rank among the primes of row i's cofactor prime,
    -1 where the cofactor is 1, as int32.  Bit n - 1 of one bitmap is set
    where n is prime (omega(n) = 1, squarefree), and the set bits below each
    64-bit word are counted: 3 n_max / 16 bytes, formed after sieve_walk's
    term budget check.  A cofactor prime is at most its row's hi, so it is
    marked before it is ranked.
    """
    pieces = sieve_walk(1, n_max)
    words = np.zeros((n_max + 63) // 64, dtype="<u8")
    below = np.zeros(words.size + 1, dtype=np.int32)  # set bits below each word
    for t in pieces:
        # t.lo - 1 is a multiple of TERM_ROWS, so the piece starts a word
        start, stop = (t.lo - 1) // 64, (t.hi + 63) // 64
        marks = np.packbits(t.squarefree & (t.omega == 1), bitorder="little")
        words.view(np.uint8)[8 * start : 8 * start + marks.size] = marks
        counts = below[start + 1 : stop + 1]
        np.cumsum(np.bitwise_count(words[start:stop]), dtype=np.int32, out=counts)
        counts += below[start]
        big = np.flatnonzero(t.cofactor > 1)
        at = t.cofactor[big] - 1  # the prime's bit
        low = np.uint64(1) << (at & 63).astype(np.uint64)
        low -= np.uint64(1)
        at >>= 6
        low &= words[at]  # the marks below the prime in its word
        ranks = np.full(t.cofactor.size, -1, dtype=np.int32)
        ranks[big] = np.bitwise_count(low) + below[at]
        yield t, ranks, int(below[stop])


def save_prime_cache(path, plist: PrimeList) -> None:
    """Write primes as little-endian int64 behind an 8-byte magic header."""
    with open(path, "wb") as fh:
        fh.write(PRIME_CACHE_MAGIC)
        fh.write(np.asarray([plist.limit], dtype="<i8").tobytes())
        fh.write(plist.primes.astype("<i8").tobytes())


def load_prime_cache(path) -> PrimeList:
    """Read a prime cache written by save_prime_cache; DomainError if damaged."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != PRIME_CACHE_MAGIC or len(data) < 16 or len(data) % 8:
        raise DomainError(f"not a whole prime cache: {len(data)} bytes, {data[:8]!r}")
    limit = int.from_bytes(data[8:16], "little", signed=True)
    return PrimeList(limit, np.frombuffer(data, "<i8", offset=16).astype(np.int64))
