"""Segmented sieve for primes and per-integer arithmetic data.

sieve_walk sieves a range of integers in blocks of DEFAULT_BLOCK and hands
them out in pieces of TERM_ROWS rows; each gives, for every n in it, the
squarefree indicator mu^2(n), the count omega(n) of distinct prime
divisors, and the smooth part of n over the small primes, whose cofactor
n // smooth is 1 or one prime.  Blocks are pure functions of (lo, hi,
base): they can be sieved in any order, cached, and merged freely, and
BlockTables.rows cuts a block into the pieces, which keep the block's
base primes.  Single integers are factored by trial division, within the same
term budget.  ranked_walk ranks each cofactor prime of [1, N] from the
walk's own marks, with no list of the primes up to N.

The block strategy: omega and the smooth part start from the 30030-periodic
pattern of the primes <= 13, struck on the block's first period and copied
over the rest; every other base prime p <= sqrt(hi) adds 1
to omega at its multiples, and every base prime power p^k <= hi, k >= 2,
clears squarefree at its multiples; each multiplies p into the smooth part
there.  The smooth part is then n less any single prime above sqrt(hi),
which omega counts where smooth < n.  A p or p^k at least as wide as the
block has at most one multiple in it, and all of those are struck in one
vectorized step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SieveBaseError

PRIME_CACHE_MAGIC = b"RMFPRIM1"

#: Segment width of sieve_walk and of primes_up_to's flags; working memory
#: is O(sqrt(N) + block).  A block's cost is mostly per-prime numpy calls,
#: so wider blocks walk faster: the blocks of [1, 10^7] took 0.17 s at 2^16
#: and 0.09 s at 2^18 (2-core Xeon, numpy 2.4).
DEFAULT_BLOCK = 1 << 18

#: Rows of each piece of sieve_walk, and so most rows of terms formed at a
#: time: the f of a trial batch in series.walk_blocks, and one exact sum of
#: explicit's weighted sums.  It divides DEFAULT_BLOCK, so the pieces, their
#: accum.CHUNK boundaries and sums do not depend on the sieve's width.
TERM_ROWS = 1 << 16

#: Most integers one sieve may cover (a few minutes for a block walk, 400 MB
#: of int64 primes for primes_up_to); like the oracle's 2^24 assignment
#: budget, larger inputs are refused.
SIEVE_TERM_LIMIT = 10**9

#: The wheel's primes: a block with hi >= 13^2 strikes them on its first
#: _WHEEL_PERIOD rows and copies that pattern over the rest, so the pattern
#: is built where it is used and no array outlives the block.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL_PRIMES)

#: base primes whose powers one sieve_block_tables step handles (512 KB of
#: int64 per array), so a far window's base of 10^8 is walked in slices
_PRIME_CHUNK = 1 << 16

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


def prime_count_bound(n: int) -> int:
    """ceil(1.25506 n / log n) > pi(n) for n > 1 (Rosser, Schoenfeld 1962); 0 below."""
    if not 0 <= n <= SIEVE_TERM_LIMIT:
        raise DomainError(f"{n} is outside the sieve term budget [0, {SIEVE_TERM_LIMIT}]")
    return math.ceil(1.25506 * n / math.log(n)) if n > 1 else 0


def primes_up_to(n: int) -> PrimeList:
    """All primes <= n, ascending, by a segmented sieve of the odd integers.

    Each segment flags DEFAULT_BLOCK odd integers against the odd primes
    <= sqrt(n), so the flags stay one block.  The list is written into one
    int64 array of prime_count_bound(n) and returned as a view of its head.
    """
    out = np.empty(prime_count_bound(n), dtype=np.int64)
    if n < 2:
        return PrimeList(n, out)
    out[0], count = 2, 1
    odd = primes_up_to(math.isqrt(n)).primes[1:]
    stop = (n + 1) // 2  # flag i stands for the odd integer 2 i + 1 <= n
    flags = np.empty(min(stop, DEFAULT_BLOCK), dtype=bool)
    for a in range(0, stop, DEFAULT_BLOCK):
        b = min(a + DEFAULT_BLOCK, stop)
        seg = flags[: b - a]
        seg[:] = True
        if a == 0:
            seg[0] = False  # 1
        top = int(np.searchsorted(odd, math.isqrt(2 * b - 1), side="right"))
        ps = odd[:top]
        # the first odd multiple of p past both p^2 and 2 a + 1
        starts = np.maximum((ps * ps) // 2, a + ((ps - 1) // 2 - a) % ps) - a
        for p, start in zip(ps.tolist(), starts.tolist()):
            seg[start::p] = False
        found = np.flatnonzero(seg)
        out[count : count + found.size] = 2 * (found + a) + 1
        count += found.size
    return PrimeList(n, out[:count])


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

    squarefree[i] is mu^2(n) == 1 and omega[i] is omega(n).  base is the
    primes <= sqrt(hi) that the rows' block was sieved with, and smooth[i]
    the part of n made of them, so the cofactor n // smooth is either 1 or
    a single prime, and smooth[i] < n exactly where the cofactor is a
    prime.  The cofactor is derived, not stored.
    """

    lo: int
    hi: int
    omega: np.ndarray  # int8: n < 10^18 has at most 15 distinct primes
    squarefree: np.ndarray  # bool
    smooth: np.ndarray  # int32 where the block's hi < 2^31, int64 above
    base: np.ndarray  # int64, ascending

    @property
    def cofactor(self) -> np.ndarray:
        """n // smooth for every row, formed anew, in smooth's dtype."""
        return np.arange(self.lo, self.hi + 1, dtype=self.smooth.dtype) // self.smooth

    def rows(self, lo: int, hi: int) -> "BlockTables":
        """The tables of [lo, hi] within [self.lo, self.hi], as views, same base."""
        if not self.lo <= lo <= hi <= self.hi:
            raise DomainError(f"[{lo}, {hi}] is not within [{self.lo}, {self.hi}]")
        s = slice(lo - self.lo, hi - self.lo + 1)
        return BlockTables(
            lo, hi, self.omega[s], self.squarefree[s], self.smooth[s], self.base
        )


def _check_base(hi: int, base: PrimeList) -> np.ndarray:
    root = math.isqrt(hi)
    if base.limit < root:
        raise SieveBaseError(
            f"prime base covers only <= {base.limit}, need <= {root} for hi={hi}"
        )
    cut = int(np.searchsorted(base.primes, root, side="right"))
    return base.primes[:cut]


def _strike(lo: int, ps, qs, smooth, omega=None, squarefree=None) -> None:
    """Multiply ps[i] into smooth at every multiple of qs[i] in the block.

    There, omega gains 1 if given, else squarefree is cleared.  A q below
    the block's width is struck by one strided slice each; a wider q has
    at most one multiple in the block, and all of those are struck at once.
    """
    size = smooth.size
    near = qs < size
    for p, q in zip(ps[near].tolist(), qs[near].tolist()):
        sl = slice(-lo % q, size, q)
        if omega is None:
            squarefree[sl] = False
        else:
            omega[sl] += 1
        smooth[sl] *= p
    far = np.flatnonzero(~near)
    at = -lo % qs[far]
    hit = at < size
    at = at[hit]
    if omega is None:
        squarefree[at] = False
    else:
        np.add.at(omega, at, 1)
    np.multiply.at(smooth, at, ps[far[hit]].astype(smooth.dtype))


def sieve_block_tables(lo: int, hi: int, base: PrimeList) -> BlockTables:
    """Sieve [lo, hi] against the base primes; pure in (lo, hi, base)."""
    if not 1 <= lo <= hi:
        raise DomainError(f"invalid block [{lo}, {hi}]")
    size = hi - lo + 1
    omega = np.zeros(size, dtype=np.int8)
    squarefree = np.ones(size, dtype=bool)
    smooth = np.ones(size, dtype=np.int32 if hi < 2**31 else np.int64)
    primes = _check_base(hi, base)
    wheel = 0
    if primes.size >= len(_WHEEL_PRIMES):  # hi >= 169: every wheel prime is a base prime
        wheel = len(_WHEEL_PRIMES)
        filled = min(size, _WHEEL_PERIOD)
        for p in _WHEEL_PRIMES:  # the block's first period is the pattern
            sl = slice(-lo % p, filled, p)
            omega[sl] += 1
            smooth[sl] *= p
        while filled < size:  # copied forward, doubling, so filled stays a period multiple
            n = min(filled, size - filled)
            omega[filled : filled + n] = omega[:n]
            smooth[filled : filled + n] = smooth[:n]
            filled += n
    for a in range(0, primes.size, _PRIME_CHUNK):
        ps = primes[a : a + _PRIME_CHUNK]
        first = ps[wheel if a == 0 else 0 :]
        _strike(lo, first, first, smooth, omega=omega)
        levels_p, levels_q = [], []
        qs = ps * ps  # <= hi, as p <= sqrt(hi)
        while ps.size:
            levels_p.append(ps)
            levels_q.append(qs)
            keep = qs <= hi // ps
            ps = ps[keep]
            qs = qs[keep] * ps
        _strike(
            lo, np.concatenate(levels_p), np.concatenate(levels_q), smooth,
            squarefree=squarefree,
        )
    # the cofactor prime's bit, compared a TERM_ROWS piece at a time
    for a in range(0, size, TERM_ROWS):
        b = min(a + TERM_ROWS, size)
        omega[a:b] += smooth[a:b] < np.arange(lo + a, lo + b, dtype=smooth.dtype)
    return BlockTables(lo, hi, omega, squarefree, smooth, primes)


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
    piece k starts at lo_n + k TERM_ROWS and keeps its block's base.  The
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
    marked before it is ranked; it is formed, as n // smooth, only on the
    rows where smooth < n.
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
        n = np.arange(t.lo, t.hi + 1, dtype=t.smooth.dtype)
        big = np.flatnonzero(t.smooth < n)
        at = n[big] // t.smooth[big] - 1  # the cofactor prime's bit
        low = np.uint64(1) << (at & 63).astype(np.uint64)
        low -= np.uint64(1)
        at >>= 6
        low &= words[at]  # the marks below the prime in its word
        ranks = np.full(t.smooth.size, -1, dtype=np.int32)
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
