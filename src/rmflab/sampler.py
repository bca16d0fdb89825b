"""Seed-reproducible Rademacher sign assignments and f-evaluation.

A Rademacher random multiplicative function takes independent fair +-1
values at primes; on squarefree n it is the product of the prime signs
and it vanishes on non-squarefree n.  The completely multiplicative
variant extends by full multiplicativity instead (no squarefree cutoff),
so only exponent parities matter.

Sign derivation is counter-based and splittable.  With mix64 denoting the
SplitMix64 finalizer (Steele-Lea-Flood mixing constants), trial t under
master seed s draws the 64-bit words

    word(w) = mix64(mix64(mix64(s) ^ t) ^ w),   w = 0, 1, 2, ...

and the prime of rank r (0-based, ranks ascending with the primes) gets

    sign = +1 if bit (r mod 64) of word(r >> 6) is 0 else -1

with bits counted from the least significant end.  This construction is
part of the package contract: it is fixed and will not change between
versions, so archived seeds replay bitwise.  Any (trial, rank) cell is
computable independently, which makes trials embarrassingly parallel with
deterministic merges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SieveBaseError, SignRangeError
from .sieve import (
    ArithSignature,
    BlockTables,
    PrimeList,
    _check_base,
    primes_up_to,
    sieve_block_tables,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word (scalar reference path)."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array; wraps identically to scalars."""
    z = (z + np.uint64(_GAMMA)) & np.uint64(_MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def trial_key(master_seed: int, trial_index: int) -> int:
    """Per-trial key: mix64(mix64(seed) ^ trial)."""
    if trial_index < 0:
        raise DomainError(f"trial_index must be >= 0, got {trial_index}")
    return mix64(mix64(master_seed & _MASK64) ^ (trial_index & _MASK64))


def _words_to_bits(words: np.ndarray, n_ranks: int) -> np.ndarray:
    """Explode uint64 words into sign bits, least-significant bit first."""
    flat = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(flat, bitorder="little")
    if words.ndim == 1:
        return bits[:n_ranks]
    return bits.reshape(words.shape[0], -1)[:, :n_ranks]


def trial_neg_bits(master_seed: int, trial_index: int, n_ranks: int) -> np.ndarray:
    """Bit r is 1 when the prime of rank r gets sign -1 (uint8 vector)."""
    key = np.uint64(trial_key(master_seed, trial_index))
    words = mix64_array(key ^ np.arange((n_ranks + 63) // 64, dtype=np.uint64))
    return _words_to_bits(words, n_ranks)


def batch_neg_bits(
    master_seed: int, trial_indices: np.ndarray, n_ranks: int
) -> np.ndarray:
    """Negative-sign bits for many trials at once, shape (trials, ranks)."""
    seed_mix = mix64(master_seed & _MASK64)
    keys = mix64_array(
        np.uint64(seed_mix) ^ np.asarray(trial_indices, dtype=np.uint64)
    )
    counters = np.arange((n_ranks + 63) // 64, dtype=np.uint64)
    words = mix64_array(keys[:, None] ^ counters[None, :])
    return _words_to_bits(words, n_ranks)


class Mode(enum.Enum):
    SQUAREFREE_MULT = "squarefree"
    COMPLETELY_MULT = "completely"


@dataclass(frozen=True)
class SignAssignment:
    """Signs of all primes <= limit for one (master_seed, trial_index).

    Signs are stored bit-packed over prime ranks (bit set means -1), so a
    trial at limit 10^8 costs ~0.72 MB and thousands of concurrent trials
    are cheap.  Immutable and safe to share across threads.
    """

    master_seed: int
    trial_index: int
    limit: int
    mode: Mode
    primes: PrimeList
    packed_neg_bits: np.ndarray  # uint8, np.packbits layout

    @property
    def key(self) -> tuple[int, int, int, str]:
        return (self.master_seed, self.trial_index, self.limit, self.mode.value)

    def neg_bits(self) -> np.ndarray:
        """Unpacked 0/1 vector over prime ranks."""
        return np.unpackbits(self.packed_neg_bits, count=len(self.primes))

    def signs(self) -> np.ndarray:
        """Vector of +-1 (int8) over prime ranks."""
        return (1 - 2 * self.neg_bits().astype(np.int8)).astype(np.int8)

    def sign_of(self, p: int) -> int:
        """Sign of a single prime p <= limit."""
        r = self.primes.rank_of(p)
        byte, bit = divmod(r, 8)
        neg = (int(self.packed_neg_bits[byte]) >> (7 - bit)) & 1
        return -1 if neg else 1


def sample_signs(
    master_seed: int,
    trial_index: int,
    n: int,
    mode: Mode = Mode.SQUAREFREE_MULT,
) -> SignAssignment:
    """Deterministic sign assignment for all primes <= n."""
    primes = primes_up_to(n)
    bits = trial_neg_bits(master_seed, trial_index, len(primes))
    return SignAssignment(
        master_seed & _MASK64,
        trial_index,
        n,
        mode,
        primes,
        np.packbits(bits),
    )


def f_value(a: SignAssignment, n: int, sig: ArithSignature) -> int:
    """f(n) in {-1, 0, +1} from a trial-division signature of n."""
    if n < 1 or sig.n != n:
        raise DomainError(f"signature/argument mismatch for n={n}")
    if sig.distinct_primes and sig.distinct_primes[-1] > a.limit:
        raise SignRangeError(
            f"prime {sig.distinct_primes[-1]} of n={n} exceeds limit {a.limit}"
        )
    if a.mode is Mode.SQUAREFREE_MULT:
        if not sig.is_squarefree:
            return 0
        value = 1
        for p in sig.distinct_primes:
            value *= a.sign_of(p)
        return value
    value = 1
    for p in sig.distinct_primes:
        m, v = n, 0
        while m % p == 0:
            m //= p
            v += 1
        if v & 1:
            value *= a.sign_of(p)
    return value


def batch_f(
    bits: np.ndarray, tables: BlockTables, base: PrimeList, mode: Mode
) -> np.ndarray:
    """f(n) for every n in [tables.lo, tables.hi] under each row of sign bits.

    bits is (trials, len(base)) as from batch_neg_bits, and base must hold
    every prime <= tables.hi.  Returns int8 of shape (trials, n), trial-major.
    The parity of the negative primes dividing n follows the sieve: one
    gather picks up the single cofactor prime above sqrt(hi), then each base
    prime p <= sqrt(hi) XORs its bit column into the slice of its multiples,
    at every power level p, p^2, ... in completely multiplicative mode (which
    leaves v_p(n) mod 2).  Non-squarefree n are zeroed in squarefree mode.
    """
    if base.limit < tables.hi:
        raise SieveBaseError(
            f"f up to {tables.hi} needs all primes <= {tables.hi}, "
            f"base covers {base.limit}"
        )
    big = tables.cofactor > 1
    ranks = np.full(big.size, len(base))  # the all-zero column appended below
    ranks[big] = np.searchsorted(base.primes, tables.cofactor[big])
    parity = np.pad(bits, ((0, 0), (0, 1)))[:, ranks]
    for r, p in enumerate(_check_base(tables.hi, base).tolist()):
        column = bits[:, r, None]
        q = p
        while q <= tables.hi:
            # (-lo) % q is the offset of the block's first multiple of q
            parity[:, (-tables.lo) % q :: q] ^= column
            if mode is Mode.SQUAREFREE_MULT:
                break
            q *= p
    f = parity.view(np.int8)
    f *= -2  # in place: parity 0, 1 -> f = 1, -1
    f += 1
    if mode is Mode.SQUAREFREE_MULT:
        f *= tables.squarefree
    return f


def stream_f(a: SignAssignment, lo: int, hi: int) -> np.ndarray:
    """f(n) for every n in [lo, hi] as an int8 vector.

    Every prime factor occurring in the block must be <= a.limit; the
    whole-range use case is lo=1, hi=a.limit.
    """
    if not 1 <= lo <= hi:
        raise DomainError(f"invalid range [{lo}, {hi}]")
    if hi > a.limit:
        raise SignRangeError(
            f"range up to {hi} needs prime signs beyond limit {a.limit}"
        )
    tables = sieve_block_tables(lo, hi, a.primes)
    return batch_f(a.neg_bits()[None, :], tables, a.primes, a.mode)[0]
