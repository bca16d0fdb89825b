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

with bits counted from the least significant end, for trials t in
[0, 2^64).  This construction is part of the package contract: it is
fixed and will not change between versions, so archived seeds replay
bitwise.  Any (trial, rank) cell is computable independently, which makes
trials embarrassingly parallel with deterministic merges.  batch_neg_bits
alone computes the words, and returns their bytes little-endian: bit r mod
8 of byte r >> 3 of a trial's row is rank r on any host.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SignRangeError
from .sieve import ArithSignature, BlockTables, PrimeList, prime_count_bound, primes_up_to

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


def batch_neg_bits(master_seed: int, trial_indices, n_ranks: int) -> np.ndarray:
    """Packed negative-sign bits of many trials, shape (trials, ceil(n_ranks / 8)).

    Row i holds word(0), word(1), ... of trial trial_indices[i] as uint8,
    little-endian, so rank r is bit r mod 8 of byte r >> 3, set when the
    prime of rank r gets sign -1; bits past the last rank are arbitrary.
    """
    seed_mix = np.uint64(mix64(master_seed & _MASK64))
    keys = mix64_array(seed_mix ^ np.asarray(trial_indices, dtype=np.uint64))
    counters = np.arange((n_ranks + 63) // 64, dtype=np.uint64)
    words = mix64_array(keys[:, None] ^ counters[None, :]).astype("<u8", copy=False)
    return words.view(np.uint8)[:, : (n_ranks + 7) // 8]


class Mode(enum.Enum):
    SQUAREFREE_MULT = "squarefree"
    COMPLETELY_MULT = "completely"


@dataclass(frozen=True)
class SignAssignment:
    """Signs of all primes <= limit for one (master_seed, trial_index).

    neg_bits is the trial's row of batch_neg_bits for at least pi(limit)
    ranks, bit r mod 8 of byte r >> 3 set where the prime of rank r gets
    sign -1.  primes is sieved when first read.  Safe to share across threads.
    """

    master_seed: int
    trial_index: int
    limit: int
    mode: Mode
    neg_bits: np.ndarray

    @cached_property
    def primes(self) -> PrimeList:
        return primes_up_to(self.limit)

    @property
    def key(self) -> tuple[int, int, int, str]:
        return (self.master_seed, self.trial_index, self.limit, self.mode.value)

    def signs(self) -> np.ndarray:
        """Vector of +-1 (int8) over prime ranks."""
        bits = np.unpackbits(self.neg_bits, count=len(self.primes), bitorder="little")
        return 1 - 2 * bits.view(np.int8)

    def sign_of(self, p: int) -> int:
        """Sign of a single prime p <= limit."""
        r = self.primes.rank_of(p)
        return -1 if self.neg_bits[r >> 3] >> (r & 7) & 1 else 1


def sample_signs(
    master_seed: int,
    trial_index: int,
    n: int,
    mode: Mode = Mode.SQUAREFREE_MULT,
) -> SignAssignment:
    """Deterministic signs for all primes <= n: a row of prime_count_bound(n) ranks."""
    if trial_index < 0:
        raise DomainError(f"trial_index must be >= 0, got {trial_index}")
    if trial_index > _MASK64:
        raise DomainError(f"trial_index must be < 2^64, got {trial_index}")
    bits = batch_neg_bits(master_seed, [trial_index], prime_count_bound(n))[0]
    return SignAssignment(master_seed & _MASK64, trial_index, n, mode, bits)


def f_value(a: SignAssignment, n: int, sig: ArithSignature) -> int:
    """f(n) in {-1, 0, +1} from a trial-division signature of n."""
    if n < 1 or sig.n != n:
        raise DomainError(f"signature/argument mismatch for n={n}")
    if sig.distinct_primes and sig.distinct_primes[-1] > a.limit:
        raise SignRangeError(
            f"prime {sig.distinct_primes[-1]} of n={n} exceeds limit {a.limit}"
        )
    if a.mode is Mode.SQUAREFREE_MULT and not sig.is_squarefree:
        return 0
    value = 1
    for p in sig.distinct_primes:  # squarefree n: each exponent is 1
        m, v = n, 0
        while m % p == 0:
            m //= p
            v += 1
        if v & 1:
            value *= a.sign_of(p)
    return value


#: Masks of the three delta swaps that transpose the 8 x 8 bit matrix held
#: in a uint64, bit 8 i + j to bit 8 j + i (Warren, Hacker's Delight, 7-3).
_TRANSPOSE8 = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0))
)


def sign_table(packed: np.ndarray, used: int) -> np.ndarray:
    """Sign bits of ranks 0..used-1 turned rank-major, eight trials to a byte.

    packed is (trials, k) uint8, bit r mod 8 of byte r >> 3 of row t being
    rank r of trial t, as from batch_neg_bits, with 8 k >= used.  Returns
    (used + 1, ceil(trials / 8)): bit i of byte j of row r is rank r of
    trial 8 j + i, and the last row, rank -1, is all zero for a cofactor of
    1.  The bytes of eight trials at one byte offset form one uint64, an
    8 x 8 bit matrix that three delta swaps transpose in place, so no array
    larger than packed is formed.
    """
    trials = packed.shape[0]
    k, groups = (used + 7) // 8, -(-trials // 8)
    # word (g, j): byte j of trials 8g..8g+7, trial 8g+i in byte i
    words = np.empty((groups, k, 8), dtype=np.uint8)
    by_trial = words.transpose(0, 2, 1)
    full = trials // 8
    by_trial[:full] = packed[: 8 * full, :k].reshape(full, 8, k)
    if full < groups:  # the last group's missing trials read as zero bits
        by_trial[full] = 0
        by_trial[full, : trials - 8 * full] = packed[8 * full :, :k]
    words = words.view("<u8")[..., 0]
    for shift, mask in _TRANSPOSE8:
        t = words >> shift
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t
    table = np.empty((used + 1, groups), dtype=np.uint8)
    # byte i of word (g, j) now holds rank 8j + i of trials 8g..8g+7
    table[:used] = words.view(np.uint8).reshape(groups, 8 * k).T[:used]
    table[used] = 0
    return table


def table_f(table, tables: BlockTables, ranks, mode: Mode, trials):
    """f of the first trials columns of a sign_table on the rows of tables.

    The one kernel that builds f, called by series.walk_blocks per trial
    batch.  ranks are the rows' sieve.ranked_walk ranks, and table must hold
    the ranks of the primes <= tables.hi; rows of larger ranks are never
    read.  The parity of the negative primes dividing n follows the sieve:
    one gather of table rows picks up the single cofactor prime, then each
    prime p of tables.base, its block's base, XORs its row into the rows of
    its multiples, at every power level p, p^2, ... in completely
    multiplicative mode (which leaves v_p(n) mod 2).  One unpack turns the
    parities into signs, and non-squarefree n are zeroed in squarefree mode.
    """
    parity = table[ranks]
    # the base primes are not in the cofactors; those past hi have no
    # multiple in the rows, and no row in the table
    for r, p in enumerate(tables.base.tolist()):
        q = p
        while q <= tables.hi:
            # (-lo) % q is the offset of the rows' first multiple of q
            parity[(-tables.lo) % q :: q] ^= table[r]
            if mode is Mode.SQUAREFREE_MULT:
                break
            q *= p
    f = np.unpackbits(parity.ravel(), bitorder="little").view(np.int8)
    f = f.reshape(parity.shape[0], -1)
    np.negative(f, out=f)  # parity 0, 1 -> 0, -1
    f |= 1  # -> 1, -1
    if mode is Mode.SQUAREFREE_MULT:
        f &= -tables.squarefree.view(np.int8)[:, None]  # 0 or all ones
    return f[:, :trials]
