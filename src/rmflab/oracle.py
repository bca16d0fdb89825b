"""Exact enumeration over small prime universes and seed-parallel Monte Carlo.

The exact oracles enumerate all 2^pi(N) equiprobable sign assignments on
the primes <= N, and share the sign kernel of Monte Carlo: assignment i
gives the prime of rank r the sign bit r of i, and series.walk_blocks
builds its f with sampler.table_f.  exact_probability decides each
assignment outside the certified band on the float scan of mc_positivity
and certifies every in-band one exactly on integer-bracketed weights;
exact_moment sums each assignment exactly over one common denominator.
Ground truths like 7/8 come out as actual fractions.

Monte Carlo estimators share the sign construction of the sampler module,
and one walk, series.walk_blocks, feeds every scan over n: it hands each
trial batch its f on every sub-piece of the sieve.TERM_ROWS-row pieces of
sieve.ranked_walk, which ranks their cofactor primes from its own sieve,
one row per integer and one column per trial, in a cell budget and 3 n_max
/ 16 bytes of prime marks.  Estimators reduce down those rows and carry
per-trial state (running sum, minimum, last sign and flip count, linear
sum) between sub-pieces; batches and sub-pieces depend on that budget and
n_max alone, so the estimate for a given (seed, trials) is identical for
any thread count.  Two reducers build every interval: _proportion gives
Wilson score intervals, which behave at estimates near 0 and 1 where the
interesting events live, and _mean a normal interval clamped at 0.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from statistics import NormalDist

import mpmath as mp
import numpy as np

from .accum import (
    exact_sum,
    power_weights,
    series_error_ceiling,
    signed_sum_error_bound,
    tile_rows,
)
from .bounds import EXACT_BITS_LIMIT, check_bits, exact_ints, index_span
from .errors import CertificationError, DomainError, EnumerationLimitError
from .sampler import Mode, batch_neg_bits
from .series import (
    Trajectory,
    band_outcomes,
    check_sigma,
    scanner,
    trial_batches,
    walk_blocks,
)
from .sieve import primes_up_to

ENUMERATION_BIT_LIMIT = 24

#: The first n with pi(n) > ENUMERATION_BIT_LIMIT: no enumeration sieves past it
_ENUMERATION_SIEVE_LIMIT = 97

#: Most coefficients of a power_coeffs map, a time budget: each a(n) is formed
#: as it is read, so memory stays flat, but at 10^7 `mc moment --trials 10`
#: took 10 s and `bounds bh-rhs` 25 to 35 s, so larger maps are refused.
COEFFICIENT_LIMIT = 10**7

#: Largest P of mc_prime_tail, a memory budget: its _byte_sums table holds
#: 256 float64 per 8 primes, and `--trials 256` peaked at 2.3 GB at 10^8.
PRIME_TAIL_LIMIT = 10**8

#: Most trials of a Monte Carlo run, a memory budget: mc_moment's sums and
#: _mean's two buffers hold 24 bytes a trial, 2.4 GB at 10^8.
TRIAL_LIMIT = 10**8

_INTERVAL_SHIFT = 128


@dataclass(frozen=True)
class ExactResult:
    """Exact probability over the finite assignment universe."""

    value: Fraction
    universe_bits: int


@dataclass(frozen=True)
class CertifiedValue:
    """Float result carrying a rigorous absolute error bound."""

    value: float
    error_bound: float


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo estimate with confidence interval and provenance."""

    estimate: float
    trials: int
    ci_low: float
    ci_high: float
    master_seed: int
    level: float = 0.99
    n_indeterminate: int = 0
    heavy_tail: bool = False


def _z(level: float) -> float:
    """Two-sided normal quantile of a confidence level in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def wilson_interval(
    successes: int, trials: int, level: float = 0.99
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError("Wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise DomainError("successes must lie in [0, trials]")
    z = _z(level)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)
    )
    # the interval contains phat analytically; clamp away rounding noise
    return max(0.0, min(center - margin, phat)), min(1.0, max(center + margin, phat))


# ---------------------------------------------------------------------------
# exact enumeration machinery


def enumeration_base(n_max: int):
    """The primes <= n_max, refused past the enumeration budget before a full sieve."""
    base = primes_up_to(min(n_max, _ENUMERATION_SIEVE_LIMIT))
    if len(base) > ENUMERATION_BIT_LIMIT:
        raise EnumerationLimitError(
            f"pi({n_max}) > {ENUMERATION_BIT_LIMIT} exceeds the "
            f"2^{ENUMERATION_BIT_LIMIT} assignment enumeration budget"
        )
    return base


def _index_bits(idx: np.ndarray, ranks: int) -> np.ndarray:
    """Sign bits of assignments idx, packed as batch_neg_bits.

    Bit r of i set gives the prime of rank r sign -1, so the bytes are those
    of i, little-endian; ranks <= ENUMERATION_BIT_LIMIT fit in three.
    """
    raw = np.asarray(idx).astype("<u4").view(np.uint8).reshape(-1, 4)
    return raw[:, : (ranks + 7) // 8]


def _scaled_weights(n_max: int, sigma: float):
    """Integer brackets lo <= W n^-sigma <= hi for n = 1..n_max, one scale W.

    For an integer sigma, W = lcm(1..n_max)^max(sigma, 0) and lo == hi
    exactly; otherwise W = 2^_INTERVAL_SHIFT and each pair is a certified
    bracket, widened by mid >> (_INTERVAL_SHIFT + 56) to cover the rounding
    of weights too large for the working precision to hold their units.
    """
    if float(sigma).is_integer():
        e = int(sigma)
        check_bits(n_max, abs(e), str(n_max))  # W or a weight is n_max^|e| at least
        weights = ((n, Fraction(n) ** -e) for n in range(1, n_max + 1))
        return [(w, w) for w in exact_ints(weights, 1)[1]]
    brackets = []
    with mp.workprec(_INTERVAL_SHIFT + 64):
        for n in range(1, n_max + 1):
            mid = int(mp.floor(mp.ldexp(mp.power(n, -sigma), _INTERVAL_SHIFT)))
            slack = mid >> (_INTERVAL_SHIFT + 56)
            brackets.append((mid - 1 - slack, mid + 2 + slack))
    return brackets


def _certified_positive(f, brackets, x: int, assignment: int) -> bool:
    """Is sum_{n<=y} f[n-1] W n^-sigma > 0 for every y in (x, len(f)]?

    Decided on the integer brackets of _scaled_weights; raises
    CertificationError when no sum is surely <= 0 but some is not surely > 0.
    """
    terms = [(lo, hi) if v > 0 else (-hi, -lo) if v else (0, 0)
             for v, (lo, hi) in zip(f, brackets)]
    s_lo, s_hi = (list(accumulate(side))[x:] for side in zip(*terms))
    if min(s_hi) <= 0:
        return False
    if min(s_lo) <= 0:
        raise CertificationError(
            f"sign of a partial sum not certifiable at shift "
            f"{_INTERVAL_SHIFT} (assignment {assignment})"
        )
    return True


def _outcomes(bits, n_max, mode, sigma, x, trials, threads=1):
    """Per trial 1 passed, 0 failed or 2 undecided: S_sigma(y) > 0 on (x, n_max]?

    The trials are those of walk_blocks.  One is decided only when its
    lowest sum past x lies outside the band, so a NaN or inf minimum or
    band leaves it undecided.  A trial whose minimum is already below
    -series_error_ceiling, which no band of the walk exceeds, has failed
    whatever its later sums, and walk_blocks retires it.
    """
    lowest = np.full(trials, np.inf)
    cut = series_error_ceiling(sigma, n_max)

    def scan_min(rows, y, sums):
        skip = max(0, x + 1 - y)  # row j holds S_sigma(y + j)
        if skip < sums.shape[0]:
            lowest[rows] = np.minimum(lowest[rows], sums[skip:].min(axis=0))

    def failed(rows):
        return _failed(lowest[rows], cut)

    scan = scanner(trials, scan_min)
    band = walk_blocks(bits, n_max, mode, sigma, scan, trials, threads, retired=failed)
    return band_outcomes(lowest, band)


def _failed(lowest, cut: float) -> np.ndarray:
    """Which finite minima lie below -cut: a NaN or inf one never does."""
    return np.isfinite(lowest) & (lowest < -cut)


def exact_probability(
    n_max: int,
    sigma: float,
    x: int,
    mode: Mode = Mode.SQUAREFREE_MULT,
) -> ExactResult:
    """Exact P(S_sigma(y) > 0 for all integer y in (x, n_max]).

    Every assignment runs through the float scan of mc_positivity.  The
    ones it leaves undecided, overflowing weights included, are decided on
    the scaled integer weights of `_scaled_weights`: exactly for an integer
    sigma; otherwise one whose sign cannot be certified raises rather than
    being classified.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if not 0 <= x < n_max:
        raise DomainError(f"x must lie in [0, n_max), got x={x}, n_max={n_max}")
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma}")
    base = enumeration_base(n_max)
    trials = 1 << len(base)
    with np.errstate(over="ignore", invalid="ignore"):  # inf weights: undecided
        outcomes = _outcomes(_index_bits, n_max, mode, sigma, x, trials)
    positives = int(np.count_nonzero(outcomes == 1))
    undecided = np.flatnonzero(outcomes == 2)
    if undecided.size:
        f = np.empty((n_max, undecided.size), dtype=np.int8)

        def keep(rows, lo, piece, _):
            f[lo - 1 : lo - 1 + piece.shape[0], rows] = piece

        def bits(i, ranks):
            return _index_bits(undecided[i], ranks)

        walk_blocks(bits, n_max, mode, None, keep, undecided.size)
        brackets = _scaled_weights(n_max, sigma)
        for row, i in zip(f.T.tolist(), undecided.tolist()):
            positives += _certified_positive(row, brackets, x, i)
    return ExactResult(Fraction(positives, trials), len(base))


def exact_moment(
    n_max: int,
    coeffs: Mapping[int, object],
    m: float,
    absolute: bool = False,
    mode: Mode = Mode.SQUAREFREE_MULT,
):
    """E (sum a(n) f(n))^m by full enumeration; exact for integer m.

    The coefficients are put over one denominator D by bounds.exact_ints,
    so each assignment's sum is an exact integer S, formed batch by batch
    on the f of walk_blocks, and an integer order m gives the Fraction
    sum(S^m) / (D^m 2^pi(n_max)).  For even m the signed and absolute
    moments coincide.  Non-integer m >= 2 routes through high-precision
    evaluation of |S/D|^m with a certified error, returned as a
    CertifiedValue.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if not math.isfinite(m):
        raise DomainError(f"moment order must be finite, got {m}")
    integer_order = float(m).is_integer()
    if integer_order and m < 0:
        raise DomainError(f"moment order must be >= 0, got {m}")
    if not integer_order and m < 2:
        raise DomainError(f"non-integer moment order must be >= 2, got {m}")
    base = enumeration_base(n_max)  # before any work on the coefficients
    for n in coeffs:
        if not 1 <= n <= n_max:
            raise DomainError(f"coefficient index {n} outside [1, {n_max}]")
    pairs = ((n, coeffs.get(n, 0)) for n in range(1, n_max + 1))
    denom, ints = exact_ints(pairs, int(m))  # within the bit budget of |S|^m
    scaled = np.array(ints, dtype=object)  # D a(n) at index n - 1, as Python ints
    total = 0 if integer_order else mp.mpf(0)

    def add(rows, lo, f, _):
        nonlocal total
        for s in (scaled[lo - 1 : lo - 1 + f.shape[0]] @ f.astype(object)).tolist():
            if integer_order:
                total += (abs(s) if absolute else s) ** int(m)
            else:
                # reduce S/D as a Fraction would, so the numerator rounds alike
                g = math.gcd(s, denom)
                total += mp.power(mp.mpf(abs(s) // g) / (denom // g), m)

    with mp.workprec(96):
        walk_blocks(_index_bits, n_max, mode, None, add, 1 << len(base))
        if integer_order:
            return Fraction(total, denom ** int(m) << len(base))
        value = float(total / (1 << len(base)))
    if not math.isfinite(value):
        raise DomainError("the moment is too large for float64")
    # ~96-bit arithmetic over 2^pi(n_max) terms; crude but rigorous slack
    return CertifiedValue(value, value * ((1 << len(base)) + 4) * 2.0**-90)


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def _proportion(
    successes: int, trials: int, master_seed: int, level: float, indeterminate: int = 0
) -> EstimateWithCI:
    """successes / trials with a Wilson interval.

    Indeterminate trials count as failures in the estimate and the lower
    limit; the upper limit is widened as if they had all passed.
    """
    lo, _ = wilson_interval(successes, trials, level)
    _, hi = wilson_interval(successes + indeterminate, trials, level)
    return EstimateWithCI(
        successes / trials, trials, lo, hi, master_seed, level, indeterminate
    )


def _mean(
    values: np.ndarray, master_seed: int, level: float, flag_kurtosis: bool = False
) -> EstimateWithCI:
    """Sample mean of per-trial values with a normal-approximation interval.

    The values are nonnegative, so the lower limit is clamped at 0.  With
    flag_kurtosis, an extreme sample excess kurtosis (> 50), which
    makes the normal interval optimistic, sets heavy_tail.
    """
    trials = values.size
    mean = exact_sum(values) / trials
    half = 0.0
    heavy = False
    if trials > 1:
        centered = values - mean
        powers = np.square(centered)  # the ufuncs of ** 2 and ** 4, one buffer
        var = exact_sum(powers) / (trials - 1)
        half = _z(level) * math.sqrt(var / trials)
        if flag_kurtosis and var > 0:
            m4 = exact_sum(np.power(centered, 4, out=powers)) / trials
            kurtosis_excess = m4 / var / var - 3.0  # var * var may underflow to 0
            heavy = not math.isfinite(kurtosis_excess) or kurtosis_excess > 50.0
    if not math.isfinite(mean + half):
        raise DomainError("the sample mean or its interval overflows float64")
    low = max(0.0, mean - half)
    return EstimateWithCI(
        mean, trials, low, mean + half, master_seed, level, heavy_tail=heavy
    )


def _check_run(trials: int, level: float, least: int = 1) -> None:
    """Reject a run too short or too long, or a level outside (0, 1), up front."""
    if not least <= trials <= TRIAL_LIMIT:
        raise DomainError(
            f"trials must lie in [{least}, {TRIAL_LIMIT}], the trial budget: {trials}"
        )
    _z(level)


def mc_positivity(
    sigma: float,
    x: int,
    n_max: int,
    trials: int,
    master_seed: int,
    mode: Mode = Mode.SQUAREFREE_MULT,
    level: float = 0.99,
    threads: int = 1,
    trial_dump=None,
) -> EstimateWithCI:
    """Fraction of trials with S_sigma(y) > 0 for all y in (x, n_max].

    Trials whose minimum falls inside the certified rounding band are
    INDETERMINATE: they are excluded from the numerator, reported, and the
    upper confidence limit is widened as if they had all passed.  Pass a
    writable text file as trial_dump for per-trial `trial,passed,
    indeterminate` CSV rows.
    """
    _check_run(trials, level)
    if not 1 <= x < n_max:
        raise DomainError(f"need 1 <= x < n_max, got x={x}, n_max={n_max}")
    check_sigma(sigma)
    if sigma <= 0.5:
        warnings.warn(
            f"sigma={sigma} <= 1/2: the infinite-horizon event has "
            "probability zero; truncated estimates only",
            RuntimeWarning,
            stacklevel=2,
        )
    bits = partial(batch_neg_bits, master_seed)
    outcomes = _outcomes(bits, n_max, mode, sigma, x, trials, threads)
    if trial_dump is not None:
        trial_dump.write("trial,passed,indeterminate\n")
        for i, o in enumerate(outcomes.tolist()):
            trial_dump.write(f"{i},{int(o == 1)},{int(o == 2)}\n")
    passed, undecided = (int(np.count_nonzero(outcomes == k)) for k in (1, 2))
    return _proportion(passed, trials, master_seed, level, undecided)


class PowerCoeffs(Mapping):
    """The read-only map a(n) = n^-exponent over 1..n_max, formed as it is read.

    With exact, an integer exponent e >= 0 gives Fraction(1, n^e), any other
    float(n) ** -exponent.  Every refusal is made at construction.  Its
    indices are the range 1..n_max, which bounds.index_span reads unscanned.
    """

    def __init__(self, n_max: int, exponent: float = 1.0, exact: bool = False):
        if not 1 <= n_max <= COEFFICIENT_LIMIT:
            raise DomainError(f"{n_max} coefficients: need 1 to {COEFFICIENT_LIMIT}")
        if not math.isfinite(exponent):
            raise DomainError(f"coefficient exponent must be finite, got {exponent}")
        self.n_max, self._e, self._power = n_max, None, -float(exponent)
        self.indices = range(1, n_max + 1)
        if exact and float(exponent).is_integer() and exponent >= 0:
            self._e = int(exponent)
            if self._e * math.log2(n_max) > EXACT_BITS_LIMIT:
                raise DomainError(f"n^{self._e} needs over {EXACT_BITS_LIMIT} bits")
        else:
            try:
                self[n_max]  # the largest a(n), if any overflows
            except OverflowError:
                raise DomainError(f"n^-({exponent}) overflows float64") from None

    def __getitem__(self, n):
        if not (isinstance(n, int) and 0 < n <= self.n_max):
            raise KeyError(n)
        return float(n) ** self._power if self._e is None else Fraction(1, n**self._e)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return self.n_max


power_coeffs = PowerCoeffs


def mc_moment(
    coeffs: Mapping[int, object],
    m: float,
    trials: int,
    master_seed: int,
    mode: Mode = Mode.SQUAREFREE_MULT,
    level: float = 0.99,
    threads: int = 1,
) -> EstimateWithCI:
    """Sample mean of |sum a(n) f(n)|^m with a normal-approximation CI.

    High moments of heavy-tailed powers make the normal CI optimistic; an
    extreme sample kurtosis (> 50) is flagged on the estimate.  Each sum
    adds up, in ascending order, the dot products a . f over row tiles of
    walk_blocks' sub-pieces: accum.tile_rows(width) rows of at most
    accum.TILE_CELLS cells, each copied into one reused float64 buffer.  So
    a sum differs within rounding from a single dot product over [1, n_max]
    and follows the batch width, which sets the tiles and the BLAS column
    kernels, but not OpenBLAS's thread count.  walk_blocks reads the
    a(lo..hi) of a piece once, as its weights, for all its batches.
    """
    _check_run(trials, level, least=2)
    if not (math.isfinite(m) and m >= 2):
        raise DomainError(f"moment order must be finite and >= 2, got {m}")
    first, n_max, _ = index_span(coeffs)
    if not 1 <= first <= n_max:
        raise DomainError("need at least one coefficient, at indices >= 1")
    sums = np.zeros(trials)

    def coefficients(lo, hi):  # a(lo..hi), 0 where coeffs has none
        a = map(float, map(coeffs.get, range(lo, hi + 1), repeat(0)))
        a = np.fromiter(a, np.float64, hi - lo + 1)
        if not np.isfinite(a).all():
            raise DomainError("coefficients must be finite")
        return a

    def add(rows, lo, f, a):
        height = min(tile_rows(f.shape[1]), f.shape[0])
        tile = np.empty((height, f.shape[1]))
        for r in range(0, f.shape[0], height):
            t = tile[: min(height, f.shape[0] - r)]
            np.copyto(t, f[r : r + t.shape[0]], casting="unsafe")
            sums[rows] += a[r : r + t.shape[0]] @ t

    bits = partial(batch_neg_bits, master_seed)
    walk_blocks(bits, n_max, mode, None, add, trials, threads, coefficients)
    with np.errstate(over="ignore", invalid="ignore"):  # _mean reports overflow
        np.abs(sums, out=sums)
        sums **= m  # the ufunc that ** picks, so bitwise |S| ** m
        return _mean(sums, master_seed, level, flag_kurtosis=True)


def _byte_sums(w: np.ndarray) -> np.ndarray:
    """Table t[j, b]: the sum of w[8j + i] over the set bits i of byte b.

    w is zero-padded to whole bytes; each entry adds its weights in
    ascending i, one doubling of the table per bit.
    """
    padded = np.zeros((w.size + 7) // 8 * 8)
    padded[: w.size] = w
    padded = padded.reshape(-1, 8)
    table = np.zeros((padded.shape[0], 256))
    for i in range(8):
        table[:, 1 << i : 2 << i] = table[:, : 1 << i] + padded[:, i, None]
    return table


def mc_prime_tail(
    sigma: float,
    threshold: float,
    p_max: int,
    trials: int,
    master_seed: int,
    level: float = 0.99,
    threads: int = 1,
) -> EstimateWithCI:
    """Empirical P(sum_{p<=P} f(p) p^-sigma >= threshold).

    With W the exact_sum of the k = pi(P) weights p^-sigma and neg the sum of
    those of the primes with sign -1, a trial's sum is v = W - 2 neg.  neg
    comes from table lookups: each byte of the sign words holds eight
    ranks, picks from its row of the _byte_sums table the sum of its
    weights over its set bits, and the picks are summed.  The order of
    that summation is immaterial: accum.signed_sum_error_bound bounds the
    rounding of v in any order by band = 2 gamma_k W + (weight_allowance
    + 8) EPS W (+ k TINY for underflowed weights), gamma_k = k EPS / (1 -
    k EPS).  A trial is a hit if v - threshold > band and a miss if it is
    < -band; any other trial is INDETERMINATE: it counts as a miss in the
    estimate and the lower limit, is reported, and widens the upper limit
    as if it were a hit.
    """
    _check_run(trials, level)
    if p_max < 2:
        raise DomainError(f"P must be >= 2, got {p_max}")
    if p_max > PRIME_TAIL_LIMIT:
        raise DomainError(f"P = {p_max} exceeds the term budget of {PRIME_TAIL_LIMIT}")
    check_sigma(sigma)
    if math.isnan(threshold):
        raise DomainError("threshold lambda must not be NaN")
    plist = primes_up_to(p_max)
    k = len(plist)
    w = power_weights(plist.primes, sigma)
    total = exact_sum(w)
    band = signed_sum_error_bound(k, total, sigma, p_max)
    table = _byte_sums(w).ravel()
    offsets = 256 * np.arange(table.size // 256)[:, None]
    outcomes = np.empty(trials, dtype=np.int8)

    def decide(batch) -> None:
        # byte-major: row j holds byte j of every trial.  Bits past rank k in
        # the last byte pick the zero-padded weights of _byte_sums, and every
        # such entry is t + 0.0 == t, so neg is that of the k sign bits alone
        packed = batch_neg_bits(master_seed, np.arange(*batch), k).T.copy()
        neg = np.zeros(packed.shape[1])
        # 64 table rows (128 KB) and their lookups at a time stay in cache
        for j in range(0, packed.shape[0], 64):
            neg += table[packed[j : j + 64] + offsets[j : j + 64]].sum(axis=0)
        outcomes[slice(*batch)] = band_outcomes(total - 2.0 * neg - threshold, band)

    with trial_batches(trials, k, threads, floor=256) as each_batch:
        each_batch(decide)
    hits, undecided = (int(np.count_nonzero(outcomes == o)) for o in (1, 2))
    return _proportion(hits, trials, master_seed, level, undecided)


def sign_changes(t: Trajectory) -> int:
    """Strict sign flips along a stride-1 trajectory, skipping exact zeros."""
    if t.stride != 1:
        raise DomainError("sign_changes requires a stride-1 trajectory")
    flips, _ = _count_flips(np.zeros((1, 1), np.int8), t.values[:, None].copy())
    return int(flips[0])


def _count_flips(last, sums):
    """Sign flips down each column of sums, and the last nonzero signs.

    last is (1, trials) int8, the last nonzero sign of each trial before
    sums, 0 if none; sums is (rows, trials) and is overwritten.  A flip is
    a pair of nonzero sums of opposite sign with only exact zeros between
    them.  Returns the flips per trial and the new last, (1, trials).  Only
    where a column holds an exact zero can the raw adjacent signs miss a
    flip, so only those trials get the zero fill.
    """
    s = np.empty((sums.shape[0] + 1, sums.shape[1]), dtype=np.int8)
    s[:1] = last
    # astype first: a float64 -> int8 slice assignment is far slower
    s[1:] = np.sign(sums, out=sums).astype(np.int8)
    flips = np.count_nonzero(s[1:] * s[:-1] < 0, axis=0)
    zeros = np.flatnonzero((s[1:] == 0).any(axis=0))
    if zeros.size:
        # fill each zero with the last nonzero sign before it: a flip is then
        # a pair of adjacent filled signs of opposite sign
        z = s[:, zeros]
        rows = np.arange(z.shape[0], dtype=np.min_scalar_type(z.shape[0]))
        source = np.where(z != 0, rows[:, None], 0)
        np.maximum.accumulate(source, axis=0, out=source)
        z = np.take_along_axis(z, source, axis=0)
        flips[zeros] = np.count_nonzero(z[1:] * z[:-1] < 0, axis=0)
        s[-1, zeros] = z[-1]
    return flips, s[-1:]


def mc_sign_changes(
    sigma: float,
    n_max: int,
    trials: int,
    master_seed: int,
    mode: Mode = Mode.SQUAREFREE_MULT,
    level: float = 0.99,
    threads: int = 1,
) -> EstimateWithCI:
    """Mean number of sign changes of S_sigma over [1, n_max] per trial."""
    _check_run(trials, level)
    check_sigma(sigma)
    if n_max < 1:
        raise DomainError(f"horizon must be >= 1, got {n_max}")
    last = np.zeros((1, trials), dtype=np.int8)
    flips = np.zeros(trials)

    def count(rows, y, sums):
        counted, last[:, rows] = _count_flips(last[:, rows], sums)
        flips[rows] += counted

    scan = scanner(trials, count)
    bits = partial(batch_neg_bits, master_seed)
    walk_blocks(bits, n_max, mode, sigma, scan, trials, threads)
    return _mean(flips, master_seed, level)
