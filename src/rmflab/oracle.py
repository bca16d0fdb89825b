"""Exact enumeration over small prime universes and seed-parallel Monte Carlo.

The exact oracles enumerate all 2^pi(N) equiprobable sign assignments on
the primes <= N on one scaled-integer path.  Every weight n^-sigma is
bracketed by integers under one scale: exactly, with the scale
lcm(1..N)^sigma, for a nonnegative integer exponent, and by certified
128-bit brackets otherwise, so each sign decision is certified, never
guessed.  Moment coefficients go over one common denominator, so every
assignment's sum is an exact integer.  Ground truths like 7/8 come out as
actual fractions.

Monte Carlo estimators share the sign construction of the sampler module
and one batch driver, _per_trial, which evaluates trials in vectorized
batches sized by a cell budget and gathers one value per trial, so the
estimate for a given (seed, trials) is identical for any thread count.
Two reducers build every interval: _proportion gives Wilson score
intervals, which behave at estimates near 0 and 1 where the interesting
events live, and _mean a normal interval clamped at 0.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Mapping

import mpmath as mp
import numpy as np

from .accum import CHUNK, power_weights, series_error_bound
from .errors import CertificationError, DomainError, EnumerationLimitError
from .sampler import Mode, batch_f, batch_neg_bits
from .series import Trajectory, check_sigma
from .sieve import arith_signature, primes_up_to, sieve_block_tables

ENUMERATION_BIT_LIMIT = 24
_INTERVAL_SHIFT = 128
_DEFAULT_BATCH = 2048
#: Cap on a batch's (n_max x trials) float64 working-set cells (~64 MB).
_BATCH_CELL_BUDGET = 1 << 23


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


def _universe(n_max: int, mode: Mode):
    """Per-n prime-rank bitmasks over n <= n_max, None where f(n) = 0.

    f(n) under an assignment is -1 exactly when the assignment has an odd
    number of bits in common with the mask of n.
    """
    plist = primes_up_to(n_max)
    bits = len(plist)
    if bits > ENUMERATION_BIT_LIMIT:
        raise EnumerationLimitError(
            f"pi({n_max}) = {bits} exceeds the 2^{ENUMERATION_BIT_LIMIT} "
            "assignment enumeration budget"
        )
    prime_rank = {int(p): r for r, p in enumerate(plist.primes.tolist())}
    masks = [None, 0]
    for n in range(2, n_max + 1):
        sig = arith_signature(n)
        if mode is Mode.SQUAREFREE_MULT and not sig.is_squarefree:
            masks.append(None)
            continue
        mask = 0
        for p in sig.distinct_primes:
            if mode is Mode.COMPLETELY_MULT:
                m, v = n, 0
                while m % p == 0:
                    m //= p
                    v += 1
                if v & 1 == 0:
                    continue
            mask |= 1 << prime_rank[p]
        masks.append(mask)
    return bits, masks


def _scaled_weights(n_max: int, sigma: float):
    """Integers lo[n] <= W n^-sigma <= hi[n] for n <= n_max under one scale W.

    For a nonnegative integer sigma, W = lcm(1..n_max)^sigma and lo == hi
    exactly; otherwise W = 2^_INTERVAL_SHIFT and each pair is a certified
    bracket.
    """
    if float(sigma) == sigma and float(sigma).is_integer() and sigma >= 0:
        e = int(sigma)
        scale = math.lcm(*range(1, n_max + 1)) ** e
        exact = [0] + [scale // n**e for n in range(1, n_max + 1)]
        return exact, exact
    lo = [0] * (n_max + 1)
    hi = [0] * (n_max + 1)
    with mp.workprec(_INTERVAL_SHIFT + 64):
        for n in range(1, n_max + 1):
            scaled = mp.ldexp(mp.power(n, -sigma), _INTERVAL_SHIFT)
            mid = int(mp.floor(scaled))
            lo[n], hi[n] = mid - 1, mid + 2
    return lo, hi


def exact_probability(
    n_max: int,
    sigma: float,
    x: int,
    mode: Mode = Mode.SQUAREFREE_MULT,
) -> ExactResult:
    """Exact P(S_sigma(y) > 0 for all integer y in (x, n_max]).

    Enumerates all 2^pi(n_max) sign assignments on the scaled integer
    weights of `_scaled_weights`.  Nonnegative integer sigma is decided
    exactly; otherwise an assignment whose sign cannot be certified raises
    rather than being classified.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if not 0 <= x < n_max:
        raise DomainError(f"x must lie in [0, n_max), got x={x}, n_max={n_max}")
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma}")
    bits, masks = _universe(n_max, mode)
    wlo, whi = _scaled_weights(n_max, sigma)
    terms = list(zip(range(n_max + 1), masks, wlo, whi))[1:]
    positives = 0
    for assignment in range(1 << bits):
        s_lo = 0
        s_hi = 0
        ok = True
        ambiguous = False
        for y, mask, lo, hi in terms:
            if mask is not None:
                if (assignment & mask).bit_count() & 1:
                    s_lo -= hi
                    s_hi -= lo
                else:
                    s_lo += lo
                    s_hi += hi
            if y > x:
                if s_hi <= 0:
                    ok = False
                    break
                if s_lo <= 0:
                    ambiguous = True
        if ok and ambiguous:
            raise CertificationError(
                f"sign of a partial sum not certifiable at shift "
                f"{_INTERVAL_SHIFT} (assignment {assignment})"
            )
        positives += ok
    return ExactResult(Fraction(positives, 1 << bits), bits)


def exact_moment(
    n_max: int,
    coeffs: Mapping[int, object],
    m: float,
    absolute: bool = False,
    mode: Mode = Mode.SQUAREFREE_MULT,
):
    """E (sum a(n) f(n))^m by full enumeration; exact for integer m.

    The coefficients are put over one denominator D, so each assignment's
    sum is an exact integer S and an integer order m gives the Fraction
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
    table = {}
    for n, value in coeffs.items():
        if not 1 <= n <= n_max:
            raise DomainError(f"coefficient index {n} outside [1, {n_max}]")
        try:
            table[n] = Fraction(value)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"coefficient a({n}) = {value} is not finite") from exc
    denom = math.lcm(*(c.denominator for c in table.values()))
    bits, masks = _universe(n_max, mode)
    # (mask of n, D a(n)) wherever f(n) a(n) can be nonzero
    support = [
        (masks[n], c.numerator * (denom // c.denominator))
        for n, c in table.items()
        if c and masks[n] is not None
    ]
    e = int(m) if integer_order else None
    with mp.workprec(96):
        total = 0 if integer_order else mp.mpf(0)
        for assignment in range(1 << bits):
            s = sum(-c if (assignment & k).bit_count() & 1 else c for k, c in support)
            if integer_order:
                total += (abs(s) if absolute else s) ** e
            else:
                # reduce S/D as a Fraction would, so the numerator rounds alike
                g = math.gcd(s, denom)
                total += mp.power(mp.mpf(abs(s) // g) / (denom // g), m)
        if integer_order:
            return Fraction(total, denom**e << bits)
        value = total / (1 << bits)
        # ~96-bit arithmetic over 2^bits terms; crude but rigorous slack
        err = float(value) * ((1 << bits) + 4) * 2.0**-90
    return CertifiedValue(float(value), err)


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
    mean = math.fsum(values.tolist()) / trials
    half = 0.0
    heavy = False
    if trials > 1:
        centered = values - mean
        var = math.fsum((centered**2).tolist()) / (trials - 1)
        half = _z(level) * math.sqrt(var / trials)
        if flag_kurtosis and var > 0:
            m4 = math.fsum((centered**4).tolist()) / trials
            kurtosis_excess = m4 / (var * var) - 3.0
            heavy = not math.isfinite(kurtosis_excess) or kurtosis_excess > 50.0
    if not math.isfinite(mean + half):
        raise DomainError("the sample mean or its interval overflows float64")
    low = max(0.0, mean - half)
    return EstimateWithCI(
        mean, trials, low, mean + half, master_seed, level, heavy_tail=heavy
    )


def _check_run(trials: int, level: float, least: int = 1) -> None:
    """Reject a run too short or a confidence level outside (0, 1) up front."""
    if trials < least:
        raise DomainError(f"trials must be >= {least}, got {trials}")
    _z(level)


def _per_trial(trials: int, cells_per_trial: int, fn, threads: int, dtype, floor=64):
    """fn(start, stop) over trial batches, gathered into one per-trial array.

    A batch holds about _BATCH_CELL_BUDGET cells (at least `floor` and at
    most _DEFAULT_BATCH trials) and fn returns one value per trial in it.
    Batches depend only on (trials, cells_per_trial), never on threads.
    """
    batch = max(
        floor, min(_DEFAULT_BATCH, _BATCH_CELL_BUDGET // max(cells_per_trial, 1))
    )
    out = np.empty(trials, dtype=dtype)

    def run(start: int) -> None:
        stop = min(start + batch, trials)
        out[start:stop] = fn(start, stop)

    starts = range(0, trials, batch)
    if threads <= 1:
        for start in starts:
            run(start)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    return out


def _f_batches(n_max: int, master_seed: int, mode: Mode):
    """Sieve [1, n_max] once; return its tables and a (start, stop) -> f map.

    The map gives f on [1, n_max] for trials start..stop-1 as a (trials, n)
    int8 array.
    """
    base = primes_up_to(n_max)
    tables = sieve_block_tables(1, n_max, base)

    def f_of(start: int, stop: int) -> np.ndarray:
        bits = batch_neg_bits(master_seed, np.arange(start, stop), len(base))
        return batch_f(bits, tables, base, mode)

    return tables, f_of


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
    tables, f_of = _f_batches(n_max, master_seed, mode)
    weights = power_weights(np.arange(1, n_max + 1, dtype=np.float64), sigma)
    if mode is Mode.COMPLETELY_MULT:
        abs_terms = weights
    else:
        abs_terms = np.where(tables.squarefree, weights, 0.0)
    chunk_masses = [
        float(abs_terms[c : c + CHUNK].sum()) for c in range(0, n_max, CHUNK)
    ]
    band = series_error_bound(
        float(abs_terms.sum()), max(chunk_masses), len(chunk_masses), sigma, n_max
    )

    def outcomes_of(start: int, stop: int) -> np.ndarray:
        """1 passed, 0 failed, 2 indeterminate, per trial."""
        f = f_of(start, stop)
        base_vals = np.zeros(stop - start, dtype=np.float64)
        lowest = np.full(stop - start, np.inf)
        for c in range(0, n_max, CHUNK):
            terms = f[:, c : c + CHUNK] * weights[c : c + CHUNK]
            cums = base_vals[:, None] + np.cumsum(terms, axis=1)
            skip = max(0, x - c)  # column c holds y = c + 1
            if skip < cums.shape[1]:
                lowest = np.minimum(lowest, cums[:, skip:].min(axis=1))
            base_vals = cums[:, -1]
        return np.where(lowest > band, 1, np.where(lowest < -band, 0, 2))

    outcomes = _per_trial(trials, n_max, outcomes_of, threads, np.uint8)
    if trial_dump is not None:
        trial_dump.write("trial,passed,indeterminate\n")
        for i, o in enumerate(outcomes.tolist()):
            trial_dump.write(f"{i},{int(o == 1)},{int(o == 2)}\n")
    return _proportion(
        int(np.count_nonzero(outcomes == 1)),
        trials,
        master_seed,
        level,
        int(np.count_nonzero(outcomes == 2)),
    )


def power_coeffs(n_max: int, exponent: float = 1.0) -> dict[int, float]:
    """Coefficient map a(n) = n^-exponent for n <= n_max."""
    if not math.isfinite(exponent):
        raise DomainError(f"coefficient exponent must be finite, got {exponent}")
    return {n: float(n) ** -exponent for n in range(1, n_max + 1)}


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
    extreme sample kurtosis (> 50) is flagged on the estimate.
    """
    _check_run(trials, level, least=2)
    if not (math.isfinite(m) and m >= 2):
        raise DomainError(f"moment order must be finite and >= 2, got {m}")
    if not coeffs:
        raise DomainError("need at least one coefficient")
    n_max = max(coeffs)
    vec = np.zeros(n_max, dtype=np.float64)
    for n, v in coeffs.items():
        if not 1 <= n <= n_max:
            raise DomainError(f"coefficient index {n} out of range")
        vec[n - 1] = float(v)
    if not np.isfinite(vec).all():
        raise DomainError("coefficients must be finite")
    _, f_of = _f_batches(n_max, master_seed, mode)

    def linear_sums(start: int, stop: int) -> np.ndarray:
        # vec @ (n, B) C-order keeps the BLAS summation order of each trial
        return vec @ f_of(start, stop).T.astype(np.float64, order="C")

    sums = _per_trial(trials, n_max, linear_sums, threads, np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # _mean reports overflow
        return _mean(np.abs(sums) ** m, master_seed, level, flag_kurtosis=True)


def mc_prime_tail(
    sigma: float,
    threshold: float,
    p_max: int,
    trials: int,
    master_seed: int,
    level: float = 0.99,
    threads: int = 1,
) -> EstimateWithCI:
    """Empirical P(sum_{p<=P} f(p) p^-sigma >= threshold)."""
    _check_run(trials, level)
    if p_max < 2:
        raise DomainError(f"P must be >= 2, got {p_max}")
    check_sigma(sigma)
    if math.isnan(threshold):
        raise DomainError("threshold lambda must not be NaN")
    plist = primes_up_to(p_max)
    w = power_weights(plist.primes, sigma)
    total = math.fsum(w.tolist())

    def hits(start: int, stop: int) -> np.ndarray:
        bits = batch_neg_bits(master_seed, np.arange(start, stop), len(plist))
        return (total - 2.0 * (bits.astype(np.float64) @ w)) >= threshold

    hit = _per_trial(trials, len(plist), hits, threads, bool, floor=256)
    return _proportion(int(np.count_nonzero(hit)), trials, master_seed, level)


def sign_changes(t: Trajectory) -> int:
    """Strict sign flips along a stride-1 trajectory, skipping exact zeros."""
    if t.stride != 1:
        raise DomainError("sign_changes requires a stride-1 trajectory")
    nonzero = t.values[t.values != 0.0]
    if nonzero.size < 2:
        return 0
    return int(np.count_nonzero(nonzero[1:] * nonzero[:-1] < 0.0))


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
    _, f_of = _f_batches(n_max, master_seed, mode)
    weights = power_weights(np.arange(1, n_max + 1, dtype=np.float64), sigma)

    def counts(start: int, stop: int) -> np.ndarray:
        sums = f_of(start, stop) * weights  # the batch's one (B, n) float64 buffer
        np.cumsum(sums, axis=1, out=sums)
        s = np.sign(sums, out=sums).astype(np.int8)
        del sums
        # index of the last nonzero sign so far; 0 while there is none, where
        # s is 0 too, so prev below is the previous nonzero sign or 0
        last = np.where(s != 0, np.arange(n_max), 0)
        np.maximum.accumulate(last, axis=1, out=last)
        prev = np.take_along_axis(s, last[:, :-1], axis=1)
        return np.count_nonzero(prev * s[:, 1:] < 0, axis=1)

    return _mean(
        _per_trial(trials, n_max, counts, threads, np.float64), master_seed, level
    )
