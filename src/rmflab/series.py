"""Weighted partial sums S_sigma(y) = sum_{n<=y} f(n) n^-sigma and friends.

walk_blocks is the one ascending walk over y: it takes the pieces of
sieve.TERM_ROWS rows of [1, n_max], with their cofactor ranks, from
sieve.ranked_walk, weighs each once, and every trial batch draws its sign
bits for a piece once and gets its f on the piece's sub-pieces in turn,
trial-minor: one row per integer, one column per trial.  stream_f keeps
one trial's f; trajectories and every Monte Carlo scan reduce the
running sums of accum.running_sums down those rows, carried from
sub-piece to sub-piece by scanner, so they are bitwise reproducible and
carry a certified bound on the accumulated rounding error.  The
positivity predicate never classifies a value inside the +-bound band
around zero: such checkpoints come back INDETERMINATE instead of silently
deciding the central event.

Also here: truncated prime sums sum_{p<=P} f(p) p^-sigma, truncated Euler
products, and the decomposition of log of the truncated product into
prime sum, half-log singular term, and a measured remainder.  The
remainder is reported, never assumed.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .accum import (
    CHUNK,
    chunk_masses,
    exact_sum,
    power_weights,
    running_sums,
    series_error_bound,
)
from .errors import DomainError, PoleError, SignRangeError
from .sampler import Mode, SignAssignment, sign_table, table_f
from .sieve import TERM_ROWS, prime_count_bound, ranked_walk

#: Most trials in a batch, and its budget of float64 working cells (~64 MB).
_DEFAULT_BATCH, _BATCH_CELL_BUDGET = 2048, 1 << 23


class Positivity(enum.Enum):
    POSITIVE = "positive"
    NOT_POSITIVE = "not_positive"
    INDETERMINATE = "indeterminate"

    def __bool__(self) -> bool:
        return self is Positivity.POSITIVE


@dataclass(frozen=True)
class Trajectory:
    """Checkpointed running values of S_sigma(y), immutable once built."""

    sigma: float
    assignment_key: tuple
    ys: np.ndarray  # int64, ascending
    values: np.ndarray  # float64
    summation_error_bound: float
    stride: int
    horizon: int

    @property
    def checkpoints(self):
        return zip(self.ys.tolist(), self.values.tolist())

    def value_at(self, y: int) -> float:
        i = int(np.searchsorted(self.ys, y))
        if i >= self.ys.size or int(self.ys[i]) != y:
            raise DomainError(f"no checkpoint at y={y}")
        return float(self.values[i])


class LogDecomposition(NamedTuple):
    """log(truncated Euler product) split into its three pieces.

    By construction exp(prime_sum - half_log_term + remainder) equals the
    truncated product used to compute it, up to rounding.
    """

    prime_sum: float
    half_log_term: float
    remainder: float


def check_sigma(sigma: float) -> None:
    """Reject a NaN, infinite or nonpositive exponent with DomainError."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be finite and > 0, got {sigma}")


@contextmanager
def trial_batches(trials: int, cells_per_trial: int, threads: int, floor: int = 64):
    """Yield each_batch(fn), which calls fn((start, stop)) for every batch.

    A batch holds about _BATCH_CELL_BUDGET cells, cells_per_trial for each
    of its trials, and at least `floor` and at most _DEFAULT_BATCH trials,
    whatever the thread count.  Batches run on min(threads, batches, cpus)
    threads of one pool.
    """
    size = max(floor, min(_DEFAULT_BATCH, _BATCH_CELL_BUDGET // cells_per_trial))
    batches = [(s, min(s + size, trials)) for s in range(0, trials, size)]
    workers = min(threads, len(batches), os.cpu_count() or 1)
    if workers <= 1:
        yield lambda fn: list(map(fn, batches))
        return
    with ThreadPoolExecutor(workers) as pool:
        yield lambda fn: list(pool.map(fn, batches))


def sub_piece_rows(width: int) -> int:
    """Rows of f that a batch of width trials builds at a time.

    The tallest power-of-two cut of a TERM_ROWS piece, down to CHUNK rows,
    whose width x rows cells fit _BATCH_CELL_BUDGET: a whole piece up to 128
    trials, 4096 rows at 2048.
    """
    rows = TERM_ROWS
    while rows > CHUNK and rows * width > _BATCH_CELL_BUDGET:
        rows //= 2
    return rows


def walk_blocks(
    bits, n_max, mode, sigma, visit, trials=1, threads=1, weigh=None, retired=None
):
    """Hand f of every trial on each sub-piece of [1, n_max] to visit.

    Each sieve.ranked_walk piece [lo, hi], in ascending order, comes with
    the ranks of its cofactor primes and pi(hi), and is weighted once by
    w = n^-sigma, or if sigma is None by w = weigh(lo, hi) (None if weigh
    is None too).  A trial_batches batch is sized by the cells of CHUNK
    running sums, the f of a CHUNK-row sub-piece at least and the packed
    sign bits of sieve.prime_count_bound(n_max) ranks per trial, which
    checks the term budget: a function of n_max alone, which sets
    mc_moment's sums, though a scanner holds only one accum.TILE_CELLS tile
    a batch.  On each piece a batch draws the
    bits(trial_indices, pi(hi)) of the ranks the piece reads once, in
    batch_neg_bits' packed rows, turns them into a sampler.sign_table and
    builds its f on sub-pieces of sub_piece_rows(width) rows, multiples of
    CHUNK, so a whole piece for batches of up to 128 trials.  visit(rows,
    lo, f, w) folds each (n, trials) f, one row per integer, into
    per-trial state, rows being slice(start, stop).

    retired(rows), if given, is asked after each sub-piece that has a
    successor which of the trials in rows are decided; those are walked no
    further, and from then on rows is the index array of the batch's other
    trials, whose sign bits are drawn again for the next sub-piece.
    Returns the band of the running sums of f * w from the masses of w on
    f's support, or None.
    """
    cells = 2 * CHUNK + (prime_count_bound(n_max) + 7) // 8
    masses: list[float] = []
    w = None
    walked = {}  # batch -> its rows still walked, once a trial has retired
    with trial_batches(trials, cells, threads) as each_batch:
        for tables, ranks, used in ranked_walk(n_max):
            lo, hi = tables.lo, tables.hi
            if sigma is not None:
                w = power_weights(np.arange(lo, hi + 1, dtype=np.float64), sigma)
                support = tables.squarefree | (mode is Mode.COMPLETELY_MULT)
                masses += chunk_masses(np.where(support, w, 0.0))
            elif weigh is not None:
                w = weigh(lo, hi)

            def run(batch):
                rows = walked.get(batch, slice(*batch))
                table = None
                step = sub_piece_rows(batch[1] - batch[0])
                for a in range(lo, hi + 1, step):
                    if table is None:  # the piece's draw, or one after a retirement
                        chosen = np.arange(*batch) if isinstance(rows, slice) else rows
                        if not chosen.size:
                            return
                        table = sign_table(bits(chosen, used), used)
                    b = min(a + step - 1, hi)
                    cut = slice(a - lo, b - lo + 1)
                    sub = tables.rows(a, b)
                    f = table_f(table, sub, ranks[cut], mode, chosen.size)
                    visit(rows, a, f, None if w is None else w[cut])
                    if retired is not None and b < n_max:
                        done = retired(rows)
                        if done.any():
                            rows = walked[batch] = chosen[~done]
                            table = None

            each_batch(run)
    return None if sigma is None else series_error_bound(masses, sigma, n_max)


def scanner(trials: int, reduce):
    """A walk_blocks visitor passing every tile of running sums to reduce.

    reduce(rows, y, sums) gets S_sigma(y + j) of the trials in rows as
    sums[j], carried across tiles and sub-pieces, and may overwrite it.
    """
    carry = np.zeros((1, trials))

    def visit(rows, lo, f, w):
        for c, sums in running_sums(f, w, carry[:, rows]):
            carry[:, rows] = sums[-1:]
            reduce(rows, lo + c, sums)

    return visit


def partial_sum_trajectory(
    a: SignAssignment,
    sigma: float,
    n_max: int,
    checkpoint_stride: int = 1,
) -> Trajectory:
    """Trajectory of S_sigma(y) for y = 1..n_max at the given stride.

    Checkpoints always include y=1 and y=n_max.  This is the one-trial
    walk_blocks scan, so the values are those of one scan over [1, n_max]
    and memory stays O(block).
    """
    check_sigma(sigma)
    if n_max < 1:
        raise DomainError(f"horizon must be >= 1, got {n_max}")
    if checkpoint_stride < 1:
        raise DomainError("checkpoint stride must be >= 1")
    if n_max > a.limit:
        raise SignRangeError(f"horizon {n_max} exceeds sign assignment limit {a.limit}")
    ys_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []

    def add(rows, y, sums):
        ys = np.arange(y, y + sums.shape[0], dtype=np.int64)
        # past n_max a stride keeps the same rows, and may not fit int64
        kept = (ys % min(checkpoint_stride, n_max) == 0) | (ys == 1) | (ys == n_max)
        ys_parts.append(ys[kept])
        val_parts.append(sums[kept, 0])

    bits = a.neg_bits[None, :]  # every batch is this one trial
    band = walk_blocks(lambda *_: bits, n_max, a.mode, sigma, scanner(1, add))
    return Trajectory(
        sigma=sigma,
        assignment_key=a.key,
        ys=np.concatenate(ys_parts),
        values=np.concatenate(val_parts),
        summation_error_bound=band,
        stride=checkpoint_stride,
        horizon=n_max,
    )


def stream_f(a: SignAssignment, lo: int, hi: int) -> np.ndarray:
    """f(n), n in [lo, hi] <= a.limit, as int8: the one-trial walk of [1, hi]."""
    if not 1 <= lo <= hi:
        raise DomainError(f"invalid range [{lo}, {hi}]")
    if hi > a.limit:
        raise SignRangeError(f"range up to {hi} needs signs past limit {a.limit}")
    out = np.empty(hi - lo + 1, dtype=np.int8)

    def keep(rows, y, f, w):
        out[max(0, y - lo) : max(0, y + f.shape[0] - lo)] = f[max(0, lo - y) :, 0]

    walk_blocks(lambda *_: a.neg_bits[None, :], hi, a.mode, None, keep)
    return out


def positivity_check(t: Trajectory, x: int) -> Positivity:
    """Is S_sigma(y) > 0 for every integer y in (x, horizon]?

    Requires a stride-1 trajectory.  Values within the summation error
    band of zero make the outcome INDETERMINATE.
    """
    if t.stride != 1:
        raise DomainError("positivity_check requires a stride-1 trajectory")
    if x >= t.horizon:
        raise DomainError(f"x={x} >= horizon {t.horizon}")
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    start = int(np.searchsorted(t.ys, x, side="right"))
    outcome = band_outcomes(t.values[start:].min(), t.summation_error_bound)
    verdicts = (Positivity.NOT_POSITIVE, Positivity.POSITIVE, Positivity.INDETERMINATE)
    return verdicts[int(outcome)]


def band_outcomes(lowest, band: float) -> np.ndarray:
    """Per lowest sum 1 passed (> band), 0 failed (< -band) or 2 undecided.

    A value inside [-band, band], or a NaN value or band, stays undecided,
    so rounding never decides an outcome.
    """
    lowest = np.asarray(lowest, dtype=np.float64)
    outcomes = np.full(lowest.shape, 2, dtype=np.int8)
    outcomes[lowest > band] = 1
    outcomes[lowest < -band] = 0
    return outcomes


def _prime_terms(a: SignAssignment, sigma: float, p_max: int) -> np.ndarray:
    """f(p) p^-sigma for every prime p <= p_max."""
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma}")
    if p_max > a.limit:
        raise SignRangeError(f"P={p_max} exceeds sign assignment limit {a.limit}")
    cut = int(np.searchsorted(a.primes.primes, p_max, side="right"))
    signs = a.signs()[:cut].astype(np.float64)
    return signs * power_weights(a.primes.primes[:cut], sigma)


def prime_sum(a: SignAssignment, sigma: float, p_max: int) -> float:
    """sum_{p<=P} f(p) p^-sigma, correctly rounded (accum.exact_sum)."""
    return exact_sum(_prime_terms(a, sigma, p_max))


def euler_product_partial(a: SignAssignment, sigma: float, p_max: int) -> float:
    """Truncated Euler product over p <= P.

    Squarefree-supported mode multiplies (1 + f(p) p^-sigma); the
    completely multiplicative mode multiplies (1 - f(p) p^-sigma)^-1.
    """
    if not sigma > 0.5:
        raise DomainError(f"sigma must be > 1/2, got {sigma}")
    w = _prime_terms(a, sigma, p_max)
    if a.mode is Mode.SQUAREFREE_MULT:
        factors = 1.0 + w
    else:
        denom = 1.0 - w
        if np.any(denom == 0.0):
            raise PoleError("Euler factor (1 - f(p) p^-sigma) vanished")
        factors = 1.0 / denom
    return math.prod(factors.tolist(), start=1.0)


def log_decomposition(
    a: SignAssignment, sigma: float, p_max: int
) -> LogDecomposition:
    """Split log of the truncated product through the half-log singular term.

    remainder := log(product) - prime_sum + half_log_term, where
    half_log_term = (1/2) log(1/(sigma - 1/2)).  The remainder is a
    measured diagnostic, not an asserted constant.
    """
    if not 0.5 < sigma <= 1.0:
        raise DomainError(f"sigma must lie in (1/2, 1], got {sigma}")
    product = euler_product_partial(a, sigma, p_max)
    if product <= 0.0:
        raise DomainError(f"truncated product {product} is not positive")
    ps = prime_sum(a, sigma, p_max)
    half_log_term = 0.5 * math.log(1.0 / (sigma - 0.5))
    remainder = math.log(product) - ps + half_log_term
    return LogDecomposition(ps, half_log_term, remainder)
