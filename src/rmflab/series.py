"""Weighted partial sums S_sigma(y) = sum_{n<=y} f(n) n^-sigma and friends.

Trajectories are built block by block in ascending order with compensated
summation, so they are bitwise reproducible and carry a certified bound on
the accumulated rounding error.  The positivity predicate never classifies
a value inside the +-bound band around zero: such checkpoints come back
INDETERMINATE instead of silently deciding the central event.

Also here: truncated prime sums sum_{p<=P} f(p) p^-sigma, truncated Euler
products, and the decomposition of log of the truncated product into
prime sum, half-log singular term, and a measured remainder.  The
remainder is reported, never assumed.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .accum import CHUNK, CompensatedSum, power_weights, series_error_bound
from .errors import DomainError, PoleError, SignRangeError
from .sampler import Mode, SignAssignment, stream_f
from .sieve import iter_blocks


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

    def to_csv(self, file) -> None:
        """Write `y,value,err_bound` rows with round-trip-safe precision."""
        if isinstance(file, str):
            with open(file, "w", newline="") as fh:
                self.to_csv(fh)
            return
        writer = csv.writer(file)
        writer.writerow(["y", "value", "err_bound"])
        for y, v in self.checkpoints:
            writer.writerow([y, repr(v), repr(self.summation_error_bound)])


class LogDecomposition(NamedTuple):
    """log(truncated Euler product) split into its three pieces.

    By construction exp(prime_sum - half_log_term + remainder) equals the
    truncated product used to compute it, up to rounding.
    """

    prime_sum: float
    half_log_term: float
    remainder: float


class MenshovCheck(NamedTuple):
    converges: bool
    margin: float


def check_sigma(sigma: float) -> None:
    """Reject a NaN, infinite or nonpositive exponent with DomainError."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be finite and > 0, got {sigma}")


def partial_sum_trajectory(
    a: SignAssignment,
    sigma: float,
    n_max: int,
    checkpoint_stride: int = 1,
) -> Trajectory:
    """Trajectory of S_sigma(y) for y = 1..n_max at the given stride.

    Checkpoints always include y=1 and y=n_max.  Block partial sums are
    combined in ascending order by a single compensated reducer, so the
    result is independent of any internal parallelism.
    """
    check_sigma(sigma)
    if n_max < 1:
        raise DomainError(f"horizon must be >= 1, got {n_max}")
    if checkpoint_stride < 1:
        raise DomainError("checkpoint stride must be >= 1")
    if n_max > a.limit:
        raise SignRangeError(
            f"horizon {n_max} exceeds sign assignment limit {a.limit}"
        )
    acc = CompensatedSum()
    max_chunk_abs = 0.0
    n_chunks = 0
    ys_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for lo, hi in iter_blocks(1, n_max):
        f = stream_f(a, lo, hi).astype(np.float64)
        terms = f * power_weights(np.arange(lo, hi + 1, dtype=np.float64), sigma)
        for c0 in range(0, terms.size, CHUNK):
            chunk = terms[c0 : c0 + CHUNK]
            base = acc.value
            cumulative = base + np.cumsum(chunk)
            ys = np.arange(lo + c0, lo + c0 + chunk.size, dtype=np.int64)
            keep = (ys % checkpoint_stride == 0) | (ys == 1) | (ys == n_max)
            ys_parts.append(ys[keep])
            val_parts.append(cumulative[keep])
            mass = acc.add_exact_chunk(chunk)
            max_chunk_abs = max(max_chunk_abs, mass)
            n_chunks += 1
    bound = series_error_bound(acc.abs_total, max_chunk_abs, n_chunks, sigma, n_max)
    return Trajectory(
        sigma=sigma,
        assignment_key=a.key,
        ys=np.concatenate(ys_parts),
        values=np.concatenate(val_parts),
        summation_error_bound=bound,
        stride=checkpoint_stride,
        horizon=n_max,
    )


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
    lowest = float(t.values[start:].min())
    band = t.summation_error_bound
    if lowest > band:
        return Positivity.POSITIVE
    if lowest < -band:
        return Positivity.NOT_POSITIVE
    return Positivity.INDETERMINATE


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
    """sum_{p<=P} f(p) p^-sigma, exactly-rounded accumulation."""
    return math.fsum(_prime_terms(a, sigma, p_max).tolist())


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


def rademacher_menshov_check(sigma: float) -> MenshovCheck:
    """Does sum n^-2sigma (log n)^2 converge, i.e. sigma > 1/2?"""
    return MenshovCheck(sigma > 0.5, 2.0 * sigma - 1.0)
