"""Exact evaluation of squarefree-weighted sums and their bounding envelopes.

The central object is T(x, m) = sum_{n<=x} mu^2(n) (m-1)^omega(n), computed
exactly from segmented-sieve omega histograms, together with the weighted
tail sum_{n>x} mu^2(n) (m-1)^omega(n) n^-2sigma.  Envelope constants of the
shape c3 * m * x * (log x)^(c5 m) are existential: this module fits
empirical witnesses on finite grids and reports margins, it never claims
universal constants.  Analytic tail remainders are returned as explicit
intervals, not folded into point values.

Also here: Mertens and Chebyshev prime sums, the Riemann zeta function via
Euler-Maclaurin with a certified truncation bound, and the prime zeta
function P(s) = sum_p p^-s through the Moebius identity
P(s) = sum_k mu(k)/k * log zeta(k s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .accum import power_weights
from .errors import DomainError, FitError
from .sieve import arith_signature, iter_blocks, primes_up_to, sieve_block_tables

#: Conservative default envelope constants (c3, c5); desk-grid sanity only,
#: replace with fit_lemma31_constants output for tighter tail intervals.
DEFAULT_ENVELOPE = (10.0, 1.0)

#: Default Chebyshev constant: theta(x) <= 1.04 x on the classical
#: explicitly-verified range.
DEFAULT_CHEBYSHEV_C2 = 1.04


@dataclass(frozen=True)
class SumRecord:
    x: float
    m: float
    value: float  # exact integer when m is an integer
    terms: int


@dataclass(frozen=True)
class BoundMargin:
    """lhs vs rhs of an inequality; ratio <= 1 means the bound holds."""

    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs != 0 else math.inf


@dataclass(frozen=True)
class TailSeries:
    """Exact head over (x, cutoff] plus an analytic remainder interval."""

    head: float
    remainder_low: float
    remainder_high: float
    cutoff: int

    @property
    def upper(self) -> float:
        return self.head + self.remainder_high

    @property
    def lower(self) -> float:
        return self.head + self.remainder_low


def _sieve_walk(lo_n: int, hi_n: int):
    """Each sieve block [lo, hi] of [lo_n, hi_n] as (lo, hi, mu^2 mask, omega)."""
    base = primes_up_to(math.isqrt(hi_n))
    for lo, hi in iter_blocks(lo_n, hi_n):
        t = sieve_block_tables(lo, hi, base)
        omega = t.omega.astype(np.int64) + (t.cofactor > 1)
        yield lo, hi, t.squarefree, omega


@lru_cache(maxsize=32)
def _omega_histogram(x: int) -> tuple[int, ...]:
    """Counts of squarefree n <= x by omega(n); histogram[k] = #{n: omega=k}."""
    hist = np.zeros(20, dtype=np.int64)
    for _, _, squarefree, omega in _sieve_walk(1, x):
        counts = np.bincount(omega[squarefree], minlength=20)
        hist[: counts.size] += counts
    return tuple(int(c) for c in hist)


def t_sum(x: float, m: float) -> SumRecord:
    """Exact sum_{n<=x} mu^2(n) (m-1)^omega(n).

    Integer m keeps the arithmetic in exact integers; real m evaluates the
    omega histogram with an exactly-rounded float accumulation.
    """
    if not (math.isfinite(x) and x >= 1):
        raise DomainError(f"x must be finite and >= 1, got {x}")
    if not (math.isfinite(m) and m >= 1):
        raise DomainError(f"m must be finite and >= 1, got {m}")
    hist = _omega_histogram(int(x))
    terms = sum(hist)
    if float(m).is_integer():
        k = int(m) - 1
        value = sum(c * k**j for j, c in enumerate(hist))
        return SumRecord(x, m, value, terms)
    value = math.fsum(c * (m - 1.0) ** j for j, c in enumerate(hist))
    return SumRecord(x, m, value, terms)


def lemma31_margin(x: float, m: float, c3: float, c5: float) -> BoundMargin:
    """Margin of T(x, m) against the envelope c3 * m * x * (log x)^(c5 m)."""
    if x < 2:
        raise DomainError(f"envelope needs x >= 2, got {x}")
    if m <= 2 or c3 <= 0 or c5 <= 0:
        raise DomainError("need m > 2 and positive constants")
    lhs = float(t_sum(x, m).value)
    rhs = c3 * m * x * math.log(x) ** (c5 * m)
    return BoundMargin(lhs, rhs)


def fit_lemma31_constants(
    x_grid,
    m_grid,
    c5_grid=None,
    c3_cap: float = 10.0,
) -> tuple[float, float]:
    """Empirical witness (c3, c5) with all grid margins <= 1.

    Walks a logarithmic c5 grid from below and returns the first c5 whose
    minimal admissible c3 = max lhs/(m x (log x)^(c5 m)) stays <= c3_cap;
    that c3 makes the worst grid point tight.  Witnesses on a finite grid,
    nothing more.
    """
    xs = [float(x) for x in x_grid]
    ms = [float(m) for m in m_grid]
    if not xs or not ms:
        raise DomainError("fit grids must be nonempty")
    if not (all(x >= 2 for x in xs) and all(m > 2 for m in ms)):
        raise DomainError("fit needs x >= 2 and m > 2")
    if c5_grid is None:
        c5_grid = np.geomspace(0.05, 5.0, 80)
    lhs = {(x, m): float(t_sum(x, m).value) for x in xs for m in ms}
    best_c3 = math.inf
    for c5 in sorted(float(c) for c in c5_grid):
        needed = max(
            lhs[x, m] / (m * x * math.log(x) ** (c5 * m)) for x in xs for m in ms
        )
        best_c3 = min(best_c3, needed)
        if needed <= c3_cap:
            return needed, c5
    raise FitError(
        f"no (c3 <= {c3_cap}, c5) witness on the grid; smallest c3 seen "
        f"{best_c3:.3g}; this indicates an implementation bug, not a failure "
        "of the envelope shape"
    )


def weighted_head(x: float, m: float, sigma: float) -> float:
    """sum_{n<=x} mu^2(n) (m-1)^omega(n) n^-2sigma, compensated."""
    if not (math.isfinite(x) and x >= 1):
        raise DomainError(f"x must be finite and >= 1, got {x}")
    if not (m >= 1 and sigma > 0.5 and math.isfinite(m) and math.isfinite(sigma)):
        raise DomainError("need finite m >= 1 and sigma > 1/2")
    return _squarefree_weighted_sum(1, int(x), m, sigma)


def _squarefree_weighted_sum(lo_n: int, hi_n: int, m: float, sigma: float) -> float:
    """sum_{lo_n<=n<=hi_n} mu^2(n) (m-1)^omega(n) n^-2sigma, fsum per block."""
    parts: list[float] = []
    for lo, hi, squarefree, omega in _sieve_walk(lo_n, hi_n):
        n = np.arange(lo, hi + 1, dtype=np.float64)
        terms = np.where(
            squarefree, (m - 1.0) ** omega * power_weights(n, 2.0 * sigma), 0.0
        )
        parts.append(math.fsum(terms.tolist()))
    return math.fsum(parts)


def _integral_envelope_tail(
    cutoff: float, m: float, sigma: float, c3: float, c5: float
) -> float:
    """2 sigma c3 m * integral_cutoff^inf (log t)^(c5 m) t^-2sigma dt.

    Substituting u = log t turns the integral into an upper incomplete
    gamma: Gamma(a+1, b L) / b^(a+1) with a = c5 m, b = 2 sigma - 1,
    L = log cutoff.
    """
    a = c5 * m
    b = 2.0 * sigma - 1.0
    big_l = math.log(cutoff)
    with mp.workdps(40):
        integral = mp.gammainc(a + 1.0, b * big_l) / mp.power(b, a + 1.0)
        return float(2.0 * sigma * c3 * m * integral)


def tail_series(
    x: float,
    m: float,
    sigma: float,
    cutoff: float,
    envelope: tuple[float, float] = DEFAULT_ENVELOPE,
) -> TailSeries:
    """sum_{n>x} mu^2(n) (m-1)^omega(n) n^-2sigma with certified remainder.

    Terms with x < n <= cutoff are summed exactly; the n > cutoff rest is
    bracketed by [0, R] where R integrates the (c3, c5) envelope.  The
    interval is reported, never hidden.  m = 1 is exactly zero: every term
    past n = 1 carries the factor 0^omega(n) = 0.
    """
    if not (math.isfinite(sigma) and sigma > 0.5):
        raise DomainError(f"tail needs finite sigma > 1/2, got {sigma}")
    if not (math.isfinite(x) and math.isfinite(cutoff) and cutoff > x):
        raise DomainError(f"cutoff {cutoff} must be finite and exceed finite x {x}")
    if not (math.isfinite(m) and m >= 1):
        raise DomainError(f"m must be finite and >= 1, got {m}")
    if not all(map(math.isfinite, envelope)):
        raise DomainError(f"envelope constants must be finite, got {envelope}")
    if m == 1:
        return TailSeries(0.0, 0.0, 0.0, int(cutoff))
    hi_n = int(cutoff)
    head = _squarefree_weighted_sum(int(x) + 1, hi_n, m, sigma)
    c3, c5 = envelope
    remainder = _integral_envelope_tail(float(hi_n), m, sigma, c3, c5)
    return TailSeries(head, 0.0, remainder, hi_n)


def lemma32_bound(
    x: float,
    m: float,
    sigma: float,
    c7: float,
    c5: float,
    c8: float,
    cutoff: float | None = None,
    envelope: tuple[float, float] = DEFAULT_ENVELOPE,
) -> BoundMargin:
    """Tail sum against c7^m m^(c5 m) (sigma-1/2)^(-c8 m) (log x)^(c5 m) x^(1-2sigma)."""
    if x < 2:
        raise DomainError(f"x must be >= 2, got {x}")
    if m <= 2 or not 0.5 < sigma < 1.0:
        raise DomainError("need m > 2 and sigma in (1/2, 1)")
    if cutoff is None:
        cutoff = max(1_000_000.0, 64.0 * x)
    lhs = tail_series(x, m, sigma, cutoff, envelope).upper
    log_rhs = (
        m * math.log(c7)
        + c5 * m * math.log(m)
        - c8 * m * math.log(sigma - 0.5)
        + c5 * m * math.log(math.log(x))
        + (1.0 - 2.0 * sigma) * math.log(x)
    )
    return BoundMargin(lhs, math.exp(log_rhs))


def mertens_sum(x: float) -> float:
    """sum_{p<=x} 1/p, exactly-rounded accumulation over sieved primes."""
    if not (math.isfinite(x) and x >= 2):
        raise DomainError(f"x must be finite and >= 2, got {x}")
    primes = primes_up_to(int(x)).primes.astype(np.float64)
    return math.fsum((1.0 / primes).tolist())


def mertens_sum_exact(x: float) -> Fraction:
    """sum_{p<=x} 1/p as an exact rational; denominators grow fast."""
    if not 2 <= x <= 10_000:
        raise DomainError(f"exact rational form needs 2 <= x <= 10^4, got {x}")
    return sum(
        (Fraction(1, int(p)) for p in primes_up_to(int(x)).primes.tolist()),
        Fraction(0),
    )


def chebyshev_sum(
    x: float, m: float, c2: float = DEFAULT_CHEBYSHEV_C2
) -> BoundMargin:
    """(m-1) sum_{p<=x} log p against c2 (m-1) x."""
    if not (math.isfinite(x) and x >= 2):
        raise DomainError(f"x must be finite and >= 2, got {x}")
    if not (m > 1 and math.isfinite(m) and math.isfinite(c2)):
        raise DomainError(f"need finite m > 1 and c2, got m={m}, c2={c2}")
    theta = math.fsum(
        np.log(primes_up_to(int(x)).primes.astype(np.float64)).tolist()
    )
    return BoundMargin((m - 1.0) * theta, c2 * (m - 1.0) * x)


# ---------------------------------------------------------------------------
# zeta and prime zeta

_BERNOULLI_2K = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)
_EM_TERMS = len(_BERNOULLI_2K)  # 8 correction terms, remainder via the 9th
_B18 = Fraction(43867, 798)


def _zeta_em(s, n_cut: int):
    """Euler-Maclaurin partial: value and the magnitude of the 9th term."""
    value = mp.fsum(mp.power(n, -s) for n in range(1, n_cut))
    value += mp.power(n_cut, 1 - s) / (s - 1) + mp.power(n_cut, -s) / 2
    rising = mp.mpf(1)
    for k, b2k in enumerate(_BERNOULLI_2K, start=1):
        rising *= s + (2 * k - 2)
        value += (
            mp.mpf(b2k.numerator)
            / b2k.denominator
            / mp.factorial(2 * k)
            * rising
            * mp.power(n_cut, -s - 2 * k + 1)
        )
        rising *= s + (2 * k - 1)
    k = _EM_TERMS + 1
    rising *= s + (2 * k - 2)
    omitted = abs(
        mp.mpf(_B18.numerator)
        / _B18.denominator
        / mp.factorial(2 * k)
        * rising
        * mp.power(n_cut, -s - 2 * k + 1)
    )
    return value, omitted


def _zeta_mp(s) -> mp.mpf:
    """zeta(s) for real s > 1 with truncation certified below 1e-13 relative."""
    s = mp.mpf(s)
    n_cut = 16
    while True:
        value, omitted = _zeta_em(s, n_cut)
        # for real s > 0 the Euler-Maclaurin remainder is bounded by the
        # first omitted correction term
        if omitted <= 1e-14 * value:
            return value
        n_cut *= 2


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin, 8 correction terms."""
    if not (math.isfinite(s) and s > 1):
        raise DomainError(f"zeta evaluated only for finite s > 1, got {s}")
    with mp.workdps(40):
        return float(_zeta_mp(s))


def mobius(k: int) -> int:
    sig = arith_signature(k)
    if not sig.is_squarefree:
        return 0
    return -1 if sig.omega & 1 else 1


def _log_zeta(y) -> mp.mpf:
    """log zeta(y); for large y a short direct series with negligible tail."""
    if y <= 64:
        return mp.log(_zeta_mp(y))
    tail = mp.mpf(0)
    for n in range(2, 8):
        tail += mp.power(n, -y)
    # remaining n >= 8 contribute < 2 * 8^-y < 2^-189, far below working prec
    return mp.log1p(tail)


def prime_zeta(s: float) -> float:
    """P(s) = sum_p p^-s via sum_k mu(k)/k log zeta(k s), certified tail.

    The k-tail obeys log zeta(ks) <= 3 * 2^-ks for ks >= 3, so truncation
    after K terms leaves less than 3 * 2^-(K+1)s, driven below 1e-14.
    """
    if not (math.isfinite(s) and s > 1):
        raise DomainError(f"prime zeta evaluated only for finite s > 1, got {s}")
    k_max = max(4, math.ceil(50.0 / s))
    with mp.workdps(40):
        acc = mp.mpf(0)
        for k in range(1, k_max + 1):
            mu = mobius(k)
            if mu == 0:
                continue
            acc += mp.mpf(mu) / k * _log_zeta(mp.mpf(k) * s)
        return float(acc)
