"""Exact evaluation of squarefree-weighted sums and their bounding envelopes.

The central object is T(x, m) = sum_{n<=x} mu^2(n) (m-1)^omega(n), computed
exactly from segmented-sieve omega histograms, together with the weighted
tail sum_{n>x} mu^2(n) (m-1)^omega(n) n^-2sigma.  Envelope constants of the
shape c3 * m * x * (log x)^(c5 m) are existential: this module fits
empirical witnesses on finite grids and reports margins, it never claims
universal constants.  Analytic tail remainders are returned as explicit
intervals, not folded into point values.

Also here: Mertens and Chebyshev prime sums, the Riemann zeta function
from mpmath (Borwein's algorithm, which has an a-priori error bound), and
the prime zeta function P(s) = sum_p p^-s through the Moebius identity
P(s) = sum_k mu(k)/k * log zeta(k s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import NoConvergence

from .accum import exact_sum, power_weights
from .errors import DomainError, FitError
from .sieve import arith_signature, primes_up_to, sieve_walk

#: Conservative default envelope constants (c3, c5); desk-grid sanity only,
#: replace with fit_lemma31_constants output for tighter tail intervals.
DEFAULT_ENVELOPE = (10.0, 1.0)

#: largest |c5 m| for the envelope's incomplete gamma: mpmath answers at once
#: up to here, and stalls at exponents near 10^9 with arguments close to them
ENVELOPE_EXPONENT_LIMIT = 10**6

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


#: Most omega histograms kept by _omega_histograms; each is 20 ints
HISTOGRAM_CACHE = 32

_histograms: dict[int, tuple[int, ...]] = {}


def _omega_histograms(xs) -> list[tuple[int, ...]]:
    """Counts of squarefree n <= x by omega(n) for each x of xs.

    histogram[k] = #{n <= x: omega(n) = k}.  The x not cached yet share one
    sieve_walk to the largest of them, whose pieces are cut at each.  The
    call's histograms are returned from its own dict; the cache, emptied
    first where the new x would pass HISTOGRAM_CACHE entries, keeps only
    as many of them as fit.
    """
    xs = [int(x) for x in xs]
    found = {x: _histograms[x] for x in xs if x in _histograms}
    todo = sorted(set(xs).difference(found))
    hist = np.zeros(20, dtype=np.int64)
    stops = iter(todo)
    stop = next(stops, None)
    for t in sieve_walk(1, todo[-1]) if todo else ():
        lo = t.lo
        while lo <= t.hi:
            cut = t.rows(lo, min(stop, t.hi))
            omega = np.take(cut.omega, np.flatnonzero(cut.squarefree))
            counts = np.bincount(omega, minlength=20)
            hist[: counts.size] += counts
            if cut.hi == stop:
                found[stop] = tuple(int(c) for c in hist)
                stop = next(stops, None)
            lo = cut.hi + 1
    if len(_histograms) + len(todo) > HISTOGRAM_CACHE:
        _histograms.clear()
    for x in todo[:HISTOGRAM_CACHE]:
        _histograms[x] = found[x]
    return [found[x] for x in xs]


def _omega_histogram(x: int) -> tuple[int, ...]:
    """Counts of squarefree n <= x by omega(n); histogram[k] = #{n: omega=k}."""
    return _omega_histograms([x])[0]


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


def _t_float(x: float, m: float) -> float:
    """T(x, m) as a float; DomainError where it passes float64."""
    try:
        return float(t_sum(x, m).value)
    except OverflowError:
        raise DomainError(f"T({x:g}, {m:g}) is too large for float64") from None


def _log_power(x: float, e: float) -> float:
    """(log x)^e, inf where it passes float64."""
    try:
        return math.log(x) ** e
    except OverflowError:
        return math.inf


def lemma31_margin(x: float, m: float, c3: float, c5: float) -> BoundMargin:
    """Margin of T(x, m) against the envelope c3 * m * x * (log x)^(c5 m)."""
    if x < 2:
        raise DomainError(f"envelope needs x >= 2, got {x}")
    if m <= 2 or c3 <= 0 or c5 <= 0:
        raise DomainError("need m > 2 and positive constants")
    return BoundMargin(_t_float(x, m), c3 * m * x * _log_power(x, c5 * m))


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
    nothing more: a c3 that underflowed to 0 is none.
    """
    xs = [float(x) for x in x_grid]
    ms = [float(m) for m in m_grid]
    if not xs or not ms:
        raise DomainError("fit grids must be nonempty")
    if not (all(x >= 2 for x in xs) and all(m > 2 for m in ms)):
        raise DomainError("fit needs x >= 2 and m > 2")
    if c5_grid is None:
        c5_grid = np.geomspace(0.05, 5.0, 80)
    _omega_histograms(x for x in xs if math.isfinite(x))  # one walk for all of xs
    lhs = {(x, m): _t_float(x, m) for x in xs for m in ms}
    best_c3 = math.inf
    for c5 in sorted(float(c) for c in c5_grid):
        envelopes = [(lhs[x, m], m * x * _log_power(x, c5 * m)) for x in xs for m in ms]
        needed = max(t / e if e else math.inf for t, e in envelopes)
        if 0.0 < needed <= c3_cap:
            return needed, c5
        best_c3 = min(best_c3, needed)
    why = "this indicates an implementation bug, not a failure of the envelope shape"
    if min(xs) < math.e:
        why = "for x < e, (log x)^(c5 m) falls as c5 grows"
    elif best_c3 == 0.0:
        why = "a c3 of 0 underflowed where every (log x)^(c5 m) passed float64"
    seen = f"smallest c3 seen {best_c3:.3g}"
    raise FitError(f"no (c3 <= {c3_cap}, c5) witness on the grid; {seen}; {why}")


def weighted_head(x: float, m: float, sigma: float) -> float:
    """sum_{n<=x} mu^2(n) (m-1)^omega(n) n^-2sigma, one exact sum per sieve piece."""
    if not (math.isfinite(x) and x >= 1):
        raise DomainError(f"x must be finite and >= 1, got {x}")
    if not (m >= 1 and sigma > 0.5 and math.isfinite(m) and math.isfinite(sigma)):
        raise DomainError("need finite m >= 1 and sigma > 1/2")
    return _squarefree_weighted_sum(1, int(x), m, sigma)


def _squarefree_weighted_sum(lo_n: int, hi_n: int, m: float, sigma: float) -> float:
    """sum_{lo_n<=n<=hi_n} mu^2(n) (m-1)^omega(n) n^-2sigma, exact per piece.

    Each sieve_walk piece, TERM_ROWS integers from lo_n, gets one correctly
    rounded accum.exact_sum of its squarefree terms alone, as zeros do not
    move it, with (m-1)^omega read from a table, and the pieces' sums are
    fsummed.  DomainError where the sum is not finite, as when (m-1)^omega
    = inf meets 0 or the terms add up past float64.
    """
    parts: list[float] = []
    powers = np.empty(0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN end below
            for t in sieve_walk(lo_n, hi_n):
                if powers.size <= (top := int(t.omega.max())):
                    powers = (m - 1.0) ** np.arange(top + 1, dtype=t.omega.dtype)
                rows = np.flatnonzero(t.squarefree)
                terms = powers[np.take(t.omega, rows)]
                rows = rows + float(t.lo)  # n as float64, and the int64 rows go
                terms *= power_weights(rows, 2.0 * sigma)
                parts.append(exact_sum(terms))
        total = math.fsum(parts)
    except OverflowError:  # a piece's sum or the fsum of them passed float64
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"the weighted sum over [{lo_n}, {hi_n}] leaves float64")
    return total


def _integral_envelope_tail(
    cutoff: float, m: float, sigma: float, c3: float, c5: float
) -> float:
    """2 sigma c3 m * integral_cutoff^inf (log t)^(c5 m) t^-2sigma dt.

    Substituting u = log t turns the integral into an upper incomplete
    gamma: Gamma(a+1, b L) / b^(a+1) with a = c5 m, b = 2 sigma - 1,
    L = log cutoff.
    """
    a = c5 * m
    if not abs(a) <= ENVELOPE_EXPONENT_LIMIT:
        raise DomainError(f"c5 m = {a:.6g} exceeds {ENVELOPE_EXPONENT_LIMIT}")
    two_sigma, big_l = 2.0 * sigma, math.log(cutoff)
    with mp.workdps(40):
        scale = two_sigma * c3 * m
        if not scale < math.inf:  # 2 sigma or the product left float64, not mpmath
            two_sigma = 2 * mp.mpf(sigma)
            scale = two_sigma * c3 * m
        b = two_sigma - 1.0
        try:
            integral = mp.gammainc(a + 1.0, b * big_l) / mp.power(b, a + 1.0)
        except NoConvergence:
            raise DomainError(f"incomplete gamma failed at c5 m = {a:.6g}") from None
        value = float(scale * integral)
    if not math.isfinite(value):
        raise DomainError("the envelope remainder is too large for float64")
    return value


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
    interval is reported, never hidden.  The envelope integral starts at
    int(cutoff), and is finite for every c5 m only from 2 on, where log t >
    0, so a cutoff below 2 is refused.  m = 1 is exactly zero: every term
    past n = 1 carries the factor 0^omega(n) = 0.
    """
    if not (math.isfinite(sigma) and sigma > 0.5):
        raise DomainError(f"tail needs finite sigma > 1/2, got {sigma}")
    if not (math.isfinite(x) and math.isfinite(cutoff) and cutoff > x):
        raise DomainError(f"cutoff {cutoff} must be finite and exceed finite x {x}")
    if cutoff < 2:
        raise DomainError(f"the envelope needs a cutoff >= 2, got {cutoff}")
    if not (math.isfinite(m) and m >= 1):
        raise DomainError(f"m must be finite and >= 1, got {m}")
    if not (all(map(math.isfinite, envelope)) and envelope[0] >= 0):
        raise DomainError(f"envelope needs finite c3 >= 0 and c5, got {envelope}")
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
    if not all(map(math.isfinite, (x, m, sigma, c7, c5, c8))):
        raise DomainError("x, m, sigma and the constants c7, c5, c8 must be finite")
    if c7 <= 0:
        raise DomainError(f"c7 must be > 0, got {c7}")
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
    try:
        return BoundMargin(lhs, math.exp(log_rhs))
    except OverflowError as exc:
        raise DomainError(f"the right side e^{log_rhs:.6g} overflows float64") from exc


def mertens_sum(x: float) -> float:
    """sum_{p<=x} 1/p, correctly rounded (accum.exact_sum) over sieved primes."""
    if not (math.isfinite(x) and x >= 2):
        raise DomainError(f"x must be finite and >= 2, got {x}")
    primes = primes_up_to(int(x)).primes.astype(np.float64)
    return exact_sum(1.0 / primes)


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
    """(m-1) sum_{p<=x} log p against c2 (m-1) x; either past float64 is refused."""
    if not (math.isfinite(x) and x >= 2):
        raise DomainError(f"x must be finite and >= 2, got {x}")
    if not (m > 1 and math.isfinite(m) and math.isfinite(c2)):
        raise DomainError(f"need finite m > 1 and c2, got m={m}, c2={c2}")
    theta = exact_sum(np.log(primes_up_to(int(x)).primes.astype(np.float64)))
    if not math.isfinite(lhs := (m - 1.0) * theta):
        raise DomainError(f"(m - 1) theta(x) is too large for float64 at m={m}")
    if not math.isfinite(rhs := c2 * (m - 1.0) * x):
        raise DomainError(f"c2 (m - 1) x is too large for float64 at c2={c2}, m={m}")
    return BoundMargin(lhs, rhs)


# ---------------------------------------------------------------------------
# zeta and prime zeta


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1: mpmath's zeta (Borwein) at 40 digits."""
    if not (math.isfinite(s) and s > 1):
        raise DomainError(f"zeta evaluated only for finite s > 1, got {s}")
    with mp.workdps(40):
        return float(mp.zeta(s))


def mobius(k: int) -> int:
    sig = arith_signature(k)
    if not sig.is_squarefree:
        return 0
    return -1 if sig.omega & 1 else 1


def _log_zeta(y) -> mp.mpf:
    """log zeta(y); for y > 64 a short direct series with negligible tail.

    At 40 digits zeta(y) rounds to 1 + O(2^-y) and its log would lose the
    2^-y part, so large y sums log1p(2^-y + ... + 7^-y) instead.
    """
    if y <= 64:
        return mp.log(mp.zeta(y))
    tail = sum(mp.power(n, -y) for n in range(2, 8))
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
            if mu := mobius(k):
                acc += mp.mpf(mu) / k * _log_zeta(mp.mpf(k) * s)
        return float(acc)
