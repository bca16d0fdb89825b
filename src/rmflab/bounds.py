"""Closed-form bound evaluators and the closed-form kappa and epsilon they use.

The working regime ties sigma to a horizon through
log x = (sigma - 1/2)^(-1/theta), which makes x itself astronomically
large (e^10000 and beyond).  Every evaluator therefore works in log
space, materializes a linear value only when representable, and raises
explicit overflow/underflow flags instead of silently saturating.

The paper's constants (the c_j family, kappa, epsilon, beta) are
existential, so each evaluator takes them as keyword arguments: kappa
defaults to optimize_kappa(m), and lemma41_bound's epsilon and beta to
optimize_epsilon at c9 = c10 = c11 = 1.  A BoundReport carries values only.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Mapping

from .errors import DivergenceError, DomainError
from .explicit import DEFAULT_ENVELOPE, prime_zeta, tail_series
from .sieve import TERM_ROWS, iter_blocks, sieve_block_tables, walk_base

_LOG2 = math.log(2.0)
#: exp arguments beyond which float64 overflows, and below which it underflows
_EXP_MAX, _EXP_MIN = 709.0, -745.0
#: most bits an exact sum or power may reach, about 5 times what json writes
EXACT_BITS_LIMIT = 1 << 16


def check_bits(value: int, power: int, what: str) -> None:
    """DomainError where |value|^power, >= 2^((bits-1) power), may pass the limit."""
    if (abs(value).bit_length() - 1) * max(power, 1) > EXACT_BITS_LIMIT:
        raise DomainError(f"{what} to the power {power} passes {EXACT_BITS_LIMIT} bits")


def exact_ints(pairs, power: int) -> tuple[int, list[int]]:
    """The least common denominator D of (n, a(n)) pairs, and the ints D a(n).

    DomainError where an a(n) is not finite, as soon as D to the power power
    may pass EXACT_BITS_LIMIT bits, and where the sum of the |D a(n)|, which
    bounds every sum of them, may; TypeError where an a(n) is not rational.
    """
    denom, fractions = 1, []
    for n, a in pairs:
        if hasattr(a, "__index__"):
            q = operator.index(a)  # a Python int, from a numpy integer too
        else:
            try:
                q = a if type(a) is Fraction else Fraction(a)
            except (ValueError, OverflowError):
                raise DomainError(f"coefficient a({n}) = {a} is not finite") from None
        fractions.append(q)
        if denom % q.denominator:
            denom = math.lcm(denom, q.denominator)
            check_bits(denom, power, "the common denominator")
    ints = [denom // q.denominator * q.numerator for q in fractions]
    check_bits(sum(map(abs, ints)), power, "the sum of the |D a(n)|")
    return denom, ints


def _linear(log_value: float) -> float:
    """e^log_value, or inf / 0.0 where float64 over- / underflows."""
    if log_value > _EXP_MAX:
        return math.inf
    if log_value < _EXP_MIN:
        return 0.0
    return math.exp(log_value)


@dataclass(frozen=True)
class RegimeParams:
    """Working regime: sigma near 1/2 with log x = (sigma-1/2)^(-1/theta)."""

    sigma: float
    theta: float
    delta: float
    log_x: float
    x_is_finite_representable: bool


def _regime(theta: float, delta: float, sigma=None, log_x=None) -> RegimeParams:
    """Check theta and delta, then derive log x from sigma or sigma from log x."""
    if not 0.0 < theta <= 1.0:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be finite and > 0, got {delta}")
    if log_x is None:
        try:
            log_x = math.exp(-math.log(sigma - 0.5) / theta)
        except OverflowError:
            raise DomainError(f"log x overflows float64 at sigma={sigma}") from None
    else:
        sigma = 0.5 + log_x**-theta
    return RegimeParams(sigma, theta, delta, log_x, _linear(log_x) < math.inf)


def regime_from_sigma(sigma: float, theta: float, delta: float) -> RegimeParams:
    """Build the regime from sigma; theta = 1 is allowed as a boundary check."""
    if not 0.5 < sigma <= 1.0:
        raise DomainError(f"sigma must lie in (1/2, 1], got {sigma}")
    return _regime(theta, delta, sigma=sigma)


def regime_from_log_x(log_x: float, theta: float, delta: float) -> RegimeParams:
    """Regime addressed directly by log x (larger-x explorations)."""
    if not (math.isfinite(log_x) and log_x > 1.0):
        raise DomainError(f"log x must be finite and > 1, got {log_x}")
    return _regime(theta, delta, log_x=log_x)


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its log always populated.

    When the linear value over- or underflows float64 it is reported as
    inf / 0.0 together with a flag; log_value (or the extras) still carry
    the full information.
    """

    name: str
    value: float
    log_value: float
    flags: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)


def _report(name: str, log_value: float, **extras) -> BoundReport:
    if math.isnan(log_value):
        raise DomainError(f"{name} is NaN: its terms leave float64")
    value = _linear(log_value)
    flags: tuple[str, ...] = ()
    if value == math.inf:
        flags = ("OVERFLOW",)
    elif value == 0.0:
        flags = ("UNDERFLOW",)
        if log_value == -math.inf:
            flags += ("LOG_OVERFLOW",)
    return BoundReport(name, value, log_value, flags, extras)


def _log_power_ratio(r: RegimeParams, scale: float, a: float, b: float) -> float:
    """scale (log x)^a / (log log x)^b; DomainError where float64 cannot hold it."""
    if r.log_x <= 1.0:
        raise DomainError(f"log x must exceed 1, got {r.log_x}")
    ll = math.log(r.log_x)
    try:
        value = scale * r.log_x**a / ll**b
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"(log x)^{a:.6g} / (log log x)^{b:.6g} leaves float64")
    return value


def _theorem1_exponent(r: RegimeParams) -> float:
    """(1/2theta) (log x)^(2-2theta) / (log log x)^(1+2delta)."""
    return _log_power_ratio(
        r, 1.0 / (2.0 * r.theta), 2.0 - 2.0 * r.theta, 1.0 + 2.0 * r.delta
    )


def theorem1_lower_bound(r: RegimeParams) -> BoundReport:
    """1 - exp(-(1/2theta) (log x)^(2-2theta) / (log log x)^(1+2delta)).

    Lower bound on the probability that the partial sums stay positive
    beyond the regime's horizon.  The exponent is reported in extras.
    """
    exponent = _theorem1_exponent(r)
    value = -math.expm1(-exponent)
    if value < 1.0:  # 0 where the exponent underflowed
        log_value = math.log(value) if value > 0 else -math.inf
    else:
        # value rounded up to 1: log1p(-e^-E) ~ -e^-E keeps the deficit
        log_value = math.log1p(-math.exp(-exponent))
    return BoundReport(
        "theorem1_lower_bound", value, log_value, extras={"exponent": exponent}
    )


def corollary_upper_bound(r: RegimeParams) -> BoundReport:
    """exp(-exponent): probability of some negative partial sum beyond x."""
    exponent = _theorem1_exponent(r)
    return _report("corollary_upper_bound", -exponent, exponent=exponent)


def index_span(coeffs: Mapping[int, object]) -> tuple[int, int, bool]:
    """The least and greatest index of coeffs, and whether it holds all between.

    A map whose indices are a range(first, last + 1), as oracle.PowerCoeffs'
    are, is read from it without a scan; the keys of any other map are
    scanned, and it is not taken to hold every index.  A map with no index
    gives (1, 0).
    """
    indices = getattr(coeffs, "indices", None)
    if isinstance(indices, range):
        return indices.start, indices.stop - 1, True
    return min(coeffs, default=1), max(coeffs, default=0), False


def _squarefree_terms(coeffs: Mapping[int, object]):
    """Yield (n, a(n), omega(n)) for each squarefree index n, ascending.

    Only the TERM_ROWS blocks of [min index, max index] that hold an index
    are sieved, in the span's term budget.  Each a(n) is read once, as its
    block is reached; DomainError where one is not finite.
    """
    first, last, whole = index_span(coeffs)
    if first < 1:
        raise DomainError(f"coefficient index {first} must be >= 1")
    held = None if whole else {(n - first) // TERM_ROWS for n in coeffs}
    base = walk_base(first, last)
    for lo, hi in iter_blocks(first, last, TERM_ROWS):
        if held is not None and (lo - first) // TERM_ROWS not in held:
            continue
        t, ns = sieve_block_tables(lo, hi, base), range(lo, hi + 1)
        cells = zip(ns, map(coeffs.get, ns), t.squarefree.tolist(), t.omega.tolist())
        for n, a, squarefree, omega in cells:
            if a is None:
                continue
            # ints and Fractions are finite; isinstance(a, Fraction) is slow on a float
            if not (type(a) is Fraction or isinstance(a, int) or math.isfinite(a)):
                raise DomainError(f"coefficient a({n}) = {a} is not finite")
            if squarefree:
                yield n, a, omega


def bh_rhs(coeffs: Mapping[int, object], m: float):
    """Moment-inequality right side (sum mu^2 |a|^2 (m-1)^omega)^(m/2).

    Exact Fraction when the coefficients are rational and m is an even
    integer: each run of TERM_ROWS terms is summed over the denominator of
    its exact_ints, within the bit budget.  Float otherwise, by one fsum.
    """
    if not (math.isfinite(m) and m >= 2):
        raise DomainError(f"moment order must be finite and >= 2, got {m}")
    if m % 2 == 0:  # an even integer order: the exact value
        p, total, terms = int(m), Fraction(0), _squarefree_terms(coeffs)
        try:
            while run := list(islice(terms, TERM_ROWS)):
                d, ints = exact_ints(((n, a) for n, a, _ in run), p)
                part = sum(i * i * (p - 1) ** w for i, (_, _, w) in zip(ints, run))
                total += Fraction(part, d * d)  # sum a(n)^2 (m-1)^omega(n) so far
                check_bits(total.denominator, p // 2, "the common denominator")
        except TypeError:
            pass  # non-rational coefficient type: fall through to floats
        else:
            check_bits(total.numerator, p // 2, "the exact sum")
            return total ** (p // 2)
    terms = _squarefree_terms(coeffs)
    try:
        value = math.fsum(float(a) ** 2 * (m - 1.0) ** w for _, a, w in terms)
        value **= m / 2.0
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError("the right side overflows float64")
    return value


def maximal_bound(
    threshold: float,
    m: float,
    x: float,
    sigma: float,
    kappa: float | None = None,
    cutoff: float | None = None,
    envelope: tuple[float, float] = DEFAULT_ENVELOPE,
) -> BoundReport:
    """kappa^2m / lambda^m * (tail weighted sum)^(m/2), in log space.

    Bounds P(sup_{y>x} |sum_{n>y} f(n) n^-sigma| >= lambda) by combining
    the maximal inequality with the moment inequality; requires the
    square-summability margin sigma > 1/2 (the convergence precondition).
    """
    finite = all(map(math.isfinite, (threshold, m, sigma, x)))
    if not (finite and threshold > 0 and m > 2 and sigma > 0.5 and x >= 2):
        raise DomainError("need finite lambda > 0, m > 2, sigma > 1/2, x >= 2")
    if kappa is None:
        _, kappa = optimize_kappa(m)
    if not (math.isfinite(kappa) and kappa > 0):
        raise DomainError(f"kappa must be finite and > 0, got {kappa}")
    if cutoff is None:
        cutoff = max(1_000_000.0, 64.0 * x)
    tail_upper = tail_series(x, m, sigma, cutoff, envelope).upper
    log_tail = math.log(tail_upper) if tail_upper != 0 else -math.inf
    log_value = 2.0 * m * math.log(kappa) - m * math.log(threshold) + 0.5 * m * log_tail
    return _report("maximal_bound", log_value, kappa=kappa, tail_upper=tail_upper)


class VarianceMode(enum.Enum):
    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


def hoeffding_bound(
    threshold: float, sigma: float, variance_mode: VarianceMode = VarianceMode.EXACT
) -> BoundReport:
    """Sub-Gaussian tail exp(-lambda^2 / (2 Q)) for sum_p f(p) p^-sigma.

    EXACT uses the true variance proxy Q = P(2 sigma) (prime zeta);
    ASYMPTOTIC substitutes Q = log(1/(sigma - 1/2)) with its vanishing
    correction set to zero.  Both conventions are reported side by side by
    the CLI; neither invents the correction term as a number.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise DomainError(f"lambda must be finite and >= 0, got {threshold}")
    if not (math.isfinite(sigma) and sigma > 0.5):
        raise DomainError(f"sigma must be finite and > 1/2, got {sigma}")
    if variance_mode is VarianceMode.EXACT:
        q = prime_zeta(2.0 * sigma)
    else:
        q = math.log(1.0 / (sigma - 0.5))
        if q <= 0:
            raise DomainError(
                f"asymptotic variance proxy nonpositive at sigma={sigma}"
            )
    # P(2 sigma) underflows to 0 beyond sigma = 537: the bound is 0 there if lambda > 0
    log_zero = -math.inf if threshold else 0.0
    log_value = -threshold * threshold / (2.0 * q) if q else log_zero
    return _report("hoeffding_bound", log_value, variance_proxy=q)


def billingsley_constant(alpha: float, beta: float, theta_param: float) -> float:
    """Maximal-inequality constant K = 2^(2a+4b) (1-t)^(-4b) / (1 - t^(-4b) 2^(1-2a)).

    Raises DivergenceError when the underlying geometric series does not
    converge, i.e. theta^(4 beta) * 2^(2 alpha - 1) <= 1.
    """
    if not (alpha > 0.5 and beta >= 0 and math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError("need finite alpha > 1/2 and beta >= 0")
    if not 0.0 < theta_param < 1.0:
        raise DomainError(f"theta must lie in (0, 1), got {theta_param}")
    # geometric ratio 1 / (theta^4beta 2^(2alpha-1)) must be < 1
    log_ratio = -4.0 * beta * math.log(theta_param) + (1.0 - 2.0 * alpha) * _LOG2
    if math.isnan(log_ratio):  # inf - inf: both terms overflowed
        raise DomainError("theta^(4 beta) and 2^(2 alpha - 1) both leave float64")
    if log_ratio >= 0.0:
        raise DivergenceError(
            f"series diverges: theta^(4 beta) 2^(2 alpha - 1) = "
            f"{math.exp(-log_ratio):.6g} <= 1"
        )
    return _linear(
        (2.0 * alpha + 4.0 * beta) * _LOG2
        - 4.0 * beta * math.log1p(-theta_param)
        - math.log1p(-math.exp(log_ratio))
    )


def optimize_kappa(m: float) -> tuple[float, float]:
    """Minimize K^(1/2m) over admissible theta at 2 alpha = m/2, 4 beta = m.

    Returns (theta_star, kappa) with kappa = K(theta_star)^(1/(2m)), which
    enters the maximal bound as kappa^(2m).  d log K / d theta vanishes only
    where theta = theta^(-m) 2^(1-m/2): at theta_star = 2^(-(m-2)/(2(m+1))),
    admissible for every m > 2.  K's denominator is 1 - theta_star there, so
    kappa = 2^(3/4) (1 - theta_star)^(-(m+1)/(2m)), with 1 - theta_star from
    expm1: near m = 2 theta_star rounds to 1.0, but kappa keeps its precision.
    """
    if not (math.isfinite(m) and m > 2):
        raise DomainError(f"m must be finite and > 2, got {m}")
    exponent = -0.5 * (m - 2.0) / (m + 1.0)
    gap = -math.expm1(_LOG2 * exponent)
    # (m+1)/(2m) = 3/4 - (m-2)/(4m): no rounded exponent meets a large log(gap)
    kappa = (2.0 / gap) ** 0.75 * gap ** (0.25 * (m - 2.0) / m)
    return 2.0**exponent, kappa


def lambda_threshold(r: RegimeParams) -> float:
    """log lambda = -log 2 - (1/2) (log x)^(1-theta) / (log log x)^delta.

    The threshold separating the Euler-product event from the tail-sup
    event; returned in log space because lambda itself underflows deep in
    the regime.
    """
    return -_LOG2 - _log_power_ratio(r, 0.5, 1.0 - r.theta, r.delta)


def optimize_epsilon(
    c9: float, c10: float, c11: float, theta: float
) -> tuple[float, float]:
    """Exact vertex of w(eps) = eps^2 c12 - eps c11, c12 = c9(1-theta)+c9+c10 theta.

    Returns (eps0, beta) with eps0 = c11 / (2 c12) and beta = -w(eps0) =
    c11^2 / (4 c12) > 0.
    """
    if not all(math.isfinite(c) and c > 0 for c in (c9, c10, c11)):
        raise DomainError("c9, c10, c11 must be finite and positive")
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0, 1), got {theta}")
    # scaled by a power of two, which is exact, so that no product overflows
    k = math.frexp(max(c9, c10, c11))[1]
    c9, c10, c11 = (math.ldexp(c, -k) for c in (c9, c10, c11))
    c12 = c9 * (1.0 - theta) + c9 + c10 * theta
    try:
        eps0, beta = c11 / (2.0 * c12), math.ldexp(c11 * c11 / (4.0 * c12), k)
    except (ZeroDivisionError, OverflowError):  # c12 underflowed, beta overflows
        eps0 = beta = math.inf
    if not (0.0 < eps0 < math.inf and 0.0 < beta < math.inf):
        raise DomainError(f"epsilon = {eps0:.6g} or beta = {beta:.6g} leaves float64")
    return eps0, beta


def lemma41_bound(
    r: RegimeParams,
    threshold: float | None = None,
    log_threshold: float | None = None,
    epsilon: float | None = None,
    beta: float | None = None,
) -> BoundReport:
    """Optimized sup-tail bound in the regime, moment order chosen inside.

    log bound = -beta (log x)^(2-2theta)/log log x
                + eps log(1/lambda) (log x)^(1-theta)/log log x,
    with the induced moment order m = eps (log x)^(1-theta)/log log x
    reported both real-valued and rounded (the moment inequality needs
    m >= 2 real, not integer).
    """
    if log_threshold is None:
        if threshold is None or not threshold > 0:
            raise DomainError("need lambda > 0 (or log_threshold)")
        log_threshold = math.log(threshold)
    if epsilon is None or beta is None:
        eps0, beta0 = optimize_epsilon(1.0, 1.0, 1.0, r.theta)
        epsilon = eps0 if epsilon is None else epsilon
        beta = beta0 if beta is None else beta
    if not all(map(math.isfinite, (log_threshold, epsilon, beta))):
        raise DomainError("log lambda, epsilon and beta must be finite")
    scale_main = _log_power_ratio(r, 1.0, 2.0 - 2.0 * r.theta, 1.0)
    scale_lam = _log_power_ratio(r, 1.0, 1.0 - r.theta, 1.0)
    term_beta = -beta * scale_main
    term_lambda = epsilon * (-log_threshold) * scale_lam
    m_real = epsilon * scale_lam
    return _report(
        "lemma41_bound",
        term_beta + term_lambda,
        term_beta=term_beta,
        term_lambda=term_lambda,
        m_real=m_real,
        m_rounded=max(3.0, m_real if math.isinf(m_real) else float(round(m_real))),
    )


def angelo_xu_bound(log_x: float, beta_prime: float) -> BoundReport:
    """Doubly exponential comparison bound exp(-exp(beta' log x / log log x)).

    For the completely multiplicative variant at sigma = 1.  The inner
    exponent is always reported; log_value itself is -exp(inner) and is
    flagged when it overflows the linear range.
    """
    if not (math.isfinite(log_x) and log_x > 1.0):
        raise DomainError(f"log x must be finite and > 1, got {log_x}")
    if not (math.isfinite(beta_prime) and beta_prime > 0):
        raise DomainError(f"beta' must be finite and > 0, got {beta_prime}")
    inner = beta_prime * log_x / math.log(log_x)
    log_value = -_linear(inner)
    return _report("angelo_xu_bound", log_value, inner_exponent=inner)


def comparison_table(
    log_x_values,
    theta: float,
    delta: float,
    beta_prime: float = 1.0,
) -> list[dict]:
    """Rows comparing the corollary bound with the doubly exponential one."""
    rows = []
    for log_x in log_x_values:
        r = regime_from_log_x(float(log_x), theta, delta)
        for report in (corollary_upper_bound(r), angelo_xu_bound(r.log_x, beta_prime)):
            rows.append(
                {
                    "name": report.name,
                    "sigma": r.sigma,
                    "theta": theta,
                    "delta": delta,
                    "log_x": r.log_x,
                    "log_value": report.log_value,
                    "value": report.value,
                }
            )
    return rows
