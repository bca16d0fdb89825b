"""Closed-form bound evaluators and the two optimizations they feed.

The working regime ties sigma to a horizon through
log x = (sigma - 1/2)^(-1/theta), which makes x itself astronomically
large (e^10000 and beyond).  Every evaluator therefore works in log
space, materializes a linear value only when representable, and raises
explicit overflow/underflow flags instead of silently saturating.

Existential constants (the c_j family, kappa, epsilon, beta) live in a
ConstantsLedger carrying value + provenance (FITTED / DEFAULT / USER);
no number leaves this module without its provenance being recoverable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import DivergenceError, DomainError
from .explicit import DEFAULT_ENVELOPE, prime_zeta, tail_series
from .sieve import arith_signature

_LOG2 = math.log(2.0)
#: exp argument beyond which float64 overflows
_EXP_MAX = 709.0


class Provenance(enum.Enum):
    FITTED = "fitted"
    DEFAULT = "default"
    USER = "user"


@dataclass(frozen=True)
class ConstantEntry:
    value: float
    provenance: Provenance
    grid: str | None = None


_LEDGER_NAMES = tuple(f"c{i}" for i in range(1, 13)) + (
    "kappa",
    "beta",
    "epsilon",
    "theta_star",
    "c2_chebyshev",
)


@dataclass
class ConstantsLedger:
    """Named registry of auxiliary constants, all positive, with provenance."""

    entries: dict[str, ConstantEntry] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "ConstantsLedger":
        ledger = cls()
        for name in (f"c{i}" for i in range(1, 13)):
            ledger.set(name, 1.0, Provenance.DEFAULT)
        ledger.set("c2_chebyshev", 1.04, Provenance.DEFAULT)
        return ledger

    def set(
        self,
        name: str,
        value: float,
        provenance: Provenance,
        grid: str | None = None,
    ) -> None:
        if name not in _LEDGER_NAMES:
            raise DomainError(f"unknown constant name {name!r}")
        if not value > 0:
            raise DomainError(f"constant {name} must be positive, got {value}")
        self.entries[name] = ConstantEntry(value, provenance, grid)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def value(self, name: str) -> float:
        if name not in self.entries:
            raise DomainError(f"constant {name!r} has no value in the ledger")
        return self.entries[name].value


@dataclass(frozen=True)
class RegimeParams:
    """Working regime: sigma near 1/2 with log x = (sigma-1/2)^(-1/theta)."""

    sigma: float
    theta: float
    delta: float
    log_x: float
    x_is_finite_representable: bool

    @property
    def log_log_x(self) -> float:
        return math.log(self.log_x)


def regime_from_sigma(sigma: float, theta: float, delta: float) -> RegimeParams:
    """Build the regime from sigma; theta = 1 is allowed as a boundary check."""
    if not 0.5 < sigma <= 1.0:
        raise DomainError(f"sigma must lie in (1/2, 1], got {sigma}")
    if not 0.0 < theta <= 1.0:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be finite and > 0, got {delta}")
    log_x = math.exp(-math.log(sigma - 0.5) / theta)
    return RegimeParams(sigma, theta, delta, log_x, log_x <= 700.0)


def regime_from_log_x(log_x: float, theta: float, delta: float) -> RegimeParams:
    """Regime addressed directly by log x (larger-x explorations)."""
    if not (math.isfinite(log_x) and log_x > 1.0):
        raise DomainError(f"log x must be finite and > 1, got {log_x}")
    if not 0.0 < theta <= 1.0:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be finite and > 0, got {delta}")
    sigma = 0.5 + log_x**-theta
    return RegimeParams(sigma, theta, delta, log_x, log_x <= 700.0)


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
    flags: tuple[str, ...] = ()
    if math.isinf(log_value):
        if log_value > 0:
            value, flags = math.inf, ("OVERFLOW",)
        else:
            value, flags = 0.0, ("UNDERFLOW", "LOG_OVERFLOW")
    elif log_value > _EXP_MAX:
        value, flags = math.inf, ("OVERFLOW",)
    elif log_value < -745.0:
        value, flags = 0.0, ("UNDERFLOW",)
    else:
        value = math.exp(log_value)
    return BoundReport(name, value, log_value, flags, extras)


def _require_loglog(r: RegimeParams) -> float:
    if r.log_x <= 1.0:
        raise DomainError(f"log x must exceed 1, got {r.log_x}")
    return math.log(r.log_x)


def theorem1_lower_bound(r: RegimeParams) -> BoundReport:
    """1 - exp(-(1/2theta) (log x)^(2-2theta) / (log log x)^(1+2delta)).

    Lower bound on the probability that the partial sums stay positive
    beyond the regime's horizon.  The exponent is reported in extras.
    """
    ll = _require_loglog(r)
    exponent = (
        (1.0 / (2.0 * r.theta))
        * r.log_x ** (2.0 - 2.0 * r.theta)
        / ll ** (1.0 + 2.0 * r.delta)
    )
    value = -math.expm1(-exponent)
    if 0.0 < value < 1.0:
        log_value = math.log(value)
    else:
        # value rounded up to 1: log1p(-e^-E) ~ -e^-E keeps the deficit
        log_value = math.log1p(-math.exp(-exponent))
    return BoundReport(
        "theorem1_lower_bound", value, log_value, extras={"exponent": exponent}
    )


def corollary_upper_bound(r: RegimeParams) -> BoundReport:
    """exp(-exponent): probability of some negative partial sum beyond x."""
    ll = _require_loglog(r)
    exponent = (
        (1.0 / (2.0 * r.theta))
        * r.log_x ** (2.0 - 2.0 * r.theta)
        / ll ** (1.0 + 2.0 * r.delta)
    )
    return _report("corollary_upper_bound", -exponent, exponent=exponent)


def bh_rhs(coeffs: Mapping[int, object], m: float):
    """Moment-inequality right side (sum mu^2 |a|^2 (m-1)^omega)^(m/2).

    Exact Fraction when the coefficients are rational and m is an even
    integer; float otherwise.
    """
    if not (math.isfinite(m) and m >= 2):
        raise DomainError(f"moment order must be finite and >= 2, got {m}")
    entries = []
    for n, a in coeffs.items():
        if n < 1:
            raise DomainError(f"coefficient index {n} must be >= 1")
        sig = arith_signature(n)
        if sig.is_squarefree:
            entries.append((a, sig.omega))
    if float(m).is_integer() and int(m) % 2 == 0:
        try:
            base = sum(
                (Fraction(a) ** 2 * (Fraction(m) - 1) ** w for a, w in entries),
                Fraction(0),
            )
            return base ** (int(m) // 2)
        except (TypeError, ValueError):
            pass  # non-rational coefficient type: fall through to floats
    base = math.fsum(abs(float(a)) ** 2 * (m - 1.0) ** w for a, w in entries)
    return base ** (m / 2.0)


def maximal_bound(
    threshold: float,
    m: float,
    x: float,
    sigma: float,
    kappa: float | None = None,
    ledger: ConstantsLedger | None = None,
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
        if ledger is not None and "kappa" in ledger:
            kappa = ledger.value("kappa")
        else:
            _, kappa = optimize_kappa(m)
            if ledger is not None:
                ledger.set("kappa", kappa, Provenance.FITTED, grid=f"m={m}")
    if not (math.isfinite(kappa) and kappa > 0):
        raise DomainError(f"kappa must be finite and > 0, got {kappa}")
    if cutoff is None:
        cutoff = max(1_000_000.0, 64.0 * x)
    tail_upper = tail_series(x, m, sigma, cutoff, envelope).upper
    log_value = (
        2.0 * m * math.log(kappa)
        - m * math.log(threshold)
        + 0.5 * m * math.log(tail_upper)
    )
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
    log_value = -threshold * threshold / (2.0 * q)
    return _report("hoeffding_bound", log_value, variance_proxy=q)


def _billingsley_log(alpha: float, beta: float, theta_param: float) -> float:
    if not (alpha > 0.5 and beta >= 0 and math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError("need finite alpha > 1/2 and beta >= 0")
    if not 0.0 < theta_param < 1.0:
        raise DomainError(f"theta must lie in (0, 1), got {theta_param}")
    # geometric ratio 1 / (theta^4beta 2^(2alpha-1)) must be < 1
    log_ratio = -4.0 * beta * math.log(theta_param) + (1.0 - 2.0 * alpha) * _LOG2
    if log_ratio >= 0.0:
        raise DivergenceError(
            f"series diverges: theta^(4 beta) 2^(2 alpha - 1) = "
            f"{math.exp(-log_ratio):.6g} <= 1"
        )
    return (
        (2.0 * alpha + 4.0 * beta) * _LOG2
        - 4.0 * beta * math.log1p(-theta_param)
        - math.log1p(-math.exp(log_ratio))
    )


def billingsley_constant(alpha: float, beta: float, theta_param: float) -> float:
    """Maximal-inequality constant K = 2^(2a+4b) (1-t)^(-4b) / (1 - t^(-4b) 2^(1-2a)).

    Raises DivergenceError when the underlying geometric series does not
    converge, i.e. theta^(4 beta) * 2^(2 alpha - 1) <= 1.
    """
    log_k = _billingsley_log(alpha, beta, theta_param)
    return math.exp(log_k) if log_k <= _EXP_MAX else math.inf


def optimize_kappa(m: float) -> tuple[float, float]:
    """Minimize K^(1/2m) over admissible theta at 2 alpha = m/2, 4 beta = m.

    Returns (theta_star, kappa) with kappa = K(theta_star)^(1/(2m)), the
    normalization that enters the maximal bound as kappa^(2m).  Coarse
    grid scan followed by golden-section refinement; the returned theta
    always satisfies the convergence precondition.
    """
    if not (math.isfinite(m) and m > 2):
        raise DomainError(f"m must be finite and > 2, got {m}")
    alpha = m / 4.0
    beta = m / 4.0
    # admissibility: theta > 2^((1 - 2 alpha) / (4 beta))
    theta_min = 2.0 ** ((1.0 - 2.0 * alpha) / (4.0 * beta))
    lo = theta_min + 1e-9 * (1.0 - theta_min)
    hi = 1.0 - 1e-12

    def objective(theta: float) -> float:
        return _billingsley_log(alpha, beta, theta) / (2.0 * m)

    grid = [lo + (hi - lo) * i / 200.0 for i in range(201)]
    best = min(grid, key=objective)
    i = grid.index(best)
    a = grid[max(0, i - 1)]
    b = grid[min(len(grid) - 1, i + 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    for _ in range(80):
        if objective(c) < objective(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
        if b - a < 1e-12:
            break
    theta_star = (a + b) / 2.0
    return theta_star, math.exp(objective(theta_star))


def lambda_threshold(r: RegimeParams) -> float:
    """log lambda = -log 2 - (1/2) (log x)^(1-theta) / (log log x)^delta.

    The threshold separating the Euler-product event from the tail-sup
    event; returned in log space because lambda itself underflows deep in
    the regime.
    """
    ll = _require_loglog(r)
    return -_LOG2 - 0.5 * r.log_x ** (1.0 - r.theta) / ll**r.delta


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
    c12 = c9 * (1.0 - theta) + c9 + c10 * theta
    eps0 = c11 / (2.0 * c12)
    return eps0, c11 * c11 / (4.0 * c12)


def lemma41_bound(
    r: RegimeParams,
    threshold: float | None = None,
    ledger: ConstantsLedger | None = None,
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
    ll = _require_loglog(r)
    if log_threshold is None:
        if threshold is None or not threshold > 0:
            raise DomainError("need lambda > 0 (or log_threshold)")
        log_threshold = math.log(threshold)
    if epsilon is None or beta is None:
        if ledger is None:
            ledger = ConstantsLedger.default()
        if "epsilon" in ledger and "beta" in ledger:
            eps0, beta0 = ledger.value("epsilon"), ledger.value("beta")
        else:
            eps0, beta0 = optimize_epsilon(
                ledger.value("c9"), ledger.value("c10"), ledger.value("c11"), r.theta
            )
            ledger.set("epsilon", eps0, Provenance.FITTED)
            ledger.set("beta", beta0, Provenance.FITTED)
        epsilon = eps0 if epsilon is None else epsilon
        beta = beta0 if beta is None else beta
    if not all(map(math.isfinite, (log_threshold, epsilon, beta))):
        raise DomainError("log lambda, epsilon and beta must be finite")
    scale_main = r.log_x ** (2.0 - 2.0 * r.theta) / ll
    scale_lam = r.log_x ** (1.0 - r.theta) / ll
    term_beta = -beta * scale_main
    term_lambda = epsilon * (-log_threshold) * scale_lam
    m_real = epsilon * scale_lam
    return _report(
        "lemma41_bound",
        term_beta + term_lambda,
        term_beta=term_beta,
        term_lambda=term_lambda,
        m_real=m_real,
        m_rounded=float(max(3, round(m_real))),
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
    log_value = -math.exp(inner) if inner <= _EXP_MAX else -math.inf
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
