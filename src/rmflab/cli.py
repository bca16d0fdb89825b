"""Command-line front end: `rmf-lab <group> <op> [flags]`.

Every run emits machine-readable ResultRecords (JSON lines with sorted
keys, or RFC-4180 CSV) embedding the fully resolved configuration and the
master seed, so any record can be replayed (bitwise on one numpy build).
Exit codes: 0 on success, 2 on usage errors, 3 on domain errors and
unwritable output paths; errors are themselves structured records on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO

from . import bounds as bnd
from . import explicit as nt
from . import oracle as orc
from . import series as ser
from . import sieve as sv
from .errors import DomainError, RmfLabError
from .sampler import Mode, sample_signs

SCHEMA_VERSION = "1"

_MODES = {"squarefree": Mode.SQUAREFREE_MULT, "completely": Mode.COMPLETELY_MULT}

#: dest -> argparse type, or _bool for the store_true flags; populated while
#: the parser tree is built, so _inject_config can reject unknown config keys
#: and write boolean keys as bare flags.
_DEST_TYPES: dict = {}


@dataclass
class ResultRecord:
    schema_version: str
    command: str
    params: dict
    seed: int
    values: dict
    ci: list | None = None
    wall_time_ms: int = 0

    def to_json_line(self) -> str:
        return json.dumps(vars(self), sort_keys=True, allow_nan=True)

    @classmethod
    def from_json_line(cls, line: str) -> "ResultRecord":
        data = json.loads(line)
        return cls(**data)


def _bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _float_list(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part.strip()]


def _add(parser: argparse.ArgumentParser, *names, **kwargs):
    action = parser.add_argument(*names, **kwargs)
    if action.dest != argparse.SUPPRESS:
        _DEST_TYPES[action.dest] = _bool if action.const is True else action.type
    return action


def _json_param(value):
    """A param as strict JSON can carry it: non-finite floats become str."""
    if isinstance(value, (list, tuple)):
        return [_json_param(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _mode_of(args) -> Mode:
    return _MODES[getattr(args, "mode", "squarefree")]


# ---------------------------------------------------------------------------
# handlers: each returns the values payload (dict); tables add "rows"


def _h_sieve_primes(args):
    cache = getattr(args, "cache", None)
    plist = sv.load_prime_cache(cache) if cache and os.path.exists(cache) else None
    if plist is None or plist.limit != args.nmax:
        plist = sv.primes_up_to(args.nmax)
        if cache:
            sv.save_prime_cache(cache, plist)
    return {
        "count": len(plist),
        "largest": int(plist.primes[-1]) if len(plist) else None,
    }


def _h_sieve_signature(args):
    sig = sv.arith_signature(args.n)
    return {
        "n": sig.n,
        "is_squarefree": sig.is_squarefree,
        "omega": sig.omega,
        "distinct_primes": list(sig.distinct_primes),
    }


def _h_sample_signs(args):
    a = sample_signs(args.seed, args.trial, args.nmax, _mode_of(args))
    signs = a.signs()
    return {
        "n_primes": len(a.primes),
        "n_negative": int((signs < 0).sum()),
        "signs_head": signs[:20].tolist(),
    }


def _h_series_trajectory(args):
    a = sample_signs(args.seed, args.trial, args.nmax, _mode_of(args))
    t = ser.partial_sum_trajectory(a, args.sigma, args.nmax, args.stride)
    rows = [
        {"y": y, "value": v, "err_bound": t.summation_error_bound}
        for y, v in t.checkpoints
    ]
    return {
        "final_value": float(t.values[-1]),
        "err_bound": t.summation_error_bound,
        "n_checkpoints": int(t.ys.size),
        "rows": rows,
        "csv_columns": ["y", "value", "err_bound"],
    }


def _h_series_euler(args):
    a = sample_signs(args.seed, args.trial, args.pmax, _mode_of(args))
    value = ser.euler_product_partial(a, args.sigma, args.pmax)
    return {"product": value, "log_product": math.log(value) if value > 0 else None}


def _h_series_logdecomp(args):
    a = sample_signs(args.seed, args.trial, args.pmax, _mode_of(args))
    d = ser.log_decomposition(a, args.sigma, args.pmax)
    return {
        "prime_sum": d.prime_sum,
        "half_log_term": d.half_log_term,
        "remainder": d.remainder,
    }


def _exact_payload(value) -> dict:
    """Record values for a Fraction, a CertifiedValue or a plain number."""
    if isinstance(value, Fraction):
        try:
            as_float = float(value)
        except OverflowError as exc:
            raise DomainError("the exact value is too large for float64") from exc
        # a b-bit integer has at most ceil(b log10 2) decimal digits
        limit = sys.get_int_max_str_digits()
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if limit and bits * math.log10(2) > limit:
            raise DomainError(f"the exact value may have more than {limit} digits")
        return {
            "numerator": value.numerator,
            "denominator": value.denominator,
            "value": as_float,
        }
    if isinstance(value, orc.CertifiedValue):
        return {"value": value.value, "error_bound": value.error_bound}
    return {"value": value}


def _h_oracle_positivity(args):
    result = orc.exact_probability(args.nmax, args.sigma, args.x, _mode_of(args))
    return {**_exact_payload(result.value), "universe_bits": result.universe_bits}


def _h_oracle_moment(args):
    orc.enumeration_base(args.nmax)  # refuse before building nmax coefficients
    coeffs = _exact_power_coeffs(args.nmax, args.exponent)
    value = orc.exact_moment(args.nmax, coeffs, args.m, args.absolute, _mode_of(args))
    return _exact_payload(value)


def _exact_power_coeffs(n_max: int, exponent: float):
    if float(exponent).is_integer() and exponent >= 0:
        e = int(exponent)
        return {n: Fraction(1, n**e) for n in orc.coefficient_indices(n_max)}
    return orc.power_coeffs(n_max, exponent)


def _mc_payload(estimator, args, *head, **options) -> dict:
    """Run a Monte Carlo estimator on the record's trials, seed and threads."""
    est = estimator(
        *head, args.trials, args.seed, level=args.level, threads=args.threads,
        **options,
    )
    return {
        "estimate": est.estimate,
        "trials": est.trials,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "level": est.level,
        "n_indeterminate": est.n_indeterminate,
        "heavy_tail": est.heavy_tail,
    }


def _h_mc_positivity(args):
    with open(args.dump_trials, "w") if args.dump_trials else nullcontext() as dump:
        return _mc_payload(
            orc.mc_positivity, args, args.sigma, args.x, args.nmax,
            mode=_mode_of(args), trial_dump=dump,
        )


def _h_mc_moment(args):
    coeffs = orc.power_coeffs(args.nmax, args.exponent)
    return _mc_payload(orc.mc_moment, args, coeffs, args.m, mode=_mode_of(args))


def _h_mc_prime_tail(args):
    threshold = getattr(args, "lambda")
    return _mc_payload(orc.mc_prime_tail, args, args.sigma, threshold, args.pmax)


def _h_mc_sign_changes(args):
    return _mc_payload(
        orc.mc_sign_changes, args, args.sigma, args.nmax, mode=_mode_of(args)
    )


def _h_nt_tsum(args):
    rec = nt.t_sum(args.x, args.m)
    return {"value": rec.value, "terms": rec.terms}


def _h_nt_tail(args):
    t = nt.tail_series(args.x, args.m, args.sigma, args.cutoff, (args.c3, args.c5))
    return {
        "head": t.head,
        "remainder_low": t.remainder_low,
        "remainder_high": t.remainder_high,
        "upper": t.upper,
        "cutoff": t.cutoff,
    }


def _h_nt_mertens(args):
    payload = {"value": nt.mertens_sum(args.x)}
    if args.exact:
        exact = nt.mertens_sum_exact(args.x)
        payload["numerator"] = exact.numerator
        payload["denominator"] = exact.denominator
    return payload


def _h_nt_chebyshev(args):
    margin = nt.chebyshev_sum(args.x, args.m, args.c2)
    return {"lhs": margin.lhs, "rhs": margin.rhs, "ratio": margin.ratio}


def _h_nt_zeta(args):
    return {"value": nt.zeta(args.s)}


def _h_nt_primezeta(args):
    return {"value": nt.prime_zeta(args.s)}


def _h_nt_fit_lemma31(args):
    c3, c5 = nt.fit_lemma31_constants(args.x_grid, args.m_grid)
    rows = []
    for x in args.x_grid:
        for m in args.m_grid:
            margin = nt.lemma31_margin(x, m, c3, c5)
            rows.append(
                {
                    "x": x,
                    "m": m,
                    "sigma": "",
                    "lhs": margin.lhs,
                    "rhs": margin.rhs,
                    "ratio": margin.ratio,
                }
            )
    return {
        "c3": c3,
        "c5": c5,
        "rows": rows,
        "csv_columns": ["x", "m", "sigma", "lhs", "rhs", "ratio"],
    }


def _regime_of(args) -> bnd.RegimeParams:
    if getattr(args, "log_x", None) is not None:
        return bnd.regime_from_log_x(args.log_x, args.theta, args.delta)
    return bnd.regime_from_sigma(args.sigma, args.theta, args.delta)


def _bound_payload(report: bnd.BoundReport) -> dict:
    payload = {
        "name": report.name,
        "value": report.value,
        "log_value": report.log_value,
        "flags": list(report.flags),
    }
    payload.update(report.extras)
    return payload


def _h_bounds_theorem1(args):
    return _bound_payload(bnd.theorem1_lower_bound(_regime_of(args)))


def _h_bounds_corollary(args):
    return _bound_payload(bnd.corollary_upper_bound(_regime_of(args)))


def _h_bounds_hoeffding(args):
    lam = getattr(args, "lambda")
    if args.variance_mode == "both":
        exact = bnd.hoeffding_bound(lam, args.sigma, bnd.VarianceMode.EXACT)
        asym = bnd.hoeffding_bound(lam, args.sigma, bnd.VarianceMode.ASYMPTOTIC)
        return {
            "exact": _bound_payload(exact),
            "asymptotic": _bound_payload(asym),
        }
    mode = bnd.VarianceMode(args.variance_mode)
    return _bound_payload(bnd.hoeffding_bound(lam, args.sigma, mode))


def _h_bounds_bh_rhs(args):
    coeffs = _exact_power_coeffs(args.nmax, args.exponent)
    return _exact_payload(bnd.bh_rhs(coeffs, args.m))


def _h_bounds_maximal(args):
    report = bnd.maximal_bound(
        getattr(args, "lambda"),
        args.m,
        args.x,
        args.sigma,
        kappa=args.kappa,
        cutoff=args.cutoff,
        envelope=(args.c3, args.c5),
    )
    return _bound_payload(report)


def _h_bounds_billingsley(args):
    value = bnd.billingsley_constant(args.alpha, args.beta, args.theta_param)
    return {"value": value, "log_value": math.log(value)}


def _h_bounds_kappa(args):
    theta_star, kappa = bnd.optimize_kappa(args.m)
    return {"theta_star": theta_star, "kappa": kappa}


def _h_bounds_lambda(args):
    log_lambda = bnd.lambda_threshold(_regime_of(args))
    payload = {"log_lambda": log_lambda}
    payload["lambda"] = math.exp(log_lambda) if log_lambda > -745.0 else 0.0
    return payload


def _h_bounds_epsilon(args):
    eps0, beta = bnd.optimize_epsilon(args.c9, args.c10, args.c11, args.theta)
    return {"epsilon": eps0, "beta": beta}


def _h_bounds_lemma41(args):
    regime = _regime_of(args)
    log_lam = args.log_lambda
    lam = getattr(args, "lambda")
    if log_lam is None and lam is None:
        log_lam = bnd.lambda_threshold(regime)
    report = bnd.lemma41_bound(
        regime,
        threshold=lam,
        log_threshold=log_lam,
        epsilon=args.epsilon,
        beta=args.beta,
    )
    return _bound_payload(report)


def _h_bounds_angelo_xu(args):
    return _bound_payload(bnd.angelo_xu_bound(args.log_x, args.beta_prime))


def _h_bounds_compare(args):
    rows = bnd.comparison_table(
        args.log_x_grid, args.theta, args.delta, args.beta_prime
    )
    return {
        "rows": rows,
        "csv_columns": [
            "name",
            "sigma",
            "theta",
            "delta",
            "log_x",
            "log_value",
            "value",
        ],
    }


# ---------------------------------------------------------------------------
# parser construction


def _global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # global flags are valid both before and after the subcommand; the
    # per-subcommand copies use SUPPRESS so absence never clobbers values
    # already parsed at the root
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    _add(parser, "--seed", type=int, help="64-bit master seed", **kw)
    _add(parser, "--threads", type=int, **kw)
    _add(parser, "--format", choices=["jsonl", "csv"], **kw)
    _add(parser, "--output", type=str, **kw)
    _add(parser, "--config", type=str, help="key=value file", **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmf-lab",
        description="Numerical laboratory for weighted partial sums of "
        "Rademacher random multiplicative functions",
    )
    _global_options(parser, suppress=False)
    parser.set_defaults(seed=None, threads=None, format="jsonl", output=None)
    leaf_common = argparse.ArgumentParser(add_help=False)
    _global_options(leaf_common, suppress=True)
    groups = parser.add_subparsers(dest="group", required=True)

    def sub(group, name, handler, **kwargs):
        p = group.add_parser(name, parents=[leaf_common], **kwargs)
        p.set_defaults(_handler=handler)
        return p

    def add_mode(p):
        _add(p, "--mode", choices=list(_MODES), default="squarefree")

    g_sieve = sub_group(groups, "sieve")
    p = sub(g_sieve, "primes", _h_sieve_primes)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--cache", type=str, default=None)
    p = sub(g_sieve, "signature", _h_sieve_signature)
    _add(p, "--n", type=int, required=True)

    g_sample = sub_group(groups, "sample")
    p = sub(g_sample, "signs", _h_sample_signs)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--trial", type=int, default=0)
    add_mode(p)

    g_series = sub_group(groups, "series")
    p = sub(g_series, "trajectory", _h_series_trajectory)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--trial", type=int, default=0)
    _add(p, "--stride", type=int, default=1)
    add_mode(p)
    p = sub(g_series, "euler", _h_series_euler)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--pmax", type=int, required=True)
    _add(p, "--trial", type=int, default=0)
    add_mode(p)
    p = sub(g_series, "logdecomp", _h_series_logdecomp)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--pmax", type=int, required=True)
    _add(p, "--trial", type=int, default=0)
    add_mode(p)

    g_oracle = sub_group(groups, "oracle")
    p = sub(g_oracle, "positivity", _h_oracle_positivity)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--x", type=int, default=1)
    add_mode(p)
    p = sub(g_oracle, "moment", _h_oracle_moment)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--m", type=float, required=True)
    _add(p, "--exponent", type=float, default=1.0)
    _add(p, "--absolute", action="store_true")
    add_mode(p)

    g_mc = sub_group(groups, "mc")
    p = sub(g_mc, "positivity", _h_mc_positivity)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--x", type=int, default=1)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--trials", type=int, required=True)
    _add(p, "--level", type=float, default=0.99)
    _add(p, "--dump-trials", type=str, default=None)
    add_mode(p)
    p = sub(g_mc, "moment", _h_mc_moment)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--m", type=float, required=True)
    _add(p, "--exponent", type=float, default=1.0)
    _add(p, "--trials", type=int, required=True)
    _add(p, "--level", type=float, default=0.99)
    add_mode(p)
    p = sub(g_mc, "prime-tail", _h_mc_prime_tail)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--lambda", type=float, required=True, dest="lambda")
    _add(p, "--pmax", type=int, required=True)
    _add(p, "--trials", type=int, required=True)
    _add(p, "--level", type=float, default=0.99)
    p = sub(g_mc, "sign-changes", _h_mc_sign_changes)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--trials", type=int, required=True)
    _add(p, "--level", type=float, default=0.99)
    add_mode(p)

    g_nt = sub_group(groups, "nt")
    p = sub(g_nt, "tsum", _h_nt_tsum)
    _add(p, "--x", type=float, required=True)
    _add(p, "--m", type=float, required=True)
    p = sub(g_nt, "tail", _h_nt_tail)
    _add(p, "--x", type=float, required=True)
    _add(p, "--m", type=float, required=True)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--cutoff", type=float, required=True)
    _add(p, "--c3", type=float, default=nt.DEFAULT_ENVELOPE[0])
    _add(p, "--c5", type=float, default=nt.DEFAULT_ENVELOPE[1])
    p = sub(g_nt, "mertens", _h_nt_mertens)
    _add(p, "--x", type=float, required=True)
    _add(p, "--exact", action="store_true")
    p = sub(g_nt, "chebyshev", _h_nt_chebyshev)
    _add(p, "--x", type=float, required=True)
    _add(p, "--m", type=float, default=2.0)
    _add(p, "--c2", type=float, default=nt.DEFAULT_CHEBYSHEV_C2)
    p = sub(g_nt, "zeta", _h_nt_zeta)
    _add(p, "--s", type=float, required=True)
    p = sub(g_nt, "primezeta", _h_nt_primezeta)
    _add(p, "--s", type=float, required=True)
    p = sub(g_nt, "fit-lemma31", _h_nt_fit_lemma31)
    _add(p, "--x-grid", type=_float_list, default=[1e2, 1e3, 1e4, 1e5, 1e6])
    _add(p, "--m-grid", type=_float_list, default=[3.0, 5.0, 10.0])

    g_bounds = sub_group(groups, "bounds")

    def add_regime(p):
        _add(p, "--sigma", type=float, default=None)
        _add(p, "--theta", type=float, required=True)
        _add(p, "--delta", type=float, required=True)
        _add(p, "--log-x", type=float, default=None)

    p = sub(g_bounds, "theorem1", _h_bounds_theorem1)
    add_regime(p)
    p = sub(g_bounds, "corollary", _h_bounds_corollary)
    add_regime(p)
    p = sub(g_bounds, "hoeffding", _h_bounds_hoeffding)
    _add(p, "--lambda", type=float, required=True, dest="lambda")
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--variance-mode", choices=["exact", "asymptotic", "both"], default="both")
    p = sub(g_bounds, "bh-rhs", _h_bounds_bh_rhs)
    _add(p, "--nmax", type=int, required=True)
    _add(p, "--m", type=float, required=True)
    _add(p, "--exponent", type=float, default=1.0)
    p = sub(g_bounds, "maximal", _h_bounds_maximal)
    _add(p, "--lambda", type=float, required=True, dest="lambda")
    _add(p, "--m", type=float, required=True)
    _add(p, "--x", type=float, required=True)
    _add(p, "--sigma", type=float, required=True)
    _add(p, "--kappa", type=float, default=None)
    _add(p, "--cutoff", type=float, default=None)
    _add(p, "--c3", type=float, default=nt.DEFAULT_ENVELOPE[0])
    _add(p, "--c5", type=float, default=nt.DEFAULT_ENVELOPE[1])
    p = sub(g_bounds, "billingsley", _h_bounds_billingsley)
    _add(p, "--alpha", type=float, required=True)
    _add(p, "--beta", type=float, required=True)
    _add(p, "--theta-param", type=float, required=True)
    p = sub(g_bounds, "kappa", _h_bounds_kappa)
    _add(p, "--m", type=float, required=True)
    p = sub(g_bounds, "lambda", _h_bounds_lambda)
    add_regime(p)
    p = sub(g_bounds, "epsilon", _h_bounds_epsilon)
    _add(p, "--c9", type=float, default=1.0)
    _add(p, "--c10", type=float, default=1.0)
    _add(p, "--c11", type=float, default=1.0)
    _add(p, "--theta", type=float, required=True)
    p = sub(g_bounds, "lemma41", _h_bounds_lemma41)
    add_regime(p)
    _add(p, "--lambda", type=float, default=None, dest="lambda")
    _add(p, "--log-lambda", type=float, default=None)
    _add(p, "--epsilon", type=float, default=None)
    _add(p, "--beta", type=float, default=None)
    p = sub(g_bounds, "angelo-xu", _h_bounds_angelo_xu)
    _add(p, "--log-x", type=float, required=True)
    _add(p, "--beta-prime", type=float, default=1.0)
    p = sub(g_bounds, "compare", _h_bounds_compare)
    _add(p, "--log-x-grid", type=_float_list, required=True)
    _add(p, "--theta", type=float, required=True)
    _add(p, "--delta", type=float, required=True)
    _add(p, "--beta-prime", type=float, default=1.0)

    return parser


def sub_group(groups, name: str):
    p = groups.add_parser(name)
    return p.add_subparsers(dest="op", required=True)


_GLOBAL_DESTS = {"seed", "threads", "format", "output", "config"}


def _read_config(path: str) -> dict:
    data = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise KeyError(f"malformed config line: {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            data[key.replace("-", "_")] = value
    return data


def _inject_config(argv: list[str], config: dict) -> list[str]:
    """Weave config key=value pairs into argv as flags.

    Global keys go before the subcommand, operation keys right after it;
    since argparse takes the last occurrence of a flag, explicit
    command-line flags override the config.  Unknown keys are rejected.
    """
    for key in config:
        if key not in _DEST_TYPES:
            raise KeyError(f"unknown config key {key!r}")
    head: list[str] = []
    tail: list[str] = []
    for key, value in config.items():
        if key == "config":
            continue
        flag = "--" + key.replace("_", "-")
        bucket = head if key in _GLOBAL_DESTS else tail
        if _DEST_TYPES.get(key) is _bool:
            if _bool(value):
                bucket.append(flag)
        else:
            bucket.extend([flag, value])
    # locate the `group op` tokens: the first non-flag token pair, where
    # every preceding global flag consumes a value unless written as --k=v
    i = 0
    while i < len(argv) and argv[i].startswith("--"):
        i += 1 if "=" in argv[i] else 2
    split = min(i + 2, len(argv))
    return head + argv[:split] + tail + argv[split:]


def emit(record: ResultRecord, output_format: str) -> str:
    """Serialize a record: one JSON line, or CSV with header."""
    if output_format == "jsonl":
        return record.to_json_line() + "\n"
    if output_format != "csv":
        raise RmfLabError(f"unknown output format {output_format!r}")
    buf = StringIO()
    import csv as csvmod

    writer = csvmod.writer(buf, lineterminator="\n")
    rows = record.values.get("rows")
    if rows is not None:
        columns = record.values.get("csv_columns") or sorted(rows[0])
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
    else:
        flat = {"command": record.command, "seed": record.seed}
        flat.update(
            (k, v) for k, v in sorted(record.values.items()) if not isinstance(v, dict)
        )
        for k, v in sorted(record.values.items()):
            if isinstance(v, dict):
                flat.update((f"{k}_{k2}", v2) for k2, v2 in sorted(v.items()))
        writer.writerow(list(flat))
        writer.writerow([_csv_cell(v) for v in flat.values()])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value


def dispatch(argv, stdout=None, stderr=None) -> int:
    """Parse argv, run the op, stream ResultRecords; returns the exit code."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    config_path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
    if config_path:
        try:
            argv = _inject_config(list(argv), _read_config(config_path))
        except (OSError, KeyError, ValueError, argparse.ArgumentTypeError) as exc:
            print(f"rmf-lab: config error: {exc}", file=stderr)
            return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.seed is None:
        args.seed = secrets.randbits(63)
    if args.threads is None:
        args.threads = int(os.environ.get("RMF_LAB_THREADS", "1"))
    if args.threads < 1:
        print("rmf-lab: --threads must be >= 1", file=stderr)
        return 2
    skip = {"_handler", "group", "op", "seed", "config", "output", "format"}
    params = {k: _json_param(v) for k, v in vars(args).items() if k not in skip}
    command = f"{args.group} {args.op}"

    def record(values, ci=None, wall_ms=0):
        return ResultRecord(
            SCHEMA_VERSION, command, params, args.seed, values, ci, wall_ms
        )

    start = time.perf_counter()
    try:
        values = args._handler(args)
        wall_ms = int((time.perf_counter() - start) * 1000)
        ci = None
        if "ci_low" in values and "ci_high" in values:
            ci = [values["ci_low"], values["ci_high"]]
        text = emit(record(values, ci, wall_ms), args.format)
        if args.output:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        else:
            stdout.write(text)
    except (RmfLabError, OSError) as exc:
        # an unwritable --output, --cache or --dump-trials path is the
        # caller's input, so it ends like a domain error
        error = {"error": type(exc).__name__, "message": str(exc)}
        stderr.write(emit(record(error), "jsonl"))
        return 3
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
