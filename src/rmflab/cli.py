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
import csv
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
from itertools import repeat

import numpy as np

from . import bounds as bnd
from . import explicit as nt
from . import oracle as orc
from . import series as ser
from . import sieve as sv
from .errors import DomainError, RmfLabError
from .sampler import Mode, sample_signs

SCHEMA_VERSION = "1"

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
        parts: list[str] = []
        _json_parts(vars(self), parts)
        return "".join(parts)

    @classmethod
    def from_json_line(cls, line: str) -> "ResultRecord":
        data = json.loads(line)
        return cls(**data)


@dataclass(frozen=True)
class Table:
    """Table rows held as columns, named in CSV order.

    A column is a list or numpy array of JSON scalars, or one scalar that
    every row shares.  A record writes the rows straight from the columns,
    _ROWS rows at a time, which bounds the memory of their cells: in JSON,
    the array of row objects that json.dumps gives for the row dicts, keys
    sorted; in CSV, one line per row.
    """

    columns: dict

    _ROWS = 1 << 12

    def _blocks(self):
        """(rows, {name: list of cells, or the shared cell}) of each block."""
        columns = self.columns.items()
        size = max(len(c) for _, c in columns if isinstance(c, (list, np.ndarray)))
        for a in range(0, size, self._ROWS):
            b = min(a + self._ROWS, size)
            yield b - a, {
                name: c[a:b].tolist() if isinstance(c, np.ndarray)
                else c[a:b] if isinstance(c, list) else c
                for name, c in columns
            }

    def json_parts(self, parts: list) -> None:
        """Append the JSON text of the rows to parts, one string per block."""
        parts.append("[")
        start = len(parts)
        for rows, block in self._blocks():
            names = sorted(block)
            width = 2 * len(names) + 1
            pieces = [""] * (width * rows)  # row-major: each key, its cell, "}, "
            for j, name in enumerate(names):
                key = ("{" if j == 0 else ", ") + json.dumps(name) + ": "
                pieces[2 * j :: width] = [key] * rows
                pieces[2 * j + 1 :: width] = _json_cells(block[name], rows)
            pieces[width - 1 :: width] = ["}, "] * rows
            parts.append("".join(pieces))
        if len(parts) > start:
            parts[-1] = parts[-1][:-2]  # the last row ends in "}" alone
        parts.append("]")

    def write_csv(self, writer) -> None:
        writer.writerow(list(self.columns))
        for rows, block in self._blocks():
            columns = block.values()
            writer.writerows(
                zip(*(c if isinstance(c, list) else repeat(c, rows) for c in columns))
            )


def _json_cells(cells, rows: int) -> list[str]:
    """The JSON text of each of a list of cells, or of rows shared ones."""
    if not isinstance(cells, list):
        return [json.dumps(cells, allow_nan=True)] * rows
    # json.dumps writes a NUL inside a string as \u0000, so the array's text
    # split at NUL separators gives each cell's own
    text = json.dumps(cells, separators=("\0", ": "), allow_nan=True)
    return text[1:-1].split("\0")


def _table(columns: dict) -> dict:
    """The payload fields of a table: its rows, and their CSV column order."""
    return {"rows": Table(columns), "csv_columns": list(columns)}


def _json_parts(value, parts: list) -> None:
    """Append json.dumps(value, sort_keys=True, allow_nan=True) to parts.

    Dicts, keyed by str in every record, are written here so that a Table
    in them writes its own rows.
    """
    if isinstance(value, Table):
        value.json_parts(parts)
    elif isinstance(value, dict):
        parts.append("{")
        for i, (k, v) in enumerate(sorted(value.items())):
            parts.append(f"{', ' if i else ''}{json.dumps(k)}: ")
            _json_parts(v, parts)
        parts.append("}")
    else:
        parts.append(json.dumps(value, sort_keys=True, allow_nan=True))


def _bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _float_list(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part.strip()]


def _json_param(value):
    """A param as strict JSON can carry it: non-finite floats become str."""
    if isinstance(value, (list, tuple)):
        return [_json_param(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


# ---------------------------------------------------------------------------
# handlers: each returns the values payload (dict); tables add _table's fields


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
    a = sample_signs(args.seed, args.trial, args.nmax, Mode(args.mode))
    signs = a.signs()
    return {
        "n_primes": len(a.primes),
        "n_negative": int((signs < 0).sum()),
        "signs_head": signs[:20].tolist(),
    }


def _h_series_trajectory(args):
    a = sample_signs(args.seed, args.trial, args.nmax, Mode(args.mode))
    t = ser.partial_sum_trajectory(a, args.sigma, args.nmax, args.stride)
    return {
        "final_value": float(t.values[-1]),
        "err_bound": t.summation_error_bound,
        "n_checkpoints": int(t.ys.size),
        **_table({
            "y": t.ys,
            "value": t.values,
            "err_bound": t.summation_error_bound,
        }),
    }


def _h_series_euler(args):
    a = sample_signs(args.seed, args.trial, args.pmax, Mode(args.mode))
    value = ser.euler_product_partial(a, args.sigma, args.pmax)
    return {"product": value, "log_product": math.log(value) if value > 0 else None}


def _h_series_logdecomp(args):
    a = sample_signs(args.seed, args.trial, args.pmax, Mode(args.mode))
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
    result = orc.exact_probability(args.nmax, args.sigma, args.x, Mode(args.mode))
    return {**_exact_payload(result.value), "universe_bits": result.universe_bits}


def _h_oracle_moment(args):
    coeffs = orc.power_coeffs(args.nmax, args.exponent, exact=True)
    value = orc.exact_moment(args.nmax, coeffs, args.m, args.absolute, Mode(args.mode))
    return _exact_payload(value)


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
            mode=Mode(args.mode), trial_dump=dump,
        )


def _h_mc_moment(args):
    coeffs = orc.power_coeffs(args.nmax, args.exponent)
    return _mc_payload(orc.mc_moment, args, coeffs, args.m, mode=Mode(args.mode))


def _h_mc_prime_tail(args):
    threshold = getattr(args, "lambda")
    return _mc_payload(orc.mc_prime_tail, args, args.sigma, threshold, args.pmax)


def _h_mc_sign_changes(args):
    return _mc_payload(
        orc.mc_sign_changes, args, args.sigma, args.nmax, mode=Mode(args.mode)
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
    grid = [(x, m) for x in args.x_grid for m in args.m_grid]
    margins = [nt.lemma31_margin(x, m, c3, c5) for x, m in grid]
    return {
        "c3": c3,
        "c5": c5,
        **_table({
            "x": [x for x, _ in grid],
            "m": [m for _, m in grid],
            "sigma": "",
            "lhs": [b.lhs for b in margins],
            "rhs": [b.rhs for b in margins],
            "ratio": [b.ratio for b in margins],
        }),
    }


def _regime_of(args) -> bnd.RegimeParams:
    if args.log_x is not None:
        return bnd.regime_from_log_x(args.log_x, args.theta, args.delta)
    if args.sigma is None:
        raise DomainError("the regime needs --sigma or --log-x")
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
    coeffs = orc.power_coeffs(args.nmax, args.exponent, exact=True)
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
    return {"log_lambda": log_lambda, "lambda": bnd._linear(log_lambda)}


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
    names = ("name", "sigma", "theta", "delta", "log_x", "log_value", "value")
    return _table({c: [row[c] for row in rows] for c in names})


# ---------------------------------------------------------------------------
# the operations: one table builds the parser and names the config keys


def _required(flag: str, type=float):
    return flag, {"type": type, "required": True}


def _optional(flag: str, default, type=float):
    return flag, {"type": type, "default": default}


def _choice(flag: str, choices: list, default):
    return flag, {"choices": choices, "default": default}


def _switch(flag: str):
    return flag, {"action": "store_true"}


#: global flags, valid both before and after `group op`
_GLOBALS = (
    ("--seed", {"type": int, "help": "64-bit master seed"}),
    ("--threads", {"type": int, "help": "default: $RMF_LAB_THREADS, else 1"}),
    _choice("--format", ["jsonl", "csv"], "jsonl"),
    ("--output", {"type": str}),
    ("--config", {"type": str, "help": "key=value file"}),
)

# flag specs that several operations share
_SIGMA = _required("--sigma")
_M = _required("--m")
_X = _required("--x")
_X_INT = _optional("--x", 1, int)
_NMAX = _required("--nmax", int)
_PMAX = _required("--pmax", int)
_TRIAL = _optional("--trial", 0, int)
_LAMBDA = _required("--lambda")
_S = _required("--s")
_EXPONENT = _optional("--exponent", 1.0)
_BETA_PRIME = _optional("--beta-prime", 1.0)
_THETA = _required("--theta")
_DELTA = _required("--delta")
_MODE = _choice("--mode", [m.value for m in Mode], "squarefree")
_MC = (_required("--trials", int), _optional("--level", 0.99))
_ENVELOPE = (
    _optional("--c3", nt.DEFAULT_ENVELOPE[0]),
    _optional("--c5", nt.DEFAULT_ENVELOPE[1]),
)
_REGIME = (_optional("--sigma", None), _THETA, _DELTA, _optional("--log-x", None))

#: (group, op, handler, flags) of every operation, in `--help` order
_OPERATIONS = (
    ("sieve", "primes", _h_sieve_primes, (_NMAX, _optional("--cache", None, str))),
    ("sieve", "signature", _h_sieve_signature, (_required("--n", int),)),
    ("sample", "signs", _h_sample_signs, (_NMAX, _TRIAL, _MODE)),
    ("series", "trajectory", _h_series_trajectory,
     (_SIGMA, _NMAX, _TRIAL, _optional("--stride", 1, int), _MODE)),
    ("series", "euler", _h_series_euler, (_SIGMA, _PMAX, _TRIAL, _MODE)),
    ("series", "logdecomp", _h_series_logdecomp, (_SIGMA, _PMAX, _TRIAL, _MODE)),
    ("oracle", "positivity", _h_oracle_positivity, (_NMAX, _SIGMA, _X_INT, _MODE)),
    ("oracle", "moment", _h_oracle_moment,
     (_NMAX, _M, _EXPONENT, _switch("--absolute"), _MODE)),
    ("mc", "positivity", _h_mc_positivity,
     (_SIGMA, _X_INT, _NMAX, *_MC, _optional("--dump-trials", None, str), _MODE)),
    ("mc", "moment", _h_mc_moment, (_NMAX, _M, _EXPONENT, *_MC, _MODE)),
    ("mc", "prime-tail", _h_mc_prime_tail, (_SIGMA, _LAMBDA, _PMAX, *_MC)),
    ("mc", "sign-changes", _h_mc_sign_changes, (_SIGMA, _NMAX, *_MC, _MODE)),
    ("nt", "tsum", _h_nt_tsum, (_X, _M)),
    ("nt", "tail", _h_nt_tail, (_X, _M, _SIGMA, _required("--cutoff"), *_ENVELOPE)),
    ("nt", "mertens", _h_nt_mertens, (_X, _switch("--exact"))),
    ("nt", "chebyshev", _h_nt_chebyshev,
     (_X, _optional("--m", 2.0), _optional("--c2", nt.DEFAULT_CHEBYSHEV_C2))),
    ("nt", "zeta", _h_nt_zeta, (_S,)),
    ("nt", "primezeta", _h_nt_primezeta, (_S,)),
    ("nt", "fit-lemma31", _h_nt_fit_lemma31, (
        _optional("--x-grid", [1e2, 1e3, 1e4, 1e5, 1e6], _float_list),
        _optional("--m-grid", [3.0, 5.0, 10.0], _float_list),
    )),
    ("bounds", "theorem1", _h_bounds_theorem1, _REGIME),
    ("bounds", "corollary", _h_bounds_corollary, _REGIME),
    ("bounds", "hoeffding", _h_bounds_hoeffding, (
        _LAMBDA, _SIGMA,
        _choice("--variance-mode", ["exact", "asymptotic", "both"], "both"),
    )),
    ("bounds", "bh-rhs", _h_bounds_bh_rhs, (_NMAX, _M, _EXPONENT)),
    ("bounds", "maximal", _h_bounds_maximal, (
        _LAMBDA, _M, _X, _SIGMA, _optional("--kappa", None),
        _optional("--cutoff", None), *_ENVELOPE,
    )),
    ("bounds", "billingsley", _h_bounds_billingsley,
     (_required("--alpha"), _required("--beta"), _required("--theta-param"))),
    ("bounds", "kappa", _h_bounds_kappa, (_M,)),
    ("bounds", "lambda", _h_bounds_lambda, _REGIME),
    ("bounds", "epsilon", _h_bounds_epsilon, (
        _optional("--c9", 1.0), _optional("--c10", 1.0), _optional("--c11", 1.0),
        _THETA,
    )),
    ("bounds", "lemma41", _h_bounds_lemma41, (
        *_REGIME, _optional("--lambda", None), _optional("--log-lambda", None),
        _optional("--epsilon", None), _optional("--beta", None),
    )),
    ("bounds", "angelo-xu", _h_bounds_angelo_xu, (_required("--log-x"), _BETA_PRIME)),
    ("bounds", "compare", _h_bounds_compare,
     (_required("--log-x-grid", _float_list), _THETA, _DELTA, _BETA_PRIME)),
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


_GLOBAL_DESTS = {_dest(flag) for flag, _ in _GLOBALS}

#: every config key, mapped to whether it is a store_true switch
_CONFIG_KEYS = {
    _dest(flag): spec.get("action") == "store_true"
    for flag, spec in _GLOBALS + tuple(f for *_, flags in _OPERATIONS for f in flags)
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmf-lab",
        description="Numerical laboratory for weighted partial sums of "
        "Rademacher random multiplicative functions",
    )
    # the per-operation copies of the global flags default to SUPPRESS, so
    # that absence never clobbers values already parsed at the root
    leaf_common = argparse.ArgumentParser(add_help=False)
    for flag, spec in _GLOBALS:
        parser.add_argument(flag, **spec)
        leaf_common.add_argument(flag, **{**spec, "default": argparse.SUPPRESS})
    # argparse converts a string default with type=int, so a value that is
    # no integer ends as a usage error
    parser.set_defaults(threads=os.environ.get("RMF_LAB_THREADS", "1"))
    groups = parser.add_subparsers(dest="group", required=True)
    ops: dict = {}
    for group, op, handler, flags in _OPERATIONS:
        if group not in ops:
            ops[group] = groups.add_parser(group).add_subparsers(
                dest="op", required=True
            )
        p = ops[group].add_parser(op, parents=[leaf_common])
        p.set_defaults(_handler=handler)
        for flag, spec in flags:
            p.add_argument(flag, **spec)
    return parser


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
        if key not in _CONFIG_KEYS:
            raise KeyError(f"unknown config key {key!r}")
    head: list[str] = []
    tail: list[str] = []
    for key, value in config.items():
        if key == "config":
            continue
        flag = "--" + key.replace("_", "-")
        bucket = head if key in _GLOBAL_DESTS else tail
        if _CONFIG_KEYS[key]:
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
    writer = csv.writer(buf, lineterminator="\n")
    rows = record.values.get("rows")
    if isinstance(rows, Table):
        rows.write_csv(writer)
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
