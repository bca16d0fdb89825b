"""The benchmark's workloads: which rmf-lab operations run, and how each
operation's output is checked.

Every operation is one ``rmf-lab`` invocation; its wall time feeds the
end-to-end operation metric named in ``Op.metric`` (ops sharing a metric
are summed).  Why each workload exists is in bench/README.md.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

#: Seeds with stored references: DEV_SEED is the one to use while writing a
#: change, HELD_OUT_SEED the one kept back to confirm a claim.
DEV_SEED = 1
HELD_OUT_SEED = 2

#: Relative tolerance for float fields compared with a recorded reference.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    name: str  # unique within its workload
    metric: str  # end-to-end metric its wall time is summed into
    argv: tuple  # rmf-lab arguments; --seed and --threads are appended
    kind: str  # output check: see check_op
    threads: int = 1
    repeats: int = 1  # runs per cycle; noisy ops run more often
    same_as: str | None = None  # payload must equal this op's, bitwise


WORKLOADS = {
    # Many trials on a short horizon: the Monte Carlo batch bodies and the
    # sign sampler do nearly all the work, the sieve almost none.
    "mc-many-trials": (
        Op("mc_positivity", "mc_positivity_s",
           ("mc", "positivity", "--sigma", "0.75", "--x", "1", "--nmax", "1000",
            "--trials", "50000"), "proportion"),
        Op("mc_positivity_t2", "mc_positivity_t2_s",
           ("mc", "positivity", "--sigma", "0.75", "--x", "1", "--nmax", "1000",
            "--trials", "50000"), "proportion", threads=2, same_as="mc_positivity"),
        Op("mc_sign_changes", "mc_sign_changes_s",
           ("mc", "sign-changes", "--sigma", "0.8", "--nmax", "1000",
            "--trials", "20000"), "mean"),
        Op("mc_moment", "mc_moment_s",
           ("mc", "moment", "--nmax", "1000", "--m", "4", "--trials", "200000"),
           "moment"),
        Op("mc_prime_tail", "mc_prime_tail_s",
           ("mc", "prime-tail", "--sigma", "0.6", "--lambda", "1", "--pmax", "100000",
            "--trials", "50000"), "proportion"),
    ),
    # Few trials over horizons up to 10^7: the sieve dominates, and the
    # oracle scan runs on tall (n, ~83) arrays rather than wide (n, 2048).
    "long-horizon": (
        Op("series_trajectory", "series_trajectory_s",
           ("series", "trajectory", "--sigma", "0.6", "--nmax", "1000000",
            "--stride", "1000"), "trajectory"),
        Op("trajectory_rows", "trajectory_rows_s",
           ("series", "trajectory", "--sigma", "0.6", "--nmax", "200000"),
           "trajectory"),
        Op("mc_positivity_completely", "mc_positivity_s",
           ("mc", "positivity", "--sigma", "0.6", "--x", "1", "--nmax", "100000",
            "--trials", "1000", "--mode", "completely"), "proportion"),
        # 466 MB at one thread: never run with more threads
        Op("mc_sign_changes", "mc_sign_changes_s",
           ("mc", "sign-changes", "--sigma", "0.6", "--nmax", "100000",
            "--trials", "250"), "mean"),
        Op("nt_fit_lemma31", "nt_fit_lemma31_s",
           ("nt", "fit-lemma31", "--x-grid", "100,1000,10000,100000,1000000,10000000",
            "--m-grid", "3,5,10"), "recorded"),
        Op("nt_tail", "nt_tail_s",
           ("nt", "tail", "--x", "1000", "--m", "5", "--sigma", "0.6",
            "--cutoff", "10000000"), "recorded"),
    ),
    # Pure-Python exact arithmetic and mpmath: no random signs, no numpy
    # kernels.  Its inputs do not depend on the seed.
    "exact-enum": (
        Op("oracle_positivity", "oracle_positivity_s",
           ("oracle", "positivity", "--nmax", "44", "--sigma", "1", "--x", "1"),
           "seven_eighths", repeats=2),
        Op("oracle_bracket", "oracle_bracket_s",
           ("oracle", "positivity", "--nmax", "56", "--sigma", "0.75", "--x", "1"),
           "recorded", repeats=2),
        Op("oracle_moment_m4", "oracle_moment_s",
           ("oracle", "moment", "--nmax", "30", "--m", "4"), "recorded"),
        Op("oracle_moment_m4.5", "oracle_moment_s",
           ("oracle", "moment", "--nmax", "30", "--m", "4.5", "--exponent", "0.75"),
           "recorded"),
        Op("nt_zeta", "closed_forms_s", ("nt", "zeta", "--s", "1.001"), "zeta"),
        Op("nt_primezeta", "closed_forms_s", ("nt", "primezeta", "--s", "1.0002"),
           "primezeta"),
        Op("bounds_hoeffding", "closed_forms_s",
           ("bounds", "hoeffding", "--lambda", "1", "--sigma", "0.5001"), "recorded"),
        Op("bounds_maximal", "closed_forms_s",
           ("bounds", "maximal", "--lambda", "1", "--m", "4", "--x", "1000",
            "--sigma", "0.6"), "recorded"),
        Op("bounds_compare", "closed_forms_s",
           ("bounds", "compare", "--log-x-grid",
            "100,300,1000,3000,10000,30000,100000,1000000",
            "--theta", "0.5", "--delta", "0.5"), "recorded"),
    ),
}

#: Workloads whose inputs depend on the seed; their references are per seed.
SEEDED = ("mc-many-trials", "long-horizon")


def full_argv(op: Op, seed: int) -> list[str]:
    return [*op.argv, "--seed", str(seed), "--threads", str(op.threads)]


def canonical(record: dict) -> str:
    """The record as compared between runs: all but the timing and threads."""
    record = json.loads(json.dumps(record))
    record.pop("wall_time_ms", None)
    record.get("params", {}).pop("threads", None)
    return json.dumps(record, sort_keys=True)


def _flag(argv: tuple, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _checkpoints(n_max: int, stride: int) -> int:
    """Checkpoints of a trajectory: multiples of stride, plus y=1 and y=n_max."""
    count = n_max // stride
    if stride > 1:
        count += 1
    if n_max % stride and n_max > 1:
        count += 1
    return count


def decided(op: Op, values: dict) -> dict:
    """The fields of a payload that a reference pins for a seeded op."""
    if op.kind in ("proportion", "mean", "moment"):
        return {k: values[k] for k in ("estimate", "trials", "n_indeterminate")}
    if op.kind == "trajectory":
        return {k: values[k] for k in ("final_value", "err_bound", "n_checkpoints")}
    return values


def _close(ref, got, rel: float, path: str, problems: list) -> None:
    """Compare got against ref; keys that only got has are ignored."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object, got {got!r}")
            return
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                _close(value, got[key], rel, f"{path}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}, got {got!r}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _close(r, g, rel, f"{path}[{i}]", problems)
    elif isinstance(ref, float) and isinstance(got, (int, float)):
        if not (
            math.isclose(ref, got, rel_tol=rel)
            or (math.isnan(ref) and math.isnan(got))
        ):
            problems.append(f"{path}: {got!r} != reference {ref!r}")
    elif ref != got or type(ref) is not type(got):
        problems.append(f"{path}: {got!r} != reference {ref!r}")


def _sanity(op: Op, values: dict) -> list[str]:
    """Checks that hold for every seed."""
    problems = []

    def need(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    if op.kind in ("proportion", "mean", "moment"):
        est, trials = values["estimate"], values["trials"]
        need(trials == int(_flag(op.argv, "--trials")), f"trials {trials}")
        need(math.isfinite(est), f"estimate {est!r} not finite")
        need(values["ci_low"] <= est <= values["ci_high"], "CI misses the estimate")
        need(0 <= values["n_indeterminate"] <= trials, "n_indeterminate out of range")
        if op.kind == "proportion":
            need(0.0 <= est <= 1.0, f"proportion {est!r} outside [0, 1]")
            need(abs(est * trials - round(est * trials)) < 1e-6, "estimate is not k / trials")
        else:
            need(est >= 0.0, f"estimate {est!r} < 0")
    elif op.kind == "trajectory":
        n_max = int(_flag(op.argv, "--nmax"))
        stride = int(_flag(op.argv, "--stride")) if "--stride" in op.argv else 1
        count = _checkpoints(n_max, stride)
        rows = values["rows"]
        need(values["n_checkpoints"] == count, f"n_checkpoints != {count}")
        need(rows["n_rows"] == count, f"{rows['n_rows']} rows != {count}")
        need(rows["first"]["y"] == 1 and rows["last"]["y"] == n_max, "row range")
        need(rows["last"]["value"] == values["final_value"], "last row != final_value")
        need(math.isfinite(values["final_value"]), "final_value not finite")
        need(0.0 < values["err_bound"] < math.inf, f"err_bound {values['err_bound']!r}")
    return problems


@functools.lru_cache(maxsize=None)
def _mpmath_value(kind: str, s: float) -> float:
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.zeta(s) if kind == "zeta" else mpmath.primezeta(s))


def check_op(op: Op, record: dict | None, seed: int, references: dict) -> list[str]:
    """Problems with one operation's record; an empty list means correct."""
    if record is None:
        return ["no record"]
    problems = []
    want = " ".join(op.argv[:2])
    if record.get("command") != want:
        problems.append(f"command {record.get('command')!r} != {want!r}")
    if record.get("seed") != seed:
        problems.append(f"seed {record.get('seed')!r} != {seed}")
    values = record.get("values") or {}
    try:
        problems += _sanity(op, values)
        if op.kind == "seven_eighths":
            # f(2) = f(3) = f(5) = -1 gives S(5) = 1 - 1/2 - 1/3 - 1/5 < 0,
            # and no other assignment fails for N <= 44: P = 7/8 exactly
            got = (values["numerator"], values["denominator"], values["universe_bits"])
            if got != (7, 8, 14):
                problems.append(f"probability {got[0]}/{got[1]} over 2^{got[2]} != 7/8 over 2^14")
        elif op.kind in ("zeta", "primezeta"):
            s = float(_flag(op.argv, "--s"))
            ref = _mpmath_value(op.kind, s)
            if not math.isclose(values["value"], ref, rel_tol=1e-12):
                problems.append(f"{op.kind}({s}) = {values['value']!r}, mpmath {ref!r}")
        ref = references.get(op.name)
        if op.kind == "trajectory" and ref is not None:
            got = decided(op, values)
            slack = ref["err_bound"] + got["err_bound"]
            if abs(got["final_value"] - ref["final_value"]) > slack:
                problems.append("final_value outside the certified bands")
            if got["n_checkpoints"] != ref["n_checkpoints"]:
                problems.append("n_checkpoints differs from the reference")
        elif ref is not None:
            rel = REL_TOL if op.kind in ("moment", "recorded") else 0.0
            _close(ref, decided(op, values), rel, op.name, problems)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"malformed payload: {type(exc).__name__}: {exc}")
    return problems
