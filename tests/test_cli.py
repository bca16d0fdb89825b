import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rmflab.cli import ResultRecord, dispatch, emit


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def record_of(stdout):
    return ResultRecord.from_json_line(stdout.strip().splitlines()[0])


def test_oracle_positivity_seven_eighths():
    code, out, _ = run_cli(
        "oracle", "positivity", "--nmax", "10", "--sigma", "1", "--x", "1"
    )
    assert code == 0
    rec = record_of(out)
    assert Fraction(rec.values["numerator"], rec.values["denominator"]) == Fraction(7, 8)
    assert rec.values["value"] == 0.875
    assert rec.schema_version == "1"


def test_bounds_theorem1_record():
    code, out, _ = run_cli(
        "bounds", "theorem1", "--sigma", "0.51", "--theta", "0.5", "--delta", "0.5"
    )
    assert code == 0
    rec = record_of(out)
    assert rec.values["exponent"] == pytest.approx(117.8823, abs=1e-3)
    assert rec.command == "bounds theorem1"
    assert rec.params["sigma"] == 0.51


def test_mc_positivity_record_and_ci():
    code, out, _ = run_cli(
        "mc", "positivity", "--sigma", "0.75", "--x", "1", "--nmax", "1000",
        "--trials", "2000", "--seed", "42",
    )
    assert code == 0
    rec = record_of(out)
    assert rec.seed == 42
    assert rec.ci == [rec.values["ci_low"], rec.values["ci_high"]]
    assert 0.0 <= rec.values["estimate"] <= 1.0
    assert rec.params["trials"] == 2000


def test_seed_echoed_even_when_random():
    code, out, _ = run_cli("sample", "signs", "--nmax", "100")
    rec = record_of(out)
    assert isinstance(rec.seed, int)


def test_record_round_trips_through_parser():
    _, out, _ = run_cli(
        "nt", "zeta", "--s", "2", "--seed", "7"
    )
    rec = record_of(out)
    again = ResultRecord.from_json_line(rec.to_json_line())
    assert again == rec


def test_emit_deterministic_bytes():
    _, out1, _ = run_cli("nt", "zeta", "--s", "3", "--seed", "1")
    _, out2, _ = run_cli("nt", "zeta", "--s", "3", "--seed", "1")
    line1 = json.loads(out1)
    line2 = json.loads(out2)
    line1["wall_time_ms"] = line2["wall_time_ms"] = 0
    assert json.dumps(line1, sort_keys=True) == json.dumps(line2, sort_keys=True)


def test_jsonl_keys_sorted():
    _, out, _ = run_cli("nt", "zeta", "--s", "2")
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_csv_bound_table_columns():
    code, out, _ = run_cli(
        "bounds", "compare", "--log-x-grid", "100,1000", "--theta", "0.5",
        "--delta", "0.5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,sigma,theta,delta,log_x,log_value,value"
    assert len(lines) == 5


def test_csv_trajectory_columns(tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        "series", "trajectory", "--sigma", "1", "--nmax", "10", "--seed", "5",
        "--format", "csv", "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "y,value,err_bound"
    assert len(lines) == 11
    assert float(lines[1].split(",")[1]) == 1.0


def test_usage_error_exit_2():
    code, _, _ = run_cli("mc", "positivity", "--sigma", "0.75")
    assert code == 2
    code, _, _ = run_cli("no-such-group")
    assert code == 2


def test_domain_error_exit_3_with_record():
    code, out, err = run_cli("nt", "zeta", "--s", "0.5")
    assert code == 3
    assert out == ""
    rec = ResultRecord.from_json_line(err.strip())
    assert rec.values["error"] == "DomainError"
    assert "zeta" in rec.values["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("mc", "sign-changes", "--sigma", "-1", "--nmax", "100", "--trials", "10"),
        ("mc", "sign-changes", "--sigma", "nan", "--nmax", "100", "--trials", "10"),
        ("mc", "sign-changes", "--sigma", "0", "--nmax", "100", "--trials", "10"),
        ("mc", "positivity", "--sigma", "nan", "--x", "1", "--nmax", "100",
         "--trials", "10"),
        ("mc", "positivity", "--sigma", "inf", "--x", "1", "--nmax", "100",
         "--trials", "10"),
        ("mc", "prime-tail", "--sigma", "nan", "--lambda", "1", "--pmax", "100",
         "--trials", "10"),
        ("mc", "prime-tail", "--sigma", "-0.5", "--lambda", "1", "--pmax", "100",
         "--trials", "10"),
    ],
)
def test_mc_rejects_bad_sigma_exit_3(argv):
    code, out, err = run_cli(*argv, "--seed", "1")
    assert code == 3
    assert out == ""
    rec = ResultRecord.from_json_line(err.strip())
    assert rec.values["error"] == "DomainError"
    assert "sigma" in rec.values["message"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (("oracle", "positivity", "--nmax", "10", "--sigma", "nan"), "sigma"),
        (("oracle", "positivity", "--nmax", "10", "--sigma", "inf"), "sigma"),
        # pi(88) = 23: the order is rejected before 2^23 assignments are run
        (("oracle", "moment", "--nmax", "88", "--m", "nan"), "order"),
        (("oracle", "moment", "--nmax", "88", "--m", "inf"), "order"),
        (("oracle", "moment", "--nmax", "88", "--m", "-1"), "order"),
        (("oracle", "moment", "--nmax", "88", "--m", "4", "--exponent", "nan"),
         "coefficient"),
        (("series", "trajectory", "--sigma", "nan", "--nmax", "5"), "sigma"),
        (("mc", "moment", "--nmax", "10", "--m", "nan", "--trials", "10"), "order"),
        (("mc", "moment", "--nmax", "10", "--m", "4", "--exponent", "nan",
          "--trials", "10"), "coefficient"),
        (("bounds", "bh-rhs", "--nmax", "10", "--m", "4", "--exponent", "nan"),
         "coefficient"),
        (("series", "euler", "--sigma", "nan", "--pmax", "10"), "sigma"),
        (("bounds", "hoeffding", "--lambda", "nan", "--sigma", "0.6"), "lambda"),
        (("bounds", "maximal", "--lambda", "nan", "--m", "4", "--x", "1000",
          "--sigma", "0.6"), "lambda"),
        (("bounds", "billingsley", "--alpha", "nan", "--beta", "1",
          "--theta-param", "0.9"), "alpha"),
        (("nt", "tsum", "--x", "inf", "--m", "3"), "x must"),
        (("nt", "mertens", "--x", "inf"), "x must"),
        (("nt", "chebyshev", "--x", "nan"), "x must"),
        (("nt", "primezeta", "--s", "nan"), "s > 1"),
        (("nt", "tail", "--x", "1000", "--m", "5", "--sigma", "nan",
          "--cutoff", "100000"), "sigma"),
        # used to loop forever doubling the Euler-Maclaurin cutoff
        (("nt", "zeta", "--s", "nan"), "s > 1"),
        (("mc", "positivity", "--sigma", "0.75", "--nmax", "100", "--trials", "10",
          "--level", "nan"), "level"),
    ],
)
def test_non_finite_input_exit_3(argv, name):
    code, out, err = run_cli(*argv, "--seed", "1")
    assert code == 3
    assert out == ""
    rec = ResultRecord.from_json_line(err.strip())
    assert rec.values["error"] == "DomainError"
    assert name in rec.values["message"]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "argv, key, echoed",
    [
        (("mc", "positivity", "--sigma", "nan", "--nmax", "100", "--trials", "10"),
         "sigma", "nan"),
        (("nt", "zeta", "--s", "inf"), "s", "inf"),
        (("bounds", "compare", "--log-x-grid", "100,-inf", "--theta", "0.5",
          "--delta", "0.5"), "log_x_grid", [100.0, "-inf"]),
    ],
)
def test_error_record_echoes_non_finite_params_as_strings(argv, key, echoed):
    code, _, err = run_cli(*argv, "--seed", "1")
    assert code == 3
    rec = json.loads(err.strip(), parse_constant=_reject_constant)
    assert rec["params"][key] == echoed


@pytest.mark.parametrize("level", ["2", "0", "1", "-0.5"])
def test_confidence_level_outside_unit_interval_exit_3(level):
    code, out, err = run_cli(
        "mc", "positivity", "--sigma", "0.75", "--nmax", "100", "--trials", "10",
        "--level", level, "--seed", "1",
    )
    assert (code, out) == (3, "")
    rec = ResultRecord.from_json_line(err.strip())
    assert rec.values["error"] == "DomainError"
    assert "level" in rec.values["message"]


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = "import sys, rmflab.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_enumeration_refusal_exit_3():
    code, _, err = run_cli("oracle", "positivity", "--nmax", "97", "--sigma", "1")
    assert code == 3
    assert "EnumerationLimitError" in err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 1.0\nnmax = 10  # universe cap\nx = 1\n")
    code, out, _ = run_cli("oracle", "positivity", "--config", str(cfg))
    assert code == 0
    assert record_of(out).values["value"] == 0.875


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 2.0\n")
    _, out, _ = run_cli("nt", "zeta", "--config", str(cfg), "--s", "4.0")
    assert record_of(out).values["value"] == pytest.approx(math.pi**4 / 90, rel=1e-10)


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run_cli("nt", "zeta", "--s", "2", "--config", str(cfg))
    assert code == 2
    assert "nonsense" in err


def test_env_var_thread_default(monkeypatch):
    monkeypatch.setenv("RMF_LAB_THREADS", "3")
    _, out, _ = run_cli("nt", "zeta", "--s", "2")
    assert record_of(out).params["threads"] == 3


def test_mc_thread_replay_identical():
    args = [
        "mc", "prime-tail", "--sigma", "0.6", "--lambda", "0.5", "--pmax", "1000",
        "--trials", "4000", "--seed", "11",
    ]
    _, out1, _ = run_cli(*args, "--threads", "1")
    _, out16, _ = run_cli(*args, "--threads", "16")
    r1, r16 = json.loads(out1), json.loads(out16)
    for rec in (r1, r16):
        rec.pop("wall_time_ms")
        rec["params"].pop("threads")
    assert r1 == r16


def test_replay_emitted_config_reproduces_payload():
    _, out1, _ = run_cli(
        "mc", "moment", "--nmax", "30", "--m", "4", "--trials", "3000",
        "--seed", "2024",
    )
    rec = record_of(out1)
    argv = ["mc", "moment", "--seed", str(rec.seed)]
    for key in ("nmax", "m", "trials", "exponent", "level", "mode"):
        argv += [f"--{key}", str(rec.params[key])]
    _, out2, _ = run_cli(*argv)
    assert record_of(out2).values == rec.values


def test_nt_fit_lemma31_rows():
    code, out, _ = run_cli(
        "nt", "fit-lemma31", "--x-grid", "100,1000", "--m-grid", "3,5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,m,sigma,lhs,rhs,ratio"
    assert len(lines) == 5
    assert all(float(line.split(",")[-1]) <= 1.0 + 1e-12 for line in lines[1:])


def test_sieve_primes_cache_flag(tmp_path):
    cache = tmp_path / "primes.bin"
    code, out, _ = run_cli(
        "sieve", "primes", "--nmax", "100", "--cache", str(cache)
    )
    assert code == 0
    assert record_of(out).values["count"] == 25
    assert cache.read_bytes()[:8] == b"RMFPRIM1"
    code, out, _ = run_cli(
        "sieve", "primes", "--nmax", "100", "--cache", str(cache)
    )
    assert record_of(out).values["count"] == 25


def test_hoeffding_both_modes_reported():
    _, out, _ = run_cli("bounds", "hoeffding", "--lambda", "1", "--sigma", "0.51")
    rec = record_of(out)
    assert "exact" in rec.values and "asymptotic" in rec.values
    assert rec.values["asymptotic"]["value"] == pytest.approx(0.89711, abs=2e-5)


def test_emit_csv_flat_record():
    _, out, _ = run_cli("nt", "zeta", "--s", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0].startswith("command,seed,")
    assert "1.6449340668" in lines[1]


def test_per_trial_dump(tmp_path):
    dump = tmp_path / "trials.csv"
    code, _, _ = run_cli(
        "mc", "positivity", "--sigma", "1", "--x", "1", "--nmax", "10",
        "--trials", "25", "--seed", "3", "--dump-trials", str(dump),
    )
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "trial,passed,indeterminate"
    assert len(lines) == 26
