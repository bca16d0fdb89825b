import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_seed
from rmflab.cli import ResultRecord, Table, build_parser, dispatch, emit
from rmflab.oracle import exact_moment
from rmflab.sampler import Mode


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
    line = io.StringIO()
    emit(rec, "jsonl", line)
    again = ResultRecord.from_json_line(line.getvalue())
    assert again == rec


def test_emit_deterministic_bytes():
    _, out1, _ = run_cli("nt", "zeta", "--s", "3", "--seed", "1")
    _, out2, _ = run_cli("nt", "zeta", "--s", "3", "--seed", "1")
    line1 = json.loads(out1)
    line2 = json.loads(out2)
    line1["wall_time_ms"] = line2["wall_time_ms"] = 0
    assert json.dumps(line1, sort_keys=True) == json.dumps(line2, sort_keys=True)


def test_emit_pins_multi_row_record_bytes():
    _, out, _ = run_cli(
        "series", "trajectory", "--sigma", "1", "--nmax", "3", "--seed", "3"
    )
    assert re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out) == (
        '{"ci": null, "command": "series trajectory", "params": {"mode": '
        '"squarefree", "nmax": 3, "sigma": 1.0, "stride": 1, "threads": 1, '
        '"trial": 0}, "schema_version": "1", "seed": 3, "values": {"csv_columns": '
        '["y", "value", "err_bound"], "err_bound": 2.1131558485174376e-13, '
        '"final_value": 0.16666666666666669, "n_checkpoints": 3, "rows": '
        '[{"err_bound": 2.1131558485174376e-13, "value": 1.0, "y": 1}, '
        '{"err_bound": 2.1131558485174376e-13, "value": 0.5, "y": 2}, '
        '{"err_bound": 2.1131558485174376e-13, "value": 0.16666666666666669, '
        '"y": 3}]}, "wall_time_ms": 0}\n'
    )


def _table_output(*argv):
    code, out, err = run_cli(*argv, "--seed", "11")
    assert code == 0, err
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out)


_TRAJ_HEAD = (
    '{"ci": null, "command": "series trajectory", "params": {"mode": "%s", '
    '"nmax": %d, "sigma": 0.6, "stride": %d, "threads": 1, "trial": 0}, '
    '"schema_version": "1", "seed": 11, "values": {"csv_columns": ["y", "value", '
    '"err_bound"], '
)
_TRAJ_PINS = [
    (
        (1, 1, "squarefree"),
        '"err_bound": 1.1511145110628362e-13, "final_value": 1.0, "n_checkpoints": '
        '1, "rows": [{"err_bound": 1.1511145110628362e-13, "value": 1.0, "y": 1}]}, '
        '"wall_time_ms": 0}\n',
        "y,value,err_bound\n1,1.0,1.1511145110628362e-13\n",
    ),
    *[
        (
            (2, stride, mode),
            '"err_bound": 1.9105668628392785e-13, "final_value": 0.3402460446135529, '
            '"n_checkpoints": 2, "rows": [{"err_bound": 1.9105668628392785e-13, '
            '"value": 1.0, "y": 1}, {"err_bound": 1.9105668628392785e-13, "value": '
            '0.3402460446135529, "y": 2}]}, "wall_time_ms": 0}\n',
            "y,value,err_bound\n1,1.0,1.9105668628392785e-13\n"
            "2,0.3402460446135529,1.9105668628392785e-13\n",
        )
        for stride, mode in ((1, "squarefree"), (7, "completely"))
    ],
]


@pytest.mark.parametrize("shape, jsonl_tail, csv_text", _TRAJ_PINS)
def test_trajectory_output_pinned(shape, jsonl_tail, csv_text):
    nmax, stride, mode = shape
    argv = ("series", "trajectory", "--sigma", "0.6", "--nmax", str(nmax),
            "--stride", str(stride), "--mode", mode)
    assert _table_output(*argv) == _TRAJ_HEAD % (mode, nmax, stride) + jsonl_tail
    assert _table_output(*argv, "--format", "csv") == csv_text


@pytest.mark.parametrize(
    "nmax, stride, mode, digests",
    [
        # past a 2^16 boundary at stride 1, past a 2^18 one at stride 7
        (70000, 1, "squarefree",
         ("a26f226ae125937246026cd381c8dd9fe5546254a4b371bf2a26b0147d87b23e",
          "b3ccb46f2b2ba01fff9ff3d379264ea0ba6de03872d8d76011f9fb60b8a3fcc7")),
        (300000, 7, "squarefree",
         ("f56115c8e5e68804632490ccedb51b33cb1219e7d4e99233bc084d0f16e6bb6d",
          "f3c9f6a820a846afd748f1f79dd2fc37ecfeed5440bc5035e06c24437d3d730a")),
        (300000, 7, "completely",
         ("93b7ed6cde1118f132b5b7f3f99097c31bba7e0c55cd4c5abf48bbf4ae785e87",
          "deeaa9ce842cb15993f3ff5769db328ae25b10d597645f9a93f487f029c4ae92")),
    ],
)
def test_long_trajectory_output_pinned(nmax, stride, mode, digests):
    argv = ("series", "trajectory", "--sigma", "0.6", "--nmax", str(nmax),
            "--stride", str(stride), "--mode", mode)
    got = [
        hashlib.sha256(_table_output(*argv, "--format", fmt).encode()).hexdigest()
        for fmt in ("jsonl", "csv")
    ]
    assert tuple(got) == digests


@pytest.mark.parametrize("mode", ["squarefree", "completely"])
def test_trajectory_stride_past_int64_keeps_the_rows_of_stride_nmax(mode):
    # ys % 10^30 on an int64 array raised OverflowError out of dispatch
    argv = ("series", "trajectory", "--sigma", "0.6", "--nmax", "5000", "--mode", mode)
    rows = []
    for stride in ("5000", str(10**30)):
        code, out, err = run_cli(*argv, "--stride", stride, "--seed", "3")
        assert code == 0, err
        rows.append(record_of(out).values["rows"])
    assert rows[0] == rows[1]
    assert [r["y"] for r in rows[0]] == [1, 5000]


@pytest.mark.parametrize(
    "argv, seed, digest",
    [
        (("oracle", "moment", "--nmax", "30", "--m", "4"), 1,
         "368e9d63cac48749dee9f62d8b888ef17411bbc11bb95048b0e0c82ece2d66d4"),
        (("oracle", "moment", "--nmax", "30", "--m", "4.5", "--exponent", "0.75"), 1,
         "dea42e8651c8a5c2a9c01844ce1ec126c49833d9e03d801f6915a90ed69389be"),
        (("oracle", "moment", "--nmax", "40", "--m", "3", "--exponent", "2",
          "--absolute"), 1,
         "eb2112a74653ece49437c454875714f36d8a3bfc37831fe73c3c40365ffcf5bf"),
        (("oracle", "moment", "--nmax", "12", "--m", "4", "--mode", "completely"), 1,
         "a5f133433e053aa6023c2f32cb9c4a6161ef89513eb35e36bb8cbd21697cf4d3"),
        # the benchmark's mc moment op at both reference seeds
        (("mc", "moment", "--nmax", "1000", "--m", "4", "--trials", "200000"), 1,
         "34ee451b72410c8a44b22c94f34e6a25cd4ebd38d22499eb63e78845ebf067c9"),
        (("mc", "moment", "--nmax", "1000", "--m", "4", "--trials", "200000"), 2,
         "9f668e7197364572f9b8412bb578c73f8c967f256e5d85a5d724a8f19eebb739"),
        # past a 2^16 piece boundary
        (("mc", "moment", "--nmax", "70000", "--m", "4.5", "--exponent", "0.75",
          "--trials", "100", "--mode", "completely"), 1,
         "cfc001d00ce0cd1d77231ad77421f9a7853dbe6349bcb6f6076d1528c56a14de"),
        (("bounds", "bh-rhs", "--nmax", "2000", "--m", "4"), 1,
         "bbc1c7edc86cf640498c8f26ca23f06e7e16e97a90af878e709867af8a4f8a79"),
        (("bounds", "bh-rhs", "--nmax", "100000", "--m", "4", "--exponent", "0.75"), 1,
         "a0a7dbbd2c303c5227ffcae6a676b8f8012da8a972f1b3795125f2c5190b0ce4"),
        (("bounds", "bh-rhs", "--nmax", "100000", "--m", "3", "--exponent", "1"), 1,
         "c3e4b287c28d29747f8a92ae47c4145526cba0b376fa9dc1ea60b27a237b53cb"),
        (("bounds", "bh-rhs", "--nmax", "100000", "--m", "2", "--exponent", "0.5"), 1,
         "57922911eeb8b2158a0cde48be48d22be316ef385183e716e226674ede21e90a"),
        (("bounds", "bh-rhs", "--nmax", "100000", "--m", "4", "--exponent", "0"), 1,
         "d38526073ba2d5ceb7cc18fbb9591a1ff26d0333500ae2eb0a9cdd629ff43cbf"),
    ],
)
def test_coefficient_op_records_pinned(argv, seed, digest):
    code, out, err = run_cli(*argv, "--seed", str(seed), "--threads", "1")
    assert code == 0, err
    record = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out)
    assert hashlib.sha256(record.encode()).hexdigest() == digest


def test_bound_and_fit_tables_pinned():
    compare = ("bounds", "compare", "--log-x-grid", "100,10000", "--theta", "0.5",
               "--delta", "0.5")
    assert _table_output(*compare) == (
        '{"ci": null, "command": "bounds compare", "params": {"beta_prime": 1.0, '
        '"delta": 0.5, "log_x_grid": [100.0, 10000.0], "theta": 0.5, "threads": 1}, '
        '"schema_version": "1", "seed": 11, "values": {"csv_columns": ["name", '
        '"sigma", "theta", "delta", "log_x", "log_value", "value"], "rows": '
        '[{"delta": 0.5, "log_value": -4.715292425290347, "log_x": 100.0, "name": '
        '"corollary_upper_bound", "sigma": 0.6, "theta": 0.5, "value": '
        '0.008957246358495975}, {"delta": 0.5, "log_value": -2695161849.999626, '
        '"log_x": 100.0, "name": "angelo_xu_bound", "sigma": 0.6, "theta": 0.5, '
        '"value": 0.0}, {"delta": 0.5, "log_value": -117.88231063225868, "log_x": '
        '10000.0, "name": "corollary_upper_bound", "sigma": 0.51, "theta": 0.5, '
        '"value": 6.3732796986228975e-52}, {"delta": 0.5, "log_value": -Infinity, '
        '"log_x": 10000.0, "name": "angelo_xu_bound", "sigma": 0.51, "theta": 0.5, '
        '"value": 0.0}]}, "wall_time_ms": 0}\n'
    )
    assert _table_output(*compare, "--format", "csv") == (
        "name,sigma,theta,delta,log_x,log_value,value\n"
        "corollary_upper_bound,0.6,0.5,0.5,100.0,-4.715292425290347,"
        "0.008957246358495975\n"
        "angelo_xu_bound,0.6,0.5,0.5,100.0,-2695161849.999626,0.0\n"
        "corollary_upper_bound,0.51,0.5,0.5,10000.0,-117.88231063225868,"
        "6.3732796986228975e-52\n"
        "angelo_xu_bound,0.51,0.5,0.5,10000.0,-inf,0.0\n"
    )
    fit = ("nt", "fit-lemma31", "--x-grid", "100,1000", "--m-grid", "3,5")
    assert _table_output(*fit) == (
        '{"ci": null, "command": "nt fit-lemma31", "params": {"m_grid": [3.0, 5.0], '
        '"threads": 1, "x_grid": [100.0, 1000.0]}, "schema_version": "1", "seed": '
        '11, "values": {"c3": 2.2226866363050606, "c5": 0.05, "csv_columns": ["x", '
        '"m", "sigma", "lhs", "rhs", "ratio"], "rows": [{"lhs": 211.0, "m": 3.0, '
        '"ratio": 0.25164952186243494, "rhs": 838.4677166815515, "sigma": "", "x": '
        '100.0}, {"lhs": 901.0, "m": 5.0, "ratio": 0.5534330963256867, "rhs": '
        '1628.0197299038573, "sigma": "", "x": 100.0}, {"lhs": 2825.0, "m": 3.0, '
        '"ratio": 0.31704318158287226, "rhs": 8910.458146098215, "sigma": "", "x": '
        '1000.0}, {"lhs": 18017.0, "m": 5.0, "ratio": 1.0, "rhs": 18017.0, "sigma": '
        '"", "x": 1000.0}]}, "wall_time_ms": 0}\n'
    )
    assert _table_output(*fit, "--format", "csv") == (
        "x,m,sigma,lhs,rhs,ratio\n"
        "100.0,3.0,,211.0,838.4677166815515,0.25164952186243494\n"
        "100.0,5.0,,901.0,1628.0197299038573,0.5534330963256867\n"
        "1000.0,3.0,,2825.0,8910.458146098215,0.31704318158287226\n"
        "1000.0,5.0,,18017.0,18017.0,1.0\n"
    )


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


_CSV_TEXT = st.text(st.sampled_from('a ,";\r\n'), max_size=3)
_CSV_CELL = st.one_of(
    st.floats(), st.integers(-(2**70), 2**70), st.booleans(), st.none(), _CSV_TEXT
)
#: a column: one shared cell, or a list or float array to repeat down the rows
_CSV_COLUMN = st.one_of(
    _CSV_CELL,
    st.lists(_CSV_CELL, min_size=1, max_size=5),
    st.lists(st.floats(), min_size=1, max_size=5).map(np.array),
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 9000),
    st.lists(st.tuples(_CSV_TEXT, _CSV_COLUMN), min_size=1, max_size=4,
             unique_by=lambda c: c[0]),
)
def test_table_csv_is_the_csv_writer_text(rows, named):
    # rows up to 9000 cross the 4096-row blocks; the first column is made
    # a list if need be, since a table has rows only through one
    columns = {}
    for i, (name, cells) in enumerate(named):
        if i == 0 and not isinstance(cells, (list, np.ndarray)):
            cells = [cells]
        if isinstance(cells, np.ndarray):
            cells = np.resize(cells, rows)
        elif isinstance(cells, list):
            cells = (cells * rows)[:rows]
        columns[name] = cells
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(list(columns))
    writer.writerows(zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c if isinstance(c, list)
        else [c] * rows
        for c in columns.values()
    )))
    text = io.StringIO()
    Table(columns).write_csv(text.write)
    assert text.getvalue() == expected.getvalue()


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_records_are_written_in_bounded_memory(fmt, to_file, tmp_path, run_fresh):
    # a 10^6-row trajectory is written 4096 rows at a time: assembled whole
    # in memory, its record took 123 to 188 MB above the RSS after import
    path = tmp_path / "traj.out"
    argv = ["series", "trajectory", "--sigma", "0.6", "--nmax", "1000000",
            "--seed", "1", "--format", fmt, *(["--output", str(path)] * to_file)]
    code = (
        "import os, resource\n"
        "from rmflab.cli import dispatch\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with open(os.devnull, 'w') as sink:\n"
        f"    assert dispatch({argv!r}, sink, sink) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(run_fresh(code)) < 64 * 1024  # kB
    assert path.exists() == to_file


def test_long_trajectory_walks_without_a_prime_list(run_fresh):
    # the walk ranked its cofactor primes in primes_up_to(n_max), a second
    # list beside the assignment's: 80.5 to 82 MB above the RSS after import;
    # with the assignment's list alone, 49.1 to 49.6 MB
    argv = ["series", "trajectory", "--sigma", "0.6", "--nmax", "30000000",
            "--stride", "1000000", "--seed", "1"]
    code = (
        "import os, resource\n"
        "from rmflab.cli import dispatch\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with open(os.devnull, 'w') as sink:\n"
        f"    assert dispatch({argv!r}, sink, sink) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(run_fresh(code)) < 42 * 1024  # kB


def test_far_narrow_tail_sieves_its_base_in_segments(run_fresh):
    # a head of 10 integers near 10^16 needs the primes <= 10^8: sieved on one
    # 10^8-byte flag array, they took 140 MB above the RSS after import
    argv = ["nt", "tail", "--x", "1e16", "--m", "3", "--sigma", "0.75",
            "--cutoff", "10000000000000010", "--seed", "1"]
    code = (
        "import os, resource\n"
        "from rmflab.cli import dispatch\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with open(os.devnull, 'w') as sink:\n"
        f"    assert dispatch({argv!r}, sink, sink) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(run_fresh(code)) < 80 * 1024  # kB


@pytest.mark.parametrize(
    "argv, values",
    [
        (("series", "trajectory", "--nmax", "10"),
         {"err_bound": 10 * 2.0**-1022, "final_value": 1.0}),
        (("mc", "positivity", "--x", "1", "--nmax", "10", "--trials", "3"),
         {"estimate": 1.0, "n_indeterminate": 0}),
        (("oracle", "positivity", "--nmax", "10", "--x", "1"),
         {"numerator": 1, "denominator": 1}),
    ],
)
def test_weights_underflowed_past_one_decide_every_sum(argv, values):
    # the weight allowance overflows at sigma = 1e308, where every weight past
    # n = 1 is 0: the band n_max TINY decides every sum S(y) = 1
    code, out, err = run_cli(*argv, "--sigma", "1e308", "--seed", "1")
    assert (code, err) == (0, "")
    rec = json.loads(out, parse_constant=_reject_constant)
    assert values.items() <= rec["values"].items()


@pytest.mark.parametrize(
    "argv, values",
    [
        (("mc", "positivity", "--sigma", "1e300", "--x", "1", "--nmax", "10",
          "--trials", "3"), {"estimate": 1.0, "n_indeterminate": 0}),
        (("oracle", "positivity", "--nmax", "40", "--sigma", "1e300", "--x", "1"),
         {"numerator": 1, "denominator": 1}),
        (("series", "trajectory", "--sigma", "1075.5", "--nmax", "10"),
         {"err_bound": 10 * 2.0**-1022, "final_value": 1.0}),
    ],
)
def test_weights_below_half_the_least_subnormal_decide_every_sum(argv, values):
    # past sigma = 1075 every weight past n = 1 is 0 though the allowance is
    # finite: its band of about 10^285 left all 3 trials INDETERMINATE, and
    # the integer re-check of the exact oracle refused 40^1e300
    code, out, err = run_cli(*argv, "--seed", "1")
    assert (code, err) == (0, "")
    rec = json.loads(out, parse_constant=_reject_constant)
    assert values.items() <= rec["values"].items()


@pytest.mark.parametrize("nmax", ["0", "-5"])
def test_mc_sign_changes_horizon_below_one_exit_3(nmax):
    code, out, err = run_cli("mc", "sign-changes", "--sigma", "0.6", "--nmax", nmax,
                             "--trials", "3", "--seed", "1")
    assert (code, out) == (3, "")
    assert record_of(err).values == {
        "error": "DomainError", "message": f"horizon must be >= 1, got {nmax}"
    }


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


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "moment", "--nmax", "10", "--m", "2000"),
        ("bounds", "bh-rhs", "--nmax", "100", "--m", "2000", "--exponent", "0"),
        ("oracle", "moment", "--nmax", "10", "--m", "2000.5"),
        ("bounds", "bh-rhs", "--nmax", "100", "--m", "2001", "--exponent", "0"),
        ("nt", "tail", "--x", "1000", "--m", "1000", "--sigma", "0.6",
         "--cutoff", "100000"),
        ("bounds", "maximal", "--lambda", "1", "--m", "1000", "--x", "1000",
         "--sigma", "0.6"),
        # log x = e^4605: math.exp overflowed into a traceback
        ("bounds", "theorem1", "--sigma", "0.51", "--theta", "0.001",
         "--delta", "0.5"),
        # the head summed (m-1)^omega = inf times n^-1200 = 0 into NaN, then inf
        ("nt", "tail", "--x", "1000", "--m", "1e300", "--c5", "1e-300",
         "--sigma", "600", "--cutoff", "2000"),
        ("nt", "tail", "--x", "10", "--m", "1e300", "--c5", "1e-300",
         "--sigma", "0.75", "--cutoff", "2000"),
        # finite terms whose fsum overflowed in a traceback
        ("nt", "tail", "--x", "1", "--m", "1.79e308", "--sigma", "0.51",
         "--cutoff", "5"),
    ],
)
def test_value_beyond_float64_exit_3(argv):
    code, out, err = run_cli(*argv, "--seed", "1")
    assert (code, out) == (3, "")
    rec = ResultRecord.from_json_line(err.strip())
    assert rec.values["error"] == "DomainError"
    assert "float64" in rec.values["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "maximal", "--lambda", "1", "--m", "4", "--x", "1e12",
         "--sigma", "0.6"),
        ("nt", "tail", "--x", "1000", "--m", "5", "--sigma", "0.6",
         "--cutoff", "1e13"),
        ("nt", "tsum", "--x", "1e13", "--m", "3"),
        ("sieve", "primes", "--nmax", "20000000000"),
        ("mc", "positivity", "--sigma", "0.6", "--nmax", "20000000000",
         "--trials", "10"),
        ("series", "trajectory", "--sigma", "0.6", "--nmax", "20000000000"),
        ("nt", "mertens", "--x", "2e10"),
        ("mc", "prime-tail", "--sigma", "0.6", "--lambda", "1",
         "--pmax", "20000000000", "--trials", "10"),
        ("sieve", "signature", "--n", "2305843009213693951"),
    ],
)
def test_sieve_walk_beyond_term_budget_exit_3(argv):
    # the walks ran for days, and the prime sieves asked for 18.6 GiB of
    # flags, before primes_up_to and the walk had a budget
    code, out, err = run_cli(*argv, "--seed", "1")
    assert (code, out) == (3, "")
    rec = ResultRecord.from_json_line(err.strip())
    assert rec.values["error"] == "DomainError"
    assert "term budget" in rec.values["message"]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "bh-rhs", "--nmax", "3000", "--m", "4"),
        ("oracle", "moment", "--nmax", "30", "--m", "200", "--exponent", "3"),
    ],
)
def test_exact_value_beyond_the_digit_limit_exit_3(argv):
    # json.dumps cannot write an int past sys.get_int_max_str_digits()
    code, out, err = run_cli(*argv, "--seed", "1")
    assert (code, out) == (3, "")
    rec = json.loads(err.strip(), parse_constant=_reject_constant)
    assert rec["values"]["error"] == "DomainError"
    assert "digits" in rec["values"]["message"]


@pytest.mark.parametrize("leaf", ["nope/x", ""])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("nt", "zeta", "--s", "2"), "--output"),
        (("sieve", "primes", "--nmax", "100"), "--cache"),
        (("mc", "positivity", "--sigma", "0.6", "--nmax", "100",
          "--trials", "10"), "--dump-trials"),
    ],
)
def test_unwritable_output_path_exit_3(tmp_path, argv, flag, leaf):
    # a path in a missing directory, or a directory itself
    path = str(tmp_path / leaf) if leaf else str(tmp_path)
    code, out, err = run_cli(*argv, flag, path, "--seed", "1")
    assert (code, out) == (3, "")
    rec = json.loads(err.strip(), parse_constant=_reject_constant)
    assert rec["values"]["error"] in {"FileNotFoundError", "IsADirectoryError"}


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "signs", "--nmax", "1000"),
        ("series", "trajectory", "--sigma", "1", "--nmax", "100"),
        ("series", "euler", "--sigma", "1", "--pmax", "100"),
        ("series", "logdecomp", "--sigma", "1", "--pmax", "100"),
    ],
)
def test_trial_index_past_64_bits_exit_3(argv):
    # 2^64 must not wrap round to the signs of trial 0
    code, out, err = run_cli(*argv, "--trial", str(2**64), "--seed", "7")
    assert (code, out) == (3, "")
    rec = json.loads(err.strip(), parse_constant=_reject_constant)
    assert rec["values"]["error"] == "DomainError"
    assert "trial_index" in rec["values"]["message"]



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


@pytest.mark.parametrize(
    "argv, error",
    [
        (("mc", "moment", "--nmax", "20000000000", "--m", "4", "--trials", "10"),
         "DomainError"),
        (("oracle", "moment", "--nmax", "3000000", "--m", "4"),
         "EnumerationLimitError"),
        (("bounds", "bh-rhs", "--nmax", "20000000000", "--m", "4"), "DomainError"),
        (("mc", "moment", "--nmax", "1000000000", "--m", "4", "--trials", "10"),
         "DomainError"),
        # one n_max rule for the three coefficient ops: bh-rhs exited 0 here
        *[
            (head + ("--nmax", nmax, "--m", "4"), "DomainError")
            for head in (("bounds", "bh-rhs"), ("oracle", "moment"),
                         ("mc", "moment", "--trials", "10"))
            for nmax in ("0", "-3")
        ],
    ],
)
def test_coefficient_map_refused_before_it_is_built(argv, error):
    start = time.perf_counter()
    code, out, err = run_cli(*argv, "--seed", "1")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (3, "")
    rec = json.loads(err.strip(), parse_constant=_reject_constant)
    assert rec["values"]["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ("mc", "moment", "--nmax", "1000000", "--m", "4", "--trials", "10"),
        ("bounds", "bh-rhs", "--nmax", "1000000", "--m", "4", "--exponent", "0.75"),
    ],
)
def test_coefficient_ops_memory_bounded(argv):
    # a dict of every coefficient, and the vectors and lists built over it,
    # peaked at 163 MB for mc moment and 322 MB for bh-rhs; a fresh
    # interpreter that imports rmflab.cli takes about 40 MB
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = (
        "import io, resource\n"
        "from rmflab.cli import dispatch\n"
        f"code = dispatch({[*argv, '--seed', '1']!r}, io.StringIO(), io.StringIO())\n"
        "assert code == 0, code\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    # Linux carries a process's peak RSS across exec into the new program, so
    # the measured interpreter is started from a small one, not from pytest
    launcher = (
        "import subprocess, sys\n"
        f"subprocess.run([sys.executable, '-c', {code!r}], check=True)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", launcher], env=env, capture_output=True, text=True,
        check=True,
    )
    assert int(result.stdout) < 100 * 1024  # kB


@pytest.mark.parametrize(
    "argv, error",
    [
        (("oracle", "positivity", "--nmax", "100000000", "--sigma", "1"),
         "EnumerationLimitError"),
        (("mc", "prime-tail", "--sigma", "0.6", "--lambda", "1", "--pmax",
          "100000001", "--trials", "10"), "DomainError"),
        # the walk's prime bitmap is n_max / 8 bytes: the sieve budget first
        (("mc", "positivity", "--sigma", "0.6", "--nmax", "1000000000000000000",
          "--trials", "10"), "DomainError"),
        (("mc", "positivity", "--sigma", "0.6", "--nmax", "1000",
          "--trials", "1000000000000"), "DomainError"),
        (("mc", "prime-tail", "--sigma", "0.6", "--lambda", "1", "--pmax", "1000",
          "--trials", "1000000000000"), "DomainError"),
    ],
)
def test_budget_refusals_come_before_the_work(argv, error, run_fresh):
    # the enumeration sieved every prime <= n_max before it counted them (222
    # MB here), prime-tail ran to a 2.3 GB table at P = 10^8, trials 256, and
    # 10^12 trials asked numpy for 931 GiB to 7.28 TiB of per-trial arrays
    code = (
        "import io, json, resource\n"
        "from rmflab.cli import dispatch\n"
        "err = io.StringIO()\n"
        f"code = dispatch({[*argv, '--seed', '1']!r}, io.StringIO(), err)\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps([code, json.loads(err.getvalue())['values'], rss]))\n"
    )
    code, values, rss = json.loads(run_fresh(code))
    assert (code, values["error"]) == (3, error)
    assert "budget" in values["message"]
    assert rss < 100 * 1024  # kB


def test_overflowing_weights_warn_nothing():
    # sigma = 1e308 overflows sigma log p; the band and the undecided rule
    # handle the inf and 0 weights, so no bare warning may reach stderr
    argv = ("mc", "prime-tail", "--sigma", "1e308", "--lambda", "1", "--pmax",
            "1000", "--trials", "10", "--seed", "1")
    _, plain, _ = run_cli(*argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert record_of(out).values == record_of(plain).values


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(min_value=5e-324, max_value=1e308),
    threshold=st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([math.inf, -math.inf, 1e308, -1e308, 0.0]),
    ),
    p_max=st.integers(2, 10**5),
    trials=st.integers(1, 3000),
    threads=st.sampled_from([1, 2]),
)
def test_mc_prime_tail_argv_ends_in_a_strict_record(
    sigma, threshold, p_max, trials, threads
):
    start = time.perf_counter()
    code, out, err = run_cli(
        "mc", "prime-tail", f"--sigma={sigma!r}", f"--lambda={threshold!r}",
        "--pmax", str(p_max), "--trials", str(trials), "--threads", str(threads),
        "--seed", "7",
    )
    assert time.perf_counter() - start < 10.0
    assert code in (0, 3)
    rec = json.loads((out or err).strip(), parse_constant=_reject_constant)
    if code == 3:
        return
    values = rec["values"]
    numbers = [v for v in values.values() if isinstance(v, float)]
    assert all(math.isfinite(v) for v in numbers)
    assert 0 <= values["n_indeterminate"] <= trials == values["trials"]
    assert values["ci_low"] <= values["estimate"] <= values["ci_high"]


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(1, 5000),
    m=st.one_of(st.integers(2, 60), st.floats(2, 60)),
    exponent=st.one_of(st.integers(-2, 3), st.floats(-2, 3)),
)
def test_bh_rhs_argv_ends_in_a_strict_record(n_max, m, exponent):
    start = time.perf_counter()
    code, out, err = run_cli(
        "bounds", "bh-rhs", "--nmax", str(n_max), f"--m={m!r}",
        f"--exponent={exponent!r}", "--seed", "7",
    )
    assert time.perf_counter() - start < 10.0
    assert code in (0, 3)
    json.loads((out or err).strip(), parse_constant=_reject_constant)


_REAL = st.one_of(
    st.floats(),
    st.floats(-1.0, 4.0),
    st.floats(0.0, 1e4),
    st.sampled_from([0.5, 2.0, 2.0000000001, 5e-324, 1e300, 1.7976931348623157e308]),
)
_REGIME_FLAGS = {"--sigma": _REAL, "--theta": _REAL, "--delta": _REAL, "--log-x": _REAL}
#: every bounds operation and a strategy for each of its flags; x and the
#: cutoff stay small, since the tail sum sieves max(10^6, 64 x) integers
_BOUNDS_FLAGS = {
    "theorem1": _REGIME_FLAGS,
    "corollary": _REGIME_FLAGS,
    "hoeffding": {"--lambda": _REAL, "--sigma": _REAL,
                  "--variance-mode": st.sampled_from(["exact", "asymptotic", "both"])},
    "bh-rhs": {"--nmax": st.integers(-2, 200), "--m": _REAL, "--exponent": _REAL},
    "maximal": {"--lambda": _REAL, "--m": _REAL, "--x": st.floats(-10.0, 1e4),
                "--sigma": _REAL, "--kappa": _REAL, "--cutoff": st.floats(-10.0, 1e5),
                "--c3": _REAL, "--c5": _REAL},
    "billingsley": {"--alpha": _REAL, "--beta": _REAL, "--theta-param": _REAL},
    "kappa": {"--m": _REAL},
    "lambda": _REGIME_FLAGS,
    "epsilon": {"--c9": _REAL, "--c10": _REAL, "--c11": _REAL, "--theta": _REAL},
    "lemma41": {**_REGIME_FLAGS, "--lambda": _REAL, "--log-lambda": _REAL,
                "--epsilon": _REAL, "--beta": _REAL},
    "angelo-xu": {"--log-x": _REAL, "--beta-prime": _REAL},
    "compare": {"--log-x-grid": st.lists(_REAL, min_size=1, max_size=3),
                "--theta": _REAL, "--delta": _REAL, "--beta-prime": _REAL},
}


def _reject_nan(token):
    if token == "NaN":
        raise ValueError("NaN in a record")
    return float(token)  # +-Infinity is flagged by design


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_BOUNDS_FLAGS)).flatmap(
        lambda op: st.tuples(
            st.just(op), st.fixed_dictionaries({}, optional=_BOUNDS_FLAGS[op])
        )
    )
)
# -4 beta log theta = inf and (1 - 2 alpha) log 2 = -inf: a NaN log ratio
@example(("billingsley", {"--alpha": 1e308, "--beta": 1e308, "--theta-param": 0.5}))
# 2 sigma - 1 overflowed to inf, and the envelope integral divided by inf^-2 = 0
@example(("maximal", {"--x": 2.0, "--lambda": 1.0, "--m": 3.0, "--c5": -1.0,
                      "--sigma": 1.7976931348623157e308}))
def test_bounds_argv_ends_in_a_record_without_nan(op_flags):
    _assert_ends_in_a_record_without_nan("bounds", *op_flags)


def _assert_ends_in_a_record_without_nan(group, op, flags):
    argv = [group, op, "--seed", "7"]
    for flag, value in flags.items():
        if value is True:  # a switch
            argv.append(flag)
            continue
        if isinstance(value, list):
            value = ",".join(map(repr, value))
        argv.append(f"{flag}={value if isinstance(value, str) else repr(value)}")
    code, out, err = run_cli(*argv)
    assert code in (0, 2, 3), err  # an escaping exception fails the run itself
    if code == 2:
        assert out == ""
        return
    json.loads((out or err).strip(), parse_constant=_reject_nan)


_NT_X = st.floats(-10.0, 1e4)
#: every nt operation and a strategy for each of its flags; x, the cutoff
#: and the grid's x stay at most 10^4, so each sieve stays small
_NT_FLAGS = {
    "tsum": {"--x": _NT_X, "--m": _REAL},
    "tail": {"--x": _NT_X, "--m": _REAL, "--sigma": _REAL,
             "--cutoff": st.floats(-10.0, 1e4), "--c3": _REAL, "--c5": _REAL},
    "mertens": {"--x": _NT_X, "--exact": st.just(True)},
    "chebyshev": {"--x": _NT_X, "--m": _REAL, "--c2": _REAL},
    "zeta": {"--s": _REAL},
    "primezeta": {"--s": _REAL},
    "fit-lemma31": {"--x-grid": st.lists(_NT_X, min_size=1, max_size=3),
                    "--m-grid": st.lists(_REAL, min_size=1, max_size=3)},
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_NT_FLAGS)).flatmap(
        lambda op: st.tuples(
            st.just(op), st.fixed_dictionaries({}, optional=_NT_FLAGS[op])
        )
    )
)
# (log 2)^(c5 m) underflowed to 0, and the needed c3 divided by it
@example(("fit-lemma31", {"--x-grid": [2.0], "--m-grid": [3000.0]}))
# (log x)^(c5 m) overflowed
@example(("fit-lemma31", {"--x-grid": [2.0, 100.0], "--m-grid": [2000.0]}))
@example(("fit-lemma31", {"--x-grid": [100.0], "--m-grid": [1e20]}))
# T(100, 1e308) is an integer past float64
@example(("fit-lemma31", {"--x-grid": [100.0], "--m-grid": [1e308]}))
# (m - 1) theta(x) and c2 (m - 1) x both overflowed: a NaN ratio
@example(("chebyshev", {"--x": 10000.0, "--m": 1e308}))
# only c2 (m - 1) x overflowed: an Infinity rhs and a ratio of 0
@example(("chebyshev", {"--x": 100.0, "--m": 3.0, "--c2": 1e308}))
# the envelope from int(cutoff) = 0 took math.log(0.0), and from 1, where
# c5 m + 1 = -2, met a pole of the gamma function; both are now refused
@example(("tail", {"--x": 0.0, "--m": 2.0, "--sigma": 1.0, "--cutoff": 0.5}))
@example(("tail", {"--x": 0.0, "--m": 3.0, "--sigma": 0.75, "--cutoff": 1.5,
                   "--c5": -1.0}))
@example(("tail", {"--x": 0.0, "--m": 3.0, "--sigma": 0.75, "--cutoff": 1.5,
                   "--c5": -0.5}))
def test_nt_argv_ends_in_a_record_without_nan(op_flags):
    _assert_ends_in_a_record_without_nan("nt", *op_flags)


_N = st.integers(-3, 10**5)
_TRIAL_INDEX = st.one_of(st.integers(-2, 5), st.sampled_from([2**64 - 1, 2**64]))
_MODES = st.sampled_from(["squarefree", "completely"])
#: the walk operations and a strategy for each of their flags, required then
#: optional; n stays at most 10^5, so each walk takes a fraction of a second
_WALK_FLAGS = {
    ("series", "trajectory"): (
        {"--sigma": _REAL, "--nmax": _N},
        {"--trial": _TRIAL_INDEX, "--mode": _MODES,
         "--stride": st.one_of(st.integers(-2, 10**5), st.just(2**63))},
    ),
    ("sample", "signs"): ({"--nmax": _N}, {"--trial": _TRIAL_INDEX, "--mode": _MODES}),
    ("sieve", "primes"): ({"--nmax": _N}, {}),
}


@run_seed(27)
@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from(sorted(_WALK_FLAGS)).flatmap(
        lambda op: st.tuples(
            st.just(op),
            st.fixed_dictionaries(_WALK_FLAGS[op][0], optional=_WALK_FLAGS[op][1]),
        )
    )
)
def test_walk_argv_ends_in_a_record_without_nan(op_flags):
    (group, op), flags = op_flags
    _assert_ends_in_a_record_without_nan(group, op, flags)


_TRIALS = st.one_of(st.integers(1, 300), st.integers(-2, 0))
_LEVEL = st.one_of(st.floats(0.01, 0.999), _REAL)
_SIGMA = st.one_of(st.floats(0.5, 1.0), _REAL)
_ORDER = st.one_of(st.floats(2.0, 8.0), _REAL)
#: the other series, sieve, oracle and mc operations and a strategy for each
#: of their flags, required then optional: nmax at most 10^4 (60 for oracle
#: positivity and 30 for oracle moment, which enumerate every assignment),
#: P at most 10^5 and at most 300 trials
_GROUP_FLAGS = {
    **{("series", op): (
        {"--sigma": _SIGMA, "--pmax": st.integers(-3, 10**5)},
        {"--trial": _TRIAL_INDEX, "--mode": _MODES},
    ) for op in ("euler", "logdecomp")},
    ("sieve", "signature"): ({"--n": st.integers(-3, 10**12)}, {}),
    ("oracle", "positivity"): (
        {"--nmax": st.one_of(st.integers(-3, 60), st.just(10**4)), "--sigma": _SIGMA},
        {"--x": st.integers(-3, 70), "--mode": _MODES},
    ),
    ("oracle", "moment"): (
        {"--nmax": st.integers(-3, 30), "--m": _ORDER},
        {"--exponent": _REAL, "--absolute": st.just(True), "--mode": _MODES},
    ),
    ("mc", "positivity"): (
        {"--sigma": _SIGMA, "--nmax": st.integers(-3, 10**4), "--trials": _TRIALS},
        {"--x": st.integers(-3, 10**4), "--level": _LEVEL, "--mode": _MODES},
    ),
    ("mc", "moment"): (
        {"--nmax": st.integers(-3, 10**4), "--m": _ORDER, "--trials": _TRIALS},
        {"--exponent": _REAL, "--level": _LEVEL, "--mode": _MODES},
    ),
    ("mc", "sign-changes"): (
        {"--sigma": _SIGMA, "--nmax": st.integers(-3, 10**4), "--trials": _TRIALS},
        {"--level": _LEVEL, "--mode": _MODES},
    ),
}


@run_seed(29)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from(sorted(_GROUP_FLAGS)).flatmap(
        lambda op: st.tuples(
            st.just(op),
            st.fixed_dictionaries(_GROUP_FLAGS[op][0], optional=_GROUP_FLAGS[op][1]),
        )
    )
)
# var > 0 but var * var underflowed: the kurtosis divided by zero
@example((("mc", "moment"), {"--nmax": 3000, "--m": 1075.0, "--exponent": 1.0,
                             "--trials": 2, "--level": 0.5}))
# per-trial arrays of 10^12 trials: numpy's _ArrayMemoryError
@example((("mc", "moment"), {"--nmax": 10, "--m": 4.0, "--trials": 10**12}))
def test_group_argv_ends_in_a_record_without_nan(op_flags):
    (group, op), flags = op_flags
    _assert_ends_in_a_record_without_nan(group, op, flags)


@settings(max_examples=100, deadline=None)
@given(
    st.fixed_dictionaries(
        {"--x": st.floats(-10.0, 1e3), "--m": st.floats(1.0, 20.0),
         "--sigma": st.floats(0.5, 4.0), "--cutoff": st.floats(-10.0, 1e4)},
        optional={"--c3": st.floats(0.0, 100.0), "--c5": st.floats(-5.0, 5.0)},
    )
)
# from int(cutoff) = 1 the envelope continued Gamma(c5 m + 1) to c5 m = -1.5,
# and the record said upper = -111.8 for a sum of nonnegative terms
@example({"--x": 0.0, "--m": 3.0, "--sigma": 0.75, "--cutoff": 1.5, "--c5": -0.5})
def test_nt_tail_records_bracket_a_nonnegative_sum(flags):
    argv = ["nt", "tail", "--seed", "7", *(f"{k}={v!r}" for k, v in flags.items())]
    code, out, err = run_cli(*argv)
    assert code in (0, 3), err
    if code == 0:
        values = record_of(out).values
        assert values["upper"] >= values["head"] >= 0.0


@pytest.mark.parametrize(
    "argv, code",
    [
        # P(1200) underflows to 0: the bound is 0, not a ZeroDivisionError
        (("bounds", "hoeffding", "--lambda", "1", "--sigma", "600",
          "--variance-mode", "exact"), 0),
        # the exponent (log 3)^-inf underflowed to 0, and log(0) raised
        (("bounds", "theorem1", "--log-x", "3", "--theta", "1", "--delta", "1e308"), 0),
        # (log x)^1.8 overflowed
        (("bounds", "theorem1", "--log-x", "1e300", "--theta", "0.1",
          "--delta", "0.5"), 3),
        (("bounds", "bh-rhs", "--nmax", "10", "--m", "4", "--exponent=-1e300"), 3),
        # the exact powers behind these two hung or ran out of memory
        (("bounds", "bh-rhs", "--nmax", "10", "--m", "1e20"), 3),
        (("bounds", "bh-rhs", "--nmax", "10", "--m", "4", "--exponent", "1e20"), 3),
        # mpmath's incomplete gamma raised NoConvergence
        (("nt", "tail", "--x", "1000", "--m", "10000.5", "--sigma", "869.4",
          "--cutoff", "100000"), 3),
        # a zero tail took math.log(0.0), a negative c3 math.log(-r)
        (("bounds", "maximal", "--lambda", "1", "--m", "3", "--x", "1000",
          "--sigma", "1e300", "--c3", "0"), 0),
        (("bounds", "maximal", "--lambda", "1", "--m", "3", "--x", "1000",
          "--sigma", "0.6", "--c3", "-1"), 3),
        # -inf + inf, and round(inf) for the moment order
        (("bounds", "lemma41", "--log-x", "1e300", "--theta", "0.9", "--delta",
          "0.5", "--beta", "1e308", "--epsilon", "1e308", "--log-lambda=-1e308"), 3),
        (("bounds", "lemma41", "--log-x", "1e300", "--theta", "0.5", "--delta",
          "0.5", "--beta", "1", "--epsilon", "1e308", "--log-lambda", "-1"), 0),
        # the golden-section search stepped outside the admissible interval
        (("bounds", "kappa", "--m", "2.0000000001"), 0),
        # 2 sigma - 1 overflowed to inf: the envelope integral divided by 0
        (("bounds", "maximal", "--x", "2", "--lambda", "1", "--m", "3", "--c5", "-1",
          "--sigma", "1.7976931348623157e+308"), 0),
        (("nt", "tail", "--x", "2", "--m", "3", "--c5", "-1", "--sigma", "1e308",
          "--cutoff", "100"), 0),
    ],
)
def test_float_extremes_end_in_a_record_without_nan(argv, code):
    got, out, err = run_cli(*argv, "--seed", "1")
    assert got == code, err
    rec = json.loads((out or err).strip(), parse_constant=_reject_nan)
    if code == 3:
        assert rec["values"]["error"] == "DomainError"


@pytest.mark.parametrize(
    "argv, error, reason",
    [
        # (log 2)^(c5 m) underflowed to 0: a ZeroDivisionError
        (("nt", "fit-lemma31", "--x-grid", "2", "--m-grid", "3000"),
         "FitError", "for x < e"),
        # math.log(x) ** (c5 m) raised OverflowError
        (("nt", "fit-lemma31", "--x-grid", "2,100", "--m-grid", "2000"),
         "FitError", "for x < e"),
        (("nt", "fit-lemma31", "--x-grid", "100", "--m-grid", "1e20"),
         "FitError", "a c3 of 0 underflowed"),
        # float(T(100, 1e308)) raised OverflowError
        (("nt", "fit-lemma31", "--x-grid", "100", "--m-grid", "1e308"),
         "DomainError", "too large for float64"),
        # exited 0 with lhs = rhs = Infinity and a NaN ratio
        (("nt", "chebyshev", "--x", "10000", "--m", "1e308"),
         "DomainError", "too large for float64"),
        # exited 0 with an Infinity rhs and a ratio of 0
        (("nt", "chebyshev", "--x", "100", "--m", "3", "--c2", "1e308"),
         "DomainError", "c2 (m - 1) x is too large for float64"),
    ],
)
def test_nt_float_extremes_end_in_a_true_refusal(argv, error, reason):
    code, out, err = run_cli(*argv, "--seed", "1")
    assert (code, out) == (3, ""), err
    values = json.loads(err.strip(), parse_constant=_reject_nan)["values"]
    assert values["error"] == error
    assert reason in values["message"]
    assert "implementation bug" not in values["message"]


def test_exact_bh_sum_past_its_bit_budget_is_refused_at_once():
    # each 1/n^10000 has up to 76000 bits: the Fraction sum ran for 47 s
    start = time.perf_counter()
    code, out, err = run_cli(
        "bounds", "bh-rhs", "--nmax", "200", "--m", "4", "--exponent", "5000",
        "--seed", "1",
    )
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (3, "")
    assert "bits" in ResultRecord.from_json_line(err.strip()).values["message"]


@pytest.mark.parametrize(
    "argv",
    [
        # each assignment's exact sum went to the power m with no budget
        ("oracle", "moment", "--nmax", "10", "--m", "1e20"),
        ("oracle", "moment", "--nmax", "10", "--m", "1e6"),
        # the integer weights n^1000000 were formed with no budget
        ("oracle", "positivity", "--nmax", "40", "--sigma=-1000000", "--x", "1"),
    ],
)
def test_exact_power_past_its_bit_budget_exit_3_at_once(argv):
    start = time.perf_counter()
    code, out, err = run_cli(*argv, "--seed", "1")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (3, "")
    rec = ResultRecord.from_json_line(err.strip())
    assert rec.values["error"] == "DomainError"
    assert "65536 bits" in rec.values["message"]


def test_kappa_at_huge_m_is_its_limit():
    # theta_star -> 2^(-1/2), so kappa -> 2^(3/4) (1 - 2^(-1/2))^(-1/2); the
    # golden-section search returned NaN here
    _, out, _ = run_cli("bounds", "kappa", "--m", "1e308", "--seed", "1")
    assert record_of(out).values["kappa"] == pytest.approx(3.10754794806, rel=1e-11)


@pytest.mark.parametrize("op", ["theorem1", "corollary", "lambda", "lemma41"])
def test_regime_without_sigma_or_log_x_exit_3(op):
    # regime_from_sigma(None, ...) ended in a TypeError traceback
    code, out, err = run_cli("bounds", op, "--theta", "0.5", "--delta", "0.5")
    assert (code, out) == (3, "")
    message = ResultRecord.from_json_line(err.strip()).values["message"]
    assert "--sigma" in message and "--log-x" in message


def test_regime_log_x_wins_over_sigma(tmp_path):
    # a config file and an argv flag can give both; --log-x is then used
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 0.9\n")  # log x = 6.25
    argv = ("bounds", "theorem1", "--theta", "0.5", "--delta", "0.5", "--seed", "1")
    _, both, _ = run_cli(*argv, "--config", str(cfg), "--log-x", "100")
    _, log_x, _ = run_cli(*argv, "--log-x", "100")
    assert record_of(both).values == record_of(log_x).values


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


@pytest.mark.parametrize("form", ["after", "equals", "global-first"])
def test_config_file_forms(tmp_path, form):
    # comment-only lines are skipped; --config=FILE and a global flag ahead of
    # the group leave the config keys to land after `group op`
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for a zeta run\n\n   # indented comment\ns = 2.0\n")
    argv = {
        "after": ["nt", "zeta", "--config", str(cfg), "--seed", "5"],
        "equals": [f"--config={cfg}", "nt", "zeta", "--seed", "5"],
        "global-first": ["--seed", "5", "--config", str(cfg), "nt", "zeta"],
    }[form]
    code, out, _ = run_cli(*argv)
    assert code == 0
    rec = record_of(out)
    assert (rec.seed, rec.params["s"]) == (5, 2.0)
    assert rec.values["value"] == pytest.approx(math.pi**2 / 6, rel=1e-12)


def test_malformed_config_line_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 2.0\njust some words\n")
    code, out, err = run_cli("nt", "zeta", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "malformed config line" in err and "just some words" in err


def test_threads_below_one_exit_2():
    code, out, err = run_cli("nt", "zeta", "--s", "2", "--threads", "0")
    assert (code, out) == (2, "")
    assert "--threads must be >= 1" in err


def test_env_var_thread_default(monkeypatch):
    monkeypatch.setenv("RMF_LAB_THREADS", "3")
    _, out, _ = run_cli("nt", "zeta", "--s", "2")
    assert record_of(out).params["threads"] == 3


@pytest.mark.parametrize("value", ["abc", ""])
def test_env_var_thread_default_not_an_integer_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("RMF_LAB_THREADS", value)
    code, out, err = run_cli("nt", "zeta", "--s", "2")
    assert code == 2
    assert out == ""
    stderr = err + capsys.readouterr().err
    assert "--threads" in stderr
    assert "Traceback" not in stderr


def test_build_parser_builds_one_parser_per_process():
    assert build_parser() is build_parser()


def test_dispatch_builds_no_parser_after_build_parser(monkeypatch):
    build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli("nt", "zeta", "--s", "2")[0] == 0
    assert run_cli("nt", "zeta")[0] == 2
    assert built == []
    argparse.ArgumentParser(prog="counted")
    assert built == ["counted"]


def test_env_var_thread_default_is_read_on_each_dispatch(monkeypatch, capsys):
    argv = ("nt", "zeta", "--s", "2")
    monkeypatch.setenv("RMF_LAB_THREADS", "3")
    assert record_of(run_cli(*argv)[1]).params["threads"] == 3
    monkeypatch.delenv("RMF_LAB_THREADS")
    assert record_of(run_cli(*argv)[1]).params["threads"] == 1
    monkeypatch.setenv("RMF_LAB_THREADS", "abc")
    code, out, _ = run_cli(*argv)
    assert (code, out) == (2, "")
    assert "argument --threads: invalid int value: 'abc'" in capsys.readouterr().err
    # the flag wins over the variable, which is not read
    code, out, _ = run_cli(*argv, "--threads", "2")
    assert (code, record_of(out).params["threads"]) == (0, 2)
    monkeypatch.delenv("RMF_LAB_THREADS")
    code, out, _ = run_cli(*argv)
    assert (code, record_of(out).params["threads"]) == (0, 1)


@pytest.mark.parametrize("switch, numerator", [("yes", True), ("off", False)])
def test_config_switches_and_global_keys(tmp_path, switch, numerator):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x = 10\nexact = {switch}\nseed = 5\nthreads = 2\n")
    code, out, _ = run_cli("nt", "mertens", "--config", str(cfg))
    assert code == 0
    rec = record_of(out)
    assert (rec.seed, rec.params["threads"], rec.params["exact"]) == (5, 2, numerator)
    assert ("numerator" in rec.values) is numerator


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


@pytest.mark.parametrize(
    "content",
    [b"RMFPRIM1", b"RMFPRIM1\x64" + bytes(7) + b"\x02" + bytes(4)],
    ids=["truncated-header", "odd-body"],
)
def test_sieve_primes_damaged_cache_exit_3(tmp_path, content):
    # a truncated header, then a body that is not whole int64 words
    cache = tmp_path / "primes.bin"
    cache.write_bytes(content)
    code, out, err = run_cli("sieve", "primes", "--nmax", "100", "--cache", str(cache))
    assert code == 3
    assert out == ""
    assert record_of(err).values["error"] == "DomainError"


def test_oracle_moment_honours_mode():
    code, out, _ = run_cli(
        "oracle", "moment", "--nmax", "12", "--m", "4", "--mode", "completely"
    )
    assert code == 0
    rec = record_of(out)
    coeffs = {n: Fraction(1, n) for n in range(1, 13)}
    expected = exact_moment(12, coeffs, 4, mode=Mode.COMPLETELY_MULT)
    assert rec.params["mode"] == "completely"
    assert Fraction(rec.values["numerator"], rec.values["denominator"]) == expected
    assert expected == Fraction(8103719439989733121, 590436101122560000)


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


@pytest.mark.parametrize(
    "argv, header, row",
    [
        # a nested payload flattens to <key>_<inner key> columns
        (("bounds", "hoeffding", "--lambda", "1", "--sigma", "0.6"),
         "command,seed,asymptotic_flags,asymptotic_log_value,asymptotic_name,"
         "asymptotic_value,asymptotic_variance_proxy,exact_flags,exact_log_value,"
         "exact_name,exact_value,exact_variance_proxy",
         "bounds hoeffding,1,,-0.21714724095162588,hoeffding_bound,"
         "0.8048114593753003,2.302585092994046,,-0.3289975161232271,"
         "hoeffding_bound,0.7196448042538695,1.5197683128182748"),
        # a list cell joins its items with ';'
        (("sieve", "signature", "--n", "30"),
         "command,seed,distinct_primes,is_squarefree,n,omega",
         "sieve signature,1,2;3;5,True,30,3"),
    ],
)
def test_csv_flattens_nested_payloads_and_lists(argv, header, row):
    code, out, _ = run_cli(*argv, "--format", "csv", "--seed", "1")
    assert code == 0
    assert out.splitlines() == [header, row]


def test_oracle_moment_non_integer_order_is_a_certified_value():
    code, out, _ = run_cli("oracle", "moment", "--nmax", "6", "--m", "2.5")
    assert code == 0
    expected = exact_moment(6, {n: Fraction(1, n) for n in range(1, 7)}, 2.5)
    assert record_of(out).values == {
        "value": expected.value, "error_bound": expected.error_bound,
    }


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
