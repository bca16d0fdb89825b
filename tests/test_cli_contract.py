"""The command-line contract of all 31 operations.

For each `rmf-lab <group> <op>`: the params dict that a minimal argv
resolves to (every record echoes it, defaults included), the exit code 2
when any one required flag is left out, and a working `--help`.
"""

import io
import json

import pytest

from rmflab.cli import dispatch

#: "group op" -> (required flags, other flags of the minimal argv, params)
CONTRACT = {
    "sieve primes": (
        {"--nmax": "10"}, {},
        {"cache": None, "nmax": 10, "threads": 1},
    ),
    "sieve signature": (
        {"--n": "12"}, {},
        {"n": 12, "threads": 1},
    ),
    "sample signs": (
        {"--nmax": "10"}, {},
        {"mode": "squarefree", "nmax": 10, "threads": 1, "trial": 0},
    ),
    "series trajectory": (
        {"--sigma": "1", "--nmax": "10"}, {},
        {"mode": "squarefree", "nmax": 10, "sigma": 1.0, "stride": 1,
         "threads": 1, "trial": 0},
    ),
    "series euler": (
        {"--sigma": "1", "--pmax": "10"}, {},
        {"mode": "squarefree", "pmax": 10, "sigma": 1.0, "threads": 1, "trial": 0},
    ),
    "series logdecomp": (
        {"--sigma": "1", "--pmax": "10"}, {},
        {"mode": "squarefree", "pmax": 10, "sigma": 1.0, "threads": 1, "trial": 0},
    ),
    "oracle positivity": (
        {"--nmax": "10", "--sigma": "1"}, {},
        {"mode": "squarefree", "nmax": 10, "sigma": 1.0, "threads": 1, "x": 1},
    ),
    "oracle moment": (
        {"--nmax": "10", "--m": "4"}, {},
        {"absolute": False, "exponent": 1.0, "m": 4.0, "mode": "squarefree",
         "nmax": 10, "threads": 1},
    ),
    "mc positivity": (
        {"--sigma": "1", "--nmax": "10", "--trials": "10"}, {},
        {"dump_trials": None, "level": 0.99, "mode": "squarefree", "nmax": 10,
         "sigma": 1.0, "threads": 1, "trials": 10, "x": 1},
    ),
    "mc moment": (
        {"--nmax": "10", "--m": "4", "--trials": "10"}, {},
        {"exponent": 1.0, "level": 0.99, "m": 4.0, "mode": "squarefree",
         "nmax": 10, "threads": 1, "trials": 10},
    ),
    "mc prime-tail": (
        {"--sigma": "1", "--lambda": "0.5", "--pmax": "10", "--trials": "10"}, {},
        {"lambda": 0.5, "level": 0.99, "pmax": 10, "sigma": 1.0, "threads": 1,
         "trials": 10},
    ),
    "mc sign-changes": (
        {"--sigma": "1", "--nmax": "10", "--trials": "10"}, {},
        {"level": 0.99, "mode": "squarefree", "nmax": 10, "sigma": 1.0,
         "threads": 1, "trials": 10},
    ),
    "nt tsum": (
        {"--x": "10", "--m": "3"}, {},
        {"m": 3.0, "threads": 1, "x": 10.0},
    ),
    "nt tail": (
        {"--x": "10", "--m": "3", "--sigma": "0.75", "--cutoff": "100"}, {},
        {"c3": 10.0, "c5": 1.0, "cutoff": 100.0, "m": 3.0, "sigma": 0.75,
         "threads": 1, "x": 10.0},
    ),
    "nt mertens": (
        {"--x": "10"}, {},
        {"exact": False, "threads": 1, "x": 10.0},
    ),
    "nt chebyshev": (
        {"--x": "10"}, {},
        {"c2": 1.04, "m": 2.0, "threads": 1, "x": 10.0},
    ),
    "nt zeta": (
        {"--s": "2"}, {},
        {"s": 2.0, "threads": 1},
    ),
    "nt primezeta": (
        {"--s": "2"}, {},
        {"s": 2.0, "threads": 1},
    ),
    "nt fit-lemma31": (
        {}, {},
        {"m_grid": [3.0, 5.0, 10.0], "threads": 1,
         "x_grid": [100.0, 1000.0, 10000.0, 100000.0, 1000000.0]},
    ),
    "bounds theorem1": (
        {"--theta": "0.5", "--delta": "0.5"}, {"--sigma": "0.6"},
        {"delta": 0.5, "log_x": None, "sigma": 0.6, "theta": 0.5, "threads": 1},
    ),
    "bounds corollary": (
        {"--theta": "0.5", "--delta": "0.5"}, {"--sigma": "0.6"},
        {"delta": 0.5, "log_x": None, "sigma": 0.6, "theta": 0.5, "threads": 1},
    ),
    "bounds hoeffding": (
        {"--lambda": "2", "--sigma": "0.75"}, {},
        {"lambda": 2.0, "sigma": 0.75, "threads": 1, "variance_mode": "both"},
    ),
    "bounds bh-rhs": (
        {"--nmax": "10", "--m": "4"}, {},
        {"exponent": 1.0, "m": 4.0, "nmax": 10, "threads": 1},
    ),
    "bounds maximal": (
        {"--lambda": "2", "--m": "3", "--x": "100", "--sigma": "0.75"}, {},
        {"c3": 10.0, "c5": 1.0, "cutoff": None, "kappa": None, "lambda": 2.0,
         "m": 3.0, "sigma": 0.75, "threads": 1, "x": 100.0},
    ),
    "bounds billingsley": (
        {"--alpha": "3", "--beta": "1", "--theta-param": "0.5"}, {},
        {"alpha": 3.0, "beta": 1.0, "theta_param": 0.5, "threads": 1},
    ),
    "bounds kappa": (
        {"--m": "4"}, {},
        {"m": 4.0, "threads": 1},
    ),
    "bounds lambda": (
        {"--theta": "0.5", "--delta": "0.5"}, {"--log-x": "100"},
        {"delta": 0.5, "log_x": 100.0, "sigma": None, "theta": 0.5, "threads": 1},
    ),
    "bounds epsilon": (
        {"--theta": "0.5"}, {},
        {"c10": 1.0, "c11": 1.0, "c9": 1.0, "theta": 0.5, "threads": 1},
    ),
    "bounds lemma41": (
        {"--theta": "0.5", "--delta": "0.5"}, {"--sigma": "0.6"},
        {"beta": None, "delta": 0.5, "epsilon": None, "lambda": None,
         "log_lambda": None, "log_x": None, "sigma": 0.6, "theta": 0.5,
         "threads": 1},
    ),
    "bounds angelo-xu": (
        {"--log-x": "100"}, {},
        {"beta_prime": 1.0, "log_x": 100.0, "threads": 1},
    ),
    "bounds compare": (
        {"--log-x-grid": "100", "--theta": "0.5", "--delta": "0.5"}, {},
        {"beta_prime": 1.0, "delta": 0.5, "log_x_grid": [100.0], "theta": 0.5,
         "threads": 1},
    ),
}


def _argv(command, flags):
    return command.split() + [t for pair in flags.items() for t in pair]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv + ["--seed", "1"], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    monkeypatch.delenv("RMF_LAB_THREADS", raising=False)


def test_contract_covers_every_operation():
    assert len(CONTRACT) == 31


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_minimal_argv_resolves_pinned_params(command):
    required, others, params = CONTRACT[command]
    code, out, err = _run(_argv(command, {**required, **others}))
    assert code == 0, err
    record = json.loads(out.splitlines()[0])
    assert record["command"] == command
    # as text, so that 1 and 1.0 differ
    assert json.dumps(record["params"], sort_keys=True) == json.dumps(params)


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in sorted(CONTRACT) for f in CONTRACT[c][0]],
)
def test_dropping_a_required_flag_exits_2(command, flag, capsys):
    required, others, _ = CONTRACT[command]
    kept = {k: v for k, v in {**required, **others}.items() if k != flag}
    code, out, _ = _run(_argv(command, kept))
    assert code == 2
    assert out == ""
    assert flag in capsys.readouterr().err  # argparse's usage error


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_help_exits_0(command, capsys):
    assert dispatch(command.split() + ["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: rmf-lab " + command)
