import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import seed

from rmflab.sampler import Mode, SignAssignment
from rmflab.sieve import _check_base, primes_up_to


#: the run's --hypothesis-seed, None when the run gives none
_RUN_SEED = None


def pytest_configure(config):
    global _RUN_SEED
    _RUN_SEED = config.getoption("--hypothesis-seed", None)


def run_seed(default):
    """@seed(default), or @seed of the run's --hypothesis-seed if it gives one.

    A test under @seed alone draws the same examples whatever the run's
    seed, since @seed overrides --hypothesis-seed; under run_seed a run
    without the option stays deterministic and one with it draws anew.
    """
    return seed(default if _RUN_SEED is None else _RUN_SEED)


def divided_block_tables(lo, hi, base):
    """(omega, squarefree, cofactor) of [lo, hi] by the per-prime division sieve.

    Each base prime p <= sqrt(hi) with a multiple in the block adds 1 to
    omega there and is divided out of a running cofactor, int32 below
    2^31, once per power level p, p^2, ... <= hi, the levels from p^2 on
    clearing squarefree; omega then counts a cofactor left above 1.  The
    reference for sieve.sieve_block_tables, which multiplies a smooth part.
    """
    size = hi - lo + 1
    omega = np.zeros(size, dtype=np.int8)
    squarefree = np.ones(size, dtype=bool)
    cofactor = np.arange(lo, hi + 1, dtype=np.int32 if hi < 2**31 else np.int64)
    primes = _check_base(hi, base)
    first = -lo % primes
    within = first < size
    for p, start in zip(primes[within].tolist(), first[within].tolist()):
        sl = slice(start, size, p)
        omega[sl] += 1
        cofactor[sl] //= p
        q = p * p
        while q <= hi:
            start = ((lo + q - 1) // q) * q
            sl = slice(start - lo, size, q)
            squarefree[sl] = False
            cofactor[sl] //= p
            q *= p
    omega += cofactor > 1
    return omega, squarefree, cofactor


def searched_ranks(tables, base):
    """Rank in base of each row's cofactor prime, -1 where the cofactor is 1.

    One searchsorted over every prime of base: the reference for the ranks
    that sieve.ranked_walk counts from its bitmap.
    """
    ranks = np.full(tables.cofactor.size, -1)
    big = tables.cofactor > 1
    ranks[big] = np.searchsorted(base.primes, tables.cofactor[big])
    return ranks


@pytest.fixture
def assignment_factory():
    """Build a SignAssignment with hand-picked prime signs (default +1)."""

    def make(limit, sign_map=None, mode=Mode.SQUAREFREE_MULT, seed=0, trial=0):
        sign_map = sign_map or {}
        plist = primes_up_to(limit)
        bits = np.array(
            [1 if sign_map.get(int(p), 1) < 0 else 0 for p in plist.primes],
            dtype=np.uint8,
        )
        bits = np.packbits(bits, bitorder="little")
        return SignAssignment(seed, trial, limit, mode, bits)

    return make


@pytest.fixture(scope="session")
def primes_ten_million():
    return primes_up_to(10_000_000)


@pytest.fixture
def run_fresh():
    """Run Python code in a fresh interpreter with src on the path; its stdout.

    Linux carries a process's peak RSS across exec into the new program, so
    the interpreter is started from a small one, not from pytest, and its
    ru_maxrss is its own.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )

    def run(code):
        launcher = (
            "import subprocess, sys\n"
            f"subprocess.run([sys.executable, '-c', {code!r}], check=True)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", launcher], env=env, capture_output=True,
            text=True, check=True,
        )
        return result.stdout

    return run
