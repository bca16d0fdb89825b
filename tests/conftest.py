import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rmflab.sampler import Mode, SignAssignment
from rmflab.sieve import primes_up_to


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
        return SignAssignment(seed, trial, limit, mode, plist, bits)

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
