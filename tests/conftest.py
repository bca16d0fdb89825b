import numpy as np
import pytest

from rmflab.sampler import Mode, SignAssignment
from rmflab.sieve import primes_up_to


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
        return SignAssignment(seed, trial, limit, mode, plist, bits)

    return make


@pytest.fixture(scope="session")
def primes_ten_million():
    return primes_up_to(10_000_000)
