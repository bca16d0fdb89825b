"""Compensated floating-point accumulation with certified error bounds.

Series here run to 10^8 terms of mixed sign near cancellation, and the
positivity predicate must never be decided by rounding noise.  The
accumulators therefore track an L1 magnitude alongside the compensated
total, from which a rigorous (if slightly conservative) error bound is
derived.

Every weight n^-sigma comes from power_weights as exp(-sigma log n),
evaluated by numpy's vectorized (SIMD) log and exp rather than libm.  The
rounding model takes log within EPS and exp within 2 EPS relative error;
numpy 2.4 measured 0.99 EPS and 1.11 EPS against mpmath for n <= 10^8.
sigma log n is then rounded twice, in log and in the multiply, and exp
turns that absolute error in its argument into a relative one, so a
weight is off by at most about (2 sigma log n + 2) EPS relative.
weight_allowance rounds this up to 2 sigma log N + 3 for n <= N.
"""

from __future__ import annotations

import math

import numpy as np

#: Unit roundoff of IEEE-754 binary64.
EPS = 2.0**-53

#: Width of the vectorized cumulative-sum chunks used by trajectory code.
CHUNK = 1024


class CompensatedSum:
    """Neumaier-compensated running sum.

    The compensated total deviates from the exact sum of the added floats
    by at most 2*EPS*abs_total up to O(EPS^2); callers fold in their own
    per-term model via series_error_bound.
    """

    __slots__ = ("total", "comp", "abs_total")

    def __init__(self) -> None:
        self.total = 0.0
        self.comp = 0.0
        self.abs_total = 0.0

    def add(self, x: float) -> None:
        t = self.total + x
        if abs(self.total) >= abs(x):
            self.comp += (self.total - t) + x
        else:
            self.comp += (x - t) + self.total
        self.total = t
        self.abs_total += abs(x)

    def add_exact_chunk(self, chunk) -> float:
        """Fold a chunk via math.fsum (exactly rounded) into the state.

        Returns the chunk's L1 mass, which replaces the net |sum| that a
        plain add() would have credited to abs_total.
        """
        values = chunk.tolist() if hasattr(chunk, "tolist") else list(chunk)
        net = math.fsum(values)
        mass = math.fsum(map(abs, values))
        self.add(net)
        self.abs_total += mass - abs(net)
        return mass

    @property
    def value(self) -> float:
        return self.total + self.comp


def power_weights(n, sigma: float) -> np.ndarray:
    """n^-sigma for every entry of n, evaluated as exp(-sigma log n)."""
    return np.exp(-sigma * np.log(np.asarray(n, dtype=np.float64)))


def weight_allowance(sigma: float, n_max: int) -> float:
    """Relative error of power_weights(n, sigma) for n <= n_max, in EPS units."""
    return 2.0 * sigma * math.log(max(n_max, 2)) + 3.0


def series_error_bound(
    abs_total: float,
    max_chunk_abs: float,
    n_chunks: int,
    sigma: float,
    n_max: int,
) -> float:
    """Certified bound on |computed - exact| for chunked cumulative sums.

    Covers: per-term rounding of the power_weights(n, sigma) weights for
    n <= n_max, cross-chunk base accumulation (one rounding per chunk in
    the vectorized path, tighter but still covered in the compensated
    path), the base + cumsum adds at each checkpoint, and the recursive
    intra-chunk cumulative error.
    """
    weight = weight_allowance(sigma, n_max)
    return EPS * ((weight + 8.0 + n_chunks) * abs_total + (CHUNK + 8.0) * max_chunk_abs)
