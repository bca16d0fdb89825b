"""Running sums of weighted series with certified error bounds.

Series here run to 10^8 terms of mixed sign near cancellation, and the
positivity predicate must never be decided by rounding noise.  Every
prefix sum is formed by running_sums, in one fixed order: in order down
each CHUNK-row block, plus the last sum before the block.  It forms a
block in row tiles of at most TILE_CELLS cells, which stay in cache, and
the tiles do not change that order.  series_error_bound turns the
per-chunk L1 masses of the terms into a rigorous (if conservative) bound
on the rounding error of that order.
signed_sum_error_bound bounds a signed sum of weights formed in any
order, so the kernel that forms it may change without moving a verdict.

Every weight n^-sigma comes from power_weights as exp(-sigma log n),
evaluated by numpy's vectorized (SIMD) log and exp rather than libm.  The
rounding model takes log within EPS and exp within 2 EPS relative error;
numpy 2.4 measured 0.99 EPS and 1.11 EPS against mpmath for n <= 10^8.
sigma log n is then rounded twice, in log and in the multiply, and exp
turns that absolute error in its argument into a relative one, so a
weight is off by at most about (2 |sigma| log n + 2) EPS relative.
weight_allowance rounds this up to 2 |sigma| log N + 3 for n <= N.

exact_sum is the one correctly rounded sum of an array: the value of
math.fsum, formed in numpy from exponent bins without a Python float per
term.
"""

from __future__ import annotations

import math

import numpy as np

#: Unit roundoff of IEEE-754 binary64.
EPS = 2.0**-53

#: Smallest positive normal binary64; below it relative error bounds fail.
TINY = 2.0**-1022

#: Number of rows of terms that running_sums sums from one carried base.
CHUNK = 1024

#: Most float64 cells of a running_sums tile (1 MB, an L2 cache's worth):
#: a CHUNK-row block of 2048 trials is 16 MB, so each of the scan's passes
#: over a whole block would go to main memory.
TILE_CELLS = 1 << 17

#: Fewest trials for which running_sums adds row by row rather than cumsum:
#: np.add on rows of 2048 trials is several times faster than a cumsum down
#: axis 0, but on rows of 128 or fewer the per-call overhead makes it slower.
WIDE = 256

#: Most terms exact_sum bins at a time: each bin then sums at most 2^26
#: integers below 2^27 in magnitude, so every partial sum is exact.
EXACT_SLICE = 1 << 26

#: Adding and subtracting it rounds a float below 2^51 in magnitude to an
#: integer: the sum lies in [2^52, 2^53), where the spacing is 1.
_ROUNDER = 1.5 * 2.0**52


def exact_sum(x) -> float:
    """The correctly rounded sum of the float64 array x: math.fsum(x.tolist()).

    Exponent-binned summation (Demmel and Hida, SIAM J. Sci. Comput. 25,
    2003): np.frexp writes each term as M 2^(e - 53) with M an integer,
    |M| < 2^53, and M splits exactly into 2^26 h + l with |h| <= 2^27 and
    |l| <= 2^25.  np.bincount sums the h and the l of each exponent exactly
    in float64, EXACT_SLICE terms at a time, and the few bin sums combine
    as one Python int, which one int / int true division rounds correctly.
    A sum beyond float64 raises OverflowError, as fsum's does, but a finite
    sum is returned even where fsum's own partial sums would overflow.  An
    inf or NaN term sends the whole array to math.fsum, and so does an
    exact zero of zero terms alone, to keep fsum's sign of zero.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    parts = []  # (integer sum, power of two it counts in) of each slice
    for s in range(0, x.size, EXACT_SLICE):
        m, e = np.frexp(x[s : s + EXACT_SLICE])
        low = int(e.min())
        e = np.subtract(e, low, dtype=np.intp)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and ends below
            m *= 2.0**27
            high = m + _ROUNDER
            high -= _ROUNDER
            m -= high
            m *= 2.0**26  # 2^53 m - 2^26 high, exactly
        bins = np.bincount(e, weights=high), np.bincount(e, weights=m)
        if not (np.isfinite(bins[0]).all() and np.isfinite(bins[1]).all()):
            return math.fsum(x.tolist())
        held = np.flatnonzero((bins[0] != 0.0) | (bins[1] != 0.0))
        sums = zip(held.tolist(), bins[0][held].tolist(), bins[1][held].tolist())
        part = sum(((int(h) << 26) + int(l)) << k for k, h, l in sums)
        parts.append((part, low - 53))
    scale = min((p for _, p in parts), default=0)
    total = sum(n << (p - scale) for n, p in parts)
    if not total:
        return 0.0 if x.any() else math.fsum(x.tolist())
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def tile_rows(width: int) -> int:
    """Rows of a running_sums tile of width trials: the tallest power of two
    up to CHUNK, and down to 16, of at most TILE_CELLS cells.  A whole block
    up to 128 trials, 128 rows at 1000 and 64 at 2048."""
    rows = CHUNK
    while rows > 16 and rows * width > TILE_CELLS:
        rows //= 2
    return rows


def running_sums(f, weights, base=0.0):
    """Yield (r, S) for each tile of rows r, r + 1, ... of f * weights[:, None].

    f is (n, trials), one row per term.  S holds the running sums
    sum_{i<=j} f[i] weights[i] for the rows j of the tile: the terms of
    each CHUNK-row block summed in order down axis 0, s_j = s_{j-1} + t_j
    from the block's first row, plus the last running sums before the
    block (base for the first block).  The tiles cut each block into
    tile_rows(trials) rows without moving a bit: the last unbased row of a
    tile starts the next one's sum, and the base is added last.  base is
    copied on entry, so the caller may rewrite it.  Every tile is formed
    in one buffer of at most TILE_CELLS cells, so S is valid only until the
    next tile is asked for, and callers may overwrite it.
    """
    base = np.array(base, dtype=np.float64)
    height = min(tile_rows(f.shape[1]), f.shape[0])
    buffer = np.empty((height, f.shape[1]))  # fresh tiles would grow the heap
    for c in range(0, f.shape[0], CHUNK):
        stop = min(c + CHUNK, f.shape[0])
        for r in range(c, stop, height):
            s = buffer[: min(height, stop - r)]
            np.copyto(s, f[r : r + s.shape[0]], casting="unsafe")
            s *= weights[r : r + s.shape[0], None]
            if r > c:  # carry the block's sum so far into the tile
                np.add(last, s[0], out=s[0])
            if s.shape[1] >= WIDE:
                for prev, row in zip(s, s[1:]):
                    np.add(prev, row, out=row)
            else:
                np.cumsum(s, axis=0, out=s)
            last = s[-1].copy()
            s += base
            if r + height >= stop:
                base = s[-1:].copy()
            yield r, s


def chunk_masses(abs_terms) -> list[float]:
    """L1 mass of each CHUNK-wide block of the term magnitudes abs_terms."""
    return [
        float(abs_terms[c : c + CHUNK].sum()) for c in range(0, abs_terms.size, CHUNK)
    ]


def power_weights(n, sigma: float) -> np.ndarray:
    """n^-sigma for every entry of n, evaluated as exp(-sigma log n).

    A weight that overflows to inf or underflows to 0 does so silently:
    the error bounds below and the band rule that reads them account for
    both.
    """
    with np.errstate(over="ignore"):
        return np.exp(-sigma * np.log(np.asarray(n, dtype=np.float64)))


def weight_allowance(sigma: float, n_max: int) -> float:
    """Relative error of power_weights(n, sigma) for n <= n_max, in EPS units."""
    return 2.0 * abs(sigma) * math.log(max(n_max, 2)) + 3.0


def signed_sum_error_bound(k: int, total: float, sigma: float, n_max: int) -> float:
    """Certified bound on |computed - exact| of total - 2 neg, in any order.

    total is the exact_sum W of k power_weights n^-sigma, n <= n_max, and neg
    the sum of some subset of them, formed in any order.  Every partial
    sum of neg is a sum of positive weights, so whatever the order its
    rounding is at most gamma_k W with gamma_k = k EPS / (1 - k EPS)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 3.1), and doubling neg doubles it.  Each weight is off by its
    weight_allowance relative, which moves total - 2 neg by at most that
    times W.  8 more EPS units of W cover its rounding, the subtraction and
    the second-order terms.  A weight below the normal range can lose all
    its relative accuracy, so each one adds TINY; an allowance too large
    for float64 arises only when every weight underflows to 0, and then
    the TINY terms alone apply.  Rounding is monotone, so a rounded
    difference from a threshold beyond this band is exactly beyond it too.
    """
    gamma = k * EPS / (1.0 - k * EPS)
    relative = 2.0 * gamma + (weight_allowance(sigma, n_max) + 8.0) * EPS
    return (relative * total if total else 0.0) + k * TINY


def series_error_bound(masses, sigma: float, n_max: int) -> float:
    """Certified bound on |computed - exact| for every sum of running_sums.

    masses are the chunk_masses of the terms f(n) n^-sigma, n <= n_max.
    A term is off by its power_weights allowance.  It then goes through at
    most CHUNK - 1 additions in its block's running sum and one base addition
    in each block from its own onwards, len(masses) in all, each rounding
    within EPS.  So every running sum is the exact sum of terms perturbed
    by at most (allowance + CHUNK + len(masses)) EPS relative, to first
    order, and its error is at most that times the total mass.  8 more
    EPS units cover the second-order terms and the rounding of the masses.
    For sigma > 0 an allowance too large for float64 arises only when
    sigma log 2 is far past 745: every weight past n = 1 is then exactly
    0, every sum exact but for those terms, and each of their true values
    is below 2^-1075, so n_max TINY bounds the error.
    """
    return _mass_error(math.fsum(masses), len(masses), sigma, n_max)


def series_error_ceiling(sigma: float, n_max: int) -> float:
    """A bound >= series_error_bound of the terms on [1, n_max], before any is formed.

    The masses of the pieces of [1, n_max] come in ceil(n_max / CHUNK)
    chunks, and their fsum is at most that of all the power_weights n^-sigma,
    n <= n_max, each off by its allowance, in chunk sums of positive terms
    off by gamma_CHUNK and one more rounding.  That exact sum is at most 1 +
    int_1^N t^-sigma dt for sigma > 0 and N^(1 - sigma) otherwise, evaluated
    with a relative slack of 2^-30 for the libm rounding of a finite result
    (whose exponent is then below 710), plus N TINY for weights below the
    normal range.  series_error_bound's formula is monotone in the fsum, so
    it gives a ceiling on the same chunk count; an overflow gives inf.
    """
    n = float(n_max)
    log_n = math.log(n)
    try:
        if sigma > 0.0:
            z = (1.0 - sigma) * log_n
            integral = log_n if z == 0.0 else math.expm1(z) / (1.0 - sigma)
            exact = min(n, 1.0 + integral)
        else:
            exact = math.exp((1.0 - sigma) * log_n)
    except OverflowError:
        return math.inf
    slack = 1.0 + (weight_allowance(sigma, n_max) + CHUNK + 16.0) * EPS
    fsum = (exact * (1.0 + 2.0**-30) + n * TINY) * slack
    return _mass_error(fsum, -(-n_max // CHUNK), sigma, n_max)


def _mass_error(fsum: float, chunks: int, sigma: float, n_max: int) -> float:
    weight = weight_allowance(sigma, n_max)
    if sigma > 0.0 and math.isinf(weight):  # every weight past n = 1 is 0
        return n_max * TINY
    return EPS * (weight + 8.0 + CHUNK + chunks) * fsum
