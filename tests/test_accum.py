import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import accum
from rmflab.accum import exact_sum

#: a float m 2^(e+1) with |m| < 1 on 53 bits and e over every binary64 exponent,
#: so zeros, subnormals and the largest finite floats all come up
_floats = st.builds(
    lambda m, e: math.ldexp(m / 2**53, e + 1),
    st.integers(-(2**53) + 1, 2**53 - 1),
    st.integers(-1074, 1023),
)
#: a few exponents drawn once and shared, so that terms cancel
_clustered = st.lists(st.integers(-1074, 1023), min_size=1, max_size=3).flatmap(
    lambda es: st.lists(
        st.builds(
            lambda m, e: math.ldexp(m / 2**53, e + 1),
            st.integers(-(2**53) + 1, 2**53 - 1),
            st.sampled_from(es),
        ),
        max_size=60,
    )
)


def reference(values):
    """math.fsum, or the exact sum rounded once where fsum's partials overflow."""
    try:
        return math.fsum(values)
    except OverflowError:
        return float(sum(map(Fraction, values)))  # OverflowError if it is too


def same(a, b):
    return a.hex() == b.hex()  # tells -0.0 from 0.0


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.lists(_floats, max_size=60), _clustered),
    st.sampled_from([None, 1, 2, 3, 7]),
    st.booleans(),
)
def test_exact_sum_equals_fsum_bitwise(values, slice_rows, positive):
    if positive:
        values = [abs(v) for v in values]
    with pytest.MonkeyPatch.context() as mp:
        if slice_rows:  # inputs longer than one slice
            mp.setattr(accum, "EXACT_SLICE", slice_rows)
        try:
            expected = reference(values)
        except OverflowError:
            with pytest.raises(OverflowError):
                exact_sum(np.array(values, dtype=np.float64))
            return
        assert same(exact_sum(np.array(values, dtype=np.float64)), expected)


@pytest.mark.parametrize("positive", [False, True])
def test_exact_sum_equals_fsum_on_long_wide_arrays(positive):
    rng = np.random.default_rng(7)
    for size in (1, 1000, 70000):
        x = rng.standard_normal(size) * np.exp2(rng.integers(-1074, 970, size))
        x = np.abs(x) if positive else x
        assert same(exact_sum(x), math.fsum(x.tolist()))
        assert same(exact_sum(x[::-1]), math.fsum(x.tolist()))


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.0],
        [-0.0],
        [-0.0, -0.0],
        [-0.0, 0.0],
        [1.0, -1.0],
        [-5e-324, 5e-324, -0.0],
        [math.inf, 1.0],
        [-math.inf, 1.0, -math.inf],
        [math.nan, 1.0],
        [math.inf, math.nan],
    ],
)
def test_exact_sum_special_values_as_fsum(values):
    assert same(exact_sum(np.array(values, dtype=np.float64)), math.fsum(values))


def test_exact_sum_raises_as_fsum():
    big = 1.7976931348623157e308
    for values, error in (
        ([math.inf, -math.inf], ValueError),
        ([big, big], OverflowError),
        ([big, 9.9792015476736e291], OverflowError),  # rounds past the largest float
    ):
        with pytest.raises(error):
            math.fsum(values)
        with pytest.raises(error):
            exact_sum(np.array(values))
    # fsum's partial sums overflow here, but the sum itself is finite
    assert exact_sum(np.array([big, big, -big])) == big


@pytest.mark.parametrize("n_max", [2, 10**5])
def test_band_past_the_underflow_sigma_is_n_max_tiny(n_max):
    # from just past sigma = 1075 every weight past n = 1 is 0, yet the
    # allowance is finite: the mass band was EPS (2 sigma log n_max + ...)
    sigma = math.nextafter(accum.UNDERFLOW_SIGMA, math.inf)
    assert not accum.power_weights(np.arange(2, n_max + 1), sigma).any()
    band = n_max * accum.TINY
    assert accum.series_error_bound([1.0], sigma, n_max) == band
    assert accum.series_error_ceiling(sigma, n_max) == band
