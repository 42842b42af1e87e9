"""The numpy float formatter against CPython's ``repr``, its oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siginvert import _floatfmt
from siginvert._floatfmt import join_reprs

SEPS = [",\n      ", ", ", ""]


def assert_matches_repr(values, sep=",\n      "):
    values = np.asarray(values, dtype=np.float64)
    reprs = list(map(float.__repr__, values.tolist()))
    text, ends = join_reprs(values, sep)
    assert text == sep.join(reprs)
    lengths = np.fromiter(map(len, reprs), dtype=np.int64, count=len(reprs))
    np.testing.assert_array_equal(ends, np.cumsum(lengths + len(sep)) - len(sep))


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, 2**20 + 2**12,
                                              dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 2**20
    for lo in range(0, values.size, 2**17):
        assert_matches_repr(values[lo:lo + 2**17])


def test_powers_of_two():
    # the lower half-ulp is half the upper one at every normal power of two
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_matches_repr(np.concatenate([powers, -powers]))


def test_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_matches_repr(with_neighbours(powers))


@pytest.mark.parametrize("sep", SEPS)
def test_edge_values(sep):
    assert_matches_repr([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         2.225073858507201e-308, 1.7976931348623157e308,
                         -1.7976931348623157e308, 2.0**53 - 1, 2.0**53,
                         2.0**53 + 2, 0.1, 0.3, 1.0, 100.0, 1e23], sep)


def test_layout_switch_points():
    # fixed notation holds decimal points from 4 zeros after it (1e-4) to
    # 16 digits before it (1e15); 1e-5 and 1e16 are in exponent notation
    assert_matches_repr(with_neighbours([1e-5, 1e-4, 1e15, 1e16, 1e-3, 1e14,
                                         9.999999999999999e15, 123.0]))


def test_halfway_ties_and_short_integers():
    # 53-bit and short significands at small exponents: exact values whose
    # 17-digit candidates tie, and integers with trailing zeros
    rng = np.random.default_rng(21)
    e = np.repeat(np.arange(-60, 60), 500)
    long = rng.integers(2**52, 2**53, e.size, dtype=np.uint64).astype(np.float64)
    short = rng.integers(1, 2**20, e.size).astype(np.float64)
    assert_matches_repr(np.ldexp(np.concatenate([long, short]), np.tile(e, 2)))


def test_subnormals():
    rng = np.random.default_rng(22)
    small = np.arange(1, 5000, dtype=np.uint64)
    wide = rng.integers(1, 2**52, 10000, dtype=np.uint64)
    assert_matches_repr(np.concatenate([small, wide]).view(np.float64))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50),
       st.sampled_from(SEPS))
@settings(max_examples=100, deadline=None)
def test_any_finite_floats(values, sep):
    assert_matches_repr(values, sep)


def test_empty():
    text, ends = join_reprs(np.zeros(0), ", ")
    assert text == "" and ends.size == 0


def test_floor_log_formulas_exact():
    """The closed forms behind the power-of-ten table, over every binary
    exponent q of a double and every decimal exponent of the table."""
    for q in range(-1074, 972):
        k = int(_floatfmt._flog10pow2(q))
        assert Fraction(10)**k <= Fraction(2)**q < Fraction(10)**(k + 1)
        k = int(_floatfmt._flog10_three_quarters_pow2(q))
        three_quarters = Fraction(3, 4) * Fraction(2)**q
        assert Fraction(10)**k <= three_quarters < Fraction(10)**(k + 1)
    for e in range(_floatfmt._E_MIN, _floatfmt._E_MAX + 1):
        f = int(_floatfmt._flog2pow10(e))
        assert Fraction(2)**f <= Fraction(10)**e < Fraction(2)**(f + 1)
