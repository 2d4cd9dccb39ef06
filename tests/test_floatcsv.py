"""`floatcsv.write_csv` against ``csv.writer``, byte for byte."""

import csv
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mildsolve import floatcsv
from mildsolve.floatcsv import write_csv


def reference(header, table) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(np.asarray(table).tolist())
    return text.getvalue().encode()


def assert_matches(tmp_path, table):
    table = np.asarray(table, dtype=float)
    header = ["t"] + [f"x{i}" for i in range(table.shape[1] - 1)]
    path = tmp_path / "table.csv"
    written = write_csv(path, header, table)
    want = reference(header, table)
    got = path.read_bytes()
    if got != want:  # name the first value that differs
        body = got.decode().split("\r\n", 1)[1].replace("\r\n", ",").split(",")
        for value, text in zip(table.ravel(), body):
            assert text == repr(float(value))
    assert got == want
    assert written == len(want)


def column(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


@settings(max_examples=200, deadline=None)
@given(table=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_hypothesis_tables(tmp_path_factory, table):
    assert_matches(tmp_path_factory.mktemp("t"), table)


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf),
                           -values])


def test_powers_of_two(tmp_path):
    assert_matches(tmp_path, column(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))))


def test_powers_of_ten(tmp_path):
    assert_matches(tmp_path, column(with_neighbours([float(f"1e{e}") for e in range(-323, 309)])))


def test_zeros_and_subnormals(tmp_path):
    rng = np.random.default_rng(5)
    subnormal = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64)
    edges = [0.0, -0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308]
    assert_matches(tmp_path, column(with_neighbours(np.concatenate([edges, subnormal]))))


def test_integers_around_two_to_the_53(tmp_path):
    near = 2.0 ** 53 + np.arange(-64, 65)
    assert_matches(tmp_path, column(np.concatenate([near, near * 1024, np.arange(-100, 101)])))


def test_notation_switch_points(tmp_path):
    # repr is positional for 1e-4 <= |x| < 1e16 and scientific outside
    assert_matches(tmp_path, column(with_neighbours([1e-5, 1e-4, 1e15, 1e16, 9.5e-5, 9.5e15])))


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(11).integers(0, 2 ** 64, 40_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_matches(tmp_path, values[np.isfinite(values)][:30_000].reshape(-1, 6))


@pytest.mark.parametrize("shape", [(1, 1), (40, 1), (1, 40), (1, 3000), (700, 3)])
def test_shapes(tmp_path, shape):
    # (1, 3000) and (700, 3) span more than one chunk
    scales = 10.0 ** (np.arange(shape[1]) % 9 * 4 - 16)
    table = np.random.default_rng(3).standard_normal(shape) * scales
    assert_matches(tmp_path, table)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_raises(tmp_path, bad):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(path, ["a", "b"], [[1.0, 2.0], [bad, 3.0]])
    assert not path.exists()


def test_log_approximations_are_exact():
    for q in range(-1074, 972):
        two = Fraction(2) ** q
        k = floatcsv._flog10pow2(q)
        assert Fraction(10) ** k <= two < Fraction(10) ** (k + 1)
        k = floatcsv._flog10_three_quarters_pow2(q)
        assert Fraction(10) ** k <= two * 3 / 4 < Fraction(10) ** (k + 1)
    for e in range(-324, 326):
        r = floatcsv._flog2pow10(e)
        assert Fraction(2) ** r <= Fraction(10) ** e < Fraction(2) ** (r + 1)


def test_memory_stays_bounded(tmp_path):
    # temporaries live per chunk: 1.3 M values (10 MB of floats) write within 4 MB
    table = np.random.default_rng(2).standard_normal((20_000, 65)) * 1e-40
    write_csv(tmp_path / "warm.csv", ["x"], table[:1, :1])  # builds the tables
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", [f"x{i}" for i in range(65)], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
