"""The CSV float kernel against Python's own "%.17g", value by value.

The batteries are functions so that a longer run can reuse them:

    PYTHONPATH=src:tests python -c 'import test_csvfloat as t; t.run_batteries(10**7)'
"""

import time
from decimal import Decimal

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from spindimer.csvfloat import format_csv


def reference(block) -> str:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in np.asarray(block).tolist())


def mismatches(block) -> list[tuple[str, str]]:
    """(kernel, reference) for each row the kernel prints differently."""
    got, want = format_csv(block), reference(block)
    if got == want:
        return []
    rows = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
    return rows or [(got[-40:], want[-40:])]


def assert_prints_like_python(values, columns=1):
    block = np.asarray(values, dtype=float).reshape(-1, columns)
    wrong = mismatches(block)
    assert not wrong, f"{len(wrong)} rows differ; kernel {wrong[0][0]!r}, %.17g {wrong[0][1]!r}"


def bit_patterns(count: int, seed: int = 25) -> np.ndarray:
    """`count` random 64-bit patterns as float64: every exponent, NaNs and infinities included."""
    return np.frombuffer(np.random.default_rng(seed).bytes(8 * count), np.float64)


def powers_of_ten() -> np.ndarray:
    """1e-330 to 1e308 as Python parses them, each with both neighbours."""
    p = np.array([float(f"1e{e}") for e in range(-330, 309)])
    return np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)])


def half_way_draws(count: int = 20000, seed: int = 3) -> np.ndarray:
    """m / 8 for random integers m in [2**52, 2**53): below 1e15 those with
    an odd m, above it those with m = 2 mod 4, lie exactly half way between
    two 17-digit decimals."""
    m = np.random.default_rng(seed).integers(2**52, 2**53, count)
    return np.ldexp(m.astype(float), -3)


def is_half_way(value: float) -> bool:
    digits = Decimal(value).as_tuple().digits
    return len(digits) > 17 and digits[17] == 5 and not any(digits[18:])


def boundaries() -> np.ndarray:
    """Signed zeros, and each side of the first and last positional exponents."""
    edges = np.array([1e-4, 1e16, 1e17])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    return np.concatenate([[0.0, -0.0], near, -near])


def mixed_block(rows: int, columns: int, seed: int = 0) -> np.ndarray:
    """Signed values across the positional exponents and a decade on each
    side, with zeros, NaN, infinities and subnormals mixed in."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(rows * columns) * 10.0 ** rng.integers(-6, 19, rows * columns)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0, 0.1, 1e16])
    picks = rng.random(rows * columns) < 0.05
    values[picks] = rng.choice(specials, np.count_nonzero(picks))
    return values.reshape(rows, columns)


def run_batteries(patterns: int) -> None:
    """Every battery below, with `patterns` (a multiple of 10) random bit
    patterns, against %.17g; prints the count and the time and exits 1 on a
    mismatch."""
    start = time.perf_counter()
    batteries = [bit_patterns(patterns).reshape(-1, 10), powers_of_ten()[:, None],
                 half_way_draws()[:, None], boundaries()[:, None]]
    batteries += [mixed_block(rows, columns) for rows in (0, 1, 511, 512, 513, 2048) for columns in (1, 2, 9, 18)]
    wrong, count = [], 0
    for block in batteries:
        for i in range(0, len(block), 100_000):  # the reference text of 1e7 values would hold about 200 MB
            wrong += mismatches(block[i:i + 100_000])
        count += block.size
    print(f"{count} values, {len(wrong)} rows differ from %.17g, {time.perf_counter() - start:.1f} s")
    for row in wrong[:5]:
        print(f"  kernel {row[0]!r}  %.17g {row[1]!r}")
    raise SystemExit(1 if wrong else 0)


def test_random_bit_patterns():
    values = bit_patterns(100_000)
    assert np.count_nonzero(np.isnan(values)) > 0 and np.count_nonzero(np.isfinite(values)) > 99_000
    assert_prints_like_python(values, columns=10)


def test_powers_of_ten_and_their_neighbours():
    assert_prints_like_python(powers_of_ten(), columns=3)


def test_exact_half_way_cases_round_to_even():
    values = half_way_draws()
    assert sum(map(is_half_way, values.tolist())) > 8000  # about 44% of the draws
    assert_prints_like_python(values, columns=4)
    assert format_csv(np.array([[100000000000000.125, 100000000000000.375]])) == "100000000000000.12,100000000000000.38\n"


def test_signed_zeros_and_the_edges_of_positional_notation():
    assert_prints_like_python(boundaries())
    assert format_csv(np.array([[0.0, -0.0, 1e-4, 1e16, 1e17]])) == "0,-0,0.0001,10000000000000000,1e+17\n"


@pytest.mark.parametrize("columns", [1, 2, 9, 18])
@pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 2048])
def test_block_shapes(rows, columns):
    block = mixed_block(rows, columns, seed=rows * 100 + columns)
    assert format_csv(block).count("\n") == rows
    assert_prints_like_python(block, columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=60),
       st.integers(1, 4))
def test_any_float(values, columns):
    assert_prints_like_python(values[:len(values) - len(values) % columns], columns)
