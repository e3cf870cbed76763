"""The CSV float kernels against Python's own "%.17g" and float(), value by value.

The batteries are functions so that a longer run can reuse them:

    PYTHONPATH=src:tests python -c 'import test_csvfloat as t; t.run_batteries(10**7)'
    PYTHONPATH=src:tests python -c 'import test_csvfloat as t; t.run_parser_batteries(10**7)'
"""

import csv
import io
import time
from decimal import Decimal
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from spindimer import csvfloat
from spindimer.csvfloat import _decimals, format_csv, line_bounds, parse_csv


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


# The reading kernel (csvfloat._decimals) against float(), cell by cell.

def read_cells(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's (values, decided) for `texts`, laid out as the cells of
    one comma-separated line."""
    encoded = [text.encode("utf-8") for text in texts]
    lengths = np.array([len(text) for text in encoded], dtype=np.intp)
    ends = np.cumsum(lengths + 1) - 1
    buf = np.frombuffer(b",".join(encoded) + b"\n", np.uint8)
    return _decimals(buf, ends - lengths, ends)


def float_or_none(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def read_mismatches(texts: list[str]) -> tuple[int, list[tuple[str, float, object]]]:
    """(cells decided, [(cell, kernel value, float(cell) or None)] for each
    decided cell whose value is not float()'s bit for bit)."""
    values, decided = read_cells(texts)
    wrong = []
    for i in np.flatnonzero(decided).tolist():
        want = float_or_none(texts[i])
        if want is None or np.float64(want).view(np.int64) != values[i:i + 1].view(np.int64)[0]:
            wrong.append((texts[i], float(values[i]), want))
    return int(np.count_nonzero(decided)), wrong


def assert_reads_like_float(texts):
    _, wrong = read_mismatches(list(texts))
    assert not wrong, f"{len(wrong)} cells differ; first (cell, kernel, float()): {wrong[0]!r}"


def printed(values: np.ndarray) -> list[str]:
    """Each value as repr() and as "%.17g" print it."""
    values = values.tolist()
    return [repr(v) for v in values] + ["%.17g" % v for v in values]


def digit_strings(count: int, seed: int = 26) -> list[str]:
    """Decimal strings of 1 to 25 significant digits, some with leading
    zeros, a leading or trailing ".", a sign, and exponents -30 to 30."""
    rng = np.random.default_rng(seed)
    rows = (rng.integers(0, 10, (count, 25)) + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    sizes = rng.integers(1, 26, count).tolist()
    zeros = (rng.integers(0, 4, count) * (rng.random(count) < 0.3)).tolist()
    cuts = rng.random(count).tolist()
    points = (rng.random(count) < 0.8).tolist()
    exponents = np.where(rng.random(count) < 0.5, np.char.add(np.char.add(
        rng.choice(["e", "E"], count), rng.choice(["", "+", "-"], count)), rng.integers(0, 31, count).astype(str)), "")
    signs = np.where(rng.random(count) < 0.3, rng.choice(["-", "+"], count), "").tolist()
    texts = []
    for i, exponent in enumerate(exponents.tolist()):
        digits = "0" * zeros[i] + rows[25 * i:25 * i + sizes[i]]
        cut = int(cuts[i] * (len(digits) + 1))
        texts.append(signs[i] + (digits[:cut] + "." + digits[cut:] if points[i] else digits) + exponent)
    return texts


def half_way_integers(count: int = 20000, seed: int = 26) -> list[str]:
    """Odd integers in (2**53, 2**54): each lies exactly half way between two doubles."""
    m = np.random.default_rng(seed).integers(2**52, 2**53, count) * 2 + 1
    return [str(v) for v in m.tolist()]


def near_powers_of_ten() -> list[str]:
    """10**k for |k| <= 30 as printed, and the decimals just around it:
    its neighbouring doubles and 17-digit strings a unit away."""
    texts = []
    for k in range(-30, 31):
        p = float(f"1e{k}")
        texts += printed(np.array([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]))
        texts += [f"1.0000000000000001e{k}", f"9.9999999999999999e{k - 1}", f"0.99999999999999994e{k}",
                  f"1.00000000000000011e{k}"]
    return texts


def run_parser_batteries(patterns: int) -> None:
    """repr() and "%.17g" of `patterns` random bit patterns and every
    structured battery below through the reading kernel, against float();
    prints the count and the time and exits 1 on a mismatch."""
    start = time.perf_counter()
    batteries = [printed(bit_patterns(min(100_000, patterns - i), seed=26 + i))
                 for i in range(0, patterns, 100_000)]
    batteries += [digit_strings(100_000), half_way_integers(), near_powers_of_ten(),
                  [f"{m}e{e}" for m in half_way_integers(2000) for e in range(-22, 23)]]
    count, decided, wrong = 0, 0, []
    for texts in batteries:
        got, bad = read_mismatches(texts)
        count, decided, wrong = count + len(texts), decided + got, wrong + bad
    print(f"{count} cells, {decided} decided by the kernel, {len(wrong)} differ from float(), "
          f"{time.perf_counter() - start:.1f} s")
    for cell in wrong[:5]:
        print(f"  cell {cell[0]!r}  kernel {cell[1]!r}  float() {cell[2]!r}")
    raise SystemExit(1 if wrong else 0)


def test_read_repr_and_17g_of_random_bit_patterns():
    assert_reads_like_float(printed(bit_patterns(100_000, seed=26)))


def test_read_random_digit_strings():
    texts = digit_strings(100_000)
    decided, wrong = read_mismatches(texts)
    assert not wrong, wrong[:3]
    assert decided > 40_000  # the rest have over 19 significant digits or |q| > 22


def test_exact_half_way_integers_are_left_to_float():
    texts = half_way_integers()
    assert all(int(t) % 2 == 1 and 2**53 < int(t) < 2**54 for t in texts)
    values, decided = read_cells(texts)
    assert not decided.any()
    assert read_cells(["9007199254740993", "9007199254740992", "9007199254740994"])[1].tolist() == [False, True, True]


def test_half_way_integers_scaled_by_powers_of_ten():
    texts = [f"{m}e{e}" for m in half_way_integers(2000) for e in range(-22, 23)]
    decided, wrong = read_mismatches(texts)
    assert not wrong, wrong[:3]
    assert decided > 0.9 * len(texts)


def test_near_powers_of_ten():
    assert_reads_like_float(near_powers_of_ten())


def test_signs_zeros_and_bare_points():
    texts = ["-0", "0", "+0", "-0.0", "0e5", "-0e-5", ".5", "5.", "+.5", "-5.", "1e5", "1E+05", "1e-5",
             "-.", "+.", ".", "", "-", "+", "e5", ".e1", "1e", "1e+", "1.5e", "--1", "1..2", "1.2.3",
             "1e5e5", "1e5.0", "1e1.0", "2e.5", "3E+0.", "0x1p3", "1_0", " 1", "1 ", "\t1", "١٢", "nan", "-inf", "1e999", "1e-999"]
    values, decided = read_cells(texts)
    assert_reads_like_float(texts)
    assert decided[:13].all() and not decided[13:].any()
    assert np.signbit(values[[0, 3, 5]]).all() and not np.signbit(values[[1, 2, 4]]).any()


def test_cells_left_to_float_read_as_float_reads_them():
    texts = ["\u0661\u0662", "1_0", " 1 ", "\t-2.5", "nan", "-inf", "1e999", "9007199254740993", "1" * 30]
    assert not read_cells(texts)[1].any()
    data = ",".join(texts).encode("utf-8") + b"\n"
    records = parse_csv(data, line_bounds(data), 1, 1, len(texts))
    assert records.numeric.tolist() == [True]
    want = np.array([float(t) for t in texts])
    assert np.array_equal(records.values[0].view(np.int64), want.view(np.int64))


def test_the_kernel_decides_positional_repr_cells():
    # Every decade that repr prints in positional notation, as the ingest inputs are written.
    rng = np.random.default_rng(26)
    values = rng.choice([-1.0, 1.0], 100_000) * rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-4, 16, 100_000)
    texts = [repr(v) for v in values.tolist()]
    assert not any("e" in t for t in texts)
    decided, wrong = read_mismatches(texts)
    assert not wrong, wrong[:3]
    assert decided >= 0.99 * len(texts)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="0123456789.-+eE_ ", max_size=12), min_size=1, max_size=40))
def test_any_short_text(texts):
    assert_reads_like_float(texts)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_any_printed_float(values):
    assert_reads_like_float(printed(np.array(values)))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='a,"\r\n', max_size=40))
def test_line_bounds_are_where_csv_lines_start(text):
    data = text.encode()
    lines = list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    bounds = line_bounds(data).tolist()
    assert bounds == np.cumsum([0, *map(len, lines)]).tolist()
    assert bounds[-1] == len(data)


def is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def csv_lines(data: bytes, first: int):
    """(cells, open quote) of each line from file line `first` of `data` on,
    each read by a csv.reader of its own without its terminator."""
    start = line_bounds(data)[first - 1]
    records = []
    for line in io.TextIOWrapper(io.BytesIO(data[start:]), encoding="utf-8", newline=""):
        reader = csv.reader([line.rstrip("\r\n"), ""])  # a quoted cell open at the end takes the ""
        records.append((next(reader), reader.line_num > 1))
    return records


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_quoted_lines_read_as_csv_reads_each_line_alone(ending):
    # Quoted cells that hold the file's own line ending, the other two, an
    # empty line and a doubled quote, between plain rows and an empty line;
    # and lines that open a quote read alone and keep it open read after one.
    rows = ['x,S', f'"1{ending}",0.5', '2,0.25', f'"{ending}{ending}",3', '', f'4,"a{ending}""b""{ending}c"',
            '"5\n",6', '"7\r\n",8', f'"9,{ending}\r\n\n",10', '11,1', *['a"b,"c'] * 4, '"13",0.5', f'"12{ending}"']
    data = (ending.join(rows) + ending).encode()
    lines = len(line_bounds(data)) - 1
    whole = csv_lines(data, 1)
    assert sum(open_quote for _, open_quote in whole) == 17
    for first in range(1, lines + 1):
        for last in range(first, lines + 1):
            records = parse_csv(data, line_bounds(data), first, last, 2)
            want = whole[first - 1:last]
            assert [records.cells(i) for i in range(len(want))] == [cells for cells, _ in want]
            assert records.fields.tolist() == [len(cells) for cells, _ in want]
            assert records.open_quote.tolist() == [open_quote for _, open_quote in want]
            assert records.numeric.tolist() == [len(cells) == 2 and not open_quote and all(map(is_float, cells))
                                                for cells, open_quote in want]


def test_an_open_cell_past_the_field_limit_fails_no_line():
    # Read on from line 1, the open cell takes "ab", the line end and
    # "cdefgh,1" from line 2, past a limit of 10 characters; each line alone fits.
    data = b'x,"ab\ncdefgh,"1"\n2,3\n'
    limit = csv.field_size_limit(10)
    try:
        records = parse_csv(data, line_bounds(data), 1, 3, 2)
    finally:
        csv.field_size_limit(limit)
    assert [records.cells(i) for i in range(3)] == [["x", "ab"], ["cdefgh", "1"], ["2", "3"]]
    assert records.open_quote.tolist() == [True, False, False]
    assert records.numeric.tolist() == [False, False, True]


def feed_log(monkeypatch) -> list[str]:
    """The lines csvfloat's csv.reader is fed from now on, in order."""
    fed = []

    def reader(lines):
        return csv.reader(fed.append(line) or line for line in lines)

    monkeypatch.setattr(csvfloat, "csv", SimpleNamespace(reader=reader, Error=csv.Error,
                                                         field_size_limit=csv.field_size_limit))
    return fed


def test_open_quotes_read_each_line_once(monkeypatch):
    # Each line opens a quoted cell read alone: csv is fed the line, then "".
    data = b'a"b,"c\n' * 1000
    fed = feed_log(monkeypatch)
    records = parse_csv(data, line_bounds(data), 1, 1000, 2)
    assert records.open_quote.all() and records.cells(999) == ['a"b', "c"]
    assert fed == ['a"b,"c', ""] * 1000


def test_plainly_quoted_lines_never_reach_csv(monkeypatch):
    # Every cell quoted, as csv.writer with QUOTE_ALL writes repr floats.
    rows = np.random.default_rng(31).uniform(-3.0, 3.0, (2048, 2)).tolist()
    plain = "".join(f"{a!r},{b!r}\n" for a, b in rows).encode()
    quoted = "".join(f'"{a!r}","{b!r}"\n' for a, b in rows).encode()
    want = parse_csv(plain, line_bounds(plain), 1, 2048, 2)
    fed = feed_log(monkeypatch)
    got = parse_csv(quoted, line_bounds(quoted), 1, 2048, 2)
    assert fed == []
    assert got.values.tolist() == want.values.tolist() == rows
    assert got.numeric.all() and got.fields.tolist() == [2] * 2048
    assert [got.cells(i) for i in range(2048)] == [[repr(a), repr(b)] for a, b in rows]
