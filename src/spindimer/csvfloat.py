"""CSV text and float blocks, both ways, a block at a time.

Writing: `format_csv(block)` returns what

    "".join(",".join("%.17g" % v for v in row) + "\\n" for row in block)

returns for a 2-D float64 block, without formatting values one at a time.

A value prints in positional notation when the decimal exponent of its
17-digit rounding lies in [-4, 16]. With d = floor(log10|v|) in that range,
|v| * 10**(16 - d) is formed exactly as hi + lo: 10**k is an exact double
for k <= 22, and Dekker's product gives the rounding error lo. Wherever the
result counts, hi >= 1e16 > 2**53 is an even integer, so hi plus lo rounded
half to even (np.rint) is the correctly rounded 17-digit integer Python
prints. A result strictly between 10**16 and 10**17 proves d right. One on
or outside those bounds comes from a value within half a unit in the 17th
digit of a power of ten (1.0, 0.001) or from a log10 one off; such values
are left to the fallback.

Each value gets a 25-byte slot: a sign, at most 23 characters and the
terminator ("," or "\\n"). Digits come from a table of 4-digit groups; the
values are sorted by d, so each exponent's layout is written by slicing.
One mask, a row of a table chosen by the sign, d and the last nonzero
digit, drops the unused bytes, trailing zeros, a bare "." and an absent
sign. Zero prints as "0" or "-0". Every other value (NaN, infinities,
|v| < 1e-4, |v| >= 1e17, whatever prints in exponent form) is formatted by
Python with "%-24.17g", at most 24 characters, and dropped into the same
slots with its padding masked.

Reading: `line_bounds` finds where csv's lines start and end, and
`parse_csv` reads a run of them, one record per line, as `csv.reader`
reads each line alone and the value of each cell as `float()` does: numpy
splits the lines whose quotes all sit at cell edges, and csv reads each
other quoted line alone; see its docstring.
"""

from __future__ import annotations

import csv
from typing import Callable, NamedTuple

import numpy as np

_SLOT = 25
# Rows per pass, which bounds the size of the temporaries.
_BLOCK_ROWS = 512

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) with high + low == a exactly, each on at most 26 bits."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


_POW10 = np.array([float(10**k) for k in range(23)])  # each one exact
_POW10_HIGH, _POW10_LOW = _split(_POW10)

def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Entry i < 10**4: the four ASCII digits of i as one word, in memory
    order, and how many of them are trailing zeros (4 for 0)."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    trailing_zeros = np.zeros((10, 10, 10, 10), np.intp)
    for j, shape in enumerate([(10, 1, 1, 1), (10, 1, 1), (10, 1), (10,)]):
        digits[..., j] = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8).reshape(shape)
        trailing_zeros = (trailing_zeros + 1) * (np.arange(10) == 0).reshape(shape)
    return digits.reshape(-1, 4).view("<u4").ravel(), trailing_zeros.ravel()


_DIGITS4, _TRAILING_ZEROS4 = _digit_tables()


def _keep_table() -> np.ndarray:
    """Rows of 25 booleans: which slot columns a value keeps, by its code.

    Code 17 * (d + 4) + last (+ 357 with a sign) is a positional value whose
    decimal exponent is d and whose last significant digit is digit `last`
    (0 to 16); code 714 + n - 1 is Python's text of n characters.
    """
    columns = np.arange(_SLOT)
    d = np.arange(-4, 17)[:, None]
    digit = np.arange(17)
    end = np.where(d >= 0, np.where(digit > d, digit + 2, d + 1), 2 - d + digit)
    unsigned = (columns >= 1) & (columns <= end[..., None])
    signed = unsigned | (columns == 0)
    text = columns < np.arange(1, _SLOT)[:, None]
    keep = np.concatenate([unsigned.reshape(-1, _SLOT), signed.reshape(-1, _SLOT), text])
    keep[:, -1] = True  # the terminator
    return keep


_KEEP = _keep_table()
_SIGNED = 21 * 17
_TEXT = 2 * _SIGNED
_ZERO = 17 * 4  # d = 0, last digit 0: "0"
# "0." and the zeros that precede the digits of a value below 1, by exponent -4 to -1.
_PREFIX = [np.frombuffer(b"0.000"[:1 - d], np.uint8)[None, :] for d in range(-4, 0)]


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi = fl(a * 10**k) and hi + lo == a * 10**k exactly."""
    return _times(a, _POW10[k], _POW10_HIGH[k], _POW10_LOW[k])


def _times(a: np.ndarray, p: np.ndarray, p_high: np.ndarray, p_low: np.ndarray):
    """(hi, lo) with hi = fl(a * p) and hi + lo == a * p exactly, p = p_high + p_low split."""
    hi = a * p
    a_high, a_low = _split(a)
    return hi, ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low


def _rounded(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - d) rounded half to even, as int64, and whether it lies
    strictly between 10**16 and 10**17, which proves d the exponent "%.17g"
    prints with."""
    hi, lo = _scaled(a, 16 - d.astype(np.intp))
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return digits, (digits > 10**16) & (digits < 10**17)


def _copy(destination: np.ndarray, source: np.ndarray) -> None:
    """destination[...] = source for (rows, w) uint8 blocks, one w-byte move
    per row; a source of one row is copied to every row."""
    width = f"V{destination.shape[1]}"
    destination.view(width)[...] = source.view(width)


def _lay_out(digits: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots of positional values sorted by `exponent`, and the index of each
    one's last significant digit.

    A slot is "-", then the 17 digits with a "." after digit `exponent`, or
    "0." and -exponent - 1 zeros before them when `exponent` < 0.
    """
    upper = digits // 10**8
    lower = (digits - upper * 10**8).astype(np.uint32)
    lead = upper // 10**8
    upper = (upper - lead * 10**8).astype(np.uint32)
    groups = [lead]
    for eight in (upper, lower):
        high = eight // 10000
        groups += [high, eight - high * 10000]
    words = np.empty((len(digits), 5), "<u4")
    for j, group in enumerate(groups):
        words[:, j] = np.take(_DIGITS4, group)
    chars = words.view(np.uint8)  # "000" and the 17 digits

    # Digit 4j is the last of group j (1 to 4); the lead digit is never zero.
    last = 16 - np.take(_TRAILING_ZEROS4, groups[4])
    pending = np.flatnonzero(groups[4] == 0)
    for j in (3, 2, 1):
        group = groups[j][pending]
        last[pending] = 4 * j - np.take(_TRAILING_ZEROS4, group)
        pending = pending[group == 0]
    last[pending] = 0

    slots = np.empty((len(digits), _SLOT), np.uint8)
    slots[:, 0] = ord("-")
    bounds = np.searchsorted(exponent, np.arange(-4, 18))
    for d in range(-4, 17):
        rows = slice(bounds[d + 4], bounds[d + 5])
        if rows.start == rows.stop:
            continue
        if d >= 0:
            _copy(slots[rows, 1:d + 2], chars[rows, 3:d + 4])
            slots[rows, d + 2] = ord(".")
            if d < 16:
                _copy(slots[rows, d + 3:19], chars[rows, d + 4:])
        else:
            _copy(slots[rows, 1:2 - d], _PREFIX[d + 4])
            _copy(slots[rows, 2 - d:19 - d], chars[rows, 3:])
    return slots, last


def _format_block(block: np.ndarray) -> bytes:
    values = block.ravel()
    a = np.abs(values)
    slots = np.empty((len(values), _SLOT), np.uint8)
    code = np.empty(len(values), np.intp)

    zero = np.flatnonzero(a == 0.0)
    slots[zero, 0] = ord("-")
    slots[zero, 1] = ord("0")
    code[zero] = _ZERO

    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.floor(np.log10(a))
    rows = np.flatnonzero((d >= -4.0) & (d <= 16.0))
    digits, positional = _rounded(a[rows], d[rows])
    rows, digits = rows[positional], digits[positional]
    exponent = d[rows].astype(np.int8)
    order = np.argsort(exponent, kind="stable")
    rows, exponent = rows[order], exponent[order]
    laid, last = _lay_out(digits[order], exponent)
    np.put(slots.view(f"V{_SLOT}")[:, 0], rows, laid.view(f"V{_SLOT}")[:, 0])
    code[rows] = 17 * (exponent.astype(np.intp) + 4) + last
    code += _SIGNED * np.signbit(values)

    others = np.ones(len(values), bool)
    others[zero] = False
    others[rows] = False
    others = np.flatnonzero(others)
    if len(others):
        text = ("%-24.17g" * len(others)) % tuple(values[others].tolist())
        chars = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SLOT - 1)
        slots[others, :-1] = chars
        code[others] = _TEXT - 1 + np.count_nonzero(chars != ord(" "), axis=1)

    slots[:, -1] = ord(",")
    slots[block.shape[1] - 1::block.shape[1], -1] = ord("\n")
    return slots[np.take(_KEEP, code, axis=0)].tobytes()


def format_csv(block: np.ndarray) -> str:
    """The rows of a 2-D float block as CSV text, each value as "%.17g"
    formats it, "," between values and "\\n" after each row."""
    block = np.asarray(block, dtype=float)
    return b"".join(
        _format_block(block[i:i + _BLOCK_ROWS]) for i in range(0, len(block), _BLOCK_ROWS)
    ).decode("ascii")


# Reading. A field is read from the 24 bytes that end where it ends, as three
# little-endian words; byte j of that window is byte j - 24 + length of the
# field, and bytes before the field are masked off.
_WINDOW = 24
# Fields per pass: the temporaries stay small enough to be reused, not mapped afresh.
_BLOCK_FIELDS = 4096
_U64 = np.uint64


def _word_masks(keep: np.ndarray) -> np.ndarray:
    """(3, rows) words: row i of `keep` (rows x 24 booleans) as a byte mask
    of the window, word k in row k."""
    return np.ascontiguousarray(np.where(keep, 0xFF, 0).astype(np.uint8).view("<u8").T)


_BYTE = np.arange(_WINDOW)
_FROM = _word_masks(_BYTE >= np.arange(_WINDOW + 1)[:, None])  # bytes j >= i
_BELOW = _word_masks(_BYTE < np.arange(_WINDOW)[:, None])  # bytes j < i
_WORDS = np.array([[0], [8], [16]])  # where the window's words start


def _each_byte(byte: int) -> np.uint64:
    return _U64(int.from_bytes(bytes([byte]) * 8, "little"))


_ASCII_ZERO, _LOW7, _TEN_UP, _ONES = (_each_byte(b) for b in (0x30, 0x7F, 0x76, 0x01))
_DOT = _U64(ord(".") ^ 0x30)
# f * _AT[k] >> 56 is 8k + b for a word k whose one nonzero byte is 0x01 at byte b.
_AT = np.array([[sum((7 - j + 8 * k) << (8 * j) for j in range(8))] for k in range(3)], np.uint64)
_SEVEN, _EIGHT, _FIFTY_SIX = _U64(7), _U64(8), _U64(56)
_FOLD = [(_U64(10 * 2**8 + 1), _EIGHT, _U64(0x00FF00FF00FF00FF)),
         (_U64(100 * 2**16 + 1), _U64(16), _U64(0x0000FFFF0000FFFF))]
_FOLD_LAST, _THIRTY_TWO = _U64(10000 * 2**32 + 1), _U64(32)
_E8, _E16, _MOST = _U64(10**8), _U64(10**16), _U64(999)


def _fold(x: np.ndarray) -> None:
    """Replace each word of x, whose bytes are digits (0 to 9), by the
    8-digit number they spell, the byte at the lowest address first
    (Lemire's SWAR folding)."""
    for multiplier, shift, mask in _FOLD:
        x *= multiplier
        x >>= shift
        x &= mask
    x *= _FOLD_LAST
    x >>= _THIRTY_TWO


def _fields(pad: np.ndarray, words: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Read the fields pad[24 + starts[i]:24 + ends[i]] as [-+]?d*[.]?d*.

    Returns (digits, fraction, negative, point, valid): the field's digits
    as one integer, how many follow the ".", the sign, whether there is a
    ".", and whether the field fits that grammar in at most 23 bytes with at
    least one digit and fewer than 20 significant ones. words[i] is the
    little-endian word pad[i:i + 8].
    """
    length = ends - starts
    first = pad[starts + _WINDOW]
    negative = first == ord("-")
    signed = negative | (first == ord("+"))
    lead = _WINDOW - length + signed  # the window byte after any sign
    np.maximum(lead, 0, out=lead)
    np.minimum(lead, _WINDOW, out=lead)
    x = words[ends + _WORDS]  # word k of each field's window in row k
    x ^= _ASCII_ZERO
    x &= _FROM.take(lead, axis=1)
    # 0x01 on each byte that is not a digit; there may be one, a ".", at
    # window byte `dot`.
    other = x & _LOW7
    other += _TEN_UP
    other |= x
    other >>= _SEVEN
    other &= _ONES
    count = other * _ONES
    count >>= _FIFTY_SIX
    point = count.sum(axis=0)
    at = other * _AT
    at >>= _FIFTY_SIX
    dot = at.sum(axis=0)
    np.minimum(dot, _U64(_WINDOW - 1), out=dot)
    dot = dot.astype(np.intp)
    # Drop the ".": clear it, and move the bytes before it one byte on.
    other *= _DOT
    x ^= other
    high = x & _BELOW.take(dot, axis=1)
    x ^= high
    x[1:] |= high[:-1] >> _FIFTY_SIX
    high <<= _EIGHT
    x |= high
    _fold(x)
    lead_digits = x[0]
    digits = np.minimum(lead_digits, _MOST) * _E16 + x[1] * _E8 + x[2]
    valid = (point <= 1) & (lead_digits <= _MOST) & (length < _WINDOW)
    point = point.astype(bool)
    valid &= (pad[ends + dot] == ord(".")) | ~point
    valid &= length - signed - point > 0  # a digit
    return digits, np.where(point, _WINDOW - 1 - dot, 0), negative, point, valid


def _within_half_ulp(value: np.ndarray, r: np.ndarray, error: np.ndarray, scale) -> np.ndarray:
    """Whether the positive double `value` is the one nearest to value +
    r / scale, where r is known to within `error`: r stays clear of the half
    gaps to both neighbours, so an exact tie is never decided."""
    bits = value.view(np.int64)
    up = ((bits + 1).view(np.float64) - value) * scale * 0.5
    down = (value - (bits - 1).view(np.float64)) * scale * 0.5
    return (r + error < up) & (r - error > -down)


def _quotient(high: np.ndarray, low: np.ndarray, k: np.ndarray):
    """M / 10**k rounded to the nearest double, M = high + low, and whether
    that is proven."""
    p = _POW10[k]
    c = high / p
    hi, lo = _times(c, p, _POW10_HIGH[k], _POW10_LOW[k])
    a = high - hi  # exact: hi is within a few units of high (Sterbenz)
    r = (a + low) - lo  # M - c * p
    error = (np.abs(a) + np.abs(low) + np.abs(lo)) * 2.0**-50
    value = c + r / p
    step = (value - c) * p  # value - c is exact, its product rounded
    r -= step  # M - value * p
    error += (np.abs(step) + np.abs(r)) * 2.0**-52
    return value, _within_half_ulp(value, r, error, p)


def _product(high: np.ndarray, low: np.ndarray, k: np.ndarray):
    """M * 10**k rounded to the nearest double, M = high + low, and whether
    that is proven."""
    hi, lo = _scaled(high, k)
    low_hi, low_lo = _scaled(low, k)
    r = (lo + low_hi) + low_lo  # M * 10**k - hi
    error = (np.abs(lo) + np.abs(low_hi) + np.abs(low_lo)) * 2.0**-50
    value = hi + r
    r -= value - hi  # M * 10**k - value; value - hi is exact
    error += np.abs(r) * 2.0**-52
    return value, _within_half_ulp(value, r, error, 1.0)


def _nearest(digits: np.ndarray, q: np.ndarray):
    """digits * 10**q rounded to the nearest double for |q| <= 22, and
    whether that rounding is proven.

    digits < 10**19 is high + low, high its nearest double and low an exact
    small integer. 10**|q| is exact, so the residual of a candidate c,
    digits - c * 10**|q| or digits * 10**q - c, is a sum of a few doubles
    each formed exactly (Dekker's product, Sterbenz's lemma), known to
    within a bound on its rounding. The candidate from one division or
    product may be an ulp or two off; one correction step c + residual
    lands on the nearest double unless the value lies within that bound of
    a half-way point, and the residual of the corrected value proves it.
    """
    k = np.minimum(np.abs(q), 22)
    high = digits.astype(np.float64)
    low = (digits - high.astype(np.uint64)).view(np.int64).astype(np.float64)
    below_one = q < 0
    if below_one.all():
        value, exact = _quotient(high, low, k)
    else:
        value = np.empty(len(q))
        exact = np.empty(len(q), bool)
        for rows, nearest in ((below_one, _quotient), (~below_one, _product)):
            rows = np.flatnonzero(rows)
            value[rows], exact[rows] = nearest(high[rows], low[rows], k[rows])
    zero = digits == 0
    value[zero] = 0.0
    return value, (exact | zero) & (np.abs(q) <= 22)


def _decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """float(text) for each field buf[starts[i]:ends[i]], where the kernel
    decides it, and whether it did; the fields are disjoint and in order.

    A decided field is [-+]?d*[.]?d* with an optional exponent [eE][-+]?d+,
    in at most 23 bytes before the exponent, with at least one and at most
    19 significant digits, and a value digits * 10**q with |q| <= 22 that
    `_nearest` rounds provably. "-0" reads as -0.0.
    """
    count = len(starts)
    pad = np.zeros(_WINDOW + len(buf) + 8, np.uint8)
    pad[_WINDOW:_WINDOW + len(buf)] = buf
    words = np.ndarray((len(pad) - 7,), "<u8", pad, strides=(1,))
    mantissa_end = ends.copy()
    exponent = np.zeros(count, np.int64)
    valid = np.ones(count, bool)
    marks = np.flatnonzero((buf | 0x20) == ord("e"))
    field = np.searchsorted(ends, marks, "right")
    inside = field < count
    inside[inside] = starts[field[inside]] <= marks[inside]
    marks, field = marks[inside], field[inside]
    if len(field):
        valid[field[1:][field[1:] == field[:-1]]] = False  # two exponents
        mantissa_end[field] = marks
        digits, _, negative, point, ok = _fields(pad, words, marks + 1, ends[field])
        valid[field] &= ok & ~point & (digits < 10**4)
        power = np.minimum(digits, 10**4).astype(np.int64)
        exponent[field] = np.where(negative, -power, power)

    values = np.empty(count)
    for i in range(0, count, _BLOCK_FIELDS):
        block = slice(i, i + _BLOCK_FIELDS)
        digits, fraction, negative, _, ok = _fields(pad, words, starts[block], mantissa_end[block])
        q = exponent[block] - fraction
        q[~ok] = -1  # moot for an unreadable cell; keeps a block of fractions on one path
        value, exact = _nearest(digits, q)
        values[block] = np.where(negative, -value, value)
        valid[block] &= ok & exact
    return values, valid


def line_bounds(data: bytes) -> np.ndarray:
    """Where the lines of `data` lie, split as csv splits them: \\n, \\r\\n and
    a bare \\r each end a line, and a last line may be unterminated.

    Entry k - 1 is the first byte of file line k and the last entry is
    len(data), so line k is data[b[k - 1]:b[k]]; `data` has len(b) - 1
    lines, none for b"".
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    cr = np.flatnonzero(raw == ord("\r"))
    bare_cr = cr[raw[np.minimum(cr + 1, len(raw) - 1)] != ord("\n")]  # a \r\n ends at its \n
    # A line starts just after a line end; the first, after one at byte -1.
    bounds = np.concatenate(([-1], np.flatnonzero(raw == ord("\n")), bare_cr))
    bounds.sort()
    bounds += 1
    return bounds if bounds[-1] == len(data) else np.append(bounds, len(data))  # an unterminated last line


class CsvRecords(NamedTuple):
    """The records of a run of lines, one per line, as `parse_csv` reads
    them: what csv.reader makes of each line alone, without its terminator."""

    fields: np.ndarray  # how many cells each has
    values: np.ndarray  # (lines, width): float() of its cells, where `numeric`
    numeric: np.ndarray  # whether it has `width` cells, no open quote, and float() reads each one
    open_quote: np.ndarray  # whether a quoted cell is still open at its line's end
    cells: Callable[[int], list[str]]  # line i's cells, as csv reads the line alone


def parse_csv(data: bytes, bounds: np.ndarray, first: int, last: int, width: int) -> CsvRecords:
    """The records on file lines first..last of `data` (fewer at its end),
    one record per line, line k being data[bounds[k - 1]:bounds[k]] as
    `line_bounds` finds it; what csv.reader, fed that line alone without its
    terminator, and float() make of them.

    numpy reads each line whose '"' bytes all sit at cell edges, and that
    is no longer than csv.field_size_limit(): quote k of the line opens a
    cell when k is even, at the line's start or after a comma, and closes
    it when k is odd, before a comma or at the line's end. The cells end at
    the line's commas, but for those after an odd number of its quotes,
    which lie inside a cell, and a quoted cell is the bytes between its
    quotes; an empty line is a record of no cells. csv.reader reads every
    other line alone (an odd number of quotes, a quote off a cell edge such
    as 1"5 or "a""b", or a line over the limit), fed the line and then "":
    a line whose quoted cell is still open at its end takes that "", and
    is `open_quote`. A line csv cannot parse alone (a cell over its field
    limit) is a ValueError naming it.

    The cells of each record numpy reads with `width` cells are read by
    `_decimals`; each cell it does not decide goes to float(), and a
    ValueError there marks the record not `numeric`. A decided cell is one
    the kernel proves equal to float(cell), bit for bit: it is
    [-+]?digits[.digits] (or .5, 5.), with an optional exponent
    [eE][-+]?digits, its at most 19 significant digits are an exact uint64
    M and its value is M * 10**q with |q| <= 22, so 10**|q| is an exact
    double. A first quotient or product is corrected by one step, and
    accepted only where an exact residual (Dekker's product, Sterbenz's
    lemma), known to within a bound on its own rounding, puts the value
    strictly inside the half gaps around the result; so a value within that
    bound of a half-way point, or an exact tie such as 9007199254740993, is
    left to float(), as are spaces, "_", nan, inf, other digits than ASCII,
    longer digit strings and larger exponents. "-0" reads as -0.0.
    """
    last = min(last, len(bounds) - 1)
    lines = last - first + 1
    start = int(bounds[first - 1])
    text = data[start:int(bounds[last])]
    raw = np.frombuffer(text, np.uint8)
    line_start = bounds[first - 1:last] - start
    line_end = bounds[first:last + 1] - start  # the byte each line's successor starts at
    # The byte of each line's terminator: its \n or \r, the \r of a \r\n,
    # or its end if it has none.
    final = raw[line_end - 1]
    newline = final == ord("\n")
    content_end = line_end - (newline | (final == ord("\r")))
    crlf = newline & (content_end > line_start)
    crlf[crlf] = raw[content_end[crlf] - 1] == ord("\r")
    content_end -= crlf
    # Quote k of a line opens a cell when k is even and closes it when k is
    # odd. A line goes to csv alone when a quote is off its cell edge, when
    # an opening quote is its line's last, or when it is over csv's field limit.
    quote = np.flatnonzero(raw == ord('"'))
    quote_line = np.searchsorted(line_end, quote, "right")
    closing = (np.arange(len(quote)) - np.searchsorted(quote, line_start)[quote_line]) % 2 == 1
    closed = np.append(closing, False)  # whether the quote after quote k, if any, closes a cell
    beside = np.where(closing, quote + 1, quote - 1)  # the byte across the cell edge
    edge = beside == np.where(closing, content_end[quote_line], line_start[quote_line] - 1)
    edge |= raw[beside.clip(0, len(raw) - 1)] == ord(",")
    alone = content_end - line_start > csv.field_size_limit()
    alone[quote_line[~edge | ~(closing | closed[1:])]] = True
    comma = np.flatnonzero(raw == ord(","))
    comma = comma[~closed[np.searchsorted(quote, comma)]]  # one before a closing quote is inside its cell
    # Cell c of the slice is raw[cell_start[c]:cell_end[c]]: each line's
    # cells start at its start or after a comma and end at a comma or at its
    # terminator, so an empty line holds one empty cell here.
    before, through = np.searchsorted(comma, line_start), np.searchsorted(comma, content_end)
    cell_start = np.insert(comma + 1, before, line_start)
    cell_end = np.insert(comma, through, content_end)
    line_cell = before + np.arange(lines)  # each line's first cell
    span = through - before + 1
    fields = np.where(content_end > line_start, span, 0)
    opening = np.searchsorted(cell_end, quote[~closing & ~alone[quote_line]])  # a quoted cell: its inner bytes
    cell_start[opening] += 1
    cell_end[opening] -= 1

    def cell_text(c: int) -> str:
        return text[cell_start[c]:cell_end[c]].decode()

    read: dict[int, list[str]] = {}
    open_quote = np.zeros(lines, bool)
    for j in np.flatnonzero(alone).tolist():
        reader = csv.reader([text[line_start[j]:content_end[j]].decode(), ""])
        try:
            read[j] = next(reader)
        except csv.Error as exc:
            raise ValueError(f"unreadable CSV record on line {first + j}: {exc}") from None
        open_quote[j] = reader.line_num > 1
        fields[j] = len(read[j])

    rows = ~alone & (fields == width)
    cells = np.flatnonzero(np.repeat(rows, span))
    got, readable = _decimals(raw, cell_start[cells], cell_end[cells])
    for k in np.flatnonzero(~readable).tolist():
        try:
            got[k] = float(cell_text(cells[k]))
        except ValueError:
            continue
        readable[k] = True
    values = np.zeros((lines, width))
    values[rows] = got.reshape(-1, width)
    numeric = np.zeros(lines, bool)
    numeric[rows] = readable.reshape(-1, width).all(axis=1)
    for j, row in read.items():
        if len(row) == width and not open_quote[j]:
            try:
                values[j] = [float(cell) for cell in row]
            except ValueError:
                continue
            numeric[j] = True

    def cells_of(i: int) -> list[str]:
        return read[i] if i in read else [cell_text(c) for c in range(line_cell[i], line_cell[i] + fields[i])]

    return CsvRecords(fields, values, numeric, open_quote, cells_of)
