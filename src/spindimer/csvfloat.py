"""Float blocks as CSV text: the exact bytes of "%.17g", a whole block at once.

`format_csv(block)` returns what

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
"""

from __future__ import annotations

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


_POW10 = np.array([float(10**k) for k in range(21)])  # each one exact
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
    hi = a * _POW10[k]
    a_high, a_low = _split(a)
    p_high, p_low = _POW10_HIGH[k], _POW10_LOW[k]
    lo = ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low
    return hi, lo


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
