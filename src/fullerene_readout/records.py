"""The one writer of every CSV and JSONL output file.

Records arrive as named columns of equal length (lists, ranges or numpy
arrays). A CSV field is `'%.12g' % v` for a float column (a float array, or
a list of floats only) and `str(v)` for any other. JSONL rows are
`json.dumps` of Python values. A float column with a NaN or an infinity is
refused before the file is opened. The sha256 of the file is taken from the
bytes as they are written, so no output is read back to be hashed.

CSV text is built `_ROWS` rows at a time in numpy: each column block becomes
a NUL-padded `uint8` matrix with one row per value, the blocks are joined
with commas and newlines, and the NULs are dropped. Text fields carry no NUL
of their own (they come from code or argparse choices), so dropping them
leaves exactly the fields. Integer arrays, ranges and ASCII string arrays
are encoded directly; any other non-float column goes through `str(v)`.

Floats are exact. With X = floor(log10|x|) and an exactly representable
power (|11 - X| <= 22), m = |x| * 10^(11 - X) is one correctly rounded
product or quotient, within 2^-53 * 10^12 ~ 1.1e-4 of its exact value. So
when m lies in [1e11, 1e12 + 0.5) and its fraction lies more than 1e-3 from
.5, rounding m to an integer gives the twelve digits (and the carry to the
next decade when it reaches 10^12) that correctly rounded decimal output
gives, as Python's `%` does (D. M. Gay, *Correctly Rounded Binary-Decimal
and Decimal-Binary Conversions*, 1990). The digits come from a 000-999
table, and the layout (fixed notation for X in -4..11, exponent notation
otherwise) from a table with one row per `%.12g` shape. Any other value is
formatted by Python's own `'%.12g' % v`, so every byte matches: one near a
rounding tie, below 1e-11 (subnormals too), from 1e34 up, or a hair below a
power of ten where log10 rounds up across it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import NumericFailure

# CSV rows encoded per write. A block holds a few hundred bytes of byte
# matrices and gather indices per row, so this bounds the memory a write
# takes whatever the number of rows.
_ROWS = 16384

_ZERO = ord("0")
# Each 000..999 as three ASCII digits and a NUL, one uint32 per group, and
# its number of trailing zeros.
_GROUP = np.arange(1000)
_DIGITS4 = np.zeros((1000, 4), np.uint8)
_DIGITS4[:, :3] = _ZERO + np.stack(
    [_GROUP // 100, _GROUP // 10 % 10, _GROUP % 10], -1)
_PACKED3 = _DIGITS4.view(np.uint32).ravel()
_TRAILING3 = ((_GROUP % 10 == 0).astype(np.int64) + (_GROUP % 100 == 0)
              + (_GROUP == 0))
# 10^k for k = -22..22 as a factor and a divisor, both exact.
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_UP = np.r_[np.ones(22), _POW10]
_DOWN = np.r_[_POW10[:0:-1], np.ones(23)]

# A float's bytes are picked from a 32-byte source row: its twelve digits as
# four packed groups (digit i at i + i // 3, a NUL at 3), its sign in the
# last group's pad byte, then the alphabet.
_ALPHABET = np.frombuffer(b"0123456789.e+-\0\0", np.uint8)
_NUL, _SIGN, _DIGIT0, _POINT, _E, _PLUS, _MINUS = 3, 15, 16, 26, 27, 28, 29
_X_MIN, _X_MAX = -11, 34      # X after a carry, within the exact powers
_WIDTH = 19                   # the longest `%.12g`, -d.ddddddddddde-308


def _layouts() -> np.ndarray:
    """Source index of each byte of each `%.12g` shape: one row per
    (exponent X, significant digits n), then "0" and an empty row; each is
    NUL-padded to _WIDTH and starts with the sign."""
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None, None]
    n = np.arange(1, 13)[None, :, None]
    j = np.arange(_WIDTH - 1)[None, None, :]
    fixed = (x >= 0) & (x < 12)         # d..d.ddd, X + 1 integer digits
    small = (x >= -4) & (x < 0)         # 0.000ddd, -X - 1 zeros
    expo = ~(fixed | small)             # d.ddde+XX
    frac = n > x + 1
    zeros = -x - 1
    e_at = np.where(n > 1, n + 1, 1)
    digit = np.select(
        [fixed & (j <= x), fixed & frac & (j > x + 1) & (j <= n),
         small & (j >= 2 + zeros) & (j < 2 + zeros + n),
         expo & (j == 0), expo & (j >= 2) & (j <= n)],
        [j, j - 1, j - 2 - zeros, 0, j - 1], -1)
    literal = np.select(
        [fixed & frac & (j == x + 1), small & (j == 1),
         small & (j < 2 + zeros), expo & (n > 1) & (j == 1),
         expo & (j == e_at), expo & (j == e_at + 1),
         expo & (j == e_at + 2), expo & (j == e_at + 3)],
        [_POINT, _POINT, _DIGIT0, _POINT, _E,
         np.where(x < 0, _MINUS, _PLUS),
         _DIGIT0 + abs(x) // 10, _DIGIT0 + abs(x) % 10], _NUL)
    shapes = np.where(digit >= 0, digit + digit // 3, literal)
    shapes = shapes.reshape(-1, _WIDTH - 1)
    table = np.full((len(shapes) + 2, _WIDTH), _NUL, np.intp)
    table[:-2, 1:] = shapes
    table[-2, 1] = _DIGIT0
    table[:-1, 0] = _SIGN
    return table


_LAYOUT = _layouts()
_ZERO_LAYOUT, _EMPTY_LAYOUT = len(_LAYOUT) - 2, len(_LAYOUT) - 1


def _texts(values) -> np.ndarray:
    """`str(v)` of each value, UTF-8, as a NUL-padded byte matrix."""
    data = np.array([str(v).encode() for v in values], dtype=bytes)
    return data.view(np.uint8).reshape(len(data), -1)


def _scaled(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a * 10^(11 - x), one correctly rounded operation with an exact power
    (clipped to 10^+-22: outside that the result is not used)."""
    k = np.clip(11 - x, -22, 22) + 22
    return a * _UP[k] / _DOWN[k]


def _floats(values: np.ndarray) -> np.ndarray:
    values = values.astype(np.float64)
    a = np.abs(values)
    nonzero = a > 0
    with np.errstate(divide="ignore"):
        x = np.where(nonzero, np.floor(np.log10(a)), 0).astype(np.int64)
    m = _scaled(a, x)
    fallback = nonzero & ((np.abs(11 - x) > 22) | (m < 1e11)
                          | (m >= 1e12 + 0.5)
                          | (np.abs(m - np.floor(m) - 0.5) < 1e-3))
    m = np.where(nonzero & ~fallback, m, 1e11)
    digits = np.rint(m).astype(np.int64)
    carry = digits == 10**12
    digits[carry] = 10**11
    x += carry
    groups = np.stack([digits // 10**9, digits // 10**6 % 1000,
                       digits // 1000 % 1000, digits % 1000], -1)
    trailing = _TRAILING3[groups[:, 3]]
    for g in (2, 1, 0):     # a group adds its zeros if all after it are 0
        trailing += (trailing == 3 * (3 - g)) * _TRAILING3[groups[:, g]]
    layout = (x - _X_MIN) * 12 + 11 - trailing
    layout[~nonzero] = _ZERO_LAYOUT
    layout[fallback] = _EMPTY_LAYOUT
    source = np.empty((len(a), 32), np.uint8)
    source[:, :16] = _PACKED3[groups].view(np.uint8)
    source[:, _SIGN] = np.where(np.signbit(values), ord("-"), 0)
    source[:, 16:] = _ALPHABET
    index = _LAYOUT[layout]
    index += 32 * np.arange(len(a))[:, None]
    out = source.ravel()[index]
    if fallback.any():
        text = _texts("%.12g" % v for v in values[fallback].tolist())
        out[fallback, :text.shape[1]] = text
    return out


def _integers(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "u":
        magnitude = values.astype(np.uint64)
        negative = np.zeros(len(values), bool)
    else:
        signed = values.astype(np.int64)
        # |INT64_MIN| wraps to itself, which uint64 reads as 2^63
        magnitude = np.abs(signed).astype(np.uint64)
        negative = signed < 0
    width = len(str(int(magnitude.max())))
    n_digits = np.ones(len(values), np.int64)
    for k in range(1, width):
        n_digits += magnitude >= np.uint64(10**k)
    n_groups = -(-width // 3)
    groups = []
    for _ in range(n_groups):
        magnitude, group = np.divmod(magnitude, np.uint64(1000))
        groups.append(group)
    out = _PACKED3[np.stack(groups[::-1], -1).astype(np.intp)].view(np.uint8)
    digit = np.arange(4 * n_groups)
    digit -= digit // 4         # the digit each byte holds; pads are NUL
    out[digit < (3 * n_groups - n_digits)[:, None]] = 0
    if negative.any():
        sign = np.where(negative, ord("-"), 0).astype(np.uint8)
        out = np.concatenate([sign[:, None], out], 1)
    return out


def _encode(block) -> np.ndarray:
    """One column block as a NUL-padded byte matrix, one row per value."""
    if isinstance(block, range):
        block = np.arange(block.start, block.stop, block.step, dtype=np.int64)
    if isinstance(block, np.ndarray):
        if block.dtype.kind == "f":
            return _floats(block)
        if block.dtype.kind in "iu":
            return _integers(block)
        if block.dtype.kind == "U":
            codes = np.ascontiguousarray(block).view(np.uint32)
            codes = codes.reshape(len(block), -1)
            if (codes < 128).all():
                return codes.astype(np.uint8)
        block = block.tolist()
    return _texts(block)


def _csv_column(column):
    """A float list as a float array; any other column as it is."""
    if not isinstance(column, (np.ndarray, range)) and all(
            isinstance(v, float) for v in column):
        return np.array(column, dtype=np.float64)
    return column


def _csv_chunks(names, columns):
    """The CSV text as bytes: the header row, then one chunk per block of
    `_ROWS` rows."""
    yield (",".join(names) + "\n").encode()
    for start in range(0, len(columns[0]), _ROWS):
        fields = [_encode(c[start:start + _ROWS]) for c in columns]
        comma, newline = (np.full((len(fields[0]), 1), ord(c), np.uint8)
                          for c in ",\n")
        parts = [comma] * (2 * len(fields))
        parts[::2] = fields
        parts[-1] = newline
        yield np.concatenate(parts, 1).tobytes().translate(None, b"\0")


def write_records(path: str | Path, columns: dict) -> str:
    """Write the columns as CSV, with a header row of their names, or, when
    `path` ends in `.jsonl`, as one JSON object per row. Returns the sha256
    hex digest of the file."""
    csv_columns = [_csv_column(c) for c in columns.values()]
    for name, column in zip(columns, csv_columns):
        if isinstance(column, np.ndarray) and column.dtype.kind == "f" \
                and not np.isfinite(column).all():
            raise NumericFailure(f"{Path(path).name}: {name} is not finite")
    if Path(path).suffix == ".jsonl":
        chunks = (json.dumps(dict(zip(columns, row))).encode() + b"\n"
                  for row in zip(*columns.values()))
    else:
        chunks = _csv_chunks(list(columns), csv_columns)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()
