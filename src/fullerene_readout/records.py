"""The one writer of every CSV and JSONL output file.

`RecordWriter` opens a file, writes the CSV header, then takes records in
blocks of named columns of equal length (lists, ranges or numpy arrays),
encoding and writing each block as it arrives, so a file of any length is
written in the memory of one block. A CSV field is `'%.12g' % v` for a
float, in a float array or in a list, and `str(v)` for any other value, so
a list that mixes types writes alike in one write or in several. JSONL
rows are `json.dumps` of Python values. A block that holds a NaN or an
infinity, in a float array or anywhere in a list, is refused before any of
it is written. The sha256 of the file is taken from the bytes as they are
written, so no output is read back to be hashed. A write that fails, for
any reason, removes its file: no partial output is left behind.

CSV text is built a block at a time, as `write` is handed it, in numpy, into
one `uint8` matrix with a row per record. Each field owns a span of bytes in
every row, as wide as its widest value in the block: a shorter value leaves
NULs in its span, and dropping every NUL at the end leaves exactly the
fields. Text fields carry no NUL of their own (they come from code or
argparse choices), so this is exact. A field is computed as words, one
integer per row holding up to 8 of its bytes (the first byte least
significant), and each word is stored with one strided copy into the matrix,
which the writer keeps from block to block. ASCII string arrays are encoded
directly, and so are integer arrays whose every value in the block lies in
0..10^8 - 1, each value one word of its digits; any other non-float column
is formatted by Python, value by value.

Floats are exact. With X = floor(log10|x|) in -99..11, m = |x| *
10^(11 - X) is one correctly rounded product of |x| and the correctly
rounded power (exact up to 10^22): two roundings, each within a relative
2^-53, so m lies within (1e12 + 0.5) * 2^-52 ~ 2.2e-4 of its exact value.
So when m lies in [1e11, 1e12 + 0.5) and its fraction lies more than the
1e-3 margin from .5, rounding m to an integer gives the twelve digits (and
the carry to the next decade when it reaches 10^12) that correctly rounded
decimal output gives, as Python's `%` does (D. M. Gay, *Correctly Rounded
Binary-Decimal and Decimal-Binary Conversions*, 1990).
The digits come from a 0000-9999 table; the point, the trailing zeros to
drop and the exponent from a table with one row per (X, number of digits
up to the last nonzero one), built from Python's own `'%.12g'` of one value
of each shape, split around its digits. Any other value is formatted by
Python's own `'%.12g' % v`, so every byte matches: one near a rounding tie,
below 1e-99 (three-digit exponents, subnormals), from 1e12 up, or a hair
below a power of ten where log10 rounds up across it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import NumericFailure

_ZERO = ord("0")
_X_MIN, _X_MAX = -99, 12      # X after a carry, within the power table


def _float_quads() -> np.ndarray:
    """Each base 10^4 digit ("quad") 0000..9999, then 10000 (a float's
    rounding carry) as 1000: a word of its four digits, then in byte 4 + p,
    for each position p = 0, 1, 2 of a float's three quads, the count of
    the float's digits up to the quad's last nonzero one, or 0 if the quad
    is 0. The largest of those three bytes is the float's `_float_layouts`
    row less 13 * (X - _X_MIN); a carry adds 13."""
    quads = np.r_[np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy(),
                  np.array([[1, 0, 0, 0]], np.uint8)]
    significant = ((quads > 0) * np.arange(1, 5, dtype=np.uint8)).max(1)
    digits = (_ZERO + quads).view("<u4")[:, 0].astype(np.uint64)
    for p in range(3):
        count = np.where(significant > 0, significant + 4 * p,
                         0).astype(np.uint64)
        count <<= np.uint64(32 + 8 * p)
        digits |= count
    digits[10000] += np.uint64(13 << 32)
    return digits


_DIGITS = _float_quads()

# 10^k for k = 0..11 - _X_MIN, each correctly rounded (exact up to 10^22).
_POW10 = np.array([float(f"1e{k}") for k in range(12 - _X_MIN)])
# The scaled value m is exact to 12 digits in [1e11, 1e12 + 0.5), as bits;
# |m - rint(m)| > _M_TIE holds exactly when m's fraction lies within 1e-3
# of .5, for every m in that range (see the exactness note above).
_M_LOW = np.float64(1e11).view(np.int64)
_M_SPAN = np.uint64(np.float64(1e12 + 0.5).view(np.int64) - _M_LOW)
_M_TIE = 0.5 - 1e-3


def _float_layouts():
    """Per (exponent X, digits n up to the last nonzero one, 0 for a zero),
    at row (X - _X_MIN) * 13 + n, then an empty row: `'%.12g'` of a value
    of that shape, as its head ("0.000"), middle (digits and any point) and
    tail ("e+XX"). '%.12g' writes X = -4..11 in fixed form, with the point
    placed per (X, n); every other X writes one middle per n and differs
    only in its tail. So heads and middles are formatted once per fixed
    (X, n), once per n for the exponent form and once for the empty row.
    `masks` holds six word tables per row: the bytes kept from the digits,
    the bytes taken from the digits moved one byte up to make room for the
    point, and the point, for the first 8 bytes and the next 8; `head` the
    words of the head per row, `tail` the words of the tail per row, and
    `widths` the sizes of the three parts per row."""
    fixed = range(-4, 12)
    parts = [re.fullmatch(r"(0\.0*)?([^e]*)e?.*", "%.12g" % (
        float("123456789123"[:n] or 0) * 10.0 ** (x - n + 1))).groups("")
        for x in [*fixed, _X_MIN] for n in range(13)]
    parts.append(("", ""))
    head, middle = zip(*parts)
    sizes = np.array([[len(p) for p in row] for row in parts], np.uint8)
    # the point's byte, or the middle's length if it has no point
    at = np.array([(m + ".").index(".") for m in middle])[:, None]
    j, width = np.arange(16), sizes[:, 1:2]
    masks = np.zeros((6, len(parts)), np.uint64)
    for i, (part, char) in enumerate(zip(
            [j < at, (j > at) & (j < width), (j == at) & (j < width)],
            (0xFF, 0xFF, ord(".")))):
        masks[[i, 3 + i]] = (part * np.uint8(char)).view("<u8").T
    xs = range(_X_MIN, _X_MAX + 1)
    first = [(x - fixed.start if x in fixed else len(fixed)) * 13 for x in xs]
    layout = np.r_[np.add.outer(first, np.arange(13)).ravel(), len(parts) - 1]
    tail = ["".join(("%.12g" % 10.0**x).partition("e")[1:]) for x in xs]
    tail.append("")
    rows = [13] * len(xs) + [1]
    widths = np.c_[sizes[layout],
                   np.repeat(np.array([len(t) for t in tail], np.uint8), rows)]
    # take, not masks[:, layout], whose rows are strided and slow to take from
    return (masks.take(layout, 1), np.array(head, "S8").view("<u8")[layout],
            np.repeat(np.array(tail, "S4"), rows).view("<u4"), widths)


_MASKS, _HEAD, _TAIL, _WIDTHS = _float_layouts()
_EMPTY = len(_TAIL) - 1


def _texts(values) -> np.ndarray:
    """Each value's field, `'%.12g' % v` for a float and `str(v)` for any
    other, UTF-8, as a NUL-padded byte matrix."""
    data = np.array([("%.12g" % v if isinstance(v, float) else str(v))
                     .encode() for v in values], dtype=bytes)
    return data.view(np.uint8).reshape(len(data), -1)


def _text_pieces(matrix: np.ndarray) -> list:
    """A C-contiguous byte matrix as pieces: one word if its width is a
    word's, else the matrix itself."""
    width = matrix.shape[1]
    if width in (1, 2, 4, 8):
        return [(matrix.view(f"<u{width}").ravel(), width)]
    return [(matrix, width)] if width else []


def _float_rows(values: np.ndarray):
    """Per value: its twelve digits as two words (the first 8 digits, then
    the last 4), its `_float_layouts` row, and whether Python formats it."""
    a = np.abs(values)
    nonzero = a > 0
    x = np.zeros(len(a))
    np.log10(a, out=x, where=nonzero)
    x = np.floor(x, out=x).astype(np.int64)     # X, and 0 for a zero
    k = 11 - x              # 10^(11 - X) ~ _POW10[k] if 0 <= k <= 110
    fallback = k.view(np.uint64) >= len(_POW10)
    m = _POW10.take(k, mode="clip")
    m *= a
    del a, k
    # m >= 0, so its bits order as it does: this is m outside [1e11, 1e12
    # + 0.5)
    inexact = (m.view(np.int64) - _M_LOW).view(np.uint64) >= _M_SPAN
    digits = np.rint(m)                         # 10^12 on a carry
    m -= digits
    inexact |= np.abs(m, out=m) > _M_TIE        # fraction within 1e-3 of .5
    inexact &= nonzero
    fallback |= inexact
    del m, inexact, nonzero
    any_fallback = fallback.any()
    if any_fallback:
        np.copyto(digits, 0.0, where=fallback)
    digits = digits.astype(np.int64)
    quad = digits // 10**8
    digits -= quad * 10**8
    w1 = _DIGITS.take(quad)
    quad = digits // 10**4
    digits -= quad * 10**4
    w2 = _DIGITS.take(quad)
    w3 = _DIGITS.take(digits)
    del quad, digits
    row = w1 >> np.uint64(32)
    row &= np.uint64(0xFF)
    count = w2 >> np.uint64(40)
    count &= np.uint64(0xFF)
    np.maximum(row, count, out=row)
    np.right_shift(w3, np.uint64(48), out=count)
    np.maximum(row, count, out=row)
    del count
    x -= _X_MIN
    x *= 13
    x += row.view(np.int64)
    row = x
    w1 &= np.uint64(0xFFFFFFFF)
    w2 <<= np.uint64(32)
    w1 |= w2
    del w2
    w3 &= np.uint64(0xFFFFFFFF)
    if any_fallback:
        np.copyto(row, _EMPTY, where=fallback)
    return w1, w3, row, fallback if any_fallback else None


def _place(digits, moved, row, masks):
    """One word of a float's text: the digit bytes kept, the bytes of
    `moved` (the digits one byte up) after the point, and the point."""
    moved &= masks[1].take(row)
    moved |= masks[2].take(row)
    kept = masks[0].take(row)
    kept &= digits
    moved |= kept
    return moved


def _floats(values: np.ndarray):
    """`%.12g` of each value: its pieces, and the rows Python formats with
    their text."""
    values = np.asarray(values, np.float64)
    w1, w3, row, fallback = _float_rows(values)
    used = np.zeros(len(_TAIL), bool)
    used[row] = True
    head, middle, tail = _WIDTHS[used].max(0).tolist()
    pieces = []
    sign = np.signbit(values)
    if sign.any():
        pieces.append((sign.view(np.uint8) * np.uint8(ord("-")), 1))
    if head:
        pieces.append((_HEAD.take(row), head))
    if middle > 8:
        moved = w3 << np.uint64(8)
        moved |= w1 >> np.uint64(56)
        high = _place(w3, moved, row, _MASKS[3:])
    pieces.append((_place(w1, w1 << np.uint64(8), row, _MASKS[:3]),
                   min(middle, 8)))
    if middle > 8:
        pieces.append((high, middle - 8))
    if tail:
        pieces.append((_TAIL.take(row), tail))
    if fallback is None:
        return pieces, None
    index = np.flatnonzero(fallback)
    text = _texts(values[index].tolist())
    pad = text.shape[1] - sum(nbytes for _, nbytes in pieces)
    zeros = np.zeros(len(values), np.uint64)
    pieces += [(zeros, min(8, pad - i)) for i in range(0, pad, 8)]
    return pieces, (index, text)


def _integers(values: np.ndarray) -> list | None:
    """`str(v)` of each integer as pieces, or None if any lies outside
    0..10^8 - 1."""
    top = int(values.max())
    if int(values.min()) < 0 or top >= 10**8:
        return None
    if top < 10:
        return [(values + values.dtype.type(_ZERO), 1)]
    values = values.astype(np.intp, copy=False)
    high = values // 10000
    word = _DIGITS.take(high)       # the first four digits, then the last
    word &= np.uint64(0xFFFFFFFF)
    word |= _DIGITS.take(values - high * 10000) << np.uint64(32)
    # Shift each word down past its leading zeros: 8 less its digits
    lead = 7 - np.searchsorted(10 ** np.arange(1, 8), values, "right")
    word >>= (lead * 8).astype(np.uint64)
    return [(word, len(str(top)))]


def _encode(block):
    """One column block as its pieces, (words or byte matrix, byte count)
    in order, and the rows that Python formats with their text, if any."""
    if isinstance(block, np.ndarray):
        if block.dtype.kind == "f":
            return _floats(block)
        if block.dtype.kind in "iu":
            pieces = _integers(block)
            if pieces is not None:
                return pieces, None
        elif block.dtype.kind == "U":
            codes = np.ascontiguousarray(block).view(np.uint32)
            codes = codes.reshape(len(block), -1)
            if (codes < 128).all():
                return _text_pieces(codes.astype(np.uint8)), None
        block = block.tolist()
    return _text_pieces(_texts(block)), None


def _put(rows: np.ndarray, offset: int, piece: np.ndarray, nbytes: int):
    """Store each row's piece at byte `offset` of the row. A word is stored
    whole, so its spare high bytes land on the bytes that the next pieces
    or separators cover; at the row's end only its `nbytes` bytes are."""
    if piece.ndim == 2:
        rows[:, offset:offset + nbytes] = piece
        return
    while nbytes:
        size = piece.itemsize
        if offset + size > rows.shape[1]:
            size = 1 << (nbytes.bit_length() - 1)
        np.ndarray(len(rows), f"<u{size}", rows, offset,
                   rows.strides[:1])[...] = piece
        if size >= nbytes:
            return
        piece = piece >> np.uint64(8 * size)
        offset += size
        nbytes -= size


def _csv_column(column):
    """A float list as a float array; any other column as it is."""
    if not isinstance(column, np.ndarray) and all(
            isinstance(v, float) for v in column):
        return np.array(column, dtype=np.float64)
    return column


def _csv_text(columns, text: bytearray) -> bytes:
    """The CSV rows of one block as bytes, built in `text`, a buffer kept
    from block to block."""
    fields = [_encode(c) for c in columns]
    width = len(fields) + sum(nbytes for pieces, _ in fields
                              for _, nbytes in pieces)
    size = len(columns[0]) * width
    if len(text) < size:
        text.extend(bytes(size - len(text)))
    del text[size:]                     # every byte left is written below
    rows = np.frombuffer(text, np.uint8).reshape(-1, width)
    separators = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    offset = 0
    for (pieces, patch), separator in zip(fields, separators):
        begin = offset
        for piece, nbytes in pieces:
            _put(rows, offset, piece, nbytes)
            offset += nbytes
        if patch is not None:
            index, chars = patch
            rows[index, begin:offset] = 0
            rows[index, begin:begin + chars.shape[1]] = chars
        rows[:, offset] = separator
        offset += 1
    del fields, rows    # freed first, so that the copy can reuse them
    return text.translate(None, b"\0")


class RecordWriter:
    """One output file, written block by block as a context manager:

        with RecordWriter(path, names) as out:
            out.write(columns)      # once per block
        digest = out.sha256

    CSV with a header row of the names or, when `path` ends in `.jsonl`, one
    JSON object per row. Leaving the block closes the file and sets
    `sha256`, the hex digest of its bytes; an exception raised in it, of any
    kind, removes the file instead."""

    def __init__(self, path: str | Path, names):
        self.path = Path(path)
        self.names = list(names)
        self.sha256: str | None = None
        self._jsonl = self.path.suffix == ".jsonl"
        self._digest = hashlib.sha256()
        self._text = bytearray()    # where each CSV block is built

    def __enter__(self) -> RecordWriter:
        self._file = open(self.path, "wb")
        if not self._jsonl:
            self._put((",".join(self.names) + "\n").encode())
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._file.close()
        except BaseException:
            self.path.unlink(missing_ok=True)
            raise
        if exc_type is None:
            self.sha256 = self._digest.hexdigest()
        else:
            self.path.unlink(missing_ok=True)

    def _put(self, chunk: bytes) -> None:
        self._digest.update(chunk)
        self._file.write(chunk)

    def write(self, columns) -> None:
        """Append one block of rows: `columns` in the order of `names`."""
        columns = list(columns)
        csv_columns = [_csv_column(c) for c in columns]
        for name, column in zip(self.names, csv_columns):
            if isinstance(column, np.ndarray):
                finite = column.dtype.kind != "f" or np.isfinite(column).all()
            else:   # each float of a list, whatever else it holds
                finite = all(math.isfinite(v) for v in column
                             if isinstance(v, float))
            if not finite:
                raise NumericFailure(f"{self.path.name}: {name} is not "
                                     "finite")
        if self._jsonl:
            for row in zip(*columns):
                self._put(json.dumps(dict(zip(self.names, row))).encode()
                          + b"\n")
        elif len(csv_columns[0]):
            self._put(_csv_text(csv_columns, self._text))

