"""Deterministic CSV/JSON emission used by the CLI.

All real numbers are written with 17 significant digits and a '.' decimal
separator so that repeated runs produce byte-identical files.  A CSV is
written column by column, from consecutive parts of its rows, read one at a
time: each column of a part is classified and checked once, so a non-finite
value is refused before any of that part's rows is written.  The part's rows
are then written a block at a time, and numpy makes each block's bytes.
Each column of the block becomes a byte matrix with one column per cell: row
i holds byte i of every cell, and 0xFF, a byte UTF-8 never uses, stands
where a cell has no byte i.  A block is one bytearray, sized from the
columns' widths before any matrix is made; each matrix is copied into it,
transposed, with a separator after it, and dropped before the next is made.
The block's bytes are the buffer's other bytes in row order, kept by
bytearray.translate a slab of the buffer at a time, with no tobytes() copy.

Integer cells get their digits from repeated division by 10.  Float cells
get '%.17g''s digits exactly: the decade k of |x| from a log10 estimate
corrected by exact comparison with a double-double table of powers of ten,
then D = round(|x| * 10^(16-k)) from Dekker's exact product of x with the
table entry for 10^(16-k), whose error is far below the distance of D from a
rounding tie.  Cells close to a tie, and magnitudes outside the table's
range, are formatted by Python one by one.  Any other column (bools,
strings, mixed cells, Python sequences) is format_cell's strings.  Every
file is written through a sibling temporary file and renamed into place, so
a crash mid-write never leaves a half-written report.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager

import numpy as np

CSV_BLOCK_ROWS = 1 << 13
TRANSLATE_SLAB = 1 << 16  # the buffer bytes one bytearray.translate call reads

# The float kernel handles the doubles 1e-150 <= |x| < 1e150, whose decades k
# lie in [-151, 150]; its table holds 10^e for e in POW10_RANGE, inclusive,
# which covers the decade checks at floor(log10 |x|) and one above, and the
# scales 10^(16-k).
FAST_DECADES = (-150, 150)
POW10_RANGE = (FAST_DECADES[0] - 1, 17 - FAST_DECADES[0])
TIE_MARGIN = 2.0**-30  # fall back within this distance of a 17th-digit tie
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for 53-bit doubles
_ZERO, _POINT, _MINUS, _PLUS, _E = b"0.-+e"
_SKIP = 0xFF  # marks a byte position a cell does not use; UTF-8 never has it
FLOAT_CELL_ROWS = 28  # the rows of _float_cells' byte matrix
BODY_SLAB_ROWS = 4  # _float_cells places its digits and point this many rows at a time


@contextmanager
def replace_on_success(path):
    """Open a sibling temporary file for writing bytes; rename it onto path
    when the block finishes, remove it when the block raises."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def format_real(x) -> str:
    v = float(x)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("refusing to write a non-finite value")
    return f"{v:.17g}"


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return format_real(v)
    return str(v)


def _veltkamp(v):
    """v split into two halves of at most 26 significant bits each."""
    c = _SPLIT * v
    high = c - v
    np.subtract(c, high, out=high)  # c - (c - v)
    return high, np.subtract(v, high, out=c)


@functools.cache
def pow10_table():
    """10^e for e in POW10_RANGE as double-doubles: hi, the double nearest
    10^e, and lo, the double nearest 10^e - hi; then hi's Veltkamp halves.

    int/int true division is correctly rounded, so each entry is exact
    Python-int arithmetic followed by one rounding."""
    his, los = [], []
    for e in range(POW10_RANGE[0], POW10_RANGE[1] + 1):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = num / den
        p, q = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * q - p * den) / (den * q))
    hi, lo = np.array(his), np.array(los)
    table = (hi, lo, *_veltkamp(hi))
    for a in table:
        a.flags.writeable = False
    return table


def _at_least_pow10(a, e):
    """a >= 10^e, exactly, for doubles a > 0 and table exponents e."""
    hi, lo = pow10_table()[:2]
    h = hi[e - POW10_RANGE[0]]
    return (a > h) | ((a == h) & (lo[e - POW10_RANGE[0]] <= 0))


def float_digits(a):
    """The 17 significant digits of doubles a >= 0, as '%.17g' rounds them.

    Returns (D, k, slow): D is a * 10^(16-k) rounded half-even to an integer
    with 10^16 <= D < 10^17 (D = 0 and k = 0 for a = 0), and slow marks the
    cells this kernel cannot settle: those outside FAST_DECADES and those
    within TIE_MARGIN of a tie.  D and k of slow cells are meaningless.

    Each temporary is dropped after its last read (a too, once x is made),
    k lives on as the table index i of 10^(16-k), and Dekker's products
    share one scratch array: at most seven cell-sized arrays are live."""
    hi, lo, hi_high, hi_low = pow10_table()
    fast = (a >= 10.0 ** FAST_DECADES[0]) & (a < 10.0 ** FAST_DECADES[1])
    slow = ~fast & (a != 0)
    zero = a == 0
    x = np.where(fast, a, 1.0)
    del a, fast
    # floor(log10) is off by at most one next to a power of ten
    k0 = np.floor(np.log10(x)).astype(np.intp)
    k = k0 - 1
    k += _at_least_pow10(x, k0)
    k0 += 1
    k += _at_least_pow10(x, k0)
    i = np.subtract(16 - POW10_RANGE[0], k, out=k0)  # 16 - k - POW10_RANGE[0]
    del k, k0
    # Dekker's TwoProduct: p + err == x * hi[i] exactly, where err is
    # ((x_high * hi_high[i] - p) + x_high * hi_low[i] + x_low * hi_high[i])
    # + x_low * hi_low[i]
    p = x * hi[i]
    x_high, x_low = _veltkamp(x)
    err = hi_high[i]
    np.multiply(x_high, err, out=err)
    err -= p
    term = np.empty_like(x)  # take(mode="clip") fills it unbuffered; i is in range
    for half, table in ((x_high, hi_low), (x_low, hi_high), (x_low, hi_low)):
        err += np.multiply(half, table.take(i, out=term, mode="clip"), out=term)
    del x_high, x_low, half
    # x * 10^(16-k) - p, with an error below 2^-47; p is an integer >= 2^53
    rest = err
    rest += np.multiply(x, lo.take(i, out=term, mode="clip"), out=term)
    del x, err
    up = np.rint(rest, out=term)
    slow |= np.abs(np.abs(rest - up) - 0.5) < TIE_MARGIN
    del rest
    d = p.astype(np.int64) + up.astype(np.int64)
    del p, up, term
    carry = d == 10**17
    d[carry] = 10**16
    k = np.subtract(16 - POW10_RANGE[0], i, out=i)
    k += carry
    d[zero] = 0
    k[zero] = 0
    return d, k, slow


def _float_cells(x):
    """'%.17g' of finite float64 cells as a byte matrix, one column per cell.

    Rows 1-22 hold 21 digits, four zeros and then D's 17, with a point
    inserted after digit q; a cell prints digits first..last.  Fixed notation
    (-4 <= k < 17) puts the point after the units digit, q = 4 + k, and
    starts at D's first digit or at the zero before the point; exponential
    notation puts it after D's first digit and writes the exponent after the
    last digit.  Trailing zeros and a bare point are left out.  Row 0 holds
    a sign; rows 23-27 take the longest exponents.

    The 21 digits are first written to rows 1-21, with spare zeros in rows
    0 and 22; each position past the point then takes the row above it,
    bottom row first, so no second digit matrix exists.  D's division reuses
    two scratch arrays."""
    n = len(x)
    d, k, slow = float_digits(np.abs(x))
    fixed = (k >= -4) & (k < 17)
    q = np.where(fixed, 4 + k, 4).astype(np.uint8)
    sci = np.flatnonzero(~fixed)
    e = k[sci]
    del k, fixed
    out = np.empty((FLOAT_CELL_ROWS, n), np.uint8)
    out[:5] = out[22] = 0
    significant = np.full(n, 17, np.uint8)  # D's 17 less its trailing zeros
    trailing = np.ones(n, bool)
    quotient, ten = np.empty_like(d), np.empty_like(d)
    for row in range(21, 4, -1):
        np.floor_divide(d, 10, out=quotient)
        out[row] = np.subtract(d, np.multiply(10, quotient, out=ten), out=ten)
        trailing &= out[row] == 0
        significant -= trailing
        d, quotient = quotient, d
    del d, quotient, ten, trailing
    out[:23] += _ZERO
    first = np.minimum(q, 4)
    last = np.maximum(np.maximum(significant, 1) + 3, q)  # a zero prints one digit
    point = last > q
    end = last + point
    for hi in range(22, 0, -BODY_SLAB_ROWS):  # the bottom slab first
        lo = max(hi - BODY_SLAB_ROWS, 0)
        i = np.arange(lo, hi, dtype=np.uint8)[:, None]  # digit or point position
        body = out[lo + 1:hi + 1]
        np.copyto(body, out[lo:hi], where=i > q)  # row lo is not yet shifted
        np.copyto(body, _POINT, where=i == q + 1)
        np.copyto(body, _SKIP, where=(i < first) | (i > end))
    out[0] = out[23:] = _SKIP
    minus = np.flatnonzero(np.signbit(x))
    out[first[minus], minus] = _MINUS
    if len(sci):
        at = last[sci].astype(np.intp) + point[sci] + 2
        mag = np.abs(e)
        three = mag >= 100
        out[at, sci] = _E
        out[at + 1, sci] = np.where(e < 0, _MINUS, _PLUS)
        out[at + 2, sci] = _ZERO + np.where(three, mag // 100, mag // 10 % 10)
        out[at + 3, sci] = _ZERO + np.where(three, mag // 10 % 10, mag % 10)
        out[at[three] + 4, sci[three]] = _ZERO + mag[three] % 10
    slow = np.flatnonzero(slow)
    if len(slow):
        text = _text_matrix([format_real(v).encode() for v in x[slow].tolist()])
        out[:, slow] = _SKIP
        out[:text.shape[1], slow] = text.T
    return out


def _int_width(x) -> int:
    """The digit count of the largest magnitude among integer cells x, read
    from their extremes without making any cell-sized array."""
    return len(str(max(int(x.max()), -int(x.min())))) if len(x) else 1


def _int_cells(x):
    """'%d' of integer cells as a byte matrix, one column per cell.

    The digits of |x| are right-aligned below a sign row; uint64 holds the
    magnitude of every int64 and uint64 value."""
    n = len(x)
    neg = x < 0
    mag = x.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)
    width = _int_width(x)
    out = np.empty((width + 1, n), np.uint8)
    out[0] = _SKIP
    length = np.ones(n, np.uint8)
    quotient, ten = np.empty_like(mag), np.empty_like(mag)
    for row in range(width, 0, -1):
        np.floor_divide(mag, 10, out=quotient)
        out[row] = np.subtract(mag, np.multiply(10, quotient, out=ten), out=ten)
        out[row] += _ZERO
        if row < width:  # above the units, nothing left of |x| is a leading zero
            out[row] |= (mag == 0) * np.uint8(_SKIP)
            length += mag != 0
        mag, quotient = quotient, mag
    minus = np.flatnonzero(neg)
    out[width - length[minus], minus] = _MINUS
    return out


def _text_matrix(cells):
    """Byte strings as rows of a byte matrix, padded with _SKIP."""
    lengths = np.fromiter(map(len, cells), np.intp, len(cells))
    width = max(int(lengths.max()) if len(cells) else 0, 1)
    text = np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    text[np.arange(width) >= lengths[:, None]] = _SKIP
    return text


def _csv_column(column):
    """Check one CSV column; return its length and two functions of a row
    range [lo, hi): the rows of those cells' byte matrix, and the matrix.

    Integer arrays take '%d' and float16/32/64 arrays '%.17g', which print
    what format_cell prints for each tolist() cell; any other column (bools,
    strings, mixed cells, Python sequences) is format_cell's strings.  An
    integer range's rows come from its largest magnitude, a float range has
    FLOAT_CELL_ROWS and a text column's are known once it is made.
    """
    if isinstance(column, np.ndarray):
        if column.ndim != 1:
            raise ValueError("a CSV column must be one-dimensional")
        if column.dtype.kind in "iu":
            return (len(column), lambda lo, hi: _int_width(column[lo:hi]) + 1,
                    lambda lo, hi: _int_cells(column[lo:hi]))
        if column.dtype.kind == "f":
            if column.dtype.type not in (np.float16, np.float32, np.float64):
                raise ValueError(f"refusing a {column.dtype} column: only float16, "
                                 "float32 and float64 print as format_cell does")
            if not np.isfinite(column).all():
                raise ValueError("refusing to write a non-finite value")
            return len(column), lambda lo, hi: FLOAT_CELL_ROWS, lambda lo, hi: _float_cells(
                np.asarray(column[lo:hi], dtype=np.float64))
        column = column.tolist()
    text = _text_matrix([format_cell(v).encode() for v in column])
    return len(text), lambda lo, hi: text.shape[1], lambda lo, hi: text[lo:hi].T


def _block_bytes(part, lo, hi):
    """Rows [lo, hi) of a part's checked columns (see _csv_column) as CSV
    bytes, yielded a slab of TRANSLATE_SLAB buffer bytes at a time.

    The block is one bytearray, viewed as a byte matrix with a row per CSV
    row and a column per byte position.  Each column's cell matrix is made,
    copied in transposed and dropped before the next is made; a separator
    follows each.  Row i of a cell matrix holds byte i of each of its cells,
    and _SKIP where a cell has no byte i; each cell's bytes are contiguous.
    UTF-8 never uses the byte _SKIP, so the kept bytes are the others, and
    translate keeps them slab by slab: its output, which it allocates at its
    input's length, is never larger than a slab."""
    widths = [width(lo, hi) for _, width, _ in part]
    buf = bytearray((hi - lo) * (sum(widths) + len(widths)))
    block = np.frombuffer(buf, np.uint8).reshape(hi - lo, -1)
    at = 0
    for (_, _, cells), width in zip(part, widths):
        block[:, at:at + width] = cells(lo, hi).T
        block[:, at + width] = ord(",")
        at += width + 1
    block[:, -1] = ord("\n")
    for i in range(0, len(buf), TRANSLATE_SLAB):
        yield buf[i:i + TRANSLATE_SLAB].translate(None, bytes([_SKIP]))


def write_csv(path, header, parts) -> None:
    """Write a CSV from its rows, given as an iterable of consecutive parts.

    A part holds one column per header name, all of one length; a column is
    a numpy array or a sequence of cells, and an array's cells are its
    tolist() values.  The bytes are those of format_cell applied to every
    cell, in UTF-8.  parts is read one part at a time: each part is checked
    before its rows are written, CSV_BLOCK_ROWS at a time, and the header and
    every earlier row are in the file when a part is read, so only one part
    need exist at once.  A bad part leaves no file, and an earlier file at
    path as it was.
    """
    with replace_on_success(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.flush()
        for columns in parts:
            if len(columns) != len(header):
                raise ValueError(f"{len(header)} CSV header names but {len(columns)} columns")
            part = [_csv_column(column) for column in columns]
            lengths = {n for n, _, _ in part}
            if len(lengths) > 1:
                raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
            n_rows = lengths.pop() if lengths else 0
            for lo in range(0, n_rows, CSV_BLOCK_ROWS):
                fh.writelines(_block_bytes(part, lo, min(lo + CSV_BLOCK_ROWS, n_rows)))
            fh.flush()


def columns_of(rows, width: int) -> list:
    """write_csv's columns for rows of the given width (width empty columns
    when there are no rows)."""
    return list(zip(*rows)) or [()] * width


def write_json(path, payload) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with replace_on_success(path) as fh:
        fh.write((text + "\n").encode())
