"""The format of every file the program writes: ASCII, each line ending in
LF, the last one included. A CSV is a header line, then one row per
position of its columns, the cells joined by commas.

The tic files' float cells are each the repr of the double, as in every
other file, but they are rendered many at a time. repr writes the shortest
digits that read back as the same double, in fixed notation when
1e-4 <= |x| < 1e16. For those doubles the digits come from an array form of
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020): its
three round-to-odd products are exact here, because the power of ten they
scale by, 10**K with 0 <= K <= 20, is an integer that fits a 64-bit word.
Every other cell (zero, NaN, the infinities, the rest) is its own repr.

read_decimal_table reads the plain decimal tables that counters log, cells
of up to 8 bytes such as -0.059, the same way: each cell's bytes are one
64-bit word, decoded by word arithmetic (SWAR), and its value m / 10**k,
m < 10**8 and k <= 7, is one correctly rounded division of exact doubles
(Clinger's fast path: W. D. Clinger, "How to read floating point numbers
accurately", PLDI 1990), so it equals the double float() and np.loadtxt read.
"""
from __future__ import annotations

import math
import os
from contextlib import ExitStack
from functools import cache
from itertools import chain
from typing import Iterable

import numpy as np

CHUNK_ROWS = 4096  # rows write_series_csvs renders at a time

# every integer constant of the kernel is a uint64 scalar, so that no operation
# promotes to int64 or float64 under either numpy casting rule
_U = np.uint64
_1, _2, _10, _32, _64, _100 = _U(1), _U(2), _U(10), _U(32), _U(64), _U(100)
_LOW32 = _U(2**32 - 1)
_MANTISSA = _U(2**52 - 1)
_HIDDEN_BIT = _U(2**52)

# repr writes fixed notation for 1e-4 <= |x| < 1e16, the doubles of biased
# exponent _EXP_LO through _EXP_HI
_FIXED_MIN, _FIXED_END = 1e-4, 1e16
_EXP_LO = math.frexp(_FIXED_MIN)[1] + 1022
_EXP_HI = math.frexp(math.nextafter(_FIXED_END, 0.0))[1] + 1022

# The tables below are built on first use: a process that writes no tic file
# never runs the numpy code that builds them, whose pages would count in its
# resident memory.


@cache
def _scales() -> np.ndarray:
    """Per row 2 * (biased exponent - _EXP_LO) + irregular: K, the shift
    2 - q - K and 5**K, for the x = c * 2**q of that exponent. 10**-K is the
    largest power of ten at or below a * 2**(q - 2), the width of the interval
    of reals that round to x: a = 4, or 3 when c = 2**52 (irregular spacing).
    The three are the rows of one read-only uint64 array."""
    rows = np.zeros((_EXP_HI + 1 - _EXP_LO, 2, 3), dtype=_U)
    for irregular, a in enumerate((4, 3)):
        k = 0  # q <= 1, so every width is below 10 and K >= 0
        for exponent in range(_EXP_HI, _EXP_LO - 1, -1):  # widths shrink, so K only grows
            q = exponent - 1075
            while a * 10**k < 2 ** (2 - q):
                k += 1
            rows[exponent - _EXP_LO, irregular] = k, 2 - q - k, 5**k
    table = rows.reshape(-1, 3).T.copy()
    table.flags.writeable = False
    return table


_POW10 = np.array([10**i for i in range(20)], dtype=_U)
# "00", "01", ..., "99" as little-endian uint16: two ASCII digits per entry
_PAIRS = np.array([f"{i:02d}" for i in range(100)], dtype="S2").view("<u2")

# A float cell is _FLOAT_WIDTH bytes: sign, 20 integer slots, ".", 20 fraction
# slots. Its integer N = |x| * 10**l, l being its fraction digits, is rendered
# zero-padded into the fraction slots, the last 18 digits from pairs; the
# integer slots hold the same digit string one place to the left. So every
# integer digit of every N lies in the integer slots and every fraction digit
# in the fraction slots, each cell's in one run of them.
_SIGN, _INT, _DOT, _FRAC, _FLOAT_WIDTH = 0, 1, 21, 22, 42
_FLOAT_TEMPLATE = np.frombuffer(b"-" + b"0" * 20 + b".00", dtype=np.uint8)
_REPR_WIDTH = 24  # the longest repr of a double, "-2.2250738585072014e-308"


@cache
def _float_masks() -> np.ndarray:
    """The bytes a fixed-notation cell prints, but for its sign, in row
    17 * l + i for l fraction digits (1..20) and i integer digits (1..16)."""
    frac, whole, slot = np.arange(21)[:, None, None], np.arange(17)[:, None], np.arange(20)
    masks = np.zeros((21, 17, _FLOAT_WIDTH), dtype=bool)
    masks[..., _INT:_DOT] = (slot >= 21 - frac - whole) & (slot < 21 - frac)
    masks[..., _DOT] = True
    masks[..., _FRAC:] = slot >= 20 - frac
    masks.flags.writeable = False
    return masks.reshape(-1, _FLOAT_WIDTH)


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with f * 10**e the shortest decimal that reads back as x, the
    one nearest x among those, f without trailing zeros; every x must be a
    double with 1e-4 <= x < 1e16. f is uint64, e int64."""
    bits = x.view(_U)
    mantissa = bits & _MANTISSA
    irregular = mantissa == 0
    row = (((bits >> _U(52)) - _U(_EXP_LO)) * _2 + irregular).astype(np.intp)
    K, shift, pow5 = (column.take(row) for column in _scales())
    c = mantissa | _HIDDEN_BIT
    # 16c * 5**K < 2**104 as words (hb, lb), from 32-bit limbs
    a1, a0 = c >> _U(28), (c << _U(4)) & _LOW32
    b1, b0 = pow5 >> _32, pow5 & _LOW32
    low = a0 * b0
    mid = a0 * b1 + a1 * b0 + (low >> _32)
    hb, lb = a1 * b1 + (mid >> _32), (mid << _32) | (low & _LOW32)
    # the interval's ends: (16c + 8) * 5**K, and (16c - 8) * 5**K, or
    # (16c - 4) * 5**K when irregular
    lr = lb + (pow5 << _U(3))
    hr = hb + (lr < lb)
    ll = lb - (pow5 << _U(3) - irregular)
    hl = hb - (ll > lb)
    # shifted right by 2 - q - K >= 1, the three are 4 * 10**K times x and
    # its interval's ends; vb, vbl and vbr are those rounded to odd (bit 0 set
    # if a dropped bit is), which keeps every comparison below exact
    up, dropped = _64 - shift, (_1 << shift) - _1
    vb, vbl, vbr = (
        (high << up) | (low >> shift) | (low & dropped != 0)
        for high, low in ((hb, lb), (hl, ll), (hr, lr))
    )
    # Schubfach's choice (figure 7 of the paper): one digit fewer if exactly one
    # of its neighbours is in the interval, else s or s + 1 if exactly one of
    # those is, else the nearer of the two, ties to even
    out = c & _1  # an odd c's interval is open
    s = vb >> _2
    sp = s // _10
    upin = vbl + out <= sp * _U(40)
    wpin = sp * _U(40) + _U(40) + out <= vbr
    uin = vbl + out <= s << _2
    win = ((s + _1) << _2) + out <= vbr
    middle = (s << _2) + _2
    f = s + ((vb > middle) | ((vb == middle) & (s & _1 == _1)))
    f = np.where(uin != win, s + win, f)
    shorter = upin != wpin
    f = np.where(shorter, sp + wpin, f)
    e = shorter.astype(np.int64) - K.astype(np.int64)
    # // by a scalar is far faster than % in numpy, so tens are found by it
    zeros = np.flatnonzero(f // _10 * _10 == f)
    while zeros.size:
        f[zeros] //= _10
        e[zeros] += 1
        zeros = zeros[f[zeros] // _10 * _10 == f[zeros]]
    return f, e


def _render_pairs(pairs: np.ndarray, v: np.ndarray) -> None:
    """Write the uint64 values v, zero-padded, into the uint16 columns of pairs,
    two digits per column, the last digits in the last column."""
    for j in range(pairs.shape[1] - 1, -1, -1):
        q = v // _100
        pairs[:, j] = _PAIRS.take((v - q * _100).astype(np.intp))
        v = q


def _even(k: int) -> int:
    return k + k % 2


def _digit_count(v: np.ndarray) -> np.ndarray:
    """Decimal digits of each uint64 value below 10**19, 1 for 0."""
    return np.maximum(np.searchsorted(_POW10, v, side="right"), 1)


class _RowBlock:
    """A preallocated byte matrix of up to CHUNK_ROWS rows and the mask of
    the bytes each row prints. Fields start at even columns, so that digits
    are written two at a time through a uint16 view."""

    def __init__(self, width: int):
        self.rows = np.zeros((CHUNK_ROWS, _even(width)), dtype=np.uint8)
        self.mask = np.zeros(self.rows.shape, dtype=bool)
        self.pairs = self.rows.view("<u2")

    def constant(self, col: int, text: bytes) -> None:
        """Print text at col in every row."""
        self.rows[:, col : col + len(text)] = np.frombuffer(text, dtype=np.uint8)
        self.mask[:, col : col + len(text)] = True

    def integers(self, col: int, width: int, v: np.ndarray) -> None:
        """Print the uint64 values v right-aligned in the width columns at col."""
        m = len(v)
        _render_pairs(self.pairs[:m, col // 2 : (col + width) // 2], v)
        lead = width - _digit_count(v)
        np.greater_equal(np.arange(width), lead[:, None], out=self.mask[:m, col : col + width])

    def floats(self, col: int, x: np.ndarray) -> None:
        """Print the repr of each double of x in the _FLOAT_WIDTH columns at col."""
        m = len(x)
        rows, mask = self.rows[:m, col : col + _FLOAT_WIDTH], self.mask[:m, col : col + _FLOAT_WIDTH]
        magnitude = np.abs(x)
        fixed = (magnitude >= _FIXED_MIN) & (magnitude < _FIXED_END)
        f, e = _shortest_digits(np.where(fixed, magnitude, 1.0))
        # N = f * 10**(e + 1) for a whole number, whose one fraction digit is 0
        whole = e >= 0
        frac = np.where(whole, 1, -e)
        n = np.where(whole, f * _POW10[np.where(whole, e + 1, 0)], f)
        rows[:, : _FRAC + 2] = _FLOAT_TEMPLATE
        _render_pairs(self.pairs[:m, (col + _FRAC + 2) // 2 : (col + _FLOAT_WIDTH) // 2], n)
        rows[:, _INT + 1 : _DOT] = rows[:, _FRAC : _FLOAT_WIDTH - 1]
        key = frac * 17 + np.maximum(_digit_count(n) - frac, 1)
        mask[:] = _float_masks().take(key, axis=0)
        mask[:, _SIGN] = np.signbit(x)
        other = np.flatnonzero(~fixed)
        if other.size:
            cells = np.array([repr(v) for v in x[other].tolist()], dtype=f"S{_REPR_WIDTH}")
            rows[other, :_REPR_WIDTH] = cells.view(np.uint8).reshape(-1, _REPR_WIDTH)
            mask[other] = np.arange(_FLOAT_WIDTH) < np.char.str_len(cells)[:, None]

    def write(self, fh, m: int) -> None:
        """Write the printed bytes of the first m rows to a binary file."""
        fh.write(self.rows[:m][self.mask[:m]])


def csv_text(header: str, *columns: Iterable[str]) -> str:
    """The header, then one row per position of the columns of rendered cells."""
    # the trailing empty line makes the join end the last row with LF
    return "\n".join(chain((header,), map(",".join, zip(*columns)), ("",)))


def write_series_csvs(paths, tau0: float, columns) -> None:
    """Write to each path the step_index,time_s,error_ns CSV of its column of
    float64 samples, time_s being step_index * tau0, with csv_text's bytes and
    every cell its repr. Rows are rendered a chunk at a time into one byte
    matrix: the step_index and time_s cells once, the error_ns cells per file."""
    tau0 = float(tau0)
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns differ in length: " + " and ".join(str(len(c)) for c in columns))
    last = max(n - 1, 0)
    # whole products below 2**53 are exact, and repr writes them as integer + ".0"
    whole = tau0 > 0 and tau0.is_integer() and max(last, 1) * int(tau0) < 2**53
    # columns: step_index, ",", pad, time_s, ",", pad, error_ns, LF
    index_width = _even(len(str(last)))
    time_col = index_width + 2
    if whole:
        time_width = _even(len(str(last * int(tau0))))
        time_end = time_col + time_width + 2
    else:
        time_end = time_col + _FLOAT_WIDTH
    value_col = time_end + 2
    block = _RowBlock(value_col + _FLOAT_WIDTH + 1)
    block.constant(index_width, b",")
    if whole:
        block.constant(time_end - 2, b".0")
    block.constant(time_end, b",")
    block.constant(value_col + _FLOAT_WIDTH, b"\n")
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p in paths]
        for fh in files:
            fh.write(b"step_index,time_s,error_ns\n")
        for start in range(0, n, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n)
            index = np.arange(start, stop, dtype=_U)
            block.integers(0, index_width, index)
            if whole:
                block.integers(time_col, time_width, index * _U(int(tau0)))
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as i * tau0 gives
                    times = np.arange(start, stop) * tau0
                block.floats(time_col, times)
            for fh, column in zip(files, columns):
                block.floats(value_col, column[start:stop])
                block.write(fh, stop - start)


def write_text(path, text: str) -> None:
    """Write text to path as ASCII with LF line endings."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


READ_BLOCK = 1 << 17  # bytes of lines read_decimal_table parses at a time

_PAD = 8  # bytes before a block: the word that ends at its first cell starts in the buffer
_LF, _COMMA, _DASH, _POINT = b"\n,-."
_ALL = _U(2**64 - 1)


def _each_byte(value: int) -> np.uint64:
    return _U(value * 0x0101010101010101)


_ONES, _HIGHS, _ZEROS, _DOTS = _each_byte(1), _each_byte(0x80), _each_byte(ord("0")), _each_byte(_POINT)
_ABOVE_NINE = _each_byte(0x80 - ord(":"))  # sets bit 7 of a byte above "9"
_FRACTION_DIGITS = _U(0x0706050403020100)  # byte j is j; times 256**d, its top byte is 7 - d
# 10**k, then -10**k, for k fraction digits, at k + 8 * negative
_DIVISORS = np.array([10.0**k for k in range(8)] + [-(10.0**k) for k in range(8)])


def _decimal_cells(words: np.ndarray, shift: np.ndarray) -> np.ndarray | None:
    """The doubles of cells -?digits[.digits] with a digit, 1 to 8 bytes, or
    None if any cell is not one. words are the 8 bytes that end at each cell
    as a little-endian uint64, its last byte the top one, and shift is
    8 * (8 - length) as uint64; both are overwritten."""
    if shift.max() > 56:  # a cell of 0 or more than 8 bytes
        return None
    first = words >> shift
    first &= _U(0xFF)
    sign = np.left_shift(first == _U(_DASH), _U(3))  # 8 for a leading "-", else 0
    shift += sign
    words &= np.left_shift(_ALL, shift, out=shift)  # the cell but its sign; 0 below it
    # the lowest zero byte of words ^ _DOTS, the first ".", is the lowest byte
    # whose bit 7 the borrow trick sets; z keeps that bit alone, then is 256**d
    # for a dot at byte d, or 0
    x = words ^ _DOTS
    z = x - _ONES
    z &= np.invert(x, out=x)
    z &= _HIGHS
    z &= np.negative(z, out=x)
    z >>= _U(7)
    # close the dot: the bytes below it move up one, byte 0 taking a 0
    low = np.maximum(z, _1, out=x)
    low -= _1
    low &= words
    low *= _U(255)
    words += low
    words -= np.multiply(z, _U(_POINT), out=low)
    if not words.all():  # "-", "." or "-." hold no digit
        return None
    # the bytes below the cell become "0", and the cell's own bytes, all at
    # or above "-" (the delimiters are the only ones below), keep their class
    words |= _ZEROS
    above = np.add(words, _ABOVE_NINE, out=low)
    words -= _ZEROS  # the lowest byte below "0" borrows, setting its bit 7
    above |= words
    above &= _HIGHS
    if above.any():
        return None
    # eight digits, the first in byte 0, to one integer: pairs, fours, eight
    words *= _U(10 * 2**8 + 1)
    words >>= _U(8)
    words &= _U(0x00FF00FF00FF00FF)
    words *= _U(100 * 2**16 + 1)
    words >>= _U(16)
    words &= _U(0x0000FFFF0000FFFF)
    words *= _U(10000 * 2**32 + 1)
    words >>= _U(32)
    z *= _FRACTION_DIGITS
    z >>= _U(56)
    z |= sign
    return words.astype(np.float64) / _DIVISORS.take(z.view(np.int64))


def _decimal_rows(buf, words, lo: int, hi: int, fields: int, columns) -> np.ndarray | None:
    """The columns of the lines buf[lo:hi], each of the given fields and ending
    in LF, as a float64 table; None unless they are ASCII, the only bytes below
    "-" are the delimiters, and every cell of the columns is one
    _decimal_cells reads. words[i] is the uint64 of the 8 bytes at buf[i]."""
    lines = buf[lo:hi]
    ends = np.flatnonzero(lines < _DASH)  # each delimiter ends a cell
    if ends.size % fields or lines.max() >= 0x80:
        return None
    ends += lo
    cells = ends.reshape(-1, fields)
    delimiters = buf[cells]
    if not ((delimiters[:, :-1] == _COMMA).all() and (delimiters[:, -1] == _LF).all()):
        return None
    table = np.empty((len(cells), len(columns)))
    for j, column in enumerate(columns):
        end = cells[:, column]
        before = cells[:, column - 1] if column else np.concatenate(([lo - 1], cells[:-1, -1]))
        shift = before - end  # -1 - length
        shift += 9
        shift <<= 3
        values = _decimal_cells(words[end - 8], shift.view(_U))
        if values is None:
            return None
        table[:, j] = values
    return table


def read_decimal_table(path, skip_lines: int, columns) -> np.ndarray | None:
    """The float64 table that np.loadtxt(path, delimiter=",", usecols=columns,
    ndmin=2, skiprows=skip_lines) reads, bit for bit, when every line after the
    first skip_lines holds as many fields as the first such line, is ASCII and
    ends in LF, holds no byte below "-" but "," and LF, and holds in each of
    columns a cell _decimal_cells reads; else None, as for a line longer than
    READ_BLOCK. It reads READ_BLOCK bytes at a time, cut after the last LF, and
    returns None after the first row when that row fails, so a table of other
    cells costs about one line."""
    raw = bytearray(_PAD + READ_BLOCK)
    buf = np.frombuffer(raw, dtype=np.uint8)
    words = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    view = memoryview(raw)
    table = np.empty((0, len(columns)))
    rows = fields = read = 0
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        carry = 0  # the unfinished last line of a block, moved to the next one's start
        while got := fh.readinto(view[_PAD + carry :]):
            end = _PAD + carry + got
            read += got
            lo = _PAD
            spans = []
            if not fields:
                for _ in range(skip_lines):
                    lo = raw.find(b"\n", lo, end) + 1
                    if not lo:
                        return None
                first = raw.find(b"\n", lo, end) + 1
                # a CR would end a line for the reader of the header, not for this one
                if not first or raw.find(b"\r", _PAD, lo) >= 0:
                    return None
                fields = raw.count(b",", lo, first) + 1
                if max(columns) >= fields:
                    return None
                start = read - (end - lo)  # the file offset of the first data line
                spans.append((lo, first))  # alone, so that a file of other cells stops here
                lo = first
            # no LF: the line goes on, unless it fills the block, which then reads nothing
            hi = max(raw.rfind(b"\n", lo, end) + 1, lo)
            spans.append((lo, hi))
            for a, b in spans:
                if a == b:
                    continue
                part = _decimal_rows(buf, words, a, b, fields, columns)
                if part is None:
                    return None
                need = rows + len(part)
                if need > len(table):
                    # room for the rest of the file at the density read so far: no
                    # copy unless later rows are shorter, and pages never written
                    # are not resident
                    guess = need * (size - start) // (read - (end - b) - start) + 1
                    grown = np.empty((max(guess, need * 5 // 4), len(columns)))
                    grown[:rows] = table[:rows]
                    table = grown
                table[rows:need] = part
                rows = need
            carry = end - hi
            raw[_PAD : _PAD + carry] = raw[hi:end]
    if carry or not fields:  # a last line without LF, or no data line
        return None
    return table[:rows]
