"""CSV cells of numpy columns, byte for byte as Python's '%.17g', '%d' and '%s'.

cells(column) returns (text, keep) with one row per value, whose cell is
text[i][keep[i]].  Floats and integers are converted by array operations.
Threads may call it at once: concurrent first calls may build a cached table twice, equally.
"""

import functools
import math
import sys

import numpy as np


@functools.cache
def _pow10(s: int) -> tuple[float, float, float, int]:
    """(hi's Dekker halves, lo, b): 10^s = (hi + lo) 2^b within 2^-105 hi, 1 <= hi <= 2."""
    b = (10**s).bit_length() - 1 if s >= 0 else -(10**-s).bit_length()
    q = 10**s << 120 >> b if s >= 0 else (1 << 120 - b) // 10**-s  # 10^s 2^(120 - b)
    hi = float(q)
    high = hi * 134217729.0 - (hi * 134217729.0 - hi)  # Dekker's split at 2^27 + 1
    return (*(math.ldexp(v, -120) for v in (high, hi - high, float(q - int(hi)))), b)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of the cell converters, built on first use.

    For w = 0 .. 9999: its four ASCII digits read as one uint32, the count of
    its digits from the first nonzero one, and the count up to the last one.
    Then the masks of a 24-byte cell: row 75 a + 3 b + t keeps the bytes
    a <= j < b and j >= (24, 20, 19)[t].
    """
    axes = [np.arange(10).reshape((10,) + (1,) * (3 - i)) for i in range(4)]  # w's digits
    a, b, c, d = (digit == 0 for digit in axes)
    words = np.stack(np.broadcast_arrays(*(digit + 48 for digit in axes)), axis=-1)
    lead = 4 - a * (1 + b * (1 + c * (1 + d)))  # 4 less the leading zeros
    last = 4 - d * (1 + c * (1 + b * (1 + a)))  # 4 less the trailing zeros
    j, ends = np.arange(24), np.arange(25)
    spans = (j >= ends[:, None, None, None]) & (j < ends[:, None, None])
    spans = (spans | (j >= np.array([24, 20, 19])[:, None])).reshape(-1, 24)
    # int16, a quarter of int64's size: the mask rows computed from them stay below 2^15
    lead, last = (count.astype(np.int16).ravel() for count in (lead, last))
    tables = words.astype(np.uint8).view(np.uint32).ravel(), lead, last, spans
    for table in tables:
        table.flags.writeable = False  # every caller shares them
    return tables


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.17g' % v of each value as (text, keep): cell i is text[i][keep[i]].

    With k = floor(log10|v|), y = |v| 10^(16 - k) is the frexp mantissa times
    (hi + lo) 2^b, Dekker's exact product on hi; its 17 digits are floor(y)
    rounded by the fraction.  '%.17g' itself takes subnormals, inf, NaN, a
    floor(y) outside [10^16, 10^17) (k off by one) and close roundings.
    """
    x = np.asarray(x, dtype=np.float64)
    size = np.abs(x)
    zero = size == 0
    normal = (size >= sys.float_info.min) & (size <= sys.float_info.max)
    size[~normal] = 1.0
    m, e = np.frexp(size)
    k = np.floor(np.log10(size)).astype(np.int64)
    base = int(k.min())
    used = np.flatnonzero(np.bincount(k - base))
    table = np.zeros((4, used[-1] + 1))
    table[:, used] = np.array([_pow10(16 - base - j) for j in used.tolist()]).T
    high, low, lo, b = table.take(k - base, axis=1)
    m_high = m * 134217729.0 - (m * 134217729.0 - m)
    m_low = m - m_high
    p = m * (high + low)
    q = (((m_high * high - p) + m_high * low) + m_low * high) + m_low * low + m * lo
    e += b.astype(e.dtype)
    part = np.ldexp(q, e)
    floor = np.floor(part)
    frac = part - floor
    below = np.ldexp(p, e).astype(np.int64) + floor.astype(np.int64)
    digits = below + (frac > 0.5)
    # ldexp(p, e) + part misses y by under 2^-46: 2^-49 from the table, 2^-50
    # from m lo and 2^-48 from the sum, y being below 2^57.  A fraction that
    # close to 1/2 may be a tie or round either way, so '%.17g' decides it.
    fast = normal & (below >= 10**16) & (digits < 10**17) & (np.abs(frac - 0.5) > 2**-30)
    digits[zero] = 0
    words, _, last, spans = _tables()
    w = [digits // 10**16, digits // 10**12, digits // 10**8, digits // 10**4, digits]
    w[1:] = [a - 10**4 * b for a, b in zip(w[1:], w)]
    digit = words.take(np.stack(w, axis=1)).view(np.uint8)[:, 3:]  # 17 digits
    count = 1  # significant digits: 1 for 0, else up to the last nonzero one
    for i in range(1, 5):
        count = np.where(w[i], 4 * i - 3 + last.take(w[i]), count)
    # %g's layout: d.ddde+XX below 1e-4 and from 1e17 on, else fixed; the
    # exponent form's mantissa sits where a fixed number below 10 would.
    text = np.empty((x.size, 24), np.uint8)
    text[:, 0] = ord("-")
    expo = (k < -4) | (k > 16)
    lay = np.where(expo, 0, k)
    counts = np.bincount(lay + 4)
    common = int(np.argmax(counts)) - 4  # written on every row, the others on theirs
    for g in [common] + [g - 4 for g in np.flatnonzero(counts).tolist() if g - 4 != common]:
        rows = slice(None) if g == common else np.flatnonzero(lay == g)
        o, d = (0, g) if g >= 0 else (1 - g, 16)  # a "0.000" prefix; the point after digit d
        text[rows, 1 : 1 + o] = np.frombuffer(b"0.000", np.uint8)[:o]
        text[rows, 1 + o : 2 + o + d] = digit[rows, : d + 1]
        text[rows, 2 + o + d] = ord(".")
        text[rows, 3 + o + d : 19 + o] = digit[rows, d + 1 :]
    # e+XX or e+XXX in the last bytes, where only a fixed number below 0.1 has digits
    rows = np.flatnonzero(expo) if counts[:4].any() else slice(None)
    power, sign = np.abs(k[rows]), np.where(k[rows] < 0, ord("-"), ord("+"))
    text[rows, 20:] = words.take(power).view(np.uint8).reshape(-1, 4)  # 0 and three digits
    text[rows, 19] = ord("e")
    text[rows, 21] = np.where(power >= 100, text[rows, 21], sign)
    text[rows, 20] = np.where(power >= 100, sign, ord("e"))
    end = np.where(lay < 0, count + 2 - lay, np.where(count > lay + 1, count + 2, lay + 2))
    tail = expo * np.where(np.abs(k) >= 100, 2, 1)  # the exponent from byte 24, 20 or 19
    start = (~np.signbit(x)).astype(np.int64)
    slow = ~(fast | zero)
    if slow.any():
        texts = ["%.17g" % v for v in x[slow].tolist()]
        padded = "".join(t.ljust(24) for t in texts).encode()
        text[slow] = np.frombuffer(padded, np.uint8).reshape(-1, 24)
        start[slow], end[slow], tail[slow] = 0, [len(t) for t in texts], 0
    width = 24 if tail.any() else int(end.max())
    return text[:, :width], spans.take(75 * start + 3 * end + tail, axis=0)[:, :width]


def _int_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%d' % v of each bool or integer as (text, keep), from 4-digit words."""
    negative = x < 0
    size = x.astype(np.uint64)
    np.negative(size, out=size, where=negative)  # |int64 min| = 2^63 too
    words, lead, _, spans = _tables()
    w, count = [], 1  # digits printed: 1 for 0, else from the first nonzero one
    while not w or size.any():
        w.append(size % np.uint64(10000))
        count = np.where(w[-1], 4 * len(w) - 4 + lead.take(w[-1]), count)
        size = size // np.uint64(10000)
    text = np.empty((x.size, 4 * len(w) + 1), np.uint8)
    text[:, 1:] = words.take(np.stack(w[::-1], axis=1)).view(np.uint8)
    text[negative, -1 - count[negative]] = ord("-")
    start = text.shape[1] - count - negative
    return text, spans.take(75 * start + 3 * text.shape[1], axis=0)[:, : text.shape[1]]


def cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column's (text, keep): floats and integers whole, else %s or %.17g cell by cell."""
    if x.dtype.kind in "fbiu":
        return (_float_cells if x.dtype.kind == "f" else _int_cells)(x)
    fmt = "%s" if x.dtype.kind in "OU" else "%.17g"
    texts = [(fmt % (v,)).encode() for v in x.tolist()]
    sizes = np.array([len(t) for t in texts])  # padding is told by length: a cell may hold NUL
    text = np.frombuffer(b"".join(t.ljust(sizes.max()) for t in texts), np.uint8)
    return text.reshape(len(texts), -1), np.arange(sizes.max()) < sizes[:, None]
