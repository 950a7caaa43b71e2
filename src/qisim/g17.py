"""The body of a grid CSV in numpy: fixed-width lines whose three numbers
are each format(v, "+.16e") with the exponent widened to a sign and
three digits, for example +1.6596926708204858e-004.

Every number is WIDTH characters, so every line is LINE bytes and a band
of rows is a (rows, n, LINE) uint8 array: the row and column labels are
broadcast into it from one row per axis point, the densities are
formatted into their fields in place, and the band is written as it is.
The bands are formatted in the calling thread while one writer thread
hashes and writes the band before; numpy's loops, hashlib and file
writes release the GIL, so the two threads overlap.

Any 17 significant digits read back to the same float64, so a parsed
cell is bit for bit the value written.  A grid holds a density divided
by its peak, so the kernel's fast path takes values in (0, 1].  With k
the decade of v, the 17 digits are rint(y), y = v 10^(16 - k), from a
double-double product in float64: 2^s_k v, which is exact, times a
table entry hi_k + lo_k = 10^(16 - k) 2^-s_k in [1, 2) to within
2^-106, by Veltkamp's split and Dekker's two-product (Numer. Math. 18,
224 (1971)).  The product's high part is an integer, and y minus it is
known to within HALF_MARGIN for y below 2^57.  Zero, negatives, values
above 1, inf and nan, a value whose decade log10 misjudges, and every
cell within HALF_MARGIN of a rounding tie, go through spelled(), which
calls format() itself.  The tables are exact integer arithmetic, so
there is one code path on every platform.  The module builds its tables
when imported, so it is imported only where a grid is written.
"""
from __future__ import annotations

import queue
import threading

import numpy as np

# grid cells per band, the unit formatted while the band before it is
# written: 5 rows of a 1536-wide grid, 16 of a 512-wide one.  A band
# of 16384 cells made the storage map's allocations churn (5 times the
# minor page faults) and one of 4096 paid per-band overhead
_BAND_CELLS = 8192
# the characters of a number, and the bytes of a line
WIDTH = 24
LINE = 3 * WIDTH + 3
# where a line's density starts
_VALUE = 2 * WIDTH + 2
# decades floor(log10 v) of float64s in (0, 1]
_K_LO, _K_HI = -324, 0


def spelled(values) -> np.ndarray:
    """format(v, "+.16e") for each float in `values`, its exponent
    widened to a sign and three digits, and inf and nan padded with
    spaces, as the rows of a (len(values), WIDTH) uint8 array."""
    text = np.array([format(v, "+.16e")
                     for v in np.asarray(values, dtype=float).tolist()],
                    f"S{WIDTH}")
    rows = text.view(np.uint8).reshape(len(text), WIDTH)
    # "e+dd", then a NUL
    two = (rows[:, -5] == ord("e")) & (rows[:, -1] == 0)
    rows[two, -2:] = rows[two, -3:-1]
    rows[two, -3] = ord("0")
    rows[rows == 0] = ord(" ")
    return rows


def _split(x):
    """Veltkamp's split x = high + low, each part of at most 26
    significant bits, so that a product of two parts is exact."""
    c = x * 134217729.0     # 2^27 + 1
    high = c - (c - x)
    return high, x - high


def _scales():
    """For each decade k: s_k, and hi_k (as its two split parts) and lo_k
    with hi_k + lo_k = 10^(16 - k) 2^-s_k in [1, 2) to within 2^-106,
    each a correctly rounded int/int quotient."""
    shifts, entries = [], []
    for k in range(_K_LO, _K_HI + 1):
        ten = 10 ** (16 - k)
        s = ten.bit_length() - 1
        den = 1 << s
        hi = ten / den
        a, b = hi.as_integer_ratio()
        shifts.append(s)
        entries.append((hi, (ten * b - a * den) / (den * b)))
    hi, lo = np.array(entries).T
    return np.array(shifts, np.int32), np.array([*_split(hi), lo])


# [value]: "0000" .. "9999", as one 4-byte item
_QUAD = np.array([f"{i:04d}" for i in range(10000)], "S4").view("V4")
# [k - _K_LO]: the exponent "-324" .. "+000"
_EXPONENT = np.array([f"{k:+04d}" for k in range(_K_LO, _K_HI + 1)],
                     "S4").view("V4")
# [k - _K_LO]: s_k; [:, k - _K_LO]: the split parts of hi_k, and lo_k
_SHIFT, _SCALE = _scales()
# the error of y - rint(y) for y < 2^57, so a cell this close to a tie
# may round either way: x lo rounds by 2^-50, its sum with Dekker's
# exact error by 2^-49, and the table's relative 2^-106 is 2^-49 of y
HALF_MARGIN = 2.0 ** -47


def _digits(a, k):
    """(digits, frac): rint(y) as int64, and y - digits to within
    HALF_MARGIN, for y = a 10^(16 - k) from 2^53 to 2^57."""
    i = k - _K_LO
    x = np.ldexp(a, _SHIFT[i])
    hi_high, hi_low, lo = _SCALE.take(i, axis=1)
    p = x * (hi_high + hi_low)
    x_high, x_low = _split(x)
    # Dekker: p + tail = x hi exactly, then the x lo term; p >= 2^53 is
    # an integer
    tail = x_high * hi_high - p
    tail += x_high * hi_low
    tail += x_low * hi_high
    tail += x_low * hi_low
    tail += x * lo
    whole = np.rint(tail)
    tail -= whole
    return p.astype(np.int64) + whole.astype(np.int64), tail


def _step(digits, frac):
    """Nonzero where k is not the decade of rint(y): -1 where y = digits
    + frac is below 1e16, which rint(y) alone may hide, 1 where rint(y)
    reaches 1e17, else 0.  A frac too small to sign leaves y so close to
    1e16 that 10 y rounds to 1e17: both decades print 1e(k)."""
    return ((digits >= 10 ** 17).astype(np.intp)
            - ((digits < 10 ** 16) | ((digits == 10 ** 16) & (frac < 0))))


def numbers(values, field: np.ndarray) -> None:
    """Write spelled(values) into `field`, a (len(values), WIDTH) uint8
    array whose rows may be strided."""
    v = np.asarray(values, dtype=float).ravel()
    # nan fails both comparisons
    special = ~((v > 0.0) & (v <= 1.0))
    a = np.where(special, 1.0, v)
    k = np.floor(np.log10(a)).astype(np.intp)
    digits, frac = _digits(a, k)
    # log10 may be one decade off next to a power of ten, and 17 nines
    # may round up into the next; such a cell goes through spelled()
    step = _step(digits, frac)
    near_tie = ~(np.abs(frac) < 0.5 - HALF_MARGIN)
    fallback = special | near_tie | (step != 0)
    lead, rest = np.divmod(np.where(fallback, 10 ** 16, digits), 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    # "+d." 16 digits, "e" and the exponent
    field[:, 0], field[:, 2], field[:, 19] = b"+.e"
    field[:, 1] = lead + ord("0")
    for i, group in enumerate([*np.divmod(high, 10 ** 4),
                               *np.divmod(low, 10 ** 4)]):
        field[:, 3 + 4 * i:7 + 4 * i].view("V4")[:, 0] = _QUAD[group]
    field[:, 20:].view("V4")[:, 0] = _EXPONENT[k - _K_LO]

    slow = np.flatnonzero(fallback)
    if slow.size:
        field[slow] = spelled(v[slow])


def _columns(axis):
    """(labels, columns): each axis point spelled with its comma, as the
    start of a line, and as a line's column part, which also holds its
    newline."""
    labels = np.full((len(axis), WIDTH + 1), ord(","), np.uint8)
    labels[:, :WIDTH] = spelled(axis)
    columns = np.zeros((len(labels), LINE), np.uint8)
    columns[:, WIDTH + 1:_VALUE] = labels
    columns[:, -1] = ord("\n")
    return labels, columns


def _band(labels, columns, values):
    """The lines of the grid rows with the row labels `labels` and the
    densities `values`, as a (rows, n, LINE) uint8 array."""
    band = np.empty((len(labels), *columns.shape), np.uint8)
    band[:] = columns
    band[:, :, :WIDTH + 1].view(f"V{WIDTH + 1}")[..., 0] = labels.view(
        f"V{WIDTH + 1}")
    numbers(values, band.reshape(-1, LINE)[:, _VALUE:_VALUE + WIDTH])
    return band


def write_grid(write_bytes, axis, values) -> None:
    """Hand write_bytes the lines "axis[i],axis[j],values[i, j]\\n" of
    the square grid `values` on `axis` x `axis`, row-major, one band at
    a time, so memory does not grow with the number of lines.  At most
    one band is in flight: a band is handed to the writer thread only
    once it has written the one before.  A failed write raises here
    once the writer thread has stopped."""
    labels, columns = _columns(axis)
    size = max(1, _BAND_CELLS // len(columns))   # rows in a band
    bands, failed = queue.Queue(1), []

    def write():
        while (band := bands.get()) is not None:
            try:
                if not failed:
                    write_bytes(band)
            except BaseException as exc:
                failed.append(exc)
            finally:
                del band   # the band is let go before the next arrives
                bands.task_done()

    thread = threading.Thread(target=write)
    thread.start()
    try:
        for lo in range(0, len(labels), size):
            band = _band(labels[lo:lo + size], columns, values[lo:lo + size])
            bands.join()   # the band before is written
            if failed:
                break
            bands.put(band)
    finally:
        bands.put(None)
        thread.join()
    if failed:
        raise failed[0]
