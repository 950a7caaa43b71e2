"""The body of a grid CSV in numpy: fixed-width lines whose three numbers
are each format(v, "+.16e") with the exponent widened to a sign and
three digits, for example +1.6596926708204858e-004.

Every number is WIDTH characters, so every line is LINE bytes and a band
of rows is a (rows, n, LINE) uint8 array.  A grid is written through two
such band buffers, into which the column labels, commas and newlines go
once; each band then takes only its row labels and its densities,
formatted into their fields in place a chunk of cells at a time, and is
written as it is.  The bands are formatted in the calling thread while
one writer thread hashes and writes the band before; numpy's loops,
hashlib and file writes release the GIL, so the two threads overlap.
A buffer is formatted again two bands later, so write_bytes must not
keep a band after it returns.

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
in numpy when imported, so it is imported only where a grid is written.
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
# cells the kernel formats at a time: its temporaries are a quarter band
_CHUNK_CELLS = 2048
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
    high = c - x
    np.subtract(c, high, out=high)
    return high, np.subtract(x, high, out=c)


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


def _ascii(n, places):
    """The last `places` decimal digits of each integer in `n` as ASCII,
    the rows of a (len(n), places) uint8 array."""
    text = np.empty((len(n), places), np.uint8)
    for place in range(places):
        text[:, -1 - place] = n // 10 ** place % 10 + ord("0")
    return text


# [value]: "0000" .. "9999", as one 4-byte item
_QUAD = _ascii(np.arange(10000), 4).view("V4")[:, 0]
# [k - _K_LO]: the exponent "-324" .. "+000", a sign and then |k|
_DECADES = np.arange(_K_LO, _K_HI + 1)
_EXPONENT = np.column_stack([
    np.where(_DECADES < 0, ord("-"), ord("+")).astype(np.uint8),
    _ascii(-_DECADES, 3)]).view("V4")[:, 0]
# [k - _K_LO]: s_k; [:, k - _K_LO]: the split parts of hi_k, and lo_k
_SHIFT, _SCALE = _scales()
# the error of y - rint(y) for y < 2^57, so a cell this close to a tie
# may round either way: x lo rounds by 2^-50, its sum with Dekker's
# exact error by 2^-49, and the table's relative 2^-106 is 2^-49 of y
HALF_MARGIN = 2.0 ** -47


def _digits(a, i):
    """(digits, frac): rint(y) as int64, and y - digits to within
    HALF_MARGIN, for y = a 10^(16 - k) from 2^53 to 2^57 and i = k -
    _K_LO.  `a` is overwritten."""
    x = np.ldexp(a, _SHIFT[i], out=a)
    hi_high, hi_low, lo = _SCALE.take(i, axis=1)
    p = hi_high + hi_low
    p *= x
    x_high, x_low = _split(x)
    # Dekker: p + tail = x hi exactly, then the x lo term; p >= 2^53 is
    # an integer
    tail = x_high * hi_high
    tail -= p
    tail += np.multiply(x_high, hi_low, out=x_high)
    tail += np.multiply(x_low, hi_high, out=hi_high)
    tail += np.multiply(x_low, hi_low, out=x_low)
    tail += np.multiply(x, lo, out=x)
    whole = np.rint(tail, out=lo)
    tail -= whole
    digits = p.astype(np.int64)
    digits += whole.astype(np.int64)
    return digits, tail


def _off_decade(digits, frac):
    """Where k is not the decade of rint(y): where y = digits + frac is
    below 1e16, which rint(y) alone may hide, or rint(y) reaches 1e17.
    A frac too small to sign leaves y so close to 1e16 that 10 y rounds
    to 1e17: both decades print 1e(k)."""
    return ((digits < 10 ** 16) | (digits >= 10 ** 17)
            | ((digits == 10 ** 16) & (frac < 0)))


def numbers(values, field: np.ndarray) -> None:
    """Write spelled(values) into `field`, a (len(values), WIDTH) uint8
    array whose rows may be strided."""
    v = np.asarray(values, dtype=float).ravel()
    # nan fails both comparisons
    fallback = ~((v > 0.0) & (v <= 1.0))
    a = np.where(fallback, 1.0, v)
    i = np.floor(np.log10(a)).astype(np.intp) - _K_LO
    digits, frac = _digits(a, i)
    # log10 may be one decade off next to a power of ten, and 17 nines
    # may round up into the next; such a cell goes through spelled()
    fallback |= _off_decade(digits, frac)
    fallback |= ~(np.abs(frac, out=frac) < 0.5 - HALF_MARGIN)
    digits[fallback] = 10 ** 16
    # "+d." 16 digits, "e" and the exponent; the digits four at a time
    # from the right
    field[:, 0], field[:, 2], field[:, 19] = b"+.e"
    high = np.empty_like(digits)
    for at in range(15, 0, -4):
        np.floor_divide(digits, 10 ** 4, out=high)
        digits -= high * 10 ** 4
        field[:, at:at + 4].view("V4")[:, 0] = _QUAD[digits]
        digits, high = high, digits
    field[:, 1] = digits + ord("0")
    field[:, 20:].view("V4")[:, 0] = _EXPONENT[i]

    slow = np.flatnonzero(fallback)
    if slow.size:
        field[slow] = spelled(v[slow])


def _band(buffer, labels, values):
    """Write the row labels `labels` and the densities `values` of a band
    of grid rows into `buffer`, whose column text is in place, and
    return the band's lines, a (rows, n, LINE) view of `buffer`."""
    band = buffer[:len(labels)]
    band[:, :, :WIDTH + 1].view(f"V{WIDTH + 1}")[..., 0] = labels.view(
        f"V{WIDTH + 1}")
    fields = band.reshape(-1, LINE)[:, _VALUE:_VALUE + WIDTH]
    cells = values.ravel()
    for lo in range(0, len(cells), _CHUNK_CELLS):
        numbers(cells[lo:lo + _CHUNK_CELLS], fields[lo:lo + _CHUNK_CELLS])
    return band


def write_grid(write_bytes, axis, values) -> None:
    """Hand write_bytes the lines "axis[i],axis[j],values[i, j]\\n" of
    the square grid `values` on `axis` x `axis`, row-major, one band at
    a time, so memory does not grow with the number of lines.  At most
    one band is in flight: a band is handed to the writer thread only
    once it has written the one before, and the bands take turns in
    two buffers, so write_bytes must not keep a band after it returns.
    A failed write raises here once the writer thread has stopped."""
    # each axis point spelled with its comma, to start a line or follow it
    n = len(axis)
    labels = np.full((n, WIDTH + 1), ord(","), np.uint8)
    labels[:, :WIDTH] = spelled(axis)
    size = min(n, max(1, _BAND_CELLS // n))   # rows in a band
    # two band buffers, their column text written once
    buffers = np.empty((2, size, n, LINE), np.uint8)
    buffers[..., WIDTH + 1:_VALUE] = labels
    buffers[..., -1] = ord("\n")
    bands, failed = queue.Queue(1), []

    def write():
        while (band := bands.get()) is not None:
            try:
                write_bytes(band)
            except BaseException as exc:
                failed.append(exc)
            finally:
                bands.task_done()

    thread = threading.Thread(target=write)
    thread.start()
    try:
        for b, lo in enumerate(range(0, n, size)):
            band = _band(buffers[b % 2], labels[lo:lo + size],
                         values[lo:lo + size])
            bands.join()   # the band before is written
            if failed:
                break
            bands.put(band)
    finally:
        bands.put(None)
        thread.join()
    if failed:
        raise failed[0]
