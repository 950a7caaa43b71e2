"""The body of a grid CSV, and format(v, ".17g") for float64 arrays,
byte for byte, in numpy.

A grid's long-format lines are formatted one band of about _BAND_CELLS
cells at a time in the calling thread, as NUL-padded words, while one
writer thread drops the NULs of the band before it with a boolean mask
and writes the bytes.  The mask, numpy's loops, hashlib and file writes
release the GIL, so the two threads overlap.

A grid holds a density divided by its peak, so the kernel's fast path
takes values in (0, 1].  With k the decade of v, the 17 digits are
rint(y), y = v 10^(16 - k), from a double-double product in float64:
2^s_k v, which is exact, times a table entry hi_k + lo_k = 10^(16 - k)
2^-s_k in [1, 2) to within 2^-106, by Veltkamp's split and Dekker's
two-product (Numer. Math. 18, 224 (1971)).  The product's high part is
an integer, and y minus it is known to within HALF_MARGIN for y below
2^57.  Zero, negatives, values above 1, inf and nan, a value whose
decade log10 misjudges, and every cell within HALF_MARGIN of a rounding
tie, go through format() itself.  The tables are exact integer
arithmetic, so there is one code path on every platform.

A cell's slot is SLOT bytes: a head word "0.000d." (the "0." and zeros
of a fixed-notation value below 1, the lead digit, the point), four
words of 4 digits, and a tail word "e-324\\n" or "\\n".  Absent
characters are NUL bytes, which the compaction drops.  The module builds
its tables when imported, so it is imported only where a grid is
written.
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
# the characters of a slot, ahead of its tail word; a slot
BODY, SLOT = 24, 32
# decades floor(log10 v) of float64s in (0, 1]
_K_LO, _K_HI = -324, 0


def byte_rows(strings, width: int = 0) -> np.ndarray:
    """ASCII strings as the NUL-padded rows of a uint8 matrix at least
    `width` wide."""
    rows = np.array([s.encode("ascii") for s in strings], dtype=bytes)
    out = np.zeros((len(rows), max(width, rows.itemsize)), np.uint8)
    out[:, :rows.itemsize] = rows.view(np.uint8).reshape(len(rows),
                                                          rows.itemsize)
    return out


def _words(data, dtype) -> np.ndarray:
    """Each row along the last axis of a byte array as one native word."""
    return np.ascontiguousarray(data, dtype=np.uint8).view(dtype)[..., 0]


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


def _tables():
    """The kernel's layout tables; what builds them is freed on return."""
    k = range(_K_LO, _K_HI + 1)
    digit = (np.arange(10000, dtype=np.int16)[:, None]
             // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    # position 1-4 of a 4-digit group's last nonzero digit; 0 for 0000
    last = np.max(np.where(digit != 0, np.arange(1, 5, dtype=np.uint8), 0),
                  axis=1)
    # index of each group's first digit among the 17
    first = 1 + 4 * np.arange(4, dtype=np.uint8)
    kept = np.clip(np.arange(18)[:, None, None] - first[:, None], 0, 4)
    head = np.zeros((5, 10, 2, 8), np.uint8)
    head[..., :5] = byte_rows(["", "0.", "0.0", "0.00", "0.000"])[
        :, None, None]
    head[..., 5] = ord("0") + np.arange(10)[:, None]
    head[..., 1, 6] = ord(".")
    return (
        # [value]: "0000" .. "9999"
        _words(ord("0") + digit, np.uint32),
        # [g][value]: significant digits of a 17-digit integer whose
        # last nonzero digit is in its group g, which holds value
        np.where(last > 0, first[:, None] + last, 1).astype(np.uint8),
        # [g][n]: the mask of group g that keeps the first n of 17 digits
        _words(0xFF * (np.arange(4) < kept), np.uint32).T.copy(),
        # [(zeros * 10 + lead) * 2 + point]: "0.000d."
        _words(head.reshape(-1, 8), np.uint64),
        # [k - _K_LO]: an exponent and newline; [-1]: a newline
        _words(byte_rows([f"e{e:+03d}\n" for e in k] + ["\n"], 8),
               np.uint64))


_QUAD, _SIGNIFICANT, _KEEP, _HEAD, _TAIL = _tables()
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


def slots(values, out: np.ndarray) -> np.ndarray:
    """Write format(v, ".17g") and a newline for each float64 in
    `values` into `out`, one row of SLOT uint8 each, 8-byte aligned,
    with NUL bytes among the characters; return out."""
    v = np.asarray(values, dtype=float).ravel()
    # nan fails both comparisons
    special = ~((v > 0.0) & (v <= 1.0))
    a = np.where(special, 1.0, v)
    k = np.floor(np.log10(a)).astype(np.intp)
    digits, frac = _digits(a, k)
    # log10 may be one decade off next to a power of ten, and 17 nines
    # may round up into the next; such a cell goes through format()
    step = _step(digits, frac)
    near_tie = ~(np.abs(frac) < 0.5 - HALF_MARGIN)
    fallback = special | near_tie | (step != 0)
    lead, rest = np.divmod(np.where(fallback, 10 ** 16, digits), 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = [*np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4)]
    significant = np.maximum.reduce(
        [sig[g] for sig, g in zip(_SIGNIFICANT, groups)])

    # %g: fixed notation for decades -4 .. 0, the digits of a value below
    # 1 after "0." and 0 to 3 zeros; trailing zeros stripped
    fixed = k >= -4
    small = fixed & (k < 0)
    point = (significant > 1) & ~small
    out64, out32 = out.view(np.uint64), out.view(np.uint32)
    out64[:, 0] = _HEAD[(np.where(small, -k, 0) * 10 + lead) * 2 + point]
    for i, (g, keep) in enumerate(zip(groups, _KEEP)):
        out32[:, 2 + i] = _QUAD[g] & keep[significant]
    out64[:, 3] = _TAIL[np.where(fixed | fallback, -1, k - _K_LO)]

    slow = np.flatnonzero(fallback)
    if slow.size:
        text = np.array([format(x, ".17g") for x in v[slow].tolist()],
                        dtype=f"S{BODY}")
        out[slow, :BODY] = text.view(np.uint8).reshape(slow.size, BODY)
    return out


def _label_words(labels):
    """Row and column parts of the grid's lines as uint64 words: the
    row label, and ",label," just after the widest row label, both
    NUL-padded to one width, a multiple of 8 bytes."""
    rows = byte_rows(labels)
    cols = byte_rows(["," + label + "," for label in labels])
    width_l, width_c = rows.shape[1], cols.shape[1]
    words = -(-(width_l + width_c) // 8)
    row_words = np.zeros((len(labels), 8 * words), np.uint8)
    col_words = np.zeros_like(row_words)
    row_words[:, :width_l] = rows
    col_words[:, width_l:width_l + width_c] = cols
    return row_words.view(np.uint64), col_words.view(np.uint64)


def _grid_band(rows, cols, values):
    """The long-format lines of the grid rows with the row words `rows`
    and the values `values`, as their cells' uint64 words: each line's
    characters with NUL bytes among them, for _compact.  cols are the
    column words of _label_words."""
    words = rows.shape[1]
    cell = np.empty((len(rows) * len(cols), words + SLOT // 8), np.uint64)
    np.bitwise_or(rows[:, None], cols,
                  out=cell.reshape(len(rows), len(cols), -1)[:, :, :words])
    slots(values, cell[:, words:].view(np.uint8))
    return cell


def _compact(cell):
    """A band's UTF-8 bytes: its words without the NUL pads.  A boolean
    mask releases the GIL, where bytes.translate holds it, and np.compress
    would build an index array 8 times the kept bytes."""
    data = cell.reshape(-1).view("u1")
    return data[data != 0]


def write_grid(write_bytes, axis, values) -> None:
    """Hand write_bytes the lines "axis[i],axis[j],values[i, j]\\n" of
    the square grid `values` on `axis` x `axis`, row-major, one band at
    a time, so memory does not grow with the number of lines.  At most
    one band is in flight: a band is handed to the writer thread only
    once it has written the one before.  A failed write or compaction
    raises here once the writer thread has stopped."""
    labels, cols = _label_words([format(float(a), ".17g") for a in axis])
    size = max(1, _BAND_CELLS // len(cols))   # rows in a band
    bands, failed = queue.Queue(1), []

    def write():
        while (cell := bands.get()) is not None:
            try:
                if not failed:
                    write_bytes(_compact(cell))
            except BaseException as exc:
                failed.append(exc)
            finally:
                del cell   # the band is let go before the next arrives
                bands.task_done()

    thread = threading.Thread(target=write)
    thread.start()
    try:
        for lo in range(0, len(labels), size):
            cell = _grid_band(labels[lo:lo + size], cols, values[lo:lo + size])
            bands.join()   # the band before is written
            if failed:
                break
            bands.put(cell)
    finally:
        bands.put(None)
        thread.join()
    if failed:
        raise failed[0]
