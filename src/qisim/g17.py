"""format(v, ".17g") for float64 arrays, byte for byte, in numpy.

With k the decade of |v|, the 17 digits are rint(|v| 10^(16 - k)) in
np.longdouble, from powers of ten parsed from decimal strings, so each
is correctly rounded.  A table entry and the product each err by half
an ulp, under 0.011 at 17 digits on x86-64.  Zero, inf, nan, values
from 10 to 1e17 (fixed notation with the point among the digits), and
every cell whose product lies within HALF_MARGIN of a rounding tie or
leaves the longdouble range, go through format() itself.  HALF_MARGIN
comes from the longdouble epsilon: where longdouble is plain double it
is 1/2 and every cell takes format(), so the bytes stay the same with
no switch and no second code path.

A cell's slot is SLOT bytes: a head word "-0.000d." (sign, the "0." and
zeros of a fixed-notation value below 1, the lead digit, the point),
four words of 4 digits, and a tail word "e+308\\n" or "\\n".  Absent
characters are NUL bytes, which the caller drops.  The module builds
its tables when imported, so it is imported only where a grid is
written.
"""
from __future__ import annotations

import numpy as np

# the characters of a slot, ahead of its tail word; a slot
BODY, SLOT = 24, 32
# decades k of finite nonzero float64s, one more either side for the
# decade correction
_K_LO, _K_HI = -325, 309


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


def _tables():
    """The kernel's tables; what builds them is freed on return."""
    k = range(_K_LO, _K_HI + 1)
    digit = (np.arange(10000, dtype=np.int16)[:, None]
             // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    # position 1-4 of a 4-digit group's last nonzero digit; 0 for 0000
    last = np.max(np.where(digit != 0, np.arange(1, 5, dtype=np.uint8), 0),
                  axis=1)
    # index of each group's first digit among the 17
    first = 1 + 4 * np.arange(4, dtype=np.uint8)
    kept = np.clip(np.arange(18)[:, None, None] - first[:, None], 0, 4)
    head = np.zeros((2, 5, 10, 2, 8), np.uint8)
    head[1, ..., 0] = ord("-")
    head[..., 1:6] = byte_rows(["", "0.", "0.0", "0.00", "0.000"])[
        :, None, None]
    head[..., 6] = ord("0") + np.arange(10)[:, None]
    head[..., 1, 7] = ord(".")
    return (
        # [k - _K_LO]: 10^(16 - k)
        np.array([f"1e{16 - e}" for e in k], dtype=np.longdouble),
        # [value]: "0000" .. "9999"
        _words(ord("0") + digit, np.uint32),
        # [g][value]: significant digits of a 17-digit integer whose
        # last nonzero digit is in its group g, which holds value
        np.where(last > 0, first[:, None] + last, 1).astype(np.uint8),
        # [g][n]: the mask of group g that keeps the first n of 17 digits
        _words(0xFF * (np.arange(4) < kept), np.uint32).T.copy(),
        # [((sign * 5 + zeros) * 10 + lead) * 2 + point]: "-0.000d."
        _words(head.reshape(-1, 8), np.uint64),
        # [k - _K_LO]: an exponent and newline; [-1]: a newline
        _words(byte_rows([f"e{e:+03d}\n" for e in k] + ["\n"], 8),
               np.uint64))


_POW10, _QUAD, _SIGNIFICANT, _KEEP, _HEAD, _TAIL = _tables()
# |y - rint(y)| within this of 1/2 may round either way: a table entry
# and the product each err by half an ulp, and y < 1e17 < 2^57
HALF_MARGIN = min(0.5, float(np.finfo(np.longdouble).eps) * 2.0 ** 57)


def slots(values, out: np.ndarray) -> np.ndarray:
    """Write format(v, ".17g") and a newline for each float64 in
    `values` into `out`, one row of SLOT uint8 each, 8-byte aligned,
    with NUL bytes among the characters; return out."""
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    special = ~np.isfinite(a) | (a == 0.0)
    a = np.where(special, 1.0, a)
    k = np.floor(np.log10(a)).astype(np.intp)
    a = a.astype(np.longdouble)
    # a table entry past the longdouble range is inf, and so is y; the
    # cell then falls back, whatever its digits cast to
    with np.errstate(over="ignore", invalid="ignore"):
        y = a * _POW10[k - _K_LO]
        # log10 may be one decade off next to a power of ten
        step = (y >= 1e17).astype(np.intp) - (y < 1e16)
        if step.any():
            k += step
            y = a * _POW10[k - _K_LO]
        rounded = np.rint(y)
        digits = rounded.astype(np.int64)
        near_tie = ~(np.abs(y - rounded) < 0.5 - HALF_MARGIN)
    # %g: fixed notation for decades -4 .. 16; from 10 up the point sits
    # among the digits, which format() lays out
    fixed = (k >= -4) & (k < 17)
    # near a tie, out of range, wide fixed, or 17 nines rounded up into
    # the next decade
    fallback = (special | near_tie | (fixed & (k > 0))
                | (digits < 10 ** 16) | (digits >= 10 ** 17))
    lead, rest = np.divmod(np.where(fallback, 10 ** 16, digits), 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = [*np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4)]
    significant = np.maximum.reduce(
        [sig[g] for sig, g in zip(_SIGNIFICANT, groups)])

    # trailing zeros stripped; below 1 the digits follow "0." and 0 to 3
    # zeros
    small = fixed & (k < 0)
    sign = np.signbit(v)
    point = (significant > 1) & ~small
    out64, out32 = out.view(np.uint64), out.view(np.uint32)
    out64[:, 0] = _HEAD[((sign * 5 + np.where(small, -k, 0)) * 10 + lead)
                        * 2 + point]
    for i, (g, keep) in enumerate(zip(groups, _KEEP)):
        out32[:, 2 + i] = _QUAD[g] & keep[significant]
    out64[:, 3] = _TAIL[np.where(fixed | fallback, -1, k - _K_LO)]

    slow = np.flatnonzero(fallback)
    if slow.size:
        text = np.array([format(x, ".17g") for x in v[slow].tolist()],
                        dtype=f"S{BODY}")
        out[slow, :BODY] = text.view(np.uint8).reshape(slow.size, BODY)
    return out
