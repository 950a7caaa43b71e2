"""Frequency-correlation diagnostics and joint time distributions.

The visibility figure of merit is the purity of the single-photon reduced
spectral state.  The test suite checks it against an independent
brute-force fourfold quadrature of the same quantity, which must never be
folded into the purity path.

The detection-time amplitude comes in bands or batches of t1 rows from
chirp-z transforms over segments of the frequency grid, each batch's
segments summed into one accumulator, and the only n_t x n_t array a
command holds is the density, which it lets go once the CSV is written
and before the SVG is drawn; a gaussian pump's half-transform is
dropped block by block as the density fills.  The cavity response r is
evaluated segment by segment where it is used, not stored, so a flat
pump holds no complex vector over the frequency grid.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModelError
from .spectral import (SEGMENT, TWO_PI, FrequencyGrid, JointSpectralAmplitude,
                       correlate, row_bands)

# quarter-period sampling margin for the time grid (see _check_grids)
_SAMPLES_PER_PERIOD = 4.0
# complex values per row batch of the chirp-z FFTs (a 128 KiB work
# buffer): one row of a SEGMENT-point segment, 8 rows at the default
# grid, or 4 of the storage map's
_BATCH_VALUES = 1 << 13


def visibility(jsa: JointSpectralAmplitude) -> float:
    """Multi-photon interference visibility V = Tr(rho^2) / (Tr rho)^2.

    Equals 1 exactly for factored (frequency-uncorrelated) amplitudes.
    Otherwise V = ||S||_F^2 / (Tr S)^2 with S = M M^T, M = |amplitude|.
    A gaussian pump has p(x) p(y) = p(0)^2 Q(x - y) Q(x + y), with Q from
    pump_on_sums, so S_ik = p(0)^2 a_i a_k Q_(i-k) H_(i+k) for
    H_u = sum_j c2_j Q_(u+2j-2n+2).  Tr S = sum_i a2_i H_2i; ||S||_F^2 is
    summed over row bands of its upper triangle on Toeplitz and Hankel
    views of Q^2 and H^2, out to where Q^2 falls below 1e-300.  p(0) and
    the scale drop out.  ||S||_F^2 <= (Tr S)^2 for the positive
    semidefinite S, so V lies in [0, 1] up to rounding, which is clamped.
    """
    if jsa.is_factored:
        return 1.0
    n = jsa.n_points
    a2, c2 = (side / side.max() for side in jsa.moduli()[:2])
    q = jsa.pump_on_sums()
    h = np.empty(2 * n - 1)
    h[0::2] = correlate(q[0::2], c2)
    h[1::2] = correlate(q[1::2], c2)
    trace = float(np.einsum("i,i->", a2, h[0::2]))
    g2 = q[n - 1:3 * n - 2] ** 2  # Q^2 at i - k = -(n - 1), ..., n - 1
    g2[g2 < 1e-300] = 0.0
    reach = int(np.flatnonzero(g2)[-1]) - (n - 1)
    h *= h
    square = 0.0
    for rows in row_bands(n):  # row i against the columns k >= rows.start
        lo, hi = rows.start, rows.stop
        width = min(n, hi + reach) - lo
        toeplitz = sliding_window_view(g2, width)[n - hi + lo:n][::-1]
        hankel = sliding_window_view(h, width)[2 * lo:lo + hi]
        w = a2[lo:lo + width].copy()
        w[hi - lo:] *= 2.0  # the columns past the band stand for k < lo too
        square += float(np.einsum("i,i->", a2[rows], np.einsum(
            "ik,ik,k->i", toeplitz, hankel, w)))
    return min(max(square / trace ** 2, 0.0), 1.0)


# --------------------------------------------------------------- time side

def _bandwidth_99(grid: FrequencyGrid, mass: np.ndarray) -> float:
    """Full width of the smallest centred band holding 99% of the
    marginal spectral mass on grid, whose detunings are symmetric and
    even in number: the mass is folded into pairs of equal |d| and
    summed outwards."""
    half = grid.n_points // 2
    cum = mass[half:] + mass[half - 1::-1]
    np.cumsum(cum, out=cum)
    k = min(int(np.searchsorted(cum, 0.99 * cum[-1])), cum.size - 1)
    return 2.0 * abs(float(grid.detunings_on(half + k, half + k + 1)[0]))


def _outer_fraction(mass: np.ndarray) -> float:
    """Share of the mass that lies beyond 0.9 of the grid's half span,
    summed over the two end slices.  Point k lies there where
    k < (n - 1) / 20, and n - 1 is odd, so no point is within 0.05
    spacings of the edge and each slice holds ceil((n - 1) / 20)."""
    j = (mass.size - 2) // 20 + 1
    return float((mass[:j].sum() + mass[-j:].sum()) / mass.sum())


def _check_grids(jsa: JointSpectralAmplitude, t_grid: np.ndarray) -> None:
    """Check that the uniform, increasing 1-d array t_grid samples the 99%
    bandwidth of each marginal of jsa at least _SAMPLES_PER_PERIOD times
    per period, and that less than 1% of each marginal's mass lies in the
    outer 10% of the frequency grid.  A factored amplitude's marginals are
    its moduli times constants, so the guards see the moduli, once if the
    two are one array (no filter).  The guards read the grid by index and
    build no detunings."""
    dt = float(t_grid[1] - t_grid[0])
    if jsa.is_factored:
        a2, c2, _ = jsa.moduli()
        masses = (a2,) if a2 is c2 else (a2, c2)
    else:
        masses = jsa.marginals()
    bw = max(_bandwidth_99(jsa.grid, mass) for mass in masses)
    dt_max = TWO_PI / (bw * _SAMPLES_PER_PERIOD)
    if dt > dt_max:
        raise ModelError(
            f"time step {dt:.3e} s undersamples the occupied bandwidth "
            f"{bw:.3e} rad/s (need <= {dt_max:.3e} s)")
    for axis, mass in enumerate(masses):
        frac = _outer_fraction(mass)
        if frac >= 0.01:
            raise ModelError(
                f"{frac:.3%} of spectral mass sits in the outer 10% of "
                f"the frequency grid (axis {axis}); widen the grid")


def _chirp(alpha: float, start: int, stop: int):
    """(q, exp(-i alpha q^2)) for the integers q in [start, stop).

    alpha is split, from the largest q^2, into a high part with few
    enough significant bits that its product with every q^2 is exact,
    and a small remainder, so the phase is accurate to rounding of the
    result where alpha q^2 reaches millions of rad.
    """
    q_max = max(start * start, (stop - 1) * (stop - 1))
    bits = 53 - q_max.bit_length()
    exp = math.frexp(alpha)[1]
    hi = math.ldexp(math.floor(math.ldexp(alpha, bits - exp)), exp - bits)
    q = np.arange(start, stop)
    q2 = (q * q).astype(float)
    return q, np.exp(-1j * (hi * q2)) * np.exp(-1j * ((alpha - hi) * q2))


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; pocketfft is fast on these lengths."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:  # odd runs over 3^b 5^c
        p = odd
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        odd *= 5
    return best


def _transform_batches(t_grid: np.ndarray, grid: FrequencyGrid, blocks):
    """Iterate over (rows, psi[rows]) for the vectors of the blocks, taken
    in turn and counted across them, with psi(t_m) = sum_k vec[k]
    e^{-i d_k t_m} dd / 2pi per vector, on the n detunings d_k of grid,
    spaced by dd.  A block is a vector count and a writer write(out, a, b,
    lo, hi), which fills out with vectors a to b - 1 on the points lo to
    hi - 1, called once per batch and segment into the work buffer.

    Bluestein's chirp-z transform over segments of at most SEGMENT
    detunings: in the segment from k_s, d_k = d_{k_s} + j dd and
    t_m = t_0 + m dt make the kernel e^{-i d_{k_s} t_m} e^{-i j dd t_0}
    e^{-i j m dd dt}, and j m = (j^2 + m^2 - (m - j)^2) / 2 splits it
    into a pre-chirp over j, one FFT convolution with a chirp of length
    >= seg + m - 1, and a post factor over m, the one part that depends
    on the segment, through its start d_{k_s}.  n, dd and the starts
    are read from grid, one detuning each, so no detunings are built.
    The chirps are built once, for the segment length, and the FFT, the
    chirp product and the inverse FFT run in batches of rows of at most
    _BATCH_VALUES points, so memory beyond the blocks is about four
    vectors of seg + m points.  The work buffer and one batch x m
    accumulator (96 KiB on the storage map) are built once per call.
    Every batch sums its segments by one rule: the first is multiplied
    by its post factor into the accumulator and each later one is added
    to it.  A batch is yielded as a view into the accumulator, which
    the next batch overwrites.  A block is let go when the next is
    taken.  dt is taken from the end points of t_grid, which must be
    uniform: the timedist command builds it with np.linspace over a
    window it has checked to be a finite, normal float.
    """
    m, n, spacing = t_grid.size, grid.n_points, grid.spacing
    seg = min(n, SEGMENT)
    t0 = float(t_grid[0])
    dt = (float(t_grid[-1]) - t0) / (m - 1)
    half = 0.5 * spacing * dt
    size = _fft_length(seg + m - 1)
    chirp = np.zeros(size, dtype=complex)
    j, c = _chirp(half, 1 - seg, m)
    chirp[j] = np.conj(c)  # j < 0 wraps to the end
    np.fft.fft(chirp, out=chirp)
    j, c = _chirp(half, 0, seg)
    pre = np.exp(-1j * (t0 * spacing) * j) * c
    mm, c = _chirp(half, 0, m)
    # a post factor per segment, from the column of the segment starts
    d0 = np.array([grid.detunings_on(k, k + 1)[0]
                   for k in range(0, n, seg)])[:, None]
    post = np.exp(-1j * (d0 * t0 + (d0 * dt) * mm)) * c
    post *= spacing / TWO_PI
    batch = max(1, _BATCH_VALUES // size)
    work = np.empty((batch, size), dtype=complex)
    acc = np.empty((batch, m), dtype=complex)
    start = 0
    for count, write in blocks:
        for a in range(0, count, batch):
            b = min(a + batch, count)
            w, total = work[:b - a], acc[:b - a]
            for ks, factor in zip(range(0, n, seg), post):
                width = min(seg, n - ks)
                write(w[:, :width], a, b, ks, ks + width)
                w[:, width:] = 0.0
                w[:, :width] *= pre[:width]
                np.fft.fft(w, out=w)
                w *= chirp
                np.fft.ifft(w, out=w)
                if ks:
                    total += np.multiply(w[:, :m], factor, out=w[:, :m])
                else:
                    np.multiply(w[:, :m], factor, out=total)
            yield slice(start + a, start + b), total
        start += count


def _rows(vecs: np.ndarray):
    """The block of the rows of the 2-d array vecs."""
    return len(vecs), (lambda out, a, b, lo, hi:
                       np.copyto(out, vecs[a:b, lo:hi]))


def _transform(t_grid: np.ndarray, grid: FrequencyGrid, block) -> np.ndarray:
    """The transforms of _transform_batches over the one block collected
    into one array, a row per vector."""
    out = np.empty((block[0], t_grid.size), dtype=complex)
    for rows, w in _transform_batches(t_grid, grid, [block]):
        out[rows] = w
    return out


def _psi_bands(jsa: JointSpectralAmplitude, t_grid: np.ndarray):
    """Check the time grid, then iterate over (rows, psi[rows, :]) in
    bands or batches of t1 rows, psi = sum_ij A_ij e^{-i d_i t1 - i d_j t2}
    (dd/2pi)^2.

    A factored amplitude transforms its two factors once, each written
    one segment at a time, so it holds no complex vector over the
    frequency grid but an explicit filter f.  A gaussian pump takes two
    passes.  The first writes A's columns, from its parts, straight into
    the work buffer and transforms them over the signal axis into the
    n x n_t half-transform C, scattered into one block of C^T per band
    of t1 rows, each a plain array.  The second takes the blocks over
    the idler axis into batches of psi's rows, which are views into the
    transform's accumulator, and drops each block as it is transformed.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    _check_grids(jsa, t_grid)
    n, grid = jsa.n_points, jsa.grid
    bands = row_bands(t_grid.size)
    if jsa.is_factored:
        parts = (jsa.signal_factor, jsa.response)

        def write(out, a, b, lo, hi):
            for row, part in zip(out, parts[a:b]):
                np.copyto(row, part(lo, hi))
        su, sv = _transform(t_grid, grid, (2, write))
        return ((rows, su[rows, None] * sv) for rows in bands)
    blocks = [np.empty((rows.stop - rows.start, n), dtype=complex)
              for rows in bands]
    columns = (n, jsa.column_writer())
    for freqs, w in _transform_batches(t_grid, grid, [columns]):
        for rows, block in zip(bands, blocks):
            block[:, freqs] = w[:, rows].T
    return _transform_batches(t_grid, grid,
                              (_rows(blocks.pop(0)) for _ in bands))


def joint_time_distribution(jsa: JointSpectralAmplitude,
                            t_grid: np.ndarray) -> np.ndarray:
    """Max-normalized |psi(t1, t2)|^2 on t_grid x t_grid, squared band
    by band into the one n_t x n_t float array and normalized in place."""
    bands = _psi_bands(jsa, t_grid)
    density = np.empty((len(t_grid), len(t_grid)))
    for rows, band in bands:
        out = np.abs(band, out=density[rows])
        out *= out
    density /= density.max()
    return density

