"""Pump spectra, cavity line shapes, and the joint spectral amplitude.

All frequencies are angular detunings (rad/s) from the shared carrier, so
the carrier itself never enters any computation.  Grids are uniform and
symmetric about zero detuning.  A joint amplitude is held as its parts,
and its cavity response is evaluated on the range of grid points a
caller needs, not stored.
"""
from __future__ import annotations

import math
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import MATERIALIZE_LIMIT, TWO_PI
from .errors import InputError, ModelError

# rows per band of the purity sum or of psi: a band and its FFT buffer
# are a few MB at the storage map's size
BAND_ROWS = 128
# grid points per segment on which r is evaluated, and per chirp-z
# segment of the time transform
SEGMENT = 1 << 15

# gaussian sigmas (rad/s) whose 2 sigma^2 is a normal, finite float
_SIGMA_RANGE = (math.sqrt(sys.float_info.min),
                math.sqrt(sys.float_info.max / 2.0))


class FrequencyGrid:
    """Uniform symmetric detuning grid.

    span is the full width in rad/s; points run from -span/2 to +span/2
    inclusive, so the spacing is span / (n_points - 1).  n_points is even
    and at least 8, as config checks grids.n_freq.
    """

    def __init__(self, span: float, n_points: int) -> None:
        if not (span > 0.0 and math.isfinite(span)):
            raise InputError(f"grid span must be positive, got {span}")
        self.span, self.n_points = span, n_points

    @property
    def spacing(self) -> float:
        return self.span / (self.n_points - 1)

    @property
    def detunings(self) -> np.ndarray:
        return self.detunings_on(0, self.n_points)

    def detunings_on(self, lo: int, hi: int) -> np.ndarray:
        """The detunings of points lo to hi - 1, by np.linspace's own
        arithmetic (k step - span/2, k step computed as k / (n - 1) span
        where step underflows, and span/2 at the last point), so that any
        range equals the same slice of np.linspace bit for bit."""
        start, stop = -self.span / 2.0, self.span / 2.0
        delta, div = stop - start, self.n_points - 1
        d = np.arange(lo, hi, dtype=float)
        if delta / div == 0.0:
            d /= div
            d *= delta
        else:
            d *= delta / div
        d += start
        if hi == self.n_points and hi > lo:
            d[-1] = stop
        return d


class CavityLine:
    """Single cavity resonance; gamma is the full linewidth in rad/s,
    positive and finite (config checks source.gamma_hz)."""

    def __init__(self, gamma: float) -> None:
        self.gamma = gamma


class PumpSpectrum:
    """Pump amplitude spectrum.

    kind "gaussian" uses sigma (rad/s) as the standard deviation of the
    amplitude spectrum.  "flat_limit" is a constant (very short pump).
    """

    def __init__(self, kind: str, sigma: float = 0.0) -> None:
        if kind == "gaussian" and not (
                _SIGMA_RANGE[0] <= sigma <= _SIGMA_RANGE[1]):
            raise InputError(
                f"gaussian pump needs sigma in [{_SIGMA_RANGE[0]:.2g}, "
                f"{_SIGMA_RANGE[1]:.2g}] rad/s, got {sigma:.3g}")
        self.kind, self.sigma = kind, sigma


def cavity_response(delta, line: CavityLine):
    """Complex amplitude response 1/(delta + i*gamma/2), as an array.

    The squared magnitude is a Lorentzian with FWHM equal to line.gamma.
    """
    delta = np.asarray(delta, dtype=float)
    out = np.add(delta, 0.5j * line.gamma, out=np.empty(delta.shape, complex))
    return np.divide(1.0, out, out=out)  # in place: the one n-point buffer


def sigma_from_pulse_duration(t_p: float) -> float:
    """Map a pump pulse duration to the spectral amplitude sigma (rad/s).

    t_p is taken as the FWHM of a Gaussian amplitude envelope; the
    corresponding amplitude spectrum has standard deviation
    sqrt(2 ln 2)/(pi * t_p) in ordinary frequency.
    """
    if not (t_p > 0.0 and math.isfinite(t_p)):
        raise InputError(f"pulse duration must be positive, got {t_p}")
    return TWO_PI * math.sqrt(2.0 * math.log(2.0)) / (math.pi * t_p)


class JointSpectralAmplitude:
    """Two-photon spectral amplitude sampled on a FrequencyGrid,

        amplitude[i, j] = scale * f[i] * r[i] * r[j] * p_(i+j):

    the cavity response r of `line` on each axis, a pump p on the sum
    detuning, a scale and an optional filter f on the signal axis (axis
    0; None is the identity).  r is not stored: response evaluates it
    on any range of grid points, bit for bit as on the whole grid.  The
    pump is sampled once, on the index sums: p_k = p((k - (n - 1)) dd)
    is the pump at d_i + d_j for i + j = k.

    A flat pump makes the amplitude the outer product of the factors
    u = scale r f and v = r, which allows grids no matrix could hold.  A
    gaussian pump's mass, marginals and purity are one-dimensional sums
    over the moduli and p^2 on the index sums i + j; its time transform
    has column_writer write A's columns into its work buffer, each
    column a window of the pump table.
    """

    def __init__(self, grid: FrequencyGrid, line: CavityLine,
                 pump: PumpSpectrum, scale: float = 1.0, f=None):
        self.grid, self.line, self.pump = grid, line, pump
        self.scale = float(scale)
        self.f = None if f is None else np.asarray(f, complex)

    # -- views ------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def is_factored(self) -> bool:
        return self.pump.kind == "flat_limit"

    @property
    def factors(self):
        """(u, v) = (scale f r, r), with amplitude = outer(u, v) up to
        rounding, for a flat pump; else None."""
        if not self.is_factored:
            return None
        n = self.n_points
        return self.signal_factor(0, n), self.response(0, n)

    @property
    def amplitude(self) -> np.ndarray:
        """The n x n complex matrix, materialized for the tests."""
        n = self.n_points
        if n > MATERIALIZE_LIMIT:
            raise InputError(
                f"grid of {n} points is too large to "
                "materialize as a dense matrix")
        out = np.empty((n, n), dtype=complex)
        self.column_writer()(out, 0, n, 0, n)
        return out.T

    def column_writer(self):
        """write(out, a, b, lo, hi), which fills out with amplitude[lo:hi,
        a:b].T, A's columns a to b - 1 on grid points lo to hi - 1, from
        the parts as r_j r_i p_(i+j) scale f_i, an order in which an
        unfiltered amplitude is exactly symmetric.  Column j's pump is
        the window of the pump table that starts at j."""
        r = self.response(0, self.n_points)
        windows = sliding_window_view(self.pump_table(), self.n_points)

        def write(out, a, b, lo, hi):
            np.multiply(r[a:b, None], r[lo:hi], out=out)
            out *= windows[a:b, lo:hi]
            out *= self.scale
            if self.f is not None:
                out *= self.f[lo:hi]
        return write

    def response(self, lo: int, hi: int) -> np.ndarray:
        """r on grid points lo to hi - 1: the one way to get r."""
        return cavity_response(self.grid.detunings_on(lo, hi), self.line)

    def signal_factor(self, lo: int, hi: int) -> np.ndarray:
        """u = scale f r on grid points lo to hi - 1, multiplied in the
        order r, scale, f."""
        u = self.response(lo, hi)
        u *= self.scale
        if self.f is not None:
            u *= self.f[lo:hi]
        return u

    def pump_table(self) -> np.ndarray:
        """p_k = p((k - (n - 1)) dd) for k = 0, ..., 2n - 2: ones for a
        flat pump, else exp(-s^2 / (2 sigma^2)) / (sqrt(2 pi) sigma)
        operation for operation, so that p at s = 0 is exactly
        1 / (sqrt(2 pi) sigma); an exponent that overflows to -inf
        gives exp's limit 0."""
        n = self.n_points
        if self.is_factored:
            return np.ones(2 * n - 1)
        s = np.arange(2 * n - 1) - (n - 1.0)
        s *= self.grid.spacing
        with np.errstate(over="ignore"):
            np.square(s, out=s)
            np.negative(s, out=s)
            s /= 2.0 * self.pump.sigma ** 2
        np.exp(s, out=s)
        s /= math.sqrt(TWO_PI) * self.pump.sigma
        return s

    def moduli(self):
        """(a2, c2, e) with 2^e (a2, c2) = scale (|f r|^2, |r|^2), so that
        |A_ij|^2 = 2^e a2_i c2_j p_ij^2: squared from |r| scaled to a peak
        in [1/2, 1) and from the mantissa of scale, so that they do not
        underflow where the unscaled |r| does not.  |r| is filled in
        segments of r, so r is never held whole."""
        n = self.n_points
        c2 = np.empty(n)
        for lo in range(0, n, SEGMENT):
            hi = min(lo + SEGMENT, n)
            np.abs(self.response(lo, hi), out=c2[lo:hi])
        e_r = int(np.frexp(c2.max())[1])
        scale, e_s = math.frexp(self.scale)
        np.ldexp(c2, -e_r, out=c2)
        np.square(c2, out=c2)
        c2 *= scale
        return ((c2 if self.f is None else c2 * np.abs(self.f) ** 2), c2,
                2 * e_r + e_s)

    def pump_on_sums(self) -> np.ndarray:
        """p(s)^2 / p(0)^2 of a gaussian pump at s = v dd / 2 for
        v = -(2n - 2), ..., 2n - 2 (even v: pump_table's sums), with
        values below 1e-300 set to zero to keep subnormals out of sums."""
        v = np.arange(4 * self.n_points - 3) - (2 * self.n_points - 2.0)
        with np.errstate(over="ignore"):
            x = np.square(v * (0.5 * self.grid.spacing))
            x /= -self.pump.sigma ** 2
        np.exp(x, out=x)
        x[x < 1e-300] = 0.0
        return x

    def l2_mass(self) -> float:
        """Quadrature value of the squared L2 norm, sum |psi|^2 d^2."""
        signal, e = self._scaled_marginals(sides=1)
        dd, e_dd = math.frexp(self.grid.spacing)
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.sum(signal) * dd, e + e_dd))

    def marginals(self) -> tuple:
        """(signal, idler) marginal spectral masses, each the sum over the
        other axis: one modulus times its correlation with p^2 on the
        index sums."""
        signal, idler, e = self._scaled_marginals()
        return np.ldexp(signal, e, out=signal), np.ldexp(idler, e, out=idler)

    def _scaled_marginals(self, sides: int = 2) -> tuple:
        """(signal, idler, e), or (signal, e) for one side: the marginals
        divided by 2^e.  The moduli, dd and p(0) enter scaled by powers of
        two, with the exponents summed into e, so no intermediate leaves
        the normal range where the marginals do not; the scaling is exact,
        so the sums equal the unscaled ones wherever those stay normal."""
        a2, c2, e = self.moduli()
        dd, e_dd = math.frexp(self.grid.spacing)
        e = 2 * e + e_dd
        pairs = ((a2, c2), (c2, a2))[:sides]
        if self.is_factored:
            return (*(x2 * float(np.sum(y2) * dd) for x2, y2 in pairs), e)
        p0, e_p = math.frexp(1.0 / (math.sqrt(TWO_PI) * self.pump.sigma))
        on_sums = self.pump_on_sums()[::2]
        return (*(x2 * dd * p0 * (correlate(on_sums, y2) * p0)
                  for x2, y2 in pairs), e + 2 * e_p)


def correlate(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.correlate(a, v, "valid") for real vectors, summed by numpy's own
    loops: np.correlate hands its dot products to BLAS, whose summation
    order, and so whose last digits, may follow the BLAS thread count."""
    windows = sliding_window_view(np.ascontiguousarray(a), len(v))
    return np.einsum("ij,j->i", windows, v)


def row_bands(n: int) -> list:
    """Slices of BAND_ROWS consecutive indices covering range(n)."""
    return [slice(s, min(s + BAND_ROWS, n)) for s in range(0, n, BAND_ROWS)]


def _lorentz_tail_fraction(span: float, gamma: float) -> float:
    # analytic single-tail mass of |cavity_response|^2 beyond +span/2
    return (math.pi / 2.0 - math.atan(span / gamma)) / math.pi


def default_grid(line: CavityLine, pump: PumpSpectrum, n_points: int,
                 span_factor: float) -> FrequencyGrid:
    """Grid wide enough for both the cavity line and the pump."""
    scale = line.gamma
    if pump.kind == "gaussian":
        scale = max(scale, pump.sigma)
    return FrequencyGrid(span=span_factor * scale, n_points=n_points)


def build_jsa(grid: FrequencyGrid, line: CavityLine, pump: PumpSpectrum,
              f=None) -> JointSpectralAmplitude:
    """Sample the pair amplitude cavity(d1) * cavity(d2) * pump(d1 + d2)
    on the grid, L2-normalize it, and attach the signal filter f (None
    is the identity), which the normalization does not see.

    The amplitude is held as its parts (cavity line, pump, scale and
    filter); no n x n complex matrix exists until it is asked for.  A
    Lorentzian tail mass above 1% per side (a span under 31.8*gamma)
    raises ModelError; for gaussian pumps the grid must also span at
    least 8*sigma.
    """
    # the 8 sigma floor also bounds the pump's tail mass by
    # erfc(2 sqrt 2) = 6.3e-5
    if pump.kind == "gaussian" and grid.span < 8.0 * pump.sigma:
        raise InputError(
            f"grid span {grid.span:.3e} is below 8*sigma = "
            f"{8.0 * pump.sigma:.3e}")
    tail = _lorentz_tail_fraction(grid.span, line.gamma)
    if tail > 0.01:
        raise ModelError(
            f"cavity-line tail mass {tail:.3%} per side exceeds 1%; "
            "widen the grid")
    jsa = JointSpectralAmplitude(grid, line, pump)
    mass = jsa.l2_mass()
    if not sys.float_info.min <= mass <= sys.float_info.max:
        # a subnormal mass has too few bits to normalize by
        how = ("overflows" if mass > 1.0
               else "underflows below the normal float range")
        raise InputError(
            f"the squared modulus of the sampled amplitude {how} (cavity "
            f"linewidth {line.gamma / TWO_PI:.3g} Hz, grid span "
            f"{grid.span / TWO_PI:.3g} Hz)")
    return JointSpectralAmplitude(grid, line, pump, 1.0 / math.sqrt(mass), f)
