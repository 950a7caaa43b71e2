"""Pump spectra, cavity line shapes, and the joint spectral amplitude.

All frequencies are angular detunings (rad/s) from the shared carrier, so
the carrier itself never enters any computation.  Grids are uniform and
symmetric about zero detuning.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResolutionError

TWO_PI = 2.0 * math.pi

# Largest per-axis point count of an n x n array: the time density
# (4096^2 float64 = 128 MB) and the amplitude the tests materialize.  A
# gaussian timedist's n_freq x n_time complex half-transform is held to
# as many values (256 MiB).
MATERIALIZE_LIMIT = 4096

PUMP_KINDS = ("gaussian", "flat_limit")

# rows per band of the purity sum or of psi (and per chunk of A's
# columns): a band and its FFT buffer are a few MB at the storage map's size
BAND_ROWS = 128

# gaussian sigmas (rad/s) whose 2 sigma^2 is a normal, finite float
_SIGMA_RANGE = (math.sqrt(sys.float_info.min),
                math.sqrt(sys.float_info.max / 2.0))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric detuning grid.

    span is the full width in rad/s; points run from -span/2 to +span/2
    inclusive, so the spacing is span / (n_points - 1).
    """

    span: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.span > 0.0 and math.isfinite(self.span)):
            raise InputError(f"grid span must be positive, got {self.span}")
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise InputError(
                f"n_points must be even and >= 8, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return self.span / (self.n_points - 1)

    @property
    def detunings(self) -> np.ndarray:
        return np.linspace(-self.span / 2.0, self.span / 2.0, self.n_points)


@dataclass(frozen=True)
class CavityLine:
    """Single cavity resonance; gamma is the full linewidth in rad/s."""

    gamma: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise InputError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class PumpSpectrum:
    """Pump amplitude spectrum.

    kind "gaussian" uses sigma (rad/s) as the standard deviation of the
    amplitude spectrum.  "flat_limit" is a constant (very short pump).
    """

    kind: str
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PUMP_KINDS:
            raise InputError(f"unknown pump kind {self.kind!r}")
        if self.kind == "gaussian" and not (
                _SIGMA_RANGE[0] <= self.sigma <= _SIGMA_RANGE[1]):
            raise InputError(
                f"gaussian pump needs sigma in [{_SIGMA_RANGE[0]:.2g}, "
                f"{_SIGMA_RANGE[1]:.2g}] rad/s, got {self.sigma:.3g}")


def cavity_response(delta, line: CavityLine):
    """Complex amplitude response 1/(delta + i*gamma/2).

    The squared magnitude is a Lorentzian with FWHM equal to line.gamma.
    Accepts scalars or arrays.
    """
    delta = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise InputError("non-finite detuning")
    out = 1.0 / (delta + 0.5j * line.gamma)
    return out if out.ndim else complex(out)


def pump_amplitude(omega_sum_detuning, pump: PumpSpectrum):
    """Pump spectral amplitude at the sum detuning of the pair."""
    out = _pump_in_place(np.array(omega_sum_detuning, dtype=float), pump)
    return out if out.ndim else float(out)


def _pump_in_place(nu: np.ndarray, pump: PumpSpectrum) -> np.ndarray:
    """pump_amplitude computed in the buffer nu, which it overwrites."""
    if pump.kind == "flat_limit":
        return np.ones_like(nu)
    # exp(-nu**2 / (2 sigma^2)) / (sqrt(2 pi) sigma), operation for
    # operation; an exponent that overflows to -inf gives exp's limit 0
    with np.errstate(over="ignore"):
        np.square(nu, out=nu)
        np.negative(nu, out=nu)
        nu /= 2.0 * pump.sigma ** 2
    np.exp(nu, out=nu)
    nu /= math.sqrt(TWO_PI) * pump.sigma
    return nu


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

        amplitude[i, j] = scale * f[i] * r[i] * r[j] * p(d_i + d_j):

    a cavity response r on each axis, a pump p on the sum detuning, a
    scale and an optional filter f on the signal axis (axis 0; None is
    the identity).

    A flat pump makes the amplitude the outer product of the factors
    u = scale r f and v = r, which allows grids no matrix could hold.  A
    gaussian pump's mass, marginals and purity are one-dimensional sums
    over the moduli and p^2 on the index sums i + j; its time transform
    takes the amplitude a band of columns at a time.
    """

    def __init__(self, grid: FrequencyGrid, r, pump: PumpSpectrum,
                 scale: float = 1.0, f=None):
        self.grid = grid
        self.r = np.asarray(r, complex)
        self.pump = pump
        self.scale = float(scale)
        self.f = None if f is None else np.asarray(f, complex)
        for vec in (self.r, self.f):
            if vec is not None and vec.shape != (grid.n_points,):
                raise InputError("response and filter must be sampled on "
                                 "the grid")

    # -- views ------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def is_factored(self) -> bool:
        return self.pump.kind == "flat_limit"

    @property
    def factors(self):
        """(u, v) with amplitude = outer(u, v) for a flat pump, else None."""
        return self._sides() if self.is_factored else None

    def _sides(self):
        """(u, v) = (scale f r, r): amplitude[i, j] = u_i v_j p(d_i + d_j)."""
        u = self.r * self.scale
        if self.f is not None:
            u *= self.f
        return u, self.r

    @property
    def amplitude(self) -> np.ndarray:
        """The n x n complex matrix, materialized for the tests."""
        if self.n_points > MATERIALIZE_LIMIT:
            raise InputError(
                f"grid of {self.n_points} points is too large to "
                "materialize as a dense matrix")
        if self.is_factored:
            return np.outer(*self.factors)
        a = np.outer(self.r, self.r)
        a *= self._pump_matrix()
        a *= self.scale
        if self.f is not None:
            a *= self.f[:, None]
        return a

    def columns(self, cols: slice) -> np.ndarray:
        """amplitude[:, cols].T, built from the parts."""
        u, v = self._sides()
        block = self._pump_matrix(cols) * v[cols, None]  # P is symmetric
        block *= u
        return block

    def _pump_matrix(self, rows: slice = slice(None)) -> np.ndarray:
        """P[rows, :], P[i, j] = p(d_i + d_j), in the buffer of the sums."""
        d = self.grid.detunings
        return _pump_in_place(d[rows, None] + d[None, :], self.pump)

    def moduli(self):
        """(a2, c2, e) with 2^e (a2, c2) = scale (|f r|^2, |r|^2), so that
        |A_ij|^2 = 2^e a2_i c2_j p_ij^2: squared from |r| scaled to a peak
        in [1/2, 1) and from the mantissa of scale, so that they do not
        underflow where the unscaled |r| does not."""
        c2 = np.abs(self.r)
        e_r = int(np.frexp(c2.max())[1])
        scale, e_s = math.frexp(self.scale)
        np.ldexp(c2, -e_r, out=c2)
        np.square(c2, out=c2)
        c2 *= scale
        return ((c2 if self.f is None else c2 * np.abs(self.f) ** 2), c2,
                2 * e_r + e_s)

    def pump_on_sums(self) -> np.ndarray:
        """p(s)^2 / p(0)^2 of a gaussian pump at s = v dd / 2 for
        v = -(2n - 2), ..., 2n - 2 (even v: the sums d_i + d_j), with
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
        signal, _, e = self._scaled_marginals()
        dd, e_dd = math.frexp(self.grid.spacing)
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.sum(signal) * dd, e + e_dd))

    def marginals(self) -> tuple:
        """(signal, idler) marginal spectral masses, each the sum over the
        other axis: one modulus times its correlation with p^2 on the
        index sums."""
        signal, idler, e = self._scaled_marginals()
        return np.ldexp(signal, e, out=signal), np.ldexp(idler, e, out=idler)

    def _scaled_marginals(self) -> tuple:
        """(signal, idler, e): the marginals divided by 2^e.  The moduli,
        dd and p(0) enter scaled by powers of two, with the exponents
        summed into e, so no intermediate leaves the normal range where
        the marginals do not; the scaling is exact, so the sums equal the
        unscaled ones wherever those stay normal."""
        a2, c2, e = self.moduli()
        dd, e_dd = math.frexp(self.grid.spacing)
        e = 2 * e + e_dd
        if self.is_factored:
            return a2 * float(np.sum(c2) * dd), c2 * float(np.sum(a2) * dd), e
        p0, e_p = math.frexp(1.0 / (math.sqrt(TWO_PI) * self.pump.sigma))
        on_sums = self.pump_on_sums()[::2]
        return (*(x2 * dd * p0 * (np.correlate(on_sums, y2, "valid") * p0)
                  for x2, y2 in ((a2, c2), (c2, a2))), e + 2 * e_p)


def row_bands(n: int) -> list:
    """Slices of BAND_ROWS consecutive indices covering range(n)."""
    return [slice(s, min(s + BAND_ROWS, n)) for s in range(0, n, BAND_ROWS)]


def _lorentz_tail_fraction(span: float, gamma: float) -> float:
    # analytic single-tail mass of |cavity_response|^2 beyond +span/2
    return (math.pi / 2.0 - math.atan(span / gamma)) / math.pi


def default_grid(line: CavityLine, pump: PumpSpectrum, n_points: int = 512,
                 span_factor: float = 40.0) -> FrequencyGrid:
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

    The amplitude is held as its parts (cavity response, pump, scale and
    filter); no n x n complex matrix exists until it is asked for.  The
    grid must span at least 8*gamma (and 8*sigma for gaussian pumps); a
    Lorentzian tail mass above 1% per side raises ResolutionError.
    """
    if grid.span < 8.0 * line.gamma:
        raise InputError(
            f"grid span {grid.span:.3e} is below 8*gamma = "
            f"{8.0 * line.gamma:.3e}")
    # the 8 sigma floor also bounds the pump's tail mass by
    # erfc(2 sqrt 2) = 6.3e-5
    if pump.kind == "gaussian" and grid.span < 8.0 * pump.sigma:
        raise InputError(
            f"grid span {grid.span:.3e} is below 8*sigma = "
            f"{8.0 * pump.sigma:.3e}")
    tail = _lorentz_tail_fraction(grid.span, line.gamma)
    if tail > 0.01:
        raise ResolutionError(
            f"cavity-line tail mass {tail:.3%} per side exceeds 1%; "
            "widen the grid")
    jsa = JointSpectralAmplitude(grid, cavity_response(grid.detunings, line),
                                 pump)
    mass = jsa.l2_mass()
    if not sys.float_info.min <= mass <= sys.float_info.max:
        # a subnormal mass has too few bits to normalize by
        how = ("overflows" if mass > 1.0
               else "underflows below the normal float range")
        raise InputError(
            f"the squared modulus of the sampled amplitude {how} (cavity "
            f"linewidth {line.gamma / TWO_PI:.3g} Hz, grid span "
            f"{grid.span / TWO_PI:.3g} Hz)")
    return JointSpectralAmplitude(grid, jsa.r, pump, 1.0 / math.sqrt(mass), f)
