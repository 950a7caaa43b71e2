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

# Largest per-axis point count for which a dense n x n complex matrix is
# still reasonable to hold in memory (4096^2 complex128 = 256 MB).
MATERIALIZE_LIMIT = 4096

PUMP_KINDS = ("gaussian", "flat_limit", "delta_limit")

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
    amplitude spectrum.  "flat_limit" is a constant (very short pump);
    "delta_limit" (continuous pump) has no pointwise values and is only
    consumed by the dedicated analytic time-domain path.
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
    if pump.kind == "gaussian":
        # exp(-nu**2 / (2 sigma^2)) / (sqrt(2 pi) sigma), operation for
        # operation; an exponent that overflows to -inf gives exp's limit 0
        with np.errstate(over="ignore"):
            np.square(nu, out=nu)
            np.negative(nu, out=nu)
            nu /= 2.0 * pump.sigma ** 2
        np.exp(nu, out=nu)
        nu /= math.sqrt(TWO_PI) * pump.sigma
        return nu
    if pump.kind == "flat_limit":
        return np.ones_like(nu)
    raise InputError(
        "delta_limit pump has no pointwise amplitude; use the analytic "
        "continuous-pump path")


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
    """Two-photon spectral amplitude sampled on a FrequencyGrid.

    Stored in one of three forms:

    - dense: the n x n matrix itself;
    - factors: per-axis vectors, amplitude[i, j] = u[i] * v[j], which is
      what flat pumps give and what allows grids no matrix could hold;
    - pumped: (r, pump, scale), amplitude[i, j] = scale * r[i] * r[j] *
      p(d_i + d_j), a cavity response on each axis times a pump on the
      sum detuning.  Its modulus is the real symmetric kernel
      M = scale |r| P |r| with P[i, j] = p(d_i + d_j), and the mass, the
      marginals and the purity are computed on M without forming the
      complex matrix.
    """

    def __init__(self, grid: FrequencyGrid, *, dense=None, factors=None,
                 pumped=None, normalized: bool = False):
        if sum(x is not None for x in (dense, factors, pumped)) != 1:
            raise InputError("exactly one of dense/factors/pumped is required")
        self.grid = grid
        self._dense = None if dense is None else np.asarray(dense, complex)
        self._factors = None
        self._pumped = None
        if factors is not None:
            u, v = factors
            self._factors = (np.asarray(u, complex), np.asarray(v, complex))
            if self._factors[0].shape != (grid.n_points,) or \
                    self._factors[1].shape != (grid.n_points,):
                raise InputError("factor length must match the grid")
        if pumped is not None:
            r, pump, scale = pumped
            self._pumped = (np.asarray(r, complex), pump, float(scale))
            if self._pumped[0].shape != (grid.n_points,):
                raise InputError("response length must match the grid")
        if self._dense is not None and self._dense.shape != (
                grid.n_points, grid.n_points):
            raise InputError("amplitude shape must match the grid")
        self.normalized = bool(normalized)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_matrix(cls, grid: FrequencyGrid, matrix,
                    normalize: bool = True) -> "JointSpectralAmplitude":
        jsa = cls(grid, dense=matrix)
        return jsa._normalized_copy() if normalize else jsa

    @classmethod
    def from_factors(cls, grid: FrequencyGrid, u, v,
                     normalize: bool = True) -> "JointSpectralAmplitude":
        jsa = cls(grid, factors=(u, v))
        return jsa._normalized_copy() if normalize else jsa

    def _normalized_copy(self) -> "JointSpectralAmplitude":
        mass = self.l2_mass()
        if not mass > 0.0:
            raise InputError("cannot normalize a zero amplitude")
        s = 1.0 / math.sqrt(mass)
        if self._dense is not None:
            return JointSpectralAmplitude(
                self.grid, dense=self._dense * s, normalized=True)
        if self._pumped is not None:
            r, pump, scale = self._pumped
            return JointSpectralAmplitude(
                self.grid, pumped=(r, pump, scale * s), normalized=True)
        u, v = self._factors
        return JointSpectralAmplitude(
            self.grid, factors=(u * s, v), normalized=True)

    # -- views ------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def is_factored(self) -> bool:
        return self._factors is not None

    @property
    def factors(self):
        return self._factors

    @property
    def amplitude(self) -> np.ndarray:
        """Dense matrix view; the other forms materialize on demand."""
        if self._dense is not None:
            return self._dense
        if self.n_points > MATERIALIZE_LIMIT:
            raise InputError(
                f"grid of {self.n_points} points is too large to "
                "materialize as a dense matrix")
        if self._factors is not None:
            u, v = self._factors
            return np.outer(u, v)
        r, _, scale = self._pumped
        a = np.outer(r, r)
        a *= self._pump_matrix()
        a *= scale
        return a

    def _pump_matrix(self) -> np.ndarray:
        """P[i, j] = p(d_i + d_j), computed in the buffer of the sums."""
        d = self.grid.detunings
        return _pump_in_place(d[:, None] + d[None, :], self._pumped[1])

    def real_kernel(self):
        """|amplitude| of the pumped form as the real, exactly symmetric
        kernel sqrt(scale) |r| P |r| sqrt(scale); None for the other forms.

        The phases of r drop out of every quantity that depends only on
        the moduli or on A^dagger A up to unitary similarity: the mass,
        the marginals and the purity.
        """
        if self._pumped is None:
            return None
        r, _, scale = self._pumped
        a = np.abs(r) * math.sqrt(scale)
        m = self._pump_matrix()
        m *= np.outer(a, a)
        return m

    def l2_mass(self) -> float:
        """Quadrature value of the squared L2 norm, sum |psi|^2 d^2."""
        dd = self.grid.spacing
        if self._dense is not None:
            return float(np.sum(np.abs(self._dense) ** 2)) * dd * dd
        if self._pumped is not None:
            m = self.real_kernel()
            m *= m
            return float(np.sum(m)) * dd * dd
        u, v = self._factors
        return float(np.sum(np.abs(u) ** 2) * dd *
                     np.sum(np.abs(v) ** 2) * dd)

    def axis_marginal(self, axis: int) -> np.ndarray:
        """Marginal spectral mass along one axis, sum over the other."""
        dd = self.grid.spacing
        if self._dense is not None:
            other = 1 - axis
            return np.sum(np.abs(self._dense) ** 2, axis=other) * dd
        if self._pumped is not None:
            m = self.real_kernel()
            m *= m
            return np.sum(m, axis=1 - axis) * dd
        u, v = self._factors
        own = np.abs(u if axis == 0 else v) ** 2
        rest = float(np.sum(np.abs(v if axis == 0 else u) ** 2) * dd)
        return own * rest


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


def build_jsa(grid: FrequencyGrid, line: CavityLine,
              pump: PumpSpectrum) -> JointSpectralAmplitude:
    """Sample the pair amplitude cavity(d1) * cavity(d2) * pump(d1 + d2)
    on the grid and L2-normalize it.

    Flat pumps produce an exactly factored amplitude, gaussian pumps the
    pumped form (cavity response, pump and scale; no n x n matrix is held
    until the amplitude is asked for).  The grid must span
    at least 8*gamma (and 8*sigma for gaussian pumps); a Lorentzian tail
    mass above 1% per side raises ResolutionError.
    """
    if pump.kind == "delta_limit":
        raise InputError(
            "delta_limit pump cannot be sampled; use the analytic "
            "continuous-pump path")
    if grid.span < 8.0 * line.gamma:
        raise InputError(
            f"grid span {grid.span:.3e} is below 8*gamma = "
            f"{8.0 * line.gamma:.3e}")
    if pump.kind == "gaussian" and grid.span < 8.0 * pump.sigma:
        raise InputError(
            f"grid span {grid.span:.3e} is below 8*sigma = "
            f"{8.0 * pump.sigma:.3e}")
    tail = _lorentz_tail_fraction(grid.span, line.gamma)
    if tail > 0.01:
        raise ResolutionError(
            f"cavity-line tail mass {tail:.3%} per side exceeds 1%; "
            "widen the grid")
    if pump.kind == "gaussian":
        pump_tail = math.erfc(grid.span / (2.0 * math.sqrt(2.0) * pump.sigma))
        if pump_tail > 0.01:
            raise ResolutionError(
                f"pump tail mass {pump_tail:.3%} exceeds 1%; widen the grid")

    d = grid.detunings
    resp = cavity_response(d, line)
    if pump.kind == "flat_limit":
        return JointSpectralAmplitude.from_factors(grid, resp, resp.copy())

    if grid.n_points > MATERIALIZE_LIMIT:
        raise InputError(
            f"dense amplitude for {grid.n_points} points exceeds the "
            f"materialization limit of {MATERIALIZE_LIMIT}")
    return JointSpectralAmplitude(
        grid, pumped=(resp, pump, 1.0))._normalized_copy()
