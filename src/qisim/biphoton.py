"""Frequency-correlation diagnostics and joint time distributions.

The visibility figure of merit is the purity of the single-photon reduced
spectral state.  The test suite checks it against an independent
brute-force fourfold quadrature of the same quantity, which must never be
folded into the purity path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResolutionError
from .spectral import (
    MATERIALIZE_LIMIT,
    TWO_PI,
    FrequencyGrid,
    JointSpectralAmplitude,
)

# quarter-period sampling margin for the time grid (see _check_time_grid)
_SAMPLES_PER_PERIOD = 4.0
_TRANSFORM_CHUNK = 8192


@dataclass(frozen=True)
class ReducedFrequencyState:
    """Kernel samples of the single-photon reduced spectral operator.

    rho[j, k] approximates the continuous kernel rho(d_j, d_k); traces and
    purities are quadrature sums, so trace() carries one factor of the
    grid spacing and purity() two.
    """

    grid: FrequencyGrid
    rho: np.ndarray

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho))) * self.grid.spacing

    def purity(self) -> float:
        dd = self.grid.spacing
        return float(np.sum(np.abs(self.rho) ** 2)) * dd * dd

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho).min()) * self.grid.spacing


def reduced_state(jsa: JointSpectralAmplitude) -> ReducedFrequencyState:
    """Partial trace over the first photon: rho = A^dagger A * spacing."""
    if not jsa.normalized:
        raise InputError("reduced_state requires a normalized amplitude")
    dd = jsa.grid.spacing
    if jsa.is_factored:
        if jsa.n_points > MATERIALIZE_LIMIT:
            raise InputError(
                "reduced state matrix would be too large; shrink the grid")
        u, v = jsa.factors
        weight = float(np.sum(np.abs(u) ** 2)) * dd
        rho = np.outer(np.conj(v), v) * weight
    else:
        a = jsa.amplitude
        rho = (a.conj().T @ a) * dd
    return ReducedFrequencyState(grid=jsa.grid, rho=rho)


def visibility(jsa: JointSpectralAmplitude) -> float:
    """Multi-photon interference visibility V = Tr(rho^2) / (Tr rho)^2.

    Equals 1 exactly for factored (frequency-uncorrelated) amplitudes.
    A value outside [0, 1] beyond rounding indicates an inadequate grid.
    """
    if not jsa.normalized:
        raise InputError("visibility requires a normalized amplitude")
    if jsa.is_factored:
        return 1.0
    state = reduced_state(jsa)
    v = state.purity() / state.trace() ** 2
    if v < -1e-9 or v > 1.0 + 1e-9:
        raise ResolutionError(
            f"visibility {v!r} is outside [0, 1]; the grid is too coarse")
    return min(max(v, 0.0), 1.0)


# --------------------------------------------------------------- time side

@dataclass(frozen=True)
class JointTimeDistribution:
    """Normalized pair-detection density on a uniform time grid."""

    t_grid: np.ndarray
    density: np.ndarray

    def __post_init__(self) -> None:
        if self.density.shape != (self.t_grid.size, self.t_grid.size):
            raise InputError("density shape must match the time grid")
        if np.any(self.density < 0.0):
            raise InputError("density must be non-negative")
        if not math.isclose(float(self.density.max()), 1.0,
                            rel_tol=1e-12, abs_tol=0.0):
            raise InputError("density must be max-normalized to 1")


def _bandwidth_99(jsa: JointSpectralAmplitude, axis: int) -> float:
    """Full width of the smallest centred band holding 99% of the
    marginal spectral mass along one axis."""
    d = jsa.grid.detunings
    mass = jsa.axis_marginal(axis)
    order = np.argsort(np.abs(d), kind="stable")
    cum = np.cumsum(mass[order])
    k = int(np.searchsorted(cum, 0.99 * cum[-1]))
    k = min(k, d.size - 1)
    return 2.0 * float(np.abs(d[order[k]]))


def _check_time_grid(jsa: JointSpectralAmplitude,
                     t_grid: np.ndarray) -> float:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise InputError("time grid must be a 1-d array of >= 2 points")
    steps = np.diff(t_grid)
    dt = float(steps[0])
    if dt <= 0.0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise InputError("time grid must be uniform and increasing")
    bw = max(_bandwidth_99(jsa, 0), _bandwidth_99(jsa, 1))
    dt_max = TWO_PI / (bw * _SAMPLES_PER_PERIOD)
    if dt > dt_max:
        raise ResolutionError(
            f"time step {dt:.3e} s undersamples the occupied bandwidth "
            f"{bw:.3e} rad/s (need <= {dt_max:.3e} s)")
    return dt


def _check_aliasing(jsa: JointSpectralAmplitude) -> None:
    d = jsa.grid.detunings
    edge = 0.9 * (jsa.grid.span / 2.0)
    for axis in (0, 1):
        mass = jsa.axis_marginal(axis)
        frac = float(mass[np.abs(d) > edge].sum() / mass.sum())
        if frac >= 0.01:
            raise ResolutionError(
                f"{frac:.3%} of spectral mass sits in the outer 10% of "
                f"the frequency grid (axis {axis}); widen the grid")


def _transform_1d(t_grid: np.ndarray, detunings: np.ndarray,
                  vec: np.ndarray, spacing: float) -> np.ndarray:
    out = np.zeros(t_grid.size, dtype=complex)
    for k in range(0, detunings.size, _TRANSFORM_CHUNK):
        dk = detunings[k:k + _TRANSFORM_CHUNK]
        out += np.exp(-1j * np.outer(t_grid, dk)) @ vec[k:k + _TRANSFORM_CHUNK]
    return out * (spacing / TWO_PI)


def time_domain(jsa: JointSpectralAmplitude,
                t_grid: np.ndarray) -> np.ndarray:
    """Two-photon amplitude in detection time.

    Quadrature transform with psi(t) = integral psi(d) e^{-i d t} dd/2pi
    per axis.  Factored amplitudes transform one axis at a time, which is
    what makes very wide flat-pump grids affordable.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    _check_time_grid(jsa, t_grid)
    _check_aliasing(jsa)
    d = jsa.grid.detunings
    dd = jsa.grid.spacing
    if jsa.is_factored:
        u, v = jsa.factors
        su = _transform_1d(t_grid, d, u, dd)
        sv = _transform_1d(t_grid, d, v, dd)
        return np.outer(su, sv)
    e = np.exp(-1j * np.outer(t_grid, d)) * (dd / TWO_PI)
    return e @ jsa.amplitude @ e.T


def joint_time_distribution(jsa: JointSpectralAmplitude,
                            t_grid: np.ndarray) -> JointTimeDistribution:
    """Max-normalized |psi(t1, t2)|^2."""
    psi_t = time_domain(jsa, t_grid)
    return _density_from_amplitude(psi_t, t_grid)


def _density_from_amplitude(psi_t, t_grid):
    density = np.abs(psi_t) ** 2
    peak = density.max()
    if not peak > 0.0:
        raise InputError("density is identically zero")
    return JointTimeDistribution(t_grid=np.asarray(t_grid, float),
                                 density=density / peak)


def post_storage_distribution(jsa: JointSpectralAmplitude, eit_filter=None,
                              t_grid: np.ndarray = None) -> JointTimeDistribution:
    """Joint time distribution after the signal photon passed a spectral
    filter (axis 0 is the signal axis).

    eit_filter is a callable detuning -> complex amplitude, or a vector
    on the grid detunings, or None for the identity (which reproduces
    joint_time_distribution bit for bit).
    """
    if t_grid is None:
        raise InputError("t_grid is required")
    if eit_filter is None:
        return joint_time_distribution(jsa, t_grid)
    d = jsa.grid.detunings
    f = eit_filter(d) if callable(eit_filter) else np.asarray(eit_filter)
    f = np.asarray(f, dtype=complex)
    if f.shape != d.shape:
        raise InputError("filter must be sampled on the grid detunings")
    if jsa.is_factored:
        u, v = jsa.factors
        filtered = JointSpectralAmplitude(
            jsa.grid, factors=(u * f, v), normalized=False)
    else:
        filtered = JointSpectralAmplitude(
            jsa.grid, dense=jsa.amplitude * f[:, None], normalized=False)
    psi_t = time_domain(filtered, t_grid)
    return _density_from_amplitude(psi_t, t_grid)
