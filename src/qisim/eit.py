"""Slow-light medium: transparency spectrum, window width, group delay,
the gamma_s fit, and the memory's retrieval decay versus storage time.

Detunings and decay rates are angular (rad/s). Storage enters the
simulation only through MemoryDecay, which the qubit channel and the
g13 model read; pulses are not propagated through the stored spin wave.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelError
from .spectral import TWO_PI

DECAY_SHAPES = ("gaussian", "exponential")

# bracket cap for the half-transmission search, in ordinary Hz
_WINDOW_SEARCH_CAP_HZ = 1e9

# Probe detunings for the half-transmission search, ordinary Hz:
# 1 kHz * 1.3**n for n = -26 .. 52, from about 1.09 Hz to the last step
# below the cap.  Built by repeated multiplication, so the brackets above
# 1 kHz are exactly the ones an outward 1.3x stepping from 1 kHz visits.
_WINDOW_PROBES_HZ = np.concatenate([
    1e3 / np.cumprod(np.full(26, 1.3))[::-1],
    np.cumprod(np.r_[1e3, np.full(52, 1.3)])])

# a gamma_s fit whose window misses the target by more than this
# fraction of it has landed on the window-collapse discontinuity
_FIT_WINDOW_RTOL = 1e-6

_SOLVER_RTOL = 4.0 * np.finfo(float).eps

# on-resonance intensity transmission below which the CLI reports no
# window: the half-width, delay and their products would describe a
# medium that passes nothing
TRANSPARENCY_FLOOR = 1e-6


def _solve(f, a: float, b: float, xtol: float, what: str) -> float:
    """Root of f inside [a, b] by Brent's method (Brent 1973, ch. 4),
    stopping when the bracket is narrower than xtol + 4 eps |x|.

    The bracket must change sign; a ModelError names `what` otherwise.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        raise ModelError(f"{what}: no sign change between {a:.6g} and "
                         f"{b:.6g}")
    c, fc, step = a, fa, b - a
    prev = step
    for _ in range(100):
        if (fa < 0.0) != (fb < 0.0) and fa != 0.0:
            # the previous iterate is across the root: new contrapoint
            c, fc, step = a, fa, b - a
            prev = step
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = (xtol + _SOLVER_RTOL * abs(b)) / 2.0
        half = (c - b) / 2.0
        if fb == 0.0 or abs(half) < tol:
            return b
        trial = None
        if abs(prev) > tol and abs(fb) < abs(fa):
            if a == c:      # secant
                num, den = -fb * (b - a), fb - fa
            else:           # inverse quadratic interpolation
                da, dc = (fa - fb) / (a - b), (fc - fb) / (c - b)
                num, den = -fb * (fc * dc - fa * da), dc * da * (fc - fa)
            # a denominator that underflowed to 0 or overflowed: bisect
            if den != 0.0 and math.isfinite(den):
                trial = num / den
                if not 2.0 * abs(trial) < min(abs(prev),
                                               3.0 * abs(half) - tol):
                    trial = None
        if trial is None:
            prev = step = half
        else:
            prev, step = step, trial
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)
    raise ModelError(f"{what}: root search did not converge")


@dataclass(frozen=True)
class EitMedium:
    """Lambda-system ensemble parameters.

    gamma_ge is the optical coherence decay (half the excited-state
    linewidth); gamma_s the ground-state coherence decay.
    """

    optical_depth: float
    rabi_control: float
    gamma_ge: float
    gamma_s: float = 0.0
    length: float = 4e-3

    def __post_init__(self) -> None:
        if not (self.optical_depth > 0.0 and math.isfinite(self.optical_depth)):
            raise InputError("optical_depth must be positive and finite")
        if not (self.rabi_control >= 0.0 and math.isfinite(self.rabi_control)):
            raise InputError("rabi_control must be >= 0 and finite")
        if not (self.gamma_ge > 0.0 and math.isfinite(self.gamma_ge)):
            raise InputError("gamma_ge must be positive and finite")
        if not (self.gamma_s >= 0.0 and math.isfinite(self.gamma_s)):
            raise InputError("gamma_s must be >= 0 and finite")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise InputError("length must be positive and finite")


def transmission(delta, medium: EitMedium):
    """Complex amplitude transfer t(delta) of the ensemble.

    With the control off the expression reduces to a plain absorption
    line, giving |t(0)|^2 = e^-OD on resonance.
    """
    scalar = np.isscalar(delta)
    delta = np.asarray(delta, dtype=complex)
    if not np.all(np.isfinite(delta)):
        raise InputError("detunings must be finite")
    od, g_ge, g_s = medium.optical_depth, medium.gamma_ge, medium.gamma_s
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if medium.rabi_control == 0.0:
                out = np.exp(-(od / 2.0) * g_ge / (g_ge - 1j * delta))
            else:
                num = g_ge * (g_s - 1j * delta)
                den = ((g_ge - 1j * delta) * (g_s - 1j * delta)
                       + medium.rabi_control ** 2 / 4.0)
                out = np.exp(-(od / 2.0) * num / den)
    except (OverflowError, FloatingPointError):
        raise ModelError("transmission is out of floating-point range for "
                         "this medium") from None
    return complex(out) if scalar else out


def window_fwhm(medium: EitMedium) -> float:
    """Full width (ordinary Hz) of the transparency window at half the
    on-resonance intensity transmission.

    The half-width is refined inside the first of the log-spaced probes
    where the transmission has fallen to half.
    """
    t0 = abs(transmission(0.0, medium)) ** 2
    if not t0 > 0.0:
        raise ModelError("no transparency window: on-resonance "
                         "transmission is zero")

    def below_half(delta_hz: float) -> float:
        t = abs(transmission(TWO_PI * delta_hz, medium)) ** 2
        return t - t0 / 2.0

    probes = np.abs(transmission(TWO_PI * _WINDOW_PROBES_HZ, medium)) ** 2
    fallen = np.flatnonzero(probes <= t0 / 2.0)
    if fallen.size == 0:
        raise ModelError(
            "no transparency window: transmission never falls to half "
            "its on-resonance value")
    k = int(fallen[0])
    lo = _WINDOW_PROBES_HZ[k - 1] if k else 0.0
    half = _solve(below_half, float(lo), float(_WINDOW_PROBES_HZ[k]), 1e-6,
                  "transparency half-width")
    return 2.0 * half


def group_delay(medium: EitMedium) -> float:
    """Slope of the transmission phase at zero detuning, seconds.

    Central difference with a step of 1e-3 of the window width.  A
    non-positive delay (over-broad or collapsed window) raises
    ModelError: the medium is outside the slow-light regime.
    """
    if medium.rabi_control <= 0.0:
        raise InputError("group delay needs a control field (rabi > 0)")
    h = 1e-3 * TWO_PI * window_fwhm(medium)
    ph = np.angle(transmission(np.array([h, -h]), medium))
    tau = float((ph[0] - ph[1]) / (2.0 * h))
    if not tau > 0.0:
        raise ModelError(f"group delay {tau:.6g} s is not positive; the "
                         "medium is outside the slow-light regime")
    return tau


@dataclass(frozen=True)
class FitResult:
    gamma_s: float
    window_fwhm_hz: float
    target_hz: float
    converged: bool


def fit_gamma_s(medium: EitMedium, target_hz: float,
                xtol: float = 1e-3) -> FitResult:
    """Tune gamma_s so the transparency window matches target_hz.

    The window first shrinks with gamma_s, so gamma_s = 0 bounds what the
    remaining parameters can reach; an unreachable target returns that
    bound with converged = False instead of raising.  Further out the
    window collapses (no half-transmission point).  A target narrower
    than every window before the collapse makes the search land on that
    edge; the window there misses the target, and the result has
    converged = False and the edge's gamma_s.
    """
    if not target_hz > 0.0:
        raise InputError("target window must be positive")

    def window_at(gs: float) -> float:
        try:
            return window_fwhm(EitMedium(medium.optical_depth,
                                         medium.rabi_control,
                                         medium.gamma_ge, gs, medium.length))
        except ModelError:
            # collapsed window counts as below target
            return 0.0

    def gap(gs: float) -> float:
        return window_at(gs) - target_hz

    best = window_at(0.0)
    if best < target_hz:
        return FitResult(0.0, best, target_hz, False)
    hi = medium.gamma_ge / 100.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 100.0 * medium.gamma_ge:
            return FitResult(0.0, best, target_hz, False)
    root = _solve(gap, 0.0, hi, xtol, "gamma_s fit")
    achieved = window_at(root)
    return FitResult(root, achieved, target_hz,
                     abs(achieved - target_hz) <= _FIT_WINDOW_RTOL * target_hz)


# ---------------------------------------------------------------- memory

@dataclass(frozen=True)
class MemoryDecay:
    """Retrieval efficiency versus storage time, relative to t = 0.

    Only the shape matters: every figure of merit is post-selected on a
    retrieved photon, so a constant efficiency factor cancels.
    """

    tau_mem: float = 1e-6
    shape: str = "gaussian"

    def __post_init__(self) -> None:
        if not self.tau_mem > 0.0:
            raise InputError("tau_mem must be positive")
        if self.shape not in DECAY_SHAPES:
            raise InputError(f"shape must be one of {DECAY_SHAPES}")

    def eta(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise InputError("storage time must be finite and >= 0")
        # t / tau_mem may overflow to inf; eta then underflows to 0
        with np.errstate(over="ignore"):
            x = t / self.tau_mem
            out = np.exp(-(x ** 2 if self.shape == "gaussian" else x))
        return float(out) if out.ndim == 0 else out

    def inverse(self, eta: float) -> float:
        """Storage time at which eta(t) has fallen to eta, 0 < eta <= 1."""
        if not 0.0 < eta <= 1.0:
            raise InputError("eta must be in (0, 1]")
        x = -math.log(eta)
        return self.tau_mem * (math.sqrt(x) if self.shape == "gaussian"
                               else x)
