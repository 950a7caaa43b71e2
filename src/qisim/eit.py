"""Slow-light medium: transparency spectrum, window width, group delay,
the gamma_s fit, and the memory's retrieval decay versus storage time.

Detunings and decay rates are angular (rad/s). Storage enters the
simulation only through MemoryDecay, which the qubit channel and the
g13 model read; pulses are not propagated through the stored spin wave.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ModelError

DECAY_SHAPES = ("gaussian", "exponential")

# on-resonance intensity transmission below which the CLI reports no
# window: the half-width, delay and their products would describe a
# medium that passes nothing
TRANSPARENCY_FLOOR = 1e-6


@contextlib.contextmanager
def _in_range(what: str):
    """Turn a float overflow or invalid operation into one ModelError."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise ModelError(f"{what} is out of floating-point range for this "
                         "medium") from None


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
    with _in_range("transmission"):
        if medium.rabi_control == 0.0:
            out = np.exp(-(od / 2.0) * g_ge / (g_ge - 1j * delta))
        else:
            num = g_ge * (g_s - 1j * delta)
            den = ((g_ge - 1j * delta) * (g_s - 1j * delta)
                   + medium.rabi_control ** 2 / 4.0)
            out = np.exp(-(od / 2.0) * num / den)
    return complex(out) if scalar else out


# Half transmission in closed form (Fleischhauer, Imamoglu & Marangos,
# Rev. Mod. Phys. 77, 633 (2005)).  In units of gamma_ge, with
# g = gamma_s, k = rabi^2 / 4, x = delta^2 and l = ln 2 / OD,
#     |t|^2 = exp(-OD Re chi),  Re chi = (g A + x B) / (A^2 + x B^2),
#     A = g + k - x,  B = 1 + g,
# and Re chi(0) = g / (g + k).  Half the on-resonance transmission,
# Re chi = Re chi(0) + l, times (g + k)(A^2 + x B^2) is F(g, x) = 0:
# quadratic in x, cubic in g, and F > 0 where more than half passes.

def _scaled(medium: EitMedium) -> tuple:
    """(g, k, l) as float64, so that an overflow raises under _in_range."""
    g_ge = np.float64(medium.gamma_ge)
    return (medium.gamma_s / g_ge, (medium.rabi_control / (2.0 * g_ge)) ** 2,
            np.log(2.0) / medium.optical_depth)


def _half_x(g, k, l) -> float:
    """Smallest positive root x of F(g, x) = 0, or nan if there is none."""
    p = g + k
    a = g + l * p
    b = g ** 3 - k * (2.0 * g + 1.0) + l * p * (1.0 + g * g - 2.0 * k)
    c = l * p ** 3
    disc = b * b - 4.0 * a * c
    # a, c > 0: both roots are positive exactly when b < 0
    if not (b < 0.0 and disc >= 0.0):
        return math.nan
    return float(2.0 * c / (math.sqrt(disc) - b))


def window_fwhm(medium: EitMedium) -> float:
    """Full width (ordinary Hz) of the transparency window at half the
    on-resonance intensity transmission: 2 sqrt(x) / 2 pi at the first
    half-transmission point x = delta^2.
    """
    with _in_range("the transparency window"):
        x = _half_x(*_scaled(medium))
    if math.isnan(x):
        raise ModelError(
            "no transparency window: transmission never falls to half "
            "its on-resonance value")
    return medium.gamma_ge * math.sqrt(x) / math.pi


def group_delay(medium: EitMedium) -> float:
    """Slope of the transmission phase at zero detuning, seconds:
    (OD / 2) (k - g^2) / (g + k)^2 / gamma_ge.

    It is positive only for gamma_s < rabi / 2; outside that slow-light
    regime a ModelError is raised.
    """
    if medium.rabi_control <= 0.0:
        raise InputError("group delay needs a control field (rabi > 0)")
    with _in_range("the group delay"):
        g, k, _ = _scaled(medium)
        tau = float(medium.optical_depth / 2.0 * (k - g * g)
                    / ((g + k) ** 2 * medium.gamma_ge))
    if not tau > 0.0:
        raise ModelError(f"group delay {tau:.6g} s is not positive; the "
                         "medium is outside the slow-light regime "
                         "gamma_s < rabi/2")
    return tau


@dataclass(frozen=True)
class FitResult:
    gamma_s: float
    window_fwhm_hz: float
    target_hz: float
    # (narrowest window, window at gamma_s = 0) on the fitted branch
    reachable_hz: tuple


def _cubic_in_x(k, l) -> tuple:
    """F(g, x) = c3 g^3 + c2 g^2 + c1 g + c0: each c as coefficients in x."""
    return (np.array([1.0 + l, l]), np.array([l * k, 3.0 * l * k]),
            np.array([1.0 + l, l - 2.0 * k * (1.0 + l), 3.0 * l * k * k]),
            k * np.array([l, l * (1.0 - 2.0 * k) - 1.0, l * k * k]))


def _narrowest(cubic, k, l, x0) -> tuple:
    """(g, x) of the narrowest window for g >= 0, or (0, x0) if none is
    narrower than x0 = x(g = 0).

    Where the window is narrowest two g roots of F(g, x) meet, so the
    cubic's discriminant vanishes.  That discriminant is x^2 times a
    quintic in x; each positive root gives the double root g.
    """
    c3, c2, c1, c0 = cubic
    m = np.polymul
    disc = functools.reduce(np.polyadd, (
        18.0 * m(m(c3, c2), m(c1, c0)), -4.0 * m(m(c2, c2), m(c2, c0)),
        m(m(c2, c1), m(c2, c1)), -4.0 * m(m(c3, c1), m(c1, c1)),
        -27.0 * m(m(c3, c0), m(c3, c0))))
    best = (0.0, x0)
    for x in np.roots(disc[:-2]):
        if x.imag != 0.0 or not x.real > 0.0:
            continue
        a, b, c, d = (np.polyval(coef, x.real) for coef in cubic)
        g = (9.0 * a * d - b * c) / (2.0 * (b * b - 3.0 * a * c))
        x_g = _half_x(g, k, l) if g >= 0.0 else math.nan
        if x_g < best[1]:
            best = (g, x_g)
    return best


def fit_gamma_s(medium: EitMedium, target_hz: float) -> FitResult:
    """Tune gamma_s so the transparency window is target_hz wide.

    Along gamma_s the window narrows from its width at gamma_s = 0 to a
    minimum, then widens again until it collapses.  A target between the
    two, reachable_hz, is met on the narrowing side: at the smallest
    non-negative root of the cubic F(gamma_s) = 0.  Outside that range
    the result is the nearest window: gamma_s = 0 for a wider target,
    the minimum's gamma_s for a narrower one.
    """
    if not (target_hz > 0.0 and math.isfinite(target_hz)):
        raise InputError("target window must be positive and finite")
    widest = window_fwhm(replace(medium, gamma_s=0.0))
    with _in_range("the gamma_s fit"):
        _, k, l = _scaled(medium)
        x, x0 = ((math.pi * w / medium.gamma_ge) ** 2
                 for w in (target_hz, widest))
        cubic = _cubic_in_x(k, l)
        g_min, x_min = _narrowest(cubic, k, l, x0)
        if x >= x0:
            g = 0.0
        elif x <= x_min:
            g = g_min
        else:
            roots = np.roots([np.polyval(coef, x) for coef in cubic])
            # no real root left: rounding split the double root at g_min
            g = min((r.real for r in roots
                     if r.imag == 0.0 and r.real >= 0.0), default=g_min)
    fitted = replace(medium, gamma_s=float(g * medium.gamma_ge))
    return FitResult(fitted.gamma_s, window_fwhm(fitted), target_hz,
                     (medium.gamma_ge * math.sqrt(x_min) / math.pi, widest))


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
