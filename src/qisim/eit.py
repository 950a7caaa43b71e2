"""Slow-light medium: transparency spectrum, window width, group delay
and the gamma_s fit.

Detunings and decay rates are angular (rad/s).  Pulses are not
propagated through the stored spin wave: storage enters the simulation
only through the retrieval decay `qubit.MemoryDecay`.
"""
from __future__ import annotations

import cmath
import math
import struct
import sys

from .errors import InputError, ModelError

# on-resonance intensity transmission below which the CLI reports no
# window: the half-width, delay and their products would describe a
# medium that passes nothing
TRANSPARENCY_FLOOR = 1e-6


class _in_range:
    """Turn a float overflow or invalid operation into one ModelError.
    A class, not a generator: transmission enters it once per scalar."""

    def __init__(self, what: str) -> None:
        self.what = what

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(
                kind, (OverflowError, ZeroDivisionError, FloatingPointError)):
            raise ModelError(f"{self.what} is out of floating-point range "
                             "for this medium") from None


def _finite(*values):
    """The last of values; OverflowError if a Python number among them is
    inf or nan, as Python's * / + give quietly where numpy's errstate traps."""
    for v in values:
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise OverflowError
    return values[-1]


class EitMedium:
    """Lambda-system ensemble parameters.

    gamma_ge is the optical coherence decay (half the excited-state
    linewidth); gamma_s the ground-state coherence decay.  Every value is
    finite, gamma_s >= 0, rabi_control >= 0 and the rest positive, as
    config checks the eit keys.
    """

    def __init__(self, optical_depth: float, rabi_control: float,
                 gamma_ge: float, gamma_s: float, length: float) -> None:
        self.optical_depth, self.rabi_control = optical_depth, rabi_control
        self.gamma_ge, self.gamma_s, self.length = gamma_ge, gamma_s, length


def _exponent(delta, medium: EitMedium):
    """ln t(delta) = -(OD/2) num/den, for a number or an array."""
    od, g_ge, g_s = medium.optical_depth, medium.gamma_ge, medium.gamma_s
    if medium.rabi_control == 0.0:
        num, den = g_ge, g_ge - 1j * delta
    else:
        num = g_ge * (g_s - 1j * delta)
        den = ((g_ge - 1j * delta) * (g_s - 1j * delta)
               + medium.rabi_control ** 2 / 4.0)
    # an inf den would make the exponent a quiet 0
    return _finite(den, -(od / 2.0) * num / den)


def transmission(delta, medium: EitMedium):
    """Complex amplitude transfer t(delta) of the ensemble at finite
    detunings: a complex for a Python number, an array for an array.

    With the control off the expression reduces to a plain absorption
    line, giving |t(0)|^2 = e^-OD on resonance.
    """
    if isinstance(delta, (int, float, complex)):
        with _in_range("transmission"):
            return cmath.exp(_exponent(complex(delta), medium))
    import numpy as np
    delta = np.asarray(delta, dtype=complex)
    with _in_range("transmission"), np.errstate(
            over="raise", invalid="raise", divide="raise"):
        return np.exp(_exponent(delta, medium))


# Half transmission in closed form (Fleischhauer, Imamoglu & Marangos,
# Rev. Mod. Phys. 77, 633 (2005)).  In units of gamma_ge, with
# g = gamma_s, k = rabi^2 / 4, x = delta^2 and l = ln 2 / OD,
#     |t|^2 = exp(-OD Re chi),  Re chi = (g A + x B) / (A^2 + x B^2),
#     A = g + k - x,  B = 1 + g,
# and Re chi(0) = g / (g + k).  Half the on-resonance transmission,
# Re chi = Re chi(0) + l, times (g + k)(A^2 + x B^2) is F(g, x) = 0:
# quadratic in x, cubic in g, and F > 0 where more than half passes.

def _scaled(medium: EitMedium) -> tuple:
    """(g, k, l), or an OverflowError if one is out of range."""
    g = medium.gamma_s / medium.gamma_ge
    k = (medium.rabi_control / (2.0 * medium.gamma_ge)) ** 2
    l = math.log(2.0) / medium.optical_depth
    _finite(g, k, l)
    return g, k, l


def _half_x(g, k, l) -> float:
    """Smallest positive root x of F(g, x) = 0, or nan if there is none."""
    p = g + k
    a = g + l * p
    b = g ** 3 - k * (2.0 * g + 1.0) + l * p * (1.0 + g * g - 2.0 * k)
    c = l * p ** 3
    disc = b * b - 4.0 * a * c
    _finite(a, b, c, disc)
    # a, c > 0: both roots are positive exactly when b < 0
    if not (b < 0.0 and disc >= 0.0):
        return math.nan
    return _finite(2.0 * c / (math.sqrt(disc) - b))


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
    with _in_range("the group delay"):
        g, k, _ = _scaled(medium)
        den = (g + k) ** 2 * medium.gamma_ge
        tau = _finite(den, medium.optical_depth / 2.0 * (k - g * g) / den)
    if not tau > 0.0:
        raise ModelError(f"group delay {tau:.6g} s is not positive; the "
                         "medium is outside the slow-light regime "
                         "gamma_s < rabi/2")
    return tau


# Polynomials are lists of coefficients, the highest power first.

def _polymul(a: list, b: list) -> list:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polyval(coef: list, x: float) -> float:
    y = 0.0
    for c in coef:
        y = y * x + c
    return y


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _rank(x: float) -> int:
    """Position of x among the floats: adjacent floats, adjacent ranks."""
    bits = _INT64.unpack(_DOUBLE.pack(x))[0]
    return bits if bits >= 0 else -bits - (1 << 63)


def _unrank(rank: int) -> float:
    return math.copysign(_DOUBLE.unpack(_INT64.pack(abs(rank)))[0], rank)


def _real_roots(coef: list) -> list:
    """The real roots of a polynomial, ascending, to adjacent floats.

    Leading zeros are dropped, as np.roots does.  Between the derivative's
    real roots, and out to the largest floats, it is monotonic: each sign
    change holds one root, which bisection over the floats' ranks finds
    in at most 64 steps of correctly rounded arithmetic."""
    coef = [_finite(float(c)) for c in coef]  # numpy scalars warn on overflow
    while coef and coef[0] == 0.0:
        coef = coef[1:]
    if len(coef) < 2:
        return []
    n = len(coef) - 1
    # the derivative over n: the same roots, and no coefficient grows
    turns = _real_roots([c * (n - i) / n for i, c in enumerate(coef[:-1])])
    ends = [-sys.float_info.max, *turns, sys.float_info.max]
    roots = []
    for lo, hi in zip(ends, ends[1:]):
        v_lo, v_hi = _polyval(coef, lo), _polyval(coef, hi)
        if v_lo == 0.0:
            roots.append(lo)
        elif v_hi and (v_lo < 0.0) != (v_hi < 0.0):
            # p(a) keeps v_lo's sign; p(b) has the other or is 0 (a root)
            a, b, neg = _rank(lo), _rank(hi), v_lo < 0.0
            while b - a > 1:
                mid = (a + b) // 2
                v = _polyval(coef, _unrank(mid))
                a, b = (mid, b) if v and (v < 0.0) == neg else (a, mid)
            roots.append(_unrank(b))
    return roots


def _cubic_in_x(k, l) -> tuple:
    """F(g, x) = c3 g^3 + c2 g^2 + c1 g + c0: each c as coefficients in x."""
    return ([1.0 + l, l], [l * k, 3.0 * l * k],
            [1.0 + l, l - 2.0 * k * (1.0 + l), 3.0 * l * k * k],
            [k * c for c in (l, l * (1.0 - 2.0 * k) - 1.0, l * k * k)])


def _narrowest(cubic, k, l, x0) -> tuple:
    """(g, x) of the narrowest window for g >= 0, or (0, x0) if none is
    narrower than x0 = x(g = 0).

    Where the window is narrowest two g roots of F(g, x) meet, so the
    cubic's discriminant vanishes.  That discriminant is x^2 times a
    quintic in x; each positive root gives the double root g.
    """
    c3, c2, c1, c0 = cubic
    m = _polymul
    disc = [0.0] * 8
    for scale, term in (
            (18.0, m(m(c3, c2), m(c1, c0))), (-4.0, m(m(c2, c2), m(c2, c0))),
            (1.0, m(m(c2, c1), m(c2, c1))), (-4.0, m(m(c3, c1), m(c1, c1))),
            (-27.0, m(m(c3, c0), m(c3, c0)))):
        for i, v in enumerate(term, len(disc) - len(term)):
            disc[i] += scale * v
    _finite(*disc)
    best = (0.0, x0)
    for x in [r for r in _real_roots(disc[:-2]) if r > 0.0]:
        v = [_polyval(coef, x) for coef in cubic]
        # scaled by a power of two, exactly, so no product below underflows
        e = math.frexp(max(map(abs, v)))[1]
        a, b, c, d = (math.ldexp(t, -e) for t in v)
        g = _finite((9.0 * a * d - b * c) / (2.0 * (b * b - 3.0 * a * c)))
        x_g = _half_x(g, k, l) if g >= 0.0 else math.nan
        if x_g < best[1]:
            best = (g, x_g)
    return best


def fit_gamma_s(medium: EitMedium, target_hz: float) -> tuple:
    """(fitted, reachable_hz): the medium with only gamma_s changed, tuned
    so its transparency window is target_hz wide, and the (narrowest,
    widest) windows, in Hz, of the fitted branch.

    Along gamma_s the window narrows from its width at gamma_s = 0 to a
    minimum, then widens again until it collapses.  A target between the
    two is met on the narrowing side: at the smallest non-negative root
    of the cubic F(gamma_s) = 0.  Outside that range the fitted medium
    has the nearest window: gamma_s = 0 for a wider target, the
    minimum's gamma_s for a narrower one.
    """
    if not (target_hz > 0.0 and math.isfinite(target_hz)):
        raise InputError("target window must be positive and finite")
    widest = window_fwhm(EitMedium(medium.optical_depth, medium.rabi_control,
                                   medium.gamma_ge, 0.0, medium.length))
    with _in_range("the gamma_s fit"):
        _, k, l = _scaled(medium)
        # a target wider than the widest window is met at gamma_s = 0,
        # however wide; its square would overflow from about 8e160 Hz
        x, x0 = ((math.pi * w / medium.gamma_ge) ** 2
                 for w in (min(target_hz, widest), widest))
        cubic = _cubic_in_x(k, l)
        g_min, x_min = _narrowest(cubic, k, l, x0)
        narrowest = medium.gamma_ge * math.sqrt(x_min) / math.pi
        if x >= x0:
            g = 0.0
        elif target_hz <= narrowest:  # x may round an ulp above x_min
            g = g_min
        else:
            coef = [_polyval(c, x) for c in cubic]
            # no real root left: rounding split the double root at g_min
            g = min((r for r in _real_roots(coef) if r >= 0.0),
                    default=g_min)
    return (EitMedium(medium.optical_depth, medium.rabi_control,
                      medium.gamma_ge, g * medium.gamma_ge, medium.length),
            (narrowest, widest))
