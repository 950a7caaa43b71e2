"""Slow-light medium: transparency spectrum, group delay, pulse propagation,
and a phenomenological storage/retrieval model.

Detunings and decay rates are angular (rad/s). The storage model is a
three-fate energy split (leaked, stored, absorbed) driven by the control
envelope and the group delay; it does not integrate the full atomic
dynamics.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (CapacityWarning, InputError, ModelError, RegimeWarning,
                     ResolutionError)
from .spectral import TWO_PI

DECAY_SHAPES = ("gaussian", "exponential")

# bracket cap for the half-transmission search, in ordinary Hz
_WINDOW_SEARCH_CAP_HZ = 1e9


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
    if medium.rabi_control == 0.0:
        out = np.exp(-(od / 2.0) * g_ge / (g_ge - 1j * delta))
    else:
        num = g_ge * (g_s - 1j * delta)
        den = ((g_ge - 1j * delta) * (g_s - 1j * delta)
               + medium.rabi_control ** 2 / 4.0)
        out = np.exp(-(od / 2.0) * num / den)
    return complex(out) if scalar else out


def window_fwhm(medium: EitMedium) -> float:
    """Full width (ordinary Hz) of the transparency window at half the
    on-resonance intensity transmission."""
    t0 = abs(transmission(0.0, medium)) ** 2

    def below_half(delta_hz: float) -> float:
        t = abs(transmission(TWO_PI * delta_hz, medium)) ** 2
        return t - t0 / 2.0

    hi = 1e3
    while below_half(hi) > 0.0:
        hi *= 1.3
        if hi > _WINDOW_SEARCH_CAP_HZ:
            raise ModelError(
                "no transparency window: transmission never falls to half "
                "its on-resonance value")
    half = brentq(below_half, hi / 1.3, hi, xtol=1e-6)
    return 2.0 * half


def group_delay(medium: EitMedium) -> float:
    """Slope of the transmission phase at zero detuning, seconds.

    Central difference with a step of 1e-3 of the window width.  A
    non-positive delay (over-broad or collapsed window) is reported with
    a warning rather than an error.
    """
    if medium.rabi_control <= 0.0:
        raise InputError("group delay needs a control field (rabi > 0)")
    h = 1e-3 * TWO_PI * window_fwhm(medium)
    ph = np.angle(transmission(np.array([h, -h]), medium))
    tau = float((ph[0] - ph[1]) / (2.0 * h))
    if tau <= 0.0:
        warnings.warn("non-positive group delay; medium is outside the "
                      "slow-light regime", RegimeWarning, stacklevel=2)
    return tau


def group_velocity(medium: EitMedium) -> float:
    tau = group_delay(medium)
    if tau <= 0.0:
        raise ModelError("group velocity undefined for non-positive delay")
    return medium.length / tau


def delay_bandwidth_product(medium: EitMedium) -> float:
    """2*pi * window FWHM (Hz) * group delay; the angular convention is
    deliberate and matches how the figure of merit is quoted here."""
    return TWO_PI * window_fwhm(medium) * group_delay(medium)


@dataclass(frozen=True)
class FitResult:
    gamma_s: float
    window_fwhm_hz: float
    target_hz: float
    converged: bool


def fit_gamma_s(medium: EitMedium, target_hz: float,
                xtol: float = 1e-3) -> FitResult:
    """Tune gamma_s so the transparency window matches target_hz.

    The window shrinks monotonically with gamma_s, so gamma_s = 0 bounds
    what the remaining parameters can reach; an unreachable target
    returns that bound with converged = False instead of raising.
    """
    if not target_hz > 0.0:
        raise InputError("target window must be positive")

    def with_gs(gs: float) -> EitMedium:
        return EitMedium(medium.optical_depth, medium.rabi_control,
                         medium.gamma_ge, gs, medium.length)

    def gap(gs: float) -> float:
        try:
            return window_fwhm(with_gs(gs)) - target_hz
        except ModelError:
            # collapsed window counts as below target
            return -target_hz

    best = window_fwhm(with_gs(0.0))
    if best < target_hz:
        return FitResult(0.0, best, target_hz, False)
    hi = medium.gamma_ge / 100.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 100.0 * medium.gamma_ge:
            return FitResult(0.0, best, target_hz, False)
    root = brentq(gap, 0.0, hi, xtol=xtol)
    return FitResult(float(root), window_fwhm(with_gs(float(root))),
                     target_hz, True)


# ---------------------------------------------------------------- pulses

@dataclass(frozen=True)
class Pulse:
    """Complex field samples on a uniform time grid (seconds)."""

    times: np.ndarray
    field: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.field)
        if t.ndim != 1 or t.size < 2 or f.shape != t.shape:
            raise InputError("times and field must be 1-d arrays of equal "
                             "length >= 2")
        steps = np.diff(t)
        if steps[0] <= 0.0 or not np.allclose(steps, steps[0],
                                              rtol=1e-9, atol=0.0):
            raise InputError("time grid must be uniform and increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "field", np.asarray(f, dtype=complex))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def energy(self) -> float:
        return float(np.sum(np.abs(self.field) ** 2)) * self.dt


def gaussian_pulse(times: np.ndarray, center: float, *,
                   bandwidth_hz: float = None,
                   duration_fwhm_s: float = None) -> Pulse:
    """Unit-peak Gaussian pulse, sized either by its intensity-spectrum
    FWHM (Hz) or by its intensity FWHM in time (s); exactly one."""
    if (bandwidth_hz is None) == (duration_fwhm_s is None):
        raise InputError("give exactly one of bandwidth_hz, duration_fwhm_s")
    if bandwidth_hz is not None:
        if not bandwidth_hz > 0.0:
            raise InputError("bandwidth_hz must be positive")
        s_t = math.sqrt(math.log(2.0)) / (math.pi * bandwidth_hz)
    else:
        if not duration_fwhm_s > 0.0:
            raise InputError("duration_fwhm_s must be positive")
        s_t = duration_fwhm_s / (2.0 * math.sqrt(math.log(2.0)))
    t = np.asarray(times, dtype=float)
    return Pulse(t, np.exp(-(t - center) ** 2 / (2.0 * s_t ** 2)))


def propagate(pulse: Pulse, medium: EitMedium) -> Pulse:
    """Apply the transmission filter in the frequency domain.

    The record length sets the frequency resolution and the step sets the
    bandwidth; both are checked against the medium's scales before the
    transform.
    """
    n = pulse.times.size
    dt = pulse.dt
    fast = max(medium.gamma_ge, medium.rabi_control)
    if dt * fast > math.pi / 8.0:
        raise ResolutionError(
            f"time step {dt:.3e} s too coarse for medium response scale "
            f"{fast:.3e} rad/s")
    dd = TWO_PI / (n * dt)
    if dd > medium.gamma_ge / 8.0:
        raise ResolutionError(
            f"record too short: frequency spacing {dd:.3e} rad/s does not "
            f"resolve gamma_ge = {medium.gamma_ge:.3e} rad/s")
    delta = TWO_PI * np.fft.fftfreq(n, d=dt)
    spec = np.fft.ifft(pulse.field)
    power = np.abs(spec) ** 2
    total = float(power.sum())
    if total > 0.0:
        outer = float(power[np.abs(delta) > 0.9 * delta.max()].sum())
        if outer / total >= 0.01:
            raise ResolutionError(
                "pulse spectrum reaches the edge of the sampled band; "
                "decrease the time step")
    out = np.fft.fft(spec * transmission(delta, medium))
    return Pulse(pulse.times, out)


# ---------------------------------------------------------------- storage

@dataclass(frozen=True)
class ControlTimeline:
    """Control-field schedule: full power until on_until (minus half a
    ramp), a cos^2 ramp to zero, dark for off_duration, then back on."""

    on_until: float
    off_duration: float
    ramp: float

    def __post_init__(self) -> None:
        if self.on_until < 0.0:
            raise InputError("on_until must be >= 0")
        if self.off_duration < 0.0:
            raise InputError("off_duration must be >= 0")
        if not self.ramp > 0.0:
            raise InputError("ramp must be positive")

    def envelope(self, t: np.ndarray) -> np.ndarray:
        x = (np.asarray(t, dtype=float)
             - (self.on_until - self.ramp / 2.0)) / self.ramp
        w = np.ones_like(x)
        w[x >= 1.0] = 0.0
        mid = (x > 0.0) & (x < 1.0)
        w[mid] = np.cos(0.5 * math.pi * x[mid]) ** 2
        return w


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
        if self.shape == "gaussian":
            out = np.exp(-((t / self.tau_mem) ** 2))
        else:
            out = np.exp(-t / self.tau_mem)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StorageReport:
    leakage_efficiency: float
    retrieval_efficiency: float
    storage_time: float
    output_pulse: Pulse
    absorbed_fraction: float

    def __post_init__(self) -> None:
        for name in ("leakage_efficiency", "retrieval_efficiency",
                     "absorbed_fraction"):
            val = getattr(self, name)
            if not -1e-9 <= val <= 1.0 + 1e-9:
                raise InputError(f"{name} = {val!r} outside [0, 1]")
        if self.leakage_efficiency + self.retrieval_efficiency > 1.0 + 1e-6:
            raise InputError("leakage + retrieval exceeds unity")


def store_and_retrieve(pulse: Pulse, medium: EitMedium,
                       timeline: ControlTimeline,
                       decay: MemoryDecay) -> StorageReport:
    """Three-fate storage model.

    A field sample entering the medium leaves it one group delay later.
    Samples whose exit time falls after the control switch-off stay in
    the ensemble as a spin wave (stored); samples that exit earlier leak
    through.  The split is applied as geometric gating weights before the
    linear propagation filter, so leaked + stored + absorbed add to one
    by construction.
    """
    tau_d = group_delay(medium)
    if tau_d <= 0.0:
        raise ModelError("storage requires a positive group delay")
    e_in = pulse.energy()
    if not e_in > 0.0:
        raise InputError("input pulse has zero energy")
    t = pulse.times
    dt = pulse.dt

    # the delayed output must not wrap around the periodic record
    guard = t[-1] - (tau_d + 4.0 * timeline.ramp)
    tail = float(np.sum(np.abs(pulse.field[t > guard]) ** 2)) * dt
    if tail > 1e-3 * e_in:
        raise InputError(
            "pulse sits too close to the end of the time window for the "
            "delayed output to fit; extend the grid")

    # delay-bandwidth capacity: intensity-weighted duration vs 2*tau_d
    w = np.abs(pulse.field) ** 2
    mean = float(np.sum(w * t) / w.sum())
    std = math.sqrt(float(np.sum(w * (t - mean) ** 2) / w.sum()))
    eff_duration = 2.3548 * std
    if eff_duration > 2.0 * tau_d:
        warnings.warn(
            f"pulse duration {eff_duration:.3e} s exceeds the medium's "
            f"delay capacity 2*tau_d = {2.0 * tau_d:.3e} s; leakage will "
            "dominate", CapacityWarning, stacklevel=2)

    won_entry = timeline.envelope(t)
    won_exit = timeline.envelope(t + tau_d)
    g_leak = np.sqrt(won_entry * won_exit)
    g_store = np.sqrt(won_entry * (1.0 - won_exit))

    leak_out = propagate(Pulse(t, pulse.field * g_leak), medium)
    store_out = propagate(Pulse(t, pulse.field * g_store), medium)
    frac_leak = leak_out.energy() / e_in
    frac_store = store_out.energy() / e_in

    eta_ts = float(decay.eta(timeline.off_duration))
    if not eta_ts > 0.0:
        raise ModelError("retrieval efficiency decayed to zero")

    retrieved = Pulse(t + timeline.off_duration,
                      store_out.field * math.sqrt(eta_ts))
    return StorageReport(
        leakage_efficiency=frac_leak,
        retrieval_efficiency=eta_ts * frac_store,
        storage_time=timeline.off_duration,
        output_pulse=retrieved,
        absorbed_fraction=max(0.0, 1.0 - frac_leak - frac_store),
    )
