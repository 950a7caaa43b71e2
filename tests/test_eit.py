import math
import warnings

import numpy as np
import pytest

import qisim as q
from qisim.errors import (CapacityWarning, InputError, ModelError,
                          ResolutionError)
from qisim.spectral import TWO_PI

import refvals as rv
from helpers import parabolic_peak


def medium_gs0():
    return q.EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                       gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)


def medium_default():
    return q.EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                       gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                       length=4e-3)


def medium_off():
    return q.EitMedium(optical_depth=rv.OD, rabi_control=0.0,
                       gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                       length=4e-3)


# ------------------------------------------------------------- medium model

@pytest.mark.parametrize("kwargs", [
    {"optical_depth": -1.0},
    {"gamma_ge": 0.0},
    {"gamma_s": -1.0},
    {"rabi_control": -1.0},
    {"length": 0.0},
])
def test_medium_rejects_bad_parameters(kwargs):
    base = dict(optical_depth=rv.OD, rabi_control=rv.RABI,
                gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)
    base.update(kwargs)
    with pytest.raises(InputError):
        q.EitMedium(**base)


def test_on_resonance_transmission():
    assert abs(q.transmission(0.0, medium_gs0())) ** 2 == pytest.approx(
        1.0, rel=1e-12)
    assert abs(q.transmission(0.0, medium_default())) ** 2 == pytest.approx(
        rv.T0_DEFAULT, rel=1e-12)


def test_control_off_transmission_is_beer_lambert():
    t0 = abs(q.transmission(0.0, medium_off())) ** 2
    assert t0 == pytest.approx(math.exp(-rv.OD), rel=1e-12)


def test_transmission_is_passive():
    deltas = np.linspace(-100.0 * rv.GAMMA_GE, 100.0 * rv.GAMMA_GE, 4001)
    for med in (medium_gs0(), medium_default(), medium_off()):
        mags = np.abs(q.transmission(deltas, med))
        assert mags.max() <= 1.0 + 1e-12


def test_far_detuned_light_passes():
    med = medium_default()
    t50 = abs(q.transmission(50.0 * rv.GAMMA_GE, med))
    t100 = abs(q.transmission(100.0 * rv.GAMMA_GE, med))
    assert t50 == pytest.approx(rv.FAR_50, rel=1e-12)
    assert t100 == pytest.approx(rv.FAR_100, rel=1e-12)
    # residual absorption scales as (OD/2) * (gamma_ge / delta)^2
    assert 1.0 - t50 < 0.012
    assert 1.0 - t100 < 0.003


def test_transmission_scalar_passthrough():
    val = q.transmission(0.0, medium_gs0())
    assert isinstance(val, complex)


# ------------------------------------------------ window, delay, bandwidth

def test_window_fwhm_frozen():
    assert q.window_fwhm(medium_gs0()) == pytest.approx(rv.WINDOW_GS0,
                                                        rel=1e-9)
    assert q.window_fwhm(medium_default()) == pytest.approx(
        rv.WINDOW_DEFAULT, rel=1e-9)


def test_no_window_without_control_field():
    with pytest.raises(ModelError):
        q.window_fwhm(medium_off())


def test_group_delay_frozen():
    assert q.group_delay(medium_gs0()) == pytest.approx(rv.DELAY_GS0,
                                                        rel=1e-9)
    assert q.group_delay(medium_default()) == pytest.approx(
        rv.DELAY_DEFAULT, rel=1e-9)
    with pytest.raises(InputError):
        q.group_delay(medium_off())


def test_delay_positive_when_window_is_open():
    # slow light accompanies transparency
    for gamma_s in (0.0, rv.GAMMA_S_DEFAULT, 0.1 * rv.GAMMA_GE):
        med = q.EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                          gamma_ge=rv.GAMMA_GE, gamma_s=gamma_s,
                          length=4e-3)
        if abs(q.transmission(0.0, med)) ** 2 > math.exp(-rv.OD / 2.0):
            assert q.group_delay(med) > 0.0


def test_group_velocity_and_dbp_frozen():
    assert q.group_velocity(medium_gs0()) == pytest.approx(rv.VG_GS0,
                                                           rel=1e-9)
    assert q.group_velocity(medium_default()) == pytest.approx(
        rv.VG_DEFAULT, rel=1e-9)
    assert q.delay_bandwidth_product(medium_gs0()) == pytest.approx(
        rv.DBP_GS0, rel=1e-9)
    assert q.delay_bandwidth_product(medium_default()) == pytest.approx(
        rv.DBP_DEFAULT, rel=1e-9)


def test_dbp_is_the_angular_product():
    med = medium_gs0()
    prod = TWO_PI * q.window_fwhm(med) * q.group_delay(med)
    assert q.delay_bandwidth_product(med) == pytest.approx(prod, rel=1e-12)


def test_dbp_tracks_sqrt_optical_depth():
    # widening the window by decoherence never helps the product
    dbp = q.delay_bandwidth_product(medium_gs0())
    assert dbp < math.sqrt(rv.OD)
    med_hi = q.EitMedium(optical_depth=110.0, rabi_control=rv.RABI,
                         gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)
    assert q.delay_bandwidth_product(med_hi) > dbp


def test_solver_checks_its_bracket():
    from qisim.eit import _solve
    root = _solve(lambda x: math.cos(x) - x, 0.0, 1.0, 1e-15, "cos")
    assert root == pytest.approx(0.7390851332151607, abs=1e-15)
    assert _solve(lambda x: x - 0.25, 0.25, 1.0, 1e-9, "edge") == 0.25
    with pytest.raises(ModelError, match="^test root: no sign change"):
        _solve(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9, "test root")
    with pytest.raises(ModelError):
        _solve(lambda x: math.nan, 0.0, 1.0, 1e-9, "nan")


def test_solver_takes_the_steps_of_scipy_brentq():
    # scipy's brentq is the reference for the same iterates and root
    optimize = pytest.importorskip("scipy.optimize")
    from qisim.eit import _solve
    cases = [(lambda x: math.cos(x) - x, 0.0, 1.0, 1e-15),
             (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-3),
             (lambda x: math.exp(x) - 10.0, -5.0, 5.0, 1e-12),
             (lambda x: math.atan(x - 0.3), -10.0, 10.0, 1e-9),
             (lambda x: 1.0 if x < 0.7 else -1.0, 0.0, 1.0, 1e-6)]
    for f, a, b, xtol in cases:
        assert _solve(f, a, b, xtol, "case") == optimize.brentq(
            f, a, b, xtol=xtol)


def test_window_fwhm_finds_sub_khz_windows():
    # with gamma_s = 0 the narrow window grows as rabi^2
    media = [q.EitMedium(optical_depth=rv.OD, rabi_control=TWO_PI * r,
                         gamma_ge=rv.GAMMA_GE) for r in (5e4, 5e3, 5e2)]
    widths = [q.window_fwhm(m) for m in media]
    assert widths[0] < 1e3
    assert widths[0] / widths[1] == pytest.approx(100.0, rel=1e-4)
    assert widths[1] / widths[2] == pytest.approx(100.0, rel=1e-4)
    for w, m in zip(widths, media):
        # the half-width is found to within the solver's 1e-6 Hz
        edge = TWO_PI * (w / 2.0 + np.array([-1e-6, 1e-6]))
        inside, outside = np.abs(q.transmission(edge, m)) ** 2
        half = abs(q.transmission(0.0, m)) ** 2 / 2.0
        assert inside > half > outside


# ------------------------------------------------------------------ fitting

def test_fit_gamma_s_reaches_achievable_target():
    res = q.fit_gamma_s(medium_default(), rv.FIT29_TARGET)
    assert res.converged
    assert res.gamma_s == pytest.approx(rv.FIT29_GAMMA_S, abs=0.05)
    assert res.window_fwhm_hz == pytest.approx(rv.FIT29_TARGET, abs=0.1)
    assert res.target_hz == rv.FIT29_TARGET


def test_fit_gamma_s_reports_unreachable_target():
    res = q.fit_gamma_s(medium_default(), 5.5e6)
    assert not res.converged
    assert res.gamma_s == 0.0
    assert res.window_fwhm_hz == pytest.approx(rv.WINDOW_GS0, rel=1e-9)
    with pytest.raises(InputError):
        q.fit_gamma_s(medium_default(), 0.0)


def test_fit_gamma_s_does_not_converge_on_the_window_collapse():
    # no window between the collapse and gamma_s = 0 is as narrow as
    # 2.4 MHz; the search lands on the collapse edge
    res = q.fit_gamma_s(medium_default(), 2.4e6)
    assert not res.converged
    assert res.gamma_s > 0.0
    assert abs(res.window_fwhm_hz - 2.4e6) > 1.0


# ------------------------------------------------------------------- pulses

def test_pulse_validation():
    t = np.linspace(0.0, 1e-6, 64)
    p = q.Pulse(t, np.ones(64))
    assert p.dt == pytest.approx(t[1] - t[0], rel=1e-12)
    assert p.energy() == pytest.approx(64 * p.dt, rel=1e-12)
    with pytest.raises(InputError):
        q.Pulse(t[::-1], np.ones(64))
    bad = t.copy()
    bad[10] += 1e-9
    with pytest.raises(InputError):
        q.Pulse(bad, np.ones(64))
    with pytest.raises(InputError):
        q.Pulse(t, np.ones(32))


def test_gaussian_pulse_needs_exactly_one_width():
    t = np.linspace(0.0, 1e-6, 256)
    with pytest.raises(InputError):
        q.gaussian_pulse(t, 0.5e-6)
    with pytest.raises(InputError):
        q.gaussian_pulse(t, 0.5e-6, bandwidth_hz=1e6,
                         duration_fwhm_s=100e-9)


def test_gaussian_pulse_duration_convention():
    # 8193 points so the center lands on an exact sample
    t = np.linspace(0.0, 2e-6, 8193)
    p = q.gaussian_pulse(t, 1e-6, duration_fwhm_s=200e-9)
    intensity = np.abs(p.field) ** 2
    above = t[intensity >= 0.5 * intensity.max()]
    fwhm = above[-1] - above[0]
    assert fwhm == pytest.approx(200e-9, rel=1e-2)
    assert intensity.max() == pytest.approx(1.0, rel=1e-9)


def test_gaussian_pulse_bandwidth_convention():
    t = np.linspace(0.0, 100e-6, 65536)
    p = q.gaussian_pulse(t, 50e-6, bandwidth_hz=1e6)
    spec = np.abs(np.fft.fftshift(np.fft.fft(p.field))) ** 2
    f = np.fft.fftshift(np.fft.fftfreq(len(t), d=p.dt))
    above = f[spec >= 0.5 * spec.max()]
    assert above[-1] - above[0] == pytest.approx(1e6, rel=2e-2)


# -------------------------------------------------------------- propagation

def prop_grid():
    return np.linspace(-1e-6, 4e-6, 16384)


def test_propagation_through_transparent_medium_is_identity():
    med = q.EitMedium(optical_depth=1e-12, rabi_control=rv.RABI,
                      gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)
    pulse = q.gaussian_pulse(prop_grid(), 1.2e-6, bandwidth_hz=0.5e6)
    out = q.propagate(pulse, med)
    assert np.max(np.abs(out.field - pulse.field)) < 1e-9


@pytest.mark.parametrize("bw,med_fn,energy,ratio", [
    (0.5e6, medium_gs0, rv.PROP_EN_05MHZ_GS0, rv.PROP_RATIO_05MHZ_GS0),
    (0.5e6, medium_default, rv.PROP_EN_05MHZ_DEF, rv.PROP_RATIO_05MHZ_DEF),
    (1.0e6, medium_gs0, rv.PROP_EN_1MHZ_GS0, rv.PROP_RATIO_1MHZ_GS0),
    (1.0e6, medium_default, rv.PROP_EN_1MHZ_DEF, rv.PROP_RATIO_1MHZ_DEF),
])
def test_propagation_energy_and_delay(bw, med_fn, energy, ratio):
    med = med_fn()
    pulse = q.gaussian_pulse(prop_grid(), 1.2e-6, bandwidth_hz=bw)
    out = q.propagate(pulse, med)
    assert out.energy() / pulse.energy() == pytest.approx(energy, abs=1e-12)
    t_in = parabolic_peak(pulse.times, np.abs(pulse.field) ** 2)
    t_out = parabolic_peak(out.times, np.abs(out.field) ** 2)
    measured = (t_out - t_in) / q.group_delay(med)
    assert measured == pytest.approx(ratio, abs=1e-6)
    # narrowband pulses ride at the small-signal group delay
    assert abs(measured - 1.0) <= 0.05


def test_propagation_never_amplifies():
    t = np.linspace(0.0, 5e-6, 4096)
    env = np.exp(-((t - 2.5e-6) / 0.4e-6) ** 2)
    field = env * (np.cos(TWO_PI * 0.8e6 * t)
                   + 0.5 * np.sin(TWO_PI * 0.3e6 * t))
    pulse = q.Pulse(t, field)
    out = q.propagate(pulse, medium_default())
    assert out.energy() <= pulse.energy() * (1.0 + 1e-12)


def test_propagation_grid_guards():
    med = medium_default()
    coarse = np.linspace(0.0, 5e-6, 64)
    with pytest.raises(ResolutionError):
        q.propagate(q.gaussian_pulse(coarse, 2.5e-6,
                                     duration_fwhm_s=500e-9), med)
    short = np.linspace(0.0, 2e-6, 1024)
    with pytest.raises(ResolutionError):
        q.propagate(q.gaussian_pulse(short, 1e-6,
                                     duration_fwhm_s=300e-9), med)
    # a single-sample spike has a flat spectrum, so power piles up at the
    # edge of the resolvable band and the aliasing check fires
    fine = np.linspace(0.0, 5e-6, 16384)
    field = np.zeros(16384)
    field[8192] = 1.0
    with pytest.raises(ResolutionError):
        q.propagate(q.Pulse(fine, field), med)


# ------------------------------------------------------- control and decay

def test_control_timeline_envelope():
    tl = q.ControlTimeline(on_until=1e-6, off_duration=200e-9, ramp=20e-9)
    assert tl.envelope(0.0) == 1.0
    assert tl.envelope(1e-6 - 11e-9) == 1.0
    assert tl.envelope(1e-6) == pytest.approx(0.5, rel=1e-12)
    assert tl.envelope(1e-6 + 11e-9) == 0.0
    mid = np.linspace(1e-6 - 10e-9, 1e-6 + 10e-9, 101)
    env = np.array([tl.envelope(x) for x in mid])
    assert all(b <= a + 1e-12 for a, b in zip(env, env[1:]))
    with pytest.raises(InputError):
        q.ControlTimeline(on_until=1e-6, off_duration=-1.0, ramp=20e-9)
    with pytest.raises(InputError):
        q.ControlTimeline(on_until=1e-6, off_duration=1e-6, ramp=-1.0)


def test_memory_decay_shapes():
    gauss = q.MemoryDecay(tau_mem=1e-6, shape="gaussian")
    expo = q.MemoryDecay(tau_mem=1e-6, shape="exponential")
    assert gauss.eta(0.0) == 1.0
    assert expo.eta(0.0) == 1.0
    assert gauss.eta(1e-6) / gauss.eta(0.0) == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    assert expo.eta(2e-6) / expo.eta(1e-6) == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    arr = gauss.eta(np.array([0.0, 1e-6]))
    assert arr.shape == (2,)
    for bad in (-1e-9, math.nan, math.inf, np.array([0.0, math.nan])):
        with pytest.raises(InputError):
            gauss.eta(bad)
    with pytest.raises(InputError):
        q.MemoryDecay(tau_mem=1e-6, shape="linear")


@pytest.mark.parametrize("shape", ["gaussian", "exponential"])
def test_memory_decay_inverse(shape):
    decay = q.MemoryDecay(tau_mem=1e-6, shape=shape)
    for t in (0.0, 1e-7, 1e-6, 3e-6):
        assert decay.inverse(decay.eta(t)) == pytest.approx(t, rel=1e-12)
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(InputError):
            decay.inverse(bad)


@pytest.mark.parametrize("shape", ["gaussian", "exponential"])
def test_memory_decay_underflows_without_a_warning(shape):
    decay = q.MemoryDecay(tau_mem=1e-320, shape=shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decay.eta(4e-6) == 0.0
        assert decay.eta(np.array([0.0, 4e-6])).tolist() == [1.0, 0.0]


# ------------------------------------------------------------------ storage

def storage_setup(duration=200e-9, off_duration=200e-9,
                  tau_mem=1e-3, shape="gaussian"):
    med = medium_gs0()
    tau_d = q.group_delay(med)
    times = np.linspace(-0.5e-6, 3.5e-6, 8192)
    pulse = q.gaussian_pulse(times, 400e-9, duration_fwhm_s=duration)
    timeline = q.ControlTimeline(on_until=400e-9 + tau_d / 2.0,
                                 off_duration=off_duration, ramp=20e-9)
    decay = q.MemoryDecay(tau_mem=tau_mem, shape=shape)
    return pulse, med, timeline, decay


def test_storage_three_fate_split_frozen():
    report = q.store_and_retrieve(*storage_setup())
    assert report.leakage_efficiency == pytest.approx(rv.STORE_LEAK_200,
                                                      abs=1e-12)
    assert report.retrieval_efficiency == pytest.approx(rv.STORE_RETR_200,
                                                        abs=1e-12)
    assert report.absorbed_fraction == pytest.approx(rv.STORE_ABS_200,
                                                     abs=1e-12)
    total = (report.leakage_efficiency + report.retrieval_efficiency
             + report.absorbed_fraction)
    assert total <= 1.0 + 1e-12
    assert total >= 1.0 - 1e-3
    assert report.storage_time == 200e-9
    assert report.output_pulse.times[0] == pytest.approx(
        -0.5e-6 + 200e-9, rel=1e-12)


def test_storage_duration_sweep_frozen():
    leaks = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapacityWarning)
        for dur, (leak, retr, absorbed) in rv.STORE_SWEEP.items():
            rep = q.store_and_retrieve(*storage_setup(duration=dur))
            assert rep.leakage_efficiency == pytest.approx(leak, abs=1e-12)
            assert rep.retrieval_efficiency == pytest.approx(retr, abs=1e-12)
            assert rep.absorbed_fraction == pytest.approx(absorbed,
                                                          abs=1e-12)
            leaks.append(rep.leakage_efficiency)
    # wider inputs overflow the delay window
    assert all(b > a for a, b in zip(leaks, leaks[1:]))


def test_storage_capacity_warning_threshold():
    with warnings.catch_warnings():
        warnings.simplefilter("error", CapacityWarning)
        q.store_and_retrieve(*storage_setup(duration=600e-9))
    with pytest.warns(CapacityWarning):
        q.store_and_retrieve(*storage_setup(duration=1200e-9))


def test_storage_retrieval_scales_with_memory_decay():
    r1 = q.store_and_retrieve(*storage_setup(off_duration=200e-9,
                                             tau_mem=1e-6,
                                             shape="exponential"))
    r2 = q.store_and_retrieve(*storage_setup(off_duration=400e-9,
                                             tau_mem=1e-6,
                                             shape="exponential"))
    assert r2.leakage_efficiency == r1.leakage_efficiency
    scale = r2.retrieval_efficiency / r1.retrieval_efficiency
    assert scale == pytest.approx(math.exp(-0.2), rel=1e-12)


def test_storage_rejects_pulse_near_grid_edge():
    pulse, med, timeline, decay = storage_setup()
    late = q.gaussian_pulse(pulse.times, 3.3e-6, duration_fwhm_s=200e-9)
    with pytest.raises(InputError):
        q.store_and_retrieve(late, med, timeline, decay)


def test_storage_rejects_empty_pulse():
    pulse, med, timeline, decay = storage_setup()
    silent = q.Pulse(pulse.times, np.zeros_like(pulse.field))
    with pytest.raises(InputError):
        q.store_and_retrieve(silent, med, timeline, decay)


def test_storage_needs_live_memory():
    pulse, med, timeline, _ = storage_setup()
    dead = q.MemoryDecay(tau_mem=1e-9, shape="gaussian")
    with pytest.raises(ModelError):
        q.store_and_retrieve(pulse, med, timeline, dead)


def test_storage_report_validation():
    pulse = q.Pulse(np.linspace(0.0, 1e-6, 16), np.ones(16))
    with pytest.raises(InputError):
        q.StorageReport(leakage_efficiency=0.6, retrieval_efficiency=0.5,
                        storage_time=0.0, output_pulse=pulse,
                        absorbed_fraction=0.0)
    with pytest.raises(InputError):
        q.StorageReport(leakage_efficiency=-0.1, retrieval_efficiency=0.5,
                        storage_time=0.0, output_pulse=pulse,
                        absorbed_fraction=0.0)
