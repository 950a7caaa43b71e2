import math
import re
import warnings

import numpy as np
import pytest

from qisim import config
from qisim.eit import (EitMedium, fit_gamma_s, group_delay, transmission,
                       window_fwhm)
from qisim.errors import InputError, ModelError
from qisim.qubit import MemoryDecay
from qisim.spectral import TWO_PI

import oracles
import refvals as rv


def medium_gs0():
    return EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                     gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)


def medium_default():
    return EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                     gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                     length=4e-3)


def medium_off():
    return EitMedium(optical_depth=rv.OD, rabi_control=0.0,
                     gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                     length=4e-3)


# ------------------------------------------------------------- medium model

# EitMedium's parameters and the config keys they are built from
_MEDIUM_KEYS = {"optical_depth": "eit.od", "rabi_control": "eit.rabi_hz",
                "gamma_ge": "eit.gamma_ge_hz", "gamma_s": "eit.gamma_s_hz",
                "length": "eit.length_m"}


@pytest.mark.parametrize("kwargs", [
    {"optical_depth": -1.0},
    {"gamma_ge": 0.0},
    {"gamma_s": -1.0},
    {"rabi_control": -1.0},
    {"length": 0.0},
])
def test_medium_rejects_bad_parameters(kwargs):
    # config is the medium's one gate: it refuses the key that holds the
    # bad value, before any medium exists
    (name, value), = kwargs.items()
    key = _MEDIUM_KEYS[name]
    with pytest.raises(InputError, match=f"^{re.escape(key)} "):
        config.load_config(overrides=(f"{key}={value!r}",))


def test_on_resonance_transmission():
    assert abs(transmission(0.0, medium_gs0())) ** 2 == pytest.approx(
        1.0, rel=1e-12)
    assert abs(transmission(0.0, medium_default())) ** 2 == pytest.approx(
        rv.T0_DEFAULT, rel=1e-12)


def test_control_off_transmission_is_beer_lambert():
    t0 = abs(transmission(0.0, medium_off())) ** 2
    assert t0 == pytest.approx(math.exp(-rv.OD), rel=1e-12)


def test_transmission_is_passive():
    deltas = np.linspace(-100.0 * rv.GAMMA_GE, 100.0 * rv.GAMMA_GE, 4001)
    for med in (medium_gs0(), medium_default(), medium_off()):
        mags = np.abs(transmission(deltas, med))
        assert mags.max() <= 1.0 + 1e-12


def test_far_detuned_light_passes():
    med = medium_default()
    t50 = abs(transmission(50.0 * rv.GAMMA_GE, med))
    t100 = abs(transmission(100.0 * rv.GAMMA_GE, med))
    assert t50 == pytest.approx(rv.FAR_50, rel=1e-12)
    assert t100 == pytest.approx(rv.FAR_100, rel=1e-12)
    # residual absorption scales as (OD/2) * (gamma_ge / delta)^2
    assert 1.0 - t50 < 0.012
    assert 1.0 - t100 < 0.003


def test_transmission_scalar_passthrough():
    val = transmission(0.0, medium_gs0())
    assert isinstance(val, complex)


# ------------------------------------------------ window, delay, bandwidth

def test_window_fwhm_frozen():
    assert window_fwhm(medium_gs0()) == pytest.approx(rv.WINDOW_GS0,
                                                      rel=1e-9)
    assert window_fwhm(medium_default()) == pytest.approx(
        rv.WINDOW_DEFAULT, rel=1e-9)


def test_no_window_without_control_field():
    with pytest.raises(ModelError):
        window_fwhm(medium_off())


def test_group_delay_frozen():
    assert group_delay(medium_gs0()) == pytest.approx(rv.DELAY_GS0,
                                                      rel=1e-9)
    assert group_delay(medium_default()) == pytest.approx(
        rv.DELAY_DEFAULT, rel=1e-9)


def test_delay_positive_when_window_is_open():
    # slow light accompanies transparency
    for gamma_s in (0.0, rv.GAMMA_S_DEFAULT, 0.1 * rv.GAMMA_GE):
        med = EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                        gamma_ge=rv.GAMMA_GE, gamma_s=gamma_s,
                        length=4e-3)
        if abs(transmission(0.0, med)) ** 2 > math.exp(-rv.OD / 2.0):
            assert group_delay(med) > 0.0


def test_group_velocity_and_dbp_frozen():
    for med, v_g, product in (
            (medium_gs0(), rv.VG_GS0, rv.DBP_GS0),
            (medium_default(), rv.VG_DEFAULT, rv.DBP_DEFAULT)):
        tau = group_delay(med)
        assert med.length / tau == pytest.approx(v_g, rel=1e-9)
        assert TWO_PI * window_fwhm(med) * tau == pytest.approx(
            product, rel=1e-9)


def test_dbp_tracks_sqrt_optical_depth():
    def dbp(med):
        return TWO_PI * window_fwhm(med) * group_delay(med)

    # widening the window by decoherence never helps the product
    dbp_gs0 = dbp(medium_gs0())
    assert dbp_gs0 < math.sqrt(rv.OD)
    med_hi = EitMedium(optical_depth=110.0, rabi_control=rv.RABI,
                       gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)
    assert dbp(med_hi) > dbp_gs0


def _seeded_media():
    """Media drawn log-uniformly (OD 1 to 300, rabi and gamma_ge 100 kHz
    to 100 MHz, gamma_s 100 Hz to 100 MHz or, one time in five, 0), plus
    fixed cases: the edge of the window collapse (the last two windows
    before it, and the first medium with none) and a medium whose
    |t(0)|^2 is subnormal (1.5e-314)."""
    rng = np.random.default_rng(18)

    def rate(lo, hi):
        return TWO_PI * 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    media = {}
    for i in range(24):
        od = 10.0 ** rng.uniform(0.0, math.log10(300.0))
        rabi, g_ge = rate(1e5, 1e8), rate(1e5, 1e8)
        g_s = 0.0 if rng.random() < 0.2 else rate(1e2, 1e8)
        media[f"seed-{i}"] = EitMedium(od, rabi, g_ge, g_s, 4e-3)
    for g_s in (5.23543e7, 5.23546e7, 5.23549e7):
        media[f"collapse-{g_s:.6g}"] = EitMedium(rv.OD, rv.RABI,
                                                 rv.GAMMA_GE, g_s, 4e-3)
    media["od-1e6"] = EitMedium(1e6, rv.RABI, rv.GAMMA_GE,
                                rv.GAMMA_S_DEFAULT, 4e-3)
    return media


_MEDIA = _seeded_media()


@pytest.mark.parametrize("name", sorted(_MEDIA))
def test_window_and_delay_match_the_oracles(name):
    medium = _MEDIA[name]
    scan = oracles.half_width_scan(medium)
    if math.isnan(scan):
        with pytest.raises(ModelError, match="^no transparency window"):
            window_fwhm(medium)
        return
    width = window_fwhm(medium)
    assert width == pytest.approx(scan, rel=1e-12)
    if medium.gamma_s < medium.rabi_control / 2.0:
        slope = oracles.phase_slope(medium, 1e-5 * TWO_PI * width)
        assert group_delay(medium) == pytest.approx(slope, rel=1e-8)
    else:
        with pytest.raises(ModelError, match="slow-light regime"):
            group_delay(medium)


# media at the edges of the float range: a window collapsed into
# gamma_s, a control that overflows rabi^2, an optical depth that makes
# ln 2 / OD overflow, one whose gamma_s / gamma_ge overflows, one whose
# exponent overflows while its window is 2e-147 Hz wide, one whose
# half-transmission discriminant overflows, and one whose delay's
# denominator (g + k)^2 gamma_ge overflows
_EXTREME = {
    "gamma_s-1e300": EitMedium(rv.OD, rv.RABI, 1e-10, 1e300, 4e-3),
    "rabi-1e300": EitMedium(rv.OD, 1e300, rv.GAMMA_GE,
                            rv.GAMMA_S_DEFAULT, 4e-3),
    "od-1e-320": EitMedium(1e-320, rv.RABI, rv.GAMMA_GE,
                           rv.GAMMA_S_DEFAULT, 4e-3),
    "gamma_ge-1e-100": EitMedium(rv.OD, rv.RABI, 1e-100, 1e110, 4e-3),
    "od-1e308": EitMedium(1e308, rv.RABI, rv.GAMMA_GE,
                          rv.GAMMA_S_DEFAULT, 4e-3),
    "rabi-1e50": EitMedium(rv.OD, 1e50, rv.GAMMA_GE, 0.0, 4e-3),
    "gamma_ge-1e200": EitMedium(rv.OD, 1e277, 1e200, 0.0, 4e-3),
}


def _outcome(f):
    try:
        return f()
    except ModelError:
        return ModelError


@pytest.mark.parametrize("name", sorted(_MEDIA) + sorted(_EXTREME))
def test_scalar_transmission_guards_as_the_array_path(name):
    # a Python number takes cmath, an array numpy under errstate: both
    # give the same value or both a ModelError (at 1e200 the denominator
    # overflows, which would make the exponent a quiet 0)
    medium = _MEDIA.get(name) or _EXTREME[name]
    for delta in (0.0, 1e7, 1e200):
        scalar = _outcome(lambda: transmission(delta, medium))
        array = _outcome(lambda: transmission(np.array([delta]),
                                              medium)[0])
        if scalar is ModelError or array is ModelError:
            assert scalar is array, (delta, scalar, array)
        else:
            assert isinstance(scalar, complex)
            assert scalar == pytest.approx(array, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(_EXTREME))
def test_window_and_delay_out_of_range_are_model_errors(name):
    # as numpy's errstate had it: only od-1e308 has a (2e-147 Hz) window
    # and only rabi-1e50 a delay
    medium = _EXTREME[name]
    for f, has_value in ((window_fwhm, name == "od-1e308"),
                         (group_delay, name == "rabi-1e50")):
        if has_value:
            assert f(medium) > 0.0
        else:
            with pytest.raises(ModelError, match="floating-point range"):
                f(medium)


def test_transmission_out_of_range_is_a_model_error():
    medium = EitMedium(optical_depth=rv.OD, rabi_control=1e300,
                       gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)
    with pytest.raises(ModelError, match="floating-point range"):
        transmission(0.0, medium)


def test_window_fwhm_finds_sub_khz_windows():
    # with gamma_s = 0 the narrow window grows as rabi^2
    media = [EitMedium(optical_depth=rv.OD, rabi_control=TWO_PI * r,
                       gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)
             for r in (5e4, 5e3, 5e2)]
    widths = [window_fwhm(m) for m in media]
    assert widths[0] < 1e3
    assert widths[0] / widths[1] == pytest.approx(100.0, rel=1e-4)
    assert widths[1] / widths[2] == pytest.approx(100.0, rel=1e-4)
    for w, m in zip(widths, media):
        # the half-width is exact to within 1e-12 of itself
        edge = TWO_PI * (w / 2.0) * (1.0 + np.array([-1e-12, 1e-12]))
        inside, outside = np.abs(transmission(edge, m)) ** 2
        half = abs(transmission(0.0, m)) ** 2 / 2.0
        assert inside > half > outside


# ------------------------------------------------------------------ fitting

def test_fit_gamma_s_reaches_achievable_target():
    base = medium_default()
    fitted, _ = fit_gamma_s(base, rv.FIT29_TARGET)
    assert fitted.gamma_s == pytest.approx(rv.FIT29_GAMMA_S, abs=0.05)
    assert window_fwhm(fitted) == pytest.approx(rv.FIT29_TARGET, abs=0.1)
    # the fit changes gamma_s and nothing else of the medium
    assert (fitted.optical_depth, fitted.rabi_control, fitted.gamma_ge,
            fitted.length) == (base.optical_depth, base.rabi_control,
                               base.gamma_ge, base.length)


def _matches_the_reference_fit(medium, target, rel=1e-12):
    # the np.roots fit of tests/oracles.py: the same gamma_s and reachable
    # range, or a ModelError from both
    ref = _outcome(lambda: oracles.fit_gamma_s_roots(medium, target))
    res = _outcome(lambda: fit_gamma_s(medium, target))
    if ref is ModelError or res is ModelError:
        assert res is ref, (target, ref, res)
        return
    (gamma_s, reachable), (fitted, reachable_hz) = ref, res
    assert fitted.gamma_s == pytest.approx(gamma_s, rel=rel, abs=0.0)
    assert reachable_hz == pytest.approx(reachable, rel=1e-12, abs=0.0)


def test_fit_gamma_s_hits_every_reachable_target():
    # the narrowing side, from the narrowest window to the widest
    _, (lo, hi) = fit_gamma_s(medium_default(), rv.FIT29_TARGET)
    assert lo == pytest.approx(rv.WINDOW_NARROWEST, rel=1e-12)
    assert hi == pytest.approx(rv.WINDOW_GS0, rel=1e-12)
    previous = math.inf
    for target in np.linspace(lo, hi, 300):
        fitted, _ = fit_gamma_s(medium_default(), target)
        assert window_fwhm(fitted) == pytest.approx(target, rel=1e-12)
        assert fitted.gamma_s < previous
        previous = fitted.gamma_s
        _matches_the_reference_fit(medium_default(), target)
    assert previous == 0.0


def test_fit_at_the_narrowest_window_takes_its_gamma_s():
    # at the narrowest window gamma_s is a double root: an ulp of x moves
    # it by sqrt(eps), so the target reported as narrowest must take
    # g_min, as every narrower target does, not the cubic's nearby root
    _, (lo, _) = fit_gamma_s(medium_default(), rv.FIT29_TARGET)
    at, _ = fit_gamma_s(medium_default(), lo)
    below, _ = fit_gamma_s(medium_default(), math.nextafter(lo, 0.0))
    assert at.gamma_s == below.gamma_s


@pytest.mark.parametrize("name", sorted(_MEDIA) + sorted(_EXTREME))
def test_fit_gamma_s_matches_the_np_roots_reference_on_the_media(name):
    medium = _MEDIA.get(name) or _EXTREME[name]
    targets = [rv.FIT29_TARGET]
    fit = _outcome(lambda: fit_gamma_s(medium, rv.FIT29_TARGET))
    if fit is not ModelError:
        _, (lo, hi) = fit
        targets += [lo + (hi - lo) * f for f in (0.01, 0.5, 0.99)]
    for target in targets:
        _matches_the_reference_fit(medium, target)


def test_fit_gamma_s_reports_unreachable_target():
    # the paper's window target is out of reach of the pinned medium
    fitted, (_, widest) = fit_gamma_s(medium_default(),
                                      config.CHECKS["eit_window_fwhm"][0])
    assert fitted.gamma_s == 0.0
    assert window_fwhm(fitted) == pytest.approx(rv.WINDOW_GS0, rel=1e-12)
    assert widest == window_fwhm(fitted)
    for target in (0.0, math.inf, math.nan):
        with pytest.raises(InputError, match="positive and finite"):
            fit_gamma_s(medium_default(), target)


def test_fit_gamma_s_does_not_converge_on_the_window_collapse():
    # no window before the collapse is as narrow as 2.4 MHz: the fit
    # returns the narrowest one, not the collapse edge
    fitted, (narrowest, _) = fit_gamma_s(medium_default(), 2.4e6)
    assert window_fwhm(fitted) == narrowest
    assert narrowest == pytest.approx(rv.WINDOW_NARROWEST, rel=1e-12)
    assert fitted.gamma_s == pytest.approx(rv.GAMMA_S_NARROWEST, rel=1e-6)


# ------------------------------------------------------------------- memory

def test_memory_decay_shapes():
    gauss = MemoryDecay(tau_mem=1e-6, shape="gaussian")
    expo = MemoryDecay(tau_mem=1e-6, shape="exponential")
    assert gauss.eta(0.0) == 1.0
    assert expo.eta(0.0) == 1.0
    assert gauss.eta(1e-6) / gauss.eta(0.0) == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    assert expo.eta(2e-6) / expo.eta(1e-6) == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(InputError):
            gauss.eta(bad)


@pytest.mark.parametrize("shape", ["gaussian", "exponential"])
def test_memory_decay_inverse(shape):
    decay = MemoryDecay(tau_mem=1e-6, shape=shape)
    for t in (0.0, 1e-7, 1e-6, 3e-6):
        assert decay.inverse(decay.eta(t)) == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("shape", ["gaussian", "exponential"])
def test_memory_decay_underflows_without_a_warning(shape):
    decay = MemoryDecay(tau_mem=1e-320, shape=shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decay.eta(4e-6) == 0.0
        assert decay.eta(0.0) == 1.0
        # t / tau_mem is finite here; its square is not
        assert decay.eta(1e-160) == 0.0
