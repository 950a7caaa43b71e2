import math
import warnings

import numpy as np
import pytest

import qisim as q
from qisim.cli import TARGETS
from qisim.errors import InputError, ModelError
from qisim.spectral import TWO_PI

import refvals as rv


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
    for med, v_g, product in (
            (medium_gs0(), rv.VG_GS0, rv.DBP_GS0),
            (medium_default(), rv.VG_DEFAULT, rv.DBP_DEFAULT)):
        tau = q.group_delay(med)
        assert med.length / tau == pytest.approx(v_g, rel=1e-9)
        assert TWO_PI * q.window_fwhm(med) * tau == pytest.approx(
            product, rel=1e-9)


def test_dbp_tracks_sqrt_optical_depth():
    def dbp(med):
        return TWO_PI * q.window_fwhm(med) * q.group_delay(med)

    # widening the window by decoherence never helps the product
    dbp_gs0 = dbp(medium_gs0())
    assert dbp_gs0 < math.sqrt(rv.OD)
    med_hi = q.EitMedium(optical_depth=110.0, rabi_control=rv.RABI,
                         gamma_ge=rv.GAMMA_GE, gamma_s=0.0, length=4e-3)
    assert dbp(med_hi) > dbp_gs0


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


def test_solver_bisects_where_interpolation_underflows():
    # subnormal function values make the interpolation denominators
    # underflow to 0; the solver bisects there, as brentq does
    from qisim.eit import _solve
    root = _solve(lambda x: 1e-310 * math.atan(x - 0.3), -10.0, 10.0, 1e-9,
                  "case")
    assert abs(root - 0.3) < 1e-8
    # on resonance the transmission of this medium is 1.5e-314
    medium = q.EitMedium(optical_depth=1e6, rabi_control=rv.RABI,
                         gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT)
    assert q.window_fwhm(medium) > 0.0


def test_transmission_out_of_range_is_a_model_error():
    medium = q.EitMedium(optical_depth=rv.OD, rabi_control=1e300,
                         gamma_ge=rv.GAMMA_GE)
    with pytest.raises(ModelError, match="floating-point range"):
        q.transmission(0.0, medium)


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
    # the paper's window target is out of reach of the pinned medium
    res = q.fit_gamma_s(medium_default(), TARGETS["eit_window_fwhm"][0])
    assert not res.converged
    assert res.gamma_s == 0.0
    assert res.window_fwhm_hz == pytest.approx(rv.WINDOW_GS0, rel=1e-9)
    for target in (0.0, math.inf, math.nan):
        with pytest.raises(InputError, match="positive and finite"):
            q.fit_gamma_s(medium_default(), target)


def test_fit_gamma_s_does_not_converge_on_the_window_collapse():
    # no window between the collapse and gamma_s = 0 is as narrow as
    # 2.4 MHz; the search lands on the collapse edge
    res = q.fit_gamma_s(medium_default(), 2.4e6)
    assert not res.converged
    assert res.gamma_s > 0.0
    assert abs(res.window_fwhm_hz - 2.4e6) > 1.0


# ------------------------------------------------------------------- memory

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
