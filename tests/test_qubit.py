import math

import numpy as np
import pytest

from qisim import qubit
from qisim.config import CHECKS
from qisim.errors import InputError, ModelError
from qisim.qubit import (SIX_STATES, MemoryChannelParams, MemoryDecay,
                         QubitDensity, TwoQubitDensity, alpha_quality,
                         bell_state, chsh_S, correlation_E, correlation_curve,
                         crossing_time, curve_visibility, fidelity,
                         g13_decay_model, memory_channel, six_state_battery,
                         werner_state)
from qisim.spectral import TWO_PI

import oracles
import refvals as rv
from helpers import ginibre_density


JITTER = TWO_PI / 28.0


def default_params(t_s=200e-9, balanced=False):
    b = rv.B_200NS if t_s == 200e-9 else rv.B0
    return MemoryChannelParams(
        eta_U=1.0 if balanced else rv.ETA_U,
        eta_D=1.0,
        phase_jitter_sigma=JITTER,
        background=b)


def memory_eta(t):
    return np.exp(-(np.asarray(t) / rv.TAU_MEM) ** 2)


# ------------------------------------------------------- states, densities

def test_six_states_are_normalized():
    assert set(SIX_STATES) == {"H", "V", "plus", "minus", "R", "L"}
    for state in SIX_STATES.values():
        assert np.vdot(state.jones, state.jones).real == pytest.approx(
            1.0, rel=1e-12)
        rho = state.density()
        assert np.trace(rho.matrix).real == pytest.approx(1.0, rel=1e-12)
    r = SIX_STATES["R"].jones
    expect = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert np.allclose(r, expect, atol=1e-15)


def test_density_validation():
    with pytest.raises(InputError):
        QubitDensity(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not hermitian
    with pytest.raises(InputError):
        QubitDensity(np.diag([0.7, 0.7]))                 # trace != 1
    with pytest.raises(InputError):
        QubitDensity(np.diag([1.5, -0.5]))                # not psd
    with pytest.raises(InputError):
        TwoQubitDensity(np.eye(3) / 3.0)


@pytest.mark.parametrize("dim", [2, 4])
def test_positivity_check_matches_the_eigenvalues(dim):
    # the LDL^H pivots against numpy's eigenvalues, on random densities
    # shifted down by up to twice their least eigenvalue, so that about
    # half of them are not positive
    rng = np.random.default_rng(dim)
    verdicts = []
    for _ in range(500):
        m = ginibre_density(rng, dim)
        m -= rng.uniform(0.0, 2.0) * np.linalg.eigvalsh(m).min() * np.eye(dim)
        expect = np.linalg.eigvalsh(m).min() >= qubit._PSD_TOL
        assert qubit._positive(m) == expect
        verdicts.append(expect)
    assert 0.2 < np.mean(verdicts) < 0.8


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
def test_positivity_check_at_the_tolerance(dim, factor):
    # a rotated diagonal whose least eigenvalue sits 0.1 % inside or
    # outside the tolerance, and unit trace
    rng = np.random.default_rng(7)
    least = qubit._PSD_TOL * factor
    rest = rng.dirichlet(np.ones(dim - 1)) * (1.0 - least)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    m = u @ np.diag(np.concatenate([[least], rest])) @ u.conj().T
    expect = factor < 1.0
    assert (np.linalg.eigvalsh(m).min() >= qubit._PSD_TOL) == expect
    assert qubit._positive(m) == expect
    density = QubitDensity if dim == 2 else TwoQubitDensity
    if expect:
        density(m)
    else:
        with pytest.raises(InputError, match="positive semidefinite"):
            density(m)


def test_bell_state_structure():
    rho = np.array(bell_state().matrix)
    assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, rel=1e-12)
    # (|HV> + |VH>)/sqrt(2) in the HH, HV, VH, VV basis
    assert rho[1, 1] == pytest.approx(0.5, rel=1e-12)
    assert rho[2, 2] == pytest.approx(0.5, rel=1e-12)
    assert rho[1, 2] == pytest.approx(0.5, rel=1e-12)
    assert rho[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_werner_family():
    assert np.allclose(werner_state(1.0).matrix, bell_state().matrix,
                       atol=1e-15)
    assert np.allclose(werner_state(0.0).matrix, np.eye(4) / 4.0,
                       atol=1e-15)


# ----------------------------------------------------------- memory channel

def test_identity_channel_is_a_passthrough():
    params = MemoryChannelParams()
    for name, state in SIX_STATES.items():
        out = memory_channel(state.density(), params)
        assert np.allclose(out.matrix, state.density().matrix,
                           atol=1e-14), name


def test_rail_eigenstates_ignore_phase_jitter():
    params = MemoryChannelParams(phase_jitter_sigma=JITTER)
    for name in ("H", "V"):
        rho_in = SIX_STATES[name].density()
        out = memory_channel(rho_in, params)
        assert fidelity(SIX_STATES[name], out) == pytest.approx(
            1.0, rel=1e-12), name


def test_superpositions_lose_coherence_to_jitter():
    params = MemoryChannelParams(phase_jitter_sigma=JITTER)
    battery = six_state_battery(params)
    for name in ("plus", "minus", "R", "L"):
        assert battery[name] == pytest.approx(rv.JITTER_ONLY_F_SUP,
                                              abs=1e-12), name
    assert params.dephasing_factor() == pytest.approx(rv.DEPHASING,
                                                      abs=1e-15)


def test_six_state_battery_frozen():
    battery = six_state_battery(default_params())
    # the average cmd_store reports: the six states, in their order
    average = sum(battery.values()) / len(battery)
    values = {**battery, "average": average}
    for name, val in rv.SIX_200.items():
        assert values[name] == pytest.approx(val, abs=1e-12), name
    _, each_tol, _, _ = CHECKS["six_state_each"]
    for name, ref in rv.SIX_REFS.items():
        assert abs(battery[name] - ref) <= each_tol, name
    target, average_tol, _, _ = CHECKS["six_state_average"]
    assert abs(average - target) <= average_tol


def test_channel_needs_surviving_population():
    params = MemoryChannelParams(eta_U=0.0, eta_D=0.0)
    with pytest.raises(ModelError):
        memory_channel(SIX_STATES["H"].density(), params)
    one_rail = MemoryChannelParams(eta_U=0.0, eta_D=1.0)
    with pytest.raises(ModelError):
        memory_channel(SIX_STATES["V"].density(), one_rail)


def test_background_weight_mapping():
    params = MemoryChannelParams(background=rv.B_200NS)
    assert params.background_weight() == pytest.approx(
        rv.B_200NS / (1.0 + rv.B_200NS), rel=1e-12)
    assert params.background_weight() == pytest.approx(0.057, abs=1e-12)


def test_fidelity_basics_and_linearity():
    h = SIX_STATES["H"]
    assert fidelity(h, h.density()) == pytest.approx(1.0, rel=1e-12)
    assert fidelity(h, QubitDensity(np.eye(2) / 2.0)) == pytest.approx(
        0.5, rel=1e-12)
    rho1 = np.array(SIX_STATES["plus"].density().matrix)
    rho2 = np.eye(2) / 2.0
    for a in (0.25, 0.5, 0.75):
        mix = QubitDensity(a * rho1 + (1.0 - a) * rho2)
        expect = (a * fidelity(h, QubitDensity(rho1))
                  + (1.0 - a) * fidelity(h, QubitDensity(rho2)))
        assert fidelity(h, mix) == pytest.approx(expect, rel=1e-12)


def test_two_qubit_channel_matches_single_qubit_on_product_states():
    # the stored qubit is the second factor: on a product state the pair
    # channel leaves the flying marginal alone and gives the stored
    # marginal the one-qubit channel's output
    params = default_params()
    for fly_name, fly in SIX_STATES.items():
        for store_name, store in SIX_STATES.items():
            rho_fly = fly.density().matrix
            rho_store = store.density()
            product = TwoQubitDensity(np.kron(rho_fly, rho_store.matrix))
            out2 = memory_channel(product, params)
            out1 = memory_channel(rho_store, params)
            assert isinstance(out2, TwoQubitDensity)
            assert isinstance(out1, QubitDensity)
            reduced = np.array(out2.matrix).reshape(2, 2, 2, 2)
            pair = (fly_name, store_name)
            assert np.max(np.abs(np.einsum("aiaj->ij", reduced)
                                 - out1.matrix)) <= 1e-15, pair
            assert np.max(np.abs(np.einsum("iaja->ij", reduced)
                                 - rho_fly)) <= 1e-15, pair


def test_choi_matrix_is_positive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = MemoryChannelParams(
            eta_U=rng.uniform(0.1, 1.0),
            eta_D=rng.uniform(0.1, 1.0),
            phase_jitter_sigma=rng.uniform(0.0, 1.0),
            background=rng.uniform(0.0, 0.3))
        choi = oracles.channel_choi(params)
        evals = np.linalg.eigvalsh(choi)
        assert evals.min() >= -1e-12


# ------------------------------------------------------------ correlations

def test_correlation_at_aligned_analyzers():
    bell = bell_state()
    assert correlation_E(bell, 0.0, 0.0) == pytest.approx(-1.0, rel=1e-12)
    assert correlation_E(bell, 0.0, math.pi / 2.0) == pytest.approx(
        1.0, rel=1e-12)


def test_correlation_factorizes_on_product_states():
    rho_a = SIX_STATES["plus"].density().matrix
    rho_b = SIX_STATES["H"].density().matrix
    product = TwoQubitDensity(np.kron(rho_a, rho_b))

    def analyzer(theta):
        v = np.array([math.cos(theta), math.sin(theta)])
        pp = np.outer(v, v)
        return 2.0 * pp - np.eye(2)

    for t1 in (0.0, 0.3, 1.1):
        for t2 in (0.0, 0.7):
            joint = correlation_E(product, t1, t2)
            # the first analyzer is mirrored
            exp_a = float(np.real(np.trace(rho_a @ analyzer(-t1))))
            exp_b = float(np.real(np.trace(rho_b @ analyzer(t2))))
            assert joint == pytest.approx(exp_a * exp_b, abs=1e-12)
            single_a = correlation_E(
                TwoQubitDensity(np.kron(rho_a, np.eye(2) / 2.0)), t1, 0.0)
            single_b = correlation_E(
                TwoQubitDensity(np.kron(np.eye(2) / 2.0, rho_b)), 0.0, t2)
            # correlations against a maximally mixed partner vanish
            assert single_a == pytest.approx(0.0, abs=1e-12)
            assert single_b == pytest.approx(0.0, abs=1e-12)
    # direct check: E is linear in the state
    v = 0.6
    w = werner_state(v)
    for t1, t2 in ((0.0, 0.2), (0.4, 1.0)):
        assert correlation_E(w, t1, t2) == pytest.approx(
            v * correlation_E(bell_state(), t1, t2), rel=1e-12)


def test_chsh_frozen_values():
    source = werner_state(rv.V_SRC)
    assert chsh_S(source) == pytest.approx(rv.S_LOCAL, abs=1e-12)
    for t_s, expect in ((0.0, rv.S_0US), (200e-9, rv.S_200NS),
                        (1e-6, rv.S_1US)):
        b = rv.B0 / memory_eta(t_s)
        params = MemoryChannelParams(phase_jitter_sigma=JITTER,
                                     background=b)
        out = memory_channel(source, params)
        assert chsh_S(out) == pytest.approx(expect, abs=1e-9)


def test_chsh_closed_form_for_stored_werner():
    t_s = 1e-6
    b = rv.B0 / memory_eta(t_s)
    params = MemoryChannelParams(phase_jitter_sigma=JITTER, background=b)
    out = memory_channel(werner_state(rv.V_SRC), params)
    p = params.background_weight()
    expect = math.sqrt(2.0) * rv.V_SRC * (1.0 - p) * (1.0 + rv.DEPHASING)
    assert chsh_S(out) == pytest.approx(expect, rel=1e-9)


def test_chsh_scales_linearly_for_werner_states():
    assert chsh_S(werner_state(0.81)) == pytest.approx(
        rv.S_IDEAL * 0.81, rel=1e-12)
    assert chsh_S(werner_state(0.70)) <= 2.0 + 1e-9
    assert chsh_S(werner_state(0.60)) <= 2.0


def test_no_state_beats_tsirelson():
    rng = np.random.default_rng(12345)
    bound = rv.S_IDEAL + 1e-9
    for _ in range(1000):
        rho = TwoQubitDensity(ginibre_density(rng, 4))
        assert chsh_S(rho) <= bound


def test_separable_states_respect_the_local_bound():
    rng = np.random.default_rng(99)
    for _ in range(200):
        k = rng.integers(1, 5)
        weights = rng.dirichlet(np.ones(k))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            rho += w * np.kron(ginibre_density(rng, 2),
                               ginibre_density(rng, 2))
        assert chsh_S(TwoQubitDensity(rho)) <= 2.0 + 1e-9


# -------------------------------------------------------- correlation curve

def test_correlation_curve_visibility_frozen():
    b_1us = rv.B0 / memory_eta(1e-6)
    params = MemoryChannelParams(eta_U=1.0, eta_D=1.0,
                                 phase_jitter_sigma=JITTER,
                                 background=b_1us)
    out = memory_channel(werner_state(rv.V_SRC), params)
    thetas = np.linspace(0.0, math.pi, 181)
    curve_h = correlation_curve(out, "H", thetas)
    curve_p = correlation_curve(out, "plus", thetas)
    assert max(curve_h) == 1.0
    assert max(curve_p) == 1.0
    assert curve_visibility(curve_p) == pytest.approx(
        rv.CURVE_VIS_PLUS_1US, abs=1e-9)
    assert curve_visibility(curve_h) == pytest.approx(
        rv.CURVE_VIS_H_1US, abs=1e-9)


def test_curve_visibility_closed_form_with_jitter_and_background():
    # superposition-basis fringe contrast is dephasing times background
    thetas = np.linspace(0.0, math.pi, 361)
    for sigma, b in ((0.1, 0.0), (JITTER, 0.06), (0.5, 0.2)):
        params = MemoryChannelParams(phase_jitter_sigma=sigma,
                                     background=b)
        out = memory_channel(bell_state(), params)
        vis = curve_visibility(correlation_curve(out, "plus", thetas))
        p = b / (1.0 + b)
        d = math.exp(-sigma ** 2 / 2.0)
        assert vis == pytest.approx((1.0 - p) * d, abs=1e-6)


# ------------------------------------------------- heralded cross-correlation

def test_pair_statistics_validation():
    oracles.PairStatistics(p1=0.1, p3=0.2, p13=0.05)
    with pytest.raises(InputError):
        oracles.PairStatistics(p1=-0.1, p3=0.2, p13=0.05)
    with pytest.raises(InputError):
        oracles.PairStatistics(p1=0.1, p3=0.2, p13=0.15)


def test_g13_from_counts():
    stats = oracles.PairStatistics(p1=0.1, p3=0.2, p13=0.02)
    assert oracles.g13(stats) == pytest.approx(1.0, rel=1e-12)
    stats5 = oracles.PairStatistics(p1=0.1, p3=0.2, p13=0.1)
    assert oracles.g13(stats5) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(InputError):
        oracles.g13(oracles.PairStatistics(p1=0.0, p3=0.2, p13=0.0))


def test_alpha_quality():
    assert alpha_quality(5.0) == 1.0
    assert alpha_quality(9.0) == pytest.approx(0.5, rel=1e-12)
    assert alpha_quality(1e12) < 1e-11
    gs = np.linspace(1.5, 30.0, 50)
    alphas = [alpha_quality(g) for g in gs]
    assert all(b < a for a, b in zip(alphas, alphas[1:]))


def test_g13_decay_model_frozen():
    assert g13_decay_model(0.0, 25.0, memory_eta) == pytest.approx(
        25.0, rel=1e-12)
    assert g13_decay_model(2e-6, 25.0, memory_eta) == pytest.approx(
        rv.G13_AT_2US, abs=1e-12)
    ts = np.linspace(0.0, 4e-6, 41)
    gs = g13_decay_model(ts, 25.0, memory_eta)
    assert gs.shape == (41,)
    assert all(b <= a + 1e-12 for a, b in zip(gs, gs[1:]))


def test_crossing_time_frozen():
    decay = MemoryDecay(tau_mem=rv.TAU_MEM, shape="gaussian")
    t_cross = crossing_time(25.0, decay, threshold=5.0)
    assert t_cross == pytest.approx(rv.G13_CROSSING, rel=1e-9)
    assert g13_decay_model(t_cross, 25.0, memory_eta) == pytest.approx(
        5.0, abs=1e-9)
    with pytest.raises(ModelError):
        crossing_time(4.0, decay, threshold=5.0)


@pytest.mark.parametrize("shape", ["gaussian", "exponential"])
def test_crossing_time_is_where_g13_meets_the_threshold(shape):
    decay = MemoryDecay(tau_mem=1.5e-6, shape=shape)
    for g0, thr in [(25.0, 5.0), (3.0, 1.5), (1e6, 1.0 + 1e-9)]:
        t_cross = crossing_time(g0, decay, threshold=thr)
        assert g13_decay_model(t_cross, g0, decay.eta) == pytest.approx(
            thr, rel=1e-12)
