import math

import numpy as np
import pytest

import qisim as q
from qisim.errors import InputError, ModelError
from qisim.spectral import TWO_PI

import refvals as rv
from helpers import ginibre_density


JITTER = TWO_PI / 28.0


def default_params(t_s=200e-9, balanced=False):
    b = rv.B_200NS if t_s == 200e-9 else rv.B0
    return q.MemoryChannelParams(
        eta_U=1.0 if balanced else rv.ETA_U,
        eta_D=1.0,
        phase_jitter_sigma=JITTER,
        background=b)


def memory_eta(t):
    return np.exp(-(np.asarray(t) / rv.TAU_MEM) ** 2)


# ------------------------------------------------------- states, densities

def test_six_states_are_normalized():
    assert set(q.SIX_STATES) == {"H", "V", "plus", "minus", "R", "L"}
    for state in q.SIX_STATES.values():
        assert np.vdot(state.jones, state.jones).real == pytest.approx(
            1.0, rel=1e-12)
        rho = state.density()
        assert np.trace(rho.matrix).real == pytest.approx(1.0, rel=1e-12)
    r = q.SIX_STATES["R"].jones
    expect = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert np.allclose(r, expect, atol=1e-15)


def test_density_validation():
    with pytest.raises(InputError):
        q.QubitDensity(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not hermitian
    with pytest.raises(InputError):
        q.QubitDensity(np.diag([0.7, 0.7]))                 # trace != 1
    with pytest.raises(InputError):
        q.QubitDensity(np.diag([1.5, -0.5]))                # not psd
    with pytest.raises(InputError):
        q.TwoQubitDensity(np.eye(3) / 3.0)


def test_bell_state_structure():
    rho = q.bell_state().matrix
    assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, rel=1e-12)
    # (|HV> + |VH>)/sqrt(2) in the HH, HV, VH, VV basis
    assert rho[1, 1] == pytest.approx(0.5, rel=1e-12)
    assert rho[2, 2] == pytest.approx(0.5, rel=1e-12)
    assert rho[1, 2] == pytest.approx(0.5, rel=1e-12)
    assert rho[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_werner_family():
    assert np.allclose(q.werner_state(1.0).matrix, q.bell_state().matrix,
                       atol=1e-15)
    assert np.allclose(q.werner_state(0.0).matrix, np.eye(4) / 4.0,
                       atol=1e-15)
    with pytest.raises(InputError):
        q.werner_state(1.2)
    with pytest.raises(InputError):
        q.werner_state(-0.1)


# ----------------------------------------------------------- memory channel

def test_identity_channel_is_a_passthrough():
    params = q.MemoryChannelParams()
    for name, state in q.SIX_STATES.items():
        out = q.memory_channel(state.density(), params)
        assert np.allclose(out.matrix, state.density().matrix,
                           atol=1e-14), name


def test_rail_eigenstates_ignore_phase_jitter():
    params = q.MemoryChannelParams(phase_jitter_sigma=JITTER)
    for name in ("H", "V"):
        rho_in = q.SIX_STATES[name].density()
        out = q.memory_channel(rho_in, params)
        assert q.fidelity(q.SIX_STATES[name], out) == pytest.approx(
            1.0, rel=1e-12), name


def test_superpositions_lose_coherence_to_jitter():
    params = q.MemoryChannelParams(phase_jitter_sigma=JITTER)
    battery = q.six_state_battery(params)
    for name in ("plus", "minus", "R", "L"):
        assert battery[name] == pytest.approx(rv.JITTER_ONLY_F_SUP,
                                              abs=1e-12), name
    assert params.dephasing_factor() == pytest.approx(rv.DEPHASING,
                                                      abs=1e-15)


def test_six_state_battery_frozen():
    battery = q.six_state_battery(default_params())
    for name, val in rv.SIX_200.items():
        assert battery[name] == pytest.approx(val, abs=1e-12), name
    for name, ref in rv.SIX_REFS.items():
        assert abs(battery[name] - ref) <= 0.04, name
    assert abs(battery["average"] - 0.924) <= 0.03


def test_channel_needs_surviving_population():
    params = q.MemoryChannelParams(eta_U=0.0, eta_D=0.0)
    with pytest.raises(ModelError):
        q.memory_channel(q.SIX_STATES["H"].density(), params)
    one_rail = q.MemoryChannelParams(eta_U=0.0, eta_D=1.0)
    with pytest.raises(ModelError):
        q.memory_channel(q.SIX_STATES["V"].density(), one_rail)


def test_channel_parameter_validation():
    with pytest.raises(InputError):
        q.MemoryChannelParams(eta_U=1.5)
    with pytest.raises(InputError):
        q.MemoryChannelParams(background=-0.1)
    with pytest.raises(InputError):
        q.MemoryChannelParams(phase_jitter_sigma=-1.0)


def test_background_weight_mapping():
    params = q.MemoryChannelParams(background=rv.B_200NS)
    assert params.background_weight() == pytest.approx(
        rv.B_200NS / (1.0 + rv.B_200NS), rel=1e-12)
    assert params.background_weight() == pytest.approx(0.057, abs=1e-12)


def test_fidelity_basics_and_linearity():
    h = q.SIX_STATES["H"]
    assert q.fidelity(h, h.density()) == pytest.approx(1.0, rel=1e-12)
    assert q.fidelity(h, q.QubitDensity(np.eye(2) / 2.0)) == pytest.approx(
        0.5, rel=1e-12)
    rho1 = q.SIX_STATES["plus"].density().matrix
    rho2 = np.eye(2) / 2.0
    for a in (0.25, 0.5, 0.75):
        mix = q.QubitDensity(a * rho1 + (1.0 - a) * rho2)
        expect = (a * q.fidelity(h, q.QubitDensity(rho1))
                  + (1.0 - a) * q.fidelity(h, q.QubitDensity(rho2)))
        assert q.fidelity(h, mix) == pytest.approx(expect, rel=1e-12)


def test_two_qubit_channel_matches_single_qubit_on_product_states():
    params = default_params()
    rho_fly = q.SIX_STATES["plus"].density()
    rho_store = q.SIX_STATES["R"].density()
    product = q.TwoQubitDensity(np.kron(rho_fly.matrix, rho_store.matrix))
    out2 = q.memory_channel_two_qubit(product, params, arm=2)
    out1 = q.memory_channel(rho_store, params)
    # background admixes I/2 on the stored arm only
    reduced = out2.matrix.reshape(2, 2, 2, 2)
    stored = np.einsum("aiaj->ij", reduced)
    assert np.allclose(stored, out1.matrix, atol=1e-12)


def test_two_qubit_channel_arm_symmetry_on_bell_state():
    params = default_params(balanced=True)
    bell = q.bell_state()
    s1 = q.chsh_S(q.memory_channel_two_qubit(bell, params, arm=1))
    s2 = q.chsh_S(q.memory_channel_two_qubit(bell, params, arm=2))
    assert s1 == pytest.approx(s2, rel=1e-12)
    with pytest.raises(InputError):
        q.memory_channel_two_qubit(bell, params, arm=3)


def test_choi_matrix_is_positive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = q.MemoryChannelParams(
            eta_U=rng.uniform(0.1, 1.0),
            eta_D=rng.uniform(0.1, 1.0),
            phase_jitter_sigma=rng.uniform(0.0, 1.0),
            background=rng.uniform(0.0, 0.3))
        choi = q.channel_choi(params)
        evals = np.linalg.eigvalsh(choi)
        assert evals.min() >= -1e-12


# ------------------------------------------------------------ correlations

def test_correlation_at_aligned_analyzers():
    bell = q.bell_state()
    assert q.correlation_E(bell, 0.0, 0.0) == pytest.approx(-1.0, rel=1e-12)
    assert q.correlation_E(bell, 0.0, math.pi / 2.0) == pytest.approx(
        1.0, rel=1e-12)


def test_correlation_factorizes_on_product_states():
    rho_a = q.SIX_STATES["plus"].density().matrix
    rho_b = q.SIX_STATES["H"].density().matrix
    product = q.TwoQubitDensity(np.kron(rho_a, rho_b))

    def analyzer(theta):
        v = np.array([math.cos(theta), math.sin(theta)])
        pp = np.outer(v, v)
        return 2.0 * pp - np.eye(2)

    for t1 in (0.0, 0.3, 1.1):
        for t2 in (0.0, 0.7):
            joint = q.correlation_E(product, t1, t2)
            # default convention mirrors the first analyzer
            exp_a = float(np.real(np.trace(rho_a @ analyzer(-t1))))
            exp_b = float(np.real(np.trace(rho_b @ analyzer(t2))))
            assert joint == pytest.approx(exp_a * exp_b, abs=1e-12)
            single_a = q.correlation_E(
                q.TwoQubitDensity(np.kron(rho_a, np.eye(2) / 2.0)), t1, 0.0)
            single_b = q.correlation_E(
                q.TwoQubitDensity(np.kron(np.eye(2) / 2.0, rho_b)), 0.0, t2)
            # correlations against a maximally mixed partner vanish
            assert single_a == pytest.approx(0.0, abs=1e-12)
            assert single_b == pytest.approx(0.0, abs=1e-12)
    # direct check: E is linear in the state
    v = 0.6
    w = q.werner_state(v)
    for t1, t2 in ((0.0, 0.2), (0.4, 1.0)):
        assert q.correlation_E(w, t1, t2) == pytest.approx(
            v * q.correlation_E(q.bell_state(), t1, t2), rel=1e-12)


def test_correlation_convention_flag():
    bell = q.bell_state()
    s_minus = q.chsh_S(bell, convention="minus")
    s_plus = q.chsh_S(bell, convention="plus")
    assert s_minus == pytest.approx(rv.S_IDEAL, abs=1e-9)
    # with the same angle set the sign convention matters
    assert abs(s_plus) < 1e-9
    with pytest.raises(InputError):
        q.chsh_S(bell, convention="other")


def test_chsh_frozen_values():
    source = q.werner_state(rv.V_SRC)
    assert q.chsh_S(source) == pytest.approx(rv.S_LOCAL, abs=1e-12)
    for t_s, expect in ((0.0, rv.S_0US), (200e-9, rv.S_200NS),
                        (1e-6, rv.S_1US)):
        b = rv.B0 / memory_eta(t_s)
        params = q.MemoryChannelParams(phase_jitter_sigma=JITTER,
                                       background=b)
        out = q.memory_channel_two_qubit(source, params, arm=2)
        assert q.chsh_S(out) == pytest.approx(expect, abs=1e-9)


def test_chsh_closed_form_for_stored_werner():
    t_s = 1e-6
    b = rv.B0 / memory_eta(t_s)
    params = q.MemoryChannelParams(phase_jitter_sigma=JITTER, background=b)
    out = q.memory_channel_two_qubit(q.werner_state(rv.V_SRC), params, arm=2)
    p = params.background_weight()
    expect = math.sqrt(2.0) * rv.V_SRC * (1.0 - p) * (1.0 + rv.DEPHASING)
    assert q.chsh_S(out) == pytest.approx(expect, rel=1e-9)


def test_chsh_scales_linearly_for_werner_states():
    assert q.chsh_S(q.werner_state(0.81)) == pytest.approx(
        rv.S_IDEAL * 0.81, rel=1e-12)
    assert q.chsh_S(q.werner_state(0.70)) <= 2.0 + 1e-9
    assert q.chsh_S(q.werner_state(0.60)) <= 2.0


def test_no_state_beats_tsirelson():
    rng = np.random.default_rng(12345)
    bound = rv.S_IDEAL + 1e-9
    for _ in range(1000):
        rho = q.TwoQubitDensity(ginibre_density(rng, 4))
        assert q.chsh_S(rho) <= bound


def test_separable_states_respect_the_local_bound():
    rng = np.random.default_rng(99)
    for _ in range(200):
        k = rng.integers(1, 5)
        weights = rng.dirichlet(np.ones(k))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            rho += w * np.kron(ginibre_density(rng, 2),
                               ginibre_density(rng, 2))
        assert q.chsh_S(q.TwoQubitDensity(rho)) <= 2.0 + 1e-9


# -------------------------------------------------------- correlation curve

def test_correlation_curve_visibility_frozen():
    b_1us = rv.B0 / memory_eta(1e-6)
    params = q.MemoryChannelParams(eta_U=1.0, eta_D=1.0,
                                   phase_jitter_sigma=JITTER,
                                   background=b_1us)
    out = q.memory_channel_two_qubit(q.werner_state(rv.V_SRC), params, arm=2)
    thetas = np.linspace(0.0, math.pi, 181)
    curve_h = q.correlation_curve(out, "H", thetas)
    curve_p = q.correlation_curve(out, "plus", thetas)
    assert curve_h.max() == 1.0
    assert curve_p.max() == 1.0
    assert q.curve_visibility(curve_p) == pytest.approx(
        rv.CURVE_VIS_PLUS_1US, abs=1e-9)
    assert q.curve_visibility(curve_h) == pytest.approx(
        rv.CURVE_VIS_H_1US, abs=1e-9)
    with pytest.raises(InputError):
        q.correlation_curve(out, "D", thetas)


def test_curve_visibility_closed_form_with_jitter_and_background():
    # superposition-basis fringe contrast is dephasing times background
    thetas = np.linspace(0.0, math.pi, 361)
    for sigma, b in ((0.1, 0.0), (JITTER, 0.06), (0.5, 0.2)):
        params = q.MemoryChannelParams(phase_jitter_sigma=sigma,
                                       background=b)
        out = q.memory_channel_two_qubit(q.bell_state(), params, arm=2)
        vis = q.curve_visibility(q.correlation_curve(out, "plus", thetas))
        p = b / (1.0 + b)
        d = math.exp(-sigma ** 2 / 2.0)
        assert vis == pytest.approx((1.0 - p) * d, abs=1e-6)


# ------------------------------------------------- heralded cross-correlation

def test_pair_statistics_validation():
    q.PairStatistics(p1=0.1, p3=0.2, p13=0.05)
    with pytest.raises(InputError):
        q.PairStatistics(p1=-0.1, p3=0.2, p13=0.05)
    with pytest.raises(InputError):
        q.PairStatistics(p1=0.1, p3=0.2, p13=0.15)


def test_g13_from_counts():
    stats = q.PairStatistics(p1=0.1, p3=0.2, p13=0.02)
    assert q.g13(stats) == pytest.approx(1.0, rel=1e-12)
    stats5 = q.PairStatistics(p1=0.1, p3=0.2, p13=0.1)
    assert q.g13(stats5) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(InputError):
        q.g13(q.PairStatistics(p1=0.0, p3=0.2, p13=0.0))


def test_alpha_quality():
    assert q.alpha_quality(5.0) == 1.0
    assert q.alpha_quality(9.0) == pytest.approx(0.5, rel=1e-12)
    assert q.alpha_quality(1e12) < 1e-11
    gs = np.linspace(1.5, 30.0, 50)
    alphas = [q.alpha_quality(g) for g in gs]
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    with pytest.raises(ModelError):
        q.alpha_quality(1.0)


def test_g13_decay_model_frozen():
    assert q.g13_decay_model(0.0, 25.0, memory_eta) == pytest.approx(
        25.0, rel=1e-12)
    assert q.g13_decay_model(2e-6, 25.0, memory_eta) == pytest.approx(
        rv.G13_AT_2US, abs=1e-12)
    ts = np.linspace(0.0, 4e-6, 41)
    gs = q.g13_decay_model(ts, 25.0, memory_eta)
    assert gs.shape == (41,)
    assert all(b <= a + 1e-12 for a, b in zip(gs, gs[1:]))
    with pytest.raises(InputError):
        q.g13_decay_model(0.0, 1.0, memory_eta)


def test_crossing_time_frozen():
    decay = q.MemoryDecay(tau_mem=rv.TAU_MEM)
    t_cross = q.crossing_time(25.0, decay, threshold=5.0)
    assert t_cross == pytest.approx(rv.G13_CROSSING, rel=1e-9)
    assert q.g13_decay_model(t_cross, 25.0, memory_eta) == pytest.approx(
        5.0, abs=1e-9)
    with pytest.raises(ModelError):
        q.crossing_time(4.0, decay, threshold=5.0)


@pytest.mark.parametrize("shape", ["gaussian", "exponential"])
def test_crossing_time_is_where_g13_meets_the_threshold(shape):
    decay = q.MemoryDecay(tau_mem=1.5e-6, shape=shape)
    for g0, thr in [(25.0, 5.0), (3.0, 1.5), (1e6, 1.0 + 1e-9)]:
        t_cross = q.crossing_time(g0, decay, threshold=thr)
        assert q.g13_decay_model(t_cross, g0, decay.eta) == pytest.approx(
            thr, rel=1e-12)
    with pytest.raises(InputError):
        q.crossing_time(1.0, decay, threshold=5.0)
    with pytest.raises(InputError):
        q.crossing_time(25.0, decay, threshold=1.0)
