"""Acceptance gate.

Each test prints one [C#] PASS/FAIL line for its criterion before
asserting, so the summary survives in the captured output either way.
Tolerances are stated inline next to each comparison.
"""

import json
import math
import time

import numpy as np
import pytest

import qisim as q
from qisim import cli, config
from qisim.spectral import TWO_PI

import refvals as rv
from helpers import ginibre_density, hash_dir


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def test_c1_visibility_pair():
    line = q.CavityLine(gamma=rv.GAMMA)
    t0 = time.monotonic()
    vals = []
    for sigma_hz in (12.5e6, 3.7e6):
        pump = q.PumpSpectrum(kind="gaussian", sigma=TWO_PI * sigma_hz)
        jsa = q.build_jsa(q.default_grid(line, pump), line, pump)
        vals.append(q.visibility(jsa))
    elapsed = time.monotonic() - t0
    v_broad, v_narrow = vals
    ok = (abs(v_broad - 0.97) <= 0.01 and abs(v_narrow - 0.80) <= 0.02
          and elapsed < 5.0)
    print(f"[C1] visibility pair 0.97+-0.01 / 0.80+-0.02 under 5 s "
          f"(got {v_broad:.4f}, {v_narrow:.4f} in {elapsed:.2f} s): "
          f"{_verdict(ok)}")
    assert abs(v_broad - 0.97) <= 0.01
    assert abs(v_narrow - 0.80) <= 0.02
    assert elapsed < 5.0


def test_c2_dual_route_visibility():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(5):
        gamma = TWO_PI * rng.uniform(2e6, 8e6)
        ratio = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        line = q.CavityLine(gamma=gamma)
        pump = q.PumpSpectrum(kind="gaussian", sigma=ratio * gamma)
        jsa = q.build_jsa(q.default_grid(line, pump, n_points=32),
                          line, pump)
        v_purity = q.visibility(jsa)
        v_quad = q.visibility_quadrature(jsa)
        worst = max(worst, abs(v_purity - v_quad) / v_quad)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    print(f"[C2] purity route vs direct quadrature on 5 random sources, "
          f"rel < 1e-6 under 10 s (worst {worst:.2e}, {elapsed:.2f} s): "
          f"{_verdict(ok)}")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_c3_time_domain_limits():
    line = q.CavityLine(gamma=rv.GAMMA)

    # flat-pump profile against the closed form
    grid = q.FrequencyGrid(span=64000.0 * rv.GAMMA, n_points=262144)
    jsa = q.build_jsa(grid, line, q.PumpSpectrum(kind="flat_limit"))
    edges = np.linspace(-2.0 / rv.GAMMA, 8.0 / rv.GAMMA, 513)
    t_grid = 0.5 * (edges[:-1] + edges[1:])
    dt = t_grid[1] - t_grid[0]
    psi = np.abs(q.time_domain(jsa, t_grid))
    psi /= math.sqrt(np.sum(psi ** 2) * dt * dt)
    theta = (t_grid >= 0.0).astype(float)
    ref = np.exp(-rv.GAMMA * np.add.outer(t_grid, t_grid) / 2.0)
    ref *= np.outer(theta, theta)
    ref /= math.sqrt(np.sum(ref ** 2) * dt * dt)
    l2 = math.sqrt(np.sum((psi - ref) ** 2) * dt * dt)
    dens = psi ** 2
    neg = t_grid < 0.0
    spill = max(dens[neg, :].max(), dens[:, neg].max()) / dens.max()

    # continuous pump is analytic, no transform involved
    cont = q.continuous_pump_density(t_grid, line)
    expect = np.exp(-rv.GAMMA
                    * np.abs(np.subtract.outer(t_grid, t_grid)))
    cont_err = float(np.max(np.abs(cont.density - expect)))

    # ridge correlation separates long and short pumps
    tg = q.default_time_grid(line)
    r = {}
    for tp in (100e-9, 30e-9):
        pump = q.PumpSpectrum(kind="gaussian",
                              sigma=q.sigma_from_pulse_duration(tp))
        jsa_tp = q.build_jsa(q.default_grid(line, pump), line, pump)
        r[tp] = q.ridge_correlation(q.joint_time_distribution(jsa_tp, tg))
    r_long, r_short = r[100e-9], r[30e-9]

    ok = (l2 < 1e-3 and spill < 1e-4 and cont_err < 1e-12
          and r_long > 0.3 and r_short < 0.15)
    print(f"[C3] time-domain limits: flat-pump L2 {l2:.3e} < 1e-3, "
          f"causal spill {spill:.3e} < 1e-4, continuous-pump error "
          f"{cont_err:.1e} < 1e-12, ridge r {r_long:.3f} > 0.3 vs "
          f"{r_short:.3f} < 0.15: {_verdict(ok)}")
    assert l2 < 1e-3
    assert spill < 1e-4
    assert cont_err < 1e-12
    assert r_long > 0.3
    assert r_short < 0.15


def test_c4_memory_bandwidth_targets():
    base = q.EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                       gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                       length=4e-3)
    fit = q.fit_gamma_s(base, 5.5e6)
    med = q.EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                      gamma_ge=rv.GAMMA_GE, gamma_s=fit.gamma_s,
                      length=4e-3)
    fwhm = q.window_fwhm(med)
    tau = q.group_delay(med)
    dbp = q.delay_bandwidth_product(med)
    v_g = q.group_velocity(med)
    off = q.EitMedium(optical_depth=rv.OD, rabi_control=0.0,
                      gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                      length=4e-3)
    t_off = abs(q.transmission(0.0, off)) ** 2

    subs = [
        ("window 5.5 MHz +-10%", fwhm, 5.5e6,
         abs(fwhm - 5.5e6) <= 0.10 * 5.5e6),
        ("delay 200 ns +-10%", tau, 200e-9,
         abs(tau - 200e-9) <= 0.10 * 200e-9),
        ("delay-bandwidth 7 +-15%", dbp, 7.0,
         abs(dbp - 7.0) <= 0.15 * 7.0),
        ("group velocity 2e4 m/s +-10%", v_g, 2e4,
         abs(v_g - 2e4) <= 0.10 * 2e4),
        ("control-off exp(-OD) rel 1e-6", t_off, math.exp(-55.0),
         abs(t_off - math.exp(-55.0)) <= 1e-6 * math.exp(-55.0)),
    ]
    for label, got, want, sub_ok in subs:
        print(f"[C4]   {label}: got {got:.6g}, want {want:.6g} "
              f"-> {_verdict(sub_ok)}")
    ok = all(s[3] for s in subs)
    print(f"[C4] transparency window / delay targets at OD 55, "
          f"control 12.6 MHz, gamma_ge 2.87 MHz: {_verdict(ok)}")
    failed = [s[0] for s in subs if not s[3]]
    assert ok, ("unreachable with the pinned medium parameters; "
                "best window %.4g Hz, delay %.4g s; failed: %s"
                % (fwhm, tau, ", ".join(failed)))


def test_c5_six_state_fidelities():
    cfg = config.load_config()
    battery = q.six_state_battery(config.channel_from(cfg, 200e-9))
    worst = max(abs(battery[n] - rv.SIX_REFS[n]) for n in rv.SIX_REFS)
    avg_err = abs(battery["average"] - 0.924)
    ok = worst <= 0.04 and avg_err <= 0.03
    print(f"[C5] six-state fidelities +-0.04 each, average 0.924+-0.03 "
          f"(worst dev {worst:.4f}, avg {battery['average']:.4f}): "
          f"{_verdict(ok)}")
    assert worst <= 0.04
    assert avg_err <= 0.03


def test_c6_chsh_behavior():
    s_ideal = q.chsh_S(q.bell_state())
    cfg = config.load_config()
    params = config.channel_from(cfg, 1e-6, balanced=True)
    stored = q.memory_channel_two_qubit(
        q.werner_state(cfg["channel.V_src"]), params, arm=2)
    s_stored = q.chsh_S(stored)
    thetas = np.linspace(0.0, math.pi, 181)
    vis = q.curve_visibility(q.correlation_curve(stored, "plus", thetas))
    s_sub = max(q.chsh_S(q.werner_state(0.70)),
                q.chsh_S(q.werner_state(0.60)))
    ok = (abs(s_ideal - rv.S_IDEAL) <= 1e-9
          and abs(s_stored - 2.28) <= 0.17
          and abs(vis - 0.81) <= 0.01
          and s_sub <= 2.0 + 1e-9)
    print(f"[C6] CHSH: ideal 2*sqrt(2)+-1e-9, stored 2.28+-0.17 with "
          f"fringe visibility 0.81+-0.01, no violation below "
          f"V=1/sqrt(2) (got {s_ideal:.9f}, {s_stored:.3f}, {vis:.4f}, "
          f"{s_sub:.3f}): {_verdict(ok)}")
    assert abs(s_ideal - rv.S_IDEAL) <= 1e-9
    assert abs(s_stored - 2.28) <= 0.17
    assert abs(vis - 0.81) <= 0.01
    assert s_sub <= 2.0 + 1e-9


def test_c7_heralding_quality():
    cfg = config.load_config()
    decay = config.decay_from(cfg)
    crossing = q.crossing_time(cfg["g13.g0"], decay, threshold=5.0)
    alpha = q.alpha_quality(5.0)
    gs = np.linspace(1.5, 30.0, 50)
    alphas = [q.alpha_quality(g) for g in gs]
    monotone = all(b < a for a, b in zip(alphas, alphas[1:]))
    ok = (abs(crossing - 2e-6) <= 0.10 * 2e-6 and alpha == 1.0
          and monotone)
    print(f"[C7] g13 crossing 2 us +-10% with alpha(5) = 1 exactly and "
          f"alpha monotone (crossing {crossing * 1e6:.4f} us, "
          f"alpha {alpha!r}): {_verdict(ok)}")
    assert abs(crossing - 2e-6) <= 0.10 * 2e-6
    assert alpha == 1.0
    assert monotone


def test_c8_physicality_and_determinism(tmp_path):
    rng = np.random.default_rng(12345)
    bound = rv.S_IDEAL + 1e-9
    tsirelson_ok = all(
        q.chsh_S(q.TwoQubitDensity(ginibre_density(rng, 4))) <= bound
        for _ in range(1000))

    choi_min = 0.0
    for _ in range(100):
        params = q.MemoryChannelParams(
            eta_U=rng.uniform(0.05, 1.0),
            eta_D=rng.uniform(0.05, 1.0),
            phase_jitter_sigma=rng.uniform(0.0, 1.5),
            background=rng.uniform(0.0, 0.5))
        evals = np.linalg.eigvalsh(q.channel_choi(params))
        choi_min = min(choi_min, float(evals.min()))

    line = q.CavityLine(gamma=rv.GAMMA)
    pump = q.PumpSpectrum(kind="gaussian", sigma=TWO_PI * 12.5e6)
    jsa = q.build_jsa(q.default_grid(line, pump), line, pump)
    t_grid = q.conjugate_time_grid(jsa.grid)
    parseval = abs(q.parseval_ratio(jsa, q.time_domain(jsa, t_grid),
                                    t_grid) - 1.0)

    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    cli.main(["reproduce-all", "--out", str(run1)])
    cli.main(["reproduce-all", "--out", str(run2)])
    h1, h2 = hash_dir(str(run1)), hash_dir(str(run2))
    deterministic = h1 == h2 and len(h1) >= 10

    ok = (tsirelson_ok and choi_min >= -1e-12 and parseval < 1e-6
          and deterministic)
    print(f"[C8] physicality: S <= 2*sqrt(2) on 1000 random states, "
          f"Choi minimum eigenvalue {choi_min:.2e} >= -1e-12, Parseval "
          f"deviation {parseval:.2e} < 1e-6, {len(h1)} artifacts "
          f"byte-identical across reruns: {_verdict(ok)}")
    assert tsirelson_ok
    assert choi_min >= -1e-12
    assert parseval < 1e-6
    assert deterministic
