"""Acceptance gate.

Each test prints one [C#] PASS/FAIL line for its criterion before
asserting, so the summary survives in the captured output either way.
Targets that reproduce-all also checks are read from config.CHECKS, the
one table of the paper's numbers; the others are stated inline next to
each comparison.
"""

import json
import math
import time

import numpy as np
import pytest

from qisim import cli, config
from qisim.biphoton import joint_time_distribution, visibility
from qisim.eit import (EitMedium, fit_gamma_s, group_delay, transmission,
                       window_fwhm)
from qisim.qubit import (MemoryChannelParams, alpha_quality, bell_state,
                         chsh_S, correlation_curve, crossing_time,
                         curve_visibility, memory_channel, six_state_battery,
                         werner_state)
from qisim.spectral import (TWO_PI, CavityLine, FrequencyGrid, PumpSpectrum,
                            build_jsa, default_grid, sigma_from_pulse_duration)

import oracles
import refvals as rv
from helpers import ginibre_density, hash_dir


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def target(cid):
    """(target, tolerance, relative) of reproduce-all's check `cid` at
    the default medium."""
    value, tol, relative, _ = config.CHECKS[cid]
    return (math.exp(-rv.OD) if value is None else value), tol, relative


def within(cid, value):
    """Whether value meets reproduce-all's target `cid`."""
    goal, tol, relative = target(cid)
    return abs(value - goal) <= (tol * abs(goal) if relative else tol)


def spec(cid):
    goal, tol, relative = target(cid)
    return f"{goal:.6g} +-{tol:g}" + (" rel" if relative else "")


def test_c1_visibility_pair():
    line = CavityLine(gamma=rv.GAMMA)
    t0 = time.monotonic()
    vals = []
    for sigma_hz in (12.5e6, 3.7e6):
        pump = PumpSpectrum(kind="gaussian", sigma=TWO_PI * sigma_hz)
        jsa = build_jsa(default_grid(line, pump, 512, 40.0), line, pump)
        vals.append(visibility(jsa))
    elapsed = time.monotonic() - t0
    v_broad, v_narrow = vals
    broad_ok = within("vis_sigma_12p5MHz", v_broad)
    narrow_ok = within("vis_sigma_3p7MHz", v_narrow)
    ok = broad_ok and narrow_ok and elapsed < 5.0
    print(f"[C1] visibility pair {spec('vis_sigma_12p5MHz')} / "
          f"{spec('vis_sigma_3p7MHz')} under 5 s "
          f"(got {v_broad:.4f}, {v_narrow:.4f} in {elapsed:.2f} s): "
          f"{_verdict(ok)}")
    assert broad_ok
    assert narrow_ok
    assert elapsed < 5.0


def test_c2_dual_route_visibility():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(5):
        gamma = TWO_PI * rng.uniform(2e6, 8e6)
        ratio = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        line = CavityLine(gamma=gamma)
        pump = PumpSpectrum(kind="gaussian", sigma=ratio * gamma)
        jsa = build_jsa(default_grid(line, pump, 32, 40.0),
                        line, pump)
        v_purity = visibility(jsa)
        v_quad = oracles.visibility_quadrature(jsa)
        worst = max(worst, abs(v_purity - v_quad) / v_quad)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    print(f"[C2] purity route vs direct quadrature on 5 random sources, "
          f"rel < 1e-6 under 10 s (worst {worst:.2e}, {elapsed:.2f} s): "
          f"{_verdict(ok)}")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_c3_time_domain_limits():
    line = CavityLine(gamma=rv.GAMMA)

    # flat-pump profile against the closed form
    grid = FrequencyGrid(span=64000.0 * rv.GAMMA, n_points=262144)
    jsa = build_jsa(grid, line, PumpSpectrum(kind="flat_limit"))
    edges = np.linspace(-2.0 / rv.GAMMA, 8.0 / rv.GAMMA, 513)
    t_grid = 0.5 * (edges[:-1] + edges[1:])
    dt = t_grid[1] - t_grid[0]
    psi = np.abs(oracles.time_domain(jsa, t_grid))
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
    cont = oracles.continuous_pump_density(t_grid, line)
    expect = np.exp(-rv.GAMMA
                    * np.abs(np.subtract.outer(t_grid, t_grid)))
    cont_err = float(np.max(np.abs(cont - expect)))

    # ridge correlation separates long and short pumps; at T_p = 30 ns
    # the density on the default grid (span 40 gamma) also meets the
    # continuum within the span's truncation error, about 0.7 / 40 of
    # the peak on the t1 = t2 ridge
    tg = oracles.default_time_grid(line)
    sigmas = {tp: sigma_from_pulse_duration(tp) for tp in (100e-9, 30e-9)}
    dists = {}
    for tp, sigma in sigmas.items():
        pump = PumpSpectrum(kind="gaussian", sigma=sigma)
        jsa_tp = build_jsa(default_grid(line, pump, 512, 40.0),
                           line, pump)
        dists[tp] = joint_time_distribution(jsa_tp, tg)
    r_long, r_short = (oracles.ridge_correlation(tg, dists[tp])
                       for tp in (100e-9, 30e-9))
    continuum = oracles.gaussian_pump_density(tg, line, sigmas[30e-9])
    finite_err = float(np.max(np.abs(dists[30e-9] - continuum)))
    finite_bound = 0.75 / 40.0

    ok = (l2 < 1e-3 and spill < 1e-4 and cont_err < 1e-12
          and r_long > 0.3 and r_short < 0.15 and finite_err < finite_bound)
    print(f"[C3] time-domain limits: flat-pump L2 {l2:.3e} < 1e-3, "
          f"causal spill {spill:.3e} < 1e-4, continuous-pump error "
          f"{cont_err:.1e} < 1e-12, ridge r {r_long:.3f} > 0.3 vs "
          f"{r_short:.3f} < 0.15, T_p 30 ns continuum error "
          f"{finite_err:.3e} < {finite_bound:.3e}: {_verdict(ok)}")
    assert l2 < 1e-3
    assert spill < 1e-4
    assert cont_err < 1e-12
    assert r_long > 0.3
    assert r_short < 0.15
    assert finite_err < finite_bound


def test_c4_memory_bandwidth_targets():
    base = EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                     gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                     length=4e-3)
    med, _ = fit_gamma_s(base, target("eit_window_fwhm")[0])
    fwhm = window_fwhm(med)
    tau = group_delay(med)
    dbp = TWO_PI * fwhm * tau
    v_g = med.length / tau
    off = EitMedium(optical_depth=rv.OD, rabi_control=0.0,
                    gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                    length=4e-3)
    t_off = abs(transmission(0.0, off)) ** 2

    subs = [("window (Hz)", "eit_window_fwhm", fwhm),
            ("delay (s)", "eit_group_delay", tau),
            ("angular delay-bandwidth", "eit_dbp", dbp),
            ("group velocity (m/s)", "eit_vg", v_g),
            ("control-off exp(-OD)", "eit_control_off_transmission", t_off)]
    verdicts = [within(cid, got) for _, cid, got in subs]
    for (label, cid, got), sub_ok in zip(subs, verdicts):
        print(f"[C4]   {label} {spec(cid)}: got {got:.6g} "
              f"-> {_verdict(sub_ok)}")
    ok = all(verdicts)
    print(f"[C4] transparency window / delay targets at OD 55, "
          f"control 12.6 MHz, gamma_ge 2.87 MHz: {_verdict(ok)}")
    failed = [sub[0] for sub, sub_ok in zip(subs, verdicts) if not sub_ok]
    assert ok, ("unreachable with the pinned medium parameters; "
                "best window %.4g Hz, delay %.4g s; failed: %s"
                % (fwhm, tau, ", ".join(failed)))


def test_c5_six_state_fidelities():
    cfg = config.load_config()
    battery = six_state_battery(config.channel_from(cfg, config.STORE_TIME_S))
    worst = max(abs(battery[n] - rv.SIX_REFS[n]) for n in rv.SIX_REFS)
    # the average cmd_store reports: the six states, in their order
    average = sum(battery.values()) / len(battery)
    each_ok = within("six_state_each", worst)
    avg_ok = within("six_state_average", average)
    ok = each_ok and avg_ok
    print(f"[C5] six-state fidelities {spec('six_state_each')} off their "
          f"references, average {spec('six_state_average')} "
          f"(worst dev {worst:.4f}, avg {average:.4f}): "
          f"{_verdict(ok)}")
    assert each_ok
    assert avg_ok


def test_c6_chsh_behavior():
    s_ideal = chsh_S(bell_state())
    cfg = config.load_config()
    params = config.channel_from(cfg, config.FRINGE_TIME_S, balanced=True)
    stored = memory_channel(werner_state(cfg["channel.V_src"]), params)
    s_stored = chsh_S(stored)
    thetas = np.linspace(0.0, math.pi, 181)
    vis = curve_visibility(correlation_curve(stored, "plus", thetas))
    s_sub = max(chsh_S(werner_state(0.70)),
                chsh_S(werner_state(0.60)))
    ideal_ok = within("bell_ideal_S", s_ideal)
    stored_ok = within("bell_S_1us", s_stored)
    vis_ok = within("fringe_visibility_1us", vis)
    ok = ideal_ok and stored_ok and vis_ok and s_sub <= 2.0 + 1e-9
    print(f"[C6] CHSH: ideal {spec('bell_ideal_S')}, stored "
          f"{spec('bell_S_1us')} with fringe visibility "
          f"{spec('fringe_visibility_1us')}, no violation below "
          f"V=1/sqrt(2) (got {s_ideal:.9f}, {s_stored:.3f}, {vis:.4f}, "
          f"{s_sub:.3f}): {_verdict(ok)}")
    assert ideal_ok
    assert stored_ok
    assert vis_ok
    assert s_sub <= 2.0 + 1e-9


def test_c7_heralding_quality():
    cfg = config.load_config()
    decay = config.decay_from(cfg)
    crossing = crossing_time(cfg["g13.g0"], decay, config.G13_THRESHOLD)
    alpha = alpha_quality(config.G13_THRESHOLD)
    gs = np.linspace(1.5, 30.0, 50)
    alphas = [alpha_quality(g) for g in gs]
    monotone = all(b < a for a, b in zip(alphas, alphas[1:]))
    crossing_ok = within("g13_crossing", crossing)
    ok = crossing_ok and alpha == 1.0 and monotone
    print(f"[C7] g13 crossing {spec('g13_crossing')} s with alpha(5) = 1 "
          f"exactly and alpha monotone (crossing {crossing * 1e6:.4f} us, "
          f"alpha {alpha!r}): {_verdict(ok)}")
    assert crossing_ok
    assert alpha == 1.0
    assert monotone


def test_c8_physicality_and_determinism(tmp_path):
    rng = np.random.default_rng(12345)
    bound = rv.S_IDEAL + 1e-9
    tsirelson_ok = all(
        chsh_S(ginibre_density(rng, 4)) <= bound
        for _ in range(1000))

    choi_min = 0.0
    for _ in range(100):
        params = MemoryChannelParams(
            eta_U=rng.uniform(0.05, 1.0),
            eta_D=rng.uniform(0.05, 1.0),
            phase_jitter_sigma=rng.uniform(0.0, 1.5),
            background=rng.uniform(0.0, 0.5))
        evals = np.linalg.eigvalsh(oracles.channel_choi(params))
        choi_min = min(choi_min, float(evals.min()))

    line = CavityLine(gamma=rv.GAMMA)
    pump = PumpSpectrum(kind="gaussian", sigma=TWO_PI * 12.5e6)
    jsa = build_jsa(default_grid(line, pump, 512, 40.0), line, pump)
    t_grid = oracles.conjugate_time_grid(jsa.grid)
    psi_t = oracles.time_domain(jsa, t_grid)
    parseval = abs(oracles.parseval_ratio(jsa, psi_t, t_grid) - 1.0)

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
