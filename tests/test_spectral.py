import math

import numpy as np
import pytest

from qisim import config, spectral
from qisim.errors import InputError, ModelError
from qisim.spectral import (MATERIALIZE_LIMIT, TWO_PI, FrequencyGrid,
                            JointSpectralAmplitude, build_jsa,
                            cavity_response, sigma_from_pulse_duration)

import oracles
import refvals as rv


def test_grid_spacing_and_endpoints():
    grid = FrequencyGrid(span=10.0, n_points=10)
    assert grid.spacing == pytest.approx(10.0 / 9.0, rel=1e-15)
    d = grid.detunings
    assert len(d) == 10
    assert d[0] == pytest.approx(-5.0)
    assert d[-1] == pytest.approx(5.0)
    # inclusive linspace grid
    assert np.allclose(np.diff(d), grid.spacing, rtol=1e-12)


@pytest.mark.parametrize("span, n", [
    (64000.0 * rv.GAMMA, 262144),   # the C3 grid: 8 whole segments
    (64000.0 * rv.GAMMA, 100002),   # a short last segment
    (10.0, 10),
    (5e-322, 1000),                 # a step that underflows to 0
])
def test_detunings_on_a_range_are_linspace_bit_for_bit(span, n):
    grid = FrequencyGrid(span=span, n_points=n)
    whole = np.linspace(-span / 2.0, span / 2.0, n)
    assert grid.detunings.tobytes() == whole.tobytes()
    jsa = JointSpectralAmplitude(grid, rv.GAMMA, None)
    r = cavity_response(whole, rv.GAMMA)
    seg = spectral.SEGMENT
    for lo, hi in [(k, min(k + seg, n)) for k in range(0, n, seg)] + [
            (0, n), (n - 1, n), (3, 7), (5, 5)]:
        assert grid.detunings_on(lo, hi).tobytes() == whole[lo:hi].tobytes()
        assert jsa.response(lo, hi).tobytes() == r[lo:hi].tobytes()


@pytest.mark.parametrize("span,n", [(0.0, 64), (-1.0, 64), (10.0, 7),
                                    (10.0, 4), (10.0, 63)])
def test_grid_rejects_bad_parameters(span, n):
    # a span is refused by the grid, where span_factor * gamma can
    # overflow; the point count once, by config
    with pytest.raises(InputError):
        if span > 0.0:
            config.load_config(overrides=(f"grids.n_freq={n}",))
        else:
            FrequencyGrid(span=span, n_points=n)


def test_cavity_line_requires_positive_width():
    # a command takes its linewidth only from a loaded config, which
    # refuses a width that is not positive or whose 2*pi*value overflows
    for hz in ("0", "-1", "1e308"):
        with pytest.raises(InputError, match="source.gamma_hz"):
            config.load_config(overrides=(f"source.gamma_hz={hz}",))
    assert config.source_from(config.load_config(), 1.0)[0] == (
        TWO_PI * config.DEFAULTS["source.gamma_hz"])


def test_cavity_response_formula():
    d = np.linspace(-3.0 * rv.GAMMA, 3.0 * rv.GAMMA, 101)
    expect = 1.0 / (d + 0.5j * rv.GAMMA)
    got = cavity_response(d, rv.GAMMA)
    assert np.array_equal(got, expect)


def pump_table(grid, sigma):
    """The package's pump on the index sums of grid."""
    return JointSpectralAmplitude(grid, rv.GAMMA, sigma).pump_table()


def test_pump_gaussian_is_unit_area():
    sigma = TWO_PI * 4e6
    # index sums from -12 sigma to 12 sigma in 20002 steps
    grid = FrequencyGrid(span=12.0 * sigma, n_points=10002)
    table = pump_table(grid, sigma)
    assert table.shape == (20003,)
    assert np.sum(table) * grid.spacing == pytest.approx(1.0, rel=1e-9)
    assert table[10001] == 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    sums = (np.arange(20003) - 10001.0) * grid.spacing
    assert np.array_equal(table, oracles.pump_amplitude(sums, sigma))


def test_pump_flat_and_delta_kinds():
    grid = FrequencyGrid(span=2.0, n_points=10)
    flat = pump_table(grid, None)
    assert np.array_equal(flat, np.ones(19))
    # a continuous (delta) pump has no samples on a grid: config refuses
    # the kind (source.pump_kind)


def test_sigma_from_pulse_duration_frozen():
    assert sigma_from_pulse_duration(30e-9) / TWO_PI == pytest.approx(
        rv.SIGMA_HZ_TP30, rel=1e-12)
    assert sigma_from_pulse_duration(100e-9) / TWO_PI == pytest.approx(
        rv.SIGMA_HZ_TP100, rel=1e-12)
    with pytest.raises(InputError):
        sigma_from_pulse_duration(0.0)


def test_source_grid_span_tracks_widest_scale():
    cfg = config.load_config()
    gamma, _, g1 = config.source_from(cfg, 0.1 * rv.GAMMA)
    _, _, g2 = config.source_from(cfg, 5.0 * rv.GAMMA)
    assert g1.span == pytest.approx(40.0 * gamma, rel=1e-15)
    assert g2.span == pytest.approx(200.0 * gamma, rel=1e-15)
    assert g1.n_points == 512


def test_gaussian_jsa_is_symmetric_and_normalized():
    sigma = TWO_PI * 12.5e6
    jsa = build_jsa(FrequencyGrid(40.0 * sigma, 512), rv.GAMMA, sigma)
    assert not jsa.is_factored
    a = jsa.amplitude
    # symmetric up to multiplication order in the three-factor product
    assert np.allclose(a, a.T, rtol=1e-12, atol=0.0)
    assert jsa.l2_mass() == pytest.approx(1.0, rel=1e-12)


def test_pumped_form_agrees_with_its_materialized_amplitude():
    sigma = TWO_PI * 3.7e6
    grid = FrequencyGrid(40.0 * rv.GAMMA, 256)
    jsa = build_jsa(grid, rv.GAMMA, sigma)
    r = cavity_response(grid.detunings, rv.GAMMA)
    # the pump on the index sums (i + j - (n - 1)) dd
    idx = np.arange(grid.n_points)
    raw = np.outer(r, r) * oracles.pump_amplitude(
        (idx[:, None] + idx - (grid.n_points - 1.0)) * grid.spacing, sigma)
    a = jsa.amplitude
    assert np.allclose(a, raw / math.sqrt(np.sum(np.abs(raw) ** 2))
                       / grid.spacing, rtol=1e-14, atol=0.0)
    dd = grid.spacing
    assert jsa.l2_mass() == pytest.approx(
        np.sum(np.abs(a) ** 2) * dd * dd, rel=1e-14)
    for axis, marg in enumerate(jsa.marginals()):
        assert np.allclose(marg, np.sum(np.abs(a) ** 2, axis=1 - axis) * dd,
                           rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kind", ["gaussian", "flat_limit"])
def test_filter_multiplies_the_signal_rows(kind):
    sigma = TWO_PI * 3.7e6 if kind == "gaussian" else None
    grid = FrequencyGrid(40.0 * rv.GAMMA, 256)
    jsa = build_jsa(grid, rv.GAMMA, sigma)
    f = np.exp(1j * np.linspace(0.0, 3.0, 256)) * np.linspace(0.2, 1.0, 256)
    filtered = build_jsa(grid, rv.GAMMA, sigma, f)
    assert filtered.is_factored == (kind == "flat_limit")
    a, want = filtered.amplitude, jsa.amplitude * f[:, None]
    # a flat pump filters its factor; a gaussian multiplies f in after the
    # dense build, in the order of the product above
    assert np.allclose(a, want, rtol=1e-14, atol=0.0)
    assert np.array_equal(a, want) or kind == "flat_limit"
    dd = jsa.grid.spacing
    assert filtered.l2_mass() == pytest.approx(
        np.sum(np.abs(a) ** 2) * dd * dd, rel=1e-13)
    for axis, marg in enumerate(filtered.marginals()):
        assert np.allclose(marg, np.sum(np.abs(a) ** 2, axis=1 - axis) * dd,
                           rtol=1e-12, atol=0.0)


def test_flat_jsa_is_factored_and_normalized():
    grid = FrequencyGrid(span=40.0 * rv.GAMMA, n_points=512)
    jsa = build_jsa(grid, rv.GAMMA, None)
    assert jsa.is_factored
    assert jsa.l2_mass() == pytest.approx(1.0, rel=1e-12)
    u, v = jsa.factors
    resp = cavity_response(grid.detunings, rv.GAMMA)
    # both factors proportional to the cavity line
    assert np.allclose(u / u[0], resp / resp[0], rtol=1e-12)
    assert np.allclose(v / v[0], resp / resp[0], rtol=1e-12)


def test_factored_materialization_cap():
    grid = FrequencyGrid(span=400.0 * rv.GAMMA, n_points=8192)
    jsa = build_jsa(grid, rv.GAMMA, None)
    assert jsa.n_points > MATERIALIZE_LIMIT
    assert jsa.l2_mass() == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(InputError):
        jsa.amplitude


def test_narrow_span_is_refused_by_the_tail_mass_guard():
    # 6*gamma leaves 5.3% in each tail
    grid = FrequencyGrid(span=6.0 * rv.GAMMA, n_points=512)
    with pytest.raises(ModelError, match="tail mass 5.257% per side"):
        build_jsa(grid, rv.GAMMA, None)


def test_lorentzian_tail_mass_guard():
    # 10*gamma still leaves ~3% in one tail
    grid = FrequencyGrid(span=10.0 * rv.GAMMA, n_points=512)
    with pytest.raises(ModelError):
        build_jsa(grid, rv.GAMMA, None)


def test_wide_gaussian_pump_hits_span_floor():
    # span is only 2 sigma here, well under the 8 sigma floor, which
    # trips before any tail-mass estimate is attempted
    grid = FrequencyGrid(span=40.0 * rv.GAMMA, n_points=512)
    with pytest.raises(InputError):
        build_jsa(grid, rv.GAMMA, 20.0 * rv.GAMMA)


def test_axis_marginals_integrate_to_total_mass():
    jsa = build_jsa(FrequencyGrid(40.0 * rv.GAMMA, 512), rv.GAMMA,
                    TWO_PI * 3.7e6)
    dd = jsa.grid.spacing
    for marg in jsa.marginals():
        assert np.sum(marg) * dd == pytest.approx(jsa.l2_mass(), rel=1e-12)
    flat = build_jsa(FrequencyGrid(span=40.0 * rv.GAMMA, n_points=256),
                     rv.GAMMA, None)
    for marg in flat.marginals():
        assert np.sum(marg) * flat.grid.spacing == pytest.approx(
            1.0, rel=1e-12)


@pytest.mark.parametrize("gamma", [TWO_PI * 5.6e72, 5.6e72])
def test_mass_is_exact_where_the_marginal_entries_are_subnormal(gamma):
    # the unscaled marginal entries are about 1e-319 here, although the
    # mass, dd times their sum, is a normal float
    jsa = build_jsa(FrequencyGrid(40.0 * gamma, 8), gamma, 4.3e49)
    assert jsa.l2_mass() == pytest.approx(1.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kind", ["gaussian", "flat_limit"])
def test_mass_is_unit_over_the_accepted_widths(kind):
    # every (sigma, gamma) that build_jsa accepts normalizes to unit mass:
    # sigma over the whole gaussian range, linewidths 1e-3 to 1e300 Hz
    sigmas = np.geomspace(1.5e-154, 9.4e153, 21)
    accepted = 0
    for gamma in TWO_PI * np.geomspace(1e-3, 1e300, 31):
        for sigma in sigmas if kind == "gaussian" else [None]:
            scale = gamma if sigma is None else max(gamma, sigma)
            try:
                jsa = build_jsa(FrequencyGrid(40.0 * scale, 8), gamma, sigma)
            except InputError:
                continue
            accepted += 1
            assert abs(jsa.l2_mass() - 1.0) <= 1e-15, (sigma, gamma)
    assert accepted >= (300 if kind == "gaussian" else 16)


def test_overflowing_mass_is_an_input_error():
    # a pump far narrower than a very narrow line: p(0)^2 alone is 1e306
    gamma = TWO_PI * 1e-3
    with pytest.raises(InputError, match="amplitude overflows"):
        build_jsa(FrequencyGrid(40.0 * gamma, 8), gamma, 1.5e-154)
