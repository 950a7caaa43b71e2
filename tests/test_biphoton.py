import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qisim import biphoton
from qisim.biphoton import joint_time_distribution, visibility
from qisim.eit import EitMedium, group_delay, transmission
from qisim.errors import InputError, ModelError
from qisim.spectral import (TWO_PI, CavityLine, FrequencyGrid,
                            JointSpectralAmplitude, PumpSpectrum, build_jsa,
                            cavity_response, default_grid,
                            sigma_from_pulse_duration)

import oracles
import refvals as rv


LINE = CavityLine(gamma=rv.GAMMA)


def gaussian_jsa(sigma_rad, n_points=512):
    pump = PumpSpectrum(kind="gaussian", sigma=sigma_rad)
    grid = default_grid(LINE, pump, n_points, 40.0)
    return build_jsa(grid, LINE, pump)


def flat_jsa(span_factor=40.0, n_points=512):
    grid = FrequencyGrid(span=span_factor * rv.GAMMA, n_points=n_points)
    return build_jsa(grid, LINE, PumpSpectrum(kind="flat_limit"))


# ------------------------------------------------------------ reduced state

def test_reduced_state_is_a_density_operator():
    jsa = gaussian_jsa(TWO_PI * 12.5e6)
    rho, dd = oracles.reduced_state(jsa), jsa.grid.spacing
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real * dd == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(rho).min() * dd >= -1e-10


def test_reduced_state_of_factored_amplitude_is_rank_one():
    jsa = flat_jsa(n_points=256)
    evals = np.linalg.eigvalsh(oracles.reduced_state(jsa)) * jsa.grid.spacing
    evals = np.sort(evals)[::-1]
    assert evals[0] == pytest.approx(1.0, rel=1e-9)
    assert abs(evals[1]) < 1e-6 * evals[0]


# -------------------------------------------------------------- visibility

def test_visibility_frozen_values():
    assert visibility(gaussian_jsa(TWO_PI * 12.5e6)) == pytest.approx(
        rv.VIS_SIGMA_12P5, abs=1e-12)
    assert visibility(gaussian_jsa(TWO_PI * 3.7e6)) == pytest.approx(
        rv.VIS_SIGMA_3P7, abs=1e-12)
    assert visibility(gaussian_jsa(TWO_PI * 1e9)) == pytest.approx(
        rv.VIS_SIGMA_1GHZ, abs=1e-12)


def test_visibility_from_pulse_durations():
    s30 = sigma_from_pulse_duration(30e-9)
    s100 = sigma_from_pulse_duration(100e-9)
    assert visibility(gaussian_jsa(s30)) == pytest.approx(
        rv.VIS_TP30, abs=1e-12)
    assert visibility(gaussian_jsa(s100)) == pytest.approx(
        rv.VIS_TP100, abs=1e-12)


def test_factored_amplitude_has_unit_visibility():
    assert visibility(flat_jsa()) == 1.0


def test_visibility_matches_independent_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(2):
        gamma = TWO_PI * rng.uniform(2e6, 8e6)
        ratio = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        line = CavityLine(gamma=gamma)
        pump = PumpSpectrum(kind="gaussian", sigma=ratio * gamma)
        jsa = build_jsa(default_grid(line, pump, 32, 40.0),
                        line, pump)
        v_purity = visibility(jsa)
        v_quad = oracles.visibility_quadrature(jsa)
        assert v_purity == pytest.approx(v_quad, rel=1e-6)


def test_quadrature_route_is_capped():
    with pytest.raises(InputError):
        oracles.visibility_quadrature(
            gaussian_jsa(TWO_PI * 12.5e6, n_points=64))


@pytest.mark.parametrize("n_points", [256, 512])
@pytest.mark.parametrize("sigma_hz", [3.7e6, 12.5e6, 1e9])
def test_real_kernel_visibility_matches_the_complex_route(sigma_hz, n_points):
    jsa = gaussian_jsa(TWO_PI * sigma_hz, n_points=n_points)
    assert visibility(jsa) == pytest.approx(oracles.visibility_complex(jsa),
                                            rel=1e-14, abs=0.0)


def test_visibility_never_materializes_the_pumped_amplitude(monkeypatch):
    def refuse(self):
        raise AssertionError("the complex amplitude was materialized")

    monkeypatch.setattr(JointSpectralAmplitude, "amplitude",
                        property(refuse))
    v = visibility(gaussian_jsa(TWO_PI * 12.5e6))
    assert v == pytest.approx(rv.VIS_SIGMA_12P5, abs=1e-12)


def filtered_jsa(n_points):
    """A gaussian amplitude behind the storage filter, whose real kernel
    is not symmetric."""
    jsa = gaussian_jsa(sigma_from_pulse_duration(30e-9), n_points=n_points)
    return build_jsa(jsa.grid, LINE, jsa.pump, storage_filter(jsa))


@pytest.mark.parametrize("sigma_hz", [3.7e6, 12.5e6, 1e9])
def test_visibility_is_scale_free(sigma_hz):
    jsa = gaussian_jsa(TWO_PI * sigma_hz)
    v = visibility(jsa)
    raw = JointSpectralAmplitude(jsa.grid, LINE, jsa.pump)
    assert raw.l2_mass() != pytest.approx(1.0)
    assert visibility(raw) == pytest.approx(v, rel=1e-14, abs=0.0)
    # a filtered amplitude against the same one scaled to unit mass
    filtered = build_jsa(jsa.grid, LINE, jsa.pump, storage_filter(jsa))
    unit = JointSpectralAmplitude(
        jsa.grid, LINE, jsa.pump,
        jsa.scale / math.sqrt(filtered.l2_mass()), filtered.f)
    assert unit.l2_mass() == pytest.approx(1.0, rel=1e-12)
    assert visibility(filtered) == pytest.approx(visibility(unit),
                                                 rel=1e-14, abs=0.0)


def assert_matches_the_dense_kernel(jsa):
    """V to 1e-14 relative, the mass to 1e-14 and each marginal to 1e-13
    of its peak, against the dense real kernel."""
    assert visibility(jsa) == pytest.approx(oracles.visibility_dense(jsa),
                                            rel=1e-14, abs=0.0)
    mass, *want = oracles.marginals_dense(jsa)
    assert jsa.l2_mass() == pytest.approx(mass, rel=1e-14, abs=0.0)
    for got, ref in zip(jsa.marginals(), want):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("n_points", [200, 520, 1000, 2048, 4096])
def test_banded_visibility_matches_the_dense_product(n_points, filtered):
    # 200, 520 and 1000 are not whole bands of rows
    jsa = (filtered_jsa(n_points) if filtered
           else gaussian_jsa(TWO_PI * 3.7e6, n_points=n_points))
    assert_matches_the_dense_kernel(jsa)


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("sigma_hz", [1e3, 1e5, 1e6, 12.5e6, 1e8, 1e9])
def test_sums_match_the_dense_kernel_across_pump_widths(sigma_hz, filtered):
    # from a pump narrower than the grid spacing to one that sets the span
    jsa = gaussian_jsa(TWO_PI * sigma_hz, n_points=520)
    if filtered:
        jsa = build_jsa(jsa.grid, LINE, jsa.pump, storage_filter(jsa))
    assert_matches_the_dense_kernel(jsa)


def test_purity_mass_and_marginals_never_build_the_pump_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("columns of the pumped amplitude were built")

    jsa = filtered_jsa(520)
    monkeypatch.setattr(JointSpectralAmplitude, "column_writer", refuse)
    assert 0.0 < visibility(jsa) < 1.0
    assert 0.0 < jsa.l2_mass() < 1.0
    assert all(np.all(marg >= 0.0) for marg in jsa.marginals())
    # build_jsa's normalization takes the same path
    assert build_jsa(jsa.grid, LINE, jsa.pump).l2_mass() == pytest.approx(
        1.0, rel=1e-12)


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_visibility_memory_budget_at_n_4096():
    # one-dimensional sums over views of 2n - 1 values; no array grows as
    # n^2 (measured: 0.50 MiB traced, where the n x n kernel was 128 MiB)
    pump = PumpSpectrum(kind="gaussian", sigma=TWO_PI * 12.5e6)
    grid = default_grid(LINE, pump, 4096, 40.0)

    def run():
        jsa = build_jsa(grid, LINE, pump)
        visibility(jsa)
        jsa.marginals()

    assert traced_peak_mb(run) < 1.0


def test_visibility_monotone_in_pump_to_line_ratio():
    ratios = np.logspace(-1.0, 1.0, 20)
    vals = [visibility(gaussian_jsa(r * rv.GAMMA, n_points=256))
            for r in ratios]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.2
    assert vals[-1] > 0.99


# ------------------------------------------------------------- time domain

def test_parseval_on_conjugate_grid():
    jsa = gaussian_jsa(TWO_PI * 12.5e6)
    t_grid = oracles.conjugate_time_grid(jsa.grid)
    psi_t = oracles.time_domain(jsa, t_grid)
    assert abs(oracles.parseval_ratio(jsa, psi_t, t_grid) - 1.0) < 1e-12


def test_undersampled_time_grid_is_rejected():
    # 64 points over 24/gamma gives dt ~ 12 ns, above the 4-samples-per
    # -period bound for this bandwidth (~8.2 ns)
    jsa = gaussian_jsa(sigma_from_pulse_duration(30e-9))
    coarse = np.linspace(-2.0 / rv.GAMMA, 22.0 / rv.GAMMA, 64)
    with pytest.raises(ModelError):
        oracles.time_domain(jsa, coarse)


def test_aliasing_guard_catches_broadband_input():
    # a cavity far wider than the grid fills it: a tenth of the mass in
    # its outer 10%
    grid = FrequencyGrid(span=40.0 * rv.GAMMA, n_points=512)
    jsa = JointSpectralAmplitude(grid, CavityLine(gamma=1e6 * grid.span),
                                 PumpSpectrum(kind="flat_limit"))
    with pytest.raises(ModelError, match="outer 10%"):
        oracles.time_domain(jsa, oracles.default_time_grid(LINE))


@pytest.mark.parametrize("kind", ["lorentzian", "eit", "random"])
@pytest.mark.parametrize("n", [10, 8, 130, 4098, 262144])
def test_folded_guards_match_the_sorted_and_masked_sums(n, kind):
    # The fold sums a pair of equal |d| at once and the sorted reference
    # one point at a time, so they pick the same pair.  linspace makes a
    # pair's two |d| differ by rounding of the grid's largest |d| (the
    # C3 Lorentzian: one ulp of it, 1024 ulp of the band's |d|), so the
    # widths agree to 2 ulp of the end per |d|.  The end slices and the
    # mask select the same points, summed in another order (measured
    # up to 1.9e-16 relative).
    span = (64000.0 if n > 4098 else 40.0) * rv.GAMMA
    grid = FrequencyGrid(span=span, n_points=n)
    d = grid.detunings
    mass = np.abs(cavity_response(d, LINE)) ** 2
    if kind == "eit":
        mass *= np.abs(transmission(d, storage_medium())) ** 2
    elif kind == "random":
        mass = np.random.default_rng(n).random(n)
    got = biphoton._bandwidth_99(grid, mass)
    want = oracles.bandwidth_99_sorted(d, mass)
    assert abs(got - want) <= 2.0 * 2.0 * np.spacing(d[-1])
    assert biphoton._outer_fraction(mass) == pytest.approx(
        oracles.outer_fraction_masked(d, mass, span), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("span_factor", [40.0, 64000.0])
def test_outer_slices_are_the_searchsorted_positions(span_factor):
    # n - 1 is odd, so (n - 1) / 20 is no whole number and every point
    # lies at least 0.05 spacings from the edge +-0.9 span / 2: each end
    # slice of _outer_fraction holds ceil((n - 1) / 20) = (n - 2) // 20 + 1
    # points, where a search of the sorted detunings puts the edges
    for n in [*range(8, 4097, 2), 100002, 262144]:
        d = FrequencyGrid(span=span_factor * rv.GAMMA, n_points=n).detunings
        edge = 0.9 * float(d[-1])
        j = (n - 2) // 20 + 1
        assert int(np.searchsorted(d, -edge)) == j
        assert int(np.searchsorted(d, edge, side="right")) == n - j


def test_flat_pump_time_profile_regression():
    jsa = flat_jsa(span_factor=1600.0, n_points=16384)
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
    assert l2 == pytest.approx(rv.FLAT_REG_L2, rel=1e-6)
    dens = psi ** 2
    neg = t_grid < 0.0
    spill = max(dens[neg, :].max(), dens[:, neg].max()) / dens.max()
    assert spill == pytest.approx(rv.FLAT_REG_CAUSAL, rel=1e-3)
    assert spill < 1e-4


def transform(t, grid, vecs):
    """biphoton._transform of the rows of vecs on the frequency grid."""
    return biphoton._transform(t, grid, biphoton._rows(np.asarray(vecs)))


def assert_matches_the_explicit_sum(t, grid, vecs):
    got = transform(t, grid, vecs)
    for row, want in zip(got, oracles.explicit_transform(
            t, grid.detunings, vecs, grid.spacing)):
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n, m, t_lo, t_hi", [
    (64, 301, -3.0, 9.0),        # n < m, odd m
    (4096, 257, -2.0, 8.0),      # n > m, odd m
    (1000, 1000, 0.5, 12.0),     # positive t0
    (16384, 512, -2.0, 8.0),     # the flat-pump regression grid size
    (100000, 301, -2.0, 8.0),    # four segments, the last one partial
    (2**15 + 2, 301, -2.0, 8.0),  # a last segment of two points
    (2**16, 257, -2.0, 8.0),     # two whole segments
])
def test_chirp_z_matches_the_explicit_sum(n, m, t_lo, t_hi):
    rng = np.random.default_rng(n + m)
    span = 1600.0 * rv.GAMMA if n > 4096 else 40.0 * rv.GAMMA
    grid = FrequencyGrid(span=span, n_points=n)
    t = np.linspace(t_lo / rv.GAMMA, t_hi / rv.GAMMA, m)
    lorentz = cavity_response(grid.detunings, LINE)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert_matches_the_explicit_sum(
        t, grid, [lorentz, noise * abs(lorentz[n // 2])])


def test_segmented_transform_of_gaussian_columns():
    # three columns of a gaussian amplitude, as the first pass of a
    # gaussian time_domain takes them, whose pump ridge d_j = -d_i sits
    # on the boundary between the two segments
    pump = PumpSpectrum(kind="gaussian",
                        sigma=sigma_from_pulse_duration(30e-9))
    n = 40000
    grid = default_grid(LINE, pump, n, 40.0)
    jsa = JointSpectralAmplitude(grid, LINE, pump)
    a = n - 2**15 - 1
    write = jsa.column_writer()
    vecs = np.empty((3, n), dtype=complex)
    write(vecs, a, a + 3, 0, n)
    d, t = grid.detunings, oracles.default_time_grid(LINE)

    def shifted(out, lo_col, hi_col, lo, hi):
        write(out, a + lo_col, a + hi_col, lo, hi)
    got = biphoton._transform(t, grid, (3, shifted))
    for row, want in zip(got, oracles.explicit_transform(
            t, d, vecs, grid.spacing)):
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n, m, rows", [
    (512, 1536, 128),     # a storage-map band: all rows in one batch
    (4096, 257, 128),     # 59 rows per batch, the last batch partial
    (32768, 301, 2),      # the longest grid that is one segment
])
def test_chunked_transform_matches_the_single_shot_chirps(n, m, rows):
    rng = np.random.default_rng(n)
    span = 40.0 * rv.GAMMA * max(1, n // 4096)
    grid = FrequencyGrid(span=span, n_points=n)
    t = np.linspace(-2.0 / rv.GAMMA, 8.0 / rv.GAMMA, m)
    vecs = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    want = oracles.chirp_z_single_shot(t, grid.detunings, vecs, grid.spacing)
    assert np.array_equal(transform(t, grid, vecs), want)


def storage_medium():
    return EitMedium(optical_depth=rv.OD, rabi_control=rv.RABI,
                     gamma_ge=rv.GAMMA_GE, gamma_s=rv.GAMMA_S_DEFAULT,
                     length=4e-3)


def storage_filter(jsa):
    """The default medium's transmission on jsa's grid detunings."""
    return transmission(jsa.grid.detunings, storage_medium())


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("n, n_t, t_lo, t_hi", [
    (200, 520, -2.0, 8.0),       # n < n_t, neither a whole number of bands
    (1024, 300, -1.0, 5.0),      # n > n_t
])
def test_streamed_time_domain_matches_the_dense_reference(n, n_t, t_lo, t_hi,
                                                          filtered):
    jsa = gaussian_jsa(sigma_from_pulse_duration(30e-9), n_points=n)
    if filtered:
        jsa = JointSpectralAmplitude(jsa.grid, LINE, jsa.pump, jsa.scale,
                                     storage_filter(jsa))
    t_grid = np.linspace(t_lo / rv.GAMMA, t_hi / rv.GAMMA, n_t)
    want = oracles.time_domain_dense(jsa, t_grid)
    got = oracles.time_domain(jsa, t_grid)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def storage_time_grid():
    """The timedist --with-storage eit grid at the default settings:
    the plain window stretched by two group delays, 3 x 512 points."""
    window = 10.0 / rv.GAMMA
    hi = 0.8 * window + 2.0 * group_delay(storage_medium())
    return np.linspace(-0.2 * window, hi, 1536)


def test_post_storage_memory_budget_at_the_storage_size():
    # the density is the one n_t^2 array (18 MiB), the half-transform's
    # blocks hold 12 MiB, and the transform's work buffer (128 KiB) is all
    # else that is large.  tracemalloc counts the density whole from its
    # allocation, where its pages fill as the blocks are dropped, so
    # test_storage_timedist_peak_resident_memory is the resident check
    # (measured: 30.5 MiB traced, 31.5 with a 1 MiB work buffer; 19.6
    # when the blocks were anonymous mappings that tracemalloc does not
    # see)
    jsa = gaussian_jsa(sigma_from_pulse_duration(100e-9))
    jsa = build_jsa(jsa.grid, LINE, jsa.pump, storage_filter(jsa))
    peak = traced_peak_mb(joint_time_distribution, jsa, storage_time_grid())
    assert peak < 48.0


@pytest.mark.parametrize("tp_s", [100e-9, 30e-9])
def test_time_distribution_memory_budget_at_the_default_size(tp_s):
    # reproduce-all's gaussian densities, 512 frequencies by 512 times:
    # the half-transform C^T (4 MiB) and the density (2 MiB) beside a
    # 128 KiB work buffer that A's columns are written into; measured
    # 6.48 and 6.37 MiB, where a 1 MiB buffer fed from 1 MiB bands of
    # 128 columns read 7.54 and 7.43
    jsa = gaussian_jsa(sigma_from_pulse_duration(tp_s))
    peak = traced_peak_mb(joint_time_distribution, jsa,
                          oracles.default_time_grid(LINE))
    assert peak < 7.0


@pytest.mark.parametrize("batch_values", [1 << 10, 1 << 13, 1 << 16])
def test_densities_do_not_depend_on_the_batch_size(monkeypatch,
                                                   batch_values):
    # each row's FFT is independent of the batch and each element's
    # products keep their order, so batches of 1, 8 or 64 rows (1, 4 or
    # 32 on the storage map) give the same bits as the default
    default = gaussian_jsa(sigma_from_pulse_duration(30e-9))
    storage = gaussian_jsa(sigma_from_pulse_duration(100e-9))
    storage = build_jsa(storage.grid, LINE, storage.pump,
                        storage_filter(storage))
    cases = [(default, oracles.default_time_grid(LINE)),
             (storage, storage_time_grid())]
    want = [joint_time_distribution(*case) for case in cases]
    monkeypatch.setattr(biphoton, "_BATCH_VALUES", batch_values)
    for case, density in zip(cases, want):
        got = joint_time_distribution(*case)
        assert got.tobytes() == density.tobytes()


def test_time_distributions_never_materialize_the_pumped_amplitude(
        monkeypatch):
    def refuse(self):
        raise AssertionError("the complex amplitude was materialized")

    monkeypatch.setattr(JointSpectralAmplitude, "amplitude",
                        property(refuse))
    jsa = gaussian_jsa(sigma_from_pulse_duration(100e-9))
    t_grid = oracles.default_time_grid(LINE)
    density = joint_time_distribution(jsa, t_grid)
    assert oracles.ridge_correlation(t_grid, density) == pytest.approx(
        rv.PEARSON_TP100, abs=1e-9)
    jsa = build_jsa(jsa.grid, LINE, jsa.pump, storage_filter(jsa))
    density = joint_time_distribution(jsa, storage_time_grid())
    assert density.max() == 1.0


def c3_time_grid():
    """The C3 flat-pump profile's 512 bin centres over [-2, 8] / gamma."""
    edges = np.linspace(-2.0 / rv.GAMMA, 8.0 / rv.GAMMA, 513)
    return 0.5 * (edges[:-1] + edges[1:])


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("n, span_factor", [(4096, 40.0), (262144, 64000.0),
                                             (100002, 64000.0)])
def test_factored_time_domain_scales_the_factor_bit_for_bit(n, span_factor,
                                                            filtered):
    # r is evaluated, and scale and filter multiply it, one segment at a
    # time, in the order of the materialized u = scale f r.
    # 100002 points end in a short segment that holds linspace's end
    # point.  The filter passes the far wings of a wide grid again, so its
    # band needs a finer step.
    jsa = flat_jsa(span_factor=span_factor, n_points=n)
    t_grid = c3_time_grid()
    if filtered:
        jsa = build_jsa(jsa.grid, LINE, jsa.pump, storage_filter(jsa))
        t_grid = np.linspace(-1.0 / rv.GAMMA, 4.0 / rv.GAMMA, 700)
    assert np.array_equal(oracles.time_domain(jsa, t_grid),
                          oracles.factored_time_domain(jsa, t_grid))


def test_factored_time_domain_memory_budget_at_c3_size():
    # the C3 grid: 262144 frequencies, 512 times.  r is evaluated a
    # segment at a time; the guards hold 3.0 MiB
    # (test_time_grid_guards_memory_budget_at_c3_size), the transform
    # about four vectors of a segment's 2^15 + 512 points (0.5 MiB each),
    # and the 4 MiB psi its bands; measured 6.3 MiB, where a scaled copy
    # of r, the detunings and the guards' argsorts took 12.0
    jsa = flat_jsa(span_factor=64000.0, n_points=262144)
    assert traced_peak_mb(oracles.time_domain, jsa, c3_time_grid()) < 8.0


def test_flat_time_distribution_memory_budget_at_c3_size():
    # build_jsa and the density of a flat pump at the C3 size hold no
    # complex vector over the 262144 frequencies: r is evaluated a
    # segment at a time wherever it is used, and the guards build no
    # detunings.  The peak is the transform's few vectors of a segment's
    # 2^15 + 512 points beside the 2 MiB density (measured 4.38 MiB),
    # where the guards' 5.0 MiB with the detunings set it at 5.01, and
    # holding r whole (4 MiB) beside those read 9.0
    grid = FrequencyGrid(span=64000.0 * rv.GAMMA, n_points=262144)
    pump = PumpSpectrum(kind="flat_limit")

    def timedist():
        jsa = build_jsa(grid, LINE, pump)
        arrays = [v for v in vars(jsa).values() if isinstance(v, np.ndarray)]
        assert not arrays   # no filter: the amplitude holds no vector
        return joint_time_distribution(jsa, c3_time_grid())

    assert traced_peak_mb(timedist) < 4.7


def test_time_grid_guards_memory_budget_at_c3_size():
    # the moduli |r|^2 (2 MiB, one array without a filter) and the folded
    # half of them (1 MiB), 12 B per frequency point; the grid is read by
    # index, so no detunings are built.  Measured 3.0 MiB, where the
    # detunings (2 MiB) beside them read 5.0 and two marginals with an
    # argsort, a gather and a cumsum each took 12.0
    jsa = flat_jsa(span_factor=64000.0, n_points=262144)
    assert traced_peak_mb(biphoton._check_grids, jsa, c3_time_grid()) < 4.0


def test_time_distributions_never_build_the_detunings(monkeypatch):
    # the guards and the transform read the grid by index: its spacing,
    # its point count and single detunings
    def refuse(self):
        raise AssertionError("the detunings were built")

    flat = flat_jsa(span_factor=64000.0, n_points=262144)
    filtered = flat_jsa(n_points=4096)
    filtered = build_jsa(filtered.grid, LINE, filtered.pump,
                         storage_filter(filtered))
    default = gaussian_jsa(sigma_from_pulse_duration(100e-9))
    storage = build_jsa(default.grid, LINE, default.pump,
                        storage_filter(default))
    cases = [(flat, c3_time_grid()),
             (filtered, np.linspace(-1.0 / rv.GAMMA, 4.0 / rv.GAMMA, 700)),
             (default, oracles.default_time_grid(LINE)),
             (storage, storage_time_grid())]
    want = [joint_time_distribution(*case) for case in cases]
    monkeypatch.setattr(FrequencyGrid, "detunings", property(refuse))
    for case, density in zip(cases, want):
        got = joint_time_distribution(*case)
        assert got.tobytes() == density.tobytes()


# the base holds the layers a grid command loads, as the CLI's own
# import no longer does
_HWM_CHILD = """
import sys
import qisim.biphoton, qisim.cli, qisim.eit, qisim.spectral
if sys.argv[1:]:
    assert qisim.cli.main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def child_hwm_mib(*argv):
    """Peak resident memory of a fresh interpreter that imports the CLI
    and runs argv, as the child reads it from its own status file."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", _HWM_CHILD, *argv], check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.normpath(src))).stdout
    return int(out) / 1024.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_kernel_commands_peak_resident_memory(tmp_path):
    # Resident memory counts what tracemalloc misses: the FFT and BLAS
    # buffers.  At the C3 size the flat timedist evaluates r a segment at
    # a time and holds no complex vector over the frequency grid: its
    # guards hold |r|^2 and its fold, its transform a few vectors of
    # one segment's length, and its peak is the grid CSV after them, the
    # density and the grid writer's bands (measured 7.9 MiB over the
    # import on a 2-vCPU Linux VM, Python 3.11, numpy 2.4, where holding
    # r whole read 9.6 MiB, and a scaled copy of r, the detunings in the
    # transform and the guards' argsorts 17.1 MiB); the n_freq 2048
    # visibility holds one-dimensional sums and a band.
    base = child_hwm_mib()
    timedist = child_hwm_mib(
        "timedist", "--set", "output.formats=csv",
        "--set", "source.pump_kind=flat_limit",
        "--set", "grids.n_freq=262144", "--out", str(tmp_path / "t"))
    visibility = child_hwm_mib(
        "visibility", "--set", "output.formats=csv",
        "--set", "grids.n_freq=2048", "--sigma-hz", "12.5e6", "--tp-s=",
        "--out", str(tmp_path / "v"))
    assert timedist - base < 9.0
    assert visibility - base < 48.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_storage_timedist_peak_resident_memory(tmp_path):
    # The post-storage map (512 frequencies, 1536 times) holds the 18 MiB
    # density, one 1 MiB block of the half-transform and the 128 KiB work
    # buffer, and the heatmap after it: measured 22.6 MiB over the import
    # on a 2-vCPU Linux VM (Python 3.11, numpy 2.4), 21.9 MiB with a
    # 1 MiB work buffer and 26 MiB with a 4 MiB one, where holding all
    # of the 12 MiB half-transform, with a band copied out of the work
    # buffer, read 41.5 MiB.
    base = child_hwm_mib()
    storage = child_hwm_mib(
        "timedist", "--with-storage", "eit", "--set", "output.formats=svg",
        "--out", str(tmp_path / "s"))
    assert storage - base < 34.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_storage_timedist_csv_peak_resident_memory(tmp_path):
    # The 137 MB CSV of the same map is written in bands of 8192 cells,
    # one formatted while the writer thread compacts and writes the one
    # before: measured 23.9 MiB over the import, where bands of 16 rows
    # (24576 cells), their bytes copied and translated on the calling
    # thread, and a 4 MiB work buffer read 28.8 MiB.
    base = child_hwm_mib()
    storage = child_hwm_mib(
        "timedist", "--with-storage", "eit", "--set", "output.formats=csv",
        "--out", str(tmp_path / "s"))
    assert storage - base < 26.5


def test_continuous_pump_density_closed_form():
    t_grid = oracles.default_time_grid(LINE)
    density = oracles.continuous_pump_density(t_grid, LINE)
    # density is the squared amplitude, so it decays at the full rate
    expect = np.exp(-rv.GAMMA * np.abs(np.subtract.outer(t_grid, t_grid)))
    assert np.allclose(density, expect, rtol=1e-12, atol=0.0)
    assert density.max() == 1.0
    assert np.array_equal(density, density.T)


def test_gaussian_time_density_approaches_the_continuum():
    # The span cuts off the Lorentzian's 1/d tails, and the error they
    # leave on the t1 = t2 ridge falls as 1/span: measured 0.701 / 40 and
    # 0.717 / 80 of the peak at T_p = 30 ns, on grids of one spacing.
    sigma = sigma_from_pulse_duration(30e-9)
    pump = PumpSpectrum(kind="gaussian", sigma=sigma)
    t_grid = oracles.default_time_grid(LINE)
    want = oracles.gaussian_pump_density(t_grid, LINE, sigma)
    errors = []
    for factor, n_points in ((40.0, 512), (80.0, 1024)):
        grid = default_grid(LINE, pump, n_points=n_points,
                            span_factor=factor)
        got = joint_time_distribution(build_jsa(grid, LINE, pump), t_grid)
        errors.append(np.max(np.abs(got - want)))
        assert errors[-1] < 0.75 / factor
    assert errors[1] < 0.6 * errors[0]


# ----------------------------------------------------- detection-time maps

def test_joint_time_distribution_frozen_correlations():
    t_grid = oracles.default_time_grid(LINE)
    d100 = joint_time_distribution(
        gaussian_jsa(sigma_from_pulse_duration(100e-9)), t_grid)
    d30 = joint_time_distribution(
        gaussian_jsa(sigma_from_pulse_duration(30e-9)), t_grid)
    assert d100.max() == 1.0
    assert d100.min() >= 0.0
    assert oracles.ridge_correlation(t_grid, d100) == pytest.approx(
        rv.PEARSON_TP100, abs=1e-9)
    assert oracles.ridge_correlation(t_grid, d30) == pytest.approx(
        rv.PEARSON_TP30, abs=1e-9)


@pytest.mark.parametrize("kind", ["gaussian", "flat_limit"])
def test_filter_is_attached_after_the_normalization(kind):
    pump = PumpSpectrum(kind=kind, sigma=sigma_from_pulse_duration(100e-9))
    grid = default_grid(LINE, pump, 512, 40.0)
    plain = build_jsa(grid, LINE, pump)
    f = storage_filter(plain)
    filtered = build_jsa(grid, LINE, pump, f)
    assert plain.f is None
    assert np.array_equal(filtered.f, f)
    assert filtered.scale == plain.scale
    # the filter passes less than all of the unit mass
    assert 0.0 < filtered.l2_mass() < plain.l2_mass()


def test_post_storage_filter_flattens_the_ridge():
    t_grid = np.linspace(-2.0 / rv.GAMMA, 22.0 / rv.GAMMA, 2048)

    def ridge(jsa, f=None):
        jsa = build_jsa(jsa.grid, LINE, jsa.pump, f)
        return oracles.ridge_correlation(
            t_grid, joint_time_distribution(jsa, t_grid))

    jsa100 = gaussian_jsa(sigma_from_pulse_duration(100e-9))
    plain100 = ridge(jsa100)
    filt100 = ridge(jsa100, storage_filter(jsa100))
    assert plain100 == pytest.approx(rv.EXT_PEARSON_TP100_UNFILT, abs=1e-9)
    assert filt100 == pytest.approx(rv.EXT_PEARSON_TP100_FILT, abs=1e-9)
    # narrowband filtering must erase time ordering, not create it
    assert filt100 < plain100

    jsa30 = gaussian_jsa(sigma_from_pulse_duration(30e-9))
    plain30 = ridge(jsa30)
    filt30 = ridge(jsa30, storage_filter(jsa30))
    assert plain30 == pytest.approx(rv.EXT_PEARSON_TP30_UNFILT, abs=1e-9)
    assert filt30 == pytest.approx(rv.EXT_PEARSON_TP30_FILT, abs=1e-9)
    assert abs(filt30 - plain30) < 0.05


def test_post_storage_accepts_vector_filter():
    jsa = gaussian_jsa(sigma_from_pulse_duration(100e-9))
    t_grid = oracles.default_time_grid(LINE)
    ones = np.ones(jsa.grid.n_points)
    a = joint_time_distribution(
        build_jsa(jsa.grid, LINE, jsa.pump, ones), t_grid)
    b = joint_time_distribution(jsa, t_grid)
    assert np.allclose(a, b, atol=1e-12)
