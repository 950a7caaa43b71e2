"""The one-dimensional sums of a gaussian pump's purity, mass and marginals
against the dense real kernel, over random small grids, pump widths and
signal filters.

Needs hypothesis, a test-only dependency; the module is skipped where it
is not installed.
"""
import numpy as np
import pytest

from qisim.biphoton import visibility
from qisim.spectral import TWO_PI, FrequencyGrid, build_jsa

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GAMMA = TWO_PI * 5e6


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(half=st.integers(4, 300),
       log_ratio=st.floats(-3.0, 3.0),
       zeros=st.floats(0.0, 0.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sums_match_the_dense_kernel_on_small_grids(half, log_ratio, zeros,
                                                    seed):
    # sigma / gamma from 1e-3 (far below the grid spacing) to 1e3 (the
    # pump sets the span); the filter has random phases and moduli, and
    # about a fraction `zeros` of exact zeros
    n = 2 * half
    sigma = GAMMA * 10.0 ** log_ratio
    grid = FrequencyGrid(40.0 * max(GAMMA, sigma), n)
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
    f[rng.random(n) < zeros] = 0.0
    f[n // 2] = 1.0  # the line centre passes
    jsa = build_jsa(grid, GAMMA, sigma, f)

    assert visibility(jsa) == pytest.approx(oracles.visibility_dense(jsa),
                                            rel=1e-14, abs=0.0)
    mass, *want = oracles.marginals_dense(jsa)
    assert jsa.l2_mass() == pytest.approx(mass, rel=1e-14, abs=0.0)
    for got, ref in zip(jsa.marginals(), want):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)
