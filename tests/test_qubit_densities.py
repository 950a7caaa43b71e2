"""Every density the qubit layer builds is physical: oracles.check_density
(Hermitian, trace 1, positive semidefinite) holds for the Bell and Werner
states and for the storage channel's output on the six states, the Bell
state and a Werner state, over drawn channel parameters.

Needs hypothesis, a test-only dependency; the module is skipped where it
is not installed.
"""
import pytest

from qisim import qubit
from qisim.qubit import (SIX_STATES, MemoryChannelParams, bell_state,
                         memory_channel, werner_state)

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(eta_U=st.floats(1e-3, 1.0), eta_D=st.floats(1e-3, 1.0),
       sigma=st.floats(0.0, 1e200), background=st.floats(0.0, 1e300),
       v=st.floats(0.0, 1.0))
def test_every_density_the_qubit_layer_builds_is_physical(
        eta_U, eta_D, sigma, background, v):
    params = MemoryChannelParams(eta_U=eta_U, eta_D=eta_D,
                                 phase_jitter_sigma=sigma,
                                 background=background)
    pairs = (bell_state(), werner_state(v))
    for rho in pairs:
        oracles.check_density(rho, 4)
        oracles.check_density(memory_channel(rho, params), 4)
    for state in SIX_STATES.values():
        oracles.check_density(memory_channel(qubit._outer(state), params), 2)
