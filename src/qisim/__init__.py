"""Numerical simulator for a narrow-band photon-pair source coupled to an
atomic slow-light memory: joint spectra, time distributions, transparency
and the memory's retrieval decay, and the polarization-qubit layer on
top.  Names other than the errors are imported on first use (PEP 562),
so that importing the CLI loads no numpy layer."""
import importlib

from .errors import InputError, ModelError, QisimError

_EXPORTS = {
    "spectral": "CavityLine FrequencyGrid JointSpectralAmplitude PumpSpectrum"
                " build_jsa cavity_response default_grid"
                " sigma_from_pulse_duration",
    "biphoton": "joint_time_distribution visibility",
    "eit": "EitMedium fit_gamma_s group_delay transmission window_fwhm",
    "qubit": "CHSH_ANGLES SIX_STATES MemoryChannelParams MemoryDecay"
             " PolarizationState QubitDensity TwoQubitDensity alpha_quality"
             " bell_state chsh_S correlation_E correlation_curve crossing_time"
             " curve_visibility fidelity g13_decay_model memory_channel"
             " six_state_battery werner_state",
}

__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names.split():
            return getattr(importlib.import_module("qisim." + module), name)
    raise AttributeError(f"module 'qisim' has no attribute {name!r}")
